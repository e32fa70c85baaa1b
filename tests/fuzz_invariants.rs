//! The validate subsystem, end to end: trace digests must be stable
//! across shard/thread counts and sensitive to single flipped
//! admissions; every catalog scenario and fuzzed workload must uphold
//! the kernel's conservation invariants; the FACS pre-screens (the
//! `fast_reject` denial and plain FACS's proven admission) must leave
//! every digest unchanged; and the fuzzer's shrinker must hand back a
//! strictly smaller failing workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use facs::{FacsConfig, FacsController, FacsEvaluation, HeadroomFacsController};
use facs_cac::policies::CompleteSharing;
use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BoxedController, CallId, CallRequest,
    CellSnapshot, Decision, ServiceClass, ServiceProfile,
};
use facs_cellsim::prelude::*;
use facs_cellsim::{
    catalog, complexity, shrink, shrink_candidates, FuzzCase, HexGrid, InvariantSink, TraceDigest,
};

fn cs_controllers(grid: &HexGrid) -> Vec<BoxedController> {
    grid.cell_ids().map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
}

/// Runs one scenario (first replication seed) with the given shard
/// count and collects metrics + invariants + digest.
fn instrumented_run(
    config: &ScenarioConfig,
    shards: usize,
) -> (Metrics, InvariantSink, TraceDigest) {
    let seed = config.replication_seeds().next().expect("one replication");
    let grid = config.grid();
    let controllers = cs_controllers(&grid);
    let sim_config = SimulationConfig { shards, ..config.sim_config(seed) };
    let mut sim = Simulation::new(grid, sim_config, controllers);
    let sink = (Metrics::new(), (InvariantSink::new(), TraceDigest::new()));
    let (metrics, (invariants, digest)) = sim.run_with(config.generate_workload(seed), sink);
    (metrics, invariants, digest)
}

fn busy_scenario() -> ScenarioConfig {
    ScenarioConfig {
        requests: 260,
        grid_radius: 1,
        spawn: SpawnSpec::AnyCell,
        mobility: MobilityChoice::Walker,
        replications: 1,
        ..Default::default()
    }
}

#[test]
fn digest_is_shard_and_thread_count_independent() {
    let config = busy_scenario();
    let (metrics, _, single) = instrumented_run(&config, 1);
    assert!(metrics.handoff_attempts > 0, "scenario should exercise handoffs");
    assert!(single.events() > 0, "digest saw no events");
    // 2 and 7 shards run the threaded driver on different worker counts;
    // the digest must not move by a single bit.
    for shards in [2, 4, 7] {
        let (_, _, sharded) = instrumented_run(&config, shards);
        assert_eq!(single, sharded, "digest diverged at {shards} shards");
    }
}

#[test]
fn digest_is_deterministic_per_seed_and_sensitive_to_the_seed() {
    let config = busy_scenario();
    let (_, _, a) = instrumented_run(&config, 1);
    let (_, _, b) = instrumented_run(&config, 1);
    assert_eq!(a, b, "same seed must re-digest identically");
    let reseeded = ScenarioConfig { seed: config.seed + 1, ..config };
    let (_, _, c) = instrumented_run(&reseeded, 1);
    assert_ne!(a, c, "different workload must change the digest");
}

/// Complete sharing, except one specific call id is denied — the
/// minimal "single flipped admission" perturbation.
struct DenyOne {
    inner: CompleteSharing,
    victim: CallId,
}

impl AdmissionController for DenyOne {
    fn name(&self) -> &str {
        "deny-one"
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        if request.id == self.victim {
            AdmissionPlan::Reject(Decision::binary(false))
        } else {
            self.inner.decide(request, cell)
        }
    }
}

/// The FACS controllers whose `decide` is the cascade behind a
/// `fast_reject` pre-screen.
trait Cascade: AdmissionController + Clone + 'static {
    /// Whether `decide` also proves admissions without the cascade.
    const PROVES_ADMISSIONS: bool;

    fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation;
}

impl Cascade for FacsController {
    const PROVES_ADMISSIONS: bool = true;

    fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        FacsController::evaluate(self, request, cell)
    }
}

impl Cascade for HeadroomFacsController {
    // Handoffs go through plain FACS's `decide`, proofs included; new
    // calls are gated on the cascade.
    const PROVES_ADMISSIONS: bool = true;

    fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        HeadroomFacsController::evaluate(self, request, cell)
    }
}

/// How often the inner pre-screens settled a request that fits.
#[derive(Default)]
struct Claims {
    /// `fast_reject` denials: the score-bound claims.
    rejects: AtomicU64,
    /// Admissions whose plan score is not the cascade's: the proven
    /// admissions, whose score is a placeholder. A proof whose cascade
    /// score happens to equal it goes uncounted.
    admits: AtomicU64,
}

/// Forwards every method to `inner` except the pre-screen. `fast_reject`
/// claims nothing, so the engine runs every arrival through `decide`.
/// `decide` still runs the inner one, but answers with the bare cascade:
/// the gated score where the nominal cost fits, whatever the inner
/// pre-screens said. It counts the requests the inner pre-screens settle
/// on a cell that still fits them, so the test can tell both were
/// exercised.
struct NoPreScreen<C> {
    inner: C,
    claims: Arc<Claims>,
}

impl<C: Cascade> AdmissionController for NoPreScreen<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        let screened = self.inner.decide(request, cell);
        if !cell.can_fit(request.demand()) {
            return screened;
        }
        if self.inner.fast_reject(&request.profile, cell) {
            self.claims.rejects.fetch_add(1, Ordering::Relaxed);
        }
        let eval = self.inner.evaluate(request, &cell.snapshot());
        if screened.admits() && screened.decision().score() != eval.score {
            self.claims.admits.fetch_add(1, Ordering::Relaxed);
        }
        AdmissionPlan::gate(eval.decision)
    }

    fn fast_reject(&self, _profile: &ServiceProfile, _cell: &BandwidthLedger) -> bool {
        false
    }

    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        self.inner.observe(now_s, cell);
    }

    fn on_admitted(&mut self, request: &CallRequest, cell: &CellSnapshot) {
        self.inner.on_admitted(request, cell);
    }

    fn on_released(&mut self, call: CallId, class: ServiceClass, cell: &CellSnapshot) {
        self.inner.on_released(call, class, cell);
    }

    fn is_cell_local(&self) -> bool {
        self.inner.is_cell_local()
    }
}

/// Asserts that `prototype` (cloned per cell) digests identically with
/// its pre-screens and with [`NoPreScreen`] on every scenario, that the
/// score bound denied somewhere, and that admissions were proven
/// somewhere exactly when the controller proves them.
fn assert_pre_screen_is_invisible<C: Cascade>(
    family: &str,
    prototype: &C,
    scenarios: &[(String, ScenarioConfig)],
) {
    let claims = Arc::new(Claims::default());
    for (name, config) in scenarios {
        let digest = |controllers: Vec<BoxedController>| {
            let seed = config.replication_seeds().next().expect("one replication");
            let mut sim = Simulation::new(config.grid(), config.sim_config(seed), controllers);
            sim.run_with(config.run_input(seed), TraceDigest::new())
        };
        let cells = config.grid().cell_ids().count();
        let screened =
            digest((0..cells).map(|_| Box::new(prototype.clone()) as BoxedController).collect());
        let unscreened = digest(
            (0..cells)
                .map(|_| {
                    let inner = prototype.clone();
                    let claims = Arc::clone(&claims);
                    Box::new(NoPreScreen { inner, claims }) as BoxedController
                })
                .collect(),
        );
        assert_eq!(screened, unscreened, "{family} on {name}: the pre-screen moved the digest");
    }
    assert!(claims.rejects.load(Ordering::Relaxed) > 0, "{family}: the score bound never fired");
    let admits = claims.admits.load(Ordering::Relaxed);
    assert_eq!(admits > 0, C::PROVES_ADMISSIONS, "{family}: {admits} proven admissions");
}

/// The FACS score-bound pre-screens change no observable event: on every
/// catalog scenario and 50 fuzzed workloads (capacities 10–80 BU, so
/// cells the bound covers and cells it does not), compiled FACS and
/// compiled headroom FACS digest identically with the pre-screens and
/// without them.
#[test]
fn fast_reject_pre_screen_leaves_every_digest_unchanged() {
    let fuzzer = WorkloadFuzzer::new(0xFA57);
    let scenarios: Vec<(String, ScenarioConfig)> = catalog()
        .into_iter()
        .map(|entry| (entry.name.to_owned(), entry.config))
        .chain(fuzzer.cases(50).map(|case| (format!("fuzz case {}", case.index), case.config)))
        .collect();
    let config = FacsConfig::compiled();
    let facs = FacsController::with_config(config).expect("FACS builds");
    assert_pre_screen_is_invisible("facs-compiled", &facs, &scenarios);
    let headroom = HeadroomFacsController::from(facs);
    assert_pre_screen_is_invisible("facs-headroom-compiled", &headroom, &scenarios);
}

#[test]
fn digest_flips_on_a_single_flipped_admission() {
    let config = busy_scenario();
    let seed = config.replication_seeds().next().expect("one replication");
    let workload = config.generate_workload(seed);
    let run = |victim: Option<u64>| {
        let grid = config.grid();
        let controllers: Vec<BoxedController> = grid
            .cell_ids()
            .map(|_| match victim {
                Some(id) => Box::new(DenyOne { inner: CompleteSharing::new(), victim: CallId(id) })
                    as BoxedController,
                None => Box::new(CompleteSharing::new()) as BoxedController,
            })
            .collect();
        let mut sim = Simulation::new(grid, config.sim_config(seed), controllers);
        sim.run_with(workload.clone(), (Metrics::new(), TraceDigest::new()))
    };
    let (base_metrics, baseline) = run(None);
    let (flipped_metrics, flipped) = run(Some(7));
    assert_eq!(
        base_metrics.accepted_new,
        flipped_metrics.accepted_new + 1,
        "exactly one admission should have flipped"
    );
    assert_ne!(baseline, flipped, "a single flipped admission must change the digest");
}

#[test]
fn catalog_scenarios_uphold_all_invariants() {
    for entry in catalog() {
        let config = ScenarioConfig { replications: 1, ..entry.config };
        for shards in [1, 3] {
            let (metrics, invariants, _) = instrumented_run(&config, shards);
            let violations = invariants.violations();
            assert!(
                violations.is_empty(),
                "{} at {shards} shards violated invariants: {violations:?}",
                entry.name
            );
            let drift = invariants.cross_check(&metrics);
            assert!(
                drift.is_empty(),
                "{} at {shards} shards: metrics drifted from events: {drift:?}",
                entry.name
            );
            assert!(invariants.samples_checked() > 0, "{}: no capacity samples", entry.name);
        }
    }
}

#[test]
fn fuzzed_workloads_uphold_all_invariants() {
    // Cheap tier-1 slice of the CI `--exp validate` sweep: complete
    // sharing (no fuzzy compile) over a handful of fuzzed scenarios.
    let fuzzer = WorkloadFuzzer::new(0x5EED);
    for case in fuzzer.cases(8) {
        let (metrics, invariants, single) = instrumented_run(&case.config, 1);
        let violations = invariants.violations();
        assert!(
            violations.is_empty(),
            "fuzz case {} violated invariants: {violations:?}",
            case.index
        );
        assert!(
            invariants.cross_check(&metrics).is_empty(),
            "fuzz case {}: metrics drift",
            case.index
        );
        let (_, _, sharded) = instrumented_run(&case.config, 4);
        assert_eq!(single, sharded, "fuzz case {}: digest diverged at 4 shards", case.index);
    }
}

#[test]
fn shrinking_produces_a_strictly_smaller_failing_workload() {
    let case = WorkloadFuzzer::new(0xBEEF).case(0);
    let mut case = case;
    case.config.requests = 250;
    case.config.grid_radius = 2;
    let original_complexity = complexity(&case.config);
    // Synthetic failure predicate: "fails" whenever the workload still
    // offers at least 25 requests.
    let fails = |c: &FuzzCase| c.config.requests >= 25;
    let minimal = shrink(&case, fails);
    assert!(fails(&minimal), "shrunk case no longer fails");
    assert!(
        complexity(&minimal.config) < original_complexity,
        "shrinking must strictly reduce structural complexity"
    );
    assert_eq!(minimal.config.requests, 25, "requests should bottom out at the threshold");
    assert_eq!(minimal.config.grid_radius, 0, "grid should shrink to a single cell");
    // And at the fixpoint, no candidate fails anymore.
    assert!(shrink_candidates(&minimal.config)
        .into_iter()
        .all(|config| !fails(&FuzzCase { config, ..minimal.clone() })));
}
