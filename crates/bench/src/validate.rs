//! The `validate` subsystem's bench half: golden-trace digests for the
//! scenario catalog and the fuzzed-workload cross-check harness.
//!
//! * [`golden_digests`] runs every catalog scenario under every
//!   controller variant (FACS exact, FACS compiled, degradation-aware
//!   FACS, complete sharing, SCC) and records one order-insensitive
//!   [`TraceDigest`] per
//!   `(scenario, variant)` pair. `--exp golden --bless` writes them to
//!   `results/golden/*.json`; `--exp golden --check` recomputes and
//!   diffs them, so any behavioural drift of the kernel, the workload
//!   generator or a controller fails CI with a readable diff.
//! * [`validate_config`] is the per-fuzz-case property: the same
//!   workload must produce **bit-identical digests** on 1 vs N shards
//!   (the kernel's determinism guarantee, per backend), every run must
//!   uphold the [`InvariantSink`] conservation laws, and the exact vs
//!   compiled FACS backends must agree — bit-identically when no
//!   decision lands inside the compiled surface's interpolation error
//!   (the common case, and true of every catalog scenario). When the
//!   trajectories do diverge, [`audit_backend_divergence`] replays the
//!   offered population open-loop and demands every decision flip stay
//!   inside the surface's [`BACKEND_SCORE_TOLERANCE`] contract — a
//!   closed simulation loop amplifies one near-threshold flip into
//!   arbitrarily different trajectories, so digest inequality across
//!   *backends* is expected there, while digest inequality across
//!   *shard counts* is always a kernel bug. `--exp validate --cases N`
//!   runs it over N fuzzed scenarios and shrinks any failure to a
//!   minimal reproducer (see [`facs_cellsim::fuzz`]).

use facs::{FacsConfig, FacsController};
use facs_cac::{BandwidthUnits, CallId, CallKind, CallRequest, CellSnapshot};
use facs_cellsim::prelude::*;
use facs_cellsim::{catalog, ControllerSlot, FuzzCase, InvariantSink, TraceDigest};
use facs_scc::SccConfig;

use crate::experiments::{
    cs_builder, facs_builder, facs_degrade_builder, headroom_builder, scc_builder,
};

/// The golden-file schema version. Bump it whenever the digest
/// *payload* changes shape (e.g. the multi-class elastic redesign
/// folded allocations and reallocations into the trace): old baselines
/// are then incomparable by construction, and `--check` fails with a
/// re-bless instruction instead of a wall of digest mismatches.
pub const GOLDEN_SCHEMA: &str = "2";

/// The controller variants golden digests are recorded for.
///
/// Golden runs are always single-shard (digests are shard-count
/// invariant, and SCC's cross-cell shadow board cannot shard at all),
/// so the variant list carries no shard policy.
#[must_use]
pub fn golden_variants() -> Vec<(&'static str, Box<ControllerBuilder>)> {
    vec![
        ("facs-exact", Box::new(facs_builder(FacsConfig::default()))),
        ("facs-compiled", Box::new(facs_builder(FacsConfig::compiled()))),
        ("facs-degrade", Box::new(facs_degrade_builder(FacsConfig::default()))),
        ("complete-sharing", Box::new(cs_builder())),
        ("scc", Box::new(scc_builder(SccConfig::default()))),
        // Headroom variants, appended behind the original five so
        // existing baseline digests stay byte-comparable (same
        // GOLDEN_SCHEMA; golden_diff flags the new names as "re-bless"
        // on baselines that predate them).
        ("facs-headroom", Box::new(headroom_builder(FacsConfig::default()))),
        ("facs-headroom-compiled", Box::new(headroom_builder(FacsConfig::compiled()))),
    ]
}

/// Runs `config` once (first replication seed) under `build`, streaming
/// into metrics + invariant + digest sinks, and asserts the run was
/// internally consistent.
///
/// # Panics
///
/// Panics if the run violates a kernel invariant — golden digests of a
/// broken run must never be recorded.
#[must_use]
pub fn digest_run(config: &ScenarioConfig, build: &ControllerBuilder) -> (Metrics, TraceDigest) {
    let (metrics, digest, violations) = checked_run(config, build);
    assert!(violations.is_empty(), "invariant violations in digest run: {violations:?}");
    (metrics, digest)
}

/// Runs `config` once and returns the metrics, digest, and every
/// invariant violation found (empty for a healthy run).
#[must_use]
pub fn checked_run(
    config: &ScenarioConfig,
    build: &ControllerBuilder,
) -> (Metrics, TraceDigest, Vec<String>) {
    let seed = config.replication_seeds().next().expect("at least one replication");
    let grid = config.grid();
    let controllers = build(&grid);
    let mut sim = Simulation::new(grid, config.sim_config(seed), controllers);
    let sink = (Metrics::new(), (InvariantSink::new(), TraceDigest::new()));
    let (metrics, (invariants, digest)) = sim.run_with(config.run_input(seed), sink);
    let mut violations = invariants.violations();
    violations.extend(invariants.cross_check(&metrics));
    (metrics, digest, violations)
}

/// Digests of one catalog scenario across all controller variants.
#[derive(Debug, Clone)]
pub struct ScenarioDigests {
    /// The catalog entry name (also the JSON file stem).
    pub scenario: String,
    /// The [`GOLDEN_SCHEMA`] the digests were recorded under. Baselines
    /// written before the field existed parse as `"1"`.
    pub schema: String,
    /// `(variant name, digest hex)` in [`golden_variants`] order.
    pub digests: Vec<(String, String)>,
}

impl ScenarioDigests {
    /// Renders the golden JSON document for this scenario.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scenario\": \"{}\"", self.scenario));
        out.push_str(&format!(",\n  \"schema\": \"{}\"", self.schema));
        for (variant, digest) in &self.digests {
            out.push_str(&format!(",\n  \"{variant}\": \"{digest}\""));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a golden JSON document written by [`ScenarioDigests::to_json`].
    ///
    /// The format is a flat object of string fields; every key except
    /// `scenario` and `schema` is a variant digest. Returns `None` when
    /// no `scenario` field is present.
    #[must_use]
    pub fn from_json(json: &str) -> Option<Self> {
        let mut scenario = None;
        let mut schema = None;
        let mut digests = Vec::new();
        for (key, value) in string_fields(json) {
            if key == "scenario" {
                scenario = Some(value);
            } else if key == "schema" {
                schema = Some(value);
            } else {
                digests.push((key, value));
            }
        }
        Some(Self {
            scenario: scenario?,
            schema: schema.unwrap_or_else(|| "1".to_owned()),
            digests,
        })
    }

    /// The digest recorded for `variant`, if any.
    #[must_use]
    pub fn digest(&self, variant: &str) -> Option<&str> {
        self.digests.iter().find(|(v, _)| v == variant).map(|(_, d)| d.as_str())
    }
}

/// Extracts the `"key": "value"` string fields of a flat JSON object
/// (no escapes — keys and digests are plain identifiers/hex).
fn string_fields(json: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find('"') {
        let after_key = &rest[start + 1..];
        let Some(key_end) = after_key.find('"') else { break };
        let key = &after_key[..key_end];
        let tail = &after_key[key_end + 1..];
        let trimmed = tail.trim_start();
        if let Some(value_part) = trimmed.strip_prefix(':') {
            let value_part = value_part.trim_start();
            if let Some(value_body) = value_part.strip_prefix('"') {
                if let Some(value_end) = value_body.find('"') {
                    out.push((key.to_owned(), value_body[..value_end].to_owned()));
                    rest = &value_body[value_end + 1..];
                    continue;
                }
            }
        }
        rest = tail;
    }
    out
}

/// Computes the golden digests for every catalog scenario × variant.
///
/// Runs single-shard with one replication (digests are shard-count
/// invariant — `validate_config` and the determinism suite prove it —
/// and SCC cannot shard at all).
#[must_use]
pub fn golden_digests() -> Vec<ScenarioDigests> {
    let variants = golden_variants();
    catalog()
        .into_iter()
        .map(|entry| {
            let config = ScenarioConfig { replications: 1, shards: 1, ..entry.config };
            let digests = variants
                .iter()
                .map(|(name, build)| {
                    let (_, digest) = digest_run(&config, build.as_ref());
                    ((*name).to_owned(), digest.hex())
                })
                .collect();
            ScenarioDigests {
                scenario: entry.name.to_owned(),
                schema: GOLDEN_SCHEMA.to_owned(),
                digests,
            }
        })
        .collect()
}

/// Compares freshly computed digests against the checked-in baselines
/// in `dir`. Returns human-readable mismatch lines (empty = pass).
#[must_use]
pub fn golden_diff(dir: &str, fresh: &[ScenarioDigests]) -> Vec<String> {
    let mut diffs = Vec::new();
    for scenario in fresh {
        let path = format!("{dir}/{}.json", scenario.scenario);
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                diffs.push(format!(
                    "{path}: missing baseline ({e}); run `--exp golden --bless` to record it"
                ));
                continue;
            }
        };
        let Some(baseline) = ScenarioDigests::from_json(&committed) else {
            diffs.push(format!("{path}: unparseable baseline; re-bless it"));
            continue;
        };
        // A schema bump means the digest payload changed shape: the
        // baseline digests are incomparable by construction, so fail
        // loudly with the remedy instead of diffing them.
        if baseline.schema != scenario.schema {
            diffs.push(format!(
                "{path}: golden schema bumped ({} -> {}); digests are not comparable — \
                 re-bless with `--exp golden --bless`",
                baseline.schema, scenario.schema
            ));
            continue;
        }
        for (variant, got) in &scenario.digests {
            match baseline.digest(variant) {
                None => diffs.push(format!(
                    "{}/{variant}: no baseline digest recorded; re-bless",
                    scenario.scenario
                )),
                Some(expected) if expected != got => diffs.push(format!(
                    "{}/{variant}: digest mismatch\n    expected {expected}\n    got      {got}",
                    scenario.scenario
                )),
                Some(_) => {}
            }
        }
        // Baseline entries for variants that no longer exist are stale:
        // they would otherwise pass --check forever after a rename.
        for (variant, _) in &baseline.digests {
            if scenario.digest(variant).is_none() {
                diffs.push(format!(
                    "{}/{variant}: stale baseline entry for a variant that no longer runs; \
                     re-bless to prune it",
                    scenario.scenario
                ));
            }
        }
    }
    // Baseline files for scenarios that no longer exist (e.g. a renamed
    // catalog entry) are equally stale — --bless writes but never
    // prunes, so flag them for manual removal.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            if !fresh.iter().any(|s| s.scenario == stem) {
                diffs.push(format!(
                    "{dir}/{stem}.json: stale baseline for a scenario not in the catalog; \
                     delete it (git rm) or restore the scenario"
                ));
            }
        }
    }
    diffs
}

/// How the exact and compiled backends compared on one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendMatch {
    /// Every decision agreed: the two backends' digests are
    /// bit-identical.
    Identical,
    /// Some near-threshold decisions flipped, but within the compiled
    /// surface's documented decision-divergence budget.
    WithinTolerance,
}

/// One (backend, shard count) cell of the validate matrix.
struct MatrixRun {
    label: String,
    metrics: Metrics,
    digest: TraceDigest,
}

/// The compiled surface's score-error contract: EXPERIMENTS.md measures
/// max |Δscore| 0.033 on the default lattice and the core property
/// tests bound the cascade divergence below 0.06 — but both sweep the
/// paper's fixed 40-BU cell and rigid profiles. Fuzzed capacities and
/// elastic profiles reach cascade regions those sweeps never sample:
/// the widened audit coverage from the stateful controller slots
/// surfaced a latent 0.088 gap (32-BU cell, 9-BU video request at 75 %
/// occupancy, compiled FLC1 error amplified through the exact FLC2),
/// which recalibrated this bound from its original 0.08. A decision
/// flip whose exact-vs-compiled score gap exceeds this is a backend
/// bug, not interpolation noise.
pub const BACKEND_SCORE_TOLERANCE: f64 = 0.10;

/// Occupancy points (fractions of capacity) the backend audit sweeps.
const AUDIT_OCCUPANCY_FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.95];

/// The exact and compiled FACS configurations under cross-check, with
/// their controller builders constructed once (so controller
/// construction happens once per process, not once per case).
pub struct BackendPair {
    /// Exact-Mamdani configuration.
    pub exact: FacsConfig,
    /// Compiled-surface configuration.
    pub compiled: FacsConfig,
    exact_builder: Box<ControllerBuilder>,
    compiled_builder: Box<ControllerBuilder>,
    /// The stateless single-decision cascades the open-loop audit
    /// replays, one per backend.
    exact_eval: FacsController,
    compiled_eval: FacsController,
}

impl std::fmt::Debug for BackendPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendPair")
            .field("exact", &self.exact)
            .field("compiled", &self.compiled)
            .finish()
    }
}

impl BackendPair {
    /// Builds the pair for two FACS configurations.
    #[must_use]
    pub fn new(exact: FacsConfig, compiled: FacsConfig) -> Self {
        Self {
            exact,
            compiled,
            exact_builder: Box::new(facs_builder(exact)),
            compiled_builder: Box::new(facs_builder(compiled)),
            exact_eval: FacsController::with_config(exact).expect("FACS builds"),
            compiled_eval: FacsController::with_config(compiled).expect("FACS builds"),
        }
    }

    /// Builds the pair for one fuzzed controller family: the default
    /// exact/compiled FACS configurations, wrapped in that family's
    /// controller. The open-loop [`audit_backend_divergence`] replays
    /// the plain reactive cascade for both families: the headroom gate
    /// only adds a second occupancy to score at, so its per-decision
    /// divergence is the cascade's.
    #[must_use]
    pub fn for_slot(slot: ControllerSlot) -> Self {
        let (exact, compiled) = (FacsConfig::default(), FacsConfig::compiled());
        match slot {
            ControllerSlot::Baseline => Self::new(exact, compiled),
            ControllerSlot::Headroom => Self {
                exact_builder: Box::new(headroom_builder(exact)),
                compiled_builder: Box::new(headroom_builder(compiled)),
                ..Self::new(exact, compiled)
            },
        }
    }
}

impl Default for BackendPair {
    /// The pair the validate sweep runs: paper-default exact Mamdani vs
    /// the default compiled surface.
    fn default() -> Self {
        Self::new(FacsConfig::default(), FacsConfig::compiled())
    }
}

/// Audits a digest divergence between the exact and compiled backends:
/// replays the case's offered population decision-by-decision — as both
/// new-call and handoff requests (the handoff bias shifts the score) —
/// over a deterministic occupancy sweep, and demands that every
/// decision flip stays inside [`BACKEND_SCORE_TOLERANCE`] — i.e. that
/// the divergence is the compiled surface's documented near-threshold
/// interpolation error and nothing else. Returns `(flips, samples)` on
/// success.
///
/// A closed-loop simulation *amplifies* any flip (an extra admitted
/// call changes occupancy, which changes every later decision), so
/// trajectory-level metrics cannot distinguish interpolation noise from
/// a real backend bug — this open-loop audit can.
pub fn audit_backend_divergence(
    config: &ScenarioConfig,
    pair: &BackendPair,
) -> Result<(u64, u64), String> {
    let threshold = pair.exact.threshold;
    let seed = config.replication_seeds().next().expect("at least one replication");
    let grid = config.grid();
    let mut flips = 0u64;
    let mut samples = 0u64;
    for spec in config.generate_workload(seed) {
        let cell = grid.locate(spec.start.position);
        let observation = spec.start.observe(grid.center_of(cell));
        for kind in [CallKind::New, CallKind::Handoff] {
            let request = CallRequest::new(CallId(0), spec.profile.class, kind, observation)
                .with_profile(spec.profile);
            for fraction in AUDIT_OCCUPANCY_FRACTIONS {
                let occupied = (f64::from(config.capacity_bu) * fraction).round() as u32;
                let snapshot = CellSnapshot::loaded(
                    BandwidthUnits::new(config.capacity_bu),
                    BandwidthUnits::new(occupied.min(config.capacity_bu)),
                );
                let e = pair.exact_eval.evaluate(&request, &snapshot);
                let c = pair.compiled_eval.evaluate(&request, &snapshot);
                samples += 1;
                if (e.score > threshold) != (c.score > threshold) {
                    flips += 1;
                    let gap = (e.score - c.score).abs();
                    if gap > BACKEND_SCORE_TOLERANCE {
                        return Err(format!(
                            "backend flip beyond interpolation error: exact score {:.4} vs \
                             compiled {:.4} (gap {gap:.4} > {BACKEND_SCORE_TOLERANCE}) for \
                             {kind:?} speed {:.1} angle {:.1} distance {:.2} class {:?} \
                             occupied {occupied}",
                            e.score,
                            c.score,
                            observation.speed_kmh,
                            observation.angle_deg,
                            observation.distance_km,
                            spec.profile.class
                        ));
                    }
                }
            }
        }
    }
    Ok((flips, samples))
}

/// The shard counts one fuzz case is cross-checked on: single-shard vs
/// the case's sampled multi-shard count (the fuzzer draws 2–7).
#[must_use]
pub fn validate_shard_counts(config: &ScenarioConfig) -> [usize; 2] {
    [1, config.shards.max(2)]
}

/// The fuzz property: every (backend × shard count) run of `config`
/// must be invariant-clean; within each backend the 1-shard and
/// N-shard digests must be **bit-identical** (the kernel guarantee);
/// across backends, digests are compared and any divergence must pass
/// the [`audit_backend_divergence`] interpolation-error audit. Returns
/// how the backends compared, or a description of the first failure.
pub fn validate_config(
    config: &ScenarioConfig,
    pair: &BackendPair,
) -> Result<BackendMatch, String> {
    let mut per_backend: Vec<MatrixRun> = Vec::new();
    for (backend, build) in
        [("exact", pair.exact_builder.as_ref()), ("compiled", pair.compiled_builder.as_ref())]
    {
        let mut runs: Vec<MatrixRun> = Vec::new();
        for shards in validate_shard_counts(config) {
            let shard_config = ScenarioConfig { shards, ..config.clone() };
            let (metrics, digest, violations) = checked_run(&shard_config, build);
            let label = format!("{backend}/{shards}-shard");
            if !violations.is_empty() {
                return Err(format!(
                    "invariant violations on {label}:\n  {}",
                    violations.join("\n  ")
                ));
            }
            runs.push(MatrixRun { label, metrics, digest });
        }
        if config.streamed {
            // Streamed-vs-eager safety net: the same workload, eagerly
            // materialized, must replay the exact same trace.
            let eager = ScenarioConfig { streamed: false, shards: 1, ..config.clone() };
            let (metrics, digest, violations) = checked_run(&eager, build);
            let label = format!("{backend}/eager");
            if !violations.is_empty() {
                return Err(format!(
                    "invariant violations on {label}:\n  {}",
                    violations.join("\n  ")
                ));
            }
            runs.push(MatrixRun { label, metrics, digest });
        }
        // Hard kernel invariant: neither sharding nor streamed
        // synthesis may change one event.
        let first = &runs[0];
        for run in &runs[1..] {
            if run.digest != first.digest {
                return Err(format!(
                    "digest divergence: {} produced {} but {} produced {}",
                    first.label,
                    first.digest.hex(),
                    run.label,
                    run.digest.hex()
                ));
            }
        }
        per_backend.push(runs.swap_remove(0));
    }
    let (exact_run, compiled_run) = (&per_backend[0], &per_backend[1]);
    if exact_run.digest == compiled_run.digest {
        return Ok(BackendMatch::Identical);
    }
    let (e, c) = (&exact_run.metrics, &compiled_run.metrics);
    if e.offered_new != c.offered_new {
        return Err(format!(
            "backends saw different offered traffic: exact {} vs compiled {} \
             (the workload must be policy-independent)",
            e.offered_new, c.offered_new
        ));
    }
    // The trajectories diverged; prove every underlying decision flip
    // is inside the compiled surface's interpolation-error contract.
    audit_backend_divergence(config, pair)?;
    Ok(BackendMatch::WithinTolerance)
}

/// A fuzz failure, shrunk to its minimal reproducer.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The case that failed, with `config` shrunk to the minimal
    /// still-failing scenario.
    pub case: FuzzCase,
    /// What the minimal case does wrong.
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fuzz case {} of seed {} FAILED; minimal reproducing workload:",
            self.case.index, self.case.fuzz_seed
        )?;
        writeln!(f, "  {:?}", self.case.config)?;
        writeln!(f, "  controller: {:?}", self.case.controller)?;
        writeln!(f, "  failure: {}", self.detail)?;
        write!(
            f,
            "  reproduce: experiments --exp validate --fuzz-seed {} --cases {}",
            self.case.fuzz_seed,
            self.case.index + 1
        )
    }
}

/// Tally of one validation sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Cases whose exact/compiled digests were bit-identical.
    pub identical: u64,
    /// Cases with flipped near-threshold decisions inside the budget.
    pub within_tolerance: u64,
}

impl ValidationSummary {
    /// Total clean cases.
    #[must_use]
    pub fn cases(&self) -> u64 {
        self.identical + self.within_tolerance
    }
}

/// Runs `cases` fuzzed workloads (from `fuzz_seed`) through
/// [`validate_config`]; on failure, shrinks to a minimal reproducer.
/// `progress` is called after every clean case with
/// `(index, requests, match kind)`.
pub fn run_validation(
    fuzz_seed: u64,
    cases: u64,
    mut progress: impl FnMut(u64, usize, BackendMatch),
) -> Result<ValidationSummary, Box<FuzzFailure>> {
    // One pair per fuzzable controller family, built once so controller
    // construction is paid per process, not per case.
    let pairs = [
        (ControllerSlot::Baseline, BackendPair::for_slot(ControllerSlot::Baseline)),
        (ControllerSlot::Headroom, BackendPair::for_slot(ControllerSlot::Headroom)),
    ];
    let pair_for = |slot: ControllerSlot| {
        &pairs.iter().find(|(s, _)| *s == slot).expect("every slot has a pair").1
    };
    let fuzzer = WorkloadFuzzer::new(fuzz_seed);
    let mut summary = ValidationSummary::default();
    for case in fuzzer.cases(cases) {
        match validate_config(&case.config, pair_for(case.controller)) {
            Ok(kind) => {
                match kind {
                    BackendMatch::Identical => summary.identical += 1,
                    BackendMatch::WithinTolerance => summary.within_tolerance += 1,
                }
                progress(case.index, case.config.requests, kind);
            }
            Err(first_detail) => {
                let shrunk = facs_cellsim::shrink(&case, |candidate| {
                    validate_config(&candidate.config, pair_for(candidate.controller)).is_err()
                });
                let detail = validate_config(&shrunk.config, pair_for(shrunk.controller))
                    .err()
                    .unwrap_or(first_detail);
                return Err(Box::new(FuzzFailure { case: shrunk, detail }));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_digests_match_eager_across_catalog() {
        let pair = BackendPair::default();
        for entry in catalog() {
            for shards in [1usize, 4] {
                for (backend, build) in [
                    ("exact", pair.exact_builder.as_ref()),
                    ("compiled", pair.compiled_builder.as_ref()),
                ] {
                    let eager = ScenarioConfig { shards, streamed: false, ..entry.config.clone() };
                    let streamed =
                        ScenarioConfig { shards, streamed: true, ..entry.config.clone() };
                    let (_, eager_digest) = digest_run(&eager, build);
                    let (_, streamed_digest) = digest_run(&streamed, build);
                    assert_eq!(
                        eager_digest, streamed_digest,
                        "streamed digest diverged from eager on {} ({backend}, {shards} shards)",
                        entry.name
                    );
                }
            }
        }
    }

    #[test]
    fn golden_json_round_trips() {
        let digests = ScenarioDigests {
            scenario: "hotspot".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![
                ("facs-exact".to_owned(), "aa11".to_owned()),
                ("scc".to_owned(), "bb22".to_owned()),
            ],
        };
        let json = digests.to_json();
        let parsed = ScenarioDigests::from_json(&json).expect("parses");
        assert_eq!(parsed.scenario, "hotspot");
        assert_eq!(parsed.schema, GOLDEN_SCHEMA);
        assert_eq!(parsed.digest("facs-exact"), Some("aa11"));
        assert_eq!(parsed.digest("scc"), Some("bb22"));
        assert_eq!(parsed.digest("missing"), None);
        // `schema` must never leak into the variant list.
        assert_eq!(parsed.digest("schema"), None);
    }

    #[test]
    fn schemaless_baselines_parse_as_schema_one() {
        let parsed = ScenarioDigests::from_json(
            "{\n  \"scenario\": \"old\",\n  \"facs-exact\": \"cc33\"\n}\n",
        )
        .expect("parses");
        assert_eq!(parsed.schema, "1");
        assert_eq!(parsed.digest("facs-exact"), Some("cc33"));
    }

    #[test]
    fn from_json_rejects_scenarioless_documents() {
        assert!(ScenarioDigests::from_json("{\"a\": \"b\"}")
            .map(|d| d.scenario.is_empty())
            .unwrap_or(true));
    }

    /// A fresh, empty per-test scratch directory under the system temp
    /// dir (unique per test name so parallel tests cannot collide, and
    /// recreated from scratch so stale files from old runs cannot leak
    /// into the stale-baseline scan).
    fn scratch_dir(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("facs-golden-{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn golden_diff_reports_mismatch_and_missing() {
        let dir = scratch_dir("mismatch");
        let committed = ScenarioDigests {
            scenario: "demo".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![("facs-exact".to_owned(), "0000".to_owned())],
        };
        std::fs::write(format!("{dir}/demo.json"), committed.to_json()).expect("write baseline");
        let fresh = vec![
            ScenarioDigests {
                scenario: "demo".to_owned(),
                schema: GOLDEN_SCHEMA.to_owned(),
                digests: vec![
                    ("facs-exact".to_owned(), "ffff".to_owned()),
                    ("scc".to_owned(), "1234".to_owned()),
                ],
            },
            ScenarioDigests {
                scenario: "absent".to_owned(),
                schema: GOLDEN_SCHEMA.to_owned(),
                digests: vec![],
            },
        ];
        let diffs = golden_diff(&dir, &fresh);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[0].contains("digest mismatch"), "{diffs:?}");
        assert!(diffs[0].contains("expected 0000"), "{diffs:?}");
        assert!(diffs[1].contains("no baseline digest"), "{diffs:?}");
        assert!(diffs[2].contains("missing baseline"), "{diffs:?}");
        let clean = vec![ScenarioDigests {
            scenario: "demo".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![("facs-exact".to_owned(), "0000".to_owned())],
        }];
        assert!(golden_diff(&dir, &clean).is_empty());
    }

    #[test]
    fn golden_diff_fails_loudly_on_a_schema_bump() {
        let dir = scratch_dir("schema-bump");
        // A baseline recorded before the schema field existed (parses as
        // schema "1") whose digest happens to match: the bump alone must
        // fail the check, and the digest diff must be suppressed.
        std::fs::write(
            format!("{dir}/demo.json"),
            "{\n  \"scenario\": \"demo\",\n  \"facs-exact\": \"aaaa\"\n}\n",
        )
        .expect("write baseline");
        let fresh = vec![ScenarioDigests {
            scenario: "demo".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![("facs-exact".to_owned(), "ffff".to_owned())],
        }];
        let diffs = golden_diff(&dir, &fresh);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("schema bumped (1 -> 2)"), "{diffs:?}");
        assert!(diffs[0].contains("re-bless"), "{diffs:?}");
        assert!(!diffs[0].contains("digest mismatch"), "{diffs:?}");
    }

    #[test]
    fn golden_diff_flags_stale_files_and_variants() {
        let dir = scratch_dir("stale");
        // A baseline file for a scenario the catalog no longer has...
        let orphan = ScenarioDigests {
            scenario: "renamed-away".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![("facs-exact".to_owned(), "0000".to_owned())],
        };
        std::fs::write(format!("{dir}/renamed-away.json"), orphan.to_json()).expect("write");
        // ...and a live scenario whose baseline still carries a variant
        // that no longer runs.
        let live = ScenarioDigests {
            scenario: "demo".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![
                ("facs-exact".to_owned(), "aaaa".to_owned()),
                ("retired-variant".to_owned(), "bbbb".to_owned()),
            ],
        };
        std::fs::write(format!("{dir}/demo.json"), live.to_json()).expect("write");
        let fresh = vec![ScenarioDigests {
            scenario: "demo".to_owned(),
            schema: GOLDEN_SCHEMA.to_owned(),
            digests: vec![("facs-exact".to_owned(), "aaaa".to_owned())],
        }];
        let diffs = golden_diff(&dir, &fresh);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("demo/retired-variant"), "{diffs:?}");
        assert!(diffs[0].contains("stale baseline entry"), "{diffs:?}");
        assert!(diffs[1].contains("renamed-away.json"), "{diffs:?}");
        assert!(diffs[1].contains("stale baseline for a scenario"), "{diffs:?}");
    }

    #[test]
    fn paper_baseline_digest_is_shard_and_backend_stable() {
        let config = ScenarioConfig {
            requests: 60,
            replications: 1,
            ..facs_cellsim::scenario_by_name("paper-baseline").expect("catalog entry")
        };
        validate_config(&config, &BackendPair::default()).expect("baseline must validate");
    }

    #[test]
    fn backend_audit_passes_on_a_fuzzed_population() {
        let case = WorkloadFuzzer::new(0xFACC).case(0);
        let (flips, samples) = audit_backend_divergence(&case.config, &BackendPair::default())
            .expect("audit must pass for the default surfaces");
        // Both call kinds × 5 occupancy points per offered user.
        assert_eq!(samples, case.config.requests as u64 * 10);
        assert!(flips <= samples / 50, "flips {flips} of {samples} is not near-threshold noise");
    }

    #[test]
    fn small_fuzz_run_is_clean() {
        let summary =
            run_validation(0xFACC, 3, |_, _, _| {}).expect("fuzzed workloads must validate");
        assert_eq!(summary.cases(), 3);
    }
}
