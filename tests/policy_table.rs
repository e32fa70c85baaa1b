//! The per-shard policy table: a stateless controller that reports a
//! policy key serves every cell of its key on a shard from one instance,
//! and that is invisible in every observable event. Keyed controllers on
//! alternating cells must run bit for bit like the same controllers
//! behind a wrapper that reports no key (one instance per cell), and the
//! table must hold one controller per key and shard.

use facs::{FacsConfig, FacsController, FacsDegradeController, HeadroomFacsController};
use facs_bench::experiments::{cs_builder, facs_builder, facs_degrade_builder, headroom_builder};
use facs_cac::policies::CompleteSharing;
use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BoxedController, CallId, CallRequest,
    CellSnapshot, ServiceClass, ServiceProfile,
};
use facs_cellsim::prelude::*;
use facs_cellsim::{planet_scale, scenario_by_name};

/// Forwards every call to `inner` but reports no policy key, so the
/// kernel gives each cell its own instance.
struct Unkeyed(BoxedController);

impl AdmissionController for Unkeyed {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        self.0.decide(request, cell)
    }

    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        self.0.fast_reject(profile, cell)
    }

    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        self.0.observe(now_s, cell);
    }

    fn on_admitted(&mut self, request: &CallRequest, cell: &CellSnapshot) {
        self.0.on_admitted(request, cell);
    }

    fn on_released(&mut self, call: CallId, class: ServiceClass, cell: &CellSnapshot) {
        self.0.on_released(call, class, cell);
    }

    fn is_cell_local(&self) -> bool {
        self.0.is_cell_local()
    }
}

type Prototype = Box<dyn Fn() -> BoxedController>;

/// `even` on the even cell ids and `odd` on the odd ones, each passed
/// through `wrap`.
fn alternating(
    cells: usize,
    even: &Prototype,
    odd: &Prototype,
    wrap: fn(BoxedController) -> BoxedController,
) -> Vec<BoxedController> {
    (0..cells).map(|id| wrap(if id % 2 == 0 { even() } else { odd() })).collect()
}

fn keyed(controller: BoxedController) -> BoxedController {
    controller
}

fn unkeyed(controller: BoxedController) -> BoxedController {
    Box::new(Unkeyed(controller))
}

/// The congested catalog scenario (an elastic multi-class mix, so
/// FACS-degrade squeezes and self-degrades where plain FACS rejects) on
/// the 19-cell grid, where every shard layout below mixes both
/// controllers on some shard.
fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        requests: 1_500,
        grid_radius: 2,
        ..scenario_by_name("congested").expect("the congested scenario")
    }
}

/// Runs `controllers` on `shards` shards and `workers` workers, returning
/// the metrics, the trace digest and the number of controllers kept.
fn run(
    config: &ScenarioConfig,
    shards: usize,
    workers: usize,
    controllers: Vec<BoxedController>,
) -> ((Metrics, TraceDigest), usize) {
    let seed = config.replication_seeds().next().expect("one replication");
    let sim_config = SimulationConfig { shards, workers, ..config.sim_config(seed) };
    let mut sim = Simulation::new(config.grid(), sim_config, controllers);
    let kept = sim.policy_count();
    (sim.run_with(config.run_input(seed), (Metrics::new(), TraceDigest::new())), kept)
}

/// Keyed pairs on alternating cells run bit for bit like the same
/// controllers unkeyed, one instance per cell, on 1, 3 and 7 shards and
/// 1 and 2 workers: two FACS gates, and FACS next to FACS-degrade and
/// next to FACS-headroom built on the same core, neither of which may
/// share a slot with it. Each pair decides differently on this
/// scenario, so a table that served one of them on the other's cells
/// would move the digest.
#[test]
fn keyed_controllers_run_bit_for_bit_like_one_instance_per_cell() {
    let config = scenario();
    let cells = config.grid().len();
    let gate = |threshold| {
        FacsController::with_config(FacsConfig { threshold, ..FacsConfig::compiled() })
            .expect("FACS builds")
    };
    let (low, high) = (gate(0.1), gate(0.3));
    let degrade = FacsDegradeController::from(low.clone());
    let (plain, headroom) = (low.clone(), HeadroomFacsController::from(low.clone()));
    let pairs: [(&str, Prototype, Prototype); 3] = [
        (
            "two FACS gates",
            Box::new(move || Box::new(low.clone())),
            Box::new(move || Box::new(high.clone())),
        ),
        (
            "FACS and FACS-degrade on one core",
            Box::new({
                let facs = degrade.inner().clone();
                move || Box::new(facs.clone())
            }),
            Box::new(move || Box::new(degrade.clone())),
        ),
        (
            "FACS and FACS-headroom on one core",
            Box::new(move || Box::new(plain.clone())),
            Box::new(move || Box::new(headroom.clone())),
        ),
    ];
    for (name, even, odd) in &pairs {
        let (reference, kept) = run(&config, 1, 1, alternating(cells, even, odd, unkeyed));
        assert_eq!(kept, cells, "{name}: unkeyed controllers keep one per cell");
        let (uniform, _) = run(&config, 1, 1, alternating(cells, even, even, keyed));
        assert_ne!(uniform, reference, "{name}: the pair decides alike on this scenario");
        for shards in [1, 3, 7] {
            for workers in [1, 2] {
                let (out, kept) =
                    run(&config, shards, workers, alternating(cells, even, odd, keyed));
                assert_eq!(out, reference, "{name}: {shards} shards, {workers} workers");
                // 19 cells: every shard of these layouts holds both parities.
                assert_eq!(kept, 2 * shards, "{name}: {shards} shards keep one per key");
            }
        }
    }
}

/// The planet grid built by `facs_builder` keeps one controller per
/// shard, 8 in all, not one per cell; FACS-degrade and FACS-headroom do
/// the same, and complete sharing, which reports no key, keeps one per
/// cell.
#[test]
fn facs_keeps_one_controller_per_shard_and_complete_sharing_one_per_cell() {
    let planet = planet_scale(1).config;
    let grid = planet.grid();
    assert_eq!(grid.len(), 99_919);
    let kept = |config: &ScenarioConfig, controllers| {
        Simulation::new(config.grid(), config.sim_config(1), controllers).policy_count()
    };
    let compiled = FacsConfig::compiled();
    assert_eq!(kept(&planet, facs_builder(compiled)(&grid)), 8);
    assert_eq!(kept(&planet, facs_degrade_builder(compiled)(&grid)), 8);
    assert_eq!(kept(&planet, headroom_builder(compiled)(&grid)), 8);
    let small = ScenarioConfig { grid_radius: 3, ..planet };
    let cells = small.grid().len();
    assert_eq!(kept(&small, cs_builder()(&small.grid())), cells);
    assert_eq!(CompleteSharing::new().policy_key(), None, "no key, so one per cell");
}
