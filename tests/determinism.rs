//! Reproducibility: identical seeds must give identical runs for every
//! controller (on both inference backends), the workload must be
//! independent of the policy under test (so comparisons are paired), and
//! the parallel replication/sweep runners must be bit-identical to a
//! sequential fold.

use facs::{FacsConfig, FacsController, FacsDegradeController, HeadroomFacsController};
use facs_cac::policies::{CompleteSharing, GuardChannel};
use facs_cac::{BandwidthUnits, BoxedController};
use facs_cellsim::prelude::*;
use facs_cellsim::{HexGrid, Summary};
use facs_fuzzy::BackendKind;
use facs_scc::{SccConfig, SccNetwork};

fn config() -> ScenarioConfig {
    ScenarioConfig {
        requests: 300,
        grid_radius: 1,
        spawn: SpawnSpec::AnyCell,
        mobility: MobilityChoice::Walker,
        replications: 1,
        ..Default::default()
    }
}

type BoxedBuilder = Box<dyn Fn(&HexGrid) -> Vec<BoxedController> + Sync>;

/// FACS on the compiled backend. A coarse 9-point lattice keeps the
/// debug-profile compile cheap — determinism does not depend on lattice
/// resolution, and accuracy at the default resolution is covered by the
/// facs-core equivalence tests.
fn compiled_facs_builder() -> BoxedBuilder {
    let prototype = FacsController::with_config(FacsConfig {
        backend: BackendKind::Compiled { points_per_axis: 9 },
        ..FacsConfig::default()
    })
    .unwrap();
    Box::new(move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    })
}

/// One FacsConfig per backend under test: exact defaults, and a coarse
/// compiled lattice (cheap in debug; resolution does not affect
/// determinism).
fn backend_configs() -> [(&'static str, FacsConfig); 2] {
    [
        ("exact", FacsConfig::default()),
        (
            "compiled",
            FacsConfig {
                backend: BackendKind::Compiled { points_per_axis: 9 },
                ..FacsConfig::default()
            },
        ),
    ]
}

/// Headroom FACS, one clone of a shared prototype per cell, mirroring
/// the bench builders.
fn headroom_builder(config: FacsConfig) -> BoxedBuilder {
    let prototype = HeadroomFacsController::with_config(config).unwrap();
    Box::new(move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    })
}

fn builders() -> Vec<(&'static str, BoxedBuilder)> {
    let mut all: Vec<(&'static str, BoxedBuilder)> = vec![
        (
            "facs",
            Box::new(|grid: &HexGrid| {
                grid.cell_ids()
                    .map(|_| Box::new(FacsController::new().unwrap()) as BoxedController)
                    .collect()
            }),
        ),
        ("facs-compiled", compiled_facs_builder()),
        (
            "facs-degrade",
            Box::new(|grid: &HexGrid| {
                grid.cell_ids()
                    .map(|_| Box::new(FacsDegradeController::new().unwrap()) as BoxedController)
                    .collect()
            }),
        ),
        ("scc", Box::new(|grid: &HexGrid| SccNetwork::new(SccConfig::default()).controllers(grid))),
        (
            "cs",
            Box::new(|grid: &HexGrid| {
                grid.cell_ids()
                    .map(|_| Box::new(CompleteSharing::new()) as BoxedController)
                    .collect()
            }),
        ),
        (
            "guard",
            Box::new(|grid: &HexGrid| {
                grid.cell_ids()
                    .map(|_| Box::new(GuardChannel::new(BandwidthUnits::new(8))) as BoxedController)
                    .collect()
            }),
        ),
    ];
    all.push(("facs-headroom", headroom_builder(FacsConfig::default())));
    all
}

#[test]
fn same_seed_same_metrics_for_every_controller() {
    for (name, build) in builders() {
        let a = config().run_once(99, build.as_ref());
        let b = config().run_once(99, build.as_ref());
        assert_eq!(a, b, "controller {name} is not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let build = &builders()[0].1;
    let a = config().run_once(1, build.as_ref());
    let b = config().run_once(2, build.as_ref());
    assert_ne!(a, b, "different seeds should explore different traffic");
}

#[test]
fn workload_is_policy_independent() {
    // The same seed yields the same user specs regardless of which policy
    // will consume them — paired comparison is valid.
    let cfg = config();
    let w1 = cfg.generate_workload(7);
    let w2 = cfg.generate_workload(7);
    assert_eq!(w1.len(), w2.len());
    for (a, b) in w1.iter().zip(&w2) {
        assert_eq!(a.arrival_s, b.arrival_s);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.start, b.start);
        assert_eq!(a.holding_s, b.holding_s);
    }
}

#[test]
fn replication_average_is_stable() {
    let build = &builders()[0].1;
    let cfg = ScenarioConfig { replications: 3, ..config() };
    let a = cfg.acceptance(build.as_ref());
    let b = cfg.acceptance(build.as_ref());
    assert_eq!(a, b);
}

#[test]
fn parallel_replications_match_sequential_fold_for_every_controller() {
    // `acceptance`/`acceptance_summary`/`aggregate` fan replications out
    // over scoped threads; their results must be bit-identical to folding
    // `run_once` over `replication_seeds()` sequentially.
    let cfg = ScenarioConfig { requests: 120, replications: 3, ..config() };
    for (name, build) in builders() {
        let build = build.as_ref();
        let mut seq_total = 0.0;
        let mut seq_sample = Vec::new();
        let mut seq_sum = Metrics::new();
        for seed in cfg.replication_seeds() {
            let m = cfg.run_once(seed, build);
            seq_total += m.acceptance_percentage();
            seq_sample.push(m.acceptance_percentage());
            seq_sum.merge(&m);
        }
        assert_eq!(
            cfg.acceptance(build),
            seq_total / seq_sample.len() as f64,
            "acceptance diverged for {name}"
        );
        assert_eq!(
            cfg.acceptance_summary(build),
            Summary::of(&seq_sample),
            "summary diverged for {name}"
        );
        assert_eq!(cfg.aggregate(build), seq_sum, "aggregate diverged for {name}");
    }
}

#[test]
fn parallel_curve_matches_pointwise_runs() {
    let configure = |n| ScenarioConfig { requests: n, replications: 2, ..Default::default() };
    for (name, build) in
        [("facs", builders().remove(0).1), ("facs-compiled", builders().remove(1).1)]
    {
        let build = build.as_ref();
        let series = acceptance_curve(name, &[20, 60, 100], configure, build);
        for (&n, &(x, y)) in [20usize, 60, 100].iter().zip(&series.points) {
            assert_eq!(x, n as f64);
            assert_eq!(y, configure(n).acceptance(build), "{name} diverged at n={n}");
        }
    }
}

#[test]
fn catalog_shards_are_bit_identical_on_both_backends() {
    // The sharded kernel's core guarantee (ISSUE 4 acceptance criterion):
    // for every scenario-catalog entry, multi-shard runs are bit-identical
    // to the single-shard run, on both inference backends. One replication
    // per entry keeps the debug-profile runtime sane; shard-identity does
    // not depend on the replication count (replications only change seeds).
    let backends: Vec<(&'static str, BoxedBuilder)> = vec![
        (
            "exact",
            Box::new(|grid: &HexGrid| {
                grid.cell_ids()
                    .map(|_| Box::new(FacsController::new().unwrap()) as BoxedController)
                    .collect()
            }),
        ),
        ("compiled", compiled_facs_builder()),
    ];
    for entry in facs_cellsim::catalog() {
        for (backend, build) in &backends {
            let run = |shards: usize| {
                let cfg = ScenarioConfig { shards, replications: 1, ..entry.config.clone() };
                cfg.run_once(cfg.seed, build.as_ref())
            };
            let single = run(1);
            for shards in [2, 4, 7] {
                assert_eq!(
                    single,
                    run(shards),
                    "catalog entry `{}` on the {backend} backend diverged at {shards} shards",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn headroom_facs_is_shard_identical_on_both_backends() {
    // Multi-shard runs must stay bit-identical to single-shard on both
    // backends, with each shard serving its cells from one keyed
    // controller. The two congestion-ramp catalog entries press the
    // new-call headroom hardest while keeping the debug-profile runtime
    // sane — shard identity does not depend on the scenario shape.
    for entry in facs_cellsim::catalog()
        .into_iter()
        .filter(|e| matches!(e.name, "flash-crowd" | "rush-hour"))
    {
        for (backend, config) in backend_configs() {
            let build = headroom_builder(config);
            let run = |shards: usize| {
                let cfg = ScenarioConfig { shards, replications: 1, ..entry.config.clone() };
                cfg.run_once(cfg.seed, build.as_ref())
            };
            let single = run(1);
            for shards in [2, 4, 7] {
                assert_eq!(
                    single,
                    run(shards),
                    "facs-headroom on the {backend} backend diverged at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn scc_declares_shared_state_so_the_kernel_keeps_it_single_shard() {
    // SCC's shadow board is cluster-wide; the kernel refuses to shard it
    // (engine unit tests cover the panic), and the declaration is what
    // that refusal keys on.
    use facs_cac::AdmissionController;
    let grid = HexGrid::new(1, 10.0);
    let controllers = SccNetwork::new(SccConfig::default()).controllers(&grid);
    assert!(controllers.iter().all(|c| !c.is_cell_local()));
    assert!(FacsController::new().unwrap().is_cell_local());
}

#[test]
fn compiled_backend_is_deterministic_across_runner_modes() {
    // Same seed, same metrics — whether replications run sequentially
    // (replications = 1 short-circuits the thread pool) or in parallel.
    let build = compiled_facs_builder();
    let sequential = ScenarioConfig { replications: 1, ..config() };
    let a = sequential.aggregate(build.as_ref());
    let b = sequential.run_once(sequential.seed, build.as_ref());
    assert_eq!(a, b);
    let parallel = ScenarioConfig { replications: 4, ..config() };
    assert_eq!(parallel.aggregate(build.as_ref()), parallel.aggregate(build.as_ref()));
}
