//! Validates the discrete-event simulator against Erlang-B queueing
//! theory: a single-class M/M/c/c workload under Complete Sharing must
//! block at the analytical rate.

use facs_cac::policies::CompleteSharing;
use facs_cac::{BandwidthUnits, BoxedController, ServiceClass, ServiceProfile};
use facs_cellsim::erlang::erlang_b;
use facs_cellsim::geometry::{HexGrid, Point};
use facs_cellsim::mobility::MobileState;
use facs_cellsim::rng::SimRng;
use facs_cellsim::{MobilityKind, Simulation, SimulationConfig, UserSpec};

/// Builds a stationary single-class workload: Poisson arrivals at
/// `rate_per_s` over `window_s`, exponential holding with mean
/// `holding_s`.
fn mm_c_c_workload(rate_per_s: f64, holding_s: f64, window_s: f64, seed: u64) -> Vec<UserSpec> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut specs = Vec::new();
    loop {
        t += rng.exponential(1.0 / rate_per_s);
        if t >= window_s {
            break;
        }
        specs.push(UserSpec {
            arrival_s: t,
            // Rigid paper profile: 5 BU => capacity 40 BU = 8 servers.
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(1.0, 0.0), 0.0, 0.0),
            mobility: MobilityKind::StraightLine,
            holding_s: rng.exponential(holding_s),
        });
    }
    specs
}

#[test]
fn simulator_blocking_matches_erlang_b() {
    // 8 voice "servers" (40 BU / 5 BU), offered 6 Erlangs:
    // analytical blocking B(8, 6) ≈ 0.122.
    let rate = 0.1; // calls/s
    let holding = 60.0; // s => offered = 6 Erlangs
    let servers = 8;
    let expected = erlang_b(servers, rate * holding);

    let mut blocked = 0u64;
    let mut offered = 0u64;
    for seed in 0..6 {
        let workload = mm_c_c_workload(rate, holding, 20_000.0, 1000 + seed);
        let grid = HexGrid::single_cell(10.0);
        let config = SimulationConfig {
            capacity: BandwidthUnits::new(40),
            movement_tick_s: 50.0,
            max_time_s: 40_000.0,
            seed,
            shards: 1,
            ..SimulationConfig::default()
        };
        let controllers: Vec<BoxedController> = vec![Box::new(CompleteSharing::new())];
        let mut sim = Simulation::new(grid, config, controllers);
        let metrics = sim.run(workload);
        blocked += metrics.blocked_new;
        offered += metrics.offered_new;
    }
    let measured = blocked as f64 / offered as f64;
    assert!(
        (measured - expected).abs() < 0.02,
        "measured blocking {measured:.4} vs Erlang-B {expected:.4} (offered {offered})"
    );
}

#[test]
fn simulator_tracks_erlang_b_across_loads() {
    // The measured blocking must move with the analytical curve, not just
    // match at one point.
    let run = |rate: f64| -> f64 {
        let workload = mm_c_c_workload(rate, 60.0, 30_000.0, 77);
        let grid = HexGrid::single_cell(10.0);
        let config = SimulationConfig {
            capacity: BandwidthUnits::new(40),
            movement_tick_s: 50.0,
            max_time_s: 60_000.0,
            seed: 7,
            shards: 1,
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::new(
            grid,
            config,
            vec![Box::new(CompleteSharing::new()) as BoxedController],
        );
        let metrics = sim.run(workload);
        metrics.blocked_new as f64 / metrics.offered_new as f64
    };
    for (rate, erlangs) in [(0.05, 3.0), (0.1, 6.0), (0.2, 12.0)] {
        let measured = run(rate);
        let expected = erlang_b(8, erlangs);
        assert!(
            (measured - expected).abs() < 0.035,
            "at {erlangs} Erlangs: measured {measured:.4} vs Erlang-B {expected:.4}"
        );
    }
}
