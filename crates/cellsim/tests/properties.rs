//! Property-based tests over the simulator substrate invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use facs_cac::policies::GuardChannel;
use facs_cac::{BandwidthUnits, BoxedController, CellId};
use facs_cellsim::erlang::erlang_b;
use facs_cellsim::events::{EngineQueue, QueueEntry, UserId};
use facs_cellsim::geometry::{HexCoord, HexGrid, Point};
use facs_cellsim::mobility::{MobileState, MobilityModel, Walker};
use facs_cellsim::rng::SimRng;
use facs_cellsim::time::SimTime;
use facs_cellsim::{HoldingTimes, Simulation, SimulationConfig, TraceDigest, Workload};
use proptest::prelude::*;

/// Reference priority queue over the content keys the engine queue
/// orders by, written out here so the model cannot drift from the
/// production ordering contract (time, then user, then generation).
type ModelHeap = BinaryHeap<Reverse<(SimTime, (u64, u32))>>;

/// The `(time, (user, generation))` key of a popped entry.
fn engine_key(entry: QueueEntry) -> (SimTime, (u64, u32)) {
    (entry.time, (entry.user.0, entry.generation))
}

proptest! {
    /// Hex-grid size follows the centered hexagonal numbers 3r(r+1)+1.
    #[test]
    fn grid_size_formula(radius in 0u32..6) {
        let grid = HexGrid::new(radius, 1.0);
        prop_assert_eq!(grid.len() as u32, 3 * radius * (radius + 1) + 1);
    }

    /// Neighbor relations are symmetric and distinct for every grid.
    #[test]
    fn neighbor_symmetry(radius in 0u32..5) {
        let grid = HexGrid::new(radius, 1.0);
        for id in grid.cell_ids() {
            let neighbors = grid.neighbors_of(id);
            prop_assert!(neighbors.len() <= 6);
            for n in &neighbors {
                prop_assert!(*n != id);
                prop_assert!(grid.neighbors_of(*n).contains(&id));
            }
        }
    }

    /// `locate` returns the nearest center: no other cell is strictly
    /// closer to the query point.
    #[test]
    fn locate_is_nearest_center(
        radius in 1u32..4,
        x in -5.0_f64..5.0,
        y in -5.0_f64..5.0,
    ) {
        let grid = HexGrid::new(radius, 1.5);
        let p = Point::new(x, y);
        let located = grid.locate(p);
        let d_located = grid.center_of(located).distance_to(p);
        for id in grid.cell_ids() {
            let d = grid.center_of(id).distance_to(p);
            prop_assert!(d_located <= d + 1e-12, "{id} closer than {located}");
        }
    }

    /// Off the honeycomb, `locate` scans only the outer ring; it must
    /// still return exactly the nearest center over *every* cell, lowest
    /// id on a tie, and `out_of_coverage` must read that center's
    /// distance. Grids of 0–8 rings and one 182-ring grid; points in an
    /// annulus of 0.7–3 times the grid's reach, on the vertices and edge
    /// midpoints of outer cells, and those points moved by up to 1e-9 km;
    /// plus the 1-ring tie points, where two outer centers are bitwise
    /// equidistant.
    #[test]
    fn off_grid_locate_equals_a_full_scan(
        rings in prop::sample::select(vec![0u32, 1, 2, 3, 4, 5, 6, 7, 8, 182]),
        size_km in 0.5_f64..10.0,
        points in prop::collection::vec(
            (0u8..3, 0.0_f64..1.0, 0.0_f64..1.0, 0u32..12, -1e-9_f64..1e-9, -1e-9_f64..1e-9),
            1..16,
        ),
    ) {
        let grid = HexGrid::new(rings, size_km);
        let reach = reach_km(&grid);
        let outer = if rings == 0 { 0 } else { grid.len() - 6 * rings as usize };
        for (kind, u, v, k, jx, jy) in points {
            let p = if kind == 0 {
                Point::ORIGIN.step(360.0 * v, reach * (0.7 + 2.3 * u))
            } else {
                let id = CellId((outer + (u * (grid.len() - outer) as f64) as usize) as u32);
                let center = grid.center_of(id);
                // Even k: a vertex, one circumradius out between two edge
                // normals; odd k: an edge midpoint, one inradius out.
                let p = if k % 2 == 0 {
                    center.step(30.0 * f64::from(k) + 30.0, size_km)
                } else {
                    center.step(30.0 * f64::from(k) - 30.0, 3f64.sqrt() / 2.0 * size_km)
                };
                if kind == 1 { p } else { Point::new(p.x + jx, p.y + jy) }
            };
            check_locate_against_full_scan(&grid, p)?;
        }
        let ties = HexGrid::new(1, 1.0);
        for y in [5.0, -5.0] {
            check_locate_against_full_scan(&ties, Point::new(0.0, y))?;
        }
    }

    /// Grid distance is a metric between cells (symmetric, triangle
    /// inequality against the center).
    #[test]
    fn grid_distance_metric(q1 in -5i32..5, r1 in -5i32..5, q2 in -5i32..5, r2 in -5i32..5) {
        let a = HexCoord::new(q1, r1);
        let b = HexCoord::new(q2, r2);
        let center = HexCoord::CENTER;
        prop_assert_eq!(a.grid_distance(b), b.grid_distance(a));
        prop_assert_eq!(a.grid_distance(a), 0);
        prop_assert!(a.grid_distance(b) <= a.grid_distance(center) + center.grid_distance(b));
    }

    /// Bearing/step are consistent: stepping along the bearing to a
    /// target moves directly toward it.
    #[test]
    fn bearing_step_consistency(
        x in -10.0_f64..10.0,
        y in -10.0_f64..10.0,
        tx in -10.0_f64..10.0,
        ty in -10.0_f64..10.0,
    ) {
        let from = Point::new(x, y);
        let to = Point::new(tx, ty);
        let d = from.distance_to(to);
        prop_assume!(d > 1e-6);
        let stepped = from.step(from.bearing_to(to), d);
        prop_assert!(stepped.distance_to(to) < 1e-9 * (1.0 + d));
    }

    /// The walker conserves speed and moves at most speed × time.
    #[test]
    fn walker_kinematics(speed in 0.1_f64..120.0, steps in 1usize..200, seed in 0u64..50) {
        let mut model = Walker::paper_default();
        let mut state = MobileState::new(Point::ORIGIN, 0.0, speed);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..steps {
            model.step(&mut state, 1.0, &mut rng);
            prop_assert_eq!(state.speed_kmh, speed);
            prop_assert!((-180.0 - 1e9..=180.0).contains(&state.heading_deg));
        }
        let max_path = speed * steps as f64 / 3600.0;
        prop_assert!(Point::ORIGIN.distance_to(state.position) <= max_path + 1e-9);
    }

    /// Observation invariants: distance is the true Euclidean distance,
    /// angle in (-180, 180].
    #[test]
    fn observation_invariants(
        px in -20.0_f64..20.0,
        py in -20.0_f64..20.0,
        heading in -180.0_f64..180.0,
        speed in 0.0_f64..120.0,
    ) {
        let state = MobileState::new(Point::new(px, py), heading, speed);
        let obs = state.observe(Point::ORIGIN);
        let true_distance = (px * px + py * py).sqrt();
        prop_assert!((obs.distance_km - true_distance).abs() < 1e-9);
        prop_assert!(obs.angle_deg > -180.0 - 1e-9 && obs.angle_deg <= 180.0 + 1e-9);
        prop_assert_eq!(obs.speed_kmh, speed);
    }

    /// Erlang-B stays in [0, 1) and is monotone in load.
    #[test]
    fn erlang_b_bounds(servers in 1u32..60, tenths in 1u32..500) {
        let a = f64::from(tenths) / 10.0;
        let b = erlang_b(servers, a);
        prop_assert!((0.0..1.0).contains(&b));
        prop_assert!(erlang_b(servers, a + 0.1) >= b);
        prop_assert!(erlang_b(servers + 1, a) <= b);
    }

    /// The engine queue pops the exact `(time, key)` sequence a
    /// reference `BinaryHeap` over independently written content keys
    /// would: mid-drain scheduling, same-instant ties on epoch
    /// boundaries, and far-future events. Also exercises the
    /// `pop_within` limit contract.
    #[test]
    fn engine_queue_matches_reference_heap(
        first in prop::collection::vec((0u8..3, 0u64..40_000_000), 1..80),
        second in prop::collection::vec((0u8..3, 0u64..40_000_000), 0..40),
        drained in 0usize..40,
        limit_us in 1u64..60_000_000,
    ) {
        let mut queue = EngineQueue::new();
        let mut model = ModelHeap::new();
        let push = |queue: &mut EngineQueue,
                        model: &mut ModelHeap,
                        shape: u8,
                        raw_us: u64,
                        user: u64| {
            let time = match shape {
                // Same-instant tie pinned to an epoch boundary.
                0 => SimTime::from_micros(raw_us / 5_000_000 * 5_000_000),
                // Far future: hours past every near-term event.
                1 => SimTime::from_micros(25_000_000_000 + raw_us),
                // Ordinary near-term event.
                _ => SimTime::from_micros(raw_us),
            };
            let entry = QueueEntry { time, user: UserId(user), generation: (user % 3) as u32, tag: 0 };
            queue.schedule(entry);
            model.push(Reverse(engine_key(entry)));
        };
        for (i, &(shape, raw)) in first.iter().enumerate() {
            push(&mut queue, &mut model, shape, raw, i as u64);
        }
        // Drain part of the schedule, then keep scheduling: later pushes
        // can land before entries already popped.
        for _ in 0..drained.min(first.len()) {
            let entry = queue.pop_within(SimTime::from_micros(u64::MAX)).unwrap();
            let Reverse(expected) = model.pop().unwrap();
            prop_assert_eq!(engine_key(entry), expected);
        }
        for (i, &(shape, raw)) in second.iter().enumerate() {
            push(&mut queue, &mut model, shape, raw, (first.len() + i) as u64);
        }
        // Bounded drain: pop_within must stop exactly where the model's
        // next entry crosses the limit...
        let limit = SimTime::from_micros(limit_us);
        while let Some(entry) = queue.pop_within(limit) {
            prop_assert!(entry.time <= limit);
            let Reverse(expected) = model.pop().unwrap();
            prop_assert_eq!(engine_key(entry), expected);
        }
        if let Some(Reverse((next, _))) = model.peek() {
            prop_assert!(*next > limit, "pop_within({limit}) stopped early of {next}");
        }
        // ...and the unbounded drain must finish the identical sequence.
        while let Some(entry) = queue.pop_within(SimTime::from_micros(u64::MAX)) {
            let Reverse(expected) = model.pop().unwrap();
            prop_assert_eq!(engine_key(entry), expected);
        }
        prop_assert!(model.is_empty());
        prop_assert!(queue.is_empty());
    }

    /// Chunk-boundary placement never changes streamed synthesis: for
    /// any chunk size the stream yields exactly the eager `generate`
    /// sequence (same users, same order, same draws), because all
    /// randomness flows through one sequential RNG regardless of where
    /// the chunk boundaries fall.
    #[test]
    fn stream_chunking_never_changes_specs(
        requests in 1usize..120,
        seed in 0u64..1_000,
        chunk in prop::sample::select(vec![1usize, 7, 4096]),
    ) {
        let grid = HexGrid::new(1, 2.0);
        let holding = HoldingTimes::new(30.0);
        let workload = Workload::default();
        let eager = workload.generate(&grid, requests, 120.0, holding, seed);
        let mut stream = workload.stream(&grid, requests, 120.0, holding, seed, chunk);
        let mut streamed = Vec::new();
        let mut user = 0u64;
        while let Some(chunk) = stream.next_chunk() {
            prop_assert_eq!(chunk.first_user, user, "chunks must be contiguous");
            user += chunk.specs.len() as u64;
            streamed.extend(chunk.specs.iter().map(|s| format!("{s:?}")));
            stream.recycle(chunk);
        }
        prop_assert_eq!(streamed.len(), eager.len());
        for (i, (s, e)) in streamed.iter().zip(&eager).enumerate() {
            prop_assert_eq!(s, &format!("{e:?}"), "spec {i} diverged at chunk size {chunk}");
        }
    }
}

/// The nearest center by a scan over every cell, lowest id on a tie,
/// and its distance in km.
fn nearest_by_full_scan(grid: &HexGrid, p: Point) -> (CellId, f64) {
    let mut best = (CellId(0), f64::INFINITY);
    for id in grid.cell_ids() {
        let d = grid.center_of(id).distance_to(p);
        if d < best.1 {
            best = (id, d);
        }
    }
    best
}

/// A bound on the distance from the origin to any point of the grid's
/// hexagons: the corner centers' `√3 · R` cell radii plus one more.
fn reach_km(grid: &HexGrid) -> f64 {
    (3f64.sqrt() * f64::from(grid.radius()) + 1.0) * grid.cell_radius_km()
}

/// Checks `locate` and `out_of_coverage` at `p` against the full scan.
/// A point beyond the grid's reach lies in none of its hexagons, so it
/// takes the off-grid path and must match the scan's `CellId` exactly.
/// Nearer in, hex rounding may settle a near-tie between two cells
/// either way, so there only the distance must match.
fn check_locate_against_full_scan(grid: &HexGrid, p: Point) -> Result<(), TestCaseError> {
    let (nearest, d) = nearest_by_full_scan(grid, p);
    let located = grid.locate(p);
    if p.distance_to(Point::ORIGIN) > reach_km(grid) {
        prop_assert_eq!(located, nearest, "off-grid point {:?}", p);
    } else if located != nearest {
        let d_located = grid.center_of(located).distance_to(p);
        prop_assert!((d_located - d).abs() < 1e-9, "{located} vs {nearest} at {p:?}");
    }
    prop_assert_eq!(grid.out_of_coverage(p), d > 2.0 * grid.cell_radius_km(), "at {:?}", p);
    Ok(())
}

/// Builds one guard-channel controller per cell — simple, deterministic,
/// and stateful enough that any event-order divergence shows up in the
/// trace digest.
fn guard_controllers(grid_cells: usize) -> Vec<BoxedController> {
    (0..grid_cells)
        .map(|_| Box::new(GuardChannel::new(BandwidthUnits::new(4))) as BoxedController)
        .collect()
}

/// The full-trace digest (every decision, reallocation, completion, and
/// exit event) is bit-identical across 1–7 shards with the
/// work-stealing pool driver enabled. Worker counts are forced
/// explicitly because auto-sizing resolves to one inline worker on
/// small CI hosts, which would leave the stealing path uncovered.
#[test]
fn trace_digests_identical_across_shards_and_stealing() {
    let run = |shards: usize, workers: usize| {
        let grid = HexGrid::new(2, 2.0);
        let workload = Workload::default().generate(&grid, 300, 60.0, HoldingTimes::new(12.0), 41);
        let config = SimulationConfig {
            movement_tick_s: 2.0,
            seed: 41,
            shards,
            workers,
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::new(grid, config, guard_controllers(19));
        sim.run_with(workload, TraceDigest::new()).hex()
    };
    let reference = run(1, 1);
    for shards in 1..=7 {
        for workers in [2, 3] {
            assert_eq!(
                reference,
                run(shards, workers),
                "digest diverged at {shards} shards / {workers} workers"
            );
        }
    }
}
