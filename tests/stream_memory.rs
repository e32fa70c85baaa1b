//! Memory of a default-built run: streaming keeps the population out of
//! the heap, the cells are paid for once, and a finished run gives back
//! everything it took.
//!
//! A counting global allocator tracks live and peak heap bytes for the
//! whole process, so everything runs inside one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use facs::{FacsConfig, FacsController};
use facs_cac::BoxedController;
use facs_cellsim::prelude::*;

/// [`System`] plus live and peak byte counters.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The 127-cell, 2 km stress grid with walkers spawning in any cell and
/// 40 arrivals per second, otherwise as [`ScenarioConfig::default`]
/// builds it.
fn stress_grid(requests: usize) -> ScenarioConfig {
    ScenarioConfig {
        requests,
        window_s: requests as f64 / 40.0,
        grid_radius: 6,
        cell_radius_km: 2.0,
        spawn: SpawnSpec::AnyCell,
        mobility: MobilityChoice::Walker,
        replications: 1,
        shards: 1,
        workers: 1,
        ..ScenarioConfig::default()
    }
}

/// Heap bytes at one run's peak above the level before the build, and
/// the live heap left once the simulation, its input and its metrics
/// are dropped, relative to that same level.
struct RunHeap {
    peak_above: usize,
    left_over: isize,
}

fn measure(config: &ScenarioConfig) -> RunHeap {
    let requests = config.requests;
    let prototype = FacsController::with_config(FacsConfig::compiled()).expect("FACS builds");
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    {
        let grid = config.grid();
        let controllers: Vec<BoxedController> =
            grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect();
        let mut sim = Simulation::new(grid, config.sim_config(config.seed), controllers);
        let metrics = sim.run(config.run_input(config.seed));
        assert_eq!(metrics.offered_new, requests as u64);
    }
    let after = LIVE.load(Ordering::SeqCst);
    RunHeap {
        peak_above: PEAK.load(Ordering::SeqCst) - before,
        left_over: after as isize - before as isize,
    }
}

#[test]
fn streamed_input_memory_is_bounded_and_returned() {
    // Whole chunks at both sizes, so both runs hold the same two full
    // chunks at their peak and only per-user memory differs.
    const USERS: usize = 2 * ScenarioConfig::STREAM_CHUNK;
    // Lazy statics, thread-locals and the thread machinery are allocated
    // once per process; the warm-up pays for them.
    measure(&stress_grid(USERS));
    let small = measure(&stress_grid(USERS));
    let large = measure(&stress_grid(4 * USERS));
    // The same 2,000 users on 1,261 and 4,921 cells (20 and 40 rings),
    // in 8 shards on one worker.
    let on_rings = |grid_radius| ScenarioConfig { grid_radius, shards: 8, ..stress_grid(2_000) };
    let (few_cells, many_cells) = (measure(&on_rings(20)), measure(&on_rings(40)));
    for run in [&small, &large, &few_cells, &many_cells] {
        assert_eq!(run.left_over, 0, "a finished run kept {} heap bytes", run.left_over);
    }
    // The arrival replay holds about one eighth of the instants at once,
    // ~1 B per user (1.8 B measured); a full arrival vector would cost
    // 8 B per user (11.0 B measured) and an eager input a whole
    // `UserSpec` (88 B).
    let per_user = large.peak_above.saturating_sub(small.peak_above) as f64 / (3 * USERS) as f64;
    assert!(
        per_user < 6.0,
        "peak heap grew {per_user:.1} B per added user ({} -> {} B)",
        small.peak_above,
        large.peak_above
    );
    // Each cell is built once, into its shard, and a run copies none:
    // its `CellUnit` (88 B in a debug build), boxed controller and grid
    // entries, 129 B measured. Partitioning the cells into shards and
    // gathering them back for the id-order flush on every run held a
    // second copy at the peak (229 B).
    let per_cell = many_cells.peak_above.saturating_sub(few_cells.peak_above) as f64
        / (on_rings(40).grid().len() - on_rings(20).grid().len()) as f64;
    assert!(
        per_cell < 160.0,
        "peak heap grew {per_cell:.1} B per added cell ({} -> {} B)",
        few_cells.peak_above,
        many_cells.peak_above
    );
}
