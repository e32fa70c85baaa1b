//! A fixed reference computation that gauges how fast the host runs
//! right now.
//!
//! A shared host can run the same code at very different speeds minutes
//! apart. The reference mixes the simulator's kinds of work: scattered
//! reads and writes over a table larger than a core's private caches
//! (per-cell state), interpolation on a float lattice (compiled fuzzy
//! surfaces) and priority-queue churn (the event queue). It depends on
//! nothing in the repository, so its cost changes only with the host.

use std::collections::BinaryHeap;
use std::time::Instant;

/// The reference's one-thread time on the quiet 2-core host the
/// benchmark was tuned on. Timings are reported in seconds of a host that
/// runs the reference this fast.
pub const REFERENCE_S: f64 = 0.040;

/// Reference runs per reading; the reading is their median.
const REPS: usize = 3;

/// Words in the scattered-access table (8 MiB).
const TABLE_WORDS: usize = 1 << 20;
/// Scattered read-modify-writes per run.
const TABLE_TOUCHES: usize = 1 << 20;
/// Side of the interpolation lattice.
const LATTICE: usize = 256;
/// Interpolated queries per run.
const QUERIES: usize = 1 << 19;
/// Entries pushed through the heap per run.
const HEAP_OPS: usize = 1 << 17;

/// Gauges host speed by running the reference on as many threads as the
/// workload runs workers, so a workload that needs every core is gauged
/// on every core.
pub struct Gauge {
    references: Vec<Reference>,
    last_s: f64,
}

impl Gauge {
    /// Builds the gauge, warms it and takes its first reading.
    pub fn new(threads: usize) -> Self {
        let mut gauge = Self {
            references: (0..threads.max(1)).map(|_| Reference::new()).collect(),
            last_s: 0.0,
        };
        gauge.time_once();
        gauge.last_s = gauge.reading();
        gauge
    }

    /// Takes a reading and returns the mean of it and the reading before:
    /// the host's speed around whatever ran in between, as the seconds
    /// the reference takes.
    pub fn around(&mut self) -> f64 {
        let now = self.reading();
        let mean = (self.last_s + now) / 2.0;
        self.last_s = now;
        mean
    }

    /// The median wall time of [`REPS`] reference runs, each on every
    /// thread at once and waiting for the slowest.
    fn reading(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..REPS).map(|_| self.time_once()).collect();
        times.sort_by(f64::total_cmp);
        times[REPS / 2]
    }

    fn time_once(&mut self) -> f64 {
        let start = Instant::now();
        if let [only] = self.references.as_mut_slice() {
            std::hint::black_box(only.work());
        } else {
            std::thread::scope(|scope| {
                for reference in &mut self.references {
                    scope.spawn(|| std::hint::black_box(reference.work()));
                }
            });
        }
        start.elapsed().as_secs_f64()
    }
}

/// One thread's working memory for the reference, allocated once.
struct Reference {
    table: Vec<u64>,
    lattice: Vec<f64>,
    heap: BinaryHeap<(u64, u32)>,
}

impl Reference {
    fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let table = (0..TABLE_WORDS).map(|_| xorshift(&mut state)).collect();
        let lattice =
            (0..LATTICE * LATTICE).map(|_| (xorshift(&mut state) >> 11) as f64 * 1e-16).collect();
        Self { table, lattice, heap: BinaryHeap::with_capacity(HEAP_OPS) }
    }

    /// One run of the reference; the same work every time.
    fn work(&mut self) -> u64 {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mask = TABLE_WORDS - 1;
        let mut acc = 0u64;
        for _ in 0..TABLE_TOUCHES {
            let i = xorshift(&mut state) as usize & mask;
            let v = self.table[i].wrapping_mul(0x9e37_79b9).rotate_left(7);
            self.table[i] = v;
            acc ^= v;
        }
        let side = (LATTICE - 1) as f64;
        let mut sum = 0.0f64;
        for _ in 0..QUERIES {
            let r = xorshift(&mut state);
            let x = (r & 0xffff) as f64 / 65_536.0 * side;
            let y = ((r >> 16) & 0xffff) as f64 / 65_536.0 * side;
            let (xi, yi) = (x as usize, y as usize);
            let (fx, fy) = (x - xi as f64, y - yi as f64);
            let at = |cx: usize, cy: usize| self.lattice[cy * LATTICE + cx];
            let lo = at(xi, yi) * (1.0 - fx) + at(xi + 1, yi) * fx;
            let hi = at(xi, yi + 1) * (1.0 - fx) + at(xi + 1, yi + 1) * fx;
            sum += lo * (1.0 - fy) + hi * fy;
        }
        for k in 0..HEAP_OPS {
            self.heap.push((xorshift(&mut state) >> 40, k as u32));
            if k % 4 == 3 {
                self.heap.pop();
                self.heap.pop();
            }
        }
        while let Some((key, _)) = self.heap.pop() {
            acc = acc.wrapping_add(key);
        }
        acc ^ sum.to_bits()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
