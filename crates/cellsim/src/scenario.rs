//! Paper-experiment scenarios: map "number of requesting connections" and
//! the controlled parameters (speed / angle / distance) onto a workload,
//! run it, and report the acceptance percentage.
//!
//! The paper's §4 parameters are the defaults: speed 0–120 km/h,
//! direction −180…180°, distance 0–10 km, traffic mix 60/30/10 %
//! text/voice/video, request sizes 1/5/10 BU, 40 BU per base station.
//!
//! ## Parallel sweeps
//!
//! Replications are seed-isolated (see
//! [`ScenarioConfig::replication_seeds`]), so
//! [`ScenarioConfig::acceptance`], [`ScenarioConfig::acceptance_summary`]
//! and [`ScenarioConfig::aggregate`] fan the replications out over scoped
//! threads, and [`acceptance_curve`] flattens its whole
//! `(x-axis point, replication)` cross-product into one parallel work
//! list. Concurrency is capped at the machine's core count, and
//! per-replication results are folded back **in replication order**:
//! every float is combined in the same order the old sequential loops
//! used, so results are bit-identical to a sequential run; only
//! wall-clock time changes.

use facs_cac::{BandwidthUnits, BoxedController, ServiceProfileSet};

use crate::engine::{RunInput, Simulation, SimulationConfig, UserSpec};
use crate::geometry::HexGrid;
use crate::metrics::{Metrics, Series};
use crate::stats::Summary;
use crate::traffic::{HoldingTimes, TrafficMix};
use crate::workload::{Workload, WorkloadStream};

// The distribution specs moved into the declarative workload module;
// re-exported here so `facs_cellsim::scenario::SpeedSpec` etc. keep
// working.
pub use crate::workload::{
    AngleSpec, ArrivalPattern, DistanceSpec, MobilityChoice, SpawnSpec, SpeedSpec,
};

/// A per-grid controller factory, as passed to the scenario runners.
///
/// The `Sync` bound lets the parallel replication/sweep runners invoke
/// one builder from several worker threads at once; plain closures that
/// capture only shared data (or nothing) satisfy it automatically.
pub type ControllerBuilder = dyn Fn(&HexGrid) -> Vec<BoxedController> + Sync;

/// Full description of one paper experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The paper's x-axis: number of requesting connections.
    pub requests: usize,
    /// Arrival window (seconds) the requests are spread over.
    pub window_s: f64,
    /// Mean exponential call-holding time (seconds).
    pub holding_mean_s: f64,
    /// Base-station capacity in BU.
    pub capacity_bu: u32,
    /// Grid rings (0 = single cell).
    pub grid_radius: u32,
    /// Cell radius in km (the paper's 0–10 km distance universe).
    pub cell_radius_km: f64,
    /// Speed distribution.
    pub speed: SpeedSpec,
    /// Angle distribution.
    pub angle: AngleSpec,
    /// Distance distribution.
    pub distance: DistanceSpec,
    /// Spawn placement.
    pub spawn: SpawnSpec,
    /// Mobility model choice.
    pub mobility: MobilityChoice,
    /// Traffic class mix.
    pub mix: TrafficMix,
    /// Per-class service profiles (`None` = the paper's rigid unit
    /// costs; see [`Workload::profiles`]).
    pub profiles: Option<ServiceProfileSet>,
    /// Arrival-time pattern inside the window.
    pub arrivals: ArrivalPattern,
    /// Movement/handoff cadence (seconds).
    pub movement_tick_s: f64,
    /// Cell-group shards the kernel runs on (1 = single-threaded;
    /// results are bit-identical for any value, see [`crate::engine`]).
    pub shards: usize,
    /// Worker threads driving the shards (0 = auto-size to the host,
    /// 1 = one inline shard worker; bit-identical for any value). Every
    /// run also feeds its input from one more thread, the producer, see
    /// [`SimulationConfig::workers`].
    pub workers: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of independent replications to average over.
    pub replications: u32,
    /// Synthesize the workload through the chunked
    /// [`WorkloadStream`] (the default, `true`) or, when `false`,
    /// materialize every [`UserSpec`] up front and hand the kernel one
    /// chunk holding the whole population (see
    /// [`ScenarioConfig::run_input`]). It selects only how many specs
    /// sit in memory: either input reaches the kernel through the same
    /// producer thread and arrival path, and results are bit-identical.
    /// Streaming keeps the input at about one eighth of the users' 8 B
    /// arrival instants plus at most two
    /// [`ScenarioConfig::STREAM_CHUNK`]-user chunks;
    /// the eager input keeps every spec for the whole run.
    pub streamed: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            requests: 50,
            window_s: 600.0,
            holding_mean_s: 40.0,
            capacity_bu: 40,
            grid_radius: 0,
            cell_radius_km: 10.0,
            speed: SpeedSpec::PaperUniform,
            angle: AngleSpec::HeadingHistory { history_s: 300.0 },
            distance: DistanceSpec::UniformInCell,
            spawn: SpawnSpec::CenterCell,
            mobility: MobilityChoice::Auto,
            mix: TrafficMix::PAPER,
            profiles: None,
            arrivals: ArrivalPattern::Uniform,
            movement_tick_s: 5.0,
            shards: 1,
            workers: 0,
            seed: 2007,
            replications: 3,
            streamed: true,
        }
    }
}

impl ScenarioConfig {
    /// Returns the grid this scenario runs on.
    #[must_use]
    pub fn grid(&self) -> HexGrid {
        HexGrid::new(self.grid_radius, self.cell_radius_km)
    }

    /// The declarative [`Workload`] description this scenario's knobs
    /// assemble into — the single source of workload generation.
    #[must_use]
    pub fn workload(&self) -> Workload {
        Workload {
            arrivals: self.arrivals.clone(),
            spawn: self.spawn,
            speed: self.speed,
            angle: self.angle,
            distance: self.distance,
            mobility: self.mobility,
            mix: self.mix,
            profiles: self.profiles,
        }
    }

    /// Generates the workload for one replication by expanding
    /// [`ScenarioConfig::workload`].
    ///
    /// All randomness is drawn from `seed`, independent of the policy
    /// under test, so competing controllers face byte-identical traffic.
    #[must_use]
    pub fn generate_workload(&self, seed: u64) -> Vec<UserSpec> {
        self.workload().generate(
            &self.grid(),
            self.requests,
            self.window_s,
            HoldingTimes::new(self.holding_mean_s),
            seed,
        )
    }

    /// Opens the same workload as [`ScenarioConfig::generate_workload`]
    /// as a chunked [`WorkloadStream`] (chunk size
    /// [`ScenarioConfig::STREAM_CHUNK`]): identical RNG state, identical
    /// specs, but synthesized on demand.
    #[must_use]
    pub fn stream_workload(&self, seed: u64) -> WorkloadStream {
        self.workload().stream(
            &self.grid(),
            self.requests,
            self.window_s,
            HoldingTimes::new(self.holding_mean_s),
            seed,
            Self::STREAM_CHUNK,
        )
    }

    /// The kernel configuration this scenario runs under for workload
    /// seed `seed` — the single source of the seed mix and horizon
    /// formula, shared by [`ScenarioConfig::run_once`] and the
    /// experiment runners in `facs-bench`.
    #[must_use]
    pub fn sim_config(&self, seed: u64) -> SimulationConfig {
        SimulationConfig {
            capacity: BandwidthUnits::new(self.capacity_bu),
            movement_tick_s: self.movement_tick_s,
            max_time_s: self.window_s + 50.0 * self.holding_mean_s,
            seed: seed ^ 0x5EED_0001,
            shards: self.shards,
            workers: self.workers,
        }
    }

    /// Chunk size used by [`ScenarioConfig::stream_workload`]: small
    /// enough that one resident chunk is negligible next to the active
    /// call set, large enough to amortize per-chunk dispatch.
    pub const STREAM_CHUNK: usize = 8192;

    /// The workload for seed `seed` as the kernel consumes it — the one
    /// place [`ScenarioConfig::streamed`] is read and the one way every
    /// runner in the suite builds its input: a chunked
    /// [`WorkloadStream`] by default, the eagerly generated specs when
    /// `streamed` is `false`. Either input gives bit-identical results.
    #[must_use]
    pub fn run_input(&self, seed: u64) -> RunInput {
        if self.streamed {
            self.stream_workload(seed).into()
        } else {
            self.generate_workload(seed).into()
        }
    }

    /// Runs the scenario once with the given per-grid controller builder
    /// and returns the metrics.
    pub fn run_once(&self, seed: u64, build: &ControllerBuilder) -> Metrics {
        let grid = self.grid();
        let controllers = build(&grid);
        let mut sim = Simulation::new(grid, self.sim_config(seed), controllers);
        sim.run(self.run_input(seed))
    }

    /// The per-replication RNG seeds, in replication order.
    ///
    /// Replication `rep` runs on `seed + rep * 7919` (a prime stride, so
    /// neighbouring replications never share low-order seed structure).
    /// This is the single source of truth for both the sequential fold
    /// order and the parallel runners — anything that iterates
    /// replications derives its seeds here.
    pub fn replication_seeds(&self) -> impl ExactSizeIterator<Item = u64> {
        let base = self.seed;
        (0..self.replications.max(1)).map(move |rep| base + u64::from(rep) * 7919)
    }

    /// Runs every replication (in parallel when there is more than one)
    /// and returns the per-replication metrics **in replication order**.
    fn run_replications(&self, build: &ControllerBuilder) -> Vec<Metrics> {
        let seeds: Vec<u64> = self.replication_seeds().collect();
        parallel_map_in_order(&seeds, |&seed| self.run_once(seed, build))
    }

    /// Runs all replications (in parallel) and returns the mean
    /// acceptance percentage. Bit-identical to folding
    /// [`ScenarioConfig::run_once`] over [`ScenarioConfig::replication_seeds`]
    /// sequentially.
    pub fn acceptance(&self, build: &ControllerBuilder) -> f64 {
        let per_rep = self.run_replications(build);
        let mut total = 0.0;
        for metrics in &per_rep {
            total += metrics.acceptance_percentage();
        }
        total / per_rep.len() as f64
    }

    /// Runs all replications (in parallel) and returns the acceptance
    /// percentage with a 95 % confidence interval across replications.
    pub fn acceptance_summary(&self, build: &ControllerBuilder) -> Summary {
        let sample: Vec<f64> =
            self.run_replications(build).iter().map(Metrics::acceptance_percentage).collect();
        Summary::of(&sample)
    }

    /// Runs all replications (in parallel) and returns aggregated full
    /// metrics (counters summed in replication order, percentages
    /// recomputed from the sums).
    pub fn aggregate(&self, build: &ControllerBuilder) -> Metrics {
        let mut sum = Metrics::new();
        for m in self.run_replications(build) {
            sum.merge(&m);
        }
        sum
    }
}

/// Worker cap for the parallel runners: one thread per available core
/// (1 when the count cannot be determined, which degrades to the
/// sequential path).
fn max_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The shared parallel runner: applies `f` to every job on up to
/// [`max_workers`] scoped threads and returns the results **in job
/// order**.
///
/// Workers pull job indices from a shared atomic counter (no wave
/// barriers — a slow job never idles the other cores) and tag each
/// result with its index; results are then placed back in index order,
/// so the caller's fold sees exactly the sequence a sequential
/// `jobs.iter().map(f)` would produce. With one worker (or one job) it
/// degrades to that sequential map.
fn parallel_map_in_order<T: Sync, R: Send>(jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = max_workers().min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        out.push((i, f(job)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
    .expect("parallel scope failed");
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(jobs.len()).collect();
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("every job ran exactly once")).collect()
}

/// Sweeps the paper's x-axis (number of requesting connections) and
/// produces one figure series.
///
/// Every `(x-axis point, replication)` pair is flattened into one work
/// list and run on a single level of parallelism capped at the
/// machine's core count — no nested fan-out. Per-point results are then
/// folded in replication order, so the output is bit-identical to
/// calling [`ScenarioConfig::acceptance`] per point sequentially.
pub fn acceptance_curve(
    label: &str,
    request_counts: &[usize],
    configure: impl Fn(usize) -> ScenarioConfig + Sync,
    build: &ControllerBuilder,
) -> Series {
    let configs: Vec<ScenarioConfig> = request_counts.iter().map(|&n| configure(n)).collect();
    let jobs: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(i, config)| config.replication_seeds().map(move |seed| (i, seed)))
        .collect();
    let accepts = parallel_map_in_order(&jobs, |&(i, seed)| {
        configs[i].run_once(seed, build).acceptance_percentage()
    });
    // Fold per point in replication order — the same float-op order as
    // the sequential `acceptance` fold.
    let mut series = Series::new(label);
    let mut cursor = 0usize;
    for (&n, config) in request_counts.iter().zip(&configs) {
        let reps = config.replication_seeds().len();
        let mut total = 0.0;
        for &accept in &accepts[cursor..cursor + reps] {
            total += accept;
        }
        cursor += reps;
        series.push(n as f64, total / reps as f64);
    }
    series
}

/// The x-axis the paper plots: 10, 20, …, 100 requesting connections.
#[must_use]
pub fn paper_request_counts() -> Vec<usize> {
    (1..=10).map(|i| i * 10).collect()
}

/// Offered-load summary for a scenario, in Erlang-like units: expected
/// concurrent calls × mean demand relative to capacity.
#[must_use]
pub fn offered_load_fraction(config: &ScenarioConfig) -> f64 {
    let concurrent = config.requests as f64 * config.holding_mean_s / config.window_s;
    concurrent * config.mix.expected_demand_bu() / f64::from(config.capacity_bu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use facs_cac::policies::CompleteSharing;

    fn cs_builder() -> impl Fn(&HexGrid) -> Vec<BoxedController> {
        |grid: &HexGrid| {
            grid.cell_ids().map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
        }
    }

    #[test]
    fn workload_respects_fixed_parameters() {
        let config = ScenarioConfig {
            requests: 200,
            speed: SpeedSpec::Fixed(30.0),
            angle: AngleSpec::Fixed(45.0),
            distance: DistanceSpec::Fixed(3.0),
            ..Default::default()
        };
        let grid = config.grid();
        let bs = grid.center_of(facs_cac::CellId(0));
        for spec in config.generate_workload(1) {
            assert_eq!(spec.start.speed_kmh, 30.0);
            let obs = spec.start.observe(bs);
            assert!((obs.angle_deg - 45.0).abs() < 1e-6, "angle {}", obs.angle_deg);
            assert!((obs.distance_km - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_arrivals_sorted_within_window() {
        let config = ScenarioConfig { requests: 100, window_s: 300.0, ..Default::default() };
        let workload = config.generate_workload(2);
        assert_eq!(workload.len(), 100);
        assert!(workload.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(workload.iter().all(|s| (0.0..300.0).contains(&s.arrival_s)));
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let config = ScenarioConfig::default();
        let a = config.generate_workload(9);
        let b = config.generate_workload(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_s, y.arrival_s);
            assert_eq!(x.start, y.start);
            assert_eq!(x.profile, y.profile);
            assert_eq!(x.holding_s, y.holding_s);
        }
    }

    #[test]
    fn heading_history_slow_users_spread_wide() {
        let spread = |speed: f64| {
            let config = ScenarioConfig {
                requests: 400,
                speed: SpeedSpec::Fixed(speed),
                angle: AngleSpec::HeadingHistory { history_s: 300.0 },
                ..Default::default()
            };
            let grid = config.grid();
            let bs = grid.center_of(facs_cac::CellId(0));
            let angles: Vec<f64> = config
                .generate_workload(3)
                .iter()
                .map(|s| s.start.observe(bs).angle_deg.abs())
                .collect();
            angles.iter().sum::<f64>() / angles.len() as f64
        };
        // Uniform |angle| has mean 90°; a tight gaussian near zero stays
        // low. Both walking speeds are past the 60° diffusion cutoff, so
        // they spread near-uniformly.
        assert!(spread(4.0) > 70.0, "4 km/h mean |angle| {}", spread(4.0));
        assert!(spread(10.0) > 70.0, "10 km/h mean |angle| {}", spread(10.0));
        assert!(spread(60.0) < 25.0, "60 km/h mean |angle| {}", spread(60.0));
        assert!(spread(10.0) > spread(30.0));
        assert!(spread(30.0) > spread(60.0));
    }

    #[test]
    fn acceptance_monotone_in_load_for_complete_sharing() {
        let accept = |n: usize| {
            ScenarioConfig { requests: n, replications: 2, ..Default::default() }
                .acceptance(&cs_builder())
        };
        let light = accept(10);
        let heavy = accept(100);
        assert!(light > heavy, "light {light} <= heavy {heavy}");
        assert!(light > 95.0, "light load should accept nearly all, got {light}");
    }

    #[test]
    fn acceptance_curve_shapes() {
        let series = acceptance_curve(
            "cs",
            &[10, 50, 100],
            |n| ScenarioConfig { requests: n, replications: 1, ..Default::default() },
            &cs_builder(),
        );
        assert_eq!(series.points.len(), 3);
        assert_eq!(series.points[0].0, 10.0);
        assert!(series.points.iter().all(|&(_, y)| (0.0..=100.0).contains(&y)));
    }

    #[test]
    fn offered_load_math() {
        let config = ScenarioConfig {
            requests: 100,
            window_s: 600.0,
            holding_mean_s: 120.0,
            capacity_bu: 40,
            ..Default::default()
        };
        // 100 * 120/600 = 20 concurrent × 3.1 BU / 40 BU = 1.55.
        assert!((offered_load_fraction(&config) - 1.55).abs() < 1e-9);
    }

    #[test]
    fn paper_counts() {
        assert_eq!(paper_request_counts(), vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
    }

    #[test]
    fn replication_seeds_use_the_prime_stride() {
        let config = ScenarioConfig { seed: 100, replications: 4, ..Default::default() };
        let seeds: Vec<u64> = config.replication_seeds().collect();
        assert_eq!(seeds, vec![100, 100 + 7919, 100 + 2 * 7919, 100 + 3 * 7919]);
        // replications = 0 still yields one run, like the old `.max(1)`.
        let config = ScenarioConfig { seed: 5, replications: 0, ..Default::default() };
        assert_eq!(config.replication_seeds().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn parallel_runners_match_sequential_folds_bit_for_bit() {
        let config = ScenarioConfig { requests: 40, replications: 4, ..Default::default() };
        let build = cs_builder();

        // Sequential references, folded exactly like the old loops.
        let mut seq_total = 0.0;
        let mut seq_sample = Vec::new();
        let mut seq_sum = Metrics::new();
        for seed in config.replication_seeds() {
            let m = config.run_once(seed, &build);
            seq_total += m.acceptance_percentage();
            seq_sample.push(m.acceptance_percentage());
            seq_sum.merge(&m);
        }

        assert_eq!(config.acceptance(&build), seq_total / 4.0);
        let summary = config.acceptance_summary(&build);
        assert_eq!(summary, Summary::of(&seq_sample));
        assert_eq!(config.aggregate(&build), seq_sum);
    }

    #[test]
    fn parallel_curve_matches_pointwise_acceptance() {
        let configure = |n| ScenarioConfig { requests: n, replications: 2, ..Default::default() };
        let series = acceptance_curve("cs", &[10, 30, 50], configure, &cs_builder());
        for (&n, &(x, y)) in [10usize, 30, 50].iter().zip(&series.points) {
            assert_eq!(x, n as f64);
            assert_eq!(y, configure(n).acceptance(&cs_builder()), "divergence at n={n}");
        }
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use facs_cac::policies::CompleteSharing;

    #[test]
    fn acceptance_summary_reports_interval() {
        let config = ScenarioConfig { requests: 60, replications: 3, ..Default::default() };
        let summary = config.acceptance_summary(&|grid: &HexGrid| {
            grid.cell_ids().map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
        });
        assert_eq!(summary.n, 3);
        assert!(summary.mean > 0.0 && summary.mean <= 100.0);
        let (lo, hi) = summary.ci95();
        assert!(lo <= summary.mean && summary.mean <= hi);
    }
}
