//! The FACS simulator benchmark binary.
//!
//! ```text
//! perfbench run   --workload <name> --seed <n> --budget-s <s>
//! perfbench trace --workload <name> --seed <n> --budget-s <s>
//! ```
//!
//! `run` times the public entry `ScenarioConfig::run_once` with compiled
//! FACS controllers, repeatedly until the budget is spent, and reports
//! each run's wall and CPU time plus the process's set-up time and peak
//! RSS. Times are converted to reference-host seconds with the readings
//! of a [`calibrate::Gauge`] taken between them. `trace` alternates untraced and traced runs (every controller
//! wrapped in [`traced::Traced`]) and times the layers the kernel calls
//! internally by calling their public functions standalone on the same
//! seed's inputs. Both print one JSON line; `run.py` aggregates them.
//! Every run's counters pass [`workloads::check`].

mod calibrate;
mod traced;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use facs::{FacsConfig, FacsController};
use facs_cac::BoxedController;
use facs_cellsim::{
    ControllerBuilder, HexGrid, Metrics, MobileState, MobilityModel, ScenarioConfig, SimRng, Walker,
};

use calibrate::Gauge;
use traced::{LayerTotals, Traced};
use workloads::Workload;

/// Users whose start state the standalone mobility timing steps.
const MOBILITY_SAMPLE: usize = 1_000_000;

/// Untraced/traced pairs one `trace` process makes whatever its budget:
/// two traced runs are needed to check that their counts repeat.
const MIN_PAIRS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    budget_s: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mode = match args.first().map(String::as_str) {
        Some("run") => Mode::Run,
        Some("trace") => Mode::Trace,
        other => return Err(format!("expected mode `run` or `trace`, got {other:?}")),
    };
    let (mut workload, mut seed, mut budget_s) = (None, None, None);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--budget-s" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --budget-s: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --budget-s {s}"));
                }
                budget_s = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget_s: budget_s.ok_or("missing --budget-s")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench run|trace --workload <name> --seed <n> --budget-s <s>");
            return ExitCode::from(2);
        }
    };
    let line = match args.mode {
        Mode::Run => end_to_end(&args),
        Mode::Trace => traced_run(&args),
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// What a fresh process pays before the first event, and what it built.
struct Setup {
    prototype: FacsController,
    surface_s: f64,
    grid_s: f64,
    controllers_s: f64,
}

impl Setup {
    /// Times the public constructors: the FACS prototype (compiled
    /// surface precompute), the grid, and one controller per cell.
    fn measure(config: &ScenarioConfig) -> Self {
        let start = Instant::now();
        let prototype =
            FacsController::with_config(FacsConfig::compiled()).expect("the paper's FACS builds");
        let surface_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let grid = std::hint::black_box(config.grid());
        let grid_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let controllers = std::hint::black_box(plain_builder(&prototype)(&grid));
        let controllers_s = start.elapsed().as_secs_f64();
        drop(controllers);
        Self { prototype, surface_s, grid_s, controllers_s }
    }

    fn total_s(&self) -> f64 {
        self.surface_s + self.grid_s + self.controllers_s
    }
}

/// One FACS clone per cell, as the repository's experiments build them.
fn plain_builder(prototype: &FacsController) -> impl Fn(&HexGrid) -> Vec<BoxedController> + Sync {
    let prototype = prototype.clone();
    move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    }
}

/// [`plain_builder`] with every controller wrapped in a [`Traced`]
/// decorator that folds into `sink`.
fn traced_builder(
    prototype: &FacsController,
    sink: &Arc<Mutex<LayerTotals>>,
) -> impl Fn(&HexGrid) -> Vec<BoxedController> + Sync {
    let prototype = prototype.clone();
    let sink = Arc::clone(sink);
    move |grid: &HexGrid| {
        grid.cell_ids()
            .map(|_| {
                Box::new(Traced::new(Box::new(prototype.clone()), Arc::clone(&sink)))
                    as BoxedController
            })
            .collect()
    }
}

/// A traced run's times and what its decorators added up to.
struct TracedRun {
    wall_s: f64,
    cpu_s: f64,
    totals: LayerTotals,
}

/// One `run_once` call: wall and process CPU time from entry to
/// return, and the counters or the reason the run failed.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    outcome: Result<Metrics, String>,
}

fn timed_run(
    workload: Workload,
    config: &ScenarioConfig,
    seed: u64,
    build: &ControllerBuilder,
) -> Timed {
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| config.run_once(seed, build)));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    let outcome = match result {
        Ok(metrics) => {
            let failures = workloads::check(workload, config, seed, &metrics);
            if failures.is_empty() {
                Ok(metrics)
            } else {
                Err(failures.join("; "))
            }
        }
        Err(panic) => Err(format!("run panicked: {}", panic_message(&*panic))),
    };
    Timed { wall_s, cpu_s, outcome }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// `run`: one untraced run, then as many more as fit in the budget. The
/// host gauge takes a reading before set-up, after it and after every
/// run; each timing is scaled by the mean of the two readings around it.
fn end_to_end(args: &Args) -> String {
    let cores = cores();
    let config = args.workload.config(cores);
    let workers = resolved_workers(&config, cores);
    let mut gauge = Gauge::new(workers);
    let setup = Setup::measure(&config);
    let setup_gauge_s = gauge.around();
    let build = plain_builder(&setup.prototype);
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    let start = Instant::now();
    let mut last_wall_s = 0.0;
    // Read after the first run: later runs can raise the high-water mark
    // through allocator fragmentation, and how many fit varies.
    let mut first_run_rss_kb = 0;
    while runs.is_empty() || start.elapsed().as_secs_f64() + last_wall_s <= args.budget_s {
        let run = timed_run(args.workload, &config, args.seed, &build);
        let gauge_s = gauge.around();
        if runs.is_empty() {
            first_run_rss_kb = peak_rss_kb();
        }
        last_wall_s = run.wall_s;
        let events = match &run.outcome {
            Ok(m) => m.total_events(),
            Err(e) => {
                errors.push(e.clone());
                0
            }
        };
        runs.push(format!(
            "{{\"wall_s\": {}, \"cpu_s\": {}, \"raw_wall_s\": {}, \"gauge_s\": {}, \
             \"events\": {}, \"ok\": {}}}",
            scaled(run.wall_s, gauge_s),
            scaled(run.cpu_s, gauge_s),
            run.wall_s,
            gauge_s,
            events,
            run.outcome.is_ok()
        ));
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"workers\": {}, \"setup_s\": {}, \
         \"raw_setup_s\": {}, \"peak_rss_kb\": {}, \"runs\": [{}], \"errors\": {}}}",
        args.workload.name(),
        args.seed,
        cores,
        workers,
        scaled(setup.total_s(), setup_gauge_s),
        setup.total_s(),
        first_run_rss_kb,
        runs.join(", "),
        json_strings(&errors),
    )
}

/// `seconds` measured while the host ran the reference in `gauge_s`,
/// converted to seconds of a host that runs it in
/// [`calibrate::REFERENCE_S`].
fn scaled(seconds: f64, gauge_s: f64) -> f64 {
    seconds * calibrate::REFERENCE_S / gauge_s
}

/// `trace`: alternating untraced/traced pairs (at least two), then the
/// standalone layer timings, folded into the per-layer metrics.
fn traced_run(args: &Args) -> String {
    let cores = cores();
    let config = args.workload.config(cores);
    let mut gauge = Gauge::new(resolved_workers(&config, cores));
    let setup = Setup::measure(&config);
    let mut gauges = vec![gauge.around()];
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    if let Err(e) = traced::check_forwarding() {
        failed += 1;
        errors.push(e);
    }
    let clock_ns = traced::clock_overhead_ns();
    let plain = plain_builder(&setup.prototype);

    let mut untraced_walls = Vec::new();
    let mut traced_runs: Vec<TracedRun> = Vec::new();
    let mut reference: Option<Metrics> = None;
    let start = Instant::now();
    let mut last_pair_s = 0.0;
    while traced_runs.len() < MIN_PAIRS
        || start.elapsed().as_secs_f64() + last_pair_s <= args.budget_s
    {
        let pair_start = Instant::now();
        let sink = Arc::new(Mutex::new(LayerTotals::default()));
        let traced = traced_builder(&setup.prototype, &sink);
        for (is_traced, build) in [(false, &plain as &ControllerBuilder), (true, &traced)] {
            attempted += 1;
            let run = timed_run(args.workload, &config, args.seed, build);
            let metrics = match run.outcome {
                Ok(m) => m,
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                    continue;
                }
            };
            match &reference {
                None => reference = Some(metrics),
                Some(r) if *r != metrics => {
                    failed += 1;
                    errors.push(format!("run counters differ from the first run: {metrics:?}"));
                    continue;
                }
                Some(_) => {}
            }
            if is_traced {
                let totals = *sink.lock().expect("a decorator panicked while folding");
                traced_runs.push(TracedRun { wall_s: run.wall_s, cpu_s: run.cpu_s, totals });
            } else {
                untraced_walls.push(run.wall_s);
            }
        }
        if failed > 0 {
            break;
        }
        gauges.push(gauge.around());
        last_pair_s = pair_start.elapsed().as_secs_f64();
    }
    let Some(metrics) = reference.filter(|_| !traced_runs.is_empty()) else {
        return trace_line(args, cores, &config, attempted, failed.max(1), &errors, &[]);
    };
    let totals = traced_runs[0].totals;
    if traced_runs.iter().any(|run| run.totals.counts() != totals.counts()) {
        failed += 1;
        errors.push("traced runs counted different work".to_owned());
    }

    let layers = Layers::standalone(&config, args.seed);
    gauges.push(gauge.around());
    // Every timing below is converted to reference-host time by one
    // factor: the median reading over the whole process.
    let gauge_s = median(gauges);
    let host = |seconds: f64| scaled(seconds, gauge_s);
    let traced_wall = median(traced_runs.iter().map(|run| run.wall_s).collect());
    // Self times are summed over every worker thread, so the remainder is
    // taken from CPU time; with one worker that is the wall time.
    let traced_cpu = median(traced_runs.iter().map(|run| run.cpu_s).collect());
    let self_of = |pick: fn(&LayerTotals) -> traced::Span| {
        median(traced_runs.iter().map(|run| pick(&run.totals).self_s(clock_ns)).collect())
    };
    let decide_s = self_of(|t| t.decide);
    let fast_reject_s = self_of(|t| t.fast_reject);
    let observe_s = self_of(|t| t.observe);
    let ledger_s = self_of(|t| t.on_admitted) + self_of(|t| t.on_released);
    let engine_s = traced_cpu - decide_s - fast_reject_s - observe_s - ledger_s - layers.synth_s;
    if engine_s <= 0.0 {
        failed += 1;
        errors.push(format!(
            "layer self times exceed the traced CPU time {traced_cpu} (engine {engine_s})"
        ));
    }
    if totals.fast_reject.calls != metrics.offered_new {
        failed += 1;
        errors.push(format!(
            "fast_reject ran {} times for {} arrivals",
            totals.fast_reject.calls, metrics.offered_new
        ));
    }
    if totals.decide.calls != totals.admits + totals.rejects {
        failed += 1;
        errors.push("decide outcomes do not add up to its calls".to_owned());
    }
    let admitted = metrics.accepted_new + metrics.handoff_accepted;
    let events = metrics.total_events();
    let ratio = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let per_layer: Vec<(&str, f64)> = vec![
        ("workload.synth_s", host(layers.synth_s)),
        ("workload.users_per_s", config.requests as f64 / host(layers.synth_s)),
        ("geometry.locate_ns", host(layers.locate_ns)),
        ("mobility.steps", metrics.mobility_steps as f64),
        ("mobility.step_ns", host(layers.step_ns)),
        ("fast_reject.calls", totals.fast_reject.calls as f64),
        ("fast_reject.hits", totals.fast_reject_hits as f64),
        ("fast_reject.hit_ratio", ratio(totals.fast_reject_hits, totals.fast_reject.calls)),
        ("fast_reject.self_s", host(fast_reject_s)),
        ("decide.calls", totals.decide.calls as f64),
        ("decide.admits", totals.admits as f64),
        ("decide.rejects", totals.rejects as f64),
        ("decide.degraded", totals.degraded as f64),
        ("decide.reject_ratio", ratio(totals.rejects, totals.decide.calls)),
        ("decide.self_s", host(decide_s)),
        ("decide.ns_per_call", host(decide_s) * 1e9 / totals.decide.calls.max(1) as f64),
        ("observe.calls", totals.observe.calls as f64),
        ("observe.self_s", host(observe_s)),
        ("engine.epochs", totals.observe.calls as f64 / totals.cells.max(1) as f64),
        ("ledger.writes", (totals.on_admitted.calls + totals.on_released.calls) as f64),
        ("ledger.refusals", totals.admits.saturating_sub(admitted) as f64),
        ("engine.events", events as f64),
        ("engine.handoffs", metrics.handoff_attempts as f64),
        ("engine.self_s", host(engine_s)),
        ("engine.ns_per_event", host(engine_s) * 1e9 / events.max(1) as f64),
        ("setup.surface_s", host(setup.surface_s)),
        ("setup.grid_s", host(setup.grid_s)),
        ("setup.controllers_s", host(setup.controllers_s)),
        ("trace.overhead_ratio", traced_wall / median(untraced_walls)),
        ("host.gauge_ms", gauge_s * 1e3),
    ];
    trace_line(args, cores, &config, attempted, failed, &errors, &per_layer)
}

fn trace_line(
    args: &Args,
    cores: usize,
    config: &ScenarioConfig,
    attempted: u64,
    failed: u64,
    errors: &[String],
    metrics: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"workers\": {}, \"attempted\": {}, \
         \"failed\": {}, \"errors\": {}, \"metrics\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        cores,
        resolved_workers(config, cores),
        attempted,
        failed,
        json_strings(errors),
        metrics.join(", "),
    )
}

/// The layers the kernel calls internally, timed standalone on the same
/// seed's inputs.
struct Layers {
    /// Workload synthesis: the eager `generate_workload`, or a drain of
    /// the chunked stream (only the `next_chunk` calls are timed).
    synth_s: f64,
    /// `HexGrid::locate` over every user's start position.
    locate_ns: f64,
    /// One walker step of the first [`MOBILITY_SAMPLE`] start states.
    step_ns: f64,
}

impl Layers {
    fn standalone(config: &ScenarioConfig, seed: u64) -> Self {
        let mut positions = Vec::with_capacity(config.requests);
        let mut states: Vec<MobileState> = Vec::with_capacity(MOBILITY_SAMPLE);
        let mut keep = |spec: &facs_cellsim::UserSpec| {
            positions.push(spec.start.position);
            if states.len() < MOBILITY_SAMPLE {
                states.push(spec.start);
            }
        };
        let synth_s = if config.streamed {
            let mut stream = config.stream_workload(seed);
            let mut synth_s = 0.0;
            loop {
                let start = Instant::now();
                let Some(chunk) = stream.next_chunk() else { break };
                synth_s += start.elapsed().as_secs_f64();
                chunk.specs.iter().for_each(&mut keep);
                stream.recycle(chunk);
            }
            synth_s
        } else {
            let start = Instant::now();
            let specs = std::hint::black_box(config.generate_workload(seed));
            let synth_s = start.elapsed().as_secs_f64();
            specs.iter().for_each(&mut keep);
            synth_s
        };

        let grid = config.grid();
        let start = Instant::now();
        let located: u64 =
            positions.iter().map(|&p| u64::from(grid.locate(std::hint::black_box(p)).0)).sum();
        let locate_ns = start.elapsed().as_nanos() as f64 / positions.len().max(1) as f64;
        std::hint::black_box(located);

        let mut walker = Walker::paper_default();
        let mut rng = SimRng::seed_from_u64(seed);
        let dt_s = config.movement_tick_s;
        let start = Instant::now();
        for state in &mut states {
            walker.step(state, dt_s, &mut rng);
        }
        let step_ns = start.elapsed().as_nanos() as f64 / states.len().max(1) as f64;
        std::hint::black_box(&states);

        Self { synth_s, locate_ns, step_ns }
    }
}

/// The worker count the kernel resolves for `config` on `cores` cores
/// (the engine's rule: one shard or one configured worker runs
/// sequentially; otherwise the configured count, capped at the shards).
fn resolved_workers(config: &ScenarioConfig, cores: usize) -> usize {
    let shards = config.shards.clamp(1, config.grid().len().max(1));
    if shards == 1 || config.workers == 1 {
        1
    } else if config.workers == 0 {
        cores.min(shards)
    } else {
        config.workers.min(shards)
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', " ")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// This process's peak resident set (`VmHWM`), in kB; 0 where `/proc`
/// is unavailable.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

// `Timespec` below is the 64-bit Linux layout, and the peak RSS comes
// from Linux's `/proc`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures through 64-bit Linux interfaces");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for CPU time consumed by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process, all threads.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) for the whole call, and the clock id is a constant
    // the kernel defines; `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
