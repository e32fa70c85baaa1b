//! Experiment definitions: one function per paper artifact.
//!
//! Each `figN_*` / `tabN_*` function regenerates the corresponding table
//! or figure of Barolli et al. (ICDCSW 2007); the `experiments` binary
//! prints them as CSV and ASCII plots, and EXPERIMENTS.md records the
//! measured numbers against the paper's.

use facs::{
    FacsConfig, FacsController, FacsDegradeController, Flc1, Flc2, HeadroomFacsController, FRB1,
    FRB2,
};
use facs_cac::policies::CompleteSharing;
use facs_cac::{
    BoxedController, CallId, CallKind, CallRequest, CellSnapshot, MobilityInfo, ServiceClass,
};
use facs_cellsim::prelude::*;
use facs_cellsim::HexGrid;
use facs_fuzzy::{BackendKind, Defuzzifier, InferenceConfig, TNorm};
use facs_scc::{SccConfig, SccNetwork};

/// x-axis of figures 7–10: number of requesting connections.
#[must_use]
pub fn request_counts() -> Vec<usize> {
    paper_request_counts()
}

/// Builds one FACS controller per grid cell.
///
/// One prototype controller is built here (rule compilation — and, for
/// [`BackendKind::Compiled`], surface precomputation — happen once) and
/// each cell gets a clone; compiled surfaces are shared by reference
/// across clones, so multi-cell grids and parallel replications pay a
/// single compile per sweep.
pub fn facs_builder(config: FacsConfig) -> impl Fn(&HexGrid) -> Vec<BoxedController> + Sync {
    let prototype = FacsController::with_config(config).expect("FACS builds");
    move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    }
}

/// Builds one degradation-aware FACS controller per grid cell (same
/// prototype-clone economics as [`facs_builder`]).
pub fn facs_degrade_builder(
    config: FacsConfig,
) -> impl Fn(&HexGrid) -> Vec<BoxedController> + Sync {
    let prototype = FacsDegradeController::with_config(config).expect("FACS builds");
    move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    }
}

/// Builds one headroom FACS controller per grid cell (same
/// prototype-clone economics as [`facs_builder`]).
pub fn headroom_builder(config: FacsConfig) -> impl Fn(&HexGrid) -> Vec<BoxedController> + Sync {
    let prototype = HeadroomFacsController::with_config(config).expect("FACS builds");
    move |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect()
    }
}

/// Builds one Complete Sharing controller per grid cell.
pub fn cs_builder() -> impl Fn(&HexGrid) -> Vec<BoxedController> {
    |grid: &HexGrid| {
        grid.cell_ids().map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
    }
}

/// Builds an SCC network per grid (fresh shadow board each run).
pub fn scc_builder(config: SccConfig) -> impl Fn(&HexGrid) -> Vec<BoxedController> {
    move |grid: &HexGrid| SccNetwork::new(config).controllers(grid)
}

/// The shared single-BS scenario skeleton of figures 7–9 (paper §4
/// parameters; calibration documented in EXPERIMENTS.md).
#[must_use]
fn base_scenario(requests: usize) -> ScenarioConfig {
    ScenarioConfig { requests, replications: 3, ..Default::default() }
}

/// The multi-cell scenario of figure 10: a 7-cell cluster with `n`
/// requests per cell, users spawning everywhere.
#[must_use]
fn fig10_scenario(requests_per_cell: usize) -> ScenarioConfig {
    ScenarioConfig {
        requests: requests_per_cell * 7,
        grid_radius: 1,
        spawn: SpawnSpec::AnyCell,
        mobility: MobilityChoice::Walker,
        replications: 3,
        ..Default::default()
    }
}

/// Table 1 — FRB1, one `RULE frb1-i: IF ... THEN ...` line per paper row.
#[must_use]
pub fn tab1_rules() -> Vec<String> {
    let flc1 = Flc1::new().expect("FLC1 builds");
    flc1.engine().rule_base().iter().map(ToString::to_string).collect()
}

/// Table 2 — FRB2, one `RULE frb2-i: IF ... THEN ...` line per paper row.
#[must_use]
pub fn tab2_rules() -> Vec<String> {
    let flc2 = Flc2::new().expect("FLC2 builds");
    flc2.engine().rule_base().iter().map(ToString::to_string).collect()
}

/// Verifies the compiled rule bases against the transcription constants
/// (sizes only; contents are pinned by unit tests).
#[must_use]
pub fn table_sizes() -> (usize, usize) {
    (FRB1.len(), FRB2.len())
}

/// Fig. 5 — FLC1 membership functions sampled as `(variable, term, x, µ)`
/// CSV rows.
#[must_use]
pub fn fig5_membership_csv() -> String {
    let flc1 = Flc1::new().expect("FLC1 builds");
    sample_engine_memberships(flc1.engine())
}

/// Fig. 6 — FLC2 membership functions sampled as CSV rows.
#[must_use]
pub fn fig6_membership_csv() -> String {
    let flc2 = Flc2::new().expect("FLC2 builds");
    sample_engine_memberships(flc2.engine())
}

fn sample_engine_memberships(engine: &facs_fuzzy::Engine) -> String {
    let mut out = String::from("variable,term,x,mu\n");
    let all = engine.inputs().iter().chain(std::iter::once(engine.output()));
    for variable in all {
        for term in variable.terms() {
            for i in 0..=100 {
                let x = variable.min() + (variable.max() - variable.min()) * f64::from(i) / 100.0;
                out.push_str(&format!(
                    "{},{},{:.4},{:.4}\n",
                    variable.name(),
                    term.name(),
                    x,
                    term.membership(x)
                ));
            }
        }
    }
    out
}

/// Fig. 7 — acceptance vs. requesting connections for speeds
/// {4, 10, 30, 60} km/h (walker mobility, heading-history angles).
#[must_use]
pub fn fig7_speed(replications: u32) -> Vec<Series> {
    [4.0, 10.0, 30.0, 60.0]
        .iter()
        .map(|&speed| {
            acceptance_curve(
                &format!("{speed:.0}km/h"),
                &request_counts(),
                |n| ScenarioConfig {
                    speed: SpeedSpec::Fixed(speed),
                    angle: AngleSpec::HeadingHistory { history_s: 300.0 },
                    replications,
                    ..base_scenario(n)
                },
                &facs_builder(FacsConfig::default()),
            )
        })
        .collect()
}

/// Fig. 8 — acceptance vs. requesting connections for pinned angles
/// {0, 30, 50, 60, 90}°.
#[must_use]
pub fn fig8_angle(replications: u32) -> Vec<Series> {
    [0.0, 30.0, 50.0, 60.0, 90.0]
        .iter()
        .map(|&angle| {
            acceptance_curve(
                &format!("angle={angle:.0}"),
                &request_counts(),
                |n| ScenarioConfig {
                    angle: AngleSpec::Fixed(angle),
                    replications,
                    ..base_scenario(n)
                },
                &facs_builder(FacsConfig::default()),
            )
        })
        .collect()
}

/// Fig. 9 — acceptance vs. requesting connections for pinned distances
/// {1, 3, 7, 10} km.
#[must_use]
pub fn fig9_distance(replications: u32) -> Vec<Series> {
    [1.0, 3.0, 7.0, 10.0]
        .iter()
        .map(|&distance| {
            acceptance_curve(
                &format!("{distance:.0}km"),
                &request_counts(),
                |n| ScenarioConfig {
                    distance: DistanceSpec::Fixed(distance),
                    replications,
                    ..base_scenario(n)
                },
                &facs_builder(FacsConfig::default()),
            )
        })
        .collect()
}

/// Fig. 10 — FACS vs SCC acceptance on the 7-cell cluster.
#[must_use]
pub fn fig10_facs_vs_scc(replications: u32) -> Vec<Series> {
    let xs = request_counts();
    let facs = acceptance_curve(
        "FACS",
        &xs,
        |n| ScenarioConfig { replications, ..fig10_scenario(n) },
        &facs_builder(FacsConfig::default()),
    );
    let scc = acceptance_curve(
        "SCC",
        &xs,
        |n| ScenarioConfig { replications, ..fig10_scenario(n) },
        &scc_builder(SccConfig::default()),
    );
    vec![facs, scc]
}

/// QoS companion to Fig. 10: handoff-dropping percentage per system.
#[must_use]
pub fn qos_dropping(replications: u32) -> Vec<Series> {
    let xs = [30usize, 50, 70, 100];
    let mut facs = Series::new("FACS drop%");
    let mut scc = Series::new("SCC drop%");
    let mut cs = Series::new("CS drop%");
    for &n in &xs {
        let config = ScenarioConfig { replications, ..fig10_scenario(n) };
        facs.push(
            n as f64,
            config.aggregate(&facs_builder(FacsConfig::default())).dropping_percentage(),
        );
        scc.push(
            n as f64,
            config.aggregate(&scc_builder(SccConfig::default())).dropping_percentage(),
        );
        cs.push(n as f64, config.aggregate(&cs_builder()).dropping_percentage());
    }
    vec![facs, scc, cs]
}

/// Ablation: defuzzification strategy (paper-default centroid vs the
/// alternatives) on the default mixed-population scenario.
#[must_use]
pub fn ablation_defuzz(replications: u32) -> Vec<Series> {
    [
        ("centroid", Defuzzifier::Centroid),
        ("bisector", Defuzzifier::Bisector),
        ("mom", Defuzzifier::MeanOfMaxima),
        ("wavg", Defuzzifier::WeightedAverage),
    ]
    .iter()
    .map(|&(label, defuzzifier)| {
        let config = FacsConfig {
            inference: InferenceConfig { defuzzifier, ..InferenceConfig::default() },
            ..FacsConfig::default()
        };
        acceptance_curve(
            label,
            &[20, 60, 100],
            |n| ScenarioConfig { replications, ..base_scenario(n) },
            &facs_builder(config),
        )
    })
    .collect()
}

/// Ablation: conjunction T-norm (paper-default min vs product).
#[must_use]
pub fn ablation_tnorm(replications: u32) -> Vec<Series> {
    [("min", TNorm::Minimum), ("product", TNorm::Product)]
        .iter()
        .map(|&(label, tnorm)| {
            let config = FacsConfig {
                inference: InferenceConfig { tnorm, ..InferenceConfig::default() },
                ..FacsConfig::default()
            };
            acceptance_curve(
                label,
                &[20, 60, 100],
                |n| ScenarioConfig { replications, ..base_scenario(n) },
                &facs_builder(config),
            )
        })
        .collect()
}

/// Ablation: acceptance threshold sweep over the defuzzified A/R score.
#[must_use]
pub fn ablation_threshold(replications: u32) -> Vec<Series> {
    [-0.25, 0.0, 0.1, 0.25, 0.5]
        .iter()
        .map(|&threshold| {
            let config = FacsConfig { threshold, ..FacsConfig::default() };
            acceptance_curve(
                &format!("t={threshold:+.2}"),
                &[20, 60, 100],
                |n| ScenarioConfig { replications, ..base_scenario(n) },
                &facs_builder(config),
            )
        })
        .collect()
}

/// The paper's named future work: handoff priority. Sweeps the FACS
/// handoff bias and reports acceptance and dropping side by side.
#[must_use]
pub fn handoff_extension(replications: u32) -> Vec<Series> {
    let mut out = Vec::new();
    for &bias in &[0.0, 0.2, 0.4] {
        let config = FacsConfig { handoff_bias: bias, ..FacsConfig::default() };
        let mut acc = Series::new(format!("bias={bias:.1} acc%"));
        let mut drop = Series::new(format!("bias={bias:.1} drop%"));
        for &n in &[50usize, 100] {
            let scenario = ScenarioConfig { replications, ..fig10_scenario(n) };
            let metrics = scenario.aggregate(&facs_builder(config));
            acc.push(n as f64, metrics.acceptance_percentage());
            drop.push(n as f64, metrics.dropping_percentage());
        }
        out.push(acc);
        out.push(drop);
    }
    out
}

/// One admission system's aggregated result on the congested elastic
/// scenario (see [`elastic_comparison`]).
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// System label.
    pub label: &'static str,
    /// Counters aggregated over the replications.
    pub metrics: Metrics,
}

impl ElasticRow {
    /// New-call blocking percentage.
    #[must_use]
    pub fn blocking_percentage(&self) -> f64 {
        100.0 * self.metrics.blocked_new as f64 / self.metrics.offered_new.max(1) as f64
    }
}

/// Compares plain FACS, degradation-aware FACS and SCC on the catalog's
/// `congested` scenario (overloaded elastic multi-class mix) — the
/// EXPERIMENTS.md elastic-bandwidth table. The degradation-aware variant
/// squeezes elastic calls toward their QoS floor to absorb handoffs, so
/// it should show a lower handoff drop rate than plain FACS at
/// equal-or-better new-call blocking.
#[must_use]
pub fn elastic_comparison(replications: u32) -> Vec<ElasticRow> {
    let entry = facs_cellsim::catalog()
        .into_iter()
        .find(|e| e.name == "congested")
        .expect("congested scenario in catalog");
    let config = ScenarioConfig { replications, ..entry.config };
    let systems: Vec<(&'static str, Box<ControllerBuilder>)> = vec![
        ("FACS", Box::new(facs_builder(FacsConfig::default()))),
        ("FACS-degrade", Box::new(facs_degrade_builder(FacsConfig::default()))),
        ("SCC", Box::new(scc_builder(SccConfig::default()))),
    ];
    systems
        .into_iter()
        .map(|(label, build)| ElasticRow { label, metrics: config.aggregate(build.as_ref()) })
        .collect()
}

/// One `(scenario, system)` cell of the predictive-admission comparison
/// (see [`predict_comparison`]).
#[derive(Debug, Clone)]
pub struct PredictRow {
    /// Catalog scenario name.
    pub scenario: &'static str,
    /// System label (`FACS`, `SCC`, `FACS-headroom`).
    pub label: &'static str,
    /// Counters aggregated over the replications.
    pub metrics: Metrics,
}

impl PredictRow {
    /// New-call blocking percentage.
    #[must_use]
    pub fn blocking_percentage(&self) -> f64 {
        100.0 * self.metrics.blocked_new as f64 / self.metrics.offered_new.max(1) as f64
    }

    /// Handoff dropping percentage.
    #[must_use]
    pub fn dropping_percentage(&self) -> f64 {
        self.metrics.dropping_percentage()
    }
}

/// Compares static FACS, SCC and predictive (headroom) FACS across the
/// whole scenario catalog — the EXPERIMENTS.md `predict` table. The
/// acceptance bar: on the congestion-ramp scenarios (`flash-crowd`,
/// `rush-hour`) headroom FACS must show a lower handoff-drop
/// probability than static FACS at comparable new-call blocking.
///
/// Both FACS variants run on compiled FLC1 surfaces; SCC is pinned to one
/// shard because its cluster-wide shadow board is not cell-local.
#[must_use]
pub fn predict_comparison(replications: u32) -> Vec<PredictRow> {
    let systems: Vec<(&'static str, bool, Box<ControllerBuilder>)> = vec![
        ("FACS", true, Box::new(facs_builder(FacsConfig::compiled()))),
        ("SCC", false, Box::new(scc_builder(SccConfig::default()))),
        ("FACS-headroom", true, Box::new(headroom_builder(FacsConfig::compiled()))),
    ];
    let mut rows = Vec::new();
    for entry in facs_cellsim::catalog() {
        for (label, cell_local, build) in &systems {
            let shards = if *cell_local { entry.config.shards } else { 1 };
            let config = ScenarioConfig { replications, shards, ..entry.config.clone() };
            rows.push(PredictRow {
                scenario: entry.name,
                label,
                metrics: config.aggregate(build.as_ref()),
            });
        }
    }
    rows
}

/// Result of sweeping exact-vs-compiled FACS decisions over a dense
/// input grid (see [`backend_agreement`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendAgreement {
    /// Grid points compared.
    pub points: usize,
    /// Points where both backends made the same accept/reject decision.
    pub agreeing: usize,
    /// Largest absolute divergence of the soft A/R score.
    pub max_score_divergence: f64,
}

impl BackendAgreement {
    /// Percentage of grid points with identical binary decisions.
    #[must_use]
    pub fn agreement_percentage(&self) -> f64 {
        100.0 * self.agreeing as f64 / self.points.max(1) as f64
    }
}

/// Compares the exact and compiled FACS backends decision-for-decision
/// over a dense grid of the figure 7–10 input space: `grid_steps` evenly
/// spaced speeds (0–120), angles (−180…180), distances (0–10 km) and
/// occupancies (0–40 BU), crossed with all three service classes.
///
/// EXPERIMENTS.md records the measured numbers; the equivalence property
/// tests enforce the ≥ 99 % agreement bound in CI.
#[must_use]
pub fn backend_agreement(points_per_axis: usize, grid_steps: usize) -> BackendAgreement {
    let exact = FacsController::new().expect("FACS builds");
    let compiled = FacsController::with_config(FacsConfig {
        backend: BackendKind::Compiled { points_per_axis },
        ..FacsConfig::default()
    })
    .expect("compiled FACS builds");
    let threshold = exact.config().threshold;
    let steps = grid_steps.max(2);
    let axis = |min: f64, max: f64, i: usize| min + (max - min) * i as f64 / (steps - 1) as f64;
    let mut result = BackendAgreement { points: 0, agreeing: 0, max_score_divergence: 0.0 };
    for class in [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video] {
        for si in 0..steps {
            for ai in 0..steps {
                for di in 0..steps {
                    for oi in 0..steps {
                        let request = CallRequest::new(
                            CallId(0),
                            class,
                            CallKind::New,
                            MobilityInfo::new(
                                axis(0.0, 120.0, si),
                                axis(-180.0, 180.0, ai),
                                axis(0.0, 10.0, di),
                            ),
                        );
                        let cell = CellSnapshot::loaded(
                            facs_cac::BandwidthUnits::new(40),
                            facs_cac::BandwidthUnits::new(axis(0.0, 40.0, oi).round() as u32),
                        );
                        let e = exact.evaluate(&request, &cell);
                        let c = compiled.evaluate(&request, &cell);
                        result.points += 1;
                        if (e.score > threshold) == (c.score > threshold) {
                            result.agreeing += 1;
                        }
                        result.max_score_divergence =
                            result.max_score_divergence.max((e.score - c.score).abs());
                    }
                }
            }
        }
    }
    result
}

/// One scenario-catalog entry's aggregated result.
#[derive(Debug, Clone)]
pub struct CatalogResult {
    /// Catalog entry name (also the JSON artifact's file stem).
    pub name: &'static str,
    /// Catalog entry description.
    pub summary: &'static str,
    /// The exact configuration that ran.
    pub config: ScenarioConfig,
    /// Counters aggregated over the replications.
    pub metrics: Metrics,
}

impl CatalogResult {
    /// Machine-readable JSON for this result (one object per scenario;
    /// the `experiments --exp catalog` artifacts recorded in
    /// EXPERIMENTS.md).
    #[must_use]
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        let class = |i: usize| {
            format!(
                "{{\"offered\": {}, \"accepted\": {}, \"denied\": {}}}",
                m.per_class[i].offered, m.per_class[i].accepted, m.per_class[i].denied
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"scenario\": \"{name}\",\n",
                "  \"summary\": \"{summary}\",\n",
                "  \"requests\": {requests},\n",
                "  \"replications\": {reps},\n",
                "  \"shards\": {shards},\n",
                "  \"grid_cells\": {cells},\n",
                "  \"offered_new\": {offered},\n",
                "  \"accepted_new\": {accepted},\n",
                "  \"blocked_new\": {blocked},\n",
                "  \"handoff_attempts\": {ho_att},\n",
                "  \"handoff_accepted\": {ho_acc},\n",
                "  \"handoff_dropped\": {ho_drop},\n",
                "  \"completed\": {completed},\n",
                "  \"exited_coverage\": {exited},\n",
                "  \"mobility_steps\": {steps},\n",
                "  \"acceptance_pct\": {acc_pct:.4},\n",
                "  \"dropping_pct\": {drop_pct:.4},\n",
                "  \"mean_utilization\": {util:.6},\n",
                "  \"per_class\": {{\"text\": {text}, \"voice\": {voice}, \"video\": {video}}}\n",
                "}}\n"
            ),
            name = self.name,
            summary = self.summary,
            requests = self.config.requests,
            reps = self.config.replications,
            shards = self.config.shards,
            cells = self.config.grid().len(),
            offered = m.offered_new,
            accepted = m.accepted_new,
            blocked = m.blocked_new,
            ho_att = m.handoff_attempts,
            ho_acc = m.handoff_accepted,
            ho_drop = m.handoff_dropped,
            completed = m.completed,
            exited = m.exited_coverage,
            steps = m.mobility_steps,
            acc_pct = m.acceptance_percentage(),
            drop_pct = m.dropping_percentage(),
            util = m.mean_utilization(),
            text = class(0),
            voice = class(1),
            video = class(2),
        )
    }
}

/// Runs every entry of the scenario catalog (FACS on compiled decision
/// surfaces) and returns the aggregated metrics per entry.
#[must_use]
pub fn run_catalog(replications: u32, shards: usize) -> Vec<CatalogResult> {
    let build = facs_builder(FacsConfig::compiled());
    facs_cellsim::catalog()
        .into_iter()
        .map(|entry| {
            let config = ScenarioConfig { replications, shards, ..entry.config };
            let metrics = config.aggregate(&build);
            CatalogResult { name: entry.name, summary: entry.summary, config, metrics }
        })
        .collect()
}

/// Process peak resident-set size in bytes (Linux `VmHWM`), `None`
/// where `/proc` is unavailable. A whole-process high-water mark: it
/// only ever grows, so measure it right after the run of interest.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// What the eager path would pin in memory just for the workload specs
/// of a `requests`-user run: the analytic floor the streamed smoke's
/// peak RSS is compared against (the eager run also needs slab arrival
/// bookkeeping on top, so this under-states the real eager footprint).
#[must_use]
pub fn eager_spec_projection_bytes(requests: usize) -> u64 {
    (requests * std::mem::size_of::<UserSpec>()) as u64
}

/// The result of one planet-scale streamed run.
#[derive(Debug)]
pub struct PlanetReport {
    /// The run's counters.
    pub metrics: Metrics,
    /// The hierarchical cells → regions → global rollup.
    pub rollup: facs_cellsim::RegionRollupSink,
    /// Kernel + synthesis wall time.
    pub wall: std::time::Duration,
}

/// Runs a planet-scale scenario (streamed, as every default-built
/// scenario is) with the hierarchical rollup sink attached
/// (`region_cells` consecutive cell ids per region).
#[must_use]
pub fn planet_run(config: &ScenarioConfig, region_cells: u32) -> PlanetReport {
    let build = facs_builder(FacsConfig::compiled());
    let grid = config.grid();
    let controllers = build(&grid);
    let mut sim = Simulation::new(grid, config.sim_config(config.seed), controllers);
    let input = config.run_input(config.seed);
    let start = std::time::Instant::now();
    let (metrics, rollup) =
        sim.run_with(input, (Metrics::new(), facs_cellsim::RegionRollupSink::new(region_cells)));
    PlanetReport { metrics, rollup, wall: start.elapsed() }
}

/// Renders series as a crude ASCII chart for terminal inspection.
#[must_use]
pub fn ascii_chart(series: &[Series], y_min: f64, y_max: f64) -> String {
    let mut out = String::new();
    const ROWS: usize = 20;
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let x_max =
        series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).fold(1.0_f64, f64::max);
    let mut grid = vec![vec![' '; 64]; ROWS + 1];
    for (si, s) in series.iter().enumerate() {
        for &(x, y) in &s.points {
            let col = ((x / x_max) * 60.0).round() as usize;
            let row = if y_max > y_min {
                (((y - y_min) / (y_max - y_min)) * ROWS as f64).round() as isize
            } else {
                0
            };
            let row = row.clamp(0, ROWS as isize) as usize;
            let r = ROWS - row;
            if col < 64 {
                grid[r][col] = marks[si % marks.len()];
            }
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let y_label = y_max - (y_max - y_min) * i as f64 / ROWS as f64;
        out.push_str(&format!("{y_label:6.1} |"));
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str("        +");
    out.push_str(&"-".repeat(62));
    out.push('\n');
    out.push_str(&format!("         0 ... {x_max:.0} (requesting connections)\n"));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", marks[si % marks.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_paper_sizes() {
        assert_eq!(table_sizes(), (42, 27));
        assert_eq!(tab1_rules().len(), 42);
        assert_eq!(tab2_rules().len(), 27);
    }

    #[test]
    fn tab_rules_are_valid_dsl() {
        // Every line is `RULE <label>: IF v IS t AND v IS t AND v IS t
        // THEN v IS t`: three AND-joined conditions and one consequent.
        for (prefix, lines) in [("frb1", tab1_rules()), ("frb2", tab2_rules())] {
            for (i, line) in lines.iter().enumerate() {
                let (head, body) = line.split_once(": IF ").expect("labelled rule");
                assert_eq!(head, format!("RULE {prefix}-{i}"));
                let (conditions, consequent) = body.split_once(" THEN ").expect("THEN");
                let clauses: Vec<_> = conditions.split(" AND ").collect();
                assert_eq!(clauses.len(), 3, "{line}");
                for clause in clauses.into_iter().chain([consequent]) {
                    let words: Vec<_> = clause.split(' ').collect();
                    assert!(words.len() == 3 && words[1] == "IS", "malformed `{clause}` in {line}");
                }
            }
        }
    }

    #[test]
    fn membership_csv_has_all_terms() {
        let csv = fig5_membership_csv();
        for term in ["sl", "m", "fa", "b1", "st", "b2", "n", "f", "cv1", "cv9"] {
            assert!(csv.lines().any(|l| l.split(',').nth(1) == Some(term)), "missing {term}");
        }
        let csv6 = fig6_membership_csv();
        for term in ["b", "g", "t", "vo", "vi", "s", "f", "r", "wr", "nrna", "wa", "a"] {
            assert!(csv6.lines().any(|l| l.split(',').nth(1) == Some(term)), "missing {term}");
        }
    }

    #[test]
    fn ascii_chart_renders() {
        let mut s = Series::new("demo");
        s.push(10.0, 90.0);
        s.push(100.0, 60.0);
        let chart = ascii_chart(&[s], 40.0, 100.0);
        assert!(chart.contains("demo"));
        assert!(chart.contains('*'));
    }
}
