//! The benchmark's workloads and the output check every run passes.

use facs_cellsim::{planet_scale, Metrics, MobilityChoice, ScenarioConfig, SpawnSpec};

/// The seed whose counters are pinned in [`Workload::pins`]; any other
/// seed runs the identity checks only.
pub const DEFAULT_SEED: u64 = 2007;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated 127-cell grid, streamed synthesis: the decision path
    /// (fast-reject, cascade) dominates.
    Overload,
    /// Contended 127-cell grid, eager synthesis: ledger writes, call
    /// ends, movement and handoff dominate.
    Midload,
    /// ~100k-cell grid on several shards and workers: cost follows grid
    /// size through the per-cell observe pulse.
    Planet,
}

/// The counters pinned for [`DEFAULT_SEED`], as the run printed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pins {
    pub offered_new: u64,
    pub accepted_new: u64,
    pub handoff_attempts: u64,
    pub handoff_accepted: u64,
    pub completed: u64,
    pub exited_coverage: u64,
    pub mobility_steps: u64,
    /// `acceptance_percentage()`, bit for bit.
    pub acceptance_pct: f64,
    /// `dropping_percentage()`, bit for bit.
    pub dropping_pct: f64,
}

impl Pins {
    fn of(m: &Metrics) -> Self {
        Self {
            offered_new: m.offered_new,
            accepted_new: m.accepted_new,
            handoff_attempts: m.handoff_attempts,
            handoff_accepted: m.handoff_accepted,
            completed: m.completed,
            exited_coverage: m.exited_coverage,
            mobility_steps: m.mobility_steps,
            acceptance_pct: m.acceptance_percentage(),
            dropping_pct: m.dropping_percentage(),
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Overload, Workload::Midload, Workload::Planet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Overload => "overload",
            Workload::Midload => "midload",
            Workload::Planet => "planet",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario this workload runs; `cores` caps the planet worker
    /// count.
    pub fn config(self, cores: usize) -> ScenarioConfig {
        let stress_grid = ScenarioConfig {
            holding_mean_s: 40.0,
            grid_radius: 6,
            cell_radius_km: 2.0,
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            replications: 1,
            shards: 1,
            workers: 1,
            ..ScenarioConfig::default()
        };
        match self {
            Workload::Overload => ScenarioConfig {
                requests: 1_000_000,
                window_s: 600.0,
                streamed: true,
                ..stress_grid
            },
            Workload::Midload => {
                ScenarioConfig { requests: 500_000, window_s: 12_500.0, ..stress_grid }
            }
            Workload::Planet => ScenarioConfig {
                window_s: 1_800.0,
                workers: cores.clamp(1, 8),
                ..planet_scale(500_000).config
            },
        }
    }

    /// The counters of [`DEFAULT_SEED`]'s run.
    pub fn pins(self) -> Pins {
        match self {
            Workload::Overload => Pins {
                offered_new: 1_000_000,
                accepted_new: 62_400,
                handoff_attempts: 3_062,
                handoff_accepted: 806,
                completed: 60_126,
                exited_coverage: 18,
                mobility_steps: 479_242,
                acceptance_pct: 6.24,
                dropping_pct: 73.6773350751143,
            },
            Workload::Midload => Pins {
                offered_new: 500_000,
                accepted_new: 334_742,
                handoff_attempts: 21_177,
                handoff_accepted: 13_888,
                completed: 327_357,
                exited_coverage: 96,
                mobility_steps: 2_613_170,
                acceptance_pct: 66.9484,
                dropping_pct: 34.41941729234547,
            },
            Workload::Planet => Pins {
                offered_new: 500_000,
                accepted_new: 499_996,
                handoff_attempts: 39_875,
                handoff_accepted: 39_875,
                completed: 499_995,
                exited_coverage: 1,
                mobility_steps: 997_363,
                acceptance_pct: 99.9992,
                dropping_pct: 0.0,
            },
        }
    }
}

/// Checks one run's counters: the identities every seed must satisfy,
/// and on [`DEFAULT_SEED`] the pinned values. Returns what failed.
pub fn check(workload: Workload, config: &ScenarioConfig, seed: u64, m: &Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    expect(
        m.offered_new == config.requests as u64,
        format!("offered {} != requests {}", m.offered_new, config.requests),
    );
    expect(
        m.offered_new == m.accepted_new + m.blocked_new,
        format!(
            "offered {} != accepted {} + blocked {}",
            m.offered_new, m.accepted_new, m.blocked_new
        ),
    );
    expect(
        m.handoff_attempts == m.handoff_accepted + m.handoff_dropped,
        format!(
            "handoffs {} != accepted {} + dropped {}",
            m.handoff_attempts, m.handoff_accepted, m.handoff_dropped
        ),
    );
    let sum = |f: fn(&facs_cellsim::ClassCounters) -> u64| m.per_class.iter().map(f).sum::<u64>();
    expect(sum(|c| c.offered) == m.offered_new, "per-class offered sum".into());
    expect(sum(|c| c.accepted) == m.accepted_new, "per-class accepted sum".into());
    expect(sum(|c| c.denied) == m.blocked_new, "per-class denied sum".into());
    for (i, c) in m.per_class.iter().enumerate() {
        expect(
            c.offered == c.accepted + c.denied,
            format!("class {i} offered != accepted + denied"),
        );
    }
    if seed == DEFAULT_SEED {
        let got = Pins::of(m);
        expect(got == workload.pins(), format!("pinned counters differ: got {got:?}"));
    }
    failures
}
