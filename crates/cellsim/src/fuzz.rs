//! Workload fuzzing: seeded sampling of structurally valid scenarios,
//! with shrink-on-failure to a minimal reproducing case.
//!
//! The scenario catalog names six hand-written workload families; the
//! [`WorkloadFuzzer`] multiplies that coverage by sampling *arbitrary*
//! valid combinations of arrival patterns, spawn placements, grid
//! sizes, capacities, population mixes, mobility models and shard
//! counts. Every sampled [`FuzzCase`] is a plain [`ScenarioConfig`]
//! (plus the seed that produced it), so a failure is reproducible from
//! two numbers: the fuzzer seed and the case index.
//!
//! When a case fails a property (an invariant violation or a digest
//! divergence — see [`crate::validate`]), [`shrink`] greedily walks the
//! case toward the structurally simplest configuration that still
//! fails, using [`complexity`] as a strictly decreasing measure, and
//! returns the minimal reproducer to print next to the seed.

use facs_cac::{BandwidthUnits, ServiceClass, ServiceProfile, ServiceProfileSet};

use crate::rng::SimRng;
use crate::scenario::ScenarioConfig;
use crate::traffic::TrafficMix;
use crate::workload::{
    AngleSpec, ArrivalPattern, DistanceSpec, MobilityChoice, SpawnSpec, SpeedSpec,
};

/// Which admission-controller family a fuzz case validates.
///
/// The fuzzer samples a controller axis alongside the workload axes so
/// the determinism/invariant properties cover the headroom-gated FACS
/// variant, not just the reactive baseline. The baseline keeps the
/// majority share (5/8): it is the reference implementation every other
/// property (backend agreement, goldens) is phrased against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerSlot {
    /// Plain reactive FACS (the original harness subject).
    Baseline,
    /// FACS that gates new calls one BU above the live occupancy too.
    Headroom,
}

/// One fuzzed scenario: the sampled configuration plus its provenance.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The fuzzer seed that generated this case.
    pub fuzz_seed: u64,
    /// The case index under that seed.
    pub index: u64,
    /// The sampled scenario (always structurally valid; one
    /// replication). `config.shards` is the sampled multi-shard
    /// comparand (2–7); the validation harness runs the case at 1 shard
    /// and at this count and requires bit-identical digests.
    pub config: ScenarioConfig,
    /// The controller family the validation harness runs this case
    /// under.
    pub controller: ControllerSlot,
}

/// Seeded generator of structurally valid workloads.
///
/// Case `i` of seed `s` is always the same configuration, so a CI
/// failure reproduces locally from the printed `(seed, index)` pair.
#[derive(Debug)]
pub struct WorkloadFuzzer {
    seed: u64,
}

impl WorkloadFuzzer {
    /// Creates a fuzzer; every case derives from `seed` alone.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Samples case `index` (deterministic per `(seed, index)`).
    #[must_use]
    pub fn case(&self, index: u64) -> FuzzCase {
        let mut rng = SimRng::seed_from_u64(self.seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let grid_radius = rng.index(3) as u32; // 1, 7 or 19 cells
        let cell_radius_km = [1.0, 2.0, 5.0, 10.0][rng.index(4)];
        let requests = 1 + rng.index(300);
        let window_s = rng.uniform_range(60.0, 1_200.0);
        let holding_mean_s = rng.uniform_range(10.0, 180.0);
        let capacity_bu = 10 + rng.index(71) as u32; // 10..=80
        let movement_tick_s = [1.0, 2.0, 5.0][rng.index(3)];
        let cells = 1 + 3 * grid_radius * (grid_radius + 1);

        let arrivals = match rng.index(3) {
            0 => ArrivalPattern::Uniform,
            1 => ArrivalPattern::Burst {
                center: rng.uniform_range(0.0, 1.0),
                width: rng.uniform_range(0.01, 0.5),
                weight: rng.uniform_range(0.0, 1.0),
            },
            _ => {
                let stages = 2 + rng.index(5);
                // At least one stage must have positive rate; force the
                // first and let the rest be anything in [0, 1].
                let mut rates = vec![rng.uniform_range(0.1, 1.0)];
                for _ in 1..stages {
                    rates.push(rng.uniform_range(0.0, 1.0));
                }
                ArrivalPattern::Stages(rates)
            }
        };

        let spawn = match rng.index(4) {
            0 => SpawnSpec::CenterCell,
            1 => SpawnSpec::AnyCell,
            2 => SpawnSpec::Hotspot {
                cell: rng.index(cells as usize) as u32,
                fraction: rng.uniform_range(0.0, 1.0),
            },
            _ => SpawnSpec::Corridor {
                heading_deg: rng.uniform_range(-180.0, 180.0),
                half_width_km: rng.uniform_range(0.0, cell_radius_km),
            },
        };

        let speed = match rng.index(3) {
            0 => SpeedSpec::PaperUniform,
            1 => SpeedSpec::Fixed(rng.uniform_range(0.0, 120.0)),
            _ => {
                let lo = rng.uniform_range(0.0, 60.0);
                SpeedSpec::Uniform(lo, lo + rng.uniform_range(1.0, 60.0))
            }
        };

        let angle = match rng.index(4) {
            0 => AngleSpec::Uniform,
            1 => AngleSpec::Fixed(rng.uniform_range(-180.0, 180.0)),
            2 => AngleSpec::Heading(rng.uniform_range(-180.0, 180.0)),
            _ => AngleSpec::HeadingHistory { history_s: rng.uniform_range(1.0, 600.0) },
        };

        let distance = match rng.index(3) {
            0 => DistanceSpec::UniformInCell,
            // Deliberately allowed past the cell radius: off-cell (even
            // off-map) spawns are structurally valid and must only ever
            // show up as blocked offered traffic.
            1 => DistanceSpec::Fixed(rng.uniform_range(0.0, 1.5 * cell_radius_km)),
            _ => {
                let lo = rng.uniform_range(0.0, cell_radius_km);
                DistanceSpec::Uniform(lo, lo + rng.uniform_range(0.0, cell_radius_km))
            }
        };

        let mobility = match rng.index(3) {
            0 => MobilityChoice::Auto,
            1 => MobilityChoice::Walker,
            _ => MobilityChoice::StraightLine,
        };

        // Any non-degenerate mix is valid; weights need not sum to 1.
        let mix = TrafficMix::new(
            rng.uniform_range(0.01, 1.0),
            rng.uniform_range(0.0, 1.0),
            rng.uniform_range(0.0, 1.0),
        );
        let workload_seed = rng.index(usize::MAX) as u64;
        // The multi-shard comparand: the validation harness runs every
        // case single-shard too and requires bit-identical digests, so
        // sampling here fuzzes the shard-count axis (including counts
        // above the cell count, which the kernel clamps).
        let shards = [2, 3, 4, 7][rng.index(4)];

        // Multi-class elastic sampling, appended *after* every original
        // draw so the pre-elastic fields of a given (seed, index) case
        // are unchanged by the elastic redesign.
        let profiles = if rng.chance(0.5) {
            let qos_floor = rng.uniform_range(0.3, 0.9);
            let text_nominal = 1 + rng.index(2) as u32; // 1..=2
            let voice_nominal = 3 + rng.index(4) as u32; // 3..=6
            let video_nominal = 8 + rng.index(5) as u32; // 8..=12
            let text_dur = rng.uniform_range(20.0, 120.0);
            let voice_dur = rng.uniform_range(60.0, 240.0);
            let video_dur = rng.uniform_range(60.0, 360.0);
            Some(ServiceProfileSet::new(
                ServiceProfile::elastic(
                    ServiceClass::Text,
                    BandwidthUnits::new(text_nominal),
                    qos_floor,
                    text_dur,
                ),
                ServiceProfile::elastic(
                    ServiceClass::Voice,
                    BandwidthUnits::new(voice_nominal),
                    qos_floor,
                    voice_dur,
                ),
                ServiceProfile::elastic(
                    ServiceClass::Video,
                    BandwidthUnits::new(video_nominal),
                    qos_floor,
                    video_dur,
                ),
            ))
        } else {
            None
        };

        // Streamed-synthesis sampling: appended after every earlier
        // draw (profiles included) so pre-streaming fields of a given
        // (seed, index) case are unchanged by the streaming tentpole.
        // Half of all cases exercise the chunked WorkloadStream path;
        // the validation harness checks their digests against eager.
        let streamed = rng.chance(0.5);

        // Controller-family sampling: appended LAST, so every earlier
        // field of a given (seed, index) case is unchanged by the
        // predictive-admission extension. 3/8 of cases exercise the
        // headroom controller; the rest stay on the reactive baseline.
        let controller = match rng.index(8) {
            5..=7 => ControllerSlot::Headroom,
            _ => ControllerSlot::Baseline,
        };

        let config = ScenarioConfig {
            requests,
            window_s,
            holding_mean_s,
            capacity_bu,
            grid_radius,
            cell_radius_km,
            speed,
            angle,
            distance,
            spawn,
            mobility,
            mix,
            profiles,
            arrivals,
            movement_tick_s,
            shards,
            workers: 0,
            seed: workload_seed,
            replications: 1,
            streamed,
        };
        FuzzCase { fuzz_seed: self.seed, index, config, controller }
    }

    /// The first `count` cases, in index order.
    pub fn cases(&self, count: u64) -> impl Iterator<Item = FuzzCase> + '_ {
        (0..count).map(|i| self.case(i))
    }
}

/// Structural size of a case: strictly decreases along every shrink
/// step, which bounds the shrink loop and lets tests assert progress.
#[must_use]
pub fn complexity(config: &ScenarioConfig) -> u64 {
    let mut c = config.requests as u64;
    c += u64::from(config.grid_radius) * 50;
    c += (config.window_s / 10.0) as u64;
    c += (config.holding_mean_s / 5.0) as u64;
    c += match &config.arrivals {
        ArrivalPattern::Uniform => 0,
        ArrivalPattern::Burst { .. } => 25,
        ArrivalPattern::Stages(rates) => 25 + 5 * rates.len() as u64,
    };
    c += match config.spawn {
        SpawnSpec::CenterCell => 0,
        SpawnSpec::AnyCell => 10,
        SpawnSpec::Hotspot { .. } | SpawnSpec::Corridor { .. } => 20,
    };
    c += match config.speed {
        SpeedSpec::Fixed(_) => 0,
        SpeedSpec::PaperUniform | SpeedSpec::Uniform(..) => 5,
    };
    c += match config.angle {
        AngleSpec::Fixed(_) | AngleSpec::Heading(_) => 0,
        AngleSpec::Uniform | AngleSpec::HeadingHistory { .. } => 5,
    };
    c += match config.distance {
        DistanceSpec::Fixed(_) => 0,
        DistanceSpec::UniformInCell | DistanceSpec::Uniform(..) => 5,
    };
    c += match config.profiles {
        Some(_) => 15,
        None => 0,
    };
    c
}

/// The one-step structural simplifications of `config`, each strictly
/// smaller under [`complexity`].
#[must_use]
pub fn shrink_candidates(config: &ScenarioConfig) -> Vec<ScenarioConfig> {
    let mut out = Vec::new();
    let mut push = |candidate: ScenarioConfig| {
        debug_assert!(
            complexity(&candidate) < complexity(config),
            "shrink candidate did not get simpler"
        );
        out.push(candidate);
    };
    if config.requests > 1 {
        push(ScenarioConfig { requests: config.requests / 2, ..config.clone() });
        push(ScenarioConfig { requests: config.requests - 1, ..config.clone() });
    }
    if config.grid_radius > 0 {
        // Smaller grids keep hotspot cells in range (generate clamps
        // anyway) and keep corridors valid.
        push(ScenarioConfig { grid_radius: config.grid_radius - 1, ..config.clone() });
    }
    if config.window_s >= 120.0 {
        push(ScenarioConfig { window_s: config.window_s / 2.0, ..config.clone() });
    }
    if config.holding_mean_s >= 20.0 {
        push(ScenarioConfig { holding_mean_s: config.holding_mean_s / 2.0, ..config.clone() });
    }
    match &config.arrivals {
        ArrivalPattern::Uniform => {}
        ArrivalPattern::Stages(rates) if rates.len() > 2 => {
            let half = rates[..rates.len() / 2].to_vec();
            push(ScenarioConfig { arrivals: ArrivalPattern::Stages(half), ..config.clone() });
            push(ScenarioConfig { arrivals: ArrivalPattern::Uniform, ..config.clone() });
        }
        _ => push(ScenarioConfig { arrivals: ArrivalPattern::Uniform, ..config.clone() }),
    }
    if config.spawn != SpawnSpec::CenterCell {
        push(ScenarioConfig { spawn: SpawnSpec::CenterCell, ..config.clone() });
    }
    if !matches!(config.speed, SpeedSpec::Fixed(_)) {
        push(ScenarioConfig { speed: SpeedSpec::Fixed(30.0), ..config.clone() });
    }
    if !matches!(config.angle, AngleSpec::Fixed(_) | AngleSpec::Heading(_)) {
        push(ScenarioConfig { angle: AngleSpec::Fixed(0.0), ..config.clone() });
    }
    if !matches!(config.distance, DistanceSpec::Fixed(_)) {
        push(ScenarioConfig {
            distance: DistanceSpec::Fixed(config.cell_radius_km / 2.0),
            ..config.clone()
        });
    }
    if config.profiles.is_some() {
        push(ScenarioConfig { profiles: None, ..config.clone() });
    }
    out
}

/// Structural size of a whole case: [`complexity`] of the scenario plus
/// a fixed surcharge for a non-baseline controller. Strictly decreases
/// along every [`shrink`] step, which bounds the shrink loop.
#[must_use]
pub fn case_complexity(case: &FuzzCase) -> u64 {
    complexity(&case.config)
        + match case.controller {
            ControllerSlot::Baseline => 0,
            _ => 10,
        }
}

/// Greedily shrinks a failing case: repeatedly replaces it with the
/// first one-step simplification on which `still_fails` returns `true`,
/// until no simplification fails. The controller axis shrinks first — a
/// failure that reproduces under the reactive baseline controller is
/// far simpler to debug than one needing the headroom gate — then the
/// scenario axes. Because every candidate is strictly smaller under
/// [`case_complexity`], the loop always terminates; the result
/// still fails (it is the input when nothing smaller does).
pub fn shrink(case: &FuzzCase, still_fails: impl Fn(&FuzzCase) -> bool) -> FuzzCase {
    let mut current = case.clone();
    'outer: loop {
        if current.controller != ControllerSlot::Baseline {
            let candidate = FuzzCase { controller: ControllerSlot::Baseline, ..current.clone() };
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        for config in shrink_candidates(&current.config) {
            let candidate = FuzzCase { config, ..current.clone() };
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed_and_index() {
        let fuzzer = WorkloadFuzzer::new(42);
        let a = fuzzer.case(7);
        let b = fuzzer.case(7);
        assert_eq!(format!("{:?}", a.config), format!("{:?}", b.config));
        let other = WorkloadFuzzer::new(43).case(7);
        assert_ne!(
            format!("{:?}", a.config),
            format!("{:?}", other.config),
            "different seeds should explore different cases"
        );
    }

    #[test]
    fn sampled_cases_are_structurally_valid() {
        let fuzzer = WorkloadFuzzer::new(2026);
        for case in fuzzer.cases(200) {
            let config = &case.config;
            assert!(config.requests >= 1);
            assert!(config.window_s > 0.0 && config.holding_mean_s > 0.0);
            assert!(config.capacity_bu >= 10 && config.capacity_bu <= 80);
            assert!((2..=7).contains(&config.shards), "bad shard comparand {}", config.shards);
            if let ArrivalPattern::Stages(rates) = &config.arrivals {
                assert!(!rates.is_empty());
                assert!(rates.iter().sum::<f64>() > 0.0);
                assert!(rates.iter().all(|&r| r >= 0.0));
            }
            if let ArrivalPattern::Burst { center, width, weight } = config.arrivals {
                assert!((0.0..=1.0).contains(&center));
                assert!(width > 0.0 && (0.0..=1.0).contains(&weight));
            }
            if let SpeedSpec::Uniform(lo, hi) = config.speed {
                assert!(lo < hi);
            }
            if let DistanceSpec::Uniform(lo, hi) = config.distance {
                assert!(lo <= hi);
            }
            if let Some(set) = config.profiles {
                for class in ServiceClass::ALL {
                    let p = set.profile_of(class);
                    assert_eq!(p.class, class);
                    assert!(!p.rb_cost_min.is_zero(), "zero floor in {p}");
                    assert!(p.rb_cost_min <= p.rb_cost_nominal, "inverted band in {p}");
                    assert!(p.mean_duration_s > 0.0);
                }
            }
            // The workload must actually expand without panicking.
            let specs = config.generate_workload(config.seed);
            assert_eq!(specs.len(), config.requests);
        }
    }

    #[test]
    fn fuzzer_covers_every_variant() {
        let fuzzer = WorkloadFuzzer::new(1);
        let cases: Vec<FuzzCase> = fuzzer.cases(100).collect();
        let any = |f: &dyn Fn(&ScenarioConfig) -> bool| cases.iter().any(|c| f(&c.config));
        assert!(any(&|c| matches!(c.arrivals, ArrivalPattern::Uniform)));
        assert!(any(&|c| matches!(c.arrivals, ArrivalPattern::Burst { .. })));
        assert!(any(&|c| matches!(c.arrivals, ArrivalPattern::Stages(_))));
        assert!(any(&|c| matches!(c.spawn, SpawnSpec::CenterCell)));
        assert!(any(&|c| matches!(c.spawn, SpawnSpec::AnyCell)));
        assert!(any(&|c| matches!(c.spawn, SpawnSpec::Hotspot { .. })));
        assert!(any(&|c| matches!(c.spawn, SpawnSpec::Corridor { .. })));
        assert!(any(&|c| c.grid_radius == 0));
        assert!(any(&|c| c.grid_radius == 2));
        assert!(any(&|c| matches!(c.mobility, MobilityChoice::Walker)));
        for shards in [2, 3, 4, 7] {
            assert!(any(&|c| c.shards == shards), "shard comparand {shards} never sampled");
        }
        assert!(any(&|c| c.profiles.is_some()), "elastic multi-class cases never sampled");
        assert!(any(&|c| c.profiles.is_none()), "rigid paper-profile cases never sampled");
        assert!(
            any(&|c| c.profiles.is_some_and(|set| set.voice.is_elastic())),
            "no sampled profile set has degradation room"
        );
        assert!(any(&|c| c.streamed), "streamed-synthesis cases never sampled");
        assert!(any(&|c| !c.streamed), "eager-synthesis cases never sampled");
        for slot in [ControllerSlot::Baseline, ControllerSlot::Headroom] {
            assert!(
                cases.iter().any(|c| c.controller == slot),
                "controller slot {slot:?} never sampled"
            );
        }
        let baseline = cases.iter().filter(|c| c.controller == ControllerSlot::Baseline).count();
        assert!(
            baseline > cases.len() / 2,
            "the reactive baseline must keep the majority share, got {baseline}/{}",
            cases.len()
        );
    }

    #[test]
    fn shrink_candidates_strictly_reduce_complexity() {
        let fuzzer = WorkloadFuzzer::new(99);
        for case in fuzzer.cases(50) {
            let base = complexity(&case.config);
            for candidate in shrink_candidates(&case.config) {
                assert!(
                    complexity(&candidate) < base,
                    "candidate {candidate:?} not smaller than {base}"
                );
            }
        }
    }

    #[test]
    fn shrink_finds_a_minimal_failing_case() {
        // Synthetic failure: anything with >= 40 requests "fails".
        let case = WorkloadFuzzer::new(5).case(0);
        let mut case = case;
        case.config.requests = 300;
        case.controller = ControllerSlot::Headroom;
        let fails = |c: &FuzzCase| c.config.requests >= 40;
        let minimal = shrink(&case, fails);
        assert!(fails(&minimal), "shrunk case must still fail");
        assert!(case_complexity(&minimal) < case_complexity(&case), "shrinking must make progress");
        assert_eq!(minimal.config.requests, 40, "greedy halving should bottom out exactly");
        // Everything else got simplified too — including the
        // controller-family axis, since the failure is controller-blind.
        assert_eq!(minimal.controller, ControllerSlot::Baseline);
        assert_eq!(minimal.config.grid_radius, 0);
        assert!(matches!(minimal.config.arrivals, ArrivalPattern::Uniform));
        assert!(matches!(minimal.config.spawn, SpawnSpec::CenterCell));
    }

    #[test]
    fn shrink_keeps_the_controller_when_the_failure_needs_it() {
        let mut case = WorkloadFuzzer::new(5).case(0);
        case.controller = ControllerSlot::Headroom;
        // The failure only reproduces under the headroom controller.
        let minimal = shrink(&case, |c| c.controller == ControllerSlot::Headroom);
        assert_eq!(minimal.controller, ControllerSlot::Headroom);
    }

    #[test]
    fn shrink_returns_input_when_nothing_smaller_fails() {
        let case = WorkloadFuzzer::new(5).case(3);
        let key = format!("{:?}", case.config);
        let slot = case.controller;
        // Only the exact original "fails".
        let minimal = shrink(&case, |c| format!("{:?}", c.config) == key && c.controller == slot);
        assert_eq!(format!("{:?}", minimal.config), key);
        assert_eq!(minimal.controller, slot);
    }
}
