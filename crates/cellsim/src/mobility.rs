//! Mobility models synthesizing the GPS observations FLC1 consumes.
//!
//! The paper obtains user movement "by GPS" — speed, angle and distance
//! from the base station. We substitute mobility models that generate the
//! same observable triple (documented in DESIGN.md). The central model is
//! [`Walker`], whose heading stability grows with speed: pedestrians
//! (4–10 km/h) change direction freely while vehicles (30–60 km/h) hold
//! their heading — exactly the behaviour the paper invokes to explain
//! Fig. 7.

use facs_cac::MobilityInfo;
use serde::{Deserialize, Serialize};

use crate::geometry::Point;
use crate::rng::SimRng;

/// The kinematic state of one mobile terminal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobileState {
    /// Position in km.
    pub position: Point,
    /// Heading in degrees, counterclockwise from +x, in `(-180, 180]`.
    pub heading_deg: f64,
    /// Speed in km/h.
    pub speed_kmh: f64,
}

impl MobileState {
    /// Creates a state.
    #[must_use]
    pub fn new(position: Point, heading_deg: f64, speed_kmh: f64) -> Self {
        Self {
            position,
            heading_deg: facs_cac::normalize_angle(heading_deg),
            speed_kmh: speed_kmh.max(0.0),
        }
    }

    /// The GPS observation relative to a base station at `bs_center`:
    /// speed, heading deviation from the BS bearing, and distance. This is
    /// precisely FLC1's `(S, A, D)` input triple.
    #[must_use]
    pub fn observe(&self, bs_center: Point) -> MobilityInfo {
        let distance = self.position.distance_to(bs_center);
        let angle = if distance < 1e-9 {
            // At the BS itself every heading is "toward" it.
            0.0
        } else {
            let bearing = self.position.bearing_to(bs_center);
            facs_cac::normalize_angle(self.heading_deg - bearing)
        };
        MobilityInfo::new(self.speed_kmh, angle, distance)
    }
}

/// A mobility model advances a terminal's kinematic state through time.
///
/// Implementations must be deterministic given the `SimRng` stream.
///
/// One step moves a terminal at most `speed_kmh · dt_s / 3600` km from
/// where it was (up to the rounding of the position update), with
/// `speed_kmh` read before the step; neither model here changes the
/// speed. The kernel relies on this bound: a user whose position is
/// more than `k` such steps inside its cell's hexagon cannot leave the
/// cell in its next `k` steps, so those steps are applied only when the
/// user could have reached an edge (DESIGN.md, "Deferred movement
/// steps"). Both [`Walker`] and [`StraightLine`] move exactly that far
/// along their heading.
pub trait MobilityModel: Send {
    /// Advances `state` by `dt_s` seconds.
    fn step(&mut self, state: &mut MobileState, dt_s: f64, rng: &mut SimRng);

    /// A short model name for logs and experiment records.
    fn name(&self) -> &str;
}

/// Heading sigma (degrees per √second) of a [`Walker`] at
/// `WALKER_REFERENCE_SPEED_KMH`.
const WALKER_TURN_SIGMA_DEG: f64 = 4.0;

/// The speed at which `WALKER_TURN_SIGMA_DEG` applies as-is.
const WALKER_REFERENCE_SPEED_KMH: f64 = 10.0;

/// Constant-speed walker with heading diffusion inversely related to
/// speed.
///
/// Per step the heading receives a gaussian perturbation with standard
/// deviation `4° · 10 km/h / max(speed, 1)` (scaled by √dt): a 4 km/h
/// pedestrian wanders; a 60 km/h car barely deviates. This reproduces
/// the paper's premise that "with the increase of the user speed, the
/// user direction can not be changed easy".
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Walker;

impl Walker {
    /// The paper-calibrated walker: at 10 km/h a terminal's heading
    /// drifts with σ = 4°·√s, so over a five-minute journey a pedestrian's
    /// direction is close to uniform (σ ≈ 69° at 10 km/h, ≈173° at
    /// 4 km/h) while a 60 km/h vehicle stays within ≈12° of its course —
    /// the exact asymmetry the paper's Fig. 7 narrative describes.
    #[must_use]
    pub fn paper_default() -> Self {
        Self
    }

    /// Heading sigma (degrees per √second) at the given speed.
    #[must_use]
    pub fn turn_sigma_at(&self, speed_kmh: f64) -> f64 {
        WALKER_TURN_SIGMA_DEG * WALKER_REFERENCE_SPEED_KMH / speed_kmh.max(1.0)
    }
}

impl MobilityModel for Walker {
    fn step(&mut self, state: &mut MobileState, dt_s: f64, rng: &mut SimRng) {
        let sigma = self.turn_sigma_at(state.speed_kmh) * dt_s.sqrt();
        let turn = rng.normal(0.0, sigma);
        state.heading_deg = facs_cac::normalize_angle(state.heading_deg + turn);
        let dist_km = state.speed_kmh * dt_s / 3600.0;
        state.position = state.position.step(state.heading_deg, dist_km);
    }

    fn name(&self) -> &str {
        "walker"
    }
}

/// A fixed-trajectory model for controlled experiments (figs. 8 and 9 pin
/// the angle or distance): the terminal keeps its heading and speed
/// exactly.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StraightLine;

impl MobilityModel for StraightLine {
    fn step(&mut self, state: &mut MobileState, dt_s: f64, _rng: &mut SimRng) {
        let dist_km = state.speed_kmh * dt_s / 3600.0;
        state.position = state.position.step(state.heading_deg, dist_km);
    }

    fn name(&self) -> &str {
        "straight-line"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(12345)
    }

    #[test]
    fn observe_computes_angle_relative_to_bs() {
        // User 3 km east of BS, heading west (toward it): angle 0.
        let state = MobileState::new(Point::new(3.0, 0.0), 180.0, 30.0);
        let obs = state.observe(Point::ORIGIN);
        assert!((obs.angle_deg - 0.0).abs() < 1e-9);
        assert!((obs.distance_km - 3.0).abs() < 1e-9);
        assert_eq!(obs.speed_kmh, 30.0);
        // Heading east (away): angle 180.
        let state = MobileState::new(Point::new(3.0, 0.0), 0.0, 30.0);
        assert!((state.observe(Point::ORIGIN).angle_deg.abs() - 180.0).abs() < 1e-9);
        // Heading north while BS is west: angle 90 (perpendicular).
        let state = MobileState::new(Point::new(3.0, 0.0), 90.0, 30.0);
        assert!((state.observe(Point::ORIGIN).angle_deg.abs() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn observe_at_bs_center_is_angle_zero() {
        let state = MobileState::new(Point::ORIGIN, 123.0, 10.0);
        assert_eq!(state.observe(Point::ORIGIN).angle_deg, 0.0);
    }

    #[test]
    fn walker_speed_is_preserved_and_position_moves() {
        let mut model = Walker::paper_default();
        let mut state = MobileState::new(Point::ORIGIN, 0.0, 60.0);
        let mut rng = rng();
        let start = state.position;
        for _ in 0..60 {
            model.step(&mut state, 1.0, &mut rng);
        }
        assert_eq!(state.speed_kmh, 60.0);
        // One minute at 60 km/h covers ~1 km of path; with little heading
        // drift at 60 km/h the displacement should be close to that.
        let displacement = start.distance_to(state.position);
        assert!(displacement > 0.5, "displacement {displacement}");
        assert!(displacement <= 1.0 + 1e-9);
    }

    #[test]
    fn walker_slow_users_turn_more() {
        let model = Walker::paper_default();
        assert!(model.turn_sigma_at(4.0) > model.turn_sigma_at(30.0));
        assert!(model.turn_sigma_at(30.0) > model.turn_sigma_at(60.0));
        // Empirically: heading variance after many steps is larger at 4 km/h.
        let spread = |speed: f64, seed: u64| {
            let mut model = Walker::paper_default();
            let mut state = MobileState::new(Point::ORIGIN, 0.0, speed);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut sum_sq = 0.0;
            for _ in 0..200 {
                model.step(&mut state, 1.0, &mut rng);
                sum_sq += state.heading_deg * state.heading_deg;
            }
            sum_sq / 200.0
        };
        assert!(spread(4.0, 1) > spread(60.0, 1) * 2.0);
    }

    #[test]
    fn straight_line_never_turns() {
        let mut model = StraightLine;
        let mut state = MobileState::new(Point::ORIGIN, 30.0, 60.0);
        let mut rng = rng();
        for _ in 0..100 {
            model.step(&mut state, 1.0, &mut rng);
        }
        assert_eq!(state.heading_deg, 30.0);
        // 100 s at 60 km/h = 5/3 km along the 30° ray.
        let expected = Point::ORIGIN.step(30.0, 60.0 * 100.0 / 3600.0);
        assert!(state.position.distance_to(expected) < 1e-9);
    }

    proptest! {
        /// The step bound the kernel defers movement on: one step moves
        /// a terminal at most `speed_kmh · dt_s / 3600` km, up to the
        /// rounding of the position update.
        #[test]
        fn one_step_moves_at_most_speed_times_tick(
            at in (-700.0f64..700.0, -700.0f64..700.0),
            heading in -180.0f64..180.0,
            speed_kmh in 0.0f64..=300.0,
            dt_s in prop_oneof![
                prop::sample::select(vec![0.5, 1.0, 5.0, 15.0]),
                1e-6f64..120.0,
            ],
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::seed_from_u64(seed);
            let models: [&mut dyn MobilityModel; 2] = [&mut Walker, &mut StraightLine];
            for model in models {
                let mut state = MobileState::new(Point::new(at.0, at.1), heading, speed_kmh);
                for _ in 0..8 {
                    let (from, len_km) = (state.position, state.speed_kmh * dt_s / 3600.0);
                    model.step(&mut state, dt_s, &mut rng);
                    let rounding = 4.0 * f64::EPSILON * (from.x.abs() + from.y.abs() + len_km);
                    let moved = from.distance_to(state.position);
                    prop_assert!(
                        moved <= len_km + rounding,
                        "{} moved {moved} km, bound {len_km} km",
                        model.name()
                    );
                    prop_assert_eq!(state.speed_kmh.to_bits(), speed_kmh.to_bits());
                }
            }
        }
    }

    #[test]
    fn models_are_deterministic_under_seed() {
        let run = || {
            let mut model = Walker::paper_default();
            let mut state = MobileState::new(Point::ORIGIN, 0.0, 10.0);
            let mut rng = SimRng::seed_from_u64(99);
            for _ in 0..100 {
                model.step(&mut state, 1.0, &mut rng);
            }
            (state.position.x, state.position.y, state.heading_deg)
        };
        assert_eq!(run(), run());
    }
}
