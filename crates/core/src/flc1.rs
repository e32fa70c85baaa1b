//! FLC1 — the mobility-prediction controller (paper §3.1).
//!
//! Inputs: user **S**peed (0–120 km/h, terms Sl/M/Fa), user **A**ngle
//! relative to the BS bearing (−180…180°, terms B1/L1/L2/St/R1/R2/B2) and
//! **D**istance from the BS (0–10 km, terms N/F). Output: the correction
//! value **Cv** in `[0, 1]` over nine terms Cv1…Cv9 (Fig. 5), driven by
//! the 42-rule FRB1 (Table 1).
//!
//! All membership break-points are read off the printed axes of Fig. 5
//! and exposed as named constants so EXPERIMENTS.md can cite them.

use facs_cac::MobilityInfo;
use facs_fuzzy::{BackendKind, CompiledSurface, Engine, FuzzyError, InferenceConfig};

use crate::definitions::flc1::engine;
pub use crate::definitions::flc1::{
    ANGLE_CENTERS, ANGLE_UNIVERSE, CV_UNIVERSE, DISTANCE_UNIVERSE, SPEED_BREAKS, SPEED_UNIVERSE,
};
use crate::fuzzy_controller::{BakedSurface, FuzzyController};

/// FLC1, on the exact backend by default or on a compiled decision
/// surface.
///
/// # Examples
///
/// ```
/// use facs::Flc1;
/// use facs_cac::MobilityInfo;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let flc1 = Flc1::new()?;
/// // Fast user heading straight at a near BS: excellent correction.
/// let good = flc1.correction_value(&MobilityInfo::new(70.0, 0.0, 1.0))?;
/// // Fast user heading away from a far BS: hopeless.
/// let bad = flc1.correction_value(&MobilityInfo::new(70.0, 180.0, 9.0))?;
/// assert!(good > 0.85);
/// assert!(bad < 0.15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Flc1 {
    flc: FuzzyController,
}

impl Flc1 {
    /// Builds FLC1 with the paper's default inference configuration
    /// (min/max Mamdani, centroid defuzzification) on the exact backend.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if construction fails (cannot happen for
    /// the built-in tables; the `Result` exists because the engine API is
    /// fallible by design).
    pub fn new() -> Result<Self, FuzzyError> {
        Self::with_backend(InferenceConfig::default(), BackendKind::Exact)
    }

    /// Builds FLC1 with an inference configuration (the ablation
    /// experiments vary it) on an explicit inference backend: exact
    /// Mamdani per query, or a compiled decision surface interpolated at
    /// query time.
    ///
    /// The default configuration's surface at the default lattice is
    /// compiled by the crate's build script and baked into the binary:
    /// every such controller borrows that one sample block, with no
    /// decode and no copy. Any other configuration or lattice
    /// compiles here, at one exact inference per lattice node
    /// (`points_per_axis`³ for the 3 FLC1 inputs).
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] on an invalid lattice resolution.
    pub fn with_backend(config: InferenceConfig, backend: BackendKind) -> Result<Self, FuzzyError> {
        static DEFAULT_SURFACE: BakedSurface =
            include!(concat!(env!("OUT_DIR"), "/flc1_surface.rs"));
        Ok(Self { flc: FuzzyController::new(engine(config)?, backend, &DEFAULT_SURFACE)? })
    }

    /// The active backend selector.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.flc.backend()
    }

    /// The compiled decision surface, when the compiled backend is
    /// active.
    #[must_use]
    pub fn surface(&self) -> Option<&CompiledSurface> {
        self.flc.surface()
    }

    /// Computes the correction value for a mobility observation.
    ///
    /// Inputs are clamped into the paper universes (speed 0–120, angle
    /// −180…180, distance 0–10).
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NonFiniteInput`] if the observation contains NaN or
    /// infinities.
    #[inline]
    pub fn correction_value(&self, mobility: &MobilityInfo) -> Result<f64, FuzzyError> {
        self.flc.evaluate(&[mobility.speed_kmh, mobility.angle_deg, mobility.distance_km])
    }

    /// The underlying fuzzy engine, exposed for inspection (the rule
    /// base, membership sampling for the Fig. 5 reproduction). With the
    /// compiled backend this is the engine the surface was compiled from.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.flc.engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flc1() -> Flc1 {
        Flc1::new().expect("FLC1 builds")
    }

    fn cv(speed: f64, angle: f64, distance: f64) -> f64 {
        flc1()
            .correction_value(&MobilityInfo::new(speed, angle, distance))
            .expect("inference succeeds")
    }

    #[test]
    fn rule_count_matches_table_1() {
        assert_eq!(flc1().engine().rule_base().len(), 42);
    }

    #[test]
    fn default_backend_is_exact() {
        assert_eq!(flc1().backend(), BackendKind::Exact);
        assert!(flc1().surface().is_none());
    }

    #[test]
    fn compiled_backend_tracks_exact_closely() {
        let exact = flc1();
        let compiled =
            Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
        assert_eq!(compiled.backend(), BackendKind::compiled());
        assert_eq!(compiled.surface().unwrap().dims(), 3);
        let mut worst = 0.0f64;
        for s in [0.0, 7.0, 30.0, 55.0, 90.0, 120.0] {
            for a in [-180.0, -100.0, -20.0, 0.0, 33.0, 95.0, 180.0] {
                for d in [0.0, 1.5, 4.2, 7.7, 10.0] {
                    let m = MobilityInfo::new(s, a, d);
                    let e = exact.correction_value(&m).unwrap();
                    let c = compiled.correction_value(&m).unwrap();
                    worst = worst.max((e - c).abs());
                }
            }
        }
        // Dense sweeps put the global worst case at ≈ 0.122 (a localized
        // ridge near the Middle speed peak — see EXPERIMENTS.md).
        assert!(worst < 0.13, "compiled FLC1 diverged by {worst}");
    }

    #[test]
    fn default_compiled_surface_is_cached_per_process() {
        let a = Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
        let b = Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
        // Same sample block behind both controllers: both borrow the
        // baked nodes.
        assert!(a.surface().unwrap().shares_samples(b.surface().unwrap()));
        let m = MobilityInfo::new(42.0, 17.0, 3.3);
        assert_eq!(a.correction_value(&m).unwrap(), b.correction_value(&m).unwrap());
    }

    #[test]
    fn anchor_points_fire_single_rules() {
        // At exact term centers only one rule fires; centroid sits at the
        // consequent's center (within discretization and edge-clipping).
        // Sl St N -> Cv9.
        assert!(cv(5.0, 0.0, 0.0) > 0.85, "{}", cv(5.0, 0.0, 0.0));
        // Fa B2 F -> Cv1.
        assert!(cv(90.0, 160.0, 10.0) < 0.15);
        // M St F -> Cv7 (center 0.75).
        let v = cv(30.0, 0.0, 10.0);
        assert!((v - 0.75).abs() < 0.05, "{v}");
        // M L2 N -> Cv8 (center 0.875).
        let v = cv(30.0, -45.0, 0.0);
        assert!((v - 0.875).abs() < 0.05, "{v}");
    }

    #[test]
    fn output_always_in_unit_interval() {
        for s in [0.0, 4.0, 10.0, 30.0, 60.0, 120.0] {
            for a in [-180.0, -90.0, -30.0, 0.0, 45.0, 135.0, 180.0] {
                for d in [0.0, 1.0, 5.0, 10.0] {
                    let v = cv(s, a, d);
                    assert!((0.0..=1.0).contains(&v), "cv({s},{a},{d}) = {v}");
                }
            }
        }
    }

    #[test]
    fn straight_beats_back_for_every_speed() {
        for s in [5.0, 30.0, 90.0] {
            for d in [2.0, 8.0] {
                assert!(
                    cv(s, 0.0, d) > cv(s, 170.0, d),
                    "straight should beat back at speed {s}, distance {d}"
                );
            }
        }
    }

    #[test]
    fn fast_straight_users_get_best_correction_anywhere() {
        // Fa St N and Fa St F are both Cv9: fast straight users are ideal
        // regardless of distance.
        assert!(cv(90.0, 0.0, 0.5) > 0.85);
        assert!(cv(90.0, 0.0, 9.5) > 0.85);
        // Slow straight users degrade with distance (Cv9 near, Cv3 far).
        assert!(cv(5.0, 0.0, 0.5) > 0.8);
        assert!(cv(5.0, 0.0, 9.5) < 0.4);
    }

    #[test]
    fn angle_symmetry_for_middle_and_fast() {
        // Table 1 is left/right symmetric for the M and Fa speed rows;
        // mirrored angles give the same Cv there.
        for s in [30.0, 90.0] {
            for d in [1.0, 9.0] {
                for a in [30.0, 45.0, 90.0, 120.0] {
                    let right = cv(s, a, d);
                    let left = cv(s, -a, d);
                    assert!(
                        (right - left).abs() < 1e-9,
                        "asymmetry at s={s} a={a} d={d}: {right} vs {left}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_slow_row_asymmetry_is_preserved() {
        // The paper's Table 1 maps Sl/L2/F -> Cv3 but its mirror
        // Sl/R1/F -> Cv2 (rules 5 and 9). We transcribe faithfully, so a
        // slow user at -45° over a far BS scores slightly *better* than
        // one at +45°.
        let left = cv(5.0, -45.0, 10.0);
        let right = cv(5.0, 45.0, 10.0);
        assert!(left > right, "paper asymmetry lost: {left} vs {right}");
    }

    #[test]
    fn perpendicular_walkers_get_middling_correction() {
        // Sl R2 N -> Cv4 (center 0.375).
        let v = cv(5.0, 90.0, 0.0);
        assert!((v - 0.375).abs() < 0.06, "{v}");
    }

    #[test]
    fn inputs_are_clamped_to_universes() {
        assert_eq!(cv(500.0, 0.0, 1.0), cv(120.0, 0.0, 1.0));
        assert_eq!(cv(30.0, 0.0, 50.0), cv(30.0, 0.0, 10.0));
    }

    #[test]
    fn non_finite_observation_is_an_error() {
        let err = flc1().correction_value(&MobilityInfo {
            speed_kmh: f64::NAN,
            angle_deg: 0.0,
            distance_km: 1.0,
        });
        assert!(err.is_err());
    }

    #[test]
    fn every_observation_fires_some_rule() {
        // Dense sweep: the rule base covers the whole input space (no
        // NoRuleFired anywhere).
        let flc = flc1();
        for s in (0..=120).step_by(8) {
            for a in (-180..=180).step_by(15) {
                for d in 0..=10 {
                    let m = MobilityInfo::new(f64::from(s), f64::from(a), f64::from(d));
                    assert!(flc.correction_value(&m).is_ok(), "hole at {m:?}");
                }
            }
        }
    }
}
