//! FLC2 — the admission-decision controller (paper §3.2).
//!
//! Inputs: the correction value **Cv** from FLC1 (terms Bad/Normal/Good),
//! the user **R**equest in BU (terms Text/Voice/Video) and the **C**ounter
//! **s**tate — occupied capacity in BU (terms Small/Middle/Full). Output:
//! the soft accept/reject score **A/R** in `[-1, 1]` over the five terms
//! {R, WR, NRNA, WA, A} (Fig. 6), driven by the 27-rule FRB2 (Table 2).

use facs_fuzzy::{BackendKind, CompiledSurface, Engine, FuzzyError, InferenceConfig};

use crate::definitions::flc2::engine;
pub use crate::definitions::flc2::{
    COUNTER_UNIVERSE, CV_UNIVERSE, DECISION_UNIVERSE, REQUEST_UNIVERSE,
};
use crate::fuzzy_controller::{BakedSurface, FuzzyController};

/// FLC2, on the exact backend by default or on a compiled decision
/// surface.
///
/// # Examples
///
/// ```
/// use facs::Flc2;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let flc2 = Flc2::new()?;
/// // Good correction, text request, empty cell: strong accept.
/// let yes = flc2.decision_score(0.95, 1.0, 2.0)?;
/// // Good correction but a video request into a full cell: reject.
/// let no = flc2.decision_score(0.95, 10.0, 39.0)?;
/// assert!(yes > 0.5);
/// assert!(no < -0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Flc2 {
    flc: FuzzyController,
}

impl Flc2 {
    /// Builds FLC2 with the paper's default inference configuration on
    /// the exact backend.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if construction fails.
    pub fn new() -> Result<Self, FuzzyError> {
        Self::with_backend(InferenceConfig::default(), BackendKind::Exact)
    }

    /// Builds FLC2 with an inference configuration on an explicit
    /// inference backend (see
    /// [`Flc1::with_backend`](crate::Flc1::with_backend) — the default
    /// surface is likewise baked in at build time and shared; any other
    /// configuration or lattice compiles here).
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] on an invalid lattice resolution.
    pub fn with_backend(config: InferenceConfig, backend: BackendKind) -> Result<Self, FuzzyError> {
        static DEFAULT_SURFACE: BakedSurface =
            include!(concat!(env!("OUT_DIR"), "/flc2_surface.rs"));
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

    /// Computes the soft decision score in `[-1, 1]`.
    ///
    /// * `cv` — FLC1's correction value (clamped to `[0, 1]`);
    /// * `request_bu` — requested bandwidth in BU (1/5/10 for
    ///   text/voice/video);
    /// * `counter_bu` — occupied bandwidth in BU over the 0–40 universe
    ///   (callers with a different capacity scale first).
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NonFiniteInput`] on NaN/infinite inputs.
    #[inline]
    pub fn decision_score(
        &self,
        cv: f64,
        request_bu: f64,
        counter_bu: f64,
    ) -> Result<f64, FuzzyError> {
        self.flc.evaluate(&[cv, request_bu, counter_bu])
    }

    /// The underlying fuzzy engine, exposed for inspection. With the
    /// compiled backend this is the engine the surface was compiled from.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.flc.engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flc2() -> Flc2 {
        Flc2::new().expect("FLC2 builds")
    }

    fn score(cv: f64, r: f64, cs: f64) -> f64 {
        flc2().decision_score(cv, r, cs).expect("inference succeeds")
    }

    #[test]
    fn rule_count_matches_table_2() {
        assert_eq!(flc2().engine().rule_base().len(), 27);
    }

    #[test]
    fn compiled_backend_tracks_exact_closely() {
        let exact = flc2();
        let compiled =
            Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
        assert_eq!(compiled.backend(), BackendKind::compiled());
        let mut worst = 0.0f64;
        for cv in [0.0, 0.13, 0.4, 0.62, 0.88, 1.0] {
            for r in [0.0, 1.0, 3.7, 5.0, 8.2, 10.0] {
                for cs in [0.0, 6.0, 17.5, 25.0, 33.0, 40.0] {
                    let e = exact.decision_score(cv, r, cs).unwrap();
                    let c = compiled.decision_score(cv, r, cs).unwrap();
                    worst = worst.max((e - c).abs());
                }
            }
        }
        // Dense sweeps measure a global worst case of ≈ 0.064
        // (EXPERIMENTS.md).
        assert!(worst < 0.08, "compiled FLC2 diverged by {worst}");
    }

    #[test]
    fn empty_cell_accepts_everything() {
        // Every Cs=S row of FRB2 is A or WA: at zero occupancy everyone
        // gets in.
        for cv in [0.05, 0.5, 0.95] {
            for r in [1.0, 5.0, 10.0] {
                assert!(score(cv, r, 0.0) > 0.3, "cv={cv} r={r}: {}", score(cv, r, 0.0));
            }
        }
    }

    #[test]
    fn full_cell_never_accepts() {
        // Every Cs=F row is NRNA, WR or R: scores at/below zero.
        for cv in [0.05, 0.5, 0.95] {
            for r in [1.0, 5.0, 10.0] {
                assert!(score(cv, r, 40.0) <= 0.05, "cv={cv} r={r}: {}", score(cv, r, 40.0));
            }
        }
    }

    #[test]
    fn good_cv_unlocks_middle_occupancy() {
        // At Cs=20 (pure Middle): G -> A (positive), B/N -> NRNA (≈ 0).
        for r in [1.0, 5.0, 10.0] {
            assert!(score(0.98, r, 20.0) > 0.4, "good cv should pass at middle occupancy");
            let b = score(0.02, r, 20.0);
            assert!(b.abs() < 0.15, "bad cv at middle should be near-neutral, got {b}");
        }
    }

    #[test]
    fn video_into_full_cell_with_good_cv_is_firm_reject() {
        // G Vi F -> R: the strongest rejection in the table.
        let v = score(0.98, 10.0, 39.5);
        assert!(v < -0.5, "{v}");
    }

    #[test]
    fn score_monotone_decreasing_in_occupancy() {
        for cv in [0.1, 0.5, 0.9] {
            for r in [1.0, 5.0, 10.0] {
                let mut prev = f64::INFINITY;
                for cs in [0.0, 10.0, 20.0, 30.0, 40.0] {
                    let v = score(cv, r, cs);
                    assert!(
                        v <= prev + 0.15,
                        "score rose with occupancy: cv={cv} r={r} cs={cs}: {v} > {prev}"
                    );
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn output_always_in_decision_universe() {
        for cv in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for r in [0.0, 1.0, 5.0, 10.0] {
                for cs in [0.0, 10.0, 20.0, 30.0, 40.0] {
                    let v = score(cv, r, cs);
                    assert!((-1.0..=1.0).contains(&v), "score({cv},{r},{cs}) = {v}");
                }
            }
        }
    }

    #[test]
    fn text_is_favored_over_video_under_load() {
        // At full occupancy with bad cv: T -> NRNA but Vi -> WR.
        let text = score(0.1, 1.0, 38.0);
        let video = score(0.1, 10.0, 38.0);
        assert!(text > video, "text {text} should beat video {video} under load");
    }

    #[test]
    fn inputs_clamped() {
        assert_eq!(score(2.0, 1.0, 10.0), score(1.0, 1.0, 10.0));
        assert_eq!(score(0.5, 1.0, 100.0), score(0.5, 1.0, 40.0));
    }

    #[test]
    fn full_input_grid_is_covered() {
        let flc = flc2();
        for cv in 0..=10 {
            for r in 0..=10 {
                for cs in 0..=40 {
                    let result =
                        flc.decision_score(f64::from(cv) / 10.0, f64::from(r), f64::from(cs));
                    assert!(result.is_ok(), "hole at cv={cv} r={r} cs={cs}");
                }
            }
        }
    }
}
