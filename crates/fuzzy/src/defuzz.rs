//! Defuzzification strategies: collapsing an aggregated fuzzy output set to
//! a single crisp value.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};
use crate::set::SampledSet;

/// Number of samples of the aggregation surface that the area-based
/// defuzzifiers integrate over.
///
/// 501 points over a unit universe gives a 0.002 grid — far below the
/// granularity at which admission decisions change, while keeping a single
/// inference under a microsecond-scale budget.
pub const RESOLUTION: usize = 501;

/// A defuzzification strategy.
///
/// `Centroid` is the paper-faithful default; the others are the
/// alternatives the `ablation-defuzz` experiment compares it against.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Defuzzifier {
    /// Center of gravity of the aggregated set (the Mamdani classic).
    #[default]
    Centroid,
    /// Vertical line splitting the aggregated area in half.
    Bisector,
    /// Mean of the coordinates attaining maximum membership.
    MeanOfMaxima,
    /// Weighted average of per-rule consequent representative values
    /// (each term's peak midpoint, clipped to the output universe),
    /// weighted by firing strength. Skips building the aggregated surface
    /// entirely — the fastest option, at some fidelity cost.
    WeightedAverage,
}

impl Defuzzifier {
    /// `true` if the strategy needs the sampled aggregation surface;
    /// `false` for [`Defuzzifier::WeightedAverage`], which works from rule
    /// activations alone.
    #[must_use]
    pub fn needs_surface(self) -> bool {
        !matches!(self, Defuzzifier::WeightedAverage)
    }

    /// Defuzzifies an aggregated surface.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::NoRuleFired`] (with a placeholder variable
    /// name filled in by the engine) when the set is empty, i.e. no rule
    /// contributed any mass.
    pub fn crisp(self, set: &SampledSet) -> Result<f64> {
        let value = match self {
            Defuzzifier::Centroid => set.centroid(),
            Defuzzifier::Bisector => set.bisector(),
            Defuzzifier::MeanOfMaxima => set.mean_of_maxima(),
            Defuzzifier::WeightedAverage => {
                return Err(FuzzyError::InvalidMembership {
                    reason: "weighted-average defuzzifier works from activations, \
                             not an aggregation surface"
                        .into(),
                })
            }
        };
        value.ok_or(FuzzyError::NoRuleFired { variable: String::new() })
    }

    /// Defuzzifies from `(strength, representative)` rule activations —
    /// only valid for [`Defuzzifier::WeightedAverage`].
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NoRuleFired`] when every strength is zero.
    pub fn crisp_from_activations(self, activations: &[(f64, f64)]) -> Result<f64> {
        debug_assert!(matches!(self, Defuzzifier::WeightedAverage));
        let mut num = 0.0;
        let mut den = 0.0;
        for &(strength, representative) in activations {
            let s = strength.clamp(0.0, 1.0);
            num += s * representative;
            den += s;
        }
        if den <= f64::EPSILON {
            Err(FuzzyError::NoRuleFired { variable: String::new() })
        } else {
            Ok(num / den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> SampledSet {
        SampledSet::from_fn(0.0, 10.0, 1001, |x| (1.0 - (x - 4.0).abs() / 2.0).max(0.0)).unwrap()
    }

    #[test]
    fn centroid_of_symmetric_triangle() {
        let c = Defuzzifier::Centroid.crisp(&triangle()).unwrap();
        assert!((c - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bisector_of_symmetric_triangle() {
        let c = Defuzzifier::Bisector.crisp(&triangle()).unwrap();
        assert!((c - 4.0).abs() < 1e-2);
    }

    #[test]
    fn maxima_strategies_on_plateau() {
        let set =
            SampledSet::from_fn(
                0.0,
                1.0,
                1001,
                |x| {
                    if (0.2..=0.4).contains(&x) {
                        0.7
                    } else {
                        0.0
                    }
                },
            )
            .unwrap();
        let mom = Defuzzifier::MeanOfMaxima.crisp(&set).unwrap();
        assert!((mom - 0.3).abs() < 1e-3);
    }

    #[test]
    fn empty_surface_is_no_rule_fired() {
        let set = SampledSet::empty(0.0, 1.0, 101).unwrap();
        for d in [Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMaxima] {
            assert!(matches!(d.crisp(&set), Err(FuzzyError::NoRuleFired { .. })), "{d:?}");
        }
    }

    #[test]
    fn weighted_average_from_activations() {
        let v = Defuzzifier::WeightedAverage
            .crisp_from_activations(&[(0.5, 2.0), (0.25, 8.0)])
            .unwrap();
        // (0.5*2 + 0.25*8) / 0.75 = 3/0.75 = 4
        assert!((v - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_rejects_all_zero() {
        let err = Defuzzifier::WeightedAverage.crisp_from_activations(&[(0.0, 2.0)]);
        assert!(matches!(err, Err(FuzzyError::NoRuleFired { .. })));
    }

    #[test]
    fn weighted_average_rejects_surface_input() {
        assert!(Defuzzifier::WeightedAverage.crisp(&triangle()).is_err());
    }

    #[test]
    fn needs_surface_flags() {
        assert!(Defuzzifier::Centroid.needs_surface());
        assert!(!Defuzzifier::WeightedAverage.needs_surface());
    }

    #[test]
    fn default_is_centroid() {
        assert_eq!(Defuzzifier::default(), Defuzzifier::Centroid);
    }
}
