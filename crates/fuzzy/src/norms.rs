//! Triangular norms used to combine antecedent membership degrees.
//!
//! The paper's FLC uses the classic Mamdani configuration — `min` for AND
//! and implication, `max` for aggregation. The implication and the
//! aggregation are fixed; the conjunction T-norm is selectable so the
//! `ablation-tnorm` experiment can compare `min` against the product.

use serde::{Deserialize, Serialize};

/// T-norm: fuzzy conjunction (`AND`) over `[0, 1] x [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TNorm {
    /// Gödel / Mamdani minimum: `min(a, b)`. The paper's choice.
    #[default]
    Minimum,
    /// Algebraic product: `a * b`.
    Product,
}

impl TNorm {
    /// Applies the norm to two membership degrees.
    ///
    /// Inputs are clamped to `[0, 1]` first so the algebra below cannot
    /// escape the unit interval.
    #[must_use]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        let b = b.clamp(0.0, 1.0);
        match self {
            TNorm::Minimum => a.min(b),
            TNorm::Product => a * b,
        }
    }

    /// Folds the norm across an iterator of degrees; the empty fold is the
    /// norm's identity element `1`.
    #[must_use]
    pub fn fold(self, degrees: impl IntoIterator<Item = f64>) -> f64 {
        degrees.into_iter().fold(1.0, |acc, d| self.apply(acc, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: &[(f64, f64)] =
        &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.5, 0.5), (0.9, 0.2)];

    #[test]
    fn tnorm_axioms_hold() {
        for norm in [TNorm::Minimum, TNorm::Product] {
            for &(a, b) in CASES {
                let ab = norm.apply(a, b);
                // Commutativity.
                assert_eq!(ab, norm.apply(b, a), "{norm:?} commutativity");
                // Identity element 1.
                assert!((norm.apply(a, 1.0) - a).abs() < 1e-12, "{norm:?} identity");
                // Bounded by min.
                assert!(ab <= a.min(b) + 1e-12, "{norm:?} bounded by min");
                // Range.
                assert!((0.0..=1.0).contains(&ab), "{norm:?} range");
            }
        }
    }

    #[test]
    fn minimum_and_product_values() {
        assert_eq!(TNorm::Minimum.apply(0.3, 0.7), 0.3);
        assert!((TNorm::Product.apply(0.3, 0.7) - 0.21).abs() < 1e-12);
    }

    #[test]
    fn folds_use_identities() {
        assert_eq!(TNorm::Minimum.fold(std::iter::empty()), 1.0);
        assert_eq!(TNorm::Product.fold(std::iter::empty()), 1.0);
        assert_eq!(TNorm::Minimum.fold([0.9, 0.4, 0.6]), 0.4);
        assert!((TNorm::Product.fold([0.5, 0.5, 0.5]) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        assert_eq!(TNorm::Minimum.apply(-0.5, 2.0), 0.0);
        assert_eq!(TNorm::Product.apply(2.0, 2.0), 1.0);
    }

    #[test]
    fn defaults_match_the_paper() {
        assert_eq!(TNorm::default(), TNorm::Minimum);
    }
}
