//! Membership functions.
//!
//! The paper (Fig. 3) uses two families suitable for real-time operation:
//!
//! * triangular `f(x; x0, a0, a1)` — center `x0`, left width `a0`, right
//!   width `a1`;
//! * trapezoidal `g(x; x0, x1, a0, a1)` — flat top between `x0` and `x1`,
//!   ramps of width `a0` (left) and `a1` (right).
//!
//! [`MembershipFunction::triangular`] and
//! [`MembershipFunction::trapezoidal`] implement those formulas exactly.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};

/// A parametric membership function mapping a crisp value to a degree in
/// `[0, 1]`.
///
/// Values are evaluated with [`MembershipFunction::evaluate`]; results are
/// always clamped to `[0, 1]` and are `0.0` outside the support.
///
/// # Examples
///
/// ```
/// use facs_fuzzy::MembershipFunction;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// // The paper's "Middle speed" term: triangle centered at 30 km/h.
/// let middle = MembershipFunction::triangular(30.0, 15.0, 30.0)?;
/// assert_eq!(middle.evaluate(30.0), 1.0);
/// assert_eq!(middle.evaluate(22.5), 0.5);
/// assert_eq!(middle.evaluate(90.0), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MembershipFunction {
    /// Triangle with peak at `center`, rising over `left_width` and falling
    /// over `right_width`. A zero width makes that side a vertical edge.
    Triangular {
        /// Location of the peak (`x0` in the paper).
        center: f64,
        /// Width of the rising ramp (`a0`).
        left_width: f64,
        /// Width of the falling ramp (`a1`).
        right_width: f64,
    },
    /// Trapezoid flat between `left_top` and `right_top` with ramp widths
    /// `left_width` / `right_width`. A zero width makes that side vertical.
    Trapezoidal {
        /// Left edge of the flat top (`x0`).
        left_top: f64,
        /// Right edge of the flat top (`x1`).
        right_top: f64,
        /// Width of the rising ramp (`a0`).
        left_width: f64,
        /// Width of the falling ramp (`a1`).
        right_width: f64,
    },
}

impl MembershipFunction {
    /// Builds the paper's triangular function `f(x; x0, a0, a1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if any parameter is
    /// non-finite, a width is negative, or both widths are zero.
    pub fn triangular(center: f64, left_width: f64, right_width: f64) -> Result<Self> {
        ensure_finite(&[center, left_width, right_width])?;
        if left_width < 0.0 || right_width < 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "triangular widths must be non-negative (got a0={left_width}, a1={right_width})"
                ),
            });
        }
        if left_width == 0.0 && right_width == 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: "triangular function needs at least one positive width".into(),
            });
        }
        Ok(Self::Triangular { center, left_width, right_width })
    }

    /// Builds the paper's trapezoidal function `g(x; x0, x1, a0, a1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if any parameter is
    /// non-finite, the top edges are out of order, or a width is negative.
    pub fn trapezoidal(
        left_top: f64,
        right_top: f64,
        left_width: f64,
        right_width: f64,
    ) -> Result<Self> {
        ensure_finite(&[left_top, right_top, left_width, right_width])?;
        if right_top < left_top {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoid top edges out of order (x0={left_top} > x1={right_top})"
                ),
            });
        }
        if left_width < 0.0 || right_width < 0.0 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "trapezoid widths must be non-negative (got a0={left_width}, a1={right_width})"
                ),
            });
        }
        Ok(Self::Trapezoidal { left_top, right_top, left_width, right_width })
    }

    /// Evaluates the membership degree of `x`.
    ///
    /// The result is always in `[0, 1]`; non-finite `x` yields `0.0` so a
    /// corrupted sensor reading degrades to "no membership" instead of
    /// poisoning downstream arithmetic.
    #[must_use]
    pub fn evaluate(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return 0.0;
        }
        let mu = match *self {
            Self::Triangular { center, left_width, right_width } => {
                triangle(x, center, left_width, right_width)
            }
            Self::Trapezoidal { left_top, right_top, left_width, right_width } => {
                trapezoid(x, left_top, right_top, left_width, right_width)
            }
        };
        mu.clamp(0.0, 1.0)
    }

    /// Returns the closed interval outside of which membership is zero.
    #[must_use]
    pub fn support(&self) -> (f64, f64) {
        match *self {
            Self::Triangular { center, left_width, right_width } => {
                (center - left_width, center + right_width)
            }
            Self::Trapezoidal { left_top, right_top, left_width, right_width } => {
                (left_top - left_width, right_top + right_width)
            }
        }
    }

    /// Returns the *representative value* of the shape over the universe
    /// `[min, max]`: the midpoint of its maximum-membership region clipped
    /// to that universe, so an edge term whose plateau runs past the
    /// universe anchors at the edge. Used by the weighted-average
    /// defuzzifier.
    #[must_use]
    pub fn representative(&self, min: f64, max: f64) -> f64 {
        let (lo, hi) = match *self {
            Self::Triangular { center, .. } => (center, center),
            Self::Trapezoidal { left_top, right_top, .. } => (left_top, right_top),
        };
        0.5 * (lo.clamp(min, max) + hi.clamp(min, max))
    }
}

/// The paper's `f(x; x0, a0, a1)` with zero-width sides treated as vertical
/// edges (membership jumps straight to 1 at the center).
fn triangle(x: f64, center: f64, left_width: f64, right_width: f64) -> f64 {
    if x == center {
        return 1.0;
    }
    if x < center {
        if left_width == 0.0 {
            return 0.0;
        }
        let mu = (x - center) / left_width + 1.0;
        mu.max(0.0)
    } else {
        if right_width == 0.0 {
            return 0.0;
        }
        let mu = (center - x) / right_width + 1.0;
        mu.max(0.0)
    }
}

/// The paper's `g(x; x0, x1, a0, a1)` with zero-width sides treated as
/// vertical edges.
fn trapezoid(x: f64, left_top: f64, right_top: f64, left_width: f64, right_width: f64) -> f64 {
    if x >= left_top && x <= right_top {
        return 1.0;
    }
    if x < left_top {
        if left_width == 0.0 {
            return 0.0;
        }
        let mu = (x - left_top) / left_width + 1.0;
        mu.max(0.0)
    } else {
        if right_width == 0.0 {
            return 0.0;
        }
        let mu = (right_top - x) / right_width + 1.0;
        mu.max(0.0)
    }
}

fn ensure_finite(values: &[f64]) -> Result<()> {
    for &v in values {
        if !v.is_finite() {
            return Err(FuzzyError::InvalidMembership {
                reason: format!("parameter {v} is not finite"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn triangular_matches_paper_formula() {
        // f(x; x0=30, a0=15, a1=30): rises on (15, 30], falls on (30, 60].
        let mf = MembershipFunction::triangular(30.0, 15.0, 30.0).unwrap();
        assert_eq!(mf.evaluate(30.0), 1.0);
        assert!((mf.evaluate(22.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(45.0) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(15.0), 0.0);
        assert_eq!(mf.evaluate(60.0), 0.0);
        assert_eq!(mf.evaluate(14.9), 0.0);
        assert_eq!(mf.evaluate(60.1), 0.0);
    }

    #[test]
    fn triangular_asymmetric_slopes() {
        let mf = MembershipFunction::triangular(0.0, 1.0, 4.0).unwrap();
        assert!((mf.evaluate(-0.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(2.0) - 0.5).abs() < EPS);
    }

    #[test]
    fn triangular_zero_left_width_is_vertical_edge() {
        // Paper's "Near" distance term sits at the universe edge 0 km.
        let mf = MembershipFunction::triangular(0.0, 0.0, 10.0).unwrap();
        assert_eq!(mf.evaluate(0.0), 1.0);
        assert_eq!(mf.evaluate(-0.001), 0.0);
        assert!((mf.evaluate(5.0) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(10.0), 0.0);
    }

    #[test]
    fn triangular_rejects_two_zero_widths() {
        let err = MembershipFunction::triangular(1.0, 0.0, 0.0).unwrap_err();
        assert!(matches!(err, FuzzyError::InvalidMembership { .. }));
    }

    #[test]
    fn triangular_rejects_negative_width() {
        assert!(MembershipFunction::triangular(1.0, -1.0, 1.0).is_err());
        assert!(MembershipFunction::triangular(1.0, 1.0, -1.0).is_err());
    }

    #[test]
    fn triangular_rejects_non_finite() {
        assert!(MembershipFunction::triangular(f64::NAN, 1.0, 1.0).is_err());
        assert!(MembershipFunction::triangular(0.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn trapezoidal_matches_paper_formula() {
        // g(x; x0=0, x1=15, a0=0, a1=15): the paper's "Slow" speed term.
        let mf = MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0).unwrap();
        assert_eq!(mf.evaluate(0.0), 1.0);
        assert_eq!(mf.evaluate(10.0), 1.0);
        assert_eq!(mf.evaluate(15.0), 1.0);
        assert!((mf.evaluate(22.5) - 0.5).abs() < EPS);
        assert_eq!(mf.evaluate(30.0), 0.0);
    }

    #[test]
    fn trapezoidal_flat_top_is_inclusive() {
        let mf = MembershipFunction::trapezoidal(-1.0, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(mf.evaluate(-1.0), 1.0);
        assert_eq!(mf.evaluate(1.0), 1.0);
        assert!((mf.evaluate(-1.5) - 0.5).abs() < EPS);
        assert!((mf.evaluate(1.5) - 0.5).abs() < EPS);
    }

    #[test]
    fn trapezoidal_rejects_inverted_top() {
        assert!(MembershipFunction::trapezoidal(2.0, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn degenerate_trapezoid_equals_triangle() {
        let tri = MembershipFunction::triangular(5.0, 2.0, 3.0).unwrap();
        let trap = MembershipFunction::trapezoidal(5.0, 5.0, 2.0, 3.0).unwrap();
        for i in 0..=100 {
            let x = 2.0 + i as f64 * 0.07;
            assert!((tri.evaluate(x) - trap.evaluate(x)).abs() < EPS, "x={x}");
        }
    }

    #[test]
    fn non_finite_inputs_evaluate_to_zero() {
        let mf = MembershipFunction::triangular(0.0, 1.0, 1.0).unwrap();
        assert_eq!(mf.evaluate(f64::NAN), 0.0);
        assert_eq!(mf.evaluate(f64::INFINITY), 0.0);
        assert_eq!(mf.evaluate(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn support_bounds_contain_positive_membership() {
        let shapes = [
            MembershipFunction::triangular(3.0, 1.0, 2.0).unwrap(),
            MembershipFunction::trapezoidal(1.0, 2.0, 0.5, 0.5).unwrap(),
        ];
        for mf in shapes {
            let (lo, hi) = mf.support();
            assert_eq!(mf.evaluate(lo - 1.0), 0.0, "{mf:?}");
            assert_eq!(mf.evaluate(hi + 1.0), 0.0, "{mf:?}");
            assert!(mf.evaluate(0.5 * (lo + hi)) > 0.0, "{mf:?}");
        }
    }

    #[test]
    fn representative_matches_peak_region() {
        let tri = MembershipFunction::triangular(4.0, 1.0, 1.0).unwrap();
        assert_eq!(tri.representative(0.0, 10.0), 4.0);
        let trap = MembershipFunction::trapezoidal(2.0, 6.0, 1.0, 1.0).unwrap();
        assert_eq!(trap.representative(0.0, 10.0), 4.0);
        // A plateau running past the universe is clipped to it first:
        // FLC2's R and A terms anchor at -1 and 1, not at -1.5 and 1.5.
        let reject = MembershipFunction::trapezoidal(-2.0, -1.0, 0.0, 0.5).unwrap();
        assert_eq!(reject.representative(-1.0, 1.0), -1.0);
        let accept = MembershipFunction::trapezoidal(1.0, 2.0, 0.5, 0.0).unwrap();
        assert_eq!(accept.representative(-1.0, 1.0), 1.0);
        assert_eq!(trap.representative(0.0, 3.0), 2.5);
    }

    #[test]
    fn serde_round_trip() {
        let mf = MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0).unwrap();
        let json = serde_json_like(&mf);
        assert!(json.contains("Trapezoidal"));
    }

    /// serde_json is not an allowed dependency; the Debug representation is
    /// enough to confirm the Serialize derive compiles and fields are named.
    fn serde_json_like(mf: &MembershipFunction) -> String {
        format!("{mf:?}")
    }
}
