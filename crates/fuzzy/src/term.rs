//! Linguistic terms — a named membership function.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;

/// A linguistic term: a name (e.g. `"slow"`, `"cv3"`) bound to a
/// [`MembershipFunction`] over its variable's universe.
///
/// # Examples
///
/// ```
/// use facs_fuzzy::{MembershipFunction, Term};
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let slow = Term::new("slow", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0)?)?;
/// assert_eq!(slow.name(), "slow");
/// assert_eq!(slow.membership(22.5), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Term {
    name: String,
    function: MembershipFunction,
}

impl Term {
    /// Creates a term binding `name` to `function`.
    ///
    /// Term names are matched case-insensitively by rules, so they are
    /// normalized to lowercase here.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidMembership`] if `name` is empty or
    /// contains whitespace (which would break the `IF x IS a ...` form the
    /// rule tables print).
    pub fn new(name: impl Into<String>, function: MembershipFunction) -> Result<Self> {
        let name = name.into();
        validate_identifier(&name)?;
        Ok(Self { name: name.to_ascii_lowercase(), function })
    }

    /// The (lowercased) term name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying membership function.
    #[must_use]
    pub fn function(&self) -> &MembershipFunction {
        &self.function
    }

    /// Membership degree of `x` in this term; shorthand for
    /// `self.function().evaluate(x)`.
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        self.function.evaluate(x)
    }
}

/// Checks that a name is usable as an identifier in a printed rule:
/// non-empty, no whitespace, and not starting with a digit or sign (which
/// would read as a number).
pub(crate) fn validate_identifier(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(FuzzyError::InvalidMembership { reason: "name must not be empty".into() });
    }
    if name.chars().any(char::is_whitespace) {
        return Err(FuzzyError::InvalidMembership {
            reason: format!("name `{name}` must not contain whitespace"),
        });
    }
    let first = name.chars().next().expect("non-empty");
    if first.is_ascii_digit() || first == '-' || first == '+' {
        return Err(FuzzyError::InvalidMembership {
            reason: format!("name `{name}` must not start with a digit or sign"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> MembershipFunction {
        MembershipFunction::triangular(0.0, 1.0, 1.0).unwrap()
    }

    #[test]
    fn name_is_lowercased() {
        let t = Term::new("Slow", tri()).unwrap();
        assert_eq!(t.name(), "slow");
    }

    #[test]
    fn membership_delegates_to_function() {
        let t = Term::new("t", tri()).unwrap();
        assert_eq!(t.membership(0.0), 1.0);
        assert_eq!(t.membership(0.5), 0.5);
        assert_eq!(t.membership(2.0), 0.0);
    }

    #[test]
    fn rejects_empty_name() {
        assert!(Term::new("", tri()).is_err());
    }

    #[test]
    fn rejects_whitespace_name() {
        assert!(Term::new("very slow", tri()).is_err());
    }

    #[test]
    fn rejects_leading_digit_or_sign() {
        assert!(Term::new("3fast", tri()).is_err());
        assert!(Term::new("-fast", tri()).is_err());
        assert!(Term::new("+fast", tri()).is_err());
        // ...but digits elsewhere are fine (the paper uses cv1..cv9, b1, l2).
        assert!(Term::new("cv3", tri()).is_ok());
    }
}
