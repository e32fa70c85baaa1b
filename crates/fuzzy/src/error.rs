//! Error types for the fuzzy-inference engine.

use std::fmt;

/// Errors produced while building or evaluating a fuzzy system.
///
/// Every public fallible operation in this crate returns this type. The
/// variants carry enough context (names, indices, values) to diagnose a
/// mis-built system without a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FuzzyError {
    /// A membership-function parameter was invalid (e.g. a non-positive
    /// width, or a trapezoid whose shoulders are out of order).
    InvalidMembership {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A universe of discourse was empty or inverted (`min >= max`) or
    /// contained a non-finite bound.
    InvalidUniverse {
        /// Lower bound supplied by the caller.
        min: f64,
        /// Upper bound supplied by the caller.
        max: f64,
    },
    /// A variable was declared with no linguistic terms.
    EmptyTermSet {
        /// Name of the offending variable.
        variable: String,
    },
    /// Two terms of the same variable share a name.
    DuplicateTerm {
        /// Name of the variable that owns the terms.
        variable: String,
        /// The duplicated term name.
        term: String,
    },
    /// Two variables in the same engine share a name.
    DuplicateVariable {
        /// The duplicated variable name.
        variable: String,
    },
    /// A rule referenced a variable that the engine does not know.
    UnknownVariable {
        /// The missing variable name.
        variable: String,
    },
    /// A rule referenced a term that the named variable does not define.
    UnknownTerm {
        /// The variable whose term set was searched.
        variable: String,
        /// The missing term name.
        term: String,
    },
    /// An input value was not supplied for a variable the rule base reads.
    MissingInput {
        /// The variable with no value.
        variable: String,
    },
    /// An input value was non-finite (NaN or infinite).
    NonFiniteInput {
        /// The variable the value was supplied for.
        variable: String,
        /// The offending value.
        value: f64,
    },
    /// The rule base is empty, so inference cannot produce an output.
    EmptyRuleBase,
    /// No rule fired with non-zero strength, so the output is undefined.
    NoRuleFired {
        /// The output variable whose fuzzy set stayed empty.
        variable: String,
    },
    /// A sampled set or compiled surface was asked for too few samples to
    /// interpolate, or a surface for a lattice too large to allocate or
    /// given a node block that does not match its lattice.
    InvalidResolution {
        /// The rejected sample count (for a node block, its length).
        samples: usize,
    },
}

impl fmt::Display for FuzzyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzyError::InvalidMembership { reason } => {
                write!(f, "invalid membership function: {reason}")
            }
            FuzzyError::InvalidUniverse { min, max } => {
                write!(f, "invalid universe of discourse [{min}, {max}]")
            }
            FuzzyError::EmptyTermSet { variable } => {
                write!(f, "variable `{variable}` has no linguistic terms")
            }
            FuzzyError::DuplicateTerm { variable, term } => {
                write!(f, "variable `{variable}` defines term `{term}` twice")
            }
            FuzzyError::DuplicateVariable { variable } => {
                write!(f, "variable `{variable}` declared twice")
            }
            FuzzyError::UnknownVariable { variable } => {
                write!(f, "rule references unknown variable `{variable}`")
            }
            FuzzyError::UnknownTerm { variable, term } => {
                write!(f, "variable `{variable}` has no term named `{term}`")
            }
            FuzzyError::MissingInput { variable } => {
                write!(f, "no input value supplied for variable `{variable}`")
            }
            FuzzyError::NonFiniteInput { variable, value } => {
                write!(f, "non-finite input {value} for variable `{variable}`")
            }
            FuzzyError::EmptyRuleBase => write!(f, "rule base is empty"),
            FuzzyError::NoRuleFired { variable } => {
                write!(f, "no rule fired for output variable `{variable}`")
            }
            FuzzyError::InvalidResolution { samples } => {
                write!(
                    f,
                    "invalid resolution {samples} (need >= 2 samples per axis, at most 2^26 \
                     lattice nodes and one value per node)"
                )
            }
        }
    }
}

impl std::error::Error for FuzzyError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, FuzzyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = FuzzyError::UnknownTerm { variable: "speed".into(), term: "warp".into() };
        let msg = err.to_string();
        assert!(msg.contains("speed"));
        assert!(msg.contains("warp"));
        assert!(msg.chars().next().unwrap().is_lowercase());
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<FuzzyError>();
    }

    #[test]
    fn variants_compare_by_value() {
        let a = FuzzyError::EmptyRuleBase;
        let b = FuzzyError::EmptyRuleBase;
        assert_eq!(a, b);
        let c = FuzzyError::MissingInput { variable: "x".into() };
        assert_ne!(a, c);
    }
}
