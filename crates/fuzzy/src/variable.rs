//! Linguistic variables — a named universe of discourse plus its term set.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use crate::term::{validate_identifier, Term};

/// A linguistic variable: a name, a universe of discourse `[min, max]`, and
/// an ordered set of [`Term`]s partitioning that universe.
///
/// Build one with [`Variable::builder`]:
///
/// ```
/// use facs_fuzzy::{MembershipFunction, Variable};
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let speed = Variable::builder("speed", 0.0, 120.0)
///     .term("slow", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0)?)
///     .term("middle", MembershipFunction::triangular(30.0, 15.0, 30.0)?)
///     .term("fast", MembershipFunction::trapezoidal(60.0, 120.0, 30.0, 0.0)?)
///     .build()?;
/// assert_eq!(speed.terms().len(), 3);
/// // Fuzzification of a crisp reading:
/// let degrees = speed.fuzzify(22.5);
/// assert_eq!(degrees[0], ("slow", 0.5));
/// assert_eq!(degrees[1], ("middle", 0.5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    name: String,
    min: f64,
    max: f64,
    terms: Vec<Term>,
}

impl Variable {
    /// Starts building a variable named `name` over `[min, max]`.
    #[must_use]
    pub fn builder(name: impl Into<String>, min: f64, max: f64) -> VariableBuilder {
        VariableBuilder { name: name.into(), min, max, terms: Vec::new(), error: None }
    }

    /// The (lowercased) variable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lower bound of the universe of discourse.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the universe of discourse.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The ordered term set.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Looks a term up by (case-insensitive) name.
    #[must_use]
    pub fn term(&self, name: &str) -> Option<&Term> {
        let lower = name.to_ascii_lowercase();
        self.terms.iter().find(|t| t.name() == lower)
    }

    /// Index of a term by (case-insensitive) name.
    #[must_use]
    pub fn term_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.terms.iter().position(|t| t.name() == lower)
    }

    /// Clamps a crisp value into the universe of discourse.
    ///
    /// Sensor readings slightly outside the modelled range (e.g. a GPS speed
    /// of 120.4 km/h) are snapped to the nearest bound, matching the paper's
    /// use of edge trapezoids that saturate at the universe edges.
    #[must_use]
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.min, self.max)
    }

    /// Fuzzifies a crisp value: membership degree of `x` in every term, in
    /// term order. `x` is clamped to the universe first.
    ///
    /// The returned pairs borrow the term names.
    #[must_use]
    pub fn fuzzify(&self, x: f64) -> Vec<(&str, f64)> {
        let x = self.clamp(x);
        self.terms.iter().map(|t| (t.name(), t.membership(x))).collect()
    }

    /// Evaluates the *coverage* of the term set at `x`: the maximum
    /// membership any term assigns. A well-formed partition has coverage
    /// `> 0` everywhere in the universe.
    #[must_use]
    pub fn coverage(&self, x: f64) -> f64 {
        let x = self.clamp(x);
        self.terms.iter().map(|t| t.membership(x)).fold(0.0, f64::max)
    }
}

/// Incremental builder for [`Variable`], following the non-consuming
/// terminal-method convention of `std::process::Command`.
#[derive(Debug, Clone)]
pub struct VariableBuilder {
    name: String,
    min: f64,
    max: f64,
    terms: Vec<Term>,
    error: Option<FuzzyError>,
}

impl VariableBuilder {
    /// Adds a term named `name` with membership `function`.
    ///
    /// Errors (duplicate or invalid names) are deferred to [`build`].
    ///
    /// [`build`]: VariableBuilder::build
    #[must_use]
    pub fn term(mut self, name: impl Into<String>, function: MembershipFunction) -> Self {
        if self.error.is_some() {
            return self;
        }
        match Term::new(name, function) {
            Ok(term) => {
                if self.terms.iter().any(|t| t.name() == term.name()) {
                    self.error = Some(FuzzyError::DuplicateTerm {
                        variable: self.name.clone(),
                        term: term.name().to_owned(),
                    });
                } else {
                    self.terms.push(term);
                }
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Adds `count` evenly spaced triangular terms named
    /// `prefix1..prefix{count}` spanning the universe, with the first and
    /// last terms widened into edge trapezoids (the classic "fuzzy
    /// partition" used by the paper's Cv1..Cv9 output).
    ///
    /// Adjacent terms cross at membership 0.5, so the partition sums to 1
    /// everywhere.
    #[must_use]
    pub fn uniform_partition(mut self, prefix: &str, count: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        if count < 2 {
            self.error = Some(FuzzyError::InvalidMembership {
                reason: format!("uniform partition needs >= 2 terms (got {count})"),
            });
            return self;
        }
        let span = self.max - self.min;
        let step = span / (count as f64 - 1.0);
        for i in 0..count {
            let center = self.min + step * i as f64;
            let name = format!("{prefix}{}", i + 1);
            let mf = if i == 0 {
                MembershipFunction::trapezoidal(self.min - 1.0, center, 0.0, step)
            } else if i == count - 1 {
                MembershipFunction::trapezoidal(center, self.max + 1.0, step, 0.0)
            } else {
                MembershipFunction::triangular(center, step, step)
            };
            match mf {
                Ok(mf) => self = self.term(name, mf),
                Err(e) => {
                    self.error = Some(e);
                    return self;
                }
            }
        }
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::InvalidUniverse`] — non-finite or inverted bounds;
    /// * [`FuzzyError::EmptyTermSet`] — no terms were added;
    /// * any deferred error from [`term`](VariableBuilder::term).
    pub fn build(self) -> Result<Variable> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.min.is_finite() || !self.max.is_finite() || self.min >= self.max {
            return Err(FuzzyError::InvalidUniverse { min: self.min, max: self.max });
        }
        validate_identifier(&self.name).map_err(|_| FuzzyError::InvalidMembership {
            reason: format!("variable name `{}` is not a valid identifier", self.name),
        })?;
        if self.terms.is_empty() {
            return Err(FuzzyError::EmptyTermSet { variable: self.name });
        }
        Ok(Variable {
            name: self.name.to_ascii_lowercase(),
            min: self.min,
            max: self.max,
            terms: self.terms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed() -> Variable {
        Variable::builder("Speed", 0.0, 120.0)
            .term("slow", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0).unwrap())
            .term("middle", MembershipFunction::triangular(30.0, 15.0, 30.0).unwrap())
            .term("fast", MembershipFunction::trapezoidal(60.0, 120.0, 30.0, 0.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn names_are_lowercased() {
        assert_eq!(speed().name(), "speed");
    }

    #[test]
    fn fuzzify_returns_all_terms_in_order() {
        let v = speed();
        let d = v.fuzzify(22.5);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0], ("slow", 0.5));
        assert_eq!(d[1], ("middle", 0.5));
        assert_eq!(d[2], ("fast", 0.0));
    }

    #[test]
    fn fuzzify_clamps_out_of_range_inputs() {
        let v = speed();
        let d = v.fuzzify(500.0);
        assert_eq!(d[2], ("fast", 1.0));
        let d = v.fuzzify(-10.0);
        assert_eq!(d[0], ("slow", 1.0));
    }

    #[test]
    fn term_lookup_is_case_insensitive() {
        let v = speed();
        assert!(v.term("SLOW").is_some());
        assert_eq!(v.term_index("Fast"), Some(2));
        assert!(v.term("warp").is_none());
    }

    #[test]
    fn coverage_positive_across_universe() {
        let v = speed();
        for i in 0..=120 {
            let x = i as f64;
            assert!(v.coverage(x) > 0.0, "hole in partition at {x}");
        }
    }

    #[test]
    fn builder_rejects_duplicate_terms() {
        let err = Variable::builder("v", 0.0, 1.0)
            .term("a", MembershipFunction::triangular(0.0, 0.5, 0.5).unwrap())
            .term("A", MembershipFunction::triangular(1.0, 0.5, 0.5).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateTerm { .. }));
    }

    #[test]
    fn builder_rejects_empty_term_set() {
        let err = Variable::builder("v", 0.0, 1.0).build().unwrap_err();
        assert!(matches!(err, FuzzyError::EmptyTermSet { .. }));
    }

    #[test]
    fn builder_rejects_bad_universe() {
        let mf = MembershipFunction::triangular(0.0, 0.5, 0.5).unwrap();
        assert!(Variable::builder("v", 1.0, 0.0).term("a", mf).build().is_err());
        assert!(Variable::builder("v", 0.0, 0.0).term("a", mf).build().is_err());
        assert!(Variable::builder("v", f64::NAN, 1.0).term("a", mf).build().is_err());
    }

    #[test]
    fn uniform_partition_covers_and_sums_to_one() {
        let v = Variable::builder("cv", 0.0, 1.0).uniform_partition("cv", 9).build().unwrap();
        assert_eq!(v.terms().len(), 9);
        assert_eq!(v.terms()[0].name(), "cv1");
        assert_eq!(v.terms()[8].name(), "cv9");
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let sum: f64 = v.fuzzify(x).iter().map(|(_, mu)| mu).sum();
            assert!((sum - 1.0).abs() < 1e-9, "partition sum {sum} at {x}");
        }
    }

    #[test]
    fn uniform_partition_rejects_tiny_count() {
        assert!(Variable::builder("cv", 0.0, 1.0).uniform_partition("cv", 1).build().is_err());
    }
}
