//! Fuzzy rules and rule bases.
//!
//! A rule has the paper's canonical shape:
//!
//! ```text
//! IF "conditions" THEN "control action"
//! ```
//!
//! e.g. FRB1 rule 6: `IF s IS sl AND a IS st AND d IS n THEN cv IS cv9`.
//! Conditions are joined by `AND` and every rule has one consequent, as
//! in both of the paper's rule bases.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};

/// One `variable IS term` assignment: an antecedent condition or the
/// consequent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Clause {
    /// Variable name (lowercased).
    variable: String,
    /// Term name within that variable (lowercased).
    term: String,
}

impl Clause {
    /// Creates the clause `variable IS term`.
    #[must_use]
    pub fn is(variable: impl Into<String>, term: impl Into<String>) -> Self {
        Self {
            variable: variable.into().to_ascii_lowercase(),
            term: term.into().to_ascii_lowercase(),
        }
    }

    /// The referenced variable name.
    #[must_use]
    pub fn variable(&self) -> &str {
        &self.variable
    }

    /// The referenced term name.
    #[must_use]
    pub fn term(&self) -> &str {
        &self.term
    }
}

impl std::fmt::Display for Clause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} IS {}", self.variable, self.term)
    }
}

/// A complete fuzzy rule: `AND`-joined antecedent clauses and one
/// consequent.
///
/// Construct with [`Rule::when`]:
///
/// ```
/// use facs_fuzzy::Rule;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let rule = Rule::when("speed", "slow")
///     .and("angle", "st")
///     .and("dist", "n")
///     .then("cv", "cv9")
///     .label("r6")
///     .build()?;
/// assert_eq!(rule.clauses().len(), 3);
/// assert_eq!(rule.to_string(), "RULE r6: IF speed IS slow AND angle IS st AND dist IS n THEN cv IS cv9");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    label: Option<String>,
    clauses: Vec<Clause>,
    consequent: Clause,
}

impl Rule {
    /// Starts a rule whose first clause is `variable IS term`.
    #[must_use]
    pub fn when(variable: impl Into<String>, term: impl Into<String>) -> RuleBuilder {
        RuleBuilder {
            label: None,
            clauses: vec![Clause::is(variable, term)],
            consequents: Vec::new(),
        }
    }

    /// Optional human-readable label (e.g. the paper's rule number).
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The antecedent clauses.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The consequent.
    #[must_use]
    pub fn consequent(&self) -> &Clause {
        &self.consequent
    }
}

impl std::fmt::Display for Rule {
    /// Formats the rule as one line of the paper's rule tables, e.g.
    /// `RULE r6: IF s IS sl AND a IS st THEN cv IS cv9`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(label) = &self.label {
            write!(f, "RULE {label}: ")?;
        }
        write!(f, "IF ")?;
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{clause}")?;
        }
        write!(f, " THEN {}", self.consequent)
    }
}

/// Builder for [`Rule`].
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    label: Option<String>,
    clauses: Vec<Clause>,
    consequents: Vec<Clause>,
}

impl RuleBuilder {
    /// Adds an `AND variable IS term` clause.
    #[must_use]
    pub fn and(mut self, variable: impl Into<String>, term: impl Into<String>) -> Self {
        self.clauses.push(Clause::is(variable, term));
        self
    }

    /// Sets the consequent `variable IS term`.
    #[must_use]
    pub fn then(mut self, variable: impl Into<String>, term: impl Into<String>) -> Self {
        self.consequents.push(Clause::is(variable, term));
        self
    }

    /// Attaches a label, typically the paper's rule number.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Finishes the rule.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::InvalidMembership`] unless exactly one consequent
    /// was set with [`then`](RuleBuilder::then).
    pub fn build(mut self) -> Result<Rule> {
        if self.consequents.len() != 1 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "a rule needs exactly one consequent (got {})",
                    self.consequents.len()
                ),
            });
        }
        Ok(Rule {
            label: self.label,
            clauses: self.clauses,
            consequent: self.consequents.remove(0),
        })
    }
}

/// An ordered collection of rules.
///
/// The base itself is engine-agnostic; name resolution against variables
/// happens when an [`Engine`](crate::engine::Engine) is built.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleBase {
    rules: Vec<Rule>,
}

impl RuleBase {
    /// Appends a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the base holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules, in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Rule> {
        self.rules.iter()
    }
}

impl FromIterator<Rule> for RuleBase {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Self { rules: iter.into_iter().collect() }
    }
}

impl Extend<Rule> for RuleBase {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
    }
}

impl<'a> IntoIterator for &'a RuleBase {
    type Item = &'a Rule;
    type IntoIter = std::slice::Iter<'a, Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_paper_rule_shape() {
        let rule =
            Rule::when("S", "Sl").and("A", "St").and("D", "N").then("Cv", "Cv9").build().unwrap();
        assert_eq!(rule.clauses().len(), 3);
        assert_eq!(rule.consequent().variable(), "cv");
        assert_eq!(rule.consequent().term(), "cv9");
        assert_eq!(rule.to_string(), "IF s IS sl AND a IS st AND d IS n THEN cv IS cv9");
    }

    #[test]
    fn names_are_lowercased() {
        let c = Clause::is("Speed", "SLOW");
        assert_eq!(c.variable(), "speed");
        assert_eq!(c.term(), "slow");
    }

    #[test]
    fn missing_consequent_rejected() {
        assert!(Rule::when("a", "x").build().is_err());
    }

    #[test]
    fn multiple_consequents() {
        // Every rule of FRB1 and FRB2 drives one output term; a second
        // consequent is rejected rather than silently dropped.
        let err = Rule::when("a", "x").then("o1", "t1").then("o2", "t2").build();
        assert!(matches!(err, Err(FuzzyError::InvalidMembership { .. })));
    }

    #[test]
    fn rulebase_collects_and_iterates() {
        let base: RuleBase = (0..5)
            .map(|i| {
                Rule::when("a", "x")
                    .then("o", format!("t{i}"))
                    .label(format!("r{i}"))
                    .build()
                    .unwrap()
            })
            .collect();
        assert_eq!(base.len(), 5);
        assert!(!base.is_empty());
        let labels: Vec<_> = base.iter().filter_map(Rule::label).collect();
        assert_eq!(labels, ["r0", "r1", "r2", "r3", "r4"]);
    }
}
