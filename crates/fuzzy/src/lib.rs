//! # facs-fuzzy — a Mamdani fuzzy-inference engine
//!
//! This crate implements the Fuzzy Logic Controller (FLC) structure of
//! Barolli et al., *"A Fuzzy-based Call Admission Control System for
//! Wireless Cellular Networks"* (ICDCSW 2007), Fig. 2: a **fuzzifier**, an
//! **inference engine**, a **fuzzy rule base**, and a **defuzzifier** —
//! generalized into a reusable library.
//!
//! It is self-contained (no fuzzy-logic dependency exists in the ecosystem
//! at the quality bar this project needs) and deterministic: the same
//! inputs always produce the same outputs, which the simulation substrate
//! relies on.
//!
//! ## Quick tour
//!
//! ```
//! use facs_fuzzy::{Engine, MembershipFunction, Variable, parse_rules};
//!
//! # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
//! // 1. Declare linguistic variables (paper Fig. 5a: user speed).
//! let speed = Variable::builder("speed", 0.0, 120.0)
//!     .term("slow", MembershipFunction::trapezoidal(0.0, 15.0, 0.0, 15.0)?)
//!     .term("middle", MembershipFunction::triangular(30.0, 15.0, 30.0)?)
//!     .term("fast", MembershipFunction::trapezoidal(60.0, 120.0, 30.0, 0.0)?)
//!     .build()?;
//! let risk = Variable::builder("risk", 0.0, 1.0)
//!     .uniform_partition("r", 3)
//!     .build()?;
//!
//! // 2. Write rules — programmatically or in the textual DSL.
//! let rules = parse_rules(
//!     "IF speed IS slow   THEN risk IS r3\n\
//!      IF speed IS middle THEN risk IS r2\n\
//!      IF speed IS fast   THEN risk IS r1\n",
//! )?;
//!
//! // 3. Compile and evaluate.
//! let engine = Engine::builder().input(speed).output(risk).rules(rules).build()?;
//! let risk_at_90 = engine.evaluate_single(&[("speed", 90.0)])?;
//! assert!(risk_at_90 < 0.25);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! * [`membership`] — the paper's triangular and trapezoidal shapes.
//! * [`term`] / [`variable`] — linguistic terms and variables.
//! * [`norms`] — T-norms, S-norms and implication operators.
//! * [`rule`] — rules, builders and rule bases.
//! * [`dsl`] — the `IF x IS a AND ... THEN y IS b` text format.
//! * [`set`] — sampled fuzzy sets (the aggregation surface).
//! * [`defuzz`] — centroid, bisector, maxima and weighted-average
//!   defuzzifiers.
//! * [`engine`] — the compiled controller.
//! * [`backend`] — pluggable inference backends: exact Mamdani per
//!   query, or a precomputed decision surface answered by multilinear
//!   interpolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod defuzz;
pub mod dsl;
pub mod engine;
pub mod error;
pub mod membership;
pub mod norms;
pub mod rule;
pub mod set;
pub mod term;
pub mod variable;

pub use backend::{BackendKind, CompiledSurface, InferenceBackend, DEFAULT_LATTICE_POINTS};
pub use defuzz::{Defuzzifier, DEFAULT_RESOLUTION};
pub use dsl::{parse_rule, parse_rules};
pub use engine::{Engine, EngineBuilder, InferenceConfig, Outcome, OutputValue};
pub use error::{FuzzyError, Result};
pub use membership::MembershipFunction;
pub use norms::{Implication, SNorm, TNorm};
pub use rule::{Clause, Connective, Consequent, Rule, RuleBase, RuleBuilder};
pub use set::SampledSet;
pub use term::Term;
pub use variable::{Variable, VariableBuilder};

/// Commonly used items, for glob import in applications and examples.
pub mod prelude {
    pub use crate::backend::{BackendKind, CompiledSurface, InferenceBackend};
    pub use crate::defuzz::Defuzzifier;
    pub use crate::dsl::{parse_rule, parse_rules};
    pub use crate::engine::{Engine, InferenceConfig, Outcome};
    pub use crate::error::{FuzzyError, Result};
    pub use crate::membership::MembershipFunction;
    pub use crate::norms::{Implication, SNorm, TNorm};
    pub use crate::rule::{Rule, RuleBase};
    pub use crate::variable::Variable;
}
