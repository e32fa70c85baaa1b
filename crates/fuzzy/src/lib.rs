//! # facs-fuzzy — the Mamdani inference engine behind FLC1 and FLC2
//!
//! This crate implements the Fuzzy Logic Controller (FLC) structure of
//! Barolli et al., *"A Fuzzy-based Call Admission Control System for
//! Wireless Cellular Networks"* (ICDCSW 2007), Fig. 2: a **fuzzifier**, an
//! **inference engine**, a **fuzzy rule base**, and a **defuzzifier**.
//!
//! It implements the paper's one design and the two variations its
//! ablation experiments measure: single-output engines, `AND`-only rules
//! with one consequent each, `min` implication, `max` aggregation over a
//! 501-sample surface, a `min` or product conjunction, and centroid,
//! bisector, mean-of-maxima or weighted-average defuzzification. It is
//! self-contained and deterministic: the same inputs always produce the
//! same outputs, which the simulation substrate relies on.
//!
//! ## Quick tour
//!
//! ```
//! use facs_fuzzy::{Engine, MembershipFunction, Rule, Variable};
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
//! // 2. Write rules.
//! let rules = [("slow", "r3"), ("middle", "r2"), ("fast", "r1")]
//!     .map(|(s, r)| Rule::when("speed", s).then("risk", r).build());
//!
//! // 3. Compile and evaluate; readings follow input declaration order.
//! let engine = Engine::builder()
//!     .input(speed)
//!     .output(risk)
//!     .rules(rules.into_iter().collect::<Result<Vec<_>, _>>()?)
//!     .build()?;
//! let risk_at_90 = engine.evaluate_crisp(&[90.0])?;
//! assert!(risk_at_90 < 0.25);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! * [`membership`] — the paper's triangular and trapezoidal shapes.
//! * [`term`] / [`variable`] — linguistic terms and variables.
//! * [`norms`] — the conjunction T-norms (`min`, product).
//! * [`rule`] — `AND` rules, their builder and rule bases.
//! * [`set`] — sampled fuzzy sets (the aggregation surface).
//! * [`defuzz`] — centroid, bisector, mean-of-maxima and weighted-average
//!   defuzzifiers.
//! * [`engine`] — the compiled controller.
//! * [`backend`] — the two inference backends: exact Mamdani per
//!   query, or a precomputed decision surface answered by multilinear
//!   interpolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod defuzz;
pub mod engine;
pub mod error;
pub mod membership;
pub mod norms;
pub mod rule;
pub mod set;
pub mod term;
pub mod variable;

pub use backend::{BackendKind, CompiledSurface, DEFAULT_LATTICE_POINTS};
pub use defuzz::{Defuzzifier, RESOLUTION};
pub use engine::{Engine, EngineBuilder, InferenceConfig};
pub use error::{FuzzyError, Result};
pub use membership::MembershipFunction;
pub use norms::TNorm;
pub use rule::{Clause, Rule, RuleBase, RuleBuilder};
pub use set::SampledSet;
pub use term::Term;
pub use variable::{Variable, VariableBuilder};

/// Commonly used items, for glob import in applications and examples.
pub mod prelude {
    pub use crate::backend::{BackendKind, CompiledSurface};
    pub use crate::defuzz::Defuzzifier;
    pub use crate::engine::{Engine, InferenceConfig};
    pub use crate::error::{FuzzyError, Result};
    pub use crate::membership::MembershipFunction;
    pub use crate::norms::TNorm;
    pub use crate::rule::{Rule, RuleBase};
    pub use crate::variable::Variable;
}
