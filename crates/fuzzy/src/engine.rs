//! The Mamdani inference engine: fuzzifier, inference, rule base, and
//! defuzzifier composed behind one API (the FLC structure of paper Fig. 2).

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::defuzz::{Defuzzifier, RESOLUTION};
use crate::error::{FuzzyError, Result};
use crate::norms::TNorm;
use crate::rule::{Clause, Rule, RuleBase};
use crate::set::SampledSet;
use crate::variable::Variable;

/// The selectable operators of the inference pipeline.
///
/// The default is the paper's: `min` conjunction and centroid
/// defuzzification. The `min` implication, the `max` aggregation and the
/// [`RESOLUTION`]-sample aggregation surface are fixed. The two knobs
/// exist for the `ablation-tnorm` and `ablation-defuzz` experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// Conjunction operator for the `AND`-joined antecedents.
    pub tnorm: TNorm,
    /// Defuzzification strategy.
    pub defuzzifier: Defuzzifier,
}

/// A rule with every name resolved to indices — built once, evaluated hot.
#[derive(Debug, Clone)]
struct CompiledRule {
    /// Index of each antecedent's membership in the flattened scratch
    /// membership buffer.
    clauses: Vec<usize>,
    /// Index of the consequent term in the output variable.
    consequent: usize,
}

/// Reusable evaluation buffers, one set per thread.
///
/// Inference needs several short-lived vectors (clamped readings, term
/// memberships, rule firings, consequent clips, the aggregation
/// surface). Allocating them per call dominated the exact backend's
/// profile, so they live in a thread-local pool instead:
/// `Engine::evaluate_crisp` stays `&self` (the engine remains
/// `Send + Sync` and shareable across threads) while the steady-state hot
/// path allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// Clamped input readings, in declaration order.
    readings: Vec<f64>,
    /// Flattened `memberships[term_offset(input) + term]`.
    memberships: Vec<f64>,
    /// Firing strength per rule.
    firings: Vec<f64>,
    /// Clip level per output term: the strongest firing among the rules
    /// that conclude it.
    clips: Vec<f64>,
    /// `(strength, representative)` pairs for weighted-average defuzz.
    activations: Vec<(f64, f64)>,
    /// Aggregation surfaces, one per distinct output universe seen on
    /// this thread — so engines with different output universes (e.g.
    /// the FLC1 → FLC2 cascade) each keep their own buffer instead of
    /// evicting each other's.
    surfaces: Vec<SampledSet>,
}

/// Upper bound on distinct scratch surfaces kept per thread; beyond it
/// the oldest slot is recycled (threads normally alternate between a
/// handful of engines, so this is never hit in practice).
const MAX_SCRATCH_SURFACES: usize = 8;

impl Scratch {
    /// A zeroed surface over `var`'s universe from `surfaces`, reusing a
    /// cached buffer when one matches. (Takes the field rather than
    /// `&mut self` so callers can hold other scratch fields at the same
    /// time.)
    fn surface_for_in<'a>(
        surfaces: &'a mut Vec<SampledSet>,
        var: &Variable,
    ) -> Result<&'a mut SampledSet> {
        if let Some(i) = surfaces.iter().position(|s| s.min() == var.min() && s.max() == var.max())
        {
            let surface = &mut surfaces[i];
            surface.zero();
            return Ok(surface);
        }
        let fresh = SampledSet::empty(var.min(), var.max(), RESOLUTION)?;
        if surfaces.len() >= MAX_SCRATCH_SURFACES {
            surfaces[0] = fresh;
            return Ok(&mut surfaces[0]);
        }
        surfaces.push(fresh);
        Ok(surfaces.last_mut().expect("just pushed"))
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A compiled single-output Mamdani fuzzy-logic controller.
///
/// Build with [`Engine::builder`]; evaluate with [`Engine::evaluate_crisp`]:
///
/// ```
/// use facs_fuzzy::{Engine, MembershipFunction, Rule, Variable};
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let service = Variable::builder("service", 0.0, 10.0)
///     .term("poor", MembershipFunction::triangular(0.0, 0.0, 5.0)?)
///     .term("good", MembershipFunction::triangular(5.0, 5.0, 5.0)?)
///     .term("excellent", MembershipFunction::triangular(10.0, 5.0, 0.0)?)
///     .build()?;
/// let tip = Variable::builder("tip", 0.0, 30.0)
///     .term("low", MembershipFunction::triangular(5.0, 5.0, 5.0)?)
///     .term("medium", MembershipFunction::triangular(15.0, 5.0, 5.0)?)
///     .term("high", MembershipFunction::triangular(25.0, 5.0, 5.0)?)
///     .build()?;
/// let engine = Engine::builder()
///     .input(service)
///     .output(tip)
///     .rule(Rule::when("service", "poor").then("tip", "low").build()?)
///     .rule(Rule::when("service", "good").then("tip", "medium").build()?)
///     .rule(Rule::when("service", "excellent").then("tip", "high").build()?)
///     .build()?;
/// let tip = engine.evaluate_crisp(&[10.0])?;
/// assert!(tip > 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    inputs: Vec<Variable>,
    output: Variable,
    rule_base: RuleBase,
    compiled: Vec<CompiledRule>,
    /// `term_samples[t * RESOLUTION + i]`: output term `t`'s membership
    /// at sample `i` of the aggregation surface, computed once at build.
    term_samples: Vec<f64>,
    config: InferenceConfig,
}

impl Engine {
    /// Starts building an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The input variables, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[Variable] {
        &self.inputs
    }

    /// The output variable.
    #[must_use]
    pub fn output(&self) -> &Variable {
        &self.output
    }

    /// The rule base the engine was compiled from.
    #[must_use]
    pub fn rule_base(&self) -> &RuleBase {
        &self.rule_base
    }

    /// The inference configuration.
    #[must_use]
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Runs one inference pass over positional readings and returns the
    /// output's crisp value.
    ///
    /// `readings` pairs with the input variables **in declaration order**
    /// and each value is clamped into its variable's universe. This is
    /// the allocation-free hot path behind the admission cascade and the
    /// compiled-surface builder: all intermediate buffers (including the
    /// aggregation surface) come from a per-thread scratch pool, so the
    /// steady state performs no heap allocation.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::MissingInput`] — fewer readings than inputs;
    /// * [`FuzzyError::UnknownVariable`] — more readings than inputs;
    /// * [`FuzzyError::NonFiniteInput`] — a reading is NaN or infinite;
    /// * [`FuzzyError::NoRuleFired`] — no rule fired.
    pub fn evaluate_crisp(&self, readings: &[f64]) -> Result<f64> {
        if readings.len() < self.inputs.len() {
            return Err(FuzzyError::MissingInput {
                variable: self.inputs[readings.len()].name().to_owned(),
            });
        }
        if readings.len() > self.inputs.len() {
            return Err(FuzzyError::UnknownVariable {
                variable: format!("positional input #{}", self.inputs.len()),
            });
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.readings.clear();
            for (var, &value) in self.inputs.iter().zip(readings) {
                if !value.is_finite() {
                    return Err(FuzzyError::NonFiniteInput {
                        variable: var.name().to_owned(),
                        value,
                    });
                }
                scratch.readings.push(var.clamp(value));
            }
            self.fuzzify_into(scratch);
            let Scratch { memberships, firings, .. } = scratch;
            firings.clear();
            firings.extend(
                self.compiled.iter().map(|rule| {
                    self.config.tnorm.fold(rule.clauses.iter().map(|&m| memberships[m]))
                }),
            );
            if self.config.defuzzifier.needs_surface() {
                let Scratch { firings, clips, surfaces, .. } = scratch;
                let surface = Scratch::surface_for_in(surfaces, &self.output)?;
                if self.accumulate_surface(firings, clips, surface) {
                    self.crisp_of_surface(surface)
                } else {
                    Err(self.no_rule_fired())
                }
            } else {
                self.crisp_weighted(&scratch.firings, &mut scratch.activations)
            }
        })
    }

    /// Membership of each reading in each term, flattened into
    /// `scratch.memberships`.
    fn fuzzify_into(&self, scratch: &mut Scratch) {
        scratch.memberships.clear();
        for (var, &x) in self.inputs.iter().zip(&scratch.readings) {
            scratch.memberships.extend(var.terms().iter().map(|t| t.membership(x)));
        }
    }

    /// Aggregates every firing consequent into `surface` (which must
    /// already be zeroed and shaped to the output universe): `min`
    /// implication clips each consequent at its rule's strength and `max`
    /// aggregation merges the clipped sets. Returns `false` when no rule
    /// fired.
    ///
    /// Rules sharing a consequent are grouped first: for strengths and
    /// memberships in `[0, 1]`, `max_r min(s_r, μ) = min(max_r s_r, μ)`
    /// holds exactly (`min` and `max` only select an operand), so each
    /// output term is clipped once at its strongest firing and merged
    /// from its precomputed samples — the same surface, bit for bit, as
    /// merging rule by rule.
    fn accumulate_surface(
        &self,
        firings: &[f64],
        clips: &mut Vec<f64>,
        surface: &mut SampledSet,
    ) -> bool {
        clips.clear();
        clips.resize(self.output.terms().len(), 0.0);
        for (rule, &strength) in self.compiled.iter().zip(firings) {
            clips[rule.consequent] = clips[rule.consequent].max(strength);
        }
        let mut any_mass = false;
        for (&clip, samples) in clips.iter().zip(self.term_samples.chunks_exact(RESOLUTION)) {
            if clip > 0.0 {
                any_mass = true;
                surface.merge_clipped(clip, samples);
            }
        }
        any_mass
    }

    /// Defuzzifies an aggregated surface, naming the output in a
    /// `NoRuleFired` error.
    fn crisp_of_surface(&self, surface: &SampledSet) -> Result<f64> {
        self.config.defuzzifier.crisp(surface).map_err(|e| match e {
            FuzzyError::NoRuleFired { .. } => self.no_rule_fired(),
            other => other,
        })
    }

    fn no_rule_fired(&self) -> FuzzyError {
        FuzzyError::NoRuleFired { variable: self.output.name().to_owned() }
    }

    /// Weighted-average defuzzification, reusing the scratch activation
    /// buffer.
    fn crisp_weighted(&self, firings: &[f64], activations: &mut Vec<(f64, f64)>) -> Result<f64> {
        let var = &self.output;
        activations.clear();
        for (rule, &strength) in self.compiled.iter().zip(firings) {
            if strength > 0.0 {
                let mf = var.terms()[rule.consequent].function();
                activations.push((strength, mf.representative(var.min(), var.max())));
            }
        }
        match self.config.defuzzifier.crisp_from_activations(activations) {
            Ok(crisp) => Ok(crisp.clamp(var.min(), var.max())),
            Err(FuzzyError::NoRuleFired { .. }) => Err(self.no_rule_fired()),
            Err(other) => Err(other),
        }
    }
}

/// Builder for [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    inputs: Vec<Variable>,
    outputs: Vec<Variable>,
    rules: RuleBase,
    config: InferenceConfig,
}

impl EngineBuilder {
    /// Adds an input variable.
    #[must_use]
    pub fn input(mut self, variable: Variable) -> Self {
        self.inputs.push(variable);
        self
    }

    /// Sets the output variable.
    #[must_use]
    pub fn output(mut self, variable: Variable) -> Self {
        self.outputs.push(variable);
        self
    }

    /// Appends one rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends every rule of `rules`.
    #[must_use]
    pub fn rules(mut self, rules: impl IntoIterator<Item = Rule>) -> Self {
        self.rules.extend(rules);
        self
    }

    /// Sets the inference configuration.
    #[must_use]
    pub fn config(mut self, config: InferenceConfig) -> Self {
        self.config = config;
        self
    }

    /// Compiles and validates the engine.
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::InvalidMembership`] — not exactly one output;
    /// * [`FuzzyError::DuplicateVariable`] — a name used twice across
    ///   inputs and output;
    /// * [`FuzzyError::EmptyRuleBase`] — no rules;
    /// * [`FuzzyError::UnknownVariable`] / [`FuzzyError::UnknownTerm`] — a
    ///   rule references something undeclared.
    pub fn build(mut self) -> Result<Engine> {
        if self.outputs.len() != 1 {
            return Err(FuzzyError::InvalidMembership {
                reason: format!(
                    "an engine has exactly one output variable (got {})",
                    self.outputs.len()
                ),
            });
        }
        let output = self.outputs.remove(0);
        let names: Vec<&str> =
            self.inputs.iter().chain(std::iter::once(&output)).map(Variable::name).collect();
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Err(FuzzyError::DuplicateVariable { variable: (*name).to_owned() });
            }
        }
        if self.rules.is_empty() {
            return Err(FuzzyError::EmptyRuleBase);
        }

        let mut term_offsets = Vec::with_capacity(self.inputs.len());
        let mut total_terms = 0;
        for v in &self.inputs {
            term_offsets.push(total_terms);
            total_terms += v.terms().len();
        }
        let mut compiled = Vec::with_capacity(self.rules.len());
        for rule in self.rules.iter() {
            let mut clauses = Vec::with_capacity(rule.clauses().len());
            for clause in rule.clauses() {
                let input =
                    self.inputs.iter().position(|v| v.name() == clause.variable()).ok_or_else(
                        || FuzzyError::UnknownVariable { variable: clause.variable().to_owned() },
                    )?;
                clauses.push(term_offsets[input] + term_index(&self.inputs[input], clause)?);
            }
            let consequent = rule.consequent();
            if consequent.variable() != output.name() {
                return Err(FuzzyError::UnknownVariable {
                    variable: consequent.variable().to_owned(),
                });
            }
            compiled.push(CompiledRule { clauses, consequent: term_index(&output, consequent)? });
        }
        let mut term_samples = Vec::with_capacity(output.terms().len() * RESOLUTION);
        for term in output.terms() {
            let mf = term.function();
            let sampled =
                SampledSet::from_fn(output.min(), output.max(), RESOLUTION, |x| mf.evaluate(x))?;
            term_samples.extend_from_slice(sampled.values());
        }

        Ok(Engine {
            inputs: self.inputs,
            output,
            rule_base: self.rules,
            compiled,
            term_samples,
            config: self.config,
        })
    }
}

/// The index of `clause`'s term in `var`, or [`FuzzyError::UnknownTerm`].
fn term_index(var: &Variable, clause: &Clause) -> Result<usize> {
    var.term_index(clause.term()).ok_or_else(|| FuzzyError::UnknownTerm {
        variable: clause.variable().to_owned(),
        term: clause.term().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipFunction;

    fn tri(c: f64, l: f64, r: f64) -> MembershipFunction {
        MembershipFunction::triangular(c, l, r).unwrap()
    }

    fn tipper() -> Engine {
        let service = Variable::builder("service", 0.0, 10.0)
            .term("poor", tri(0.0, 0.0, 5.0))
            .term("good", tri(5.0, 5.0, 5.0))
            .term("excellent", tri(10.0, 5.0, 0.0))
            .build()
            .unwrap();
        let food = Variable::builder("food", 0.0, 10.0)
            .term("rancid", tri(0.0, 0.0, 10.0))
            .term("delicious", tri(10.0, 10.0, 0.0))
            .build()
            .unwrap();
        let tip = Variable::builder("tip", 0.0, 30.0)
            .term("low", tri(5.0, 5.0, 5.0))
            .term("medium", tri(15.0, 5.0, 5.0))
            .term("high", tri(25.0, 5.0, 5.0))
            .build()
            .unwrap();
        let rule = |service: &str, food: Option<&str>, tip: &str| {
            let builder = Rule::when("service", service);
            let builder = match food {
                Some(food) => builder.and("food", food),
                None => builder,
            };
            builder.then("tip", tip).build().unwrap()
        };
        Engine::builder()
            .input(service)
            .input(food)
            .output(tip)
            .rule(rule("poor", None, "low"))
            .rule(rule("good", None, "medium"))
            .rule(rule("excellent", Some("rancid"), "medium"))
            .rule(rule("excellent", Some("delicious"), "high"))
            .build()
            .unwrap()
    }

    /// A one-input engine with two rules mapping `lo`/`hi` to the output
    /// terms `low`/`high`, under the given defuzzifier.
    fn ramp(low: MembershipFunction, high: MembershipFunction, defuzzifier: Defuzzifier) -> Engine {
        let x = Variable::builder("x", 0.0, 1.0)
            .term("lo", tri(0.0, 0.0, 1.0))
            .term("hi", tri(1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let y = Variable::builder("y", -1.0, 1.0).term("low", low).term("high", high).build();
        Engine::builder()
            .input(x)
            .output(y.unwrap())
            .rule(Rule::when("x", "lo").then("y", "low").build().unwrap())
            .rule(Rule::when("x", "hi").then("y", "high").build().unwrap())
            .config(InferenceConfig { defuzzifier, ..InferenceConfig::default() })
            .build()
            .unwrap()
    }

    #[test]
    fn tipper_extremes() {
        let engine = tipper();
        let low = engine.evaluate_crisp(&[0.0, 0.0]).unwrap();
        let high = engine.evaluate_crisp(&[10.0, 10.0]).unwrap();
        assert!(low < 8.0, "terrible service should tip low, got {low}");
        assert!(high > 22.0, "excellent service should tip high, got {high}");
    }

    #[test]
    fn tipper_midpoint_is_medium() {
        let engine = tipper();
        let mid = engine.evaluate_crisp(&[5.0, 5.0]).unwrap();
        assert!((mid - 15.0).abs() < 2.0, "mid service should tip ~15, got {mid}");
    }

    #[test]
    fn evaluate_crisp_reports_arity_errors() {
        let engine = tipper();
        assert_eq!(
            engine.evaluate_crisp(&[5.0]).unwrap_err(),
            FuzzyError::MissingInput { variable: "food".into() }
        );
        assert!(matches!(
            engine.evaluate_crisp(&[5.0, 5.0, 5.0]).unwrap_err(),
            FuzzyError::UnknownVariable { .. }
        ));
        assert!(matches!(
            engine.evaluate_crisp(&[f64::NAN, 5.0]).unwrap_err(),
            FuzzyError::NonFiniteInput { .. }
        ));
    }

    #[test]
    fn alternating_engines_with_different_universes_stay_correct() {
        // The FLC1 → FLC2 cascade alternates two engines with different
        // output universes on one thread; each must keep its own scratch
        // surface (universe-keyed pool) and produce the same results as
        // when evaluated in isolation.
        let tipper = tipper();
        let other = ramp(tri(-1.0, 0.0, 2.0), tri(1.0, 2.0, 0.0), Defuzzifier::Centroid);
        let tip_alone = tipper.evaluate_crisp(&[6.5, 4.0]).unwrap();
        let other_alone = other.evaluate_crisp(&[0.3]).unwrap();
        for _ in 0..3 {
            assert_eq!(tipper.evaluate_crisp(&[6.5, 4.0]).unwrap(), tip_alone);
            assert_eq!(other.evaluate_crisp(&[0.3]).unwrap(), other_alone);
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        let x = Variable::builder("X", 0.0, 1.0)
            .term("Lo", tri(0.0, 0.0, 1.0))
            .term("HI", tri(1.0, 1.0, 0.0))
            .build()
            .unwrap();
        let y = Variable::builder("Y", -1.0, 1.0)
            .term("LOW", tri(-1.0, 0.0, 2.0))
            .term("high", tri(1.0, 2.0, 0.0))
            .build()
            .unwrap();
        let shouting = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "LO").then("y", "Low").build().unwrap())
            .rule(Rule::when("X", "hi").then("Y", "HIGH").build().unwrap())
            .build()
            .unwrap();
        let lower = ramp(tri(-1.0, 0.0, 2.0), tri(1.0, 2.0, 0.0), Defuzzifier::Centroid);
        for x in [0.0, 0.3, 0.8] {
            assert_eq!(shouting.evaluate_crisp(&[x]).unwrap(), lower.evaluate_crisp(&[x]).unwrap());
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        let err = tipper().evaluate_crisp(&[5.0]).unwrap_err();
        assert_eq!(err, FuzzyError::MissingInput { variable: "food".into() });
    }

    #[test]
    fn unknown_input_is_an_error() {
        let err = tipper().evaluate_crisp(&[5.0, 5.0, 5.0]).unwrap_err();
        assert_eq!(err, FuzzyError::UnknownVariable { variable: "positional input #2".into() });
    }

    #[test]
    fn non_finite_input_is_an_error() {
        let err = tipper().evaluate_crisp(&[f64::NAN, 5.0]).unwrap_err();
        assert!(matches!(err, FuzzyError::NonFiniteInput { .. }));
    }

    #[test]
    fn out_of_universe_inputs_are_clamped() {
        let engine = tipper();
        let a = engine.evaluate_crisp(&[100.0, 10.0]).unwrap();
        let b = engine.evaluate_crisp(&[10.0, 10.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_average_skips_surface() {
        // Halfway between two symmetric triangles the weighted average is
        // their midpoint, computed from the two anchors alone.
        let engine = ramp(tri(-0.5, 0.5, 0.5), tri(0.5, 0.5, 0.5), Defuzzifier::WeightedAverage);
        assert!(engine.evaluate_crisp(&[0.5]).unwrap().abs() < 1e-12);
        assert!((engine.evaluate_crisp(&[0.25]).unwrap() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_anchors_edge_terms_inside_the_universe() {
        // FLC2's R term, whose plateau [-2, -1] runs off the [-1, 1]
        // universe, anchors at -1; with an interior term at 0 firing
        // equally the average is -0.5, not the -0.75 that anchoring at
        // the plateau midpoint -1.5 gave.
        let reject = MembershipFunction::trapezoidal(-2.0, -1.0, 0.0, 0.5).unwrap();
        let engine = ramp(reject, tri(0.0, 0.5, 0.5), Defuzzifier::WeightedAverage);
        assert_eq!(engine.evaluate_crisp(&[0.5]).unwrap(), -0.5);
    }

    #[test]
    fn no_rule_fired_without_fallback_errors() {
        let x = Variable::builder("x", 0.0, 10.0).term("left", tri(0.0, 0.0, 2.0)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let engine = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "left").then("y", "t").build().unwrap())
            .build()
            .unwrap();
        let err = engine.evaluate_crisp(&[9.0]).unwrap_err();
        assert_eq!(err, FuzzyError::NoRuleFired { variable: "y".into() });
    }

    #[test]
    fn build_rejects_unknown_rule_references() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        // Unknown variable in antecedent.
        let err = Engine::builder()
            .input(x.clone())
            .output(y.clone())
            .rule(Rule::when("z", "t").then("y", "t").build().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownVariable { .. }));
        // Unknown term in consequent.
        let err = Engine::builder()
            .input(x)
            .output(y)
            .rule(Rule::when("x", "t").then("y", "missing").build().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownTerm { .. }));
    }

    #[test]
    fn build_rejects_duplicate_and_empty() {
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let err =
            Engine::builder().input(x.clone()).input(x.clone()).output(y).build().unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateVariable { .. }));
        let err = Engine::builder().input(x.clone()).output(x.clone()).build().unwrap_err();
        assert!(matches!(err, FuzzyError::DuplicateVariable { .. }));
        let y = Variable::builder("y", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let err = Engine::builder().input(x).output(y).build().unwrap_err();
        assert_eq!(err, FuzzyError::EmptyRuleBase);
    }

    #[test]
    fn evaluate_crisp_rejects_multi_output() {
        // An engine has exactly one output, so a two-output (or
        // output-less) system is refused when built, before any query.
        let x = Variable::builder("x", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y1 = Variable::builder("y1", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let y2 = Variable::builder("y2", 0.0, 1.0).term("t", tri(0.5, 0.5, 0.5)).build().unwrap();
        let rule = Rule::when("x", "t").then("y1", "t").build().unwrap();
        let err =
            Engine::builder().input(x.clone()).output(y1).output(y2).rule(rule.clone()).build();
        assert!(matches!(err, Err(FuzzyError::InvalidMembership { .. })));
        let err = Engine::builder().input(x).rule(rule).build();
        assert!(matches!(err, Err(FuzzyError::InvalidMembership { .. })));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }
}
