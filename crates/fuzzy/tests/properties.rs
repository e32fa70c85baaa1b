//! Property-based tests over the fuzzy engine's core invariants.

use facs_fuzzy::{
    Defuzzifier, Engine, InferenceConfig, MembershipFunction, Rule, SampledSet, TNorm, Variable,
    RESOLUTION,
};
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |v| {
        let span = range.end - range.start;
        range.start + (v.abs() % span.max(f64::MIN_POSITIVE))
    })
}

/// A random triangular or trapezoidal shape placed in `[lo, lo + 10]`;
/// a zero left width (an edge term) comes up too.
fn shape(lo: f64) -> impl Strategy<Value = MembershipFunction> {
    (0usize..2, lo..lo + 10.0, 0.0_f64..3.0, 0.0_f64..5.0, 0.01_f64..5.0).prop_map(
        |(kind, x, top, left, right)| match kind {
            0 => MembershipFunction::triangular(x, left, right).unwrap(),
            _ => MembershipFunction::trapezoidal(x, x + top, left, right).unwrap(),
        },
    )
}

/// A variable over `[lo, lo + 10]` whose terms `{prefix}0, {prefix}1, …`
/// have the given shapes.
fn variable(name: &str, lo: f64, prefix: &str, shapes: &[MembershipFunction]) -> Variable {
    let mut builder = Variable::builder(name, lo, lo + 10.0);
    for (i, &mf) in shapes.iter().enumerate() {
        builder = builder.term(format!("{prefix}{i}"), mf);
    }
    builder.build().unwrap()
}

proptest! {
    /// Membership degrees never escape [0, 1], whatever the input.
    #[test]
    fn membership_always_in_unit_interval(
        center in -1e6_f64..1e6,
        left in 0.0_f64..1e6,
        right in 0.0_f64..1e6,
        x in prop::num::f64::ANY,
    ) {
        prop_assume!(left > 0.0 || right > 0.0);
        let mf = MembershipFunction::triangular(center, left, right).unwrap();
        let mu = mf.evaluate(x);
        prop_assert!((0.0..=1.0).contains(&mu), "mu={mu}");
    }

    /// Trapezoids are 1 on the whole flat top and 0 outside the support.
    #[test]
    fn trapezoid_top_and_support(
        left_top in -1e3_f64..1e3,
        top_len in 0.0_f64..1e3,
        lw in 0.001_f64..1e3,
        rw in 0.001_f64..1e3,
        t in 0.0_f64..1.0,
    ) {
        let right_top = left_top + top_len;
        let mf = MembershipFunction::trapezoidal(left_top, right_top, lw, rw).unwrap();
        let inside = left_top + t * top_len;
        prop_assert_eq!(mf.evaluate(inside), 1.0);
        prop_assert_eq!(mf.evaluate(left_top - lw - 1.0), 0.0);
        prop_assert_eq!(mf.evaluate(right_top + rw + 1.0), 0.0);
    }

    /// Triangles are monotonically non-decreasing on the rising flank and
    /// non-increasing on the falling flank.
    #[test]
    fn triangle_flanks_are_monotone(
        center in -100.0_f64..100.0,
        width in 0.1_f64..100.0,
        a in 0.0_f64..1.0,
        b in 0.0_f64..1.0,
    ) {
        let mf = MembershipFunction::triangular(center, width, width).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // Rising flank.
        let x0 = center - width + lo * width;
        let x1 = center - width + hi * width;
        prop_assert!(mf.evaluate(x0) <= mf.evaluate(x1) + 1e-12);
        // Falling flank.
        let x0 = center + lo * width;
        let x1 = center + hi * width;
        prop_assert!(mf.evaluate(x0) + 1e-12 >= mf.evaluate(x1));
    }

    /// Every T-norm result is bounded by min.
    #[test]
    fn norm_bounds(a in 0.0_f64..1.0, b in 0.0_f64..1.0) {
        for tn in [TNorm::Minimum, TNorm::Product] {
            prop_assert!(tn.apply(a, b) <= a.min(b) + 1e-12, "{tn:?}");
        }
    }

    /// T-norms are monotone in each argument.
    #[test]
    fn tnorm_monotone(a in 0.0_f64..1.0, b in 0.0_f64..1.0, c in 0.0_f64..1.0) {
        let (b_lo, b_hi) = if b <= c { (b, c) } else { (c, b) };
        for tn in [TNorm::Minimum, TNorm::Product] {
            prop_assert!(tn.apply(a, b_lo) <= tn.apply(a, b_hi) + 1e-12, "{tn:?}");
        }
    }

    /// All surface defuzzifiers return a value inside the universe.
    #[test]
    fn defuzzified_value_in_universe(
        min in -100.0_f64..0.0,
        span in 1.0_f64..100.0,
        peak in 0.0_f64..1.0,
        center_frac in 0.0_f64..1.0,
    ) {
        let max = min + span;
        let center = min + center_frac * span;
        let set = SampledSet::from_fn(min, max, 301, |x| {
            (peak - (x - center).abs() / span).max(0.0)
        }).unwrap();
        prop_assume!(!set.is_empty());
        for d in [Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMaxima] {
            let v = d.crisp(&set).unwrap();
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9, "{d:?} gave {v} outside [{min}, {max}]");
        }
    }

    /// The mean of maxima lies between the first and the last sample
    /// attaining the maximum.
    #[test]
    fn maxima_ordering(values in prop::collection::vec(0.0_f64..1.0, 16..64)) {
        let n = values.len();
        let set = SampledSet::from_fn(0.0, 1.0, n, move |x| {
            let idx = ((x * (n as f64 - 1.0)).round() as usize).min(n - 1);
            values[idx]
        }).unwrap();
        prop_assume!(!set.is_empty());
        let h = set.height();
        let at_max = |&v: &f64| (v - h).abs() <= 1e-9;
        let som = set.x_at(set.values().iter().position(at_max).unwrap());
        let lom = set.x_at(set.values().iter().rposition(at_max).unwrap());
        let mom = Defuzzifier::MeanOfMaxima.crisp(&set).unwrap();
        prop_assert!(som <= mom + 1e-9 && mom <= lom + 1e-9, "{som} {mom} {lom}");
    }

    /// A single-input engine with a complete partition always produces an
    /// output inside the output universe, for any input.
    #[test]
    fn engine_output_in_universe(x in -50.0_f64..200.0, out_span in 1.0_f64..100.0) {
        let input = Variable::builder("x", 0.0, 100.0).uniform_partition("p", 5).build().unwrap();
        let output = Variable::builder("y", 0.0, out_span).uniform_partition("q", 5).build().unwrap();
        let mut builder = Engine::builder().input(input).output(output);
        for i in 1..=5 {
            builder = builder.rule(
                Rule::when("x", format!("p{i}")).then("y", format!("q{}", 6 - i)).build().unwrap(),
            );
        }
        let engine = builder.build().unwrap();
        let y = engine.evaluate_crisp(&[x]).unwrap();
        prop_assert!(y >= 0.0 && y <= out_span, "y={y}");
    }

    /// The engine is monotone for a monotone rule base: larger input maps
    /// to a (weakly) larger output when rules map p_i -> q_i in order.
    #[test]
    fn engine_monotone_for_monotone_rules(a in 0.0_f64..100.0, b in 0.0_f64..100.0) {
        let input = Variable::builder("x", 0.0, 100.0).uniform_partition("p", 5).build().unwrap();
        let output = Variable::builder("y", 0.0, 1.0).uniform_partition("q", 5).build().unwrap();
        let mut builder = Engine::builder().input(input).output(output);
        for i in 1..=5 {
            builder = builder.rule(
                Rule::when("x", format!("p{i}")).then("y", format!("q{i}")).build().unwrap(),
            );
        }
        let engine = builder.build().unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let y_lo = engine.evaluate_crisp(&[lo]).unwrap();
        let y_hi = engine.evaluate_crisp(&[hi]).unwrap();
        prop_assert!(y_lo <= y_hi + 1e-6, "f({lo})={y_lo} > f({hi})={y_hi}");
    }

    /// Fuzzification of a uniform partition sums to 1 everywhere in the
    /// universe (Ruspini partition property).
    #[test]
    fn uniform_partition_sums_to_one(count in 2usize..12, frac in 0.0_f64..1.0) {
        let v = Variable::builder("v", 0.0, 10.0).uniform_partition("t", count).build().unwrap();
        let x = frac * 10.0;
        let sum: f64 = v.fuzzify(x).iter().map(|(_, mu)| mu).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum={sum} at x={x}");
    }

    /// `coverage` is positive across the whole universe for uniform
    /// partitions — no admission request can fall through the rule base.
    #[test]
    fn uniform_partition_has_no_holes(count in 2usize..12, frac in 0.0_f64..1.0) {
        let v = Variable::builder("v", -5.0, 5.0).uniform_partition("t", count).build().unwrap();
        let x = -5.0 + frac * 10.0;
        prop_assert!(v.coverage(x) > 0.0);
    }

    /// Weighted-average defuzzification equals the analytic expectation.
    #[test]
    fn weighted_average_is_exact(
        pairs in prop::collection::vec((0.01_f64..1.0, -10.0_f64..10.0), 1..8),
    ) {
        let expected: f64 = {
            let num: f64 = pairs.iter().map(|(s, r)| s * r).sum();
            let den: f64 = pairs.iter().map(|(s, _)| s).sum();
            num / den
        };
        let got = Defuzzifier::WeightedAverage.crisp_from_activations(&pairs).unwrap();
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// Centroid is translation-equivariant: shifting the universe shifts
    /// the centroid by the same amount.
    #[test]
    fn centroid_translation_equivariance(
        shift in -50.0_f64..50.0,
        center_frac in 0.1_f64..0.9,
    ) {
        let base = SampledSet::from_fn(0.0, 10.0, 501, |x| {
            (1.0 - (x - center_frac * 10.0).abs()).max(0.0)
        }).unwrap();
        let shifted = SampledSet::from_fn(shift, 10.0 + shift, 501, |x| {
            (1.0 - ((x - shift) - center_frac * 10.0).abs()).max(0.0)
        }).unwrap();
        let c0 = base.centroid().unwrap();
        let c1 = shifted.centroid().unwrap();
        prop_assert!((c1 - (c0 + shift)).abs() < 1e-6, "c0={c0} c1={c1} shift={shift}");
    }

    /// The engine clips each output term once, at the strongest firing
    /// among the rules that conclude it, and merges it from samples taken
    /// at build time. That must aggregate exactly as the Mamdani
    /// definition written rule by rule here — clip every firing rule's
    /// consequent at its strength (`min`), merge by `max` — so every
    /// surface defuzzifier agrees to the bit under both T-norms. Rules
    /// outnumber output terms, so consequents always repeat.
    #[test]
    fn grouped_aggregation_matches_rule_by_rule_reference(
        a_shapes in prop::collection::vec(shape(0.0), 2..5),
        b_shapes in prop::collection::vec(shape(0.0), 2..5),
        y_shapes in prop::collection::vec(shape(-5.0), 2..5),
        rules in prop::collection::vec((0usize..4, 0usize..5, 0usize..4, 0usize..2), 6..14),
        a in -1.0_f64..11.0,
        b in -1.0_f64..11.0,
    ) {
        let x_a = variable("a", 0.0, "p", &a_shapes);
        let x_b = variable("b", 0.0, "q", &b_shapes);
        let y = variable("y", -5.0, "r", &y_shapes);
        // (a term, b term or none, consequent term), indices in range.
        let rules: Vec<(usize, Option<usize>, usize)> = rules
            .into_iter()
            .map(|(i, j, k, both)| {
                (i % a_shapes.len(), (both == 1).then_some(j % b_shapes.len()), k % y_shapes.len())
            })
            .collect();
        let mu_a: Vec<f64> = a_shapes.iter().map(|mf| mf.evaluate(x_a.clamp(a))).collect();
        let mu_b: Vec<f64> = b_shapes.iter().map(|mf| mf.evaluate(x_b.clamp(b))).collect();
        for tnorm in [TNorm::Minimum, TNorm::Product] {
            let firings: Vec<f64> = rules
                .iter()
                .map(|&(i, j, _)| tnorm.fold(std::iter::once(mu_a[i]).chain(j.map(|j| mu_b[j]))))
                .collect();
            let reference = SampledSet::from_fn(y.min(), y.max(), RESOLUTION, |x| {
                let mut v = 0.0_f64;
                for (&(_, _, k), &s) in rules.iter().zip(&firings) {
                    if s > 0.0 {
                        v = v.max(s.min(y_shapes[k].evaluate(x)));
                    }
                }
                v
            })
            .unwrap();
            let surface_defuzzifiers =
                [Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMaxima];
            for defuzzifier in surface_defuzzifiers {
                let mut builder = Engine::builder()
                    .input(x_a.clone())
                    .input(x_b.clone())
                    .output(y.clone())
                    .config(InferenceConfig { tnorm, defuzzifier });
                for &(i, j, k) in &rules {
                    let when = Rule::when("a", format!("p{i}"));
                    let when = match j {
                        Some(j) => when.and("b", format!("q{j}")),
                        None => when,
                    };
                    builder = builder.rule(when.then("y", format!("r{k}")).build().unwrap());
                }
                let got = builder.build().unwrap().evaluate_crisp(&[a, b]).ok();
                let want = defuzzifier.crisp(&reference).ok();
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{:?}/{:?}: engine {:?}, reference {:?}", tnorm, defuzzifier, got, want
                );
            }
        }
    }
}

#[test]
fn finite_f64_helper_stays_in_range() {
    // Sanity-check the strategy helper itself (not a proptest).
    let _ = finite_f64(0.0..1.0);
}
