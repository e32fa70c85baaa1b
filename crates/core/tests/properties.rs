//! Property-based tests over the FACS cascade invariants, including
//! exact-vs-compiled backend equivalence.

use std::sync::OnceLock;

use facs::{FacsConfig, FacsController, Flc1, Flc2, HeadroomFacsController};
use facs_cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
    CellSnapshot, MobilityInfo, ServiceClass, ServiceProfile,
};
use facs_fuzzy::{BackendKind, InferenceConfig};
use proptest::prelude::*;
use proptest::strategy::Just;

fn arb_class() -> impl Strategy<Value = ServiceClass> {
    prop::sample::select(vec![ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video])
}

/// Compiled controllers are built once per process and shared across
/// property cases.
fn compiled_flc1() -> &'static Flc1 {
    static FLC1: OnceLock<Flc1> = OnceLock::new();
    FLC1.get_or_init(|| {
        Flc1::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap()
    })
}

fn compiled_flc2() -> &'static Flc2 {
    static FLC2: OnceLock<Flc2> = OnceLock::new();
    FLC2.get_or_init(|| {
        Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap()
    })
}

fn exact_flc1() -> &'static Flc1 {
    static FLC1: OnceLock<Flc1> = OnceLock::new();
    FLC1.get_or_init(|| Flc1::new().unwrap())
}

fn exact_flc2() -> &'static Flc2 {
    static FLC2: OnceLock<Flc2> = OnceLock::new();
    FLC2.get_or_init(|| Flc2::new().unwrap())
}

/// Tolerances for compiled-vs-exact crisp outputs at the default
/// 33-point lattice, from the dense sweeps recorded in EXPERIMENTS.md:
/// worst measured |ΔCv| is 0.122 (a localized ridge near the Middle
/// speed term's peak), worst |Δscore| is 0.064 for FLC2 alone and 0.033
/// through the full cascade. The bounds add headroom for the random
/// off-grid points proptest explores.
const FLC1_TOLERANCE: f64 = 0.15;
const FLC2_TOLERANCE: f64 = 0.10;

fn snapshot(occupied: u32) -> CellSnapshot {
    CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(occupied.min(40)))
}

/// A `capacity`-BU ledger holding one rigid text call of `occupied` BU.
fn filled(capacity: u32, occupied: u32) -> BandwidthLedger {
    let mut l = BandwidthLedger::new(BandwidthUnits::new(capacity));
    if occupied > 0 {
        l.allocate(
            CallId(999),
            ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(occupied)),
        )
        .unwrap();
    }
    l
}

/// `(capacity, occupied)`: the paper's 40-BU cell half the time (where
/// the score bound applies), any capacity in 1..=120 otherwise (where
/// only the capacity check may claim). Occupancy is any value half the
/// time and in the top third, where the bound's edges sit, otherwise.
fn arb_cell() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![Just(40u32), 1u32..=120].prop_flat_map(|capacity| {
        (Just(capacity), prop_oneof![0..=capacity, capacity * 2 / 3..=capacity])
    })
}

/// Mobility observations inside and far outside FLC1's universes, plus
/// corrupted (non-finite) fixes. A third are fast users heading near the
/// base station, whose high Cv is the bound's worst case.
fn arb_mobility() -> impl Strategy<Value = MobilityInfo> {
    let any = (-50.0_f64..300.0, -720.0_f64..720.0, -5.0_f64..50.0)
        .prop_map(|(speed, angle, distance)| MobilityInfo::new(speed, angle, distance));
    let good = (30.0_f64..120.0, -30.0_f64..30.0, 0.0_f64..5.0)
        .prop_map(|(speed, angle, distance)| MobilityInfo::new(speed, angle, distance));
    let corrupt = prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
        .prop_map(|x| MobilityInfo { speed_kmh: x, angle_deg: 0.0, distance_km: x });
    prop_oneof![any, good, corrupt]
}

/// Correction values on one of FLC2's 33 Cv knots (`k/32`), one ulp
/// either side of one, or anywhere in `[0, 1]`.
fn arb_cv() -> impl Strategy<Value = f64> {
    let knot = (0u32..=32).prop_map(|k| f64::from(k) / 32.0);
    let beside = (0u32..=32, prop::sample::select(vec![-1i64, 1])).prop_map(|(k, step)| {
        f64::from_bits((f64::from(k) / 32.0).to_bits().saturating_add_signed(step))
    });
    prop_oneof![knot, beside, 0.0_f64..=1.0]
}

proptest! {
    /// The `fast_reject` pre-screen is sound: whenever it claims a
    /// request is deniable, the cascade denies it or its nominal cost
    /// does not fit (an admitting plan would fail allocation). The
    /// cascade runs through `evaluate`, which skips the pre-screens
    /// `decide` consults. Plain FACS's `decide` must moreover admit
    /// exactly what the cascade admits and the cell fits, so its proven
    /// admission, which skips FLC1 and FLC2, is sound too. Checked for
    /// any class, kind, cell size, occupancy, mobility (finite distances
    /// whose scaling overflows included, and slow users far out heading
    /// away, whose low Cv is the admit proof's worst case), cell radius,
    /// gate and handoff bias, on both backends, for plain and for
    /// headroom FACS (which also scores a new call one BU above the live
    /// occupancy). On a 40-BU cell, the policy table's proof of the
    /// segment a Cv falls in must give the cascade's verdict at that Cv,
    /// Cvs on a knot and one ulp beside one included, with the gate at
    /// times placed exactly on a knot's score.
    #[test]
    fn fast_reject_implies_the_cascade_rejects(
        class in arb_class(),
        kind in prop::sample::select(vec![CallKind::New, CallKind::Handoff]),
        cell in arb_cell(),
        mobility in prop_oneof![
            arb_mobility(),
            (0.0_f64..120.0, 1e307_f64..=f64::MAX)
                .prop_map(|(speed, distance)| MobilityInfo::new(speed, 0.0, distance)),
            (0.0_f64..10.0, 150.0_f64..=180.0, 8.0_f64..=10.0)
                .prop_map(|(speed, angle, distance)| MobilityInfo::new(speed, angle, distance)),
        ],
        cell_radius_km in prop::sample::select(vec![10.0, 2.0, 1e-300]),
        handoff_bias in -0.2_f64..=0.5,
        threshold in -0.5_f64..=0.6,
        compiled in any::<bool>(),
        cv in arb_cv(),
        gate_on_knot in prop_oneof![Just(None), (0u32..=32).prop_map(Some)],
    ) {
        let backend = if compiled { BackendKind::compiled() } else { BackendKind::Exact };
        let (capacity, occupied) = cell;
        let counter = f64::from(occupied) * 40.0 / f64::from(capacity);
        let threshold = match gate_on_knot {
            Some(knot) => compiled_flc2()
                .surface()
                .unwrap()
                .first_axis_knots(&[class.request_level(), counter])
                .unwrap()
                .nth(knot as usize)
                .unwrap(),
            None => threshold,
        };
        let config =
            FacsConfig { threshold, handoff_bias, cell_radius_km, backend, ..FacsConfig::default() };
        let cell = filled(capacity, occupied);
        let request = CallRequest::new(CallId(0), class, kind, mobility);
        let fits = cell.can_fit(request.demand());
        let mut plain = FacsController::with_config(config).unwrap();
        let eval = plain.evaluate(&request, &cell.snapshot());
        if plain.fast_reject(&request.profile, &cell) {
            prop_assert!(
                !(fits && eval.decision.admits()),
                "plain FACS admits a pre-screened call: {eval:?}"
            );
        }
        let plan = plain.decide(&request, &cell);
        prop_assert_eq!(
            plan.admits(),
            fits && eval.decision.admits(),
            "decide {:?} against the cascade's {:?}",
            plan,
            eval
        );
        if let Some(row) = plain.cv_segments(class, occupied).filter(|_| capacity == 40) {
            let mut score = plain.flc2().decision_score(cv, class.request_level(), counter).unwrap();
            if kind == CallKind::Handoff {
                score = (score + handoff_bias).clamp(-1.0, 1.0);
            }
            let admits = (score * 1e12).round() / 1e12 > threshold;
            if let Some(verdict) = row.verdict_at(cv) {
                prop_assert_eq!(verdict, admits, "row {} at Cv {}", row, cv);
            }
        }
        let mut headroom = HeadroomFacsController::from(plain);
        let eval = headroom.evaluate(&request, &cell.snapshot());
        if headroom.fast_reject(&request.profile, &cell) {
            prop_assert!(
                !(fits && eval.decision.admits()),
                "headroom FACS admits a pre-screened call: {eval:?}"
            );
        }
        let plan = headroom.decide(&request, &cell);
        prop_assert_eq!(
            plan.admits(),
            fits && eval.decision.admits(),
            "headroom decide {:?} against the cascade's {:?}",
            plan,
            eval
        );
    }

    /// FLC1's correction value is always inside [0, 1] for any observation
    /// — including out-of-universe readings (clamped).
    #[test]
    fn cv_in_unit_interval(
        speed in -50.0_f64..300.0,
        angle in -720.0_f64..720.0,
        distance in -5.0_f64..50.0,
    ) {
        let flc1 = Flc1::new().unwrap();
        let cv = flc1
            .correction_value(&MobilityInfo::new(speed, angle, distance))
            .unwrap();
        prop_assert!((0.0..=1.0).contains(&cv), "cv = {cv}");
    }

    /// FLC2's score is always inside [-1, 1].
    #[test]
    fn score_in_decision_interval(
        cv in -0.5_f64..1.5,
        request in 0.0_f64..12.0,
        counter in -5.0_f64..50.0,
    ) {
        let flc2 = Flc2::new().unwrap();
        let score = flc2.decision_score(cv, request, counter).unwrap();
        prop_assert!((-1.0..=1.0).contains(&score), "score = {score}");
    }

    /// The binary gate is consistent with the soft score: admitted iff
    /// `score > threshold`.
    #[test]
    fn gate_matches_score(
        speed in 0.0_f64..120.0,
        angle in -180.0_f64..180.0,
        distance in 0.0_f64..10.0,
        occupied in 0u32..=40,
        class in arb_class(),
        threshold_cents in -50i32..=50,
    ) {
        let threshold = f64::from(threshold_cents) / 100.0;
        let facs = FacsController::with_config(FacsConfig {
            threshold,
            ..FacsConfig::default()
        })
        .unwrap();
        let request = CallRequest::new(
            CallId(0),
            class,
            CallKind::New,
            MobilityInfo::new(speed, angle, distance),
        );
        let eval = facs.evaluate(&request, &snapshot(occupied));
        prop_assert_eq!(eval.decision.admits(), eval.score > threshold);
    }

    /// Decisions are pure: the same request against the same snapshot
    /// always produces the identical evaluation.
    #[test]
    fn decisions_are_pure(
        speed in 0.0_f64..120.0,
        angle in -180.0_f64..180.0,
        distance in 0.0_f64..10.0,
        occupied in 0u32..=40,
        class in arb_class(),
    ) {
        let facs = FacsController::new().unwrap();
        let request = CallRequest::new(
            CallId(0),
            class,
            CallKind::New,
            MobilityInfo::new(speed, angle, distance),
        );
        let a = facs.evaluate(&request, &snapshot(occupied));
        let b = facs.evaluate(&request, &snapshot(occupied));
        prop_assert_eq!(a, b);
    }

    /// A fuller cell never makes the same request *more* welcome
    /// (weak monotonicity with a small tolerance for centroid wobble).
    #[test]
    fn occupancy_monotonicity(
        speed in 0.0_f64..120.0,
        angle in -180.0_f64..180.0,
        distance in 0.0_f64..10.0,
        class in arb_class(),
        occ_lo in 0u32..=40,
        occ_hi in 0u32..=40,
    ) {
        prop_assume!(occ_lo < occ_hi);
        let facs = FacsController::new().unwrap();
        let request = CallRequest::new(
            CallId(0),
            class,
            CallKind::New,
            MobilityInfo::new(speed, angle, distance),
        );
        let lo = facs.evaluate(&request, &snapshot(occ_lo)).score;
        let hi = facs.evaluate(&request, &snapshot(occ_hi)).score;
        prop_assert!(hi <= lo + 0.15, "score rose with occupancy: {lo} -> {hi}");
    }

    /// The handoff bias only ever helps a handoff, never a new call.
    #[test]
    fn handoff_bias_is_directional(
        speed in 0.0_f64..120.0,
        angle in -180.0_f64..180.0,
        distance in 0.0_f64..10.0,
        occupied in 0u32..=40,
        class in arb_class(),
        bias_cents in 0i32..=50,
    ) {
        let bias = f64::from(bias_cents) / 100.0;
        let facs = FacsController::with_config(FacsConfig {
            handoff_bias: bias,
            ..FacsConfig::default()
        })
        .unwrap();
        let mobility = MobilityInfo::new(speed, angle, distance);
        let new_call = CallRequest::new(CallId(0), class, CallKind::New, mobility);
        let handoff = CallRequest::new(CallId(0), class, CallKind::Handoff, mobility);
        let cell = snapshot(occupied);
        let s_new = facs.evaluate(&new_call, &cell).score;
        let s_handoff = facs.evaluate(&handoff, &cell).score;
        prop_assert!(s_handoff + 1e-9 >= s_new);
    }

    /// The compiled FLC1 surface tracks exact Mamdani inference within
    /// [`FLC1_TOLERANCE`] anywhere in (and beyond) the input universes.
    #[test]
    fn compiled_flc1_matches_exact(
        speed in -10.0_f64..150.0,
        angle in -200.0_f64..200.0,
        distance in -1.0_f64..12.0,
    ) {
        let m = MobilityInfo::new(speed, angle, distance);
        let exact = exact_flc1().correction_value(&m).unwrap();
        let compiled = compiled_flc1().correction_value(&m).unwrap();
        prop_assert!(
            (exact - compiled).abs() < FLC1_TOLERANCE,
            "cv diverged at ({speed}, {angle}, {distance}): {exact} vs {compiled}"
        );
    }

    /// The compiled FLC2 surface tracks exact inference within
    /// [`FLC2_TOLERANCE`].
    #[test]
    fn compiled_flc2_matches_exact(
        cv in -0.2_f64..1.2,
        request in 0.0_f64..12.0,
        counter in -2.0_f64..45.0,
    ) {
        let exact = exact_flc2().decision_score(cv, request, counter).unwrap();
        let compiled = compiled_flc2().decision_score(cv, request, counter).unwrap();
        prop_assert!(
            (exact - compiled).abs() < FLC2_TOLERANCE,
            "score diverged at ({cv}, {request}, {counter}): {exact} vs {compiled}"
        );
    }

    /// The headroom gate is never looser than static FACS: a **new**
    /// call scores at most what the static cascade gives it at the live
    /// occupancy (the gate reports the lower of the live and the raised
    /// evaluation), and a **handoff** scores bit-identically to static
    /// FACS (it is gated exactly as static FACS gates it).
    #[test]
    fn headroom_gate_is_never_looser_than_static_facs(
        speed in 0.0_f64..120.0,
        angle in -180.0_f64..180.0,
        distance in 0.0_f64..10.0,
        class in arb_class(),
        occupied in 0u32..=40,
    ) {
        let plain = FacsController::new().unwrap();
        let headroom = HeadroomFacsController::from(plain.clone());
        let mobility = MobilityInfo::new(speed, angle, distance);
        let cell = snapshot(occupied);
        let new_call = CallRequest::new(CallId(0), class, CallKind::New, mobility);
        let static_new = plain.evaluate(&new_call, &cell).score;
        let headroom_new = headroom.evaluate(&new_call, &cell).score;
        prop_assert!(
            headroom_new <= static_new,
            "new call scored looser than static FACS: {headroom_new} > {static_new}"
        );
        let handoff = CallRequest::new(CallId(1), class, CallKind::Handoff, mobility);
        prop_assert_eq!(
            headroom.evaluate(&handoff, &cell).score.to_bits(),
            plain.evaluate(&handoff, &cell).score.to_bits()
        );
    }
}

/// Exact and compiled cascades make the same accept/reject decision on
/// ≥ 99 % of a dense grid over the figure 7–10 input space, and their
/// soft scores never drift past a small bound. (EXPERIMENTS.md records
/// the measured agreement at several lattice resolutions; the
/// `backend` experiment regenerates it.)
#[test]
fn backend_decision_agreement_on_dense_grid() {
    let exact = FacsController::new().unwrap();
    let compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
    let threshold = exact.config().threshold;
    const STEPS: usize = 7;
    let axis = |min: f64, max: f64, i: usize| min + (max - min) * i as f64 / (STEPS - 1) as f64;
    let mut points = 0u32;
    let mut agreeing = 0u32;
    let mut max_divergence = 0.0f64;
    for class in [ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video] {
        for si in 0..STEPS {
            for ai in 0..STEPS {
                for di in 0..STEPS {
                    for oi in 0..STEPS {
                        let request = CallRequest::new(
                            CallId(0),
                            class,
                            CallKind::New,
                            MobilityInfo::new(
                                axis(0.0, 120.0, si),
                                axis(-180.0, 180.0, ai),
                                axis(0.0, 10.0, di),
                            ),
                        );
                        let cell = snapshot(axis(0.0, 40.0, oi).round() as u32);
                        let e = exact.evaluate(&request, &cell);
                        let c = compiled.evaluate(&request, &cell);
                        points += 1;
                        if (e.score > threshold) == (c.score > threshold) {
                            agreeing += 1;
                        }
                        max_divergence = max_divergence.max((e.score - c.score).abs());
                    }
                }
            }
        }
    }
    let agreement = 100.0 * f64::from(agreeing) / f64::from(points);
    assert!(agreement >= 99.0, "decision agreement {agreement:.3}% < 99% ({points} points)");
    // Dense 21-step sweeps measure 0.033 worst-case (EXPERIMENTS.md).
    assert!(max_divergence < 0.06, "score divergence {max_divergence} too large");
}
