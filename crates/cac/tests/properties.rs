//! Property-based tests for the CAC substrate invariants.

use facs_cac::policies::{CompleteSharing, GuardChannel};
use facs_cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
    MobilityInfo, ServiceClass, ServiceProfile, Verdict,
};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = ServiceClass> {
    prop::sample::select(vec![ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video])
}

fn arb_kind() -> impl Strategy<Value = CallKind> {
    prop::sample::select(vec![CallKind::New, CallKind::Handoff])
}

/// A 40-BU cell pre-loaded to `occupied` via one rigid filler call.
fn cell(occupied: u32) -> BandwidthLedger {
    let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
    if occupied > 0 {
        l.allocate(
            CallId(999),
            ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(occupied)),
        )
        .unwrap();
    }
    l
}

#[derive(Debug, Clone)]
enum Op {
    Allocate(u64, ServiceClass),
    Release(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, arb_class()).prop_map(|(id, c)| Op::Allocate(id, c)),
            (0u64..32).prop_map(Op::Release),
        ],
        0..200,
    )
}

#[derive(Debug, Clone)]
enum ElasticOp {
    Allocate(u64, ServiceClass, u8),
    Release(u64),
    DegradeToFit(u8),
    Reupgrade,
}

fn arb_elastic_ops() -> impl Strategy<Value = Vec<ElasticOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, arb_class(), 0u8..=10).prop_map(|(id, c, f)| ElasticOp::Allocate(id, c, f)),
            (0u64..32).prop_map(ElasticOp::Release),
            (1u8..=20).prop_map(ElasticOp::DegradeToFit),
            proptest::strategy::Just(ElasticOp::Reupgrade),
        ],
        0..200,
    )
}

proptest! {
    /// The ledger conserves bandwidth under any operation sequence:
    /// occupied + free == capacity, and occupied equals the sum of live
    /// allocations.
    #[test]
    fn ledger_conservation(ops in arb_ops(), capacity in 1u32..200) {
        let capacity = BandwidthUnits::new(capacity);
        let mut ledger = BandwidthLedger::new(capacity);
        let mut live: std::collections::HashMap<u64, ServiceClass> = Default::default();
        for op in ops {
            match op {
                Op::Allocate(id, class) => {
                    let ok = ledger.allocate(CallId(id), ServiceProfile::paper(class)).is_ok();
                    let expect_ok = !live.contains_key(&id)
                        && class.demand() <= capacity - live.values().map(|c| c.demand()).sum::<BandwidthUnits>();
                    prop_assert_eq!(ok, expect_ok, "allocate({}, {:?})", id, class);
                    if ok {
                        live.insert(id, class);
                    }
                }
                Op::Release(id) => {
                    let ok = ledger.release(CallId(id)).is_ok();
                    prop_assert_eq!(ok, live.remove(&id).is_some(), "release({})", id);
                }
            }
            // Invariants after every step.
            let model_occupied: BandwidthUnits = live.values().map(|c| c.demand()).sum();
            prop_assert_eq!(ledger.occupied(), model_occupied);
            prop_assert_eq!(ledger.occupied() + ledger.free(), capacity);
            prop_assert_eq!(ledger.active_calls(), live.len());
            let rt = live.values().filter(|c| c.is_real_time()).count() as u32;
            prop_assert_eq!(ledger.counts().real_time(), rt);
            prop_assert_eq!(ledger.counts().non_real_time(), live.len() as u32 - rt);
        }
    }

    /// The elastic ledger keeps every allocation inside its profile band
    /// and conserves bandwidth under arbitrary interleavings of
    /// allocation, release, degradation, and re-upgrade.
    #[test]
    fn elastic_ledger_respects_floors(ops in arb_elastic_ops(), capacity in 10u32..100) {
        let capacity = BandwidthUnits::new(capacity);
        let mut ledger = BandwidthLedger::new(capacity);
        for op in ops {
            match op {
                ElasticOp::Allocate(id, class, floor_tenths) => {
                    let profile = ServiceProfile::elastic(
                        class,
                        class.demand(),
                        f64::from(floor_tenths) / 10.0,
                        60.0,
                    );
                    let _ = ledger.allocate(CallId(id), profile);
                }
                ElasticOp::Release(id) => {
                    let _ = ledger.release(CallId(id));
                }
                ElasticOp::DegradeToFit(demand) => {
                    let demand = BandwidthUnits::new(u32::from(demand));
                    let before_free = ledger.free();
                    match ledger.degradation_squeezes(demand) {
                        Some(squeezes) => {
                            prop_assert!(ledger.apply_squeezes(&squeezes).is_ok());
                            prop_assert!(ledger.free() >= demand);
                        }
                        None => prop_assert_eq!(ledger.free(), before_free, "failed degrade mutated"),
                    }
                }
                ElasticOp::Reupgrade => {
                    let _ = ledger.reupgrade_on_release();
                }
            }
            // Invariants after every step.
            prop_assert_eq!(ledger.occupied() + ledger.free(), capacity);
            let total: BandwidthUnits = ledger.iter().map(|(_, a)| a.allocated).sum();
            prop_assert_eq!(total, ledger.occupied());
            for (id, alloc) in ledger.iter() {
                prop_assert!(
                    alloc.allocated >= alloc.profile.rb_cost_min
                        && alloc.allocated <= alloc.profile.rb_cost_nominal,
                    "{} left its band: {} not in [{}, {}]",
                    id, alloc.allocated, alloc.profile.rb_cost_min, alloc.profile.rb_cost_nominal
                );
            }
        }
        // After a final re-upgrade with everything settled, no call may
        // stay degraded while free bandwidth remains.
        ledger.reupgrade_on_release();
        if !ledger.free().is_zero() {
            prop_assert!(ledger.iter().all(|(_, a)| !a.is_degraded()));
        }
    }

    /// Complete sharing admits exactly when the demand fits.
    #[test]
    fn complete_sharing_is_fit_test(occupied in 0u32..=40, class in arb_class(), kind in arb_kind()) {
        let req = CallRequest::new(CallId(0), class, kind, MobilityInfo::stationary());
        let mut cs = CompleteSharing::new();
        prop_assert_eq!(
            cs.decide(&req, &cell(occupied)).admits(),
            class.demand().get() + occupied <= 40
        );
    }

    /// Guard channel: a handoff is admitted whenever the equivalent new
    /// call is (handoff priority), and never exceeds capacity.
    #[test]
    fn guard_channel_priority(
        occupied in 0u32..=40,
        guard in 0u32..=40,
        class in arb_class(),
    ) {
        let cell = cell(occupied);
        let mut gc = GuardChannel::new(BandwidthUnits::new(guard));
        let new = CallRequest::new(CallId(0), class, CallKind::New, MobilityInfo::stationary());
        let ho = CallRequest::new(CallId(1), class, CallKind::Handoff, MobilityInfo::stationary());
        let new_ok = gc.decide(&new, &cell).admits();
        let ho_ok = gc.decide(&ho, &cell).admits();
        prop_assert!(!new_ok || ho_ok);
        if ho_ok {
            prop_assert!(occupied + class.demand().get() <= 40);
        }
    }

    /// Verdict banding is monotone in the score.
    #[test]
    fn verdict_monotone(a in -1.0_f64..1.0, b in -1.0_f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Verdict::from_score(lo) <= Verdict::from_score(hi));
    }

    /// Angle normalization lands in (-180, 180] and preserves the heading
    /// modulo 360.
    #[test]
    fn normalize_angle_range(angle in -1e5_f64..1e5) {
        let n = facs_cac::normalize_angle(angle);
        prop_assert!(n > -180.0 - 1e-9 && n <= 180.0 + 1e-9, "{n}");
        let diff = (angle - n).rem_euclid(360.0);
        prop_assert!(diff.abs() < 1e-6 || (diff - 360.0).abs() < 1e-6, "angle={angle} n={n}");
    }
}
