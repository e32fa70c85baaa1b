//! Property-based tests for the CAC substrate invariants.

use std::collections::BTreeMap;

use facs_cac::policies::{CompleteSharing, GuardChannel};
use facs_cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
    ClassCounts, MobilityInfo, Reallocation, ServiceClass, ServiceProfile, Verdict,
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
    /// Allocate below nominal: the grant is `floor + k` clamped to the
    /// band, so degraded calls exist without any squeeze.
    AllocateAt(u64, ServiceClass, u8, u8),
    Release(u64),
    DegradeToFit(u8),
    Reupgrade,
}

fn arb_elastic_ops() -> impl Strategy<Value = Vec<ElasticOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, arb_class(), 0u8..=10).prop_map(|(id, c, f)| ElasticOp::Allocate(id, c, f)),
            (0u64..32, arb_class(), 0u8..=10, 0u8..=10)
                .prop_map(|(id, c, f, k)| ElasticOp::AllocateAt(id, c, f, k)),
            (0u64..32).prop_map(ElasticOp::Release),
            (1u8..=20).prop_map(ElasticOp::DegradeToFit),
            proptest::strategy::Just(ElasticOp::Reupgrade),
        ],
        0..200,
    )
}

/// Elastic profile at the class's paper demand with a floor of
/// `floor_tenths / 10` of nominal.
fn elastic(class: ServiceClass, floor_tenths: u8) -> ServiceProfile {
    ServiceProfile::elastic(class, class.demand(), f64::from(floor_tenths) / 10.0, 60.0)
}

/// A reference ledger for `elastic_ledger_matches_a_reference_model`:
/// one `BTreeMap` from call id to `(profile, allocated BU)`, with the
/// fair-share rules written out plainly. Both unit-by-unit walks scan
/// the map in ascending id and keep the first strict maximum, which is
/// the lowest-id tie-break.
struct ReferenceLedger {
    capacity: u32,
    calls: BTreeMap<u64, (ServiceProfile, u32)>,
}

impl ReferenceLedger {
    fn occupied(&self) -> u32 {
        self.calls.values().map(|&(_, bu)| bu).sum()
    }

    fn free(&self) -> u32 {
        self.capacity - self.occupied()
    }

    fn counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for (profile, _) in self.calls.values() {
            match profile.class {
                ServiceClass::Text => counts.text += 1,
                ServiceClass::Voice => counts.voice += 1,
                ServiceClass::Video => counts.video += 1,
            }
        }
        counts
    }

    fn allocate(&mut self, id: u64, profile: ServiceProfile, grant: u32) -> bool {
        if self.calls.contains_key(&id) || grant > self.free() {
            return false;
        }
        self.calls.insert(id, (profile, grant));
        true
    }

    /// The first id, in ascending order, whose `score` is strictly the
    /// largest and positive.
    fn first_max(bu: &BTreeMap<u64, u32>, score: impl Fn(u64, u32) -> u32) -> Option<u64> {
        let mut best: Option<(u64, u32)> = None;
        for (&id, &now) in bu {
            let s = score(id, now);
            if s > 0 && best.map_or(true, |(_, b)| s > b) {
                best = Some((id, s));
            }
        }
        best.map(|(id, _)| id)
    }

    fn allocations(&self) -> BTreeMap<u64, u32> {
        self.calls.iter().map(|(&id, &(_, bu))| (id, bu)).collect()
    }

    /// `(call, from, to)` in ascending id for every call whose
    /// allocation differs between `before` and `after`.
    fn changes(before: &BTreeMap<u64, u32>, after: &BTreeMap<u64, u32>) -> Vec<(u64, u32, u32)> {
        before
            .iter()
            .filter(|&(id, from)| after[id] != *from)
            .map(|(&id, &from)| (id, from, after[&id]))
            .collect()
    }

    fn squeezes(&self, demand: u32) -> Option<Vec<(u64, u32, u32)>> {
        let needed = demand.saturating_sub(self.free());
        let slack: u32 = self.calls.values().map(|(p, bu)| bu - p.rb_cost_min.get()).sum();
        if needed > slack {
            return None;
        }
        let before = self.allocations();
        let mut now = before.clone();
        for _ in 0..needed {
            let floor = |id: u64| self.calls[&id].0.rb_cost_min.get();
            let victim = Self::first_max(&now, |id, bu| bu - floor(id)).expect("slack covers it");
            *now.get_mut(&victim).unwrap() -= 1;
        }
        Some(Self::changes(&before, &now))
    }

    fn reupgrade(&mut self) -> Vec<(u64, u32, u32)> {
        let before = self.allocations();
        let mut now = before.clone();
        for _ in 0..self.free() {
            let nominal = |id: u64| self.calls[&id].0.rb_cost_nominal.get();
            let Some(target) = Self::first_max(&now, |id, bu| nominal(id) - bu) else { break };
            *now.get_mut(&target).unwrap() += 1;
        }
        for (id, bu) in &now {
            self.calls.get_mut(id).unwrap().1 = *bu;
        }
        Self::changes(&before, &now)
    }
}

fn triples(list: &[Reallocation]) -> Vec<(u64, u32, u32)> {
    list.iter().map(|r| (r.call.0, r.from.get(), r.to.get())).collect()
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
                    let _ = ledger.allocate(CallId(id), elastic(class, floor_tenths));
                }
                ElasticOp::AllocateAt(id, class, floor_tenths, k) => {
                    let profile = elastic(class, floor_tenths);
                    let grant = profile.rb_cost_min + BandwidthUnits::new(u32::from(k));
                    let _ = ledger.allocate_at(CallId(id), profile, grant.min(profile.rb_cost_nominal));
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

    /// The ledger agrees with the `BTreeMap` reference after every
    /// operation: the same calls and allocations in ascending id order,
    /// the same squeeze and re-upgrade lists (so the same lowest-id
    /// tie-breaks), the same `occupied` and the same per-class counts.
    #[test]
    fn elastic_ledger_matches_a_reference_model(
        ops in arb_elastic_ops(),
        capacity in 10u32..100,
    ) {
        let mut ledger = BandwidthLedger::new(BandwidthUnits::new(capacity));
        let mut reference = ReferenceLedger { capacity, calls: BTreeMap::new() };
        for op in ops {
            match op {
                ElasticOp::Allocate(id, class, floor_tenths) => {
                    let profile = elastic(class, floor_tenths);
                    let ok = ledger.allocate(CallId(id), profile).is_ok();
                    let expected = reference.allocate(id, profile, profile.rb_cost_nominal.get());
                    prop_assert_eq!(ok, expected, "allocate({})", id);
                }
                ElasticOp::AllocateAt(id, class, floor_tenths, k) => {
                    let profile = elastic(class, floor_tenths);
                    let grant = (profile.rb_cost_min.get() + u32::from(k))
                        .min(profile.rb_cost_nominal.get());
                    let ok =
                        ledger.allocate_at(CallId(id), profile, BandwidthUnits::new(grant)).is_ok();
                    prop_assert_eq!(ok, reference.allocate(id, profile, grant), "allocate_at({})", id);
                }
                ElasticOp::Release(id) => {
                    let ok = ledger.release(CallId(id)).is_ok();
                    prop_assert_eq!(ok, reference.calls.remove(&id).is_some(), "release({})", id);
                }
                ElasticOp::DegradeToFit(demand) => {
                    let planned = ledger.degradation_squeezes(BandwidthUnits::new(u32::from(demand)));
                    let expected = reference.squeezes(u32::from(demand));
                    prop_assert_eq!(planned.as_deref().map(triples), expected.clone());
                    if let (Some(squeezes), Some(expected)) = (planned, expected) {
                        let freed: u32 = expected.iter().map(|&(_, from, to)| from - to).sum();
                        prop_assert_eq!(
                            ledger.apply_squeezes(&squeezes),
                            Ok(BandwidthUnits::new(freed))
                        );
                        for (id, _, to) in expected {
                            reference.calls.get_mut(&id).unwrap().1 = to;
                        }
                    }
                }
                ElasticOp::Reupgrade => {
                    let ups = ledger.reupgrade_on_release();
                    prop_assert_eq!(triples(&ups), reference.reupgrade());
                }
            }
            let live: Vec<(u64, ServiceProfile, u32)> =
                ledger.iter().map(|(id, a)| (id.0, a.profile, a.allocated.get())).collect();
            let expected: Vec<(u64, ServiceProfile, u32)> =
                reference.calls.iter().map(|(&id, &(p, bu))| (id, p, bu)).collect();
            prop_assert_eq!(live, expected);
            prop_assert_eq!(ledger.occupied().get(), reference.occupied());
            prop_assert_eq!(ledger.counts(), reference.counts());
            prop_assert_eq!(ledger.active_calls(), reference.calls.len());
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
