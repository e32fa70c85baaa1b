//! Run-time validation sinks: invariant checking and golden-trace
//! digests.
//!
//! Both types plug into any [`Simulation::run_with`] call as ordinary
//! [`MetricsSink`]s (usually composed in a tuple with [`Metrics`]), so
//! every workload — hand-written, catalog, or fuzzed — can be validated
//! without touching the kernel:
//!
//! * [`InvariantSink`] checks the conservation laws the kernel must
//!   uphold for *any* structurally valid workload: every admitted call
//!   terminates exactly once (completion, coverage exit, or handoff
//!   drop) or survives to the horizon; per-cell occupancy never exceeds
//!   capacity at any epoch sample; handoff attempts always split into
//!   accepts plus drops; and its own totals must agree with the
//!   [`Metrics`] counters collected over the same run.
//! * [`TraceDigest`] folds every observable event into an
//!   **order-insensitive** 192-bit digest (xor-fold, wrapping-sum fold
//!   and count of per-event hashes). Because the sharded kernel
//!   produces the *same event multiset* — identical timestamps, cells,
//!   users, classes and verdicts — for every shard count, the digest is
//!   invariant under sharding and threading, yet flips if a single
//!   admission verdict, timestamp or cell changes. Checked-in digests
//!   (`results/golden/*.json`) turn any behavioural drift of the kernel
//!   or the controllers into a CI failure.
//!
//! The `validate` experiment (`experiments --exp validate`) runs fuzzed
//! workloads (see [`crate::fuzz`]) through both sinks at 1 vs N shards
//! and exact vs compiled FACS backends; `--exp golden --check` compares
//! catalog digests against the committed baselines.
//!
//! [`Simulation::run_with`]: crate::engine::Simulation::run_with

use std::collections::BTreeMap;

use facs_cac::{BandwidthUnits, CallKind, CellId, ServiceClass};

use crate::events::UserId;
use crate::metrics::{DecisionRecord, Metrics, MetricsSink};
use crate::time::SimTime;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. Every
/// event hash funnels through this, so single-bit input differences
/// avalanche across the digest.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn class_code(class: ServiceClass) -> u64 {
    match class {
        ServiceClass::Text => 1,
        ServiceClass::Voice => 2,
        ServiceClass::Video => 3,
    }
}

/// An order-insensitive digest of one simulation run's observable
/// events: admission decisions (new and handoff, including the verdict),
/// completions and coverage exits.
///
/// Two runs have equal digests iff they produced the same *multiset* of
/// events — the exact property the sharded kernel guarantees across
/// shard and thread counts. The digest is rendered as a 48-hex-char
/// string (`xor ‖ sum ‖ count`) for the golden files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceDigest {
    xor: u64,
    sum: u64,
    count: u64,
}

impl TraceDigest {
    /// Creates an empty digest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events folded in so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.count
    }

    fn fold(&mut self, h: u64) {
        self.xor ^= h;
        self.sum = self.sum.wrapping_add(h);
        self.count += 1;
    }

    fn event(&mut self, tag: u64, now: SimTime, cell: CellId, user: UserId, payload: u64) {
        let mut h = mix(tag);
        h = mix(h ^ now.as_micros());
        h = mix(h ^ u64::from(cell.0));
        h = mix(h ^ user.0);
        h = mix(h ^ payload);
        self.fold(h);
    }

    /// The digest as a fixed-width hex string (the golden-file format).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}{:016x}", self.xor, self.sum, self.count)
    }
}

impl std::fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

impl MetricsSink for TraceDigest {
    fn fork(&self) -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: Self) {
        self.xor ^= other.xor;
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    fn on_decision(&mut self, now: SimTime, cell: CellId, record: &DecisionRecord) {
        let kind_code = match record.kind {
            CallKind::New => 1u64,
            CallKind::Handoff => 2,
        };
        let payload = class_code(record.class)
            | (kind_code << 8)
            | (u64::from(record.admitted) << 16)
            | (u64::from(record.allocated.get()) << 24);
        self.event(0xDEC1, now, cell, record.user, payload);
    }

    fn on_reallocation(
        &mut self,
        now: SimTime,
        cell: CellId,
        user: UserId,
        allocated: BandwidthUnits,
        floor: BandwidthUnits,
    ) {
        let payload = u64::from(allocated.get()) | (u64::from(floor.get()) << 16);
        self.event(0xEA11, now, cell, user, payload);
    }

    fn on_completion(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.event(0xC0DE, now, cell, user, 0);
    }

    fn on_exit(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.event(0xE817, now, cell, user, 0);
    }
}

/// Per-user event tally the conservation checks run over.
#[derive(Debug, Clone, Copy, Default)]
struct UserTrace {
    new_offered: u32,
    new_admitted: u32,
    handoff_attempts: u32,
    handoff_accepted: u32,
    handoff_dropped: u32,
    completed: u32,
    exited: u32,
    admit_us: u64,
    last_end_us: u64,
}

/// A [`MetricsSink`] that checks the kernel's conservation invariants
/// over one run.
///
/// Collect it (usually as `(Metrics, InvariantSink)`), then call
/// [`InvariantSink::violations`] — an empty list means the run upheld
/// every invariant:
///
/// 1. **Call conservation** — every user is offered at most one new
///    call; every *admitted* call terminates at most once (completion,
///    coverage exit, or handoff drop), and a call that never terminated
///    is counted as surviving to the horizon. Denied users generate no
///    further events.
/// 2. **Handoff accounting** — per user and in total, handoff attempts
///    = accepts + drops, and no handoff precedes admission.
/// 3. **Bandwidth conservation** — no epoch occupancy sample ever
///    exceeds the cell's capacity (Σ allocations ≤ capacity, since the
///    occupancy *is* the sum of per-call allocations).
/// 4. **QoS floor** — every admission's grant lies inside the profile's
///    `[floor, nominal]` band, denials allocate nothing, and no in-call
///    reallocation (degradation squeeze or re-upgrade) ever dips below
///    the floor.
/// 5. **Metrics consistency** — [`InvariantSink::cross_check`] compares
///    the sink's own totals against the [`Metrics`] counters collected
///    over the same run.
#[derive(Debug, Clone, Default)]
pub struct InvariantSink {
    users: BTreeMap<u64, UserTrace>,
    capacity_violations: Vec<String>,
    samples: u64,
}

impl InvariantSink {
    /// Creates an empty invariant checker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of epoch occupancy samples capacity-checked.
    #[must_use]
    pub fn samples_checked(&self) -> u64 {
        self.samples
    }

    /// Admitted calls with no terminal event — still in progress when
    /// the horizon cut the run off.
    #[must_use]
    pub fn active_at_horizon(&self) -> u64 {
        self.users
            .values()
            .filter(|t| t.new_admitted > 0 && t.completed + t.exited + t.handoff_dropped == 0)
            .count() as u64
    }

    fn trace(&mut self, user: UserId) -> &mut UserTrace {
        self.users.entry(user.0).or_default()
    }

    /// Every invariant violation found in the collected events (empty
    /// when the run was clean). Call after the simulation finished.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.capacity_violations.clone();
        for (&id, t) in &self.users {
            let terminals = t.completed + t.exited + t.handoff_dropped;
            if t.new_offered > 1 {
                out.push(format!("user#{id}: offered {} new calls (max 1)", t.new_offered));
            }
            if t.new_admitted > t.new_offered {
                out.push(format!(
                    "user#{id}: admitted {} times but offered {}",
                    t.new_admitted, t.new_offered
                ));
            }
            if t.new_admitted == 0 && (terminals > 0 || t.handoff_attempts > 0) {
                out.push(format!(
                    "user#{id}: {} terminal and {} handoff events without an admission",
                    terminals, t.handoff_attempts
                ));
            }
            if terminals > 1 {
                out.push(format!(
                    "user#{id}: terminated {terminals} times \
                     (completed {}, exited {}, dropped {})",
                    t.completed, t.exited, t.handoff_dropped
                ));
            }
            if t.handoff_attempts != t.handoff_accepted + t.handoff_dropped {
                out.push(format!(
                    "user#{id}: handoff attempts {} != accepts {} + drops {}",
                    t.handoff_attempts, t.handoff_accepted, t.handoff_dropped
                ));
            }
            if t.new_admitted > 0 && terminals > 0 && t.last_end_us < t.admit_us {
                out.push(format!(
                    "user#{id}: terminated at {}us before admission at {}us",
                    t.last_end_us, t.admit_us
                ));
            }
        }
        out
    }

    /// Compares the sink's own event totals against the [`Metrics`]
    /// counters collected over the same run; any disagreement means the
    /// metrics pipeline and the event stream drifted apart.
    #[must_use]
    pub fn cross_check(&self, metrics: &Metrics) -> Vec<String> {
        let mut offered = 0u64;
        let mut admitted = 0u64;
        let mut attempts = 0u64;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut completed = 0u64;
        let mut exited = 0u64;
        for t in self.users.values() {
            offered += u64::from(t.new_offered);
            admitted += u64::from(t.new_admitted);
            attempts += u64::from(t.handoff_attempts);
            accepted += u64::from(t.handoff_accepted);
            dropped += u64::from(t.handoff_dropped);
            completed += u64::from(t.completed);
            exited += u64::from(t.exited);
        }
        let mut out = Vec::new();
        let mut check = |name: &str, sink: u64, metric: u64| {
            if sink != metric {
                out.push(format!("metrics disagree on {name}: sink saw {sink}, Metrics {metric}"));
            }
        };
        check("offered_new", offered, metrics.offered_new);
        check("accepted_new", admitted, metrics.accepted_new);
        check("blocked_new", offered - admitted, metrics.blocked_new);
        check("handoff_attempts", attempts, metrics.handoff_attempts);
        check("handoff_accepted", accepted, metrics.handoff_accepted);
        check("handoff_dropped", dropped, metrics.handoff_dropped);
        check("completed", completed, metrics.completed);
        check("exited_coverage", exited, metrics.exited_coverage);
        // Conservation closes the books: admitted = terminated + alive.
        let alive = self.active_at_horizon();
        if admitted != completed + exited + dropped + alive {
            out.push(format!(
                "conservation broken: admitted {admitted} != completed {completed} \
                 + exited {exited} + dropped {dropped} + active-at-horizon {alive}"
            ));
        }
        out
    }
}

impl MetricsSink for InvariantSink {
    fn fork(&self) -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: Self) {
        for (id, t) in other.users {
            let mine = self.users.entry(id).or_default();
            mine.new_offered += t.new_offered;
            mine.new_admitted += t.new_admitted;
            mine.handoff_attempts += t.handoff_attempts;
            mine.handoff_accepted += t.handoff_accepted;
            mine.handoff_dropped += t.handoff_dropped;
            mine.completed += t.completed;
            mine.exited += t.exited;
            mine.admit_us = mine.admit_us.max(t.admit_us);
            mine.last_end_us = mine.last_end_us.max(t.last_end_us);
        }
        self.capacity_violations.extend(other.capacity_violations);
        self.samples += other.samples;
    }

    fn on_decision(&mut self, now: SimTime, _cell: CellId, record: &DecisionRecord) {
        let user = record.user;
        if record.admitted {
            if record.allocated < record.floor {
                self.capacity_violations.push(format!(
                    "user#{}: admitted at {} BU below QoS floor {} at t={:.1}s",
                    user.0,
                    record.allocated.get(),
                    record.floor.get(),
                    now.as_secs_f64()
                ));
            }
            if record.allocated > record.nominal {
                self.capacity_violations.push(format!(
                    "user#{}: admitted at {} BU above nominal {} at t={:.1}s",
                    user.0,
                    record.allocated.get(),
                    record.nominal.get(),
                    now.as_secs_f64()
                ));
            }
        } else if !record.allocated.is_zero() {
            self.capacity_violations.push(format!(
                "user#{}: denied but holds {} BU at t={:.1}s",
                user.0,
                record.allocated.get(),
                now.as_secs_f64()
            ));
        }
        let t = self.trace(user);
        match record.kind {
            CallKind::New => {
                t.new_offered += 1;
                if record.admitted {
                    t.new_admitted += 1;
                    t.admit_us = now.as_micros();
                }
            }
            CallKind::Handoff => {
                t.handoff_attempts += 1;
                if record.admitted {
                    t.handoff_accepted += 1;
                } else {
                    t.handoff_dropped += 1;
                    t.last_end_us = now.as_micros();
                }
            }
        }
    }

    fn on_reallocation(
        &mut self,
        now: SimTime,
        cell: CellId,
        user: UserId,
        allocated: BandwidthUnits,
        floor: BandwidthUnits,
    ) {
        if allocated < floor {
            self.capacity_violations.push(format!(
                "user#{}: reallocated to {} BU below QoS floor {} in cell {} at t={:.1}s",
                user.0,
                allocated.get(),
                floor.get(),
                cell.0,
                now.as_secs_f64()
            ));
        }
    }

    fn on_completion(&mut self, now: SimTime, _cell: CellId, user: UserId) {
        let t = self.trace(user);
        t.completed += 1;
        t.last_end_us = now.as_micros();
    }

    fn on_exit(&mut self, now: SimTime, _cell: CellId, user: UserId) {
        let t = self.trace(user);
        t.exited += 1;
        t.last_end_us = now.as_micros();
    }

    fn on_cell_sample(&mut self, now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        self.samples += 1;
        if occupied > capacity {
            self.capacity_violations.push(format!(
                "cell {} over capacity at t={:.1}s: {occupied} BU occupied of {capacity}",
                cell.0,
                now.as_secs_f64()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facs_cac::ServiceProfile;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// A rigid paper-profile decision record at nominal allocation.
    fn rec(user: u64, class: ServiceClass, kind: CallKind, admitted: bool) -> DecisionRecord {
        let profile = ServiceProfile::paper(class);
        if admitted {
            DecisionRecord::admitted(UserId(user), profile, kind, profile.rb_cost_nominal)
        } else {
            DecisionRecord::denied(UserId(user), profile, kind)
        }
    }

    #[test]
    fn digest_is_order_insensitive() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        let events = [(1.0, 0u32, 1u64, true), (2.0, 1, 2, false), (3.0, 2, 3, true)];
        for &(s, cell, user, ok) in &events {
            a.on_decision(t(s), CellId(cell), &rec(user, ServiceClass::Voice, CallKind::New, ok));
        }
        for &(s, cell, user, ok) in events.iter().rev() {
            b.on_decision(t(s), CellId(cell), &rec(user, ServiceClass::Voice, CallKind::New, ok));
        }
        assert_eq!(a, b);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.events(), 3);
    }

    #[test]
    fn digest_flips_on_a_single_changed_verdict() {
        let fill = |flip: bool| {
            let mut d = TraceDigest::new();
            for u in 0..50u64 {
                let admitted = if u == 17 { flip } else { u % 2 == 0 };
                d.on_decision(
                    t(u as f64),
                    CellId(0),
                    &rec(u, ServiceClass::Text, CallKind::New, admitted),
                );
            }
            d
        };
        assert_ne!(fill(false), fill(true));
    }

    #[test]
    fn digest_flips_on_a_degraded_allocation() {
        // Same verdict, different grant: the digest must tell a nominal
        // admission from a degraded one.
        let profile =
            ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0);
        let at = |bu: u32| {
            let mut d = TraceDigest::new();
            let record = DecisionRecord::admitted(
                UserId(1),
                profile,
                CallKind::Handoff,
                BandwidthUnits::new(bu),
            );
            d.on_decision(t(1.0), CellId(0), &record);
            d
        };
        assert_ne!(at(10), at(6));
    }

    #[test]
    fn digest_folds_reallocations() {
        let mut base = TraceDigest::new();
        base.on_reallocation(
            t(2.0),
            CellId(0),
            UserId(3),
            BandwidthUnits::new(7),
            BandwidthUnits::new(5),
        );
        assert_eq!(base.events(), 1);
        let mut other = TraceDigest::new();
        other.on_reallocation(
            t(2.0),
            CellId(0),
            UserId(3),
            BandwidthUnits::new(6),
            BandwidthUnits::new(5),
        );
        assert_ne!(base, other, "the new grant must be hashed");
    }

    #[test]
    fn digest_distinguishes_event_kinds_and_fields() {
        let mut base = TraceDigest::new();
        base.on_completion(t(1.0), CellId(0), UserId(1));
        let mut exit = TraceDigest::new();
        exit.on_exit(t(1.0), CellId(0), UserId(1));
        assert_ne!(base, exit, "completion vs exit must differ");
        let mut other_cell = TraceDigest::new();
        other_cell.on_completion(t(1.0), CellId(1), UserId(1));
        assert_ne!(base, other_cell, "cell must be hashed");
        let mut other_time = TraceDigest::new();
        other_time.on_completion(t(1.5), CellId(0), UserId(1));
        assert_ne!(base, other_time, "time must be hashed");
    }

    #[test]
    fn digest_absorb_matches_single_sink() {
        let mut whole = TraceDigest::new();
        let mut left = TraceDigest::new();
        let mut right = TraceDigest::new();
        for u in 0..20u64 {
            let target = if u % 2 == 0 { &mut left } else { &mut right };
            target.on_exit(t(u as f64), CellId((u % 3) as u32), UserId(u));
            whole.on_exit(t(u as f64), CellId((u % 3) as u32), UserId(u));
        }
        let mut folded = TraceDigest::new();
        folded.absorb(left);
        folded.absorb(right);
        assert_eq!(folded, whole);
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let mut sink = InvariantSink::new();
        sink.on_decision(t(1.0), CellId(0), &rec(7, ServiceClass::Voice, CallKind::New, true));
        sink.on_decision(t(5.0), CellId(1), &rec(7, ServiceClass::Voice, CallKind::Handoff, true));
        sink.on_completion(t(9.0), CellId(1), UserId(7));
        sink.on_decision(t(2.0), CellId(0), &rec(8, ServiceClass::Video, CallKind::New, false));
        sink.on_cell_sample(t(5.0), CellId(0), 10, 40);
        assert_eq!(sink.violations(), Vec::<String>::new());
        assert_eq!(sink.active_at_horizon(), 0);
        let mut metrics = Metrics::new();
        metrics.record_decision(ServiceClass::Voice, CallKind::New, true);
        metrics.record_decision(ServiceClass::Voice, CallKind::Handoff, true);
        metrics.record_decision(ServiceClass::Video, CallKind::New, false);
        metrics.on_completion(t(9.0), CellId(1), UserId(7));
        assert_eq!(sink.cross_check(&metrics), Vec::<String>::new());
    }

    #[test]
    fn double_completion_is_a_violation() {
        let mut sink = InvariantSink::new();
        sink.on_decision(t(1.0), CellId(0), &rec(3, ServiceClass::Text, CallKind::New, true));
        sink.on_completion(t(2.0), CellId(0), UserId(3));
        sink.on_completion(t(3.0), CellId(0), UserId(3));
        let violations = sink.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("terminated 2 times"), "{violations:?}");
    }

    #[test]
    fn completion_without_admission_is_a_violation() {
        let mut sink = InvariantSink::new();
        sink.on_completion(t(2.0), CellId(0), UserId(9));
        let violations = sink.violations();
        assert!(violations.iter().any(|v| v.contains("without an admission")), "{violations:?}");
    }

    #[test]
    fn over_capacity_sample_is_a_violation() {
        let mut sink = InvariantSink::new();
        sink.on_cell_sample(t(10.0), CellId(2), 41, 40);
        let violations = sink.violations();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("over capacity"), "{violations:?}");
        assert_eq!(sink.samples_checked(), 1);
    }

    #[test]
    fn below_floor_admission_is_a_violation() {
        let profile =
            ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0);
        let mut sink = InvariantSink::new();
        sink.on_decision(
            t(1.0),
            CellId(0),
            &DecisionRecord::admitted(UserId(1), profile, CallKind::New, BandwidthUnits::new(4)),
        );
        let violations = sink.violations();
        assert!(violations.iter().any(|v| v.contains("below QoS floor")), "{violations:?}");
    }

    #[test]
    fn above_nominal_admission_is_a_violation() {
        let profile = ServiceProfile::paper(ServiceClass::Voice);
        let mut sink = InvariantSink::new();
        sink.on_decision(
            t(1.0),
            CellId(0),
            &DecisionRecord::admitted(UserId(2), profile, CallKind::New, BandwidthUnits::new(6)),
        );
        let violations = sink.violations();
        assert!(violations.iter().any(|v| v.contains("above nominal")), "{violations:?}");
    }

    #[test]
    fn below_floor_reallocation_is_a_violation() {
        let mut sink = InvariantSink::new();
        sink.on_reallocation(
            t(3.0),
            CellId(1),
            UserId(5),
            BandwidthUnits::new(4),
            BandwidthUnits::new(5),
        );
        let violations = sink.violations();
        assert!(
            violations.iter().any(|v| v.contains("reallocated") && v.contains("below QoS floor")),
            "{violations:?}"
        );
        // A legal squeeze down to exactly the floor is clean.
        let mut clean = InvariantSink::new();
        clean.on_reallocation(
            t(3.0),
            CellId(1),
            UserId(5),
            BandwidthUnits::new(5),
            BandwidthUnits::new(5),
        );
        assert_eq!(clean.violations(), Vec::<String>::new());
    }

    #[test]
    fn survivor_balances_conservation() {
        let mut sink = InvariantSink::new();
        sink.on_decision(t(1.0), CellId(0), &rec(1, ServiceClass::Text, CallKind::New, true));
        assert_eq!(sink.violations(), Vec::<String>::new());
        assert_eq!(sink.active_at_horizon(), 1);
        let mut metrics = Metrics::new();
        metrics.record_decision(ServiceClass::Text, CallKind::New, true);
        assert_eq!(sink.cross_check(&metrics), Vec::<String>::new());
    }

    #[test]
    fn absorb_merges_split_user_histories() {
        // Admission seen by shard A, completion by shard B: only the
        // merged view can prove conservation.
        let mut a = InvariantSink::new();
        a.on_decision(t(1.0), CellId(0), &rec(4, ServiceClass::Voice, CallKind::New, true));
        let mut b = InvariantSink::new();
        b.on_completion(t(6.0), CellId(1), UserId(4));
        assert!(!b.violations().is_empty(), "lone completion should look broken");
        let mut merged = InvariantSink::new();
        merged.absorb(a);
        merged.absorb(b);
        assert_eq!(merged.violations(), Vec::<String>::new());
        assert_eq!(merged.active_at_horizon(), 0);
    }

    #[test]
    fn cross_check_catches_counter_drift() {
        let mut sink = InvariantSink::new();
        sink.on_decision(t(1.0), CellId(0), &rec(1, ServiceClass::Text, CallKind::New, true));
        let metrics = Metrics::new(); // never saw the decision
        let drift = sink.cross_check(&metrics);
        assert!(drift.iter().any(|v| v.contains("offered_new")), "{drift:?}");
    }
}
