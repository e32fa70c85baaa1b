//! The admission-controller abstraction every CAC policy implements.

use std::any::TypeId;
use std::sync::Arc;

use crate::decision::Decision;
use crate::ledger::{BandwidthLedger, CellSnapshot, Reallocation};
use crate::traffic::{CallId, CallRequest, ServiceClass, ServiceProfile};
use crate::units::BandwidthUnits;

/// The outcome of an admission decision: not just admit/reject, but *how*
/// to admit — at full quality, or by degrading existing elastic calls
/// toward their QoS floors to make room.
///
/// A plan is a proposal; the caller (a simulator shard) applies it
/// against the live [`BandwidthLedger`] atomically through
/// [`apply`](AdmissionPlan::apply) and downgrades a plan that no longer
/// fits to a rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionPlan {
    /// Admit at the profile's nominal bandwidth; nobody else is touched.
    Admit(Decision),
    /// Admit at `grant` bandwidth units (somewhere in the request
    /// profile's `[floor, nominal]` band) after applying `squeezes` to
    /// existing calls. An empty squeeze list means only the entering
    /// call itself is degraded.
    AdmitDegraded {
        /// The fuzzy/policy decision that backed the admission.
        decision: Decision,
        /// Per-call degradations to apply before allocating.
        squeezes: Vec<Reallocation>,
        /// Bandwidth granted to the entering call.
        grant: BandwidthUnits,
    },
    /// Turn the request away.
    Reject(Decision),
}

impl AdmissionPlan {
    /// Lifts a plain [`Decision`] into a plan: admit-as-is or reject.
    /// This is the bridge for classic (inelastic) policies.
    #[must_use]
    pub fn gate(decision: Decision) -> Self {
        if decision.admits() {
            AdmissionPlan::Admit(decision)
        } else {
            AdmissionPlan::Reject(decision)
        }
    }

    /// Whether the plan admits the request (possibly degraded).
    #[must_use]
    pub fn admits(&self) -> bool {
        !matches!(self, AdmissionPlan::Reject(_))
    }

    /// Whether admission involves degradation (of the entering call or
    /// of existing calls).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, AdmissionPlan::AdmitDegraded { .. })
    }

    /// The underlying policy decision.
    #[must_use]
    pub fn decision(&self) -> Decision {
        match self {
            AdmissionPlan::Admit(d)
            | AdmissionPlan::AdmitDegraded { decision: d, .. }
            | AdmissionPlan::Reject(d) => *d,
        }
    }

    /// Applies the plan to `ledger` for `request` — the one routine
    /// through which the simulator shard admits every call.
    ///
    /// An admitting plan is written atomically (`allocate` at nominal,
    /// or `admit_with_plan` with its squeezes); on success `controller`
    /// is told via [`on_admitted`](AdmissionController::on_admitted).
    /// A rejecting plan, or one the ledger can no longer honor (the
    /// allocation stopped fitting, a squeeze went stale), returns `None`
    /// and leaves both the ledger and the controller untouched.
    pub fn apply<C: AdmissionController + ?Sized>(
        self,
        request: &CallRequest,
        ledger: &mut BandwidthLedger,
        controller: &mut C,
    ) -> Option<Admission> {
        let admission = match self {
            AdmissionPlan::Reject(_) => return None,
            AdmissionPlan::Admit(_) => {
                ledger.allocate(request.id, request.profile).ok()?;
                Admission { granted: request.profile.rb_cost_nominal, squeezed: Vec::new() }
            }
            AdmissionPlan::AdmitDegraded { squeezes, grant, .. } => {
                ledger.admit_with_plan(request.id, request.profile, grant, &squeezes).ok()?;
                let squeezed = squeezes
                    .iter()
                    .map(|s| {
                        let floor = ledger
                            .profile_of(s.call)
                            .map_or(BandwidthUnits::ZERO, |p| p.rb_cost_min);
                        (s.call, s.to, floor)
                    })
                    .collect();
                Admission { granted: grant, squeezed }
            }
        };
        controller.on_admitted(request, &ledger.snapshot());
        Some(admission)
    }
}

/// An admission the ledger honored (see [`AdmissionPlan::apply`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Bandwidth granted to the entering call.
    pub granted: BandwidthUnits,
    /// `(call, new allocation, QoS floor)` for every existing call the
    /// plan squeezed to make room, in plan order.
    pub squeezed: Vec<(CallId, BandwidthUnits, BandwidthUnits)>,
}

/// A call admission control policy for one cell.
///
/// The simulator calls [`decide`](AdmissionController::decide) for every
/// arriving request (new or handoff) with read access to the cell's full
/// [`BandwidthLedger`] — so elastic policies can plan per-call squeezes —
/// and then notifies the controller of the outcome via
/// [`on_admitted`](AdmissionController::on_admitted) /
/// [`on_released`](AdmissionController::on_released). The time-stepped
/// [`observe`](AdmissionController::observe) hook fires once per epoch
/// sample, letting stateful policies track load trends between requests.
///
/// Implementations must be deterministic given the same call sequence —
/// the reproduction relies on seeded, repeatable runs. Policies that need
/// randomness derive it from their own seeded state, never from global
/// entropy.
///
/// Controllers are `Send` so the simulator's shard workers can own them
/// on their threads.
///
/// A controller that keeps no per-cell state may report a
/// [`policy_key`](AdmissionController::policy_key); the simulator then
/// keeps one instance per key and shard, and that **shared instance**
/// serves every cell of the shard that reported the key. Every hook of a
/// shared instance receives the ledger or snapshot of the cell it is
/// called for, and the calls of all those cells interleave in the
/// shard's event order.
pub trait AdmissionController: Send {
    /// A short human-readable policy name (e.g. `"FACS"`, `"SCC"`).
    fn name(&self) -> &str;

    /// Plans the admission of `request` given the current `cell` ledger.
    ///
    /// Returning an admitting [`AdmissionPlan`] does **not** allocate
    /// bandwidth; the caller applies the plan atomically and only then
    /// calls [`on_admitted`](AdmissionController::on_admitted). A plan
    /// that no longer fits (stale squeezes, raced capacity) is downgraded
    /// to a rejection by the caller.
    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan;

    /// A conservative pre-screen: returns `true` only when the
    /// controller can prove, from the service profile and the ledger
    /// alone, that [`decide`](AdmissionController::decide) would deny a
    /// request carrying `profile` — for any mobility and either call
    /// kind. The engine then records the denial without building the
    /// full request, which on saturated cells skips the dominant
    /// per-arrival cost. Must never return `true` when admission is
    /// possible; the default claims nothing.
    ///
    /// FACS's pre-screen and the proof behind it are in DESIGN.md.
    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        let _ = (profile, cell);
        false
    }

    /// Time-stepped load sample. Default: no-op.
    ///
    /// # Ordering contract
    ///
    /// The simulation kernel calls `observe` **exactly once per cell per
    /// epoch**, at the epoch's barrier time `t`, *after* every admission
    /// and release of that epoch (all events with time `<= t`) and
    /// *before* any [`decide`](AdmissionController::decide) of the next
    /// epoch (all events with time `> t`). `now_s` is therefore strictly
    /// increasing across calls, and the ledger passed here is the cell's
    /// settled end-of-epoch state. No pulse fires before the first
    /// epoch: a controller may see `decide` before its first `observe`
    /// (cold start). The kernel `debug_assert!`s this contract at both
    /// call sites.
    ///
    /// A shared instance (see
    /// [`policy_key`](AdmissionController::policy_key)) still gets
    /// exactly one call per cell it serves per epoch, so it sees `now_s`
    /// once per such cell: `now_s` increases strictly per cell, not per
    /// instance.
    ///
    /// A controller used outside the kernel, e.g. a direct `decide` as
    /// in the quickstart, may never see `observe`; stateful policies
    /// must degrade gracefully to reactive behavior when the hook stays
    /// silent.
    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        let _ = (now_s, cell);
    }

    /// Called after `request` was admitted and its bandwidth allocated.
    fn on_admitted(&mut self, request: &CallRequest, cell: &CellSnapshot) {
        let _ = (request, cell);
    }

    /// Called after call `call` of `class` ended (completion or outbound
    /// handoff) and its bandwidth was released.
    fn on_released(&mut self, call: CallId, class: ServiceClass, cell: &CellSnapshot) {
        let _ = (call, class, cell);
    }

    /// Whether this controller's mutable state is confined to its own
    /// cell (the default). Controllers that share cross-cell state —
    /// e.g. SCC's cluster-wide shadow board — must return `false`: the
    /// sharded simulation kernel refuses to run them on more than one
    /// shard, because concurrent shards would interleave their shared
    /// updates nondeterministically and break bit-reproducibility.
    fn is_cell_local(&self) -> bool {
        true
    }

    /// The stateless policy this controller is an instance of, if any.
    ///
    /// `Some(k)` promises that the controller keeps no per-cell state:
    /// every hook is a pure function of its arguments and of state shared
    /// by all controllers that report `k`, so any one of them may serve
    /// all their cells. The simulator keeps the first controller of each
    /// key per shard and drops the others. A keyed controller must be
    /// [cell-local](AdmissionController::is_cell_local). The default,
    /// `None`, claims nothing: the controller serves its own cell only.
    fn policy_key(&self) -> Option<PolicyKey> {
        None
    }
}

/// Names one stateless policy (see [`AdmissionController::policy_key`]).
///
/// A key pairs the controller's type with the address of the state its
/// instances share. Two types built on one shared core (plain FACS and
/// FACS-degrade decide differently over the same FLCs) get different
/// keys, and so do two separately built cores of one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyKey {
    policy: TypeId,
    shared: usize,
}

impl PolicyKey {
    /// The key of a `P` whose every hook reads only its arguments and
    /// `shared`. Two keys compare equal only while both controllers hold
    /// `shared`, so compare the keys of live controllers only.
    #[must_use]
    pub fn of<P: 'static, S>(shared: &Arc<S>) -> Self {
        Self { policy: TypeId::of::<P>(), shared: Arc::as_ptr(shared) as usize }
    }
}

/// Object-safe boxed controller, the form the simulator's per-shard
/// policy tables store.
/// Method calls on it reach the controller through the vtable; code
/// generic over [`AdmissionController`] takes `&mut *boxed`.
pub type BoxedController = Box<dyn AdmissionController>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::traffic::{CallId, CallKind, CallRequest, MobilityInfo, ServiceClass};
    use crate::units::BandwidthUnits;

    /// A controller that admits everything and counts notifications.
    struct CountingController {
        admitted: usize,
        released: usize,
        observed: usize,
    }

    impl AdmissionController for CountingController {
        fn name(&self) -> &str {
            "counting"
        }

        fn decide(&mut self, _request: &CallRequest, _cell: &BandwidthLedger) -> AdmissionPlan {
            AdmissionPlan::gate(Decision::binary(true))
        }

        fn observe(&mut self, _now_s: f64, _cell: &BandwidthLedger) {
            self.observed += 1;
        }

        fn on_admitted(&mut self, _request: &CallRequest, _cell: &CellSnapshot) {
            self.admitted += 1;
        }

        fn on_released(&mut self, _call: CallId, _class: ServiceClass, _cell: &CellSnapshot) {
            self.released += 1;
        }
    }

    fn request() -> CallRequest {
        CallRequest::new(CallId(1), ServiceClass::Voice, CallKind::New, MobilityInfo::stationary())
    }

    fn empty_cell() -> BandwidthLedger {
        BandwidthLedger::new(BandwidthUnits::new(40))
    }

    #[test]
    fn boxed_controller_delegates() {
        let mut boxed: BoxedController =
            Box::new(CountingController { admitted: 0, released: 0, observed: 0 });
        let cell = empty_cell();
        assert_eq!(boxed.name(), "counting");
        assert!(boxed.decide(&request(), &cell).admits());
        boxed.observe(0.0, &cell);
        boxed.on_admitted(&request(), &cell.snapshot());
        boxed.on_released(CallId(1), ServiceClass::Voice, &cell.snapshot());
    }

    #[test]
    fn default_hooks_are_no_ops() {
        struct Minimal;
        impl AdmissionController for Minimal {
            fn name(&self) -> &str {
                "minimal"
            }
            fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
                AdmissionPlan::gate(Decision::binary(false))
            }
        }
        let mut m = Minimal;
        let cell = empty_cell();
        m.observe(1.0, &cell);
        m.on_admitted(&request(), &cell.snapshot());
        m.on_released(CallId(1), ServiceClass::Text, &cell.snapshot());
        assert!(!m.decide(&request(), &cell).admits());
    }

    fn counting() -> CountingController {
        CountingController { admitted: 0, released: 0, observed: 0 }
    }

    #[test]
    fn apply_admit_allocates_nominal_and_notifies() {
        let mut ledger = empty_cell();
        let mut controller = counting();
        let request = request();
        let admission = AdmissionPlan::gate(Decision::binary(true))
            .apply(&request, &mut ledger, &mut controller)
            .expect("an empty cell honors the plan");
        assert_eq!(admission.granted, request.profile.rb_cost_nominal);
        assert!(admission.squeezed.is_empty());
        assert_eq!(ledger.allocated_to(request.id), Some(request.profile.rb_cost_nominal));
        assert_eq!(controller.admitted, 1);
        // The same call again: the ledger refuses, nothing is notified.
        assert!(AdmissionPlan::gate(Decision::binary(true))
            .apply(&request, &mut ledger, &mut controller)
            .is_none());
        assert_eq!(controller.admitted, 1);
    }

    #[test]
    fn apply_degraded_squeezes_and_reports_floors() {
        let mut ledger = empty_cell();
        let elastic = ServiceProfile::elastic(
            ServiceClass::Video,
            BandwidthUnits::new(20),
            0.5,
            ServiceProfile::DEFAULT_MEAN_DURATION_S,
        );
        ledger.allocate(CallId(10), elastic).unwrap();
        ledger
            .allocate(
                CallId(11),
                ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(18)),
            )
            .unwrap();
        let mut controller = counting();
        let request = CallRequest::new(
            CallId(1),
            ServiceClass::Voice,
            CallKind::New,
            MobilityInfo::stationary(),
        );
        // 2 BU free; the 5-BU voice call needs 3 squeezed out of video.
        let squeezes = ledger.degradation_squeezes(request.demand()).unwrap();
        let plan = AdmissionPlan::AdmitDegraded {
            decision: Decision::binary(true),
            squeezes,
            grant: request.profile.rb_cost_nominal,
        };
        let admission = plan.apply(&request, &mut ledger, &mut controller).unwrap();
        assert_eq!(admission.granted, request.profile.rb_cost_nominal);
        assert_eq!(
            admission.squeezed,
            vec![(CallId(10), BandwidthUnits::new(17), BandwidthUnits::new(10))]
        );
        assert_eq!(ledger.occupied().get(), 40);
        assert_eq!(controller.admitted, 1);
    }

    #[test]
    fn apply_reject_leaves_ledger_and_controller_untouched() {
        let mut ledger = empty_cell();
        ledger.allocate(CallId(9), ServiceProfile::paper(ServiceClass::Video)).unwrap();
        let before = ledger.clone();
        let mut controller = counting();
        let plan = AdmissionPlan::gate(Decision::binary(false));
        assert!(plan.apply(&request(), &mut ledger, &mut controller).is_none());
        assert_eq!(ledger, before);
        assert_eq!(controller.admitted, 0);
    }

    #[test]
    fn policy_keys_tell_apart_the_type_and_the_shared_state() {
        struct Other;
        let (core, other_core) = (Arc::new(0u8), Arc::new(0u8));
        let key = PolicyKey::of::<CountingController, _>(&core);
        assert_eq!(key, PolicyKey::of::<CountingController, _>(&Arc::clone(&core)));
        assert_ne!(key, PolicyKey::of::<Other, _>(&core), "same core, another type");
        assert_ne!(key, PolicyKey::of::<CountingController, _>(&other_core), "another core");
        assert_eq!(counting().policy_key(), None, "unkeyed by default");
    }

    #[test]
    fn plan_accessors() {
        let admit = AdmissionPlan::gate(Decision::binary(true));
        assert!(admit.admits() && !admit.is_degraded());
        assert!(admit.decision().admits());
        let reject = AdmissionPlan::gate(Decision::binary(false));
        assert!(!reject.admits() && !reject.is_degraded());
        let degraded = AdmissionPlan::AdmitDegraded {
            decision: Decision::binary(true),
            squeezes: Vec::new(),
            grant: BandwidthUnits::new(3),
        };
        assert!(degraded.admits() && degraded.is_degraded());
    }
}
