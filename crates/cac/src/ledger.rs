//! Per-cell bandwidth bookkeeping with elastic (degradable)
//! allocations.
//!
//! Every active call holds an allocation somewhere in its profile's
//! `[rb_cost_min, rb_cost_nominal]` band. The ledger can *degrade*
//! elastic calls toward their QoS floor to make room for
//! higher-priority traffic ([`BandwidthLedger::degradation_squeezes`],
//! then [`BandwidthLedger::apply_squeezes`]) and
//! *re-upgrade* them toward nominal when bandwidth frees up
//! ([`BandwidthLedger::reupgrade_on_release`]). Both directions move one
//! bandwidth unit at a time in fair-share order, so the squeeze is
//! spread across the calls with the most slack and the recovery goes to
//! the calls farthest below nominal.
//!
//! The calls live in one `Vec` kept sorted by [`CallId`] and searched by
//! binary search, so every walk (iteration, both fair-share loops, the
//! returned reallocation lists) runs in ascending-id order and the
//! lowest-id tie-breaks stay deterministic for the sharded simulator.
//! A cell holds a handful of calls, so the sorted insert and remove
//! shift only a few entries. When the last call leaves, the buffer is
//! freed, not kept: a large grid has ~100k cells, most of them idle at
//! any moment, and an emptied buffer kept in each would stay resident
//! for the whole run.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::traffic::{CallId, ClassCounts, ServiceProfile};
use crate::units::BandwidthUnits;

/// Errors from ledger operations.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LedgerError {
    /// Allocation refused: not enough free bandwidth.
    Insufficient {
        /// Requested amount.
        requested: BandwidthUnits,
        /// Currently free amount.
        free: BandwidthUnits,
    },
    /// The call is already holding an allocation in this ledger.
    AlreadyAllocated(CallId),
    /// Release of a call this ledger never admitted (or already released).
    UnknownCall(CallId),
    /// A grant outside the profile's `[floor, nominal]` band.
    GrantOutOfBand {
        /// The offending grant.
        grant: BandwidthUnits,
        /// The profile's QoS floor.
        floor: BandwidthUnits,
        /// The profile's nominal cost.
        nominal: BandwidthUnits,
    },
    /// A squeeze that names an unknown call, raises an allocation, dips
    /// below the victim's QoS floor, or repeats a call named earlier in
    /// the same list.
    InvalidSqueeze(CallId),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Insufficient { requested, free } => {
                write!(f, "insufficient bandwidth: requested {requested}, free {free}")
            }
            LedgerError::AlreadyAllocated(id) => write!(f, "{id} already holds an allocation"),
            LedgerError::UnknownCall(id) => write!(f, "{id} holds no allocation"),
            LedgerError::GrantOutOfBand { grant, floor, nominal } => {
                write!(f, "grant {grant} outside the [{floor}, {nominal}] profile band")
            }
            LedgerError::InvalidSqueeze(id) => {
                write!(
                    f,
                    "squeeze on {id} is unknown, non-shrinking, below its QoS floor, or repeated"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// One call's live allocation: its service contract plus the bandwidth
/// it currently holds (always within `[rb_cost_min, rb_cost_nominal]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// The call's service contract.
    pub profile: ServiceProfile,
    /// The bandwidth currently granted.
    pub allocated: BandwidthUnits,
}

impl Allocation {
    /// How far the call sits above its QoS floor (reclaimable slack).
    #[must_use]
    pub fn slack(&self) -> BandwidthUnits {
        self.allocated - self.profile.rb_cost_min
    }

    /// How far the call sits below nominal (re-upgrade deficit).
    #[must_use]
    pub fn deficit(&self) -> BandwidthUnits {
        self.profile.rb_cost_nominal - self.allocated
    }

    /// Whether the call runs below its nominal allocation.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.allocated < self.profile.rb_cost_nominal
    }
}

/// One bandwidth change applied to an existing call: squeezes shrink
/// (`to < from`, toward the floor), re-upgrades grow (`to > from`,
/// toward nominal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reallocation {
    /// The affected call.
    pub call: CallId,
    /// Allocation before the change.
    pub from: BandwidthUnits,
    /// Allocation after the change.
    pub to: BandwidthUnits,
}

/// Tracks the per-call bandwidth allocations of one cell.
///
/// Invariants, `debug_assert`-checked after every mutation:
/// * conservation — `occupied()` equals the sum of all outstanding
///   allocations, and `occupied() + free() == capacity()`;
/// * QoS floor — every allocation stays inside its profile's
///   `[rb_cost_min, rb_cost_nominal]` band;
/// * order — the store is strictly ascending by [`CallId`].
///
/// # Examples
///
/// ```
/// use facs_cac::{BandwidthLedger, BandwidthUnits, CallId, ServiceClass, ServiceProfile};
///
/// # fn main() -> Result<(), facs_cac::LedgerError> {
/// let mut ledger = BandwidthLedger::new(BandwidthUnits::new(40));
/// ledger.allocate(CallId(1), ServiceProfile::paper(ServiceClass::Video))?;
/// ledger.allocate(CallId(2), ServiceProfile::paper(ServiceClass::Voice))?;
/// assert_eq!(ledger.occupied().get(), 15);
/// assert_eq!(ledger.counts().real_time(), 2);
/// ledger.release(CallId(1))?;
/// assert_eq!(ledger.occupied().get(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthLedger {
    capacity: BandwidthUnits,
    occupied: BandwidthUnits,
    /// Live calls, strictly ascending by id; no heap buffer while empty.
    allocations: Vec<(CallId, Allocation)>,
    counts: ClassCounts,
}

impl BandwidthLedger {
    /// Creates an empty ledger with the given capacity.
    #[must_use]
    pub fn new(capacity: BandwidthUnits) -> Self {
        Self {
            capacity,
            occupied: BandwidthUnits::ZERO,
            allocations: Vec::new(),
            counts: ClassCounts::default(),
        }
    }

    /// Total capacity (the paper's 40 BU per base station).
    #[must_use]
    pub fn capacity(&self) -> BandwidthUnits {
        self.capacity
    }

    /// Currently allocated bandwidth — the paper's *Counter state* `Cs`.
    #[must_use]
    pub fn occupied(&self) -> BandwidthUnits {
        self.occupied
    }

    /// Currently free bandwidth.
    #[must_use]
    pub fn free(&self) -> BandwidthUnits {
        self.capacity - self.occupied
    }

    /// Occupancy as a fraction of capacity in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.occupied.fraction_of(self.capacity)
    }

    /// Number of active calls.
    #[must_use]
    pub fn active_calls(&self) -> usize {
        self.allocations.len()
    }

    /// Per-class active-call counts (the multi-class generalization of
    /// the paper's RTC/NRTC pair).
    #[must_use]
    pub fn counts(&self) -> ClassCounts {
        self.counts
    }

    /// Whether `demand` would fit right now, without degrading anyone.
    #[must_use]
    pub fn can_fit(&self, demand: BandwidthUnits) -> bool {
        demand <= self.free()
    }

    /// Service profile of an active call, if present.
    #[must_use]
    pub fn profile_of(&self, id: CallId) -> Option<ServiceProfile> {
        self.get(id).map(|a| a.profile)
    }

    /// Bandwidth currently granted to an active call, if present.
    #[must_use]
    pub fn allocated_to(&self, id: CallId) -> Option<BandwidthUnits> {
        self.get(id).map(|a| a.allocated)
    }

    /// Where `id` sits in the sorted store: `Ok(index)` when it is
    /// active, `Err(insertion point)` otherwise.
    fn slot(&self, id: CallId) -> Result<usize, usize> {
        self.allocations.binary_search_by_key(&id, |&(call, _)| call)
    }

    fn get(&self, id: CallId) -> Option<&Allocation> {
        self.slot(id).ok().map(|i| &self.allocations[i].1)
    }

    /// Total bandwidth the ledger could still reclaim by degrading every
    /// elastic call to its floor.
    #[must_use]
    pub fn reclaimable(&self) -> BandwidthUnits {
        self.allocations.iter().map(|(_, a)| a.slack()).sum()
    }

    /// Allocates the profile's nominal bandwidth for a call.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::Insufficient`] — not enough free bandwidth (the
    ///   ledger is left unchanged);
    /// * [`LedgerError::AlreadyAllocated`] — `id` is already active.
    pub fn allocate(&mut self, id: CallId, profile: ServiceProfile) -> Result<(), LedgerError> {
        self.allocate_at(id, profile, profile.rb_cost_nominal)
    }

    /// Allocates `grant` bandwidth units for a call, anywhere in its
    /// profile's `[floor, nominal]` band.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::GrantOutOfBand`] — `grant` outside the band;
    /// * [`LedgerError::Insufficient`] — not enough free bandwidth;
    /// * [`LedgerError::AlreadyAllocated`] — `id` is already active.
    ///
    /// The ledger is left unchanged on every error.
    pub fn allocate_at(
        &mut self,
        id: CallId,
        profile: ServiceProfile,
        grant: BandwidthUnits,
    ) -> Result<(), LedgerError> {
        let at = self.check_grant(id, profile, grant)?;
        if !self.can_fit(grant) {
            return Err(LedgerError::Insufficient { requested: grant, free: self.free() });
        }
        self.allocations.insert(at, (id, Allocation { profile, allocated: grant }));
        self.occupied += grant;
        self.counts.increment(profile.class);
        self.assert_conserved();
        Ok(())
    }

    /// Plans the squeezes needed to free `demand` bandwidth units, without
    /// applying them. Returns `None` when even degrading every elastic
    /// call to its floor cannot free enough.
    ///
    /// Fair-share order: bandwidth is reclaimed one unit at a time from
    /// the call with the most remaining slack (allocation minus floor),
    /// ties broken toward the lowest [`CallId`] — so the squeeze spreads
    /// across the least-degraded calls instead of flooring one victim.
    #[must_use]
    pub fn degradation_squeezes(&self, demand: BandwidthUnits) -> Option<Vec<Reallocation>> {
        let mut needed = demand.get().saturating_sub(self.free().get());
        if needed == 0 {
            return Some(Vec::new());
        }
        if needed > self.reclaimable().get() {
            return None;
        }
        // Working copy of the calls with slack, still in ascending-id
        // order — small per-cell populations make the unit-by-unit scan
        // cheap and keep the order obviously fair.
        let mut working: Vec<(CallId, BandwidthUnits, Allocation)> = self
            .allocations
            .iter()
            .filter(|(_, a)| !a.slack().is_zero())
            .map(|&(id, a)| (id, a.allocated, a))
            .collect();
        while needed > 0 {
            let (_, _, victim) = working
                .iter_mut()
                .max_by_key(|(id, _, a)| (a.slack(), std::cmp::Reverse(*id)))
                .expect("reclaimable() guaranteed enough slack");
            victim.allocated -= BandwidthUnits::new(1);
            needed -= 1;
        }
        Some(
            working
                .into_iter()
                .filter(|(_, from, a)| a.allocated < *from)
                .map(|(call, from, a)| Reallocation { call, from, to: a.allocated })
                .collect(),
        )
    }

    /// Validates and applies a list of squeezes, returning the bandwidth
    /// freed. All-or-nothing: on error the ledger is unchanged.
    ///
    /// # Errors
    ///
    /// [`LedgerError::InvalidSqueeze`] when a squeeze names an unknown
    /// call, does not shrink its allocation, dips below its QoS floor, or
    /// names a call an earlier squeeze in the list already named.
    pub fn apply_squeezes(
        &mut self,
        squeezes: &[Reallocation],
    ) -> Result<BandwidthUnits, LedgerError> {
        let freed = self.squeeze_yield(squeezes)?;
        for s in squeezes {
            let at = self.slot(s.call).expect("validated above");
            self.allocations[at].1.allocated = s.to;
        }
        self.occupied -= freed;
        self.assert_conserved();
        Ok(freed)
    }

    /// Atomically applies an admission plan: squeezes first, then the
    /// admitted call's allocation at `grant`. On any error the ledger is
    /// left exactly as it was — a stale plan (raced by another admission)
    /// degrades to a rejection at the call site.
    ///
    /// # Errors
    ///
    /// Any of [`LedgerError::InvalidSqueeze`],
    /// [`LedgerError::GrantOutOfBand`], [`LedgerError::Insufficient`],
    /// [`LedgerError::AlreadyAllocated`].
    pub fn admit_with_plan(
        &mut self,
        id: CallId,
        profile: ServiceProfile,
        grant: BandwidthUnits,
        squeezes: &[Reallocation],
    ) -> Result<(), LedgerError> {
        self.check_grant(id, profile, grant)?;
        let freed = self.squeeze_yield(squeezes)?;
        if grant > self.free() + freed {
            return Err(LedgerError::Insufficient { requested: grant, free: self.free() + freed });
        }
        self.apply_squeezes(squeezes).expect("validated above");
        self.allocate_at(id, profile, grant).expect("freed bandwidth covers the grant");
        Ok(())
    }

    /// Checks that `grant` lies in `profile`'s `[floor, nominal]` band
    /// and that `id` holds no allocation yet; returns where `id` goes in
    /// the sorted store.
    fn check_grant(
        &self,
        id: CallId,
        profile: ServiceProfile,
        grant: BandwidthUnits,
    ) -> Result<usize, LedgerError> {
        if grant < profile.rb_cost_min || grant > profile.rb_cost_nominal {
            return Err(LedgerError::GrantOutOfBand {
                grant,
                floor: profile.rb_cost_min,
                nominal: profile.rb_cost_nominal,
            });
        }
        self.slot(id).err().ok_or(LedgerError::AlreadyAllocated(id))
    }

    /// Validates `squeezes` without applying them and returns the
    /// bandwidth they would free.
    fn squeeze_yield(&self, squeezes: &[Reallocation]) -> Result<BandwidthUnits, LedgerError> {
        let mut freed = BandwidthUnits::ZERO;
        for (i, s) in squeezes.iter().enumerate() {
            let alloc = self.get(s.call).ok_or(LedgerError::InvalidSqueeze(s.call))?;
            // A repeat would be checked against the same unchanged
            // allocation and free its bandwidth twice.
            if s.from != alloc.allocated
                || s.to >= alloc.allocated
                || s.to < alloc.profile.rb_cost_min
                || squeezes[..i].iter().any(|p| p.call == s.call)
            {
                return Err(LedgerError::InvalidSqueeze(s.call));
            }
            freed += alloc.allocated - s.to;
        }
        Ok(freed)
    }

    /// Redistributes free bandwidth to degraded calls, one unit at a time
    /// to the call with the largest deficit (nominal minus allocation),
    /// ties broken toward the lowest [`CallId`]. Returns the applied
    /// re-upgrades (empty when nothing was degraded or nothing is free).
    ///
    /// Call after every release so elastic calls recover their nominal
    /// quality as soon as bandwidth allows.
    pub fn reupgrade_on_release(&mut self) -> Vec<Reallocation> {
        let mut free = self.free().get();
        if free == 0 {
            return Vec::new();
        }
        // (store index, allocation before) of every degraded call; no call
        // joins or leaves below, so the indices stay valid.
        let before: Vec<(usize, BandwidthUnits)> = self
            .allocations
            .iter()
            .enumerate()
            .filter(|(_, (_, a))| a.is_degraded())
            .map(|(i, (_, a))| (i, a.allocated))
            .collect();
        if before.is_empty() {
            return Vec::new();
        }
        while free > 0 {
            let Some((_, target)) = self
                .allocations
                .iter_mut()
                .filter(|(_, a)| a.is_degraded())
                .max_by_key(|(id, a)| (a.deficit(), std::cmp::Reverse(*id)))
            else {
                break;
            };
            target.allocated += BandwidthUnits::new(1);
            self.occupied += BandwidthUnits::new(1);
            free -= 1;
        }
        self.assert_conserved();
        before
            .into_iter()
            .map(|(i, from)| (self.allocations[i], from))
            .filter(|((_, a), from)| a.allocated > *from)
            .map(|((call, a), from)| Reallocation { call, from, to: a.allocated })
            .collect()
    }

    /// Releases a call's bandwidth, returning its profile.
    ///
    /// Does **not** re-upgrade the survivors; call
    /// [`reupgrade_on_release`](Self::reupgrade_on_release) afterwards
    /// when degraded calls should reclaim the freed bandwidth.
    ///
    /// # Errors
    ///
    /// [`LedgerError::UnknownCall`] when `id` holds no allocation.
    pub fn release(&mut self, id: CallId) -> Result<ServiceProfile, LedgerError> {
        let at = self.slot(id).map_err(|_| LedgerError::UnknownCall(id))?;
        let (_, alloc) = self.allocations.remove(at);
        if self.allocations.is_empty() {
            // Free the buffer: an idle cell keeps no heap memory.
            self.allocations = Vec::new();
        }
        self.occupied -= alloc.allocated;
        self.counts.decrement(alloc.profile.class);
        self.assert_conserved();
        Ok(alloc.profile)
    }

    /// Iterates over `(call, allocation)` pairs of active calls in
    /// ascending [`CallId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CallId, Allocation)> + '_ {
        self.allocations.iter().copied()
    }

    /// A read-only snapshot for admission controllers.
    #[must_use]
    pub fn snapshot(&self) -> CellSnapshot {
        CellSnapshot { capacity: self.capacity, occupied: self.occupied, counts: self.counts }
    }

    /// Debug-build check of the conservation, QoS-floor and order
    /// invariants.
    fn assert_conserved(&self) {
        debug_assert_eq!(
            self.allocations.iter().map(|(_, a)| a.allocated).sum::<BandwidthUnits>(),
            self.occupied,
            "ledger conservation broken: occupied diverged from the allocation sum"
        );
        debug_assert!(self.occupied <= self.capacity, "ledger over capacity");
        debug_assert!(
            self.allocations.iter().all(|(_, a)| a.allocated >= a.profile.rb_cost_min
                && a.allocated <= a.profile.rb_cost_nominal),
            "an allocation left its [floor, nominal] band"
        );
        debug_assert!(
            self.allocations.windows(2).all(|w| w[0].0 < w[1].0),
            "the store left strictly ascending id order"
        );
    }
}

/// An immutable view of a cell's load, handed to FACS evaluation and the
/// post-admission controller hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSnapshot {
    /// Total capacity.
    pub capacity: BandwidthUnits,
    /// Currently allocated bandwidth (the paper's `Cs` input).
    pub occupied: BandwidthUnits,
    /// Per-class active-call counts (generalizes the paper's RTC/NRTC).
    pub counts: ClassCounts,
}

impl CellSnapshot {
    /// An empty cell with `capacity`.
    #[must_use]
    pub fn empty(capacity: BandwidthUnits) -> Self {
        Self { capacity, occupied: BandwidthUnits::ZERO, counts: ClassCounts::default() }
    }

    /// A cell at a given occupancy with no per-class attribution — for
    /// tests and load sweeps that only care about the `Cs` axis.
    #[must_use]
    pub fn loaded(capacity: BandwidthUnits, occupied: BandwidthUnits) -> Self {
        Self { capacity, occupied, counts: ClassCounts::default() }
    }

    /// Free bandwidth.
    #[must_use]
    pub fn free(&self) -> BandwidthUnits {
        self.capacity.saturating_sub(self.occupied)
    }

    /// Occupancy fraction in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.occupied.fraction_of(self.capacity)
    }

    /// Whether `demand` fits in the free bandwidth.
    #[must_use]
    pub fn can_fit(&self, demand: BandwidthUnits) -> bool {
        demand <= self.free()
    }

    /// The crisp counter-state value fed to FLC2's `Cs` input: occupied BU
    /// over the paper's `[0, 40]` universe (scaled if capacity differs).
    #[must_use]
    pub fn counter_state(&self) -> f64 {
        f64::from(self.occupied.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ServiceClass;

    fn full_ledger() -> BandwidthLedger {
        // 40 BU: 2 video (20) + 3 voice (15) + 5 text (5) = 40.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        l.allocate(CallId(1), ServiceProfile::paper(ServiceClass::Video)).unwrap();
        l.allocate(CallId(2), ServiceProfile::paper(ServiceClass::Video)).unwrap();
        l.allocate(CallId(3), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
        l.allocate(CallId(4), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
        l.allocate(CallId(5), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
        for i in 6..=10 {
            l.allocate(CallId(i), ServiceProfile::paper(ServiceClass::Text)).unwrap();
        }
        l
    }

    /// Elastic video profile: nominal 10, floor 5.
    fn elastic_video() -> ServiceProfile {
        ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0)
    }

    /// Elastic voice profile: nominal 5, floor 2 (ceil(5 * 0.4)).
    fn elastic_voice() -> ServiceProfile {
        ServiceProfile::elastic(ServiceClass::Voice, BandwidthUnits::new(5), 0.4, 120.0)
    }

    #[test]
    fn conservation_invariant() {
        let l = full_ledger();
        assert_eq!(l.occupied() + l.free(), l.capacity());
        assert_eq!(l.occupied().get(), 40);
        assert_eq!(l.free(), BandwidthUnits::ZERO);
        assert_eq!(l.utilization(), 1.0);
    }

    #[test]
    fn counters_track_classes() {
        let l = full_ledger();
        assert_eq!(l.counts().real_time(), 5);
        assert_eq!(l.counts().non_real_time(), 5);
        assert_eq!(l.counts(), ClassCounts { text: 5, voice: 3, video: 2 });
        assert_eq!(l.counts().total(), 10);
        assert_eq!(l.active_calls(), 10);
    }

    #[test]
    fn refuses_over_allocation_without_side_effects() {
        let mut l = full_ledger();
        let before = l.clone();
        let err = l.allocate(CallId(99), ServiceProfile::paper(ServiceClass::Text)).unwrap_err();
        assert_eq!(
            err,
            LedgerError::Insufficient {
                requested: BandwidthUnits::new(1),
                free: BandwidthUnits::ZERO
            }
        );
        assert_eq!(l, before, "failed allocation must not mutate the ledger");
    }

    #[test]
    fn refuses_duplicate_allocation() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        l.allocate(CallId(1), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
        let err = l.allocate(CallId(1), ServiceProfile::paper(ServiceClass::Text)).unwrap_err();
        assert_eq!(err, LedgerError::AlreadyAllocated(CallId(1)));
        assert_eq!(l.occupied().get(), 5);
    }

    #[test]
    fn refuses_grant_outside_band() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        let profile = elastic_video(); // [5, 10]
        let low = l.allocate_at(CallId(1), profile, BandwidthUnits::new(4)).unwrap_err();
        assert!(matches!(low, LedgerError::GrantOutOfBand { .. }));
        let high = l.allocate_at(CallId(1), profile, BandwidthUnits::new(11)).unwrap_err();
        assert!(matches!(high, LedgerError::GrantOutOfBand { .. }));
        assert_eq!(l.occupied(), BandwidthUnits::ZERO);
        l.allocate_at(CallId(1), profile, BandwidthUnits::new(7)).unwrap();
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(7)));
    }

    #[test]
    fn release_returns_profile_and_frees() {
        let mut l = full_ledger();
        assert_eq!(l.release(CallId(1)).unwrap().class, ServiceClass::Video);
        assert_eq!(l.free().get(), 10);
        assert_eq!(l.counts().real_time(), 4);
        assert_eq!(l.release(CallId(1)).unwrap_err(), LedgerError::UnknownCall(CallId(1)));
    }

    #[test]
    fn release_then_reallocate_cycles() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(10));
        for round in 0..100 {
            let id = CallId(round);
            l.allocate(id, ServiceProfile::paper(ServiceClass::Video)).unwrap();
            assert!(!l.can_fit(BandwidthUnits::new(1)));
            l.release(id).unwrap();
            assert_eq!(l.occupied(), BandwidthUnits::ZERO);
        }
    }

    #[test]
    fn snapshot_reflects_state() {
        let l = full_ledger();
        let s = l.snapshot();
        assert_eq!(s.capacity, l.capacity());
        assert_eq!(s.occupied, l.occupied());
        assert_eq!(s.counts.real_time(), 5);
        assert_eq!(s.counter_state(), 40.0);
        assert!(!s.can_fit(BandwidthUnits::new(1)));
    }

    #[test]
    fn snapshot_empty_and_loaded() {
        let s = CellSnapshot::empty(BandwidthUnits::new(40));
        assert_eq!(s.free().get(), 40);
        assert_eq!(s.utilization(), 0.0);
        assert!(s.can_fit(BandwidthUnits::new(40)));
        assert!(!s.can_fit(BandwidthUnits::new(41)));
        let loaded = CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(25));
        assert_eq!(loaded.free().get(), 15);
        assert_eq!(loaded.counts.total(), 0);
    }

    #[test]
    fn class_of_lookup() {
        let l = full_ledger();
        assert_eq!(l.profile_of(CallId(1)).unwrap().class, ServiceClass::Video);
        assert_eq!(l.profile_of(CallId(1)).unwrap().rb_cost_nominal.get(), 10);
        assert_eq!(l.profile_of(CallId(99)), None);
    }

    #[test]
    fn iter_covers_all_allocations() {
        let l = full_ledger();
        let total: BandwidthUnits = l.iter().map(|(_, a)| a.allocated).sum();
        assert_eq!(total, l.occupied());
    }

    // --- elastic behavior ---------------------------------------------

    #[test]
    fn degrade_exactly_to_floor() {
        // Two elastic videos at nominal fill 20/20; a 10-BU demand forces
        // both exactly to their 5-BU floors — not one unit further.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(20));
        l.allocate(CallId(1), elastic_video()).unwrap();
        l.allocate(CallId(2), elastic_video()).unwrap();
        let squeezes =
            l.degradation_squeezes(BandwidthUnits::new(10)).expect("slack covers the demand");
        assert_eq!(l.apply_squeezes(&squeezes), Ok(BandwidthUnits::new(10)));
        assert_eq!(l.free().get(), 10);
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(5)));
        assert_eq!(l.allocated_to(CallId(2)), Some(BandwidthUnits::new(5)));
        assert_eq!(squeezes.len(), 2);
        assert!(squeezes.iter().all(|s| s.to.get() == 5 && s.from.get() == 10));
        assert_eq!(l.reclaimable(), BandwidthUnits::ZERO);
    }

    #[test]
    fn fair_share_spreads_the_squeeze() {
        // Fresh call at nominal (slack 5) next to an already-degraded one
        // (slack 2): reclaiming 3 BU must hit the fresh call first.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(17));
        l.allocate_at(CallId(1), elastic_video(), BandwidthUnits::new(7)).unwrap();
        l.allocate(CallId(2), elastic_video()).unwrap();
        let squeezes = l.degradation_squeezes(BandwidthUnits::new(3)).unwrap();
        assert_eq!(l.apply_squeezes(&squeezes), Ok(BandwidthUnits::new(3)));
        assert_eq!(
            squeezes,
            vec![Reallocation {
                call: CallId(2),
                from: BandwidthUnits::new(10),
                to: BandwidthUnits::new(7),
            }]
        );
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(7)));
    }

    #[test]
    fn degradation_plan_that_still_does_not_fit() {
        // Floors sum to 10 in a 20-BU cell: total slack is 10, so a
        // 15-BU demand is infeasible and the ledger must be untouched.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(20));
        l.allocate(CallId(1), elastic_video()).unwrap();
        l.allocate(CallId(2), elastic_video()).unwrap();
        let before = l.clone();
        assert_eq!(l.degradation_squeezes(BandwidthUnits::new(15)), None);
        assert_eq!(l, before);
    }

    #[test]
    fn zero_width_profiles_cannot_degrade() {
        // Inelastic (paper) profiles have no slack: degradation plans
        // reclaim nothing, so a full cell stays full — bit-for-bit the
        // pre-elastic ledger's behavior.
        let mut l = full_ledger();
        assert_eq!(l.reclaimable(), BandwidthUnits::ZERO);
        assert_eq!(l.degradation_squeezes(BandwidthUnits::new(1)), None);
        assert!(l.reupgrade_on_release().is_empty());
        l.release(CallId(10)).unwrap();
        assert!(l.reupgrade_on_release().is_empty(), "nominal calls never re-upgrade");
        assert_eq!(l.free().get(), 1);
    }

    #[test]
    fn reupgrade_ordering_after_multiple_releases() {
        // Cell of 22: video degraded to 5 (deficit 5), two voices degraded
        // to 2 (deficit 3 each), plus a rigid 10-BU filler. Releasing the
        // filler frees 10: the video (largest deficit) recovers first,
        // then the deficit-3 voices, lowest CallId first — and everyone
        // lands back at nominal with 1 BU spare.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(22));
        l.allocate_at(CallId(1), elastic_video(), BandwidthUnits::new(5)).unwrap();
        l.allocate_at(CallId(2), elastic_voice(), BandwidthUnits::new(2)).unwrap();
        l.allocate_at(CallId(3), elastic_voice(), BandwidthUnits::new(2)).unwrap();
        l.allocate(CallId(4), ServiceProfile::fixed(ServiceClass::Video, BandwidthUnits::new(10)))
            .unwrap();
        assert_eq!(l.free().get(), 3);

        // Partial recovery first: 3 free BU all flow to the video, whose
        // deficit (5) dominates the voices' (3).
        let first = l.reupgrade_on_release();
        assert_eq!(
            first,
            vec![Reallocation {
                call: CallId(1),
                from: BandwidthUnits::new(5),
                to: BandwidthUnits::new(8),
            }]
        );

        l.release(CallId(4)).unwrap();
        let second = l.reupgrade_on_release();
        // 10 freed: video takes 2 (to nominal 10), each voice takes 3.
        assert_eq!(second.len(), 3);
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(10)));
        assert_eq!(l.allocated_to(CallId(2)), Some(BandwidthUnits::new(5)));
        assert_eq!(l.allocated_to(CallId(3)), Some(BandwidthUnits::new(5)));
        assert_eq!(l.free().get(), 2);
        assert!(l.reupgrade_on_release().is_empty(), "everyone back at nominal");
    }

    #[test]
    fn admit_with_plan_is_atomic() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(20));
        l.allocate(CallId(1), elastic_video()).unwrap();
        l.allocate(CallId(2), elastic_video()).unwrap();
        let squeezes = l.degradation_squeezes(BandwidthUnits::new(5)).unwrap();
        let before = l.clone();

        // A stale plan (victim already released) must change nothing.
        let mut stale = squeezes.clone();
        stale[0].call = CallId(77);
        let err = l
            .admit_with_plan(CallId(3), elastic_voice(), BandwidthUnits::new(5), &stale)
            .unwrap_err();
        assert_eq!(err, LedgerError::InvalidSqueeze(CallId(77)));
        assert_eq!(l, before, "failed plan must not mutate the ledger");

        // The valid plan admits the voice call at its 5-BU grant.
        l.admit_with_plan(CallId(3), elastic_voice(), BandwidthUnits::new(5), &squeezes).unwrap();
        assert_eq!(l.allocated_to(CallId(3)), Some(BandwidthUnits::new(5)));
        assert_eq!(l.occupied(), l.capacity());
    }

    #[test]
    fn apply_squeezes_rejects_floor_violations() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(10));
        l.allocate(CallId(1), elastic_video()).unwrap();
        let below_floor = [Reallocation {
            call: CallId(1),
            from: BandwidthUnits::new(10),
            to: BandwidthUnits::new(4),
        }];
        assert_eq!(
            l.apply_squeezes(&below_floor).unwrap_err(),
            LedgerError::InvalidSqueeze(CallId(1))
        );
        let growing = [Reallocation {
            call: CallId(1),
            from: BandwidthUnits::new(10),
            to: BandwidthUnits::new(10),
        }];
        assert_eq!(l.apply_squeezes(&growing).unwrap_err(), LedgerError::InvalidSqueeze(CallId(1)));
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(10)));
    }

    #[test]
    fn degrade_then_reupgrade_round_trips() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(20));
        l.allocate(CallId(1), elastic_video()).unwrap();
        l.allocate(CallId(2), elastic_video()).unwrap();
        let squeezes = l.degradation_squeezes(BandwidthUnits::new(5)).unwrap();
        l.apply_squeezes(&squeezes).unwrap();
        l.allocate(CallId(3), ServiceProfile::fixed(ServiceClass::Voice, BandwidthUnits::new(5)))
            .unwrap();
        l.release(CallId(3)).unwrap();
        let ups = l.reupgrade_on_release();
        assert!(!ups.is_empty());
        assert_eq!(l.allocated_to(CallId(1)), Some(BandwidthUnits::new(10)));
        assert_eq!(l.allocated_to(CallId(2)), Some(BandwidthUnits::new(10)));
        assert_eq!(l.occupied().get(), 20);
    }

    #[test]
    fn squeeze_lists_that_repeat_a_call_are_refused() {
        // Each entry is valid on its own, but together they would free
        // 3 + 4 BU while the call gives back only 4.
        let mut l = BandwidthLedger::new(BandwidthUnits::new(15));
        l.allocate(CallId(1), elastic_video()).unwrap();
        let repeated = [
            Reallocation {
                call: CallId(1),
                from: BandwidthUnits::new(10),
                to: BandwidthUnits::new(7),
            },
            Reallocation {
                call: CallId(1),
                from: BandwidthUnits::new(10),
                to: BandwidthUnits::new(6),
            },
        ];
        let before = l.clone();
        assert_eq!(l.apply_squeezes(&repeated), Err(LedgerError::InvalidSqueeze(CallId(1))));
        assert_eq!(l, before, "a refused squeeze list must not mutate the ledger");
        assert_eq!(
            l.admit_with_plan(CallId(2), elastic_video(), BandwidthUnits::new(10), &repeated),
            Err(LedgerError::InvalidSqueeze(CallId(1)))
        );
        assert_eq!(l, before, "a refused plan must not mutate the ledger");
    }

    #[test]
    fn an_emptied_ledger_holds_no_buffer() {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        assert_eq!(l.allocations.capacity(), 0);
        l.allocate(CallId(1), ServiceProfile::paper(ServiceClass::Voice)).unwrap();
        assert!(l.allocations.capacity() > 0);
        l.release(CallId(1)).unwrap();
        assert_eq!(l.allocations.capacity(), 0, "one call came and went");

        let mut l = full_ledger();
        for i in [4, 1, 10, 7, 2, 9, 3, 6, 5] {
            l.release(CallId(i)).unwrap();
            assert!(l.allocations.capacity() > 0, "a call is still active");
        }
        l.release(CallId(8)).unwrap();
        assert_eq!(l.allocations.capacity(), 0, "a full ledger drained to empty");
        assert_eq!(l, BandwidthLedger::new(BandwidthUnits::new(40)));
    }
}
