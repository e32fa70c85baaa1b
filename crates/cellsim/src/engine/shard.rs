//! One shard of the simulation world: a group of cells (a ledger each),
//! the policy table their controllers sit in, the users whose calls
//! those cells currently serve, and two private queues, one of call-ends
//! and one of movement wakes.
//!
//! A shard processes an entire epoch — all cell-local events up to the
//! next movement barrier — without communicating; cross-shard traffic
//! (handoffs of in-call users into cells owned by another shard) is
//! exchanged only at the barrier. See the module docs of
//! [`crate::engine`] for why this is deterministic.

use std::collections::VecDeque;

use facs_cac::{
    BandwidthLedger, BandwidthUnits, BoxedController, CallId, CallKind, CallRequest, CellId,
    ServiceProfile,
};

use crate::events::{EngineQueue, QueueEntry, UserId};
use crate::geometry::HexGrid;
use crate::metrics::{DecisionRecord, MetricsSink};
use crate::mobility::{MobileState, MobilityModel};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use super::{MobilityKind, SimulationConfig, UserSpec};

/// One cell's state plus its utilization bookkeeping.
///
/// The occupied-bandwidth integral is accumulated **per cell**, advanced
/// only when this cell's occupancy changes (and flushed once at the end
/// of the run). Because a cell's event sequence is shard-independent,
/// the exact float-op order of its integral is too — which is what makes
/// `mean_utilization` bit-identical across shard counts. The shard knows
/// a cell's id from its slot, and `HexGrid::center_of` its center.
pub(crate) struct CellUnit {
    pub(crate) ledger: BandwidthLedger,
    /// The cell's controller: its slot in the shard's policy table.
    pub(crate) policy: u32,
    occupied_integral_bu_s: f64,
    last_change: SimTime,
    /// Barrier time of the last `observe` pulse delivered to this cell's
    /// controller, used to `debug_assert!` the ordering contract
    /// documented on [`AdmissionController::observe`]: every admission at
    /// time `t` precedes the epoch-`t` pulse, and every pulse precedes
    /// all strictly-later admissions.
    ///
    /// [`AdmissionController::observe`]: facs_cac::AdmissionController::observe
    #[cfg(debug_assertions)]
    last_observed_s: f64,
}

impl CellUnit {
    pub(crate) fn new(ledger: BandwidthLedger, policy: u32) -> Self {
        Self {
            ledger,
            policy,
            occupied_integral_bu_s: 0.0,
            last_change: SimTime::ZERO,
            #[cfg(debug_assertions)]
            last_observed_s: f64::NEG_INFINITY,
        }
    }

    /// Integrates the current occupancy up to `now`. Must be called
    /// before every occupancy change and once at the end of the run.
    fn integrate_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).as_secs_f64();
        if dt > 0.0 {
            self.occupied_integral_bu_s += f64::from(self.ledger.occupied().get()) * dt;
            self.last_change = now;
        }
    }

    /// Final flush: returns `(occupied BU·s, capacity BU·s)` over `[0, end]`.
    pub(crate) fn finish(&mut self, end: SimTime) -> (f64, f64) {
        self.integrate_to(end);
        let capacity_bu_s = f64::from(self.ledger.capacity().get()) * end.as_secs_f64();
        (self.occupied_integral_bu_s, capacity_bu_s)
    }
}

/// How far inside its cell's hexagon, in km, a user must stay for its
/// steps to be deferred. Position rounding stays orders of magnitude
/// below this (see [`MAX_SLACK`]), and a point inside the hexagon by
/// more than it hex-rounds into that cell, so there `locate` returns
/// the serving cell and `out_of_coverage` is `false`.
const EDGE_EPSILON_KM: f64 = 1e-6;

/// The most steps one wake may defer. Each applied step may round
/// the position by up to an ulp of its coordinates (~1e-13 km at
/// 600 km from the origin); 2¹⁶ of them add up to less than
/// [`EDGE_EPSILON_KM`] for coordinates below ~10⁵ km. Realistic users
/// never reach it (a 4 km/h pedestrian on a 0.5 s tick covers 1 km in
/// 1,800 steps), so it costs nothing.
const MAX_SLACK: u32 = 1 << 16;

/// The number of steps of at most `len_km` each that stay strictly
/// inside a hexagon from a point `margin_km` inside it, with
/// [`EDGE_EPSILON_KM`] to spare; `None` for a user that never moves,
/// which never needs a step. One outside the hexagon, or whose step
/// length is not a number, needs every step.
fn step_slack(margin_km: f64, len_km: f64) -> Option<u32> {
    if len_km == 0.0 {
        return None;
    }
    // `as` saturates: a negative or NaN quotient gives 0.
    let steps = ((margin_km - EDGE_EPSILON_KM) / len_km.abs()).floor() as u32;
    Some(steps.min(MAX_SLACK))
}

/// What a movement barrier does to an in-call user besides stepping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Motion {
    /// Left the coverage area.
    Exit,
    /// Crossed into another cell.
    Cross(CellId),
}

/// A user with an active call, registered with the shard owning the
/// serving cell. The record travels whole (including the private RNG
/// stream, so its position is preserved) when the call hands off to a
/// cell on another shard.
///
/// Movement steps are applied lazily: while the user provably cannot
/// have left its cell no barrier touches it, and the deferred steps run
/// in order, on the same state and stream, at its wake, the first
/// barrier where it could have (see [`wake`](Self::wake)).
struct ActiveUser {
    user: UserId,
    state: MobileState,
    mobility: MobilityKind,
    profile: ServiceProfile,
    rng: SimRng,
    cell: CellId,
    call: CallId,
    end_time: SimTime,
    generation: u32,
    /// The barrier whose step `state` last includes.
    stepped_to: u64,
}

impl ActiveUser {
    /// The user's wake: the barrier after its slack, the number of steps
    /// from `state` that stay strictly inside the serving cell's hexagon,
    /// runs out. `None` for a user that never moves. One step moves a
    /// terminal at most `speed_kmh · dt_s / 3600` km (the
    /// [`MobilityModel`] contract).
    fn wake_barrier(&self, grid: &HexGrid, dt_s: f64) -> Option<u64> {
        let margin_km = grid.interior_margin(self.cell, self.state.position);
        let slack = step_slack(margin_km, self.state.speed_kmh * dt_s / 3600.0)?;
        Some(self.stepped_to + u64::from(slack) + 1)
    }

    /// Wakes the user at `barrier`: applies the steps of every barrier
    /// since `stepped_to`, in order, and checks the position exactly as
    /// an eager step would.
    fn wake(&mut self, barrier: u64, grid: &HexGrid, dt_s: f64) -> Option<Motion> {
        for _ in self.stepped_to..barrier {
            self.mobility.step(&mut self.state, dt_s, &mut self.rng);
        }
        self.stepped_to = barrier;
        if grid.out_of_coverage(self.state.position) {
            return Some(Motion::Exit);
        }
        let here = grid.locate(self.state.position);
        (here != self.cell).then_some(Motion::Cross(here))
    }
}

/// Arena of in-call users: a slab of slots with a free list. Call-ends
/// and wakes carry their slot as the queue tag, so dispatch is a direct
/// index instead of a map lookup; a slot reused by a later call is
/// caught by the `(user, generation)` check every call-end performs
/// anyway (the call-end is then stale, exactly as under a map).
///
/// Slot numbers are *never* part of simulation semantics — both queues
/// pop in `(time, user, generation)` order, and the slot only rides
/// along — so the free-list order (which differs across shard layouts)
/// cannot leak into results.
#[derive(Default)]
struct ActiveArena {
    slots: Vec<Option<ActiveUser>>,
    free: Vec<u32>,
    live: usize,
}

impl ActiveArena {
    fn insert(&mut self, record: ActiveUser) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(record);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX active calls");
            self.slots.push(Some(record));
            slot
        }
    }

    fn get(&self, slot: u32) -> Option<&ActiveUser> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    fn remove(&mut self, slot: u32) -> ActiveUser {
        let record = self.slots[slot as usize].take().expect("removed an empty arena slot");
        self.free.push(slot);
        self.live -= 1;
        record
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// A call crossing into a cell owned by (possibly) another shard,
/// exchanged at an epoch barrier. The old cell's bandwidth is already
/// released; the receiving shard decides admission at the target cell.
pub(crate) struct Migrant {
    pub(crate) user: UserId,
    pub(crate) to: CellId,
    state: MobileState,
    mobility: MobilityKind,
    profile: ServiceProfile,
    rng: SimRng,
    call: CallId,
    end_time: SimTime,
    generation: u32,
}

/// Derives a user's private mobility RNG stream from the simulation
/// seed. Streams depend only on `(seed, user)` — never on which shard
/// hosts the user — so any partition sees identical randomness.
fn user_rng(seed: u64, user: u64) -> SimRng {
    SimRng::seed_from_u64(seed ^ user.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// An arrival waiting to be dispatched: the routed home cell plus the
/// owned spec. Pushed in `(time, user)` order, so FIFO order *is* the
/// content-defined dispatch order.
pub(crate) struct PendingArrival {
    pub(crate) time_us: u64,
    pub(crate) user: u64,
    pub(crate) cell: CellId,
    pub(crate) spec: UserSpec,
}

pub(crate) struct Shard<'a, S> {
    index: usize,
    shard_count: usize,
    grid: &'a HexGrid,
    config: SimulationConfig,
    /// The owned cells, lent by the simulation for one run: slot `k`
    /// holds cell `k · shard_count + index`.
    pub(crate) cells: Vec<CellUnit>,
    /// The controllers the cells reach by their `policy` slot, lent
    /// with them: one per stateless policy, one per unkeyed cell.
    pub(crate) policies: Vec<BoxedController>,
    /// The movement tick in microseconds: barrier `b` is at `b · tick_us`.
    tick_us: u64,
    /// Call-ends, stale ones (of calls that handed off since) included.
    queue: EngineQueue,
    /// One wake per in-call user whose slack runs out before its call
    /// ends, at that barrier; a user without one is never stepped.
    wakes: EngineQueue,
    /// Arrivals delivered by the feeder one epoch window at a time, the
    /// home cell already located.
    pending: VecDeque<PendingArrival>,
    active: ActiveArena,
    pub(crate) sink: S,
}

impl<'a, S: MetricsSink> Shard<'a, S> {
    pub(crate) fn new(
        index: usize,
        shard_count: usize,
        grid: &'a HexGrid,
        config: SimulationConfig,
        (cells, policies): (Vec<CellUnit>, Vec<BoxedController>),
        sink: S,
    ) -> Self {
        Self {
            index,
            shard_count,
            grid,
            config,
            cells,
            policies,
            tick_us: SimDuration::from_secs_f64(config.movement_tick_s).as_micros(),
            queue: EngineQueue::new(),
            wakes: EngineQueue::new(),
            pending: VecDeque::new(),
            active: ActiveArena::default(),
            sink,
        }
    }

    /// Takes the feeder's delivery for this epoch as the pending FIFO,
    /// handing the drained FIFO's buffer back in `delivered` for reuse.
    /// The feeder delivers exactly the window the coming `run_events`
    /// drains, so the FIFO is always empty here.
    pub(crate) fn accept_arrivals(&mut self, delivered: &mut VecDeque<PendingArrival>) {
        assert!(self.pending.is_empty(), "arrivals left undispatched by the previous epoch");
        debug_assert!(
            delivered
                .iter()
                .zip(delivered.iter().skip(1))
                .all(|(a, b)| (a.time_us, a.user) < (b.time_us, b.user)),
            "arrivals must be delivered in (time, user) order"
        );
        std::mem::swap(&mut self.pending, delivered);
    }

    /// `true` when the shard has nothing left to do. A pending wake
    /// always has its user in a call.
    pub(crate) fn idle(&self) -> bool {
        self.pending.is_empty() && self.queue.is_empty() && self.active.is_empty()
    }

    /// The index of the first movement barrier at or after `now`.
    fn barrier_index(&self, now: SimTime) -> u64 {
        now.as_micros().div_ceil(self.tick_us)
    }

    /// Cell `id` and its controller.
    fn cell_mut(&mut self, id: CellId) -> (&mut CellUnit, &mut BoxedController) {
        debug_assert_eq!(id.0 as usize % self.shard_count, self.index, "cell on another shard");
        let cell = &mut self.cells[id.0 as usize / self.shard_count];
        let policy = cell.policy as usize;
        (cell, &mut self.policies[policy])
    }

    /// Consults the controller, then applies its plan through
    /// [`AdmissionPlan::apply`](facs_cac::AdmissionPlan::apply): the call
    /// is admitted only if the controller plans an admission and the
    /// ledger still honors it. A plan the ledger can no longer honor
    /// (allocation stopped fitting, a squeeze went stale) is downgraded
    /// to a denial without mutating anything. Returns the granted
    /// bandwidth on admission.
    fn try_admit(
        &mut self,
        now: SimTime,
        cell_id: CellId,
        request: &CallRequest,
    ) -> Option<BandwidthUnits> {
        let (cell, controller) = self.cell_mut(cell_id);
        // Ordering contract (see `AdmissionController::observe`): every
        // admission of an epoch fires before that epoch's observe pulse,
        // so a decide can never run at or before the last pulse time.
        #[cfg(debug_assertions)]
        debug_assert!(
            now.as_secs_f64() > cell.last_observed_s,
            "decide at t={} not after last observe pulse at t={}",
            now.as_secs_f64(),
            cell.last_observed_s
        );
        let plan = controller.decide(request, &cell.ledger);
        if !plan.admits() {
            return None;
        }
        // Integrate only on the admit arms: an extra split point on a
        // rejection would reorder the occupancy-integral summation.
        cell.integrate_to(now);
        let admission = plan.apply(request, &mut cell.ledger, &mut **controller)?;
        for (call, to, floor) in admission.squeezed {
            self.sink.on_reallocation(now, cell_id, UserId(call.0), to, floor);
        }
        Some(admission.granted)
    }

    fn release(&mut self, now: SimTime, cell_id: CellId, call: CallId) {
        let (cell, controller) = self.cell_mut(cell_id);
        cell.integrate_to(now);
        let profile = cell
            .ledger
            .release(call)
            .expect("release of a call the ledger does not hold is a simulator bug");
        // Freed bandwidth flows back to degraded calls before anything
        // else can claim it (fair-share re-upgrade, deepest deficit
        // first).
        let upgrades: Vec<(CallId, BandwidthUnits, BandwidthUnits)> = cell
            .ledger
            .reupgrade_on_release()
            .into_iter()
            .map(|r| {
                let floor =
                    cell.ledger.profile_of(r.call).map_or(BandwidthUnits::ZERO, |p| p.rb_cost_min);
                (r.call, r.to, floor)
            })
            .collect();
        let after = cell.ledger.snapshot();
        controller.on_released(call, profile.class, &after);
        for (upgraded, to, floor) in upgrades {
            self.sink.on_reallocation(now, cell_id, UserId(upgraded.0), to, floor);
        }
    }

    /// Phase A: processes every event with `time <= limit` — arrivals
    /// from the pending FIFO, call-ends drained from the event queue,
    /// merged on the content-defined order. A call-end at the same
    /// instant as an arrival dispatches first (capacity is freed before
    /// new decisions are made), so the queue is drained up to and
    /// including each arrival's timestamp before the arrival fires.
    pub(crate) fn run_events(&mut self, limit: SimTime) {
        loop {
            let next_arrival = self.pending.front().map(|p| SimTime::from_micros(p.time_us));
            let bound = next_arrival.map_or(limit, |t| t.min(limit));
            while let Some(end) = self.queue.pop_within(bound) {
                self.handle_call_end(end);
            }
            match next_arrival {
                Some(now) if now <= limit => {
                    let p = self.pending.pop_front().expect("peeked arrival vanished");
                    self.dispatch_arrival(now, UserId(p.user), p.cell, p.spec);
                }
                _ => break,
            }
        }
    }

    /// Admission of one new-call arrival.
    fn dispatch_arrival(&mut self, now: SimTime, user: UserId, cell_id: CellId, spec: UserSpec) {
        let (profile, start) = (spec.profile, spec.start);
        // Saturated cell or off-map request: denied without building the
        // full request — `fast_reject` is a conservative proof that
        // `decide` could not admit, so the record is identical.
        let grid = self.grid;
        let (cell, controller) = self.cell_mut(cell_id);
        if controller.fast_reject(&profile, &cell.ledger) || grid.out_of_coverage(start.position) {
            self.sink.on_decision(
                now,
                cell_id,
                &DecisionRecord::denied(user, profile, CallKind::New),
            );
            return;
        }
        let (call, center) = (CallId(user.0), grid.center_of(cell_id));
        let request = CallRequest::new(call, profile.class, CallKind::New, start.observe(center))
            .with_profile(profile);
        let granted = self.try_admit(now, cell_id, &request);
        let record = match granted {
            Some(allocated) => DecisionRecord::admitted(user, profile, CallKind::New, allocated),
            None => DecisionRecord::denied(user, profile, CallKind::New),
        };
        self.sink.on_decision(now, cell_id, &record);
        if granted.is_some() {
            self.enroll(ActiveUser {
                user,
                state: start,
                mobility: spec.mobility,
                profile,
                rng: user_rng(self.config.seed, user.0),
                cell: cell_id,
                call,
                end_time: now + SimDuration::from_secs_f64(spec.holding_s),
                generation: 0,
                // The first step is at the barrier ending this epoch.
                stepped_to: self.barrier_index(now).max(1) - 1,
            });
        }
    }

    /// Registers an admitted call at its serving cell: gives it an arena
    /// slot, schedules its end and arms its wake.
    fn enroll(&mut self, record: ActiveUser) {
        let (time, user, generation) = (record.end_time, record.user, record.generation);
        let slot = self.active.insert(record);
        self.queue.schedule(QueueEntry { time, user, generation, tag: slot });
        self.arm(slot);
    }

    /// Files the wake of the user in `slot`, computed against its serving
    /// cell from its fully stepped state, if that barrier comes before
    /// the call ends. A call that ends first is never stepped, so every
    /// filed wake finds its user still in the call.
    fn arm(&mut self, slot: u32) {
        let user = self.active.get(slot).expect("armed an empty arena slot");
        let Some(barrier) = user.wake_barrier(self.grid, self.config.movement_tick_s) else {
            return;
        };
        let time = SimTime::from_micros(barrier.saturating_mul(self.tick_us));
        if time < user.end_time {
            let (user, generation) = (user.user, user.generation);
            self.wakes.schedule(QueueEntry { time, user, generation, tag: slot });
        }
    }

    fn handle_call_end(&mut self, end: QueueEntry) {
        // Stale call-ends — the call handed off (possibly to another
        // shard) after this was scheduled, or was dropped/exited — carry
        // an outdated generation or reference an absent user. The slot
        // may since have been reused by an unrelated call; the
        // `(user, generation)` check rejects that case identically.
        let Some(active) = self.active.get(end.tag) else { return };
        if active.user != end.user || active.generation != end.generation {
            return;
        }
        let (cell, call) = (active.cell, active.call);
        self.release(end.time, cell, call);
        let _ = self.active.remove(end.tag);
        self.sink.on_completion(end.time, cell, end.user);
    }

    /// Barrier phase 1: advances every in-call user by one movement tick
    /// (each on its own RNG stream). Only the users whose wake is this
    /// barrier are computed: each catches up its deferred steps
    /// ([`ActiveUser::wake`]) and, still home, is re-armed. Coverage
    /// exits are handled locally, and the calls that crossed into another
    /// cell are returned as migrants routed to `(target shard, migrant)`.
    /// The old cell's bandwidth is released here, before any admission
    /// anywhere is attempted.
    pub(crate) fn run_movement(&mut self, now: SimTime) -> Vec<(usize, Migrant)> {
        let dt = self.config.movement_tick_s;
        let barrier = self.barrier_index(now);
        self.sink.on_mobility_steps(now, self.active.len() as u64);
        // Wakes pop by user id at equal times, so every step, RNG draw
        // and check below happens in ascending user order, on any shard
        // layout.
        let mut actions: Vec<(u32, Motion)> = Vec::new();
        while let Some(due) = self.wakes.pop_within(now) {
            debug_assert_eq!(due.time, now, "a wake missed its barrier");
            let user = self.active.slots[due.tag as usize].as_mut().expect("woke an empty slot");
            debug_assert_eq!((user.user, user.generation), (due.user, due.generation));
            match user.wake(barrier, self.grid, dt) {
                Some(motion) => actions.push((due.tag, motion)),
                None => self.arm(due.tag),
            }
        }
        let mut out = Vec::new();
        // Still ascending user order: each cell sees its departures in
        // the same order a single-shard run would apply.
        for (slot, motion) in actions {
            let user = self.active.remove(slot);
            self.release(now, user.cell, user.call);
            match motion {
                Motion::Exit => self.sink.on_exit(now, user.cell, user.user),
                Motion::Cross(to) => {
                    let target = to.0 as usize % self.shard_count;
                    out.push((
                        target,
                        Migrant {
                            user: user.user,
                            to,
                            state: user.state,
                            mobility: user.mobility,
                            profile: user.profile,
                            rng: user.rng,
                            call: user.call,
                            end_time: user.end_time,
                            generation: user.generation + 1,
                        },
                    ));
                }
            }
        }
        out
    }

    /// Barrier phase 2: admits inbound handoffs at their target cells.
    /// `migrants` must arrive sorted by user id (the caller sorts), so
    /// each cell processes its inbound handoffs in global user order.
    pub(crate) fn run_admissions(&mut self, now: SimTime, migrants: Vec<Migrant>) {
        for m in migrants {
            debug_assert_eq!(m.to.0 as usize % self.shard_count, self.index, "misrouted migrant");
            let request = CallRequest::new(
                m.call,
                m.profile.class,
                CallKind::Handoff,
                m.state.observe(self.grid.center_of(m.to)),
            )
            .with_profile(m.profile);
            let granted = self.try_admit(now, m.to, &request);
            let record = match granted {
                Some(allocated) => {
                    DecisionRecord::admitted(m.user, m.profile, CallKind::Handoff, allocated)
                }
                None => DecisionRecord::denied(m.user, m.profile, CallKind::Handoff),
            };
            self.sink.on_decision(now, m.to, &record);
            if granted.is_some() {
                self.enroll(ActiveUser {
                    user: m.user,
                    state: m.state,
                    mobility: m.mobility,
                    profile: m.profile,
                    rng: m.rng,
                    cell: m.to,
                    call: m.call,
                    end_time: m.end_time,
                    generation: m.generation,
                    stepped_to: self.barrier_index(now),
                });
            }
            // Denied: the call is dropped mid-handoff; bandwidth was
            // already freed at the source cell.
        }
    }

    /// Epoch-barrier occupancy samples for the time-series sinks, plus
    /// the controllers' time-step [`observe`] hook — the once-per-epoch
    /// pulse that makes stateful/elastic policies possible.
    ///
    /// [`observe`]: facs_cac::AdmissionController::observe
    pub(crate) fn sample_cells(&mut self, now: SimTime) {
        for (slot, cell) in self.cells.iter_mut().enumerate() {
            // Pulses are strictly increasing per cell (one per epoch
            // barrier); see the `observe` ordering contract.
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    now.as_secs_f64() > cell.last_observed_s,
                    "observe pulse at t={} not after previous pulse at t={}",
                    now.as_secs_f64(),
                    cell.last_observed_s
                );
                cell.last_observed_s = now.as_secs_f64();
            }
            self.policies[cell.policy as usize].observe(now.as_secs_f64(), &cell.ledger);
            self.sink.on_cell_sample(
                now,
                CellId((slot * self.shard_count + self.index) as u32),
                cell.ledger.occupied().get(),
                cell.ledger.capacity().get(),
            );
        }
    }
}

impl<S> std::fmt::Debug for Shard<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("cells", &self.cells.len())
            .field("policies", &self.policies.len())
            .field("active", &self.active.len())
            .field("queued", &self.queue.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Sorts a barrier's inbound migrants into global user order.
pub(crate) fn sort_migrants(migrants: &mut [Migrant]) {
    migrants.sort_by_key(|m| m.user.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::metrics::Metrics;
    use facs_cac::policies::CompleteSharing;
    use facs_cac::ServiceClass;
    use proptest::prelude::*;

    fn record(user: u64) -> ActiveUser {
        ActiveUser {
            user: UserId(user),
            state: MobileState::new(Point::ORIGIN, 0.0, 10.0),
            mobility: MobilityKind::Walker,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            rng: user_rng(7, user),
            cell: CellId(0),
            call: CallId(user),
            end_time: SimTime::ZERO,
            generation: 0,
            stepped_to: 0,
        }
    }

    /// The eager reference for [`ActiveUser::wake`]: one step and one
    /// coverage and `locate` check at every barrier.
    fn eager_barrier(user: &mut ActiveUser, grid: &HexGrid, dt_s: f64) -> Option<Motion> {
        user.mobility.step(&mut user.state, dt_s, &mut user.rng);
        if grid.out_of_coverage(user.state.position) {
            return Some(Motion::Exit);
        }
        let here = grid.locate(user.state.position);
        (here != user.cell).then_some(Motion::Cross(here))
    }

    /// Barriers the lazy-vs-eager property follows one user through.
    const BARRIERS: u64 = 600;

    proptest! {
        /// Deferred stepping is the eager stepper, bit for bit. A user
        /// woken only at its wakes, and one woken early at a random
        /// barrier up to each due wake and re-armed there, both match it:
        /// the eager stepper reports no motion before a wake, and the
        /// first barrier at which a user exits or crosses, the cell it
        /// crosses into, its state there and the next draw of its RNG
        /// stream all match (and, for a user that stays home, its state
        /// and stream after the last barrier). Starts sit at or just
        /// inside a vertex or an edge, in or beyond the outer ring,
        /// anywhere in a cell, or a whole number of steps from an edge on
        /// a course straight at it: there the last deferrable step lands
        /// on the edge up to rounding, which is what the edge epsilon is
        /// for.
        #[test]
        fn deferred_steps_equal_eager_steps_bit_for_bit(
            grid in (0u32..=3, 0.5f64..=10.0),
            motion in (
                prop::sample::select(vec![0.5, 1.0, 5.0, 15.0]),
                0u8..8,
                0.0f64..=250.0,
                any::<bool>(),
                -180.0f64..180.0,
            ),
            start in (0u8..5, any::<u64>(), 0u32..6, 0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
        ) {
            let ((rings, cell_radius_km), (tick_s, still, speed, walker, heading)) = (grid, motion);
            let (kind, cell_pick, side, depth, along) = start;
            let grid = HexGrid::new(rings, cell_radius_km);
            let speed_kmh = if still == 0 { 0.0 } else { speed };
            let len_km = speed_kmh * tick_s / 3600.0;
            let inradius = 3f64.sqrt() / 2.0 * cell_radius_km;
            let normal = 60.0 * f64::from(side);
            let cell_count = grid.len() as u64;
            let center = grid.center_of(CellId((cell_pick % cell_count) as u32));
            // How far in from a vertex or edge: often exactly on it,
            // mostly within a small fraction of the cell.
            let inset = 0.2 * cell_radius_km * depth.powi(6);
            let starts: Vec<(Point, f64)> = match kind {
                0 => vec![(center.step(normal + 30.0, cell_radius_km - inset), heading)],
                1 => {
                    let on_edge = center.step(normal, inradius - inset);
                    vec![(on_edge.step(normal + 90.0, (along - 0.5) * cell_radius_km), heading)]
                }
                2 => (1..=40)
                    .map(|k| (center.step(normal, inradius - f64::from(k) * len_km), normal))
                    .collect(),
                3 => {
                    let outer_first =
                        u64::from(3 * rings * rings.saturating_sub(1) + 1).min(cell_count - 1);
                    let outer = outer_first + cell_pick % (cell_count - outer_first);
                    let c = grid.center_of(CellId(outer as u32));
                    vec![(c.step(heading, cell_radius_km * (0.8 + 1.4 * depth)), normal)]
                }
                _ => vec![(center.step(heading, inradius * depth), normal + 180.0 * along)],
            };
            for (user, (position, heading)) in (1..).zip(starts) {
                // An off-map arrival is denied at dispatch, so it never moves.
                if grid.out_of_coverage(position) {
                    continue;
                }
                let make = || ActiveUser {
                    state: MobileState::new(position, heading, speed_kmh),
                    mobility: if walker { MobilityKind::Walker } else { MobilityKind::StraightLine },
                    rng: user_rng(seed, user),
                    cell: grid.locate(position),
                    ..record(user)
                };
                let (mut lazy, mut early, mut eager) = (make(), make(), make());
                // Early wakes fall on a random barrier after the last
                // one, up to the due wake.
                let mut picks = user_rng(!seed, user);
                let mut pick_early = |u: &ActiveUser| {
                    u.wake_barrier(&grid, tick_s).map(|due| {
                        let span = (due - u.stepped_to) as usize;
                        u.stepped_to + 1 + picks.index(span) as u64
                    })
                };
                let mut due = lazy.wake_barrier(&grid, tick_s);
                let mut early_due = pick_early(&early);
                let (mut last, mut stepped) = (0, None);
                for barrier in 1..=BARRIERS {
                    (last, stepped) = (barrier, eager_barrier(&mut eager, &grid, tick_s));
                    if due == Some(barrier) {
                        let woken = lazy.wake(barrier, &grid, tick_s);
                        prop_assert_eq!(woken, stepped, "user {} woken at barrier {}", user, barrier);
                        due = lazy.wake_barrier(&grid, tick_s);
                    } else {
                        prop_assert_eq!(stepped, None, "user {} moved before its wake", user);
                    }
                    if early_due == Some(barrier) {
                        let woken = early.wake(barrier, &grid, tick_s);
                        prop_assert_eq!(woken, stepped, "user {} woken early at {}", user, barrier);
                        early_due = pick_early(&early);
                    }
                    if stepped.is_some() {
                        break;
                    }
                }
                prop_assert_eq!(lazy.wake(last, &grid, tick_s), stepped, "user {}", user);
                prop_assert_eq!(early.wake(last, &grid, tick_s), stepped, "user {}", user);
                let bits = |u: &mut ActiveUser| {
                    let s = u.state;
                    let next = u.rng.uniform();
                    [s.position.x, s.position.y, s.heading_deg, s.speed_kmh, next].map(f64::to_bits)
                };
                let expected = bits(&mut eager);
                prop_assert_eq!(bits(&mut lazy), expected, "user {}", user);
                prop_assert_eq!(bits(&mut early), expected, "user {} woken early", user);
            }
        }
    }

    /// Slow walkers on large cells with short calls, whose slack outlasts
    /// every call, mixed with fast users a few steps from an edge, who
    /// wake, cross and exit. Mid-epoch and after every barrier the wake
    /// queue holds no more entries than the shard has calls, and no slow
    /// call's RNG stream is ever drawn.
    #[test]
    fn a_call_whose_slack_outlasts_it_is_never_stepped() {
        let grid = HexGrid::new(1, 10.0);
        let config = SimulationConfig { movement_tick_s: 1.0, seed: 11, ..Default::default() };
        let cells = grid
            .cell_ids()
            .map(|_| CellUnit::new(BandwidthLedger::new(BandwidthUnits::new(10_000)), 0))
            .collect();
        let policies: Vec<BoxedController> = vec![Box::new(CompleteSharing::new())];
        let mut shard = Shard::new(0, 1, &grid, config, (cells, policies), Metrics::new());
        let inradius = 3f64.sqrt() / 2.0 * 10.0;
        let slow = |user: u64| user % 3 != 0;
        let mut arrivals: VecDeque<PendingArrival> = (0..90u64)
            .map(|user| {
                // Every third user is fast: those cover 30 of the 42
                // (cell, heading) pairs.
                let k = if slow(user) { user } else { user / 3 };
                let center = grid.center_of(CellId((k % 7) as u32));
                let heading = 60.0 * (k % 6) as f64;
                let (start, mobility, holding_s) = if slow(user) {
                    // 3 km/h from 6.66 km inside: ~8,000 steps of slack.
                    let start = MobileState::new(center.step(heading, 2.0), heading, 3.0);
                    (start, MobilityKind::Walker, 1.5 + (user % 11) as f64)
                } else {
                    // 720 km/h straight at an edge 0.3 km away.
                    let position = center.step(heading, inradius - 0.3);
                    (MobileState::new(position, heading, 720.0), MobilityKind::StraightLine, 120.0)
                };
                let time_us = 370_000 * user;
                let spec = UserSpec {
                    arrival_s: time_us as f64 / 1e6,
                    profile: ServiceProfile::paper(ServiceClass::Text),
                    start,
                    mobility,
                    holding_s,
                };
                PendingArrival { time_us, user, cell: grid.locate(start.position), spec }
            })
            .collect();
        let check = |shard: &Shard<'_, Metrics>| {
            assert!(
                shard.wakes.len() <= shard.active.len(),
                "{} wakes for {} calls",
                shard.wakes.len(),
                shard.active.len()
            );
            for u in shard.active.slots.iter().flatten().filter(|u| slow(u.user.0)) {
                let next = u.rng.clone().uniform();
                let fresh = user_rng(config.seed, u.user.0).uniform();
                assert_eq!(next.to_bits(), fresh.to_bits(), "{} was stepped", u.user);
            }
        };
        for barrier in 1u64.. {
            let now = SimTime::from_micros(barrier * 1_000_000);
            let due = arrivals.iter().take_while(|a| a.time_us <= now.as_micros()).count();
            shard.accept_arrivals(&mut arrivals.drain(..due).collect());
            shard.run_events(now);
            check(&shard);
            let mut migrants: Vec<Migrant> =
                shard.run_movement(now).into_iter().map(|(_, m)| m).collect();
            sort_migrants(&mut migrants);
            shard.run_admissions(now, migrants);
            check(&shard);
            if shard.idle() && arrivals.is_empty() {
                break;
            }
        }
        let metrics = &shard.sink;
        assert_eq!(metrics.accepted_new, 90);
        assert!(metrics.handoff_accepted > 0 && metrics.exited_coverage > 0, "{metrics:?}");
        assert_eq!(metrics.completed + metrics.exited_coverage, 90);
    }
}
