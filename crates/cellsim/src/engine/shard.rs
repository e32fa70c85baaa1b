//! One shard of the simulation world: a group of cells (ledger +
//! controller each), the users whose calls those cells currently serve,
//! and a private event queue.
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

use crate::events::{EngineEvent, EngineQueue, UserId};
use crate::geometry::{HexGrid, Point};
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
/// `mean_utilization` bit-identical across shard counts.
pub(crate) struct CellUnit {
    pub(crate) id: CellId,
    pub(crate) ledger: BandwidthLedger,
    pub(crate) controller: BoxedController,
    pub(crate) center: Point,
    occupied_integral_bu_s: f64,
    last_change: SimTime,
    /// Barrier time of the last `observe` pulse delivered to this cell's
    /// controller, used to `debug_assert!` the ordering contract
    /// documented on [`AdmissionController::observe`]: every admission at
    /// time `t` precedes the epoch-`t` pulse, and every pulse precedes
    /// all strictly-later admissions.
    ///
    /// [`AdmissionController::observe`]: facs_cac::AdmissionController::observe
    last_observed_s: f64,
}

impl CellUnit {
    pub(crate) fn new(
        id: CellId,
        ledger: BandwidthLedger,
        controller: BoxedController,
        center: Point,
    ) -> Self {
        Self {
            id,
            ledger,
            controller,
            center,
            occupied_integral_bu_s: 0.0,
            last_change: SimTime::ZERO,
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

/// The most steps a user may owe at once. Each applied step may round
/// the position by up to an ulp of its coordinates (~1e-13 km at
/// 600 km from the origin); 2¹⁶ of them add up to less than
/// [`EDGE_EPSILON_KM`] for coordinates below ~10⁵ km. Realistic users
/// never reach it (a 4 km/h pedestrian on a 0.5 s tick covers 1 km in
/// 1,800 steps), so it costs nothing.
const MAX_SLACK: u32 = 1 << 16;

/// The number of steps of at most `len_km` each that stay strictly
/// inside a hexagon from a point `margin_km` inside it, with
/// [`EDGE_EPSILON_KM`] to spare. A user that never moves never needs a
/// step; one outside the hexagon, or whose step length is not a number,
/// needs every step.
fn step_slack(margin_km: f64, len_km: f64) -> u32 {
    if len_km == 0.0 {
        return u32::MAX;
    }
    // `as` saturates: a negative or NaN quotient gives 0.
    let steps = ((margin_km - EDGE_EPSILON_KM) / len_km.abs()).floor() as u32;
    steps.min(MAX_SLACK)
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
/// Movement steps are applied lazily: a barrier only counts a step as
/// `owed` while the user provably cannot have left its cell, and the
/// owed steps run in order, on the same state and stream, once it
/// could have (see [`advance`](Self::advance)).
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
    /// Barriers passed whose step is not yet applied to `state`.
    owed: u32,
    /// How many steps from `state` stay strictly inside the serving
    /// cell's hexagon.
    slack: u32,
}

impl ActiveUser {
    /// Recomputes `slack` from the user's current, fully stepped state
    /// against its serving cell. One step moves a terminal at most
    /// `speed_kmh · dt_s / 3600` km (the [`MobilityModel`] contract).
    fn rearm(&mut self, grid: &HexGrid, dt_s: f64) {
        debug_assert_eq!(self.owed, 0, "slack computed from a stale position");
        let margin_km = grid.interior_margin(self.cell, self.state.position);
        self.slack = step_slack(margin_km, self.state.speed_kmh * dt_s / 3600.0);
    }

    /// Applies every owed step, in order.
    fn catch_up(&mut self, dt_s: f64) {
        for _ in 0..self.owed {
            self.mobility.step(&mut self.state, dt_s, &mut self.rng);
        }
        self.owed = 0;
    }

    /// One movement barrier: the user owes one more step. While the
    /// owed steps all fit in the slack the user is still home and
    /// nothing is computed. Otherwise the owed steps are applied and the
    /// position checked exactly as an eager step would be; a user still
    /// home gets a fresh slack.
    fn advance(&mut self, grid: &HexGrid, dt_s: f64) -> Option<Motion> {
        self.owed = self.owed.saturating_add(1);
        if self.owed <= self.slack {
            return None;
        }
        self.catch_up(dt_s);
        if grid.out_of_coverage(self.state.position) {
            return Some(Motion::Exit);
        }
        let here = grid.locate(self.state.position);
        if here != self.cell {
            return Some(Motion::Cross(here));
        }
        self.rearm(grid, dt_s);
        None
    }
}

/// Arena of in-call users: a slab of slots with a free list. Call-end
/// events carry their slot as the queue tag, so dispatch is a direct
/// index instead of a map lookup; a slot reused by a later call is
/// caught by the `(user, generation)` check every call-end performs
/// anyway (the event is then stale, exactly as under the map).
///
/// Slot numbers are *never* part of simulation semantics — the movement
/// phase iterates a `(user, slot)` list kept in ascending user order (see
/// [`update_order`](Self::update_order)) — so the free-list order (which
/// differs across shard layouts) cannot leak into results.
#[derive(Default)]
struct ActiveArena {
    slots: Vec<Option<ActiveUser>>,
    free: Vec<u32>,
    live: usize,
    /// `(user, slot)` of every insert since the last `update_order`.
    joined: Vec<(u64, u32)>,
}

impl ActiveArena {
    fn insert(&mut self, record: ActiveUser) -> u32 {
        self.live += 1;
        let user = record.user.0;
        let slot = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(record);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX active calls");
            self.slots.push(Some(record));
            slot
        };
        self.joined.push((user, slot));
        slot
    }

    fn get(&self, slot: u32) -> Option<&ActiveUser> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    /// `true` when `slot` holds `user`.
    fn holds(&self, (user, slot): (u64, u32)) -> bool {
        self.get(slot).is_some_and(|u| u.user.0 == user)
    }

    /// Brings `order` — every live `(user, slot)` in ascending user
    /// order as of the previous call — up to date: drops every pair
    /// whose slot no longer holds that user, sorts the live pairs
    /// inserted since, and merges them in. Each user is live in at most
    /// one slot, so the result is exactly the arena's pairs sorted,
    /// without collecting or sorting every slot.
    fn update_order(&mut self, order: &mut Vec<(u64, u32)>) {
        order.retain(|&pair| self.holds(pair));
        let mut joined = std::mem::take(&mut self.joined);
        joined.retain(|&pair| self.holds(pair));
        joined.sort_unstable();
        // Merge from the back, so each kept pair moves at most once.
        let mut kept = order.len();
        order.resize(kept + joined.len(), (0, 0));
        for at in (0..order.len()).rev() {
            let Some(&next) = joined.last() else { break };
            if kept > 0 && order[kept - 1] > next {
                kept -= 1;
                order[at] = order[kept];
            } else {
                order[at] = next;
                joined.pop();
            }
        }
        // A same-shard handoff can take back the slot its own departure
        // just freed (the free list is LIFO): that pair is both kept and
        // joined.
        order.dedup();
        self.joined = joined;
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
    /// The owned cells, ascending id (ids ≡ `index` mod `shard_count`).
    pub(crate) cells: Vec<CellUnit>,
    /// Call-ends only; arrivals never touch the queue.
    queue: EngineQueue,
    /// Arrivals delivered by the feeder one epoch window at a time, the
    /// home cell already located.
    pending: VecDeque<PendingArrival>,
    active: ActiveArena,
    /// Every in-call `(user, slot)` in ascending user order, kept from
    /// epoch to epoch by [`ActiveArena::update_order`].
    movers: Vec<(u64, u32)>,
    pub(crate) sink: S,
}

impl<'a, S: MetricsSink> Shard<'a, S> {
    pub(crate) fn new(
        index: usize,
        shard_count: usize,
        grid: &'a HexGrid,
        config: SimulationConfig,
        cells: Vec<CellUnit>,
        sink: S,
    ) -> Self {
        Self {
            index,
            shard_count,
            grid,
            config,
            cells,
            queue: EngineQueue::new(),
            pending: VecDeque::new(),
            active: ActiveArena::default(),
            movers: Vec::new(),
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

    /// `true` when the shard has nothing left to do.
    pub(crate) fn idle(&self) -> bool {
        self.pending.is_empty() && self.queue.is_empty() && self.active.is_empty()
    }

    fn cell_mut(&mut self, id: CellId) -> &mut CellUnit {
        let slot = id.0 as usize / self.shard_count;
        let cell = &mut self.cells[slot];
        debug_assert_eq!(cell.id, id, "cell partition arithmetic broke");
        cell
    }

    fn cell(&self, id: CellId) -> &CellUnit {
        let slot = id.0 as usize / self.shard_count;
        let cell = &self.cells[slot];
        debug_assert_eq!(cell.id, id, "cell partition arithmetic broke");
        cell
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
        let cell = self.cell_mut(cell_id);
        // Ordering contract (see `AdmissionController::observe`): every
        // admission of an epoch fires before that epoch's observe pulse,
        // so a decide can never run at or before the last pulse time.
        debug_assert!(
            now.as_secs_f64() > cell.last_observed_s,
            "decide at t={} not after last observe pulse at t={}",
            now.as_secs_f64(),
            cell.last_observed_s
        );
        let plan = cell.controller.decide(request, &cell.ledger);
        if !plan.admits() {
            return None;
        }
        // Integrate only on the admit arms: an extra split point on a
        // rejection would reorder the occupancy-integral summation.
        cell.integrate_to(now);
        let admission = plan.apply(request, &mut cell.ledger, &mut cell.controller)?;
        for (call, to, floor) in admission.squeezed {
            self.sink.on_reallocation(now, cell_id, UserId(call.0), to, floor);
        }
        Some(admission.granted)
    }

    fn release(&mut self, now: SimTime, cell_id: CellId, call: CallId) {
        let cell = self.cell_mut(cell_id);
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
        cell.controller.on_released(call, profile.class, &after);
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
            while let Some((now, EngineEvent::CallEnd { user, generation }, tag)) =
                self.queue.pop_within(bound)
            {
                self.handle_call_end(now, user, generation, tag);
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
        let cell = self.cell(cell_id);
        if cell.controller.fast_reject(&profile, &cell.ledger)
            || self.grid.out_of_coverage(start.position)
        {
            self.sink.on_decision(
                now,
                cell_id,
                &DecisionRecord::denied(user, profile, CallKind::New),
            );
            return;
        }
        let call = CallId(user.0);
        let request =
            CallRequest::new(call, profile.class, CallKind::New, start.observe(cell.center))
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
                owed: 0,
                slack: 0,
            });
        }
    }

    /// Registers an admitted call at its serving cell: arms its movement
    /// slack there, gives it an arena slot and schedules its end.
    fn enroll(&mut self, mut record: ActiveUser) {
        record.rearm(self.grid, self.config.movement_tick_s);
        let (end_time, user, generation) = (record.end_time, record.user, record.generation);
        let slot = self.active.insert(record);
        self.queue.schedule_tagged(end_time, EngineEvent::CallEnd { user, generation }, slot);
    }

    fn handle_call_end(&mut self, now: SimTime, user: UserId, generation: u32, slot: u32) {
        // Stale end events — the call handed off (possibly to another
        // shard) after this was scheduled, or was dropped/exited — carry
        // an outdated generation or reference an absent user. The slot
        // may since have been reused by an unrelated call; the
        // `(user, generation)` check rejects that case identically.
        let Some(active) = self.active.get(slot) else { return };
        if active.user != user || active.generation != generation {
            return;
        }
        let (cell, call) = (active.cell, active.call);
        self.release(now, cell, call);
        let _ = self.active.remove(slot);
        self.sink.on_completion(now, cell, user);
    }

    /// Barrier phase 1: advances every in-call user by one movement tick
    /// (each on its own RNG stream, applied lazily by
    /// [`ActiveUser::advance`]), handles coverage exits locally, and
    /// returns the calls that crossed into another cell as migrants
    /// routed to `(target shard, migrant)`. The old cell's bandwidth is
    /// released here, before any admission anywhere is attempted.
    pub(crate) fn run_movement(&mut self, now: SimTime) -> Vec<(usize, Migrant)> {
        let dt = self.config.movement_tick_s;
        // Arena slots carry no deterministic order, so walk the live
        // users by user id: every step, RNG draw, and sink call below
        // then happens in exactly the order the old ascending-id map
        // iteration produced, on any shard layout.
        let mut movers = std::mem::take(&mut self.movers);
        self.active.update_order(&mut movers);
        let mut actions: Vec<(u32, Motion)> = Vec::new();
        for &(_, slot) in &movers {
            let user = self.active.slots[slot as usize].as_mut().expect("live slot vanished");
            self.sink.on_mobility_step(now, user.cell);
            if let Some(motion) = user.advance(self.grid, dt) {
                actions.push((slot, motion));
            }
        }
        self.movers = movers;
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
                m.state.observe(self.cell(m.to).center),
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
                    owed: 0,
                    slack: 0,
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
        for cell in &mut self.cells {
            // Pulses are strictly increasing per cell (one per epoch
            // barrier); see the `observe` ordering contract.
            debug_assert!(
                now.as_secs_f64() > cell.last_observed_s,
                "observe pulse at t={} not after previous pulse at t={}",
                now.as_secs_f64(),
                cell.last_observed_s
            );
            cell.last_observed_s = now.as_secs_f64();
            cell.controller.observe(now.as_secs_f64(), &cell.ledger);
            self.sink.on_cell_sample(
                now,
                cell.id,
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
            owed: 0,
            slack: 0,
        }
    }

    /// The eager reference for [`ActiveUser::advance`]: one step and
    /// one coverage and `locate` check at every barrier.
    fn eager_barrier(user: &mut ActiveUser, grid: &HexGrid, dt_s: f64) -> Option<Motion> {
        user.mobility.step(&mut user.state, dt_s, &mut user.rng);
        if grid.out_of_coverage(user.state.position) {
            return Some(Motion::Exit);
        }
        let here = grid.locate(user.state.position);
        (here != user.cell).then_some(Motion::Cross(here))
    }

    /// Barriers the lazy-vs-eager property follows one user through.
    const BARRIERS: u32 = 600;

    /// The order `update_order` replaces: every live pair, sorted.
    fn collect_and_sort(arena: &ActiveArena) -> Vec<(u64, u32)> {
        let mut pairs: Vec<(u64, u32)> = arena
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, u)| u.as_ref().map(|u| (u.user.0, slot as u32)))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    proptest! {
        /// The kept mover order equals collect-and-sort after every
        /// epoch, through arrivals and inbound migrants (fresh users),
        /// call-ends, exits and cross-shard departures (removals), and
        /// same-shard handoffs that take back the freed slot or another.
        #[test]
        fn kept_mover_order_equals_collect_and_sort(
            ops in prop::collection::vec((0u8..7, any::<u64>()), 0..400),
        ) {
            let mut arena = ActiveArena::default();
            let mut order = Vec::new();
            let mut next_user = 0u64;
            let live_slot = |arena: &ActiveArena, pick: u64| {
                let live: Vec<u32> = (0..arena.slots.len() as u32)
                    .filter(|&s| arena.get(s).is_some())
                    .collect();
                (!live.is_empty()).then(|| live[pick as usize % live.len()])
            };
            for (op, pick) in ops {
                match op {
                    // Arrival or inbound migrant: a user id never seen
                    // before, ascending or far above the others.
                    0 | 1 => {
                        next_user += 1 + pick % 5;
                        let user = if op == 0 { next_user } else { next_user + (1 << 40) };
                        arena.insert(record(user));
                    }
                    // Call-end, exit or cross-shard departure.
                    2 => {
                        if let Some(slot) = live_slot(&arena, pick) {
                            arena.remove(slot);
                        }
                    }
                    // Same-shard handoff into the slot it just freed.
                    3 => {
                        if let Some(slot) = live_slot(&arena, pick) {
                            let user = arena.remove(slot);
                            prop_assert_eq!(arena.insert(user), slot);
                        }
                    }
                    // Two same-shard handoffs that swap slots.
                    4 => {
                        let a = live_slot(&arena, pick);
                        let b = live_slot(&arena, pick.rotate_left(17));
                        if let (Some(a), Some(b)) = (a, b) {
                            if a != b {
                                let (ua, ub) = (arena.remove(a), arena.remove(b));
                                prop_assert_eq!(arena.insert(ua), b);
                                prop_assert_eq!(arena.insert(ub), a);
                            }
                        }
                    }
                    // A departure whose slot a newcomer takes.
                    5 => {
                        if let Some(slot) = live_slot(&arena, pick) {
                            arena.remove(slot);
                            next_user += 1;
                            prop_assert_eq!(arena.insert(record(next_user)), slot);
                        }
                    }
                    // Epoch barrier: the movement phase's view.
                    _ => {
                        arena.update_order(&mut order);
                        prop_assert_eq!(&order, &collect_and_sort(&arena));
                    }
                }
            }
            arena.update_order(&mut order);
            prop_assert_eq!(&order, &collect_and_sort(&arena));
            prop_assert!(arena.joined.is_empty());
        }

        /// Deferred stepping is the eager stepper, bit for bit: the first
        /// barrier at which a user exits or crosses, the cell it crosses
        /// into, its state there and the next draw of its RNG stream all
        /// match (and, for a user that stays home, its state and stream
        /// after the last barrier). Starts sit at or just inside a vertex
        /// or an edge, in or beyond the outer ring, anywhere in a cell, or
        /// a whole number of steps from an edge on a course straight at
        /// it: there the last deferrable step lands on the edge up to
        /// rounding, which is what the edge epsilon is for.
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
                let (mut lazy, mut eager) = (make(), make());
                lazy.rearm(&grid, tick_s);
                for barrier in 1..=BARRIERS {
                    let deferred = lazy.advance(&grid, tick_s);
                    let stepped = eager_barrier(&mut eager, &grid, tick_s);
                    prop_assert_eq!(deferred, stepped, "user {} at barrier {}", user, barrier);
                    if stepped.is_some() {
                        break;
                    }
                }
                lazy.catch_up(tick_s);
                let bits = |u: &mut ActiveUser| {
                    let s = u.state;
                    let next = u.rng.uniform();
                    [s.position.x, s.position.y, s.heading_deg, s.speed_kmh, next].map(f64::to_bits)
                };
                prop_assert_eq!(bits(&mut lazy), bits(&mut eager), "user {}", user);
            }
        }
    }
}
