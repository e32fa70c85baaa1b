//! The sharded deterministic simulation kernel.
//!
//! The world — cells with ledgers and admission controllers, in-call
//! users, pending arrivals — is partitioned into **cell-group shards**
//! (cell `i` belongs to shard `i % shards`, from construction on). Each
//! shard runs an independent discrete-event loop over its own
//! [`EngineQueue`]s and the shards only interact at **epoch barriers**
//! spaced one movement tick apart, where calls that crossed into a cell
//! owned by another shard are exchanged as migrants.
//!
//! ## Why multi-shard runs are bit-identical to single-shard runs
//!
//! 1. **Conservative lookahead = movement cadence.** Between barriers
//!    every event (arrival, call-end) is local to a single cell: handoffs
//!    — the only cross-cell interaction — can occur *only* at movement
//!    ticks, so a shard can safely simulate a whole epoch without
//!    looking at any other shard.
//! 2. **Shard-independent event order.** Call-ends and movement wakes
//!    pop from a shard's two [`EngineQueue`]s by `(time, user,
//!    generation)` and arrivals from a FIFO by `(time, user)`, call-ends
//!    first at equal instants — content, not insertion order — so each
//!    *cell* sees the same event sequence no matter which shard hosts it.
//! 3. **Per-user RNG streams.** Every user draws mobility noise from a
//!    private stream seeded by `(simulation seed, user id)`; the stream
//!    state travels with the call on migration. No draw ever depends on
//!    how users are grouped.
//! 4. **Ordered barrier exchange.** At a barrier, all source-cell
//!    releases happen before any target-cell admission, and each cell
//!    applies its inbound handoffs in ascending user order.
//! 5. **Ordered folds.** Integer counters are exact sums; per-cell
//!    utilization integrals are accumulated cell-locally and folded in
//!    cell-id order at the end of the run, fixing every float-op order.
//!
//! The guarantee covers every controller whose state is **cell-local**
//! (FACS on both inference backends, complete sharing, guard channels).
//! SCC controllers share a cross-cell shadow board; with more than one
//! shard their board updates would interleave nondeterministically, so
//! controllers declare locality via
//! [`AdmissionController::is_cell_local`] and [`Simulation::new`]
//! **panics** rather than build a shared-state policy onto multiple
//! shards.
//!
//! [`EngineQueue`]: crate::events::EngineQueue
//! [`AdmissionController::is_cell_local`]: facs_cac::AdmissionController::is_cell_local

mod shard;

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Barrier, Mutex, PoisonError};

use facs_cac::{
    BandwidthLedger, BandwidthUnits, BoxedController, CellId, PolicyKey, ServiceProfile,
};

use crate::geometry::HexGrid;
use crate::metrics::{Metrics, MetricsSink};
use crate::mobility::{MobileState, MobilityModel, StraightLine, Walker};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::workload::{WorkloadChunk, WorkloadStream};

use shard::{sort_migrants, CellUnit, Migrant, PendingArrival, Shard};

/// The mobility model of one user: a 1-byte tag, because every
/// [`UserSpec`], in-call user and migrant carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityKind {
    /// Heading-diffusion walker (speed-dependent stability).
    Walker,
    /// Constant heading and speed.
    StraightLine,
}

impl MobilityModel for MobilityKind {
    fn step(&mut self, state: &mut MobileState, dt_s: f64, rng: &mut SimRng) {
        match self {
            MobilityKind::Walker => Walker.step(state, dt_s, rng),
            MobilityKind::StraightLine => StraightLine.step(state, dt_s, rng),
        }
    }

    fn name(&self) -> &str {
        match self {
            MobilityKind::Walker => "walker",
            MobilityKind::StraightLine => "straight-line",
        }
    }
}

/// One user of the workload: when they request, what they request, where
/// they start and how they move.
#[derive(Debug, Clone)]
pub struct UserSpec {
    /// Request instant, seconds from simulation start.
    pub arrival_s: f64,
    /// Requested service profile — the class plus its `[floor, nominal]`
    /// bandwidth band. `ServiceProfile::paper(class)` reproduces the
    /// paper's rigid unit costs.
    pub profile: ServiceProfile,
    /// Kinematic state at request time.
    pub start: MobileState,
    /// Mobility model for the call's lifetime.
    pub mobility: MobilityKind,
    /// Pre-drawn call holding time, seconds (drawn by the workload
    /// generator so admission policy cannot perturb the random stream).
    pub holding_s: f64,
}

/// Simulation-wide constants.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Capacity of every base station (the paper's 40 BU).
    pub capacity: BandwidthUnits,
    /// Movement/handoff processing cadence, seconds — also the epoch
    /// length (conservative lookahead) of the sharded kernel.
    pub movement_tick_s: f64,
    /// Hard stop; events beyond this instant are discarded.
    pub max_time_s: f64,
    /// Seed for the per-user mobility random streams.
    pub seed: u64,
    /// Number of cell-group shards. Clamped to the cell count; `0` and
    /// `1` both mean one shard. Any value produces bit-identical
    /// results for cell-local controllers (see the module docs).
    pub shards: usize,
    /// Worker threads driving the shards. `0` (the default) sizes the
    /// pool to `min(shards, available cores)`; `1` runs one inline
    /// shard worker on the caller's thread even for many shards (useful
    /// on single-core hosts, where threads only add barrier overhead).
    /// It does not mean "no other thread": every input reaches the kernel
    /// from one more thread, the producer, which also synthesizes a
    /// [`WorkloadStream`]; see [`Simulation::run_with`]. Shards are
    /// **work items**, stolen whole — neither the worker count nor where
    /// synthesis runs ever affects results, only wall-clock.
    pub workers: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            capacity: BandwidthUnits::new(40),
            movement_tick_s: 5.0,
            max_time_s: 7_200.0,
            seed: 0xFAC5,
            shards: 1,
            workers: 0,
        }
    }
}

/// What a run consumes: a lazily synthesized [`WorkloadStream`] or an
/// in-memory `Vec<UserSpec>`, which is simply a stream with one chunk.
/// Both convert with `From`, so [`Simulation::run`] takes either.
#[derive(Debug)]
pub enum RunInput {
    /// Users synthesized chunk by chunk, at most one chunk ahead of the
    /// kernel, so peak resident specs are O(active calls + two chunks).
    Stream(Box<WorkloadStream>),
    /// A materialized workload. It need not be sorted: users dispatch in
    /// `(arrival µs, index)` order, and each user's id is its rank in
    /// that order. For a sorted input, which every generated workload
    /// is, the id equals the index.
    Specs(Vec<UserSpec>),
}

impl RunInput {
    /// Users the input has yet to hand over.
    fn unsent(&self) -> usize {
        match self {
            RunInput::Stream(stream) => stream.total() - stream.produced(),
            RunInput::Specs(specs) => specs.len(),
        }
    }

    /// Sends the input's chunks in stream order (a `Vec` as one chunk in
    /// dispatch order) until they run out or the receiver hangs up.
    fn send_chunks(self, sender: &SyncSender<WorkloadChunk>) {
        match self {
            RunInput::Stream(mut stream) => {
                while let Some(chunk) = stream.next_chunk() {
                    if sender.send(chunk).is_err() {
                        break;
                    }
                }
            }
            RunInput::Specs(specs) => {
                let _ = sender.send(WorkloadChunk { first_user: 0, specs: dispatch_order(specs) });
            }
        }
    }
}

impl From<WorkloadStream> for RunInput {
    fn from(stream: WorkloadStream) -> Self {
        RunInput::Stream(Box::new(stream))
    }
}

impl From<Vec<UserSpec>> for RunInput {
    fn from(specs: Vec<UserSpec>) -> Self {
        RunInput::Specs(specs)
    }
}

/// The simulator: owns the grid, the cells (a ledger each) and their
/// controllers, built into their shards once, at construction; each run
/// lends every shard its cells and policy table, drives the epoch loop,
/// folds the shards' sinks and flushes the cells' utilization in id
/// order.
///
/// A shard keeps one controller per stateless policy
/// ([`AdmissionController::policy_key`]) and one per unkeyed cell: every
/// cell reaches its controller through the shard's policy table, so
/// cloning one FACS prototype onto a ~100k-cell grid costs one
/// controller per shard, not one allocation per cell.
///
/// Build with [`Simulation::new`], then [`Simulation::run`] a workload
/// (or [`Simulation::run_with`] to stream events into a custom
/// [`MetricsSink`]).
///
/// [`AdmissionController::policy_key`]: facs_cac::AdmissionController::policy_key
pub struct Simulation {
    grid: HexGrid,
    /// Shard `s`'s cells, ids `s, s + N, s + 2N, …` for `N` shards.
    cells: Vec<Vec<CellUnit>>,
    /// Shard `s`'s policy table, indexed by its cells' `policy` slots.
    policies: Vec<Vec<BoxedController>>,
    clock: SimTime,
    config: SimulationConfig,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cells", &self.grid.len())
            .field("clock", &self.clock)
            .field("shards", &self.config.shards)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation over `grid` with one controller per cell.
    ///
    /// # Panics
    ///
    /// Panics unless `controllers.len() == grid.len()` — the pairing is a
    /// construction-time contract, not runtime data — unless the
    /// movement cadence is finite, non-negative and rounds to at least
    /// one microsecond (it is the kernel's epoch length), unless the
    /// horizon `max_time_s` is finite and non-negative, and unless every
    /// controller is cell-local whenever the shard count, clamped to the
    /// cell count, exceeds one: a shared-state policy (SCC's shadow
    /// board) on concurrent shards would be silently nondeterministic.
    /// It also panics on a controller that reports a
    /// [`policy_key`](facs_cac::AdmissionController::policy_key) but is
    /// not cell-local, a contradiction in the controller's contract.
    #[must_use]
    pub fn new(grid: HexGrid, config: SimulationConfig, controllers: Vec<BoxedController>) -> Self {
        assert_eq!(
            controllers.len(),
            grid.len(),
            "need exactly one controller per cell ({} cells, {} controllers)",
            grid.len(),
            controllers.len()
        );
        assert!(
            SimDuration::from_secs_f64(config.movement_tick_s).as_micros() > 0,
            "movement tick {} s rounds to zero microseconds",
            config.movement_tick_s
        );
        assert!(
            config.max_time_s.is_finite() && config.max_time_s >= 0.0,
            "horizon {} s is not a finite, non-negative time",
            config.max_time_s
        );
        if let Some(controller) =
            controllers.iter().find(|c| c.policy_key().is_some() && !c.is_cell_local())
        {
            panic!(
                "controller `{}` reports a policy key but shares cross-cell state; a keyed \
                 controller must be cell-local",
                controller.name(),
            );
        }
        let shards = config.shards.clamp(1, grid.len().max(1));
        if shards > 1 {
            if let Some(controller) = controllers.iter().find(|c| !c.is_cell_local()) {
                panic!(
                    "controller `{}` shares cross-cell state and cannot run on {shards} shards \
                     without losing bit-reproducibility; use shards = 1",
                    controller.name(),
                );
            }
        }
        let mut cells: Vec<Vec<CellUnit>> =
            (0..shards).map(|s| Vec::with_capacity((grid.len() - s).div_ceil(shards))).collect();
        let mut policies: Vec<Vec<BoxedController>> = (0..shards).map(|_| Vec::new()).collect();
        let mut keyed: Vec<HashMap<PolicyKey, u32>> = (0..shards).map(|_| HashMap::new()).collect();
        for (id, controller) in controllers.into_iter().enumerate() {
            let shard = id % shards;
            let key = controller.policy_key();
            // A later controller of a known key is dropped: the first one
            // serves the key's every cell on this shard.
            let slot = match key.and_then(|key| keyed[shard].get(&key)) {
                Some(&slot) => slot,
                None => {
                    let slot = u32::try_from(policies[shard].len()).expect("u32 policy slots");
                    if let Some(key) = key {
                        keyed[shard].insert(key, slot);
                    }
                    policies[shard].push(controller);
                    slot
                }
            };
            cells[shard].push(CellUnit::new(BandwidthLedger::new(config.capacity), slot));
        }
        Self {
            grid,
            cells,
            policies,
            clock: SimTime::ZERO,
            config: SimulationConfig { shards, ..config },
        }
    }

    /// The number of controllers the simulation keeps, over all shards:
    /// one per stateless policy per shard, plus one per cell whose
    /// controller reports no
    /// [`policy_key`](facs_cac::AdmissionController::policy_key).
    #[must_use]
    pub fn policy_count(&self) -> usize {
        self.policies.iter().map(Vec::len).sum()
    }

    /// Runs the workload to completion and returns the collected metrics.
    ///
    /// Users are admitted at the cell covering their position; admitted
    /// calls hold bandwidth until their holding time elapses, the user
    /// hands off out of a full cell (drop), or the user leaves coverage.
    pub fn run(&mut self, workload: impl Into<RunInput>) -> Metrics {
        self.run_with(workload, Metrics::new())
    }

    /// Runs the workload, streaming every observable event into `sink`
    /// (forked per shard, folded back in shard order; see
    /// [`MetricsSink`]).
    ///
    /// Users are routed to their home shards one epoch window at a time,
    /// whatever the input: a [`WorkloadStream`] replays the same random
    /// draws as its eagerly generated `Vec`, and per-shard delivery order
    /// is the content-defined `(arrival µs, user)` order either way, so
    /// both inputs give bit-identical results.
    ///
    /// Every input reaches the kernel from one scoped producer thread,
    /// one chunk ahead over a rendezvous channel: a stream synthesizes
    /// there, so synthesis overlaps the shards' work even with one worker,
    /// and a `Vec` is sent as a single chunk. The kernel consumes the same
    /// chunks in the same order as if it had produced them itself.
    pub fn run_with<S: MetricsSink>(&mut self, workload: impl Into<RunInput>, mut sink: S) -> S {
        let shard_count = self.config.shards;
        let tick = SimDuration::from_secs_f64(self.config.movement_tick_s);
        let horizon = SimTime::from_secs_f64(self.config.max_time_s);

        let grid = &self.grid;
        let config = self.config;
        let mut shards: Vec<Shard<'_, S>> = self
            .cells
            .iter_mut()
            .zip(&mut self.policies)
            .enumerate()
            .map(|(i, (cells, policies))| {
                let lent = (std::mem::take(cells), std::mem::take(policies));
                Shard::new(i, shard_count, grid, config, lent, sink.fork())
            })
            .collect();

        let workers = resolve_workers(self.config.workers, shard_count);
        let input = workload.into();
        let unsent = input.unsent();
        let epochs = std::thread::scope(|scope| {
            // Rendezvous: the producer runs at most one chunk ahead, and
            // stops once the feeder hangs up (at the latest when `drive`
            // returns and drops it), so a run cut at its horizon never
            // waits on synthesis nobody needs.
            let (sender, chunks) = mpsc::sync_channel(0);
            let producer = scope.spawn(move || input.send_chunks(&sender));
            let feeder = StreamFeeder::new(chunks, unsent, grid);
            let epochs = drive(&mut shards, tick, horizon, workers, feeder);
            // The feeder runs dry early only if the producer panicked:
            // re-raise that panic rather than return a truncated run.
            if let Err(cause) = producer.join() {
                panic::resume_unwind(cause);
            }
            epochs
        });

        // Fold shard sinks in shard order, take the cells back, and
        // flush each cell's utilization integral in id order.
        let final_time =
            if epochs == 0 { SimTime::ZERO } else { barrier_time(tick, epochs).min(horizon) };
        for ((cells, policies), shard) in self.cells.iter_mut().zip(&mut self.policies).zip(shards)
        {
            sink.absorb(shard.sink);
            (*cells, *policies) = (shard.cells, shard.policies);
        }
        for id in 0..self.grid.len() {
            let cell = &mut self.cells[id % shard_count][id / shard_count];
            let (occupied_bu_s, capacity_bu_s) = cell.finish(final_time);
            sink.on_cell_utilization(CellId(id as u32), occupied_bu_s, capacity_bu_s);
        }
        self.clock = final_time;
        sink
    }

    /// The simulation clock (final barrier time after a run).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The grid the simulation runs on.
    #[must_use]
    pub fn grid(&self) -> &HexGrid {
        &self.grid
    }
}

/// The instant of barrier `epoch` (exact integer microsecond math, so
/// every shard and driver computes identical barrier times).
fn barrier_time(tick: SimDuration, epoch: u64) -> SimTime {
    SimTime::from_micros(tick.as_micros() * epoch)
}

/// Sizes the worker pool: an explicit count is honored (capped at one
/// worker per shard, more can never help); `0` asks the OS for the
/// available parallelism, a probe skipped outright for one shard, which
/// runs one inline worker and costs no worker threads at all.
fn resolve_workers(configured: usize, shard_count: usize) -> usize {
    let requested = if configured == 0 && shard_count > 1 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        configured.max(1)
    };
    requested.min(shard_count)
}

/// Delivers the producer's chunks into per-shard arrival inboxes one
/// epoch window at a time. Only the specs due by the window limit leave
/// the current chunk, so an in-memory `Vec` (one chunk holding every
/// user) is never duplicated into the pending queues.
struct StreamFeeder<'g> {
    grid: &'g HexGrid,
    /// The producer's chunks after `chunk`, in stream order.
    chunks: Receiver<WorkloadChunk>,
    /// Users the producer has yet to send: the feeder knows the stream
    /// is exhausted without ever blocking on `chunks`.
    unsent: usize,
    /// The current chunk's undelivered specs, in dispatch order.
    chunk: VecDeque<UserSpec>,
    /// User id of `chunk`'s front spec; ids run consecutively.
    next_user: u64,
}

impl<'g> StreamFeeder<'g> {
    fn new(chunks: Receiver<WorkloadChunk>, unsent: usize, grid: &'g HexGrid) -> Self {
        Self { grid, chunks, unsent, chunk: VecDeque::new(), next_user: 0 }
    }

    /// True once every user has been delivered.
    fn exhausted(&self) -> bool {
        self.chunk.is_empty() && self.unsent == 0
    }

    /// Replaces the drained current chunk with the producer's next one,
    /// whatever its first arrival: `refill` reads from its front spec
    /// whether it is due. Returns whether a chunk arrived.
    ///
    /// A producer that hangs up with users unsent can only have
    /// panicked. The stream then counts as exhausted, so every worker
    /// winds the run down and `run_with` re-raises the producer's panic;
    /// panicking here instead, on one worker of a pool, would leave the
    /// others waiting at a barrier forever.
    fn pull_chunk(&mut self) -> bool {
        if self.unsent == 0 {
            return false;
        }
        // Free the drained buffer before waiting: by the time `recv`
        // returns, the producer may be filling the chunk after `next`,
        // and three chunk buffers would be live at once.
        self.chunk = VecDeque::new();
        let Ok(next) = self.chunks.recv() else {
            self.unsent = 0;
            return false;
        };
        self.unsent -= next.specs.len();
        self.next_user = next.first_user;
        self.chunk = next.specs.into();
        true
    }

    /// Delivers every arrival due at or before `limit` to the inbox of
    /// the shard owning its home cell, in `(time, user)` order. Returns
    /// whether anything was delivered.
    fn refill(&mut self, inboxes: &[Mutex<VecDeque<PendingArrival>>], limit: SimTime) -> bool {
        let mut inboxes: Vec<_> =
            inboxes.iter().map(|inbox| inbox.lock().expect("arrival inbox poisoned")).collect();
        let mut delivered = false;
        loop {
            if self.chunk.is_empty() && !self.pull_chunk() {
                break;
            }
            let Some(time) = self.chunk.front().map(|spec| SimTime::from_secs_f64(spec.arrival_s))
            else {
                break;
            };
            if time > limit {
                break;
            }
            let spec = self.chunk.pop_front().expect("peeked spec vanished");
            let user = self.next_user;
            self.next_user += 1;
            let cell = self.grid.locate(spec.start.position);
            let target = cell.0 as usize % inboxes.len();
            inboxes[target].push_back(PendingArrival {
                time_us: time.as_micros(),
                user,
                cell,
                spec,
            });
            delivered = true;
        }
        delivered
    }
}

/// Puts an in-memory workload into dispatch order `(arrival µs, index)`.
/// Generated workloads are already in order, so the common case costs
/// one O(n) check and no sort.
fn dispatch_order(mut specs: Vec<UserSpec>) -> Vec<UserSpec> {
    let due = |spec: &UserSpec| SimTime::from_secs_f64(spec.arrival_s);
    if !specs.windows(2).all(|w| due(&w[0]) <= due(&w[1])) {
        // Stable: users due at the same instant keep ascending index order.
        specs.sort_by_key(due);
    }
    specs
}

/// The epoch driver: `workers` threads drive all `shards.len()` shards,
/// **stealing shards whole** from a shared atomic counter in each
/// phase. Two [`Barrier`] waits per epoch separate the event/movement
/// phase from the admission phase. With one worker the same loop runs
/// inline on the caller's thread — no scope, no spawned workers — and
/// every barrier wait returns at once.
///
/// ## Why stealing cannot perturb results
///
/// A shard's epoch is a pure function of its own state plus its sorted
/// inbox: *which worker* runs it, and in *what order* relative to other
/// shards within the phase, is invisible to the shard. Mailbox pushes
/// from concurrently-running shards can interleave arbitrarily — the
/// inbox is sorted into global user order before any admission — and
/// sinks are folded in shard order after the run, so every float and
/// every RNG draw happens in the same order on any worker count.
///
/// ## Feeding arrivals alongside shard work
///
/// Epoch 1's window is delivered before the loop starts. Each later
/// window, e + 1, is delivered during epoch e's phase A, as that
/// phase's task 0: the first claim, so on a pool the refill (receiving
/// chunks, `locate`, inbox pushes) overlaps the shards' event and
/// movement work instead of stalling every worker at a barrier. With one
/// worker the refill simply runs first, inline.
///
/// The refill synthesizes nothing: it receives each chunk from the
/// producer thread of [`Simulation::run_with`], which runs one chunk
/// ahead over a rendezvous channel, so synthesis of chunk k + 1 overlaps
/// the shards' work on chunk k even with one worker. Synthesis
/// is a pure function of the seed and the refill delivers exactly the
/// specs due by its window, in stream order; only the thread that ran
/// `WorkloadStream::next_chunk` differs from synthesizing inline. A
/// refill blocks on the channel only when its chunk is drained and
/// users remain unsent, and `more_input` is computed from the unsent
/// count, never from the channel.
///
/// Two things are double-buffered by epoch parity, because the refill
/// of window e + 1 runs while window e is still being read:
///
/// * **The arrival inboxes.** Window e lives in `arrivals[e % 2]`, which
///   epoch e's shards drain while the refill fills `arrivals[(e + 1) %
///   2]`. The refill of window e + 2 reuses the first set only in
///   epoch e + 1's phase A, behind the barrier that ends epoch e's.
/// * **`more_input`.** The refill of window e + 1 publishes whether it
///   delivered anything or input is left in `more_input[(e + 1) % 2]`,
///   which the loop top of epoch e + 1 reads. A single flag would race:
///   a fast worker already running epoch e + 1's refill could overwrite
///   it while a slower worker still reads it at the loop top, the two
///   would disagree on the epoch count, and the barrier would deadlock.
///   With two flags the next write to a slot is a full phase-A barrier
///   after every read of it.
///
/// The run ends only when every shard is idle *and* no input is left,
/// because an all-idle world with undelivered future arrivals must keep
/// pulsing epochs. Every worker computes the identical termination and
/// horizon branches from the same published flags, so barrier counts
/// always match. The phase counters are reset by the barrier leader one
/// full barrier before their next use, which orders the reset before
/// every subsequent `fetch_add`.
///
/// A panic in a phase is caught, kept (the first only) and re-raised once
/// the pool has joined; unwinding out of one worker would strand the
/// others at a barrier. It raises that phase's flag, which every worker
/// reads behind the barrier ending the phase, so all leave together. One
/// flag for both phases would race as a single `more_input` would.
fn drive<S: MetricsSink>(
    shards: &mut [Shard<'_, S>],
    tick: SimDuration,
    horizon: SimTime,
    workers: usize,
    mut feeder: StreamFeeder<'_>,
) -> u64 {
    let shard_count = shards.len();
    let sync = Barrier::new(workers);
    let mailboxes: Vec<Mutex<Vec<Migrant>>> =
        (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();
    let inboxes = || -> Vec<Mutex<VecDeque<PendingArrival>>> {
        (0..shard_count).map(|_| Mutex::new(VecDeque::new())).collect()
    };
    let arrivals = [inboxes(), inboxes()];
    // Published at the end of each epoch's admission phase by whichever
    // worker ran the shard; seeded here so epoch 0's check sees truth.
    let idle: Vec<AtomicBool> = shards.iter().map(|s| AtomicBool::new(s.idle())).collect();
    let delivered = feeder.refill(&arrivals[1], barrier_time(tick, 1).min(horizon));
    let more_input = [AtomicBool::new(false), AtomicBool::new(delivered || !feeder.exhausted())];
    let feeder = Mutex::new(feeder);
    let slots: Vec<Mutex<&mut Shard<'_, S>>> = shards.iter_mut().map(Mutex::new).collect();
    let next_a = AtomicUsize::new(0);
    let next_b = AtomicUsize::new(0);
    // Phase A has one task more than there are shards: the refill.
    let claim = |counter: &AtomicUsize, tasks: usize| {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        (i < tasks).then_some(i)
    };
    let parity = |epoch: u64| (epoch % 2) as usize;
    let (failed_a, failed_b) = (AtomicBool::new(false), AtomicBool::new(false));
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let guarded = |failed: &AtomicBool, phase: &dyn Fn()| {
        if let Err(cause) = panic::catch_unwind(AssertUnwindSafe(phase)) {
            panicked.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(cause);
            failed.store(true, Ordering::SeqCst);
        }
    };

    let work = || {
        let mut epoch: u64 = 0;
        loop {
            if sync.wait().is_leader() {
                // The previous epoch's phase B is over on every worker;
                // the counter's next use is behind the phase-A barrier
                // below, which this reset happens-before.
                next_b.store(0, Ordering::Relaxed);
            }
            let all_idle = idle.iter().all(|flag| flag.load(Ordering::SeqCst));
            if (all_idle && !more_input[parity(epoch + 1)].load(Ordering::SeqCst))
                || barrier_time(tick, epoch) >= horizon
                || failed_b.load(Ordering::SeqCst)
            {
                break;
            }
            epoch += 1;
            let t = barrier_time(tick, epoch);
            let limit = t.min(horizon);
            let (current, next) = (parity(epoch), parity(epoch + 1));
            // Phase A: the next epoch's window, then each shard's
            // arrivals and call-ends for this window, then movement.
            guarded(&failed_a, &|| {
                while let Some(task) = claim(&next_a, shard_count + 1) {
                    let Some(i) = task.checked_sub(1) else {
                        let mut feeder = feeder.lock().expect("feeder poisoned");
                        let delivered = feeder
                            .refill(&arrivals[next], barrier_time(tick, epoch + 1).min(horizon));
                        more_input[next].store(delivered || !feeder.exhausted(), Ordering::SeqCst);
                        continue;
                    };
                    let mut shard = slots[i].lock().expect("shard slot poisoned");
                    shard.accept_arrivals(
                        &mut arrivals[current][i].lock().expect("arrival inbox poisoned"),
                    );
                    shard.run_events(limit);
                    if t <= horizon {
                        for (target, migrant) in shard.run_movement(t) {
                            mailboxes[target].lock().expect("mailbox poisoned").push(migrant);
                        }
                    }
                }
            });
            if sync.wait().is_leader() {
                // Phase A is over on every worker; the counter's next
                // use is behind the loop-top barrier, which this reset
                // happens-before.
                next_a.store(0, Ordering::Relaxed);
            }
            if t > horizon || failed_a.load(Ordering::SeqCst) {
                break;
            }
            // Phase B: inbound handoffs, then the epoch pulse.
            guarded(&failed_b, &|| {
                while let Some(i) = claim(&next_b, shard_count) {
                    let mut shard = slots[i].lock().expect("shard slot poisoned");
                    let mut inbox =
                        std::mem::take(&mut *mailboxes[i].lock().expect("mailbox poisoned"));
                    sort_migrants(&mut inbox);
                    shard.run_admissions(t, inbox);
                    shard.sample_cells(t);
                    idle[i].store(shard.idle(), Ordering::SeqCst);
                }
            });
        }
        epoch
    };

    let epochs = if workers == 1 {
        work()
    } else {
        let epochs: Vec<u64> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
        })
        .expect("shard scope failed");
        debug_assert!(epochs.iter().all(|&e| e == epochs[0]), "workers disagreed on epoch count");
        epochs[0]
    };
    if let Some(cause) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(cause);
    }
    epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::metrics::CellLoadSeries;
    use facs_cac::policies::CompleteSharing;
    use facs_cac::{AdmissionController, AdmissionPlan, CallRequest, Decision, ServiceClass};

    fn controllers(n: usize) -> Vec<BoxedController> {
        (0..n).map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
    }

    fn stationary_spec(arrival_s: f64, class: ServiceClass, holding_s: f64) -> UserSpec {
        UserSpec {
            arrival_s,
            profile: ServiceProfile::paper(class),
            start: MobileState::new(Point::new(0.5, 0.0), 0.0, 0.0),
            mobility: MobilityKind::StraightLine,
            holding_s,
        }
    }

    #[test]
    fn single_call_is_admitted_and_completes() {
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Video, 60.0)]);
        assert_eq!(metrics.offered_new, 1);
        assert_eq!(metrics.accepted_new, 1);
        assert_eq!(metrics.completed, 1);
        assert_eq!(sim.cells[0][0].ledger.occupied(), BandwidthUnits::ZERO, "bandwidth returned");
    }

    #[test]
    fn capacity_blocks_excess_calls() {
        let grid = HexGrid::single_cell(10.0);
        // 40 BU: exactly 4 video calls fit if they overlap.
        let workload: Vec<UserSpec> = (0..6)
            .map(|i| stationary_spec(1.0 + i as f64 * 0.001, ServiceClass::Video, 1_000.0))
            .collect();
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(workload);
        assert_eq!(metrics.offered_new, 6);
        assert_eq!(metrics.accepted_new, 4);
        assert_eq!(metrics.blocked_new, 2);
    }

    #[test]
    fn sequential_calls_reuse_bandwidth() {
        let grid = HexGrid::single_cell(10.0);
        // Calls arrive 100 s apart, each holds 10 s: never concurrent.
        let workload: Vec<UserSpec> = (0..5)
            .map(|i| stationary_spec(10.0 + 100.0 * i as f64, ServiceClass::Video, 10.0))
            .collect();
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(workload);
        assert_eq!(metrics.accepted_new, 5);
        assert_eq!(metrics.completed, 5);
    }

    #[test]
    fn call_end_frees_capacity_for_an_arrival_at_the_same_instant() {
        // Four video calls fill the 40-BU cell; the first ends at exactly
        // t = 7 s. A video arrival at 7 s is admitted because call-ends
        // dispatch before arrivals at equal instants; one a microsecond
        // earlier is blocked.
        let run = |arrival_s: f64| {
            let mut workload: Vec<UserSpec> = (0..4)
                .map(|i| stationary_spec(1.0 + f64::from(i), ServiceClass::Video, 1_000.0))
                .collect();
            workload[0].holding_s = 6.0;
            workload.push(stationary_spec(arrival_s, ServiceClass::Video, 10.0));
            let grid = HexGrid::single_cell(10.0);
            let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
            sim.run(workload)
        };
        let same_instant = run(7.0);
        assert_eq!(same_instant.accepted_new, 5);
        assert_eq!(same_instant.blocked_new, 0);
        let just_before = run(6.999_999);
        assert_eq!(just_before.accepted_new, 4);
        assert_eq!(just_before.blocked_new, 1);
    }

    #[test]
    fn unsorted_workload_matches_the_sorted_one() {
        // Overlapping calls of mixed classes into one cell: which calls
        // win depends on dispatch order, so the reversed input must be
        // put back in arrival order to reproduce the sorted run.
        let classes = [ServiceClass::Video, ServiceClass::Voice, ServiceClass::Text];
        let sorted: Vec<UserSpec> = (0..40)
            .map(|i| stationary_spec(0.7 * f64::from(i), classes[i as usize % 3], 30.0))
            .collect();
        let reversed: Vec<UserSpec> = sorted.iter().rev().cloned().collect();
        let run = |workload: Vec<UserSpec>| {
            let grid = HexGrid::single_cell(10.0);
            let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
            sim.run_with(workload, (Metrics::new(), crate::validate::TraceDigest::new()))
        };
        let expected = run(sorted);
        assert!(expected.0.blocked_new > 0, "workload should contend for capacity");
        // The digest hashes user ids too: each reversed user takes its
        // rank in dispatch order as its id, which is its sorted index.
        assert_eq!(expected, run(reversed));
    }

    #[test]
    fn an_empty_workload_runs_no_epochs() {
        use crate::traffic::HoldingTimes;
        use crate::workload::{SpawnSpec, Workload};
        let grid = HexGrid::new(1, 2.0);
        let desc = Workload { spawn: SpawnSpec::AnyCell, ..Workload::default() };
        for (shards, workers) in [(1, 1), (3, 3)] {
            let stream = desc.stream(&grid, 0, 60.0, HoldingTimes::new(30.0), 1, 4);
            for input in [RunInput::from(Vec::new()), stream.into()] {
                let config = SimulationConfig { shards, workers, ..Default::default() };
                let mut sim = Simulation::new(grid.clone(), config, controllers(7));
                assert_eq!(sim.run(input), Metrics::default(), "{shards} shards");
                assert_eq!(sim.now(), SimTime::ZERO);
            }
        }
    }

    #[test]
    fn handoff_moves_bandwidth_between_cells() {
        let grid = HexGrid::new(1, 1.0);
        // A user in the center cell moving due east at high speed will
        // cross into the east neighbor well within its holding time.
        let spec = UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 120.0,
        };
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        let mut sim = Simulation::new(grid, config, controllers(7));
        let metrics = sim.run(vec![spec]);
        assert_eq!(metrics.accepted_new, 1);
        assert!(metrics.handoff_attempts >= 1, "no handoff happened");
        assert_eq!(metrics.handoff_dropped, 0);
        // Either completed in a neighbor or exited past the map edge.
        assert_eq!(metrics.completed + metrics.exited_coverage, 1);
    }

    fn east_center(grid: &HexGrid) -> Point {
        let id = grid
            .cell_ids()
            .find(|&id| {
                let c = grid.center_of(id);
                c.y.abs() < 1e-9 && c.x > 0.0
            })
            .expect("east neighbor exists");
        grid.center_of(id)
    }

    #[test]
    fn handoff_into_full_cell_drops_call() {
        let grid = HexGrid::new(1, 1.0);
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        // Fill the east neighbor with stationary video calls, then drive a
        // voice call into it.
        let east = east_center(&HexGrid::new(1, 1.0));
        let mut workload: Vec<UserSpec> = (0..4)
            .map(|i| UserSpec {
                arrival_s: 0.5 + i as f64 * 0.01,
                profile: ServiceProfile::paper(ServiceClass::Video),
                start: MobileState::new(east, 0.0, 0.0),
                mobility: MobilityKind::StraightLine,
                holding_s: 10_000.0,
            })
            .collect();
        workload.push(UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 10_000.0,
        });
        let mut sim = Simulation::new(grid, config, controllers(7));
        let metrics = sim.run(workload);
        assert_eq!(metrics.accepted_new, 5);
        assert!(metrics.handoff_dropped >= 1, "expected a dropped handoff");
    }

    /// Speed (km/h) that advances a user by `km_per_tick` km per
    /// movement tick of `tick_s` seconds.
    fn kmh_for(km_per_tick: f64, tick_s: f64) -> f64 {
        km_per_tick / tick_s * 3_600.0
    }

    #[test]
    fn call_end_exactly_on_a_barrier_preempts_the_handoff() {
        // A call whose end lands *exactly* on an epoch barrier is a
        // call-end, not a handoff: run_events drains events with
        // `time <= barrier` before the movement phase, so the user is
        // gone before the step that would have crossed the border.
        let grid = HexGrid::new(1, 1.0);
        let east = east_center(&grid);
        let boundary = east.x / 2.0;
        let km_per_tick = 0.04;
        // 4.5 ticks from the border: the crossing step is step 5.
        let spec = |holding_s: f64| UserSpec {
            arrival_s: 0.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(
                Point::new(boundary - 4.5 * km_per_tick, 0.0),
                0.0,
                kmh_for(km_per_tick, 1.0),
            ),
            mobility: MobilityKind::StraightLine,
            holding_s,
        };
        let run = |holding_s: f64, shards: usize| {
            let config = SimulationConfig { movement_tick_s: 1.0, shards, ..Default::default() };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            sim.run(vec![spec(holding_s)])
        };
        // Control: a slightly longer call does cross at barrier 5.
        let crossing = run(5.5, 1);
        assert_eq!(crossing.handoff_attempts, 1, "control call should hand off");
        // Holding 5.0 ends exactly at barrier 5: completed, never stepped
        // at barrier 5, no handoff.
        let exact = run(5.0, 1);
        assert_eq!(exact.completed, 1);
        assert_eq!(exact.handoff_attempts, 0, "end-at-barrier must preempt the handoff");
        assert_eq!(exact.mobility_steps, 4, "no movement step at the final barrier");
        for shards in [2, 4, 7] {
            assert_eq!(exact, run(5.0, shards), "barrier-exact end diverged at {shards} shards");
        }
    }

    #[test]
    fn call_end_racing_an_outbound_handoff_across_shards() {
        // The call hands off to a cell owned by another shard at barrier
        // 2, then ends mid-epoch at t = 2.5. The source shard still holds
        // the original generation-0 CallEnd event for t = 2.5; it must be
        // discarded as stale while the destination shard's generation-1
        // event completes the call — exactly once, on either side.
        let grid = HexGrid::new(1, 1.0);
        let east_id = grid.locate(east_center(&grid));
        let boundary = east_center(&grid).x / 2.0;
        let km_per_tick = 0.04;
        let spec = UserSpec {
            arrival_s: 0.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            // 1.5 ticks from the border: crosses on step 2.
            start: MobileState::new(
                Point::new(boundary - 1.5 * km_per_tick, 0.0),
                0.0,
                kmh_for(km_per_tick, 1.0),
            ),
            mobility: MobilityKind::StraightLine,
            holding_s: 2.5,
        };
        let run = |shards: usize| {
            let config = SimulationConfig { movement_tick_s: 1.0, shards, ..Default::default() };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            let metrics = sim.run(vec![spec.clone()]);
            for (shard, cells) in sim.cells.iter().enumerate() {
                for (slot, cell) in cells.iter().enumerate() {
                    let id = slot * sim.cells.len() + shard;
                    assert_eq!(
                        cell.ledger.occupied(),
                        BandwidthUnits::ZERO,
                        "cell {id} leaked bandwidth at {shards} shards"
                    );
                }
            }
            metrics
        };
        let single = run(1);
        assert_eq!(single.handoff_attempts, 1);
        assert_eq!(single.handoff_accepted, 1);
        assert_eq!(single.completed, 1, "the call must complete exactly once");
        // Pick a shard count that puts source (cell 0) and destination on
        // different shards, plus a few others for good measure.
        let remote = (2..=7).find(|s| east_id.0 as usize % s != 0).expect("remote split exists");
        for shards in [remote, 4, 7] {
            assert_eq!(single, run(shards), "handoff/end race diverged at {shards} shards");
        }
    }

    #[test]
    fn handoff_into_a_full_cell_on_a_remote_shard_drops_the_call() {
        // Same setup as handoff_into_full_cell_drops_call, but run with
        // shard counts that place the full east neighbor on a different
        // shard than the source cell: the migrant is exchanged at the
        // barrier, denied at the remote cell, and dropped — bit-identical
        // to the single-shard run.
        let grid = HexGrid::new(1, 1.0);
        let east = east_center(&grid);
        let east_id = grid.locate(east);
        let mut workload: Vec<UserSpec> = (0..4)
            .map(|i| UserSpec {
                arrival_s: 0.5 + i as f64 * 0.01,
                profile: ServiceProfile::paper(ServiceClass::Video),
                start: MobileState::new(east, 0.0, 0.0),
                mobility: MobilityKind::StraightLine,
                holding_s: 10_000.0,
            })
            .collect();
        workload.push(UserSpec {
            arrival_s: 1.0,
            profile: ServiceProfile::paper(ServiceClass::Voice),
            start: MobileState::new(Point::new(0.0, 0.0), 0.0, 120.0),
            mobility: MobilityKind::StraightLine,
            holding_s: 10_000.0,
        });
        let run = |shards: usize| {
            let config = SimulationConfig {
                movement_tick_s: 1.0,
                max_time_s: 600.0,
                shards,
                ..Default::default()
            };
            let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
            sim.run(workload.clone())
        };
        let single = run(1);
        assert_eq!(single.accepted_new, 5);
        assert!(single.handoff_dropped >= 1, "expected a dropped handoff");
        let remote = (2..=7).find(|s| east_id.0 as usize % s != 0).expect("remote split exists");
        assert_ne!(east_id.0 as usize % remote, 0, "east cell must live on a remote shard");
        for shards in [remote, 4, 7] {
            assert_eq!(single, run(shards), "remote full-cell drop diverged at {shards} shards");
        }
    }

    fn walker_workload(n: u64) -> Vec<UserSpec> {
        (0..n)
            .map(|i| UserSpec {
                arrival_s: i as f64,
                profile: ServiceProfile::paper(if i % 3 == 0 {
                    ServiceClass::Video
                } else {
                    ServiceClass::Text
                }),
                start: MobileState::new(Point::new(0.1 * i as f64 % 1.5, 0.0), 45.0, 30.0),
                mobility: MobilityKind::Walker,
                holding_s: 60.0 + i as f64,
            })
            .collect()
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let grid = HexGrid::new(1, 2.0);
            let config = SimulationConfig { movement_tick_s: 2.0, seed: 7, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(7));
            sim.run(walker_workload(50))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_runs_match_single_shard_bit_for_bit() {
        let run = |shards: usize| {
            let grid = HexGrid::new(2, 2.0);
            let config =
                SimulationConfig { movement_tick_s: 2.0, seed: 7, shards, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(19));
            sim.run(walker_workload(200))
        };
        let single = run(1);
        for shards in [2, 3, 4, 19, 64] {
            assert_eq!(single, run(shards), "{shards} shards diverged from 1");
        }
        assert!(single.handoff_attempts > 0, "workload should exercise handoffs");
    }

    #[test]
    fn pooled_and_pinned_drivers_match_sequential_bit_for_bit() {
        // Force worker counts explicitly: auto-sizing on a small CI box
        // may resolve to one inline worker, and the stealing path must
        // be exercised regardless of the host's core count.
        let run = |shards: usize, workers: usize| {
            let grid = HexGrid::new(2, 2.0);
            let config = SimulationConfig {
                movement_tick_s: 2.0,
                seed: 7,
                shards,
                workers,
                ..Default::default()
            };
            let mut sim = Simulation::new(grid, config, controllers(19));
            sim.run(walker_workload(200))
        };
        let single = run(1, 1);
        for shards in [2, 3, 7] {
            for workers in [2, 3] {
                assert_eq!(
                    single,
                    run(shards, workers),
                    "{shards} shards / {workers} workers diverged"
                );
            }
        }
        assert!(single.handoff_attempts > 0, "workload should exercise handoffs");
    }

    #[test]
    fn streamed_runs_match_eager_bit_for_bit() {
        use crate::traffic::HoldingTimes;
        use crate::workload::{MobilityChoice, SpawnSpec, Workload};
        let grid = HexGrid::new(2, 2.0);
        let desc = Workload {
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            ..Workload::default()
        };
        let holding = HoldingTimes::new(60.0);
        let config = |shards, workers| SimulationConfig {
            movement_tick_s: 2.0,
            seed: 7,
            shards,
            workers,
            max_time_s: 3_000.0,
            ..Default::default()
        };
        let eager = {
            let mut sim = Simulation::new(grid.clone(), config(1, 1), controllers(19));
            sim.run(desc.generate(&grid, 300, 600.0, holding, 42))
        };
        assert!(eager.handoff_attempts > 0, "workload should exercise handoffs");
        for shards in [1, 2, 4] {
            for workers in [1, 2] {
                for chunk in [1, 7, 4096] {
                    let stream = desc.stream(&grid, 300, 600.0, holding, 42, chunk);
                    let mut sim =
                        Simulation::new(grid.clone(), config(shards, workers), controllers(19));
                    let streamed = sim.run(stream);
                    assert_eq!(
                        eager, streamed,
                        "streamed diverged: {shards} shards, {workers} workers, chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_cell_series_matches_eager() {
        // The epoch pulse (sample_cells) must fire on exactly the same
        // barriers for both inputs, including arrival gaps where every
        // shard is momentarily idle but the stream is not exhausted.
        // Worker counts are explicit so the stealing path, where the
        // refill runs alongside shard work, is pinned on any host. Chunk
        // sizes move where the feeder blocks on the producer thread, and
        // a 200-s horizon cuts the 400-s arrival window with chunks the
        // producer must give up on.
        use crate::traffic::HoldingTimes;
        use crate::workload::{MobilityChoice, SpawnSpec, Workload};
        let grid = HexGrid::new(1, 2.0);
        let desc = Workload {
            spawn: SpawnSpec::AnyCell,
            mobility: MobilityChoice::Walker,
            ..Workload::default()
        };
        let holding = HoldingTimes::new(30.0);
        let run = |input: RunInput, shards: usize, workers: usize, max_time_s: f64| {
            let config = SimulationConfig {
                movement_tick_s: 2.0,
                seed: 9,
                shards,
                workers,
                max_time_s,
                ..Default::default()
            };
            let mut sim = Simulation::new(grid.clone(), config, controllers(7));
            let out = sim.run_with(input, (Metrics::new(), CellLoadSeries::new()));
            (out, sim.now())
        };
        for max_time_s in [2_000.0, 200.0] {
            let eager = run(desc.generate(&grid, 60, 400.0, holding, 5).into(), 1, 1, max_time_s);
            let offered = eager.0 .0.offered_new;
            assert_eq!(offered < 60, max_time_s < 400.0, "offered {offered}");
            for (shards, workers) in [(1, 1), (3, 1), (3, 2), (3, 3)] {
                for chunk in [1, 8, 4096] {
                    let stream = desc.stream(&grid, 60, 400.0, holding, 5, chunk);
                    assert_eq!(
                        eager,
                        run(stream.into(), shards, workers, max_time_s),
                        "streamed diverged: {max_time_s} s, {shards} shards, {workers} workers, \
                         chunk {chunk}"
                    );
                }
                let pooled = desc.generate(&grid, 60, 400.0, holding, 5);
                assert_eq!(
                    eager,
                    run(pooled.into(), shards, workers, max_time_s),
                    "eager diverged: {max_time_s} s, {shards} shards, {workers} workers"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn a_producer_panic_is_re_raised_on_one_worker() {
        producer_panic_run(1, 1);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn a_producer_panic_is_re_raised_on_a_pool() {
        // The same panic on 3 shards and 2 workers must surface too.
        producer_panic_run(3, 2);
    }

    #[test]
    fn a_producer_that_hangs_up_early_ends_the_stream() {
        // The producer dies after its first chunk. Past the first window
        // the refill runs on one pool worker while the others wait at a
        // barrier, so the feeder must end the stream, not panic.
        let grid = HexGrid::single_cell(10.0);
        let (sender, chunks) = mpsc::sync_channel(1);
        let specs = vec![stationary_spec(1.0, ServiceClass::Voice, 10.0)];
        sender.send(WorkloadChunk { first_user: 0, specs }).expect("channel open");
        drop(sender);
        let mut feeder = StreamFeeder::new(chunks, 5, &grid);
        let inboxes = [Mutex::new(VecDeque::new())];
        assert!(!feeder.refill(&inboxes, SimTime::from_secs_f64(0.5)), "nothing due yet");
        assert!(!feeder.exhausted(), "four users are still unsent");
        assert!(feeder.refill(&inboxes, SimTime::from_secs_f64(2.0)));
        assert!(feeder.exhausted(), "a hung-up producer ends the stream");
        assert_eq!(inboxes[0].lock().expect("inbox").len(), 1);
    }

    #[test]
    fn a_worker_panic_is_re_raised_on_a_pool() {
        // A negative holding time panics in one shard's arrival dispatch.
        // The other pool workers must leave the epoch loop with it rather
        // than wait at the next barrier forever; the run is watched from
        // another thread, so a deadlock fails the test instead of hanging.
        for (shards, workers) in [(2, 1), (2, 2), (3, 3)] {
            let (done, finished) = mpsc::channel::<()>();
            let run = std::thread::spawn(move || {
                let _done = done;
                let config = SimulationConfig {
                    shards,
                    workers,
                    movement_tick_s: 1.0,
                    ..Default::default()
                };
                let mut sim = Simulation::new(HexGrid::new(1, 1.0), config, controllers(7));
                sim.run(vec![stationary_spec(1.0, ServiceClass::Voice, -1.0)])
            });
            let outcome = finished.recv_timeout(std::time::Duration::from_secs(60));
            assert_eq!(
                outcome,
                Err(mpsc::RecvTimeoutError::Disconnected),
                "{shards} shards / {workers} workers: the run did not return"
            );
            let cause = run.join().expect_err("a negative holding time must panic");
            let message = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("invalid duration -1"), "re-raised {message:?}");
        }
    }

    /// A zero-width distance range panics inside synthesis; the run must
    /// surface that panic, not hang or end quietly.
    fn producer_panic_run(shards: usize, workers: usize) {
        use crate::traffic::HoldingTimes;
        use crate::workload::{DistanceSpec, SpawnSpec, Workload};
        let grid = HexGrid::new(1, 2.0);
        let desc = Workload {
            spawn: SpawnSpec::AnyCell,
            distance: DistanceSpec::Uniform(1.0, 1.0),
            ..Workload::default()
        };
        let stream = desc.stream(&grid, 20, 60.0, HoldingTimes::new(30.0), 1, 4);
        let config = SimulationConfig { shards, workers, ..Default::default() };
        let mut sim = Simulation::new(grid, config, controllers(7));
        let _ = sim.run(stream);
    }

    #[test]
    fn worker_pool_resolution_caps_at_shard_count() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 5), 2);
        assert_eq!(resolve_workers(1, 4), 1);
        // Auto mode asks the OS but can never exceed one per shard.
        assert!(resolve_workers(0, 2) <= 2);
        assert!(resolve_workers(0, 1) == 1);
    }

    /// Every `on_cell_utilization` call of a run, integrals as bits.
    #[derive(Debug, Default, PartialEq)]
    struct UtilizationFlush(Vec<(CellId, u64, u64)>);

    impl MetricsSink for UtilizationFlush {
        fn fork(&self) -> Self {
            Self::default()
        }

        fn absorb(&mut self, other: Self) {
            self.0.extend(other.0);
        }

        fn on_cell_utilization(&mut self, cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
            self.0.push((cell, occupied_bu_s.to_bits(), capacity_bu_s.to_bits()));
        }
    }

    #[test]
    fn cell_series_sink_is_shard_independent() {
        let run = |shards: usize| {
            let grid = HexGrid::new(1, 2.0);
            let config =
                SimulationConfig { movement_tick_s: 2.0, seed: 9, shards, ..Default::default() };
            let mut sim = Simulation::new(grid, config, controllers(7));
            let sinks = (Metrics::new(), (CellLoadSeries::new(), UtilizationFlush::default()));
            sim.run_with(walker_workload(60), sinks)
        };
        let (m1, (s1, u1)) = run(1);
        // 7 shards put one cell on each; 9 is clamped to 7.
        for shards in [2, 3, 4, 7, 9] {
            let (m, (s, u)) = run(shards);
            assert_eq!(m1, m, "{shards} shards");
            assert_eq!(s1, s, "{shards} shards");
            assert_eq!(u1, u, "{shards} shards");
        }
        let ids: Vec<u32> = u1.0.iter().map(|&(id, _, _)| id.0).collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>(), "each cell flushed once, in id order");
        assert!(u1.0.iter().any(|&(_, occupied, _)| f64::from_bits(occupied) > 0.0));
        assert_eq!(s1.capacity_bu(), 40);
        assert!(s1.cells().count() > 0, "series sampled no cells");
        let csv = s1.to_csv();
        assert!(csv.starts_with("cell,t_s,occupied_bu\n"));
    }

    #[test]
    fn controller_veto_blocks_even_with_capacity() {
        struct DenyAll;
        impl AdmissionController for DenyAll {
            fn name(&self) -> &str {
                "deny"
            }
            fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
                AdmissionPlan::gate(Decision::binary(false))
            }
        }
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(
            grid,
            SimulationConfig::default(),
            vec![Box::new(DenyAll) as BoxedController],
        );
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Text, 10.0)]);
        assert_eq!(metrics.blocked_new, 1);
        assert_eq!(metrics.accepted_new, 0);
    }

    struct SharedState;
    impl AdmissionController for SharedState {
        fn name(&self) -> &str {
            "shared"
        }
        fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
            AdmissionPlan::gate(Decision::binary(true))
        }
        fn is_cell_local(&self) -> bool {
            false
        }
    }

    fn shared_controllers(n: usize) -> Vec<BoxedController> {
        (0..n).map(|_| Box::new(SharedState) as BoxedController).collect()
    }

    #[test]
    #[should_panic(expected = "shares cross-cell state")]
    fn shared_state_controller_refuses_multiple_shards() {
        let config = SimulationConfig { shards: 2, ..Default::default() };
        let _ = Simulation::new(HexGrid::new(1, 1.0), config, shared_controllers(7));
    }

    #[test]
    fn shared_state_controller_runs_single_shard() {
        let grid = HexGrid::new(1, 1.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), shared_controllers(7));
        let metrics = sim.run(vec![stationary_spec(1.0, ServiceClass::Voice, 10.0)]);
        assert_eq!(metrics.accepted_new, 1);
    }

    /// A stateless admit-all policy keyed by its shared `Arc`, optionally
    /// claiming cross-cell state too.
    #[derive(Clone)]
    struct Keyed {
        shared: std::sync::Arc<()>,
        cell_local: bool,
    }

    impl AdmissionController for Keyed {
        fn name(&self) -> &str {
            "keyed"
        }
        fn decide(&mut self, _r: &CallRequest, _c: &BandwidthLedger) -> AdmissionPlan {
            AdmissionPlan::gate(Decision::binary(true))
        }
        fn is_cell_local(&self) -> bool {
            self.cell_local
        }
        fn policy_key(&self) -> Option<PolicyKey> {
            Some(PolicyKey::of::<Self, _>(&self.shared))
        }
    }

    #[test]
    fn a_shard_keeps_one_controller_per_policy_key_and_one_per_unkeyed_cell() {
        let fresh = || Keyed { shared: Default::default(), cell_local: true };
        let (a, b) = (fresh(), fresh());
        // Cells 0..19: keys a and b alternate, and every fifth cell is
        // an unkeyed complete-sharing controller.
        let mixed = || -> Vec<BoxedController> {
            (0..19)
                .map(|id| match id {
                    _ if id % 5 == 4 => Box::new(CompleteSharing::new()) as BoxedController,
                    _ if id % 2 == 0 => Box::new(a.clone()),
                    _ => Box::new(b.clone()),
                })
                .collect()
        };
        let grid = HexGrid::new(2, 1.0);
        for (shards, expected) in [(1, 2 + 3), (3, 6 + 3), (19, 16 + 3), (40, 16 + 3)] {
            let config = SimulationConfig { shards, ..Default::default() };
            let sim = Simulation::new(grid.clone(), config, mixed());
            assert_eq!(sim.policy_count(), expected, "{shards} shards");
            // Every cell's slot names a controller of its own key.
            for id in 0..19 {
                let shard = id % sim.cells.len();
                let cell = &sim.cells[shard][id / sim.cells.len()];
                let name = sim.policies[shard][cell.policy as usize].name();
                assert_eq!(name, if id % 5 == 4 { "CS" } else { "keyed" }, "cell {id}");
            }
        }
        let sim = Simulation::new(grid, SimulationConfig::default(), controllers(19));
        assert_eq!(sim.policy_count(), 19, "unkeyed controllers keep one per cell");
    }

    #[test]
    #[should_panic(expected = "reports a policy key but shares cross-cell state")]
    fn a_keyed_controller_that_shares_cross_cell_state_is_refused() {
        // Refused even on one shard, where a shared-state policy may run.
        let shared = Keyed { shared: Default::default(), cell_local: false };
        let controllers = (0..7).map(|_| Box::new(shared.clone()) as BoxedController).collect();
        let _ = Simulation::new(HexGrid::new(1, 1.0), SimulationConfig::default(), controllers);
    }

    #[test]
    #[should_panic(expected = "one controller per cell")]
    fn controller_count_mismatch_panics() {
        let grid = HexGrid::new(1, 1.0);
        let _ = Simulation::new(grid, SimulationConfig::default(), controllers(3));
    }

    #[test]
    #[should_panic(expected = "rounds to zero microseconds")]
    fn sub_microsecond_movement_tick_panics_at_construction() {
        let config = SimulationConfig { movement_tick_s: 4e-7, ..Default::default() };
        let _ = Simulation::new(HexGrid::single_cell(1.0), config, controllers(1));
    }

    #[test]
    #[should_panic(expected = "is not a finite, non-negative time")]
    fn negative_horizon_panics_at_construction() {
        let config = SimulationConfig { max_time_s: -1.0, ..Default::default() };
        let _ = Simulation::new(HexGrid::single_cell(1.0), config, controllers(1));
    }

    #[test]
    fn non_finite_horizons_panic_at_construction() {
        for max_time_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = SimulationConfig { max_time_s, ..Default::default() };
            let built = panic::catch_unwind(|| {
                Simulation::new(HexGrid::single_cell(1.0), config, controllers(1))
            });
            assert!(built.is_err(), "horizon {max_time_s} s was accepted");
        }
    }

    #[test]
    fn mobility_is_a_one_byte_tag_and_user_spec_stays_small() {
        // Every spec, in-call user and migrant carries a `MobilityKind`;
        // a streamed input holds up to two chunks of specs and an eager
        // `Vec<UserSpec>` one spec per user for the whole run, so input
        // memory and the planet memory budget (25 % of users ×
        // `size_of::<UserSpec>()`) scale with the spec.
        assert_eq!(std::mem::size_of::<MobilityKind>(), 1);
        let spec = std::mem::size_of::<UserSpec>();
        assert!(spec <= 88, "UserSpec grew to {spec} bytes");
        // A simulation holds one `CellUnit` per cell for its lifetime
        // (99,919 on the planet grid); it names its controller by a 4-B
        // policy slot, not a 16-B boxed pointer. Debug builds add the 8-B
        // time of the last `observe` pulse, which only a `debug_assert!`
        // reads.
        let pulse_field = if cfg!(debug_assertions) { std::mem::size_of::<f64>() } else { 0 };
        let cell = std::mem::size_of::<CellUnit>() - pulse_field;
        assert!(cell <= 72, "CellUnit grew to {cell} bytes in release builds");
    }

    #[test]
    fn utilization_is_tracked() {
        let grid = HexGrid::single_cell(10.0);
        let mut sim = Simulation::new(grid, SimulationConfig::default(), controllers(1));
        let metrics = sim.run(vec![stationary_spec(0.0, ServiceClass::Video, 600.0)]);
        assert!(metrics.mean_utilization() > 0.0);
    }

    #[test]
    fn mobility_steps_are_counted() {
        let grid = HexGrid::single_cell(10.0);
        let config = SimulationConfig { movement_tick_s: 1.0, ..Default::default() };
        let mut sim = Simulation::new(grid, config, controllers(1));
        // One stationary call holding ~10.5 s: stepped at barriers 1..=10.
        let metrics = sim.run(vec![stationary_spec(0.0, ServiceClass::Voice, 10.5)]);
        assert_eq!(metrics.mobility_steps, 10);
        assert_eq!(metrics.total_events(), 1 + 1 + 10);
    }
}
