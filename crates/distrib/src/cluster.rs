//! The cluster runtime: one OS thread per base station, each owning its
//! bandwidth ledger and admission controller, driven purely by messages.
//!
//! This realizes the deployment the SCC paper sketches — base stations as
//! autonomous peers exchanging admission traffic — and doubles as a
//! fidelity check: because every controller in this workspace is
//! deterministic over (request, cell state), the actor runtime must
//! produce byte-identical decisions to the in-process simulator for the
//! same request sequence (asserted by `tests/distributed.rs`).

use std::collections::HashMap;
use std::fmt;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Sender};
use facs::{FacsConfig, FacsController};
use facs_cac::{
    AdmissionController, BandwidthLedger, BandwidthUnits, BoxedController, CallId, CallRequest,
    CellId,
};
use facs_cellsim::HexGrid;
use facs_fuzzy::FuzzyError;

use crate::messages::{AdmissionOutcome, BsMessage};

/// Errors surfaced by cluster operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The addressed cell id is not part of this cluster.
    UnknownCell(CellId),
    /// The cell's actor has terminated (channel closed).
    CellOffline(CellId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownCell(id) => write!(f, "no such cell {id}"),
            ClusterError::CellOffline(id) => write!(f, "{id} actor is offline"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One base station's message loop: a ledger plus its controller,
/// driven purely by admission/release messages.
///
/// There is no epoch clock here, so the actor **never** delivers the
/// [`AdmissionController::observe`] pulse — by the trait's ordering
/// contract, controllers with time-stepped state (forecasters, tuners)
/// degrade gracefully to their reactive behavior under this runtime.
///
/// [`AdmissionController::observe`]: facs_cac::AdmissionController::observe
struct BsActor {
    ledger: BandwidthLedger,
    controller: BoxedController,
}

impl BsActor {
    fn run(mut self, rx: crossbeam::channel::Receiver<BsMessage>) {
        while let Ok(message) = rx.recv() {
            match message {
                BsMessage::Admission { request, reply } => {
                    let plan = self.controller.decide(&request, &self.ledger);
                    let decision = plan.decision();
                    let admission = plan.apply(&request, &mut self.ledger, &mut self.controller);
                    let admitted = admission.is_some();
                    let allocated = admission.map_or(BandwidthUnits::ZERO, |a| a.granted);
                    // A dropped reply receiver is the caller's problem,
                    // not the actor's: ignore the send error.
                    let _ = reply.send(AdmissionOutcome {
                        admitted,
                        margin: decision.margin(),
                        decision,
                        allocated,
                        occupied_after: self.ledger.occupied(),
                    });
                }
                BsMessage::Release { call } => {
                    if let Ok(profile) = self.ledger.release(call) {
                        let _ = self.ledger.reupgrade_on_release();
                        let after = self.ledger.snapshot();
                        self.controller.on_released(call, profile.class, &after);
                    }
                }
                BsMessage::Occupancy { reply } => {
                    let _ = reply.send(self.ledger.occupied());
                }
                BsMessage::Shutdown => break,
            }
        }
    }
}

/// One admitted call awaiting its holding-time expiry during a replay.
/// Ordered by `(end time, call id)` — total because end times are finite
/// workload sums, and call-id tie-breaking keeps replays deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LiveCall {
    end_s: f64,
    cell: CellId,
    call: CallId,
}

impl Eq for LiveCall {}

impl PartialOrd for LiveCall {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LiveCall {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.end_s.total_cmp(&other.end_s).then_with(|| self.call.0.cmp(&other.call.0))
    }
}

/// The outcome of replaying a scenario's new-call stream through a
/// cluster (see [`Cluster::replay_new_calls`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Per-request `(serving cell, outcome)` in arrival order.
    pub outcomes: Vec<(CellId, AdmissionOutcome)>,
    /// Requests skipped because the user spawned outside coverage.
    pub out_of_coverage: usize,
}

impl ReplayReport {
    /// Fraction of replayed requests that were admitted (1.0 when none
    /// were replayed).
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let admitted = self.outcomes.iter().filter(|(_, o)| o.admitted).count();
        admitted as f64 / self.outcomes.len() as f64
    }
}

/// A running cluster of base-station actors.
///
/// Dropping the cluster shuts the actors down; prefer the explicit
/// [`Cluster::shutdown`] to observe a clean join.
///
/// # Examples
///
/// ```
/// use facs::FacsController;
/// use facs_cac::{BandwidthUnits, BoxedController, CallId, CallKind, CallRequest, CellId,
///               MobilityInfo, ServiceClass};
/// use facs_cellsim::HexGrid;
/// use facs_distrib::Cluster;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = HexGrid::new(1, 10.0);
/// let controllers = grid
///     .cell_ids()
///     .map(|_| Box::new(FacsController::new().unwrap()) as BoxedController)
///     .collect();
/// let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), controllers);
/// let request = CallRequest::new(
///     CallId(1),
///     ServiceClass::Voice,
///     CallKind::New,
///     MobilityInfo::new(60.0, 0.0, 2.0),
/// );
/// let outcome = cluster.request_admission(CellId(0), request)?;
/// assert!(outcome.admitted);
/// cluster.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    senders: HashMap<CellId, Sender<BsMessage>>,
    handles: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Spawns one actor per cell of `grid`, each with a fresh ledger of
    /// `capacity` and the matching controller.
    ///
    /// # Panics
    ///
    /// Panics unless `controllers.len() == grid.len()`.
    #[must_use]
    pub fn spawn(
        grid: &HexGrid,
        capacity: BandwidthUnits,
        controllers: Vec<BoxedController>,
    ) -> Self {
        assert_eq!(
            controllers.len(),
            grid.len(),
            "need exactly one controller per cell ({} cells, {} controllers)",
            grid.len(),
            controllers.len()
        );
        let mut senders = HashMap::new();
        let mut handles = Vec::new();
        for (i, controller) in controllers.into_iter().enumerate() {
            let cell = CellId(i as u32);
            let (tx, rx) = unbounded();
            let actor = BsActor { ledger: BandwidthLedger::new(capacity), controller };
            let handle = std::thread::Builder::new()
                .name(format!("bs-{}", cell.0))
                .spawn(move || actor.run(rx))
                .expect("spawn BS actor thread");
            senders.insert(cell, tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Spawns a FACS cluster: one actor per cell, each running its own
    /// clone of a single prototype [`FacsController`] built from
    /// `config`.
    ///
    /// This is the backend-aware entry point: with
    /// [`FacsConfig::compiled`] the decision surfaces compile **once**
    /// here and every actor shares the same sample blocks (surfaces
    /// clone by reference), so a 100-cell cluster pays one compilation,
    /// not one hundred.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the prototype controller fails to
    /// build (e.g. an invalid inference resolution in `config`).
    pub fn spawn_facs(
        grid: &HexGrid,
        capacity: BandwidthUnits,
        config: FacsConfig,
    ) -> Result<Self, FuzzyError> {
        let prototype = FacsController::with_config(config)?;
        let controllers =
            grid.cell_ids().map(|_| Box::new(prototype.clone()) as BoxedController).collect();
        Ok(Self::spawn(grid, capacity, controllers))
    }

    /// Replays a scenario workload's new-call stream through the actor
    /// path: users are generated from `scenario` (any entry of
    /// `facs_cellsim::workload::catalog()` works), each request is sent
    /// to the actor of the cell covering the user's position, and calls
    /// whose holding time has elapsed are released before later
    /// arrivals — so the actors see the same churn the in-process
    /// simulator's new-call path produces.
    ///
    /// Deterministic for a given `(scenario, seed)`: replaying twice
    /// against identically-configured clusters yields identical reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ClusterError`] (e.g. the cluster's grid is
    /// smaller than the scenario's).
    pub fn replay_new_calls(
        &self,
        scenario: &facs_cellsim::ScenarioConfig,
        seed: u64,
    ) -> Result<ReplayReport, ClusterError> {
        let grid = scenario.grid();
        let mut report = ReplayReport::default();
        // Admitted calls, earliest-ending first (ties broken by call id,
        // so replays are deterministic); a min-heap keeps the churn loop
        // O(n log n) over million-user workloads.
        let mut live: std::collections::BinaryHeap<std::cmp::Reverse<LiveCall>> =
            std::collections::BinaryHeap::new();
        // Synthesized chunk by chunk through the streaming path — the
        // replay never materializes the full workload, so memory tracks
        // live calls, not total users. The stream yields exactly the
        // eager `generate_workload` sequence.
        let mut stream = scenario.stream_workload(seed);
        while let Some(mut chunk) = stream.next_chunk() {
            for (offset, spec) in chunk.specs.drain(..).enumerate() {
                let i = chunk.first_user + offset as u64;
                while let Some(std::cmp::Reverse(ending)) = live.peek() {
                    if ending.end_s > spec.arrival_s {
                        break;
                    }
                    self.release(ending.cell, ending.call)?;
                    live.pop();
                }
                if grid.out_of_coverage(spec.start.position) {
                    report.out_of_coverage += 1;
                    continue;
                }
                let cell = grid.locate(spec.start.position);
                let call = CallId(i);
                let request = CallRequest::new(
                    call,
                    spec.profile.class,
                    facs_cac::CallKind::New,
                    spec.start.observe(grid.center_of(cell)),
                )
                .with_profile(spec.profile);
                let outcome = self.request_admission(cell, request)?;
                if outcome.admitted {
                    let end_s = spec.arrival_s + spec.holding_s;
                    live.push(std::cmp::Reverse(LiveCall { end_s, cell, call }));
                }
                report.outcomes.push((cell, outcome));
            }
            stream.recycle(chunk);
        }
        Ok(report)
    }

    fn sender(&self, cell: CellId) -> Result<&Sender<BsMessage>, ClusterError> {
        self.senders.get(&cell).ok_or(ClusterError::UnknownCell(cell))
    }

    /// Number of base stations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// `true` when the cluster has no cells (never, for grids built by
    /// [`HexGrid::new`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Requests admission of `request` at `cell` and waits for the
    /// decision.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownCell`] for an id outside the grid;
    /// [`ClusterError::CellOffline`] if the actor has terminated.
    pub fn request_admission(
        &self,
        cell: CellId,
        request: CallRequest,
    ) -> Result<AdmissionOutcome, ClusterError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.sender(cell)?
            .send(BsMessage::Admission { request, reply: reply_tx })
            .map_err(|_| ClusterError::CellOffline(cell))?;
        reply_rx.recv().map_err(|_| ClusterError::CellOffline(cell))
    }

    /// Releases `call` at `cell` (fire-and-forget; unknown calls are
    /// ignored by the actor).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownCell`] / [`ClusterError::CellOffline`].
    pub fn release(&self, cell: CellId, call: CallId) -> Result<(), ClusterError> {
        self.sender(cell)?
            .send(BsMessage::Release { call })
            .map_err(|_| ClusterError::CellOffline(cell))
    }

    /// Performs a handoff: releases at `from`, then requests admission at
    /// `to`. Returns the target's outcome; on denial the call is simply
    /// gone (dropped), as in the simulator.
    ///
    /// # Errors
    ///
    /// Propagates the first cluster error from either step.
    pub fn handoff(
        &self,
        from: CellId,
        to: CellId,
        request: CallRequest,
    ) -> Result<AdmissionOutcome, ClusterError> {
        self.release(from, request.id)?;
        self.request_admission(to, request)
    }

    /// Reads a cell's current occupancy.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownCell`] / [`ClusterError::CellOffline`].
    pub fn occupancy(&self, cell: CellId) -> Result<BandwidthUnits, ClusterError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.sender(cell)?
            .send(BsMessage::Occupancy { reply: reply_tx })
            .map_err(|_| ClusterError::CellOffline(cell))?;
        reply_rx.recv().map_err(|_| ClusterError::CellOffline(cell))
    }

    /// Shuts every actor down and joins the threads.
    pub fn shutdown(mut self) {
        for tx in self.senders.values() {
            let _ = tx.send(BsMessage::Shutdown);
        }
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for tx in self.senders.values() {
            let _ = tx.send(BsMessage::Shutdown);
        }
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facs_cac::policies::CompleteSharing;
    use facs_cac::{CallKind, MobilityInfo, ServiceClass};

    fn cs_controllers(n: usize) -> Vec<BoxedController> {
        (0..n).map(|_| Box::new(CompleteSharing::new()) as BoxedController).collect()
    }

    fn request(id: u64, class: ServiceClass) -> CallRequest {
        CallRequest::new(CallId(id), class, CallKind::New, MobilityInfo::new(30.0, 0.0, 2.0))
    }

    #[test]
    fn admission_allocates_and_release_frees() {
        let grid = HexGrid::single_cell(10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(1));
        let outcome =
            cluster.request_admission(CellId(0), request(1, ServiceClass::Video)).unwrap();
        assert!(outcome.admitted);
        assert_eq!(outcome.occupied_after.get(), 10);
        cluster.release(CellId(0), CallId(1)).unwrap();
        assert_eq!(cluster.occupancy(CellId(0)).unwrap(), BandwidthUnits::ZERO);
        cluster.shutdown();
    }

    #[test]
    fn capacity_is_enforced_by_the_actor() {
        let grid = HexGrid::single_cell(10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(1));
        let mut admitted = 0;
        for i in 0..6 {
            if cluster
                .request_admission(CellId(0), request(i, ServiceClass::Video))
                .unwrap()
                .admitted
            {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4, "40 BU holds exactly 4 video calls");
        cluster.shutdown();
    }

    #[test]
    fn handoff_moves_allocation() {
        let grid = HexGrid::new(1, 10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(7));
        assert!(
            cluster.request_admission(CellId(0), request(1, ServiceClass::Voice)).unwrap().admitted
        );
        let outcome = cluster
            .handoff(
                CellId(0),
                CellId(1),
                CallRequest::new(
                    CallId(1),
                    ServiceClass::Voice,
                    CallKind::Handoff,
                    MobilityInfo::new(30.0, 0.0, 2.0),
                ),
            )
            .unwrap();
        assert!(outcome.admitted);
        assert_eq!(cluster.occupancy(CellId(0)).unwrap(), BandwidthUnits::ZERO);
        assert_eq!(cluster.occupancy(CellId(1)).unwrap().get(), 5);
        cluster.shutdown();
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let grid = HexGrid::single_cell(10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(1));
        let err = cluster.request_admission(CellId(9), request(1, ServiceClass::Text)).unwrap_err();
        assert_eq!(err, ClusterError::UnknownCell(CellId(9)));
        cluster.shutdown();
    }

    #[test]
    fn release_of_unknown_call_is_idempotent() {
        let grid = HexGrid::single_cell(10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(1));
        cluster.release(CellId(0), CallId(404)).unwrap();
        assert_eq!(cluster.occupancy(CellId(0)).unwrap(), BandwidthUnits::ZERO);
        cluster.shutdown();
    }

    #[test]
    fn spawn_facs_serves_both_backends() {
        let grid = HexGrid::new(1, 10.0);
        // A coarse 9-point lattice keeps the debug-mode compile cheap;
        // accuracy at the default resolution is covered in facs-core.
        let compiled = FacsConfig {
            backend: facs_fuzzy::BackendKind::Compiled { points_per_axis: 9 },
            ..FacsConfig::default()
        };
        for config in [FacsConfig::default(), compiled] {
            let cluster = Cluster::spawn_facs(&grid, BandwidthUnits::new(40), config).unwrap();
            assert_eq!(cluster.len(), 7);
            let outcome = cluster
                .request_admission(
                    CellId(0),
                    CallRequest::new(
                        CallId(1),
                        ServiceClass::Voice,
                        CallKind::New,
                        MobilityInfo::new(60.0, 0.0, 2.0),
                    ),
                )
                .unwrap();
            assert!(outcome.admitted, "backend {} denied a clear admit", config.backend);
            cluster.shutdown();
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let grid = HexGrid::new(1, 10.0);
        let cluster = Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(7));
        drop(cluster); // must not hang or panic
    }

    #[test]
    fn concurrent_admissions_conserve_capacity() {
        let grid = HexGrid::single_cell(10.0);
        let cluster =
            std::sync::Arc::new(Cluster::spawn(&grid, BandwidthUnits::new(40), cs_controllers(1)));
        let mut joins = Vec::new();
        for t in 0..8 {
            let cluster = std::sync::Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut admitted = 0u32;
                for i in 0..10 {
                    let id = t * 100 + i;
                    if cluster
                        .request_admission(CellId(0), request(id, ServiceClass::Video))
                        .unwrap()
                        .admitted
                    {
                        admitted += 1;
                    }
                }
                admitted
            }));
        }
        let total: u32 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(total, 4, "exactly 4 video calls fit regardless of concurrency");
        assert_eq!(cluster.occupancy(CellId(0)).unwrap().get(), 40);
    }
}
