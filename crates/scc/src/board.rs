//! The shadow board — the "virtual message system" of the SCC paper.
//!
//! *"In practice, a shadow cluster is a virtual message system where BSs
//! share probabilistic information with their neighbors"* (paper §2).
//! Each base station posts, per admitted call, the bandwidth-weighted
//! probability mass the call projects onto every cell of its shadow
//! cluster; neighbors read the incoming influence when making their own
//! admission decisions.
//!
//! The board is shared state guarded by a mutex: every controller of
//! the simulated network holds an `Arc` to it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use facs_cac::{CallId, CellId};

/// One call's posted influence: `(cell, projected BU)` pairs.
type Contribution = Vec<(CellId, f64)>;

#[derive(Debug, Default)]
struct BoardInner {
    /// Projected incoming demand per cell, in fractional BU.
    influence: HashMap<CellId, f64>,
    /// Last occupancy each BS broadcast, in BU.
    occupied: HashMap<CellId, u32>,
    /// Per-call contributions, so releases can retract exactly what was
    /// posted.
    contributions: HashMap<CallId, Contribution>,
    /// Number of influence messages exchanged (posts + retractions),
    /// mirroring the BS-to-BS message traffic of a real deployment.
    messages: u64,
}

/// Shared, thread-safe shadow-cluster state for one network.
#[derive(Debug, Clone, Default)]
pub struct ShadowBoard {
    inner: Arc<Mutex<BoardInner>>,
}

impl ShadowBoard {
    /// Creates an empty board.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a call's projected influence onto the given cells. Replaces
    /// any previous posting for the same call (e.g. after a handoff).
    ///
    /// Each `(cell, bu)` pair counts as one message.
    pub fn post(&self, call: CallId, contribution: Vec<(CellId, f64)>) {
        let mut inner = self.inner.lock().expect("shadow board poisoned");
        if let Some(old) = inner.contributions.remove(&call) {
            inner.messages += old.len() as u64;
            for (cell, bu) in old {
                *inner.influence.entry(cell).or_insert(0.0) -= bu;
            }
        }
        inner.messages += contribution.len() as u64;
        for &(cell, bu) in &contribution {
            *inner.influence.entry(cell).or_insert(0.0) += bu;
        }
        inner.contributions.insert(call, contribution);
    }

    /// Retracts a call's influence (call ended or dropped). Unknown calls
    /// are ignored — the board is advisory state, not a ledger.
    pub fn retract(&self, call: CallId) {
        let mut inner = self.inner.lock().expect("shadow board poisoned");
        if let Some(old) = inner.contributions.remove(&call) {
            inner.messages += old.len() as u64;
            for (cell, bu) in old {
                *inner.influence.entry(cell).or_insert(0.0) -= bu;
            }
        }
    }

    /// Projected incoming demand for `cell`, in fractional BU (floored at
    /// zero to absorb floating-point residue).
    #[must_use]
    pub fn influence_on(&self, cell: CellId) -> f64 {
        let inner = self.inner.lock().expect("shadow board poisoned");
        inner.influence.get(&cell).copied().unwrap_or(0.0).max(0.0)
    }

    /// Broadcasts a cell's current occupancy to the cluster (one
    /// message).
    pub fn broadcast_occupied(&self, cell: CellId, occupied_bu: u32) {
        let mut inner = self.inner.lock().expect("shadow board poisoned");
        inner.messages += 1;
        inner.occupied.insert(cell, occupied_bu);
    }

    /// The last occupancy `cell` broadcast, in BU (0 when it never has).
    #[must_use]
    pub fn occupied_of(&self, cell: CellId) -> u32 {
        let inner = self.inner.lock().expect("shadow board poisoned");
        inner.occupied.get(&cell).copied().unwrap_or(0)
    }

    /// Number of active (posted, unretracted) calls.
    #[must_use]
    pub fn active_calls(&self) -> usize {
        self.inner.lock().expect("shadow board poisoned").contributions.len()
    }

    /// Total influence messages exchanged so far.
    #[must_use]
    pub fn message_count(&self) -> u64 {
        self.inner.lock().expect("shadow board poisoned").messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(i: u32) -> CellId {
        CellId(i)
    }

    #[test]
    fn post_and_read_influence() {
        let board = ShadowBoard::new();
        board.post(CallId(1), vec![(cell(0), 3.0), (cell(1), 1.5)]);
        assert_eq!(board.influence_on(cell(0)), 3.0);
        assert_eq!(board.influence_on(cell(1)), 1.5);
        assert_eq!(board.influence_on(cell(2)), 0.0);
        assert_eq!(board.active_calls(), 1);
    }

    #[test]
    fn retract_restores_zero() {
        let board = ShadowBoard::new();
        board.post(CallId(1), vec![(cell(0), 3.0)]);
        board.post(CallId(2), vec![(cell(0), 2.0)]);
        board.retract(CallId(1));
        assert!((board.influence_on(cell(0)) - 2.0).abs() < 1e-12);
        board.retract(CallId(2));
        assert_eq!(board.influence_on(cell(0)), 0.0);
        assert_eq!(board.active_calls(), 0);
    }

    #[test]
    fn repost_replaces_previous_contribution() {
        let board = ShadowBoard::new();
        board.post(CallId(1), vec![(cell(0), 3.0)]);
        // After a handoff the same call projects elsewhere.
        board.post(CallId(1), vec![(cell(1), 2.0)]);
        assert_eq!(board.influence_on(cell(0)), 0.0);
        assert_eq!(board.influence_on(cell(1)), 2.0);
        assert_eq!(board.active_calls(), 1);
    }

    #[test]
    fn retract_unknown_is_harmless() {
        let board = ShadowBoard::new();
        board.retract(CallId(99));
        assert_eq!(board.influence_on(cell(0)), 0.0);
    }

    #[test]
    fn message_count_tracks_traffic() {
        let board = ShadowBoard::new();
        board.post(CallId(1), vec![(cell(0), 1.0), (cell(1), 1.0)]); // 2 messages
        board.post(CallId(1), vec![(cell(2), 1.0)]); // 2 retract + 1 post
        board.retract(CallId(1)); // 1 retract
        assert_eq!(board.message_count(), 6);
    }

    #[test]
    fn board_is_shared_across_clones() {
        let board = ShadowBoard::new();
        let clone = board.clone();
        board.post(CallId(1), vec![(cell(0), 5.0)]);
        assert_eq!(clone.influence_on(cell(0)), 5.0);
    }

    #[test]
    fn board_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShadowBoard>();
    }
}
