//! The kernel's deterministic event queue.
//!
//! [`EngineQueue`] orders events by their contents, never by insertion
//! order, so runs are bit-reproducible however events are partitioned
//! across shard queues.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// Identifier of a mobile terminal within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// The queued events of the sharded epoch kernel ([`crate::engine`]).
/// Arrivals never enter the queue: each shard dispatches them from a
/// FIFO, after every call-end due at the same instant.
///
/// An `EngineEvent` carries everything needed for a **shard-independent**
/// total order: at equal timestamps, events sort by user id, then by
/// handoff generation. Any partition of the event set across shard
/// queues therefore preserves each cell's event sequence exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// An admitted call's holding time expires. `generation` counts the
    /// call's handoffs so far; an event whose generation no longer
    /// matches the user's current registration is stale (the call moved
    /// to another cell or shard after this event was scheduled) and is
    /// ignored on dispatch.
    CallEnd {
        /// The user holding the finishing call.
        user: UserId,
        /// Handoff generation at scheduling time.
        generation: u32,
    },
}

impl EngineEvent {
    /// The shard-independent tie-break key `(user, generation)`.
    #[must_use]
    const fn key(self) -> (u64, u32) {
        let EngineEvent::CallEnd { user, generation } = self;
        (user.0, generation)
    }
}

#[derive(Debug, Clone, Copy)]
struct EngineEntry {
    time: SimTime,
    event: EngineEvent,
    /// Caller-private payload (an arena slot in the kernel), **excluded
    /// from the ordering key**: two live entries never share a full
    /// `(time, key)` — events are keyed by user id and generation — so
    /// the tag can never influence pop order.
    tag: u32,
}

impl EngineEntry {
    /// The full content-defined sort key.
    fn sort_key(&self) -> (SimTime, (u64, u32)) {
        (self.time, self.event.key())
    }
}

impl PartialEq for EngineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}

impl Eq for EngineEntry {}

impl PartialOrd for EngineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EngineEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inversion: the smallest (time, key) pops first.
        other.sort_key().cmp(&self.sort_key())
    }
}

/// A per-shard queue of [`EngineEvent`]s whose pop order depends only
/// on event contents — never on insertion order — so every cell sees the
/// same event sequence regardless of how cells are grouped into shards.
///
/// It holds call-ends only, at most one live entry per in-call user, so
/// its depth is the carried load: a few thousand entries per shard at
/// the heaviest benchmark load. A binary heap keyed by `(time, user,
/// generation)` serves that depth with one O(log n) push and pop per
/// call-end.
#[derive(Debug, Default)]
pub struct EngineQueue {
    heap: BinaryHeap<EngineEntry>,
}

impl EngineQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: EngineEvent) {
        self.schedule_tagged(time, event, 0);
    }

    /// Schedules `event` at `time` carrying an opaque `tag` the caller
    /// gets back on pop (the kernel stores arena slots here). Tags do
    /// not participate in ordering.
    pub fn schedule_tagged(&mut self, time: SimTime, event: EngineEvent, tag: u32) {
        self.heap.push(EngineEntry { time, event, tag });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EngineEvent)> {
        self.pop_within(SimTime::from_micros(u64::MAX)).map(|(t, e, _)| (t, e))
    }

    /// Pops the earliest event with `time <= limit`, if any — the
    /// epoch-drain primitive. Events beyond `limit` are left untouched.
    pub fn pop_within(&mut self, limit: SimTime) -> Option<(SimTime, EngineEvent, u32)> {
        let top = self.heap.peek_mut()?;
        if top.time > limit {
            return None;
        }
        let entry = PeekMut::pop(top);
        Some((entry.time, entry.event, entry.tag))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn end(user: u64, generation: u32) -> EngineEvent {
        EngineEvent::CallEnd { user: UserId(user), generation }
    }

    #[test]
    fn engine_queue_order_is_insertion_independent() {
        let events = [
            (t(2.0), end(3, 0)),
            (t(1.0), end(9, 1)),
            (t(1.0), end(1, 4)),
            (t(1.0), end(2, 0)),
            (t(1.0), end(2, 2)),
        ];
        // Schedule in two different orders; pops must agree.
        let drain = |order: &[usize]| {
            let mut q = EngineQueue::new();
            for &i in order {
                q.schedule(events[i].0, events[i].1);
            }
            std::iter::from_fn(move || q.pop()).collect::<Vec<_>>()
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 2, 0, 3, 1]);
        assert_eq!(a, b);
        // At t=1: by user, then by generation.
        let order: Vec<EngineEvent> = a.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![end(1, 4), end(2, 0), end(2, 2), end(9, 1), end(3, 0)]);
    }

    #[test]
    fn engine_queue_mid_drain_insert_pops_in_content_order() {
        // An event scheduled mid-drain pops in content order between the
        // event already popped and the remainder.
        let mut q = EngineQueue::new();
        q.schedule(t(1.0), end(0, 0));
        q.schedule(t(4.0), end(1, 0));
        let first = q.pop().unwrap();
        assert_eq!(first.0, t(1.0));
        // Mid-drain: lands between the popped event and the remainder.
        q.schedule(t(2.0), end(2, 1));
        assert_eq!(q.pop().unwrap().0, t(2.0));
        assert_eq!(q.pop().unwrap().0, t(4.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn engine_queue_far_future_events_pop_in_order() {
        let mut q = EngineQueue::new();
        // Tens of hours ahead of the nearest event.
        let far = t(5.0 * 10_000.0);
        let farther = t(5.0 * 12_000.0);
        q.schedule(farther, end(2, 0));
        q.schedule(far, end(1, 3));
        q.schedule(t(1.0), end(0, 1));
        assert_eq!(q.len(), 3);
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(tm, _)| tm).collect();
        assert_eq!(order, vec![t(1.0), far, farther]);
        assert!(q.is_empty());
    }

    #[test]
    fn engine_queue_pop_within_respects_the_limit() {
        let mut q = EngineQueue::new();
        q.schedule(t(3.0), end(0, 0));
        q.schedule(t(5.0), end(1, 1));
        q.schedule(t(5.1), end(2, 2));
        // Epoch 1 drains (0, 5]: the boundary event is included, the
        // next epoch's is not.
        assert_eq!(q.pop_within(t(5.0)).unwrap().0, t(3.0));
        assert_eq!(q.pop_within(t(5.0)).unwrap().0, t(5.0));
        assert_eq!(q.pop_within(t(5.0)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_within(t(10.0)).unwrap().0, t(5.1));
    }

    #[test]
    fn engine_queue_tags_ride_along_without_affecting_order() {
        let mut q = EngineQueue::new();
        q.schedule_tagged(t(2.0), end(7, 0), 42);
        q.schedule_tagged(t(1.0), end(9, 1), 7);
        let (_, _, tag) = q.pop_within(t(10.0)).unwrap();
        assert_eq!(tag, 7);
        let (_, _, tag) = q.pop_within(t(10.0)).unwrap();
        assert_eq!(tag, 42);
    }
}
