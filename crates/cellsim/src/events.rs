//! The kernel's deterministic event queue.
//!
//! [`EngineQueue`] orders entries by their contents, never by insertion
//! order, so runs are bit-reproducible however entries are partitioned
//! across shard queues.

use std::cmp::Reverse;
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

/// One timed entry of an [`EngineQueue`]: something due for `user`'s
/// call at `time`. `generation` counts the call's handoffs so far, so an
/// entry scheduled before a handoff can be told from one after it.
///
/// Entries order by `(time, user, generation)`, a **shard-independent**
/// total order: any partition of the entries across shard queues
/// preserves each cell's event sequence exactly. `tag` sorts last, but
/// two entries of one queue never share `(time, user, generation)`, so
/// it never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueueEntry {
    /// When the entry is due.
    pub time: SimTime,
    /// The user whose call it concerns.
    pub user: UserId,
    /// The call's handoff generation at scheduling time.
    pub generation: u32,
    /// Caller-private payload, returned on pop (the kernel stores arena
    /// slots here).
    pub tag: u32,
}

/// A per-shard queue of [`QueueEntry`]s whose pop order depends only
/// on entry contents — never on insertion order — so every cell sees the
/// same event sequence regardless of how cells are grouped into shards.
///
/// A shard keeps two: its call-ends, and its in-call users' movement
/// wakes. Arrivals never enter a queue: each shard dispatches them from
/// a FIFO, after every call-end due at the same instant. The wake
/// queue holds at most one entry per in-call user, the call-end queue
/// one live entry per in-call user plus the stale ones of calls that
/// handed off, so both depths follow the carried load: a few thousand
/// entries per shard at the heaviest benchmark load. A binary heap
/// keyed by `(time, user, generation)` serves that depth with one
/// O(log n) push and pop per entry.
#[derive(Debug, Default)]
pub struct EngineQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
}

impl EngineQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `entry` at its `time`.
    pub fn schedule(&mut self, entry: QueueEntry) {
        self.heap.push(Reverse(entry));
    }

    /// Pops the earliest entry with `time <= limit`, if any — the
    /// epoch-drain primitive. Entries beyond `limit` are left untouched.
    pub fn pop_within(&mut self, limit: SimTime) -> Option<QueueEntry> {
        let top = self.heap.peek_mut()?;
        if top.0.time > limit {
            return None;
        }
        Some(PeekMut::pop(top).0)
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
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

    fn entry(time: SimTime, user: u64, generation: u32) -> QueueEntry {
        QueueEntry { time, user: UserId(user), generation, tag: 0 }
    }

    /// Pops the earliest entry, whatever its time.
    fn pop(q: &mut EngineQueue) -> Option<QueueEntry> {
        q.pop_within(SimTime::from_micros(u64::MAX))
    }

    #[test]
    fn engine_queue_order_is_insertion_independent() {
        let entries = [
            entry(t(2.0), 3, 0),
            entry(t(1.0), 9, 1),
            entry(t(1.0), 1, 4),
            entry(t(1.0), 2, 0),
            entry(t(1.0), 2, 2),
        ];
        // Schedule in two different orders; pops must agree.
        let drain = |order: &[usize]| {
            let mut q = EngineQueue::new();
            for &i in order {
                q.schedule(entries[i]);
            }
            std::iter::from_fn(move || pop(&mut q)).collect::<Vec<_>>()
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 2, 0, 3, 1]);
        assert_eq!(a, b);
        // At t=1: by user, then by generation.
        assert_eq!(a, [entries[2], entries[3], entries[4], entries[1], entries[0]]);
    }

    #[test]
    fn engine_queue_mid_drain_insert_pops_in_content_order() {
        // An entry scheduled mid-drain pops in content order between the
        // entry already popped and the remainder.
        let mut q = EngineQueue::new();
        q.schedule(entry(t(1.0), 0, 0));
        q.schedule(entry(t(4.0), 1, 0));
        assert_eq!(pop(&mut q).unwrap().time, t(1.0));
        // Mid-drain: lands between the popped entry and the remainder.
        q.schedule(entry(t(2.0), 2, 1));
        assert_eq!(pop(&mut q).unwrap().time, t(2.0));
        assert_eq!(pop(&mut q).unwrap().time, t(4.0));
        assert!(pop(&mut q).is_none());
    }

    #[test]
    fn engine_queue_far_future_events_pop_in_order() {
        let mut q = EngineQueue::new();
        // Tens of hours ahead of the nearest entry.
        let far = t(5.0 * 10_000.0);
        let farther = t(5.0 * 12_000.0);
        q.schedule(entry(farther, 2, 0));
        q.schedule(entry(far, 1, 3));
        q.schedule(entry(t(1.0), 0, 1));
        assert_eq!(q.len(), 3);
        let order: Vec<SimTime> = std::iter::from_fn(|| pop(&mut q)).map(|e| e.time).collect();
        assert_eq!(order, vec![t(1.0), far, farther]);
        assert!(q.is_empty());
    }

    #[test]
    fn engine_queue_pop_within_respects_the_limit() {
        let mut q = EngineQueue::new();
        q.schedule(entry(t(3.0), 0, 0));
        q.schedule(entry(t(5.0), 1, 1));
        q.schedule(entry(t(5.1), 2, 2));
        // Epoch 1 drains (0, 5]: the boundary entry is included, the
        // next epoch's is not.
        assert_eq!(q.pop_within(t(5.0)).unwrap().time, t(3.0));
        assert_eq!(q.pop_within(t(5.0)).unwrap().time, t(5.0));
        assert_eq!(q.pop_within(t(5.0)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_within(t(10.0)).unwrap().time, t(5.1));
    }

    #[test]
    fn engine_queue_tags_ride_along_without_affecting_order() {
        let mut q = EngineQueue::new();
        q.schedule(QueueEntry { tag: 42, ..entry(t(2.0), 7, 0) });
        q.schedule(QueueEntry { tag: 7, ..entry(t(1.0), 9, 1) });
        assert_eq!(q.pop_within(t(10.0)).unwrap().tag, 7);
        assert_eq!(q.pop_within(t(10.0)).unwrap().tag, 42);
    }
}
