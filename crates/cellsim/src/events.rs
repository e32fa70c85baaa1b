//! The kernel's deterministic event queue.
//!
//! [`EngineQueue`] orders events by their contents, never by insertion
//! order, so runs are bit-reproducible however events are partitioned
//! across shard queues.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

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

/// Ring capacity of the calendar: buckets more than this many epochs
/// past the drain point spill into the overflow heap and are migrated
/// back as the calendar advances. 4096 five-second epochs ≈ 5.7 hours
/// of lookahead before any event ever touches the heap.
const MAX_RING: usize = 4096;

/// Default bucket width when none is given: the kernel's default
/// movement cadence (5 s), so `EngineQueue::new()` behaves sensibly
/// even when the caller never names an epoch.
const DEFAULT_WIDTH_US: u64 = 5_000_000;

/// A per-shard **calendar queue** over [`EngineEvent`]s whose pop order
/// depends only on event contents — never on insertion order — so every
/// cell sees the same event sequence regardless of how cells are
/// grouped into shards.
///
/// Events land in buckets one epoch (movement tick) wide: bucket `b`
/// holds times in `((b-1)·w, b·w]`, exactly the half-open range an
/// epoch's `run_events` drains. Scheduling is an O(1) `Vec` push for
/// anything inside the ring horizon; a bucket is sorted **once**, when
/// it becomes current, and then drained by a cursor. Events scheduled
/// *into the bucket currently draining* (same-epoch call-ends of
/// same-epoch arrivals) go to a small incursion heap that is merged
/// with the sorted remainder on every pop, which preserves the exact
/// total order a `BinaryHeap` would have produced. Events past the ring
/// horizon fall back to an overflow heap and migrate into buckets as
/// the calendar reaches them.
#[derive(Debug)]
pub struct EngineQueue {
    /// Bucket width in microseconds (≥ 1).
    width_us: u64,
    /// Index of the bucket currently draining through `cur`.
    cur_bucket: u64,
    /// The current bucket, sorted ascending by content key; entries
    /// before `cur_idx` are already popped.
    cur: Vec<EngineEntry>,
    cur_idx: usize,
    /// Entries scheduled into bucket `cur_bucket` (or earlier) after it
    /// was sorted; merged with `cur` on pop.
    incursions: BinaryHeap<EngineEntry>,
    /// Future buckets: `ring[i]` is bucket `cur_bucket + 1 + i`,
    /// unsorted (sorted lazily when it becomes current).
    ring: VecDeque<Vec<EngineEntry>>,
    /// Entries beyond the ring horizon, min-first.
    overflow: BinaryHeap<EngineEntry>,
    len: usize,
}

impl Default for EngineQueue {
    fn default() -> Self {
        Self::with_epoch(SimDuration::from_micros(DEFAULT_WIDTH_US))
    }
}

impl EngineQueue {
    /// Creates an empty queue with the default (5 s) bucket width.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue bucketed at `epoch` — callers should pass
    /// the movement cadence so each epoch's drain range maps onto
    /// exactly one bucket.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` rounds to zero microseconds.
    #[must_use]
    pub fn with_epoch(epoch: SimDuration) -> Self {
        assert!(epoch.as_micros() > 0, "calendar bucket width rounds to zero");
        Self {
            width_us: epoch.as_micros(),
            cur_bucket: 0,
            cur: Vec::new(),
            cur_idx: 0,
            incursions: BinaryHeap::new(),
            ring: VecDeque::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// The bucket holding instant `t`: bucket `b` covers `((b-1)·w, b·w]`
    /// so that epoch `e`'s drain limit `e·w` closes bucket `e` exactly.
    fn bucket_of(&self, time: SimTime) -> u64 {
        time.as_micros().div_ceil(self.width_us)
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: EngineEvent) {
        self.schedule_tagged(time, event, 0);
    }

    /// Schedules `event` at `time` carrying an opaque `tag` the caller
    /// gets back on pop (the kernel stores arena slots here). Tags do
    /// not participate in ordering.
    pub fn schedule_tagged(&mut self, time: SimTime, event: EngineEvent, tag: u32) {
        let entry = EngineEntry { time, event, tag };
        let bucket = self.bucket_of(time);
        self.len += 1;
        if bucket <= self.cur_bucket {
            // Into (or before) the bucket being drained: competes with
            // its sorted remainder via the incursion heap.
            self.incursions.push(entry);
        } else {
            let offset = (bucket - self.cur_bucket - 1) as usize;
            if offset < MAX_RING {
                if offset >= self.ring.len() {
                    self.ring.resize_with(offset + 1, Vec::new);
                }
                self.ring[offset].push(entry);
            } else {
                self.overflow.push(entry);
            }
        }
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EngineEvent)> {
        self.pop_within(SimTime::from_micros(u64::MAX)).map(|(t, e, _)| (t, e))
    }

    /// Pops the earliest event with `time <= limit`, if any — the
    /// epoch-drain primitive. Events beyond `limit` are left untouched
    /// (buckets beyond the limit are not even sorted).
    pub fn pop_within(&mut self, limit: SimTime) -> Option<(SimTime, EngineEvent, u32)> {
        loop {
            let cur_next = self.cur.get(self.cur_idx).copied();
            let inc_next = self.incursions.peek().copied();
            let entry = match (cur_next, inc_next) {
                (None, None) => {
                    if !self.advance(limit) {
                        return None;
                    }
                    continue;
                }
                (Some(c), None) => {
                    if c.time > limit {
                        return None;
                    }
                    self.cur_idx += 1;
                    c
                }
                (None, Some(i)) => {
                    if i.time > limit {
                        return None;
                    }
                    self.incursions.pop();
                    i
                }
                (Some(c), Some(i)) => {
                    let next = if i.sort_key() < c.sort_key() { i } else { c };
                    if next.time > limit {
                        return None;
                    }
                    if i.sort_key() < c.sort_key() {
                        self.incursions.pop();
                    } else {
                        self.cur_idx += 1;
                    }
                    next
                }
            };
            self.len -= 1;
            return Some((entry.time, entry.event, entry.tag));
        }
    }

    /// Makes the next bucket that could hold an event `<= limit`
    /// current (migrating any overflow entries it owns), or returns
    /// `false` when there is none. Only called with `cur` exhausted and
    /// `incursions` empty.
    fn advance(&mut self, limit: SimTime) -> bool {
        loop {
            let next_bucket = if self.ring.is_empty() {
                // Ring drained: jump straight to the overflow's first
                // bucket (every bucket in between is provably empty).
                match self.overflow.peek() {
                    Some(top) => self.bucket_of(top.time).max(self.cur_bucket + 1),
                    None => return false,
                }
            } else {
                self.cur_bucket + 1
            };
            // Bucket b's content is strictly later than (b-1)·w: stop —
            // without consuming anything — once no content can be due.
            if SimTime::from_micros((next_bucket - 1).saturating_mul(self.width_us)) >= limit {
                return false;
            }
            let mut bucket = self.ring.pop_front().unwrap_or_default();
            self.cur_bucket = next_bucket;
            // Overflow entries now inside the advancing window belong to
            // this bucket (schedule() never files new ones this close).
            while let Some(top) = self.overflow.peek() {
                if self.bucket_of(top.time) <= next_bucket {
                    let top = self.overflow.pop().expect("peeked overflow entry vanished");
                    bucket.push(top);
                } else {
                    break;
                }
            }
            if bucket.is_empty() {
                continue;
            }
            bucket.sort_unstable_by_key(EngineEntry::sort_key);
            self.cur = bucket;
            self.cur_idx = 0;
            return true;
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    fn engine_queue_mid_drain_insert_competes_with_current_bucket() {
        // Schedule into the bucket currently draining: the incursion
        // must pop in content order against the sorted remainder, exactly
        // as a heap would have interleaved it.
        let mut q = EngineQueue::with_epoch(SimDuration::from_secs_f64(5.0));
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
    fn engine_queue_far_future_overflow_pops_in_order() {
        let mut q = EngineQueue::with_epoch(SimDuration::from_secs_f64(5.0));
        // Far beyond the ring horizon (4096 × 5 s): overflow heap.
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
        let mut q = EngineQueue::with_epoch(SimDuration::from_secs_f64(5.0));
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
        let mut q = EngineQueue::with_epoch(SimDuration::from_secs_f64(5.0));
        q.schedule_tagged(t(2.0), end(7, 0), 42);
        q.schedule_tagged(t(1.0), end(9, 1), 7);
        let (_, _, tag) = q.pop_within(t(10.0)).unwrap();
        assert_eq!(tag, 7);
        let (_, _, tag) = q.pop_within(t(10.0)).unwrap();
        assert_eq!(tag, 42);
    }
}
