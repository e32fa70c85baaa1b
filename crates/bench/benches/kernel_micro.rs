//! Micro-benchmark for the kernel's event queue: the calendar
//! [`EngineQueue`] vs the `BinaryHeap` it replaced.
//!
//! The workload mirrors the simulator's: call-end events spread
//! over a few hundred movement epochs (ring hits) with a tail of
//! far-future events (overflow hits), drained epoch-by-epoch through
//! `pop_within` exactly as the shard loop does. The reference heap pops
//! the same content-defined order, so the two routines do identical
//! logical work.
//!
//! `cargo bench -p facs-bench --bench kernel_micro` to measure;
//! `cargo bench -p facs-bench --bench kernel_micro -- --test` (CI) runs
//! every routine once as a smoke test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use facs_cellsim::{EngineEvent, EngineQueue, SimDuration, SimRng, SimTime, UserId};

/// Movement cadence the queue is bucketed at (the kernel default).
const EPOCH_US: u64 = 5_000_000;

/// One synthetic schedule: `(time, user, generation)` triples covering
/// the current bucket (incursion path), the ring, and the overflow
/// horizon, with same-instant ties sprinkled in.
fn schedule(events: usize) -> Vec<(SimTime, u64, u32)> {
    let mut rng = SimRng::seed_from_u64(0x6b65_726e);
    let horizon_s = 600.0; // ~120 epochs in the ring
    (0..events)
        .map(|i| {
            let secs = if rng.chance(0.02) {
                // Far future: past MAX_RING epochs, lands in overflow.
                horizon_s + 30_000.0 + rng.uniform_range(0.0, 5_000.0)
            } else if rng.chance(0.1) {
                // Same-instant tie on an epoch boundary.
                (rng.uniform_range(0.0, horizon_s) / 5.0).floor() * 5.0
            } else {
                rng.uniform_range(0.0, horizon_s)
            };
            (SimTime::from_secs_f64(secs), i as u64, (i % 3) as u32)
        })
        .collect()
}

fn drain_calendar(entries: &[(SimTime, u64, u32)]) -> u64 {
    let mut q = EngineQueue::with_epoch(SimDuration::from_micros(EPOCH_US));
    for &(time, user, generation) in entries {
        q.schedule(time, EngineEvent::CallEnd { user: UserId(user), generation });
    }
    // Drain epoch by epoch, the shard loop's access pattern.
    let mut popped = 0u64;
    let mut epoch = 1u64;
    while !q.is_empty() {
        let limit = SimTime::from_micros(epoch * EPOCH_US);
        while let Some((_, EngineEvent::CallEnd { user, .. }, _)) = q.pop_within(limit) {
            popped = popped.wrapping_add(user.0);
        }
        epoch += 1;
    }
    popped
}

fn drain_heap(entries: &[(SimTime, u64, u32)]) -> u64 {
    // The pre-calendar representation: one BinaryHeap ordered by the
    // same content key (time, rank, user, generation).
    let mut q: BinaryHeap<Reverse<(SimTime, u8, u64, u32)>> = BinaryHeap::new();
    for &(time, user, generation) in entries {
        q.push(Reverse((time, 0, user, generation)));
    }
    let mut popped = 0u64;
    let mut epoch = 1u64;
    while !q.is_empty() {
        let limit = SimTime::from_micros(epoch * EPOCH_US);
        while q.peek().is_some_and(|Reverse((t, ..))| *t <= limit) {
            let Reverse((_, _, user, _)) = q.pop().expect("peeked entry vanished");
            popped = popped.wrapping_add(user);
        }
        epoch += 1;
    }
    popped
}

fn bench_kernel_micro(c: &mut Criterion) {
    let events = if criterion::test_mode() { 10_000 } else { 100_000 };
    let entries = schedule(events);
    // Sanity: both queues must pop the identical multiset.
    assert_eq!(drain_calendar(&entries), drain_heap(&entries));

    c.bench_function("engine_queue_calendar_100k", |b| {
        b.iter(|| drain_calendar(black_box(&entries)))
    });
    c.bench_function("engine_queue_binary_heap_100k", |b| {
        b.iter(|| drain_heap(black_box(&entries)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_kernel_micro
}
criterion_main!(benches);
