//! A controller decorator that counts and times every
//! [`AdmissionController`] call from outside the kernel.
//!
//! Each decorator keeps plain per-cell counters (no atomics on the hot
//! path) and folds them into a shared [`LayerTotals`] when the
//! simulation drops it at the end of the run. Only every
//! [`SAMPLE_EVERY`]-th call of each method reads the clock, so a cheap
//! hook such as a no-op `observe` is not drowned by two clock reads;
//! self time is the sampled time scaled up to all calls.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, BoxedController, CallId,
    CallKind, CallRequest, CellSnapshot, Decision, MobilityInfo, ServiceClass, ServiceProfile,
};

/// One call in this many is timed (a power of two).
pub const SAMPLE_EVERY: u64 = 16;

/// Calls, sampled calls and their summed time for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    pub calls: u64,
    pub timed: u64,
    pub nanos: u64,
}

impl Span {
    fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.nanos += other.nanos;
    }

    /// Estimated time spent in the method over all calls, net of the
    /// clock's own cost `clock_ns` per timed call.
    pub fn self_s(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let net = (self.nanos as f64 - clock_ns * self.timed as f64).max(0.0);
        net * self.calls as f64 / self.timed as f64 * 1e-9
    }
}

/// What every decorator of one run adds up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub decide: Span,
    pub fast_reject: Span,
    pub observe: Span,
    pub on_admitted: Span,
    pub on_released: Span,
    pub fast_reject_hits: u64,
    pub admits: u64,
    pub rejects: u64,
    pub degraded: u64,
    /// Decorators folded in (one per cell).
    pub cells: u64,
}

impl LayerTotals {
    fn add(&mut self, other: &LayerTotals) {
        self.decide.add(&other.decide);
        self.fast_reject.add(&other.fast_reject);
        self.observe.add(&other.observe);
        self.on_admitted.add(&other.on_admitted);
        self.on_released.add(&other.on_released);
        self.fast_reject_hits += other.fast_reject_hits;
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.degraded += other.degraded;
        self.cells += other.cells;
    }

    /// The counts alone, which must repeat exactly between runs.
    pub fn counts(&self) -> [u64; 10] {
        [
            self.decide.calls,
            self.fast_reject.calls,
            self.observe.calls,
            self.on_admitted.calls,
            self.on_released.calls,
            self.fast_reject_hits,
            self.admits,
            self.rejects,
            self.degraded,
            self.cells,
        ]
    }
}

/// Wraps one cell's controller; forwards every trait method unchanged.
pub struct Traced {
    inner: BoxedController,
    local: LayerTotals,
    // `fast_reject` takes `&self`, so its counters need interior
    // mutability; `Cell` keeps the decorator `Send` like the trait asks.
    fast_reject: Cell<Span>,
    fast_reject_hits: Cell<u64>,
    sink: Arc<Mutex<LayerTotals>>,
}

impl Traced {
    pub fn new(inner: BoxedController, sink: Arc<Mutex<LayerTotals>>) -> Self {
        Self {
            inner,
            local: LayerTotals { cells: 1, ..LayerTotals::default() },
            fast_reject: Cell::new(Span::default()),
            fast_reject_hits: Cell::new(0),
            sink,
        }
    }
}

/// Runs `f`, counting it in `span` and timing it when the call is due.
#[inline(always)]
fn measured<R>(span: &mut Span, f: impl FnOnce() -> R) -> R {
    let due = span.calls % SAMPLE_EVERY == 0;
    span.calls += 1;
    if due {
        let start = Instant::now();
        let out = f();
        span.nanos += start.elapsed().as_nanos() as u64;
        span.timed += 1;
        out
    } else {
        f()
    }
}

impl AdmissionController for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        let inner = &mut self.inner;
        let plan = measured(&mut self.local.decide, || inner.decide(request, cell));
        if plan.admits() {
            self.local.admits += 1;
            if plan.is_degraded() {
                self.local.degraded += 1;
            }
        } else {
            self.local.rejects += 1;
        }
        plan
    }

    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        let mut span = self.fast_reject.get();
        let hit = measured(&mut span, || self.inner.fast_reject(profile, cell));
        self.fast_reject.set(span);
        if hit {
            self.fast_reject_hits.set(self.fast_reject_hits.get() + 1);
        }
        hit
    }

    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        let inner = &mut self.inner;
        measured(&mut self.local.observe, || inner.observe(now_s, cell));
    }

    fn on_admitted(&mut self, request: &CallRequest, cell: &CellSnapshot) {
        let inner = &mut self.inner;
        measured(&mut self.local.on_admitted, || inner.on_admitted(request, cell));
    }

    fn on_released(&mut self, call: CallId, class: ServiceClass, cell: &CellSnapshot) {
        let inner = &mut self.inner;
        measured(&mut self.local.on_released, || inner.on_released(call, class, cell));
    }

    fn is_cell_local(&self) -> bool {
        self.inner.is_cell_local()
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        self.local.fast_reject = self.fast_reject.get();
        self.local.fast_reject_hits = self.fast_reject_hits.get();
        // A poisoned lock means another decorator panicked mid-fold; the
        // run is already failing, and `Drop` must not panic on top.
        if let Ok(mut totals) = self.sink.lock() {
            totals.add(&self.local);
        }
    }
}

/// The median cost of one `Instant::now()` pair, in nanoseconds: what
/// each timed call adds on top of the method itself.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(start).elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Records which trait methods reached it, with the arguments that
/// identify the call, and answers differently from any FACS controller
/// so a decorator that answered for it would show.
struct Probe {
    log: Arc<Mutex<Vec<String>>>,
}

impl Probe {
    fn note(&self, entry: String) {
        self.log.lock().expect("probe log poisoned").push(entry);
    }
}

impl AdmissionController for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn decide(&mut self, request: &CallRequest, _cell: &BandwidthLedger) -> AdmissionPlan {
        self.note(format!("decide {}", request.id.0));
        AdmissionPlan::AdmitDegraded {
            decision: Decision::binary(true),
            squeezes: Vec::new(),
            grant: BandwidthUnits::new(3),
        }
    }
    fn fast_reject(&self, profile: &ServiceProfile, _cell: &BandwidthLedger) -> bool {
        self.note(format!("fast_reject {:?}", profile.class));
        true
    }
    fn observe(&mut self, now_s: f64, _cell: &BandwidthLedger) {
        self.note(format!("observe {now_s}"));
    }
    fn on_admitted(&mut self, request: &CallRequest, _cell: &CellSnapshot) {
        self.note(format!("on_admitted {}", request.id.0));
    }
    fn on_released(&mut self, call: CallId, class: ServiceClass, _cell: &CellSnapshot) {
        self.note(format!("on_released {} {class:?}", call.0));
    }
    fn is_cell_local(&self) -> bool {
        false
    }
}

/// Drives every trait method once through a [`Traced`] probe and checks
/// that each reached the inner controller, returned its answer, and was
/// counted once.
pub fn check_forwarding() -> Result<(), String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let totals = Arc::new(Mutex::new(LayerTotals::default()));
    let mut traced = Traced::new(Box::new(Probe { log: Arc::clone(&log) }), Arc::clone(&totals));
    let cell = BandwidthLedger::new(BandwidthUnits::new(40));
    let request =
        CallRequest::new(CallId(7), ServiceClass::Voice, CallKind::New, MobilityInfo::stationary());

    let answers = [
        traced.name() == "probe",
        !traced.is_cell_local(),
        traced.decide(&request, &cell).is_degraded(),
        traced.fast_reject(&request.profile, &cell),
    ];
    traced.observe(5.0, &cell);
    traced.on_admitted(&request, &cell.snapshot());
    traced.on_released(CallId(7), ServiceClass::Voice, &cell.snapshot());
    drop(traced);

    if answers.contains(&false) {
        return Err(format!("decorator changed an answer: {answers:?}"));
    }
    let log = log.lock().expect("probe log poisoned").clone();
    let expected =
        ["decide 7", "fast_reject Voice", "observe 5", "on_admitted 7", "on_released 7 Voice"];
    if log != expected {
        return Err(format!("decorator forwarded {log:?}, expected {expected:?}"));
    }
    let counts = totals.lock().expect("totals poisoned").counts();
    if counts != [1, 1, 1, 1, 1, 1, 1, 0, 1, 1] {
        return Err(format!("decorator counted {counts:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_every_method_and_counts_it() {
        assert_eq!(check_forwarding(), Ok(()));
    }

    #[test]
    fn self_time_scales_sampled_time_to_all_calls() {
        let span = Span { calls: 160, timed: 10, nanos: 1_000 };
        assert!((span.self_s(0.0) - 16_000e-9).abs() < 1e-15);
        assert!((span.self_s(50.0) - 8_000e-9).abs() < 1e-15);
        assert_eq!(Span::default().self_s(20.0), 0.0);
    }
}
