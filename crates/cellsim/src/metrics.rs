//! Simulation metrics: the counters behind every figure of the paper,
//! and the streaming [`MetricsSink`] interface the sharded kernel feeds.
//!
//! The engine does not know what it is measuring: every observable event
//! (admission decision, completion, coverage exit, movement barrier, epoch
//! occupancy sample, final per-cell utilization integral) is pushed into
//! a [`MetricsSink`]. [`Metrics`] — the paper's counters — is one sink;
//! [`CellLoadSeries`] records a per-cell occupancy time series; a tuple
//! of sinks fans one run out to both.

use std::collections::BTreeMap;

use facs_cac::{BandwidthUnits, CallKind, CellId, ServiceClass, ServiceProfile};
use serde::{Deserialize, Serialize};

use crate::events::UserId;
use crate::time::SimTime;

/// Everything the engine knows about one admission decision, handed to
/// [`MetricsSink::on_decision`] as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The requesting user.
    pub user: UserId,
    /// Service class of the request.
    pub class: ServiceClass,
    /// New call or handoff.
    pub kind: CallKind,
    /// Whether the call was admitted (at any allocation).
    pub admitted: bool,
    /// Bandwidth actually granted (zero when denied).
    pub allocated: BandwidthUnits,
    /// The profile's nominal bandwidth.
    pub nominal: BandwidthUnits,
    /// The profile's QoS floor.
    pub floor: BandwidthUnits,
}

impl DecisionRecord {
    /// A denial of `user`'s request: nothing allocated.
    #[must_use]
    pub fn denied(user: UserId, profile: ServiceProfile, kind: CallKind) -> Self {
        Self {
            user,
            class: profile.class,
            kind,
            admitted: false,
            allocated: BandwidthUnits::ZERO,
            nominal: profile.rb_cost_nominal,
            floor: profile.rb_cost_min,
        }
    }

    /// An admission of `user`'s request at `allocated` BU.
    #[must_use]
    pub fn admitted(
        user: UserId,
        profile: ServiceProfile,
        kind: CallKind,
        allocated: BandwidthUnits,
    ) -> Self {
        Self {
            user,
            class: profile.class,
            kind,
            admitted: true,
            allocated,
            nominal: profile.rb_cost_nominal,
            floor: profile.rb_cost_min,
        }
    }

    /// True when the call was admitted below its nominal bandwidth.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.admitted && self.allocated < self.nominal
    }
}

/// A streaming observer of simulation events.
///
/// The sharded kernel creates one sink per shard with [`fork`](Self::fork)
/// and folds them back with [`absorb`](Self::absorb) **in shard-index
/// order** once the run ends, so integer counters are exact sums and any
/// floating-point state is combined in a deterministic order. Per-cell
/// hooks only ever fire on the shard that owns the cell, which makes each
/// cell's sub-stream identical regardless of how many shards ran.
///
/// All event hooks default to no-ops so special-purpose sinks implement
/// only what they observe.
pub trait MetricsSink: Send {
    /// A fresh, empty sink of the same kind, for one shard.
    #[must_use]
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Folds a shard's sink back into this one (called in shard order).
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;

    /// An admission decision (new call or handoff) was made at `cell`;
    /// the record carries the class, the granted allocation and the
    /// profile band it was granted within.
    fn on_decision(&mut self, now: SimTime, cell: CellId, record: &DecisionRecord) {
        let _ = (now, cell, record);
    }

    /// The ledger of `cell` changed `user`'s in-call allocation — a
    /// degradation squeeze making room for a handoff, or a re-upgrade
    /// after a release. `allocated` is the new grant; `floor` the
    /// profile's QoS floor it must never cross.
    fn on_reallocation(
        &mut self,
        now: SimTime,
        cell: CellId,
        user: UserId,
        allocated: BandwidthUnits,
        floor: BandwidthUnits,
    ) {
        let _ = (now, cell, user, allocated, floor);
    }

    /// `user`'s call completed its holding time at `cell`.
    fn on_completion(&mut self, now: SimTime, cell: CellId, user: UserId) {
        let _ = (now, cell, user);
    }

    /// `user`'s call ended because the terminal left the coverage area.
    fn on_exit(&mut self, now: SimTime, cell: CellId, user: UserId) {
        let _ = (now, cell, user);
    }

    /// The movement barrier at `now` stepped `steps` in-call users, one
    /// step each. A step counts at its barrier even where the kernel
    /// defers computing it to the user's wake (DESIGN.md, "Deferred
    /// movement steps").
    fn on_mobility_steps(&mut self, now: SimTime, steps: u64) {
        let _ = (now, steps);
    }

    /// Epoch-barrier occupancy sample of `cell`.
    fn on_cell_sample(&mut self, now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        let _ = (now, cell, occupied, capacity);
    }

    /// Final utilization integrals of `cell`, reported once per cell at
    /// the end of the run **in cell-id order** (after all shards merged).
    fn on_cell_utilization(&mut self, cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
        let _ = (cell, occupied_bu_s, capacity_bu_s);
    }
}

/// Runs two sinks side by side over one simulation.
impl<A: MetricsSink, B: MetricsSink> MetricsSink for (A, B) {
    fn fork(&self) -> Self {
        (self.0.fork(), self.1.fork())
    }

    fn absorb(&mut self, other: Self) {
        self.0.absorb(other.0);
        self.1.absorb(other.1);
    }

    fn on_decision(&mut self, now: SimTime, cell: CellId, record: &DecisionRecord) {
        self.0.on_decision(now, cell, record);
        self.1.on_decision(now, cell, record);
    }

    fn on_reallocation(
        &mut self,
        now: SimTime,
        cell: CellId,
        user: UserId,
        allocated: BandwidthUnits,
        floor: BandwidthUnits,
    ) {
        self.0.on_reallocation(now, cell, user, allocated, floor);
        self.1.on_reallocation(now, cell, user, allocated, floor);
    }

    fn on_completion(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.0.on_completion(now, cell, user);
        self.1.on_completion(now, cell, user);
    }

    fn on_exit(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.0.on_exit(now, cell, user);
        self.1.on_exit(now, cell, user);
    }

    fn on_mobility_steps(&mut self, now: SimTime, steps: u64) {
        self.0.on_mobility_steps(now, steps);
        self.1.on_mobility_steps(now, steps);
    }

    fn on_cell_sample(&mut self, now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        self.0.on_cell_sample(now, cell, occupied, capacity);
        self.1.on_cell_sample(now, cell, occupied, capacity);
    }

    fn on_cell_utilization(&mut self, cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
        self.0.on_cell_utilization(cell, occupied_bu_s, capacity_bu_s);
        self.1.on_cell_utilization(cell, occupied_bu_s, capacity_bu_s);
    }
}

/// Offered/accepted/denied counters for one service class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounters {
    /// Requests offered (new calls only).
    pub offered: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests denied.
    pub denied: u64,
}

impl ClassCounters {
    /// Acceptance percentage (100 when nothing was offered).
    #[must_use]
    pub fn acceptance_percentage(&self) -> f64 {
        if self.offered == 0 {
            100.0
        } else {
            100.0 * self.accepted as f64 / self.offered as f64
        }
    }
}

/// All counters collected over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// New-call requests offered.
    pub offered_new: u64,
    /// New-call requests admitted.
    pub accepted_new: u64,
    /// New-call requests denied (blocked).
    pub blocked_new: u64,
    /// Handoff attempts (boundary crossings with an active call).
    pub handoff_attempts: u64,
    /// Handoffs admitted by the target cell.
    pub handoff_accepted: u64,
    /// Handoffs denied — the call is dropped (the QoS failure users hate).
    pub handoff_dropped: u64,
    /// Calls that ran to completion.
    pub completed: u64,
    /// Calls ended by the terminal leaving the coverage area.
    pub exited_coverage: u64,
    /// Mobility steps of in-call users: one per in-call user per
    /// movement barrier, whether computed there or at the user's wake.
    pub mobility_steps: u64,
    /// Admissions granted below their nominal bandwidth (degraded entry).
    pub degraded_admissions: u64,
    /// In-call allocation changes applied by the ledgers (degradation
    /// squeezes plus post-release re-upgrades).
    pub reallocations: u64,
    /// Per-class new-call counters, indexed text/voice/video.
    pub per_class: [ClassCounters; 3],
    /// Sum of BU granted at admission time, across all admissions.
    allocated_bu_sum: u64,
    /// Sum of nominal BU over the same admissions.
    nominal_bu_sum: u64,
    /// Integral of (occupied BU · seconds) across all cells, for
    /// time-averaged utilization.
    utilization_bu_seconds: f64,
    /// Integral horizon (seconds · capacity) accumulated.
    capacity_bu_seconds: f64,
}

impl Metrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of an admission decision.
    pub fn record_decision(&mut self, class: ServiceClass, kind: CallKind, admitted: bool) {
        match kind {
            CallKind::New => {
                self.offered_new += 1;
                let c = &mut self.per_class[class.index()];
                c.offered += 1;
                if admitted {
                    self.accepted_new += 1;
                    c.accepted += 1;
                } else {
                    self.blocked_new += 1;
                    c.denied += 1;
                }
            }
            CallKind::Handoff => {
                self.handoff_attempts += 1;
                if admitted {
                    self.handoff_accepted += 1;
                } else {
                    self.handoff_dropped += 1;
                }
            }
        }
    }

    /// The paper's headline metric: percentage of accepted (new) calls.
    /// Returns 100 when nothing was offered.
    #[must_use]
    pub fn acceptance_percentage(&self) -> f64 {
        if self.offered_new == 0 {
            100.0
        } else {
            100.0 * self.accepted_new as f64 / self.offered_new as f64
        }
    }

    /// Percentage of handoff attempts that were dropped (0 when there were
    /// none).
    #[must_use]
    pub fn dropping_percentage(&self) -> f64 {
        if self.handoff_attempts == 0 {
            0.0
        } else {
            100.0 * self.handoff_dropped as f64 / self.handoff_attempts as f64
        }
    }

    /// Time-averaged occupancy fraction across cells in `[0, 1]`.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.capacity_bu_seconds <= 0.0 {
            0.0
        } else {
            self.utilization_bu_seconds / self.capacity_bu_seconds
        }
    }

    /// Mean allocated/nominal fraction at admission time in `(0, 1]`
    /// (1 when every call entered at nominal, or nothing was admitted).
    #[must_use]
    pub fn mean_allocation_fraction(&self) -> f64 {
        if self.nominal_bu_sum == 0 {
            1.0
        } else {
            self.allocated_bu_sum as f64 / self.nominal_bu_sum as f64
        }
    }

    /// Total kernel events behind this run: admission decisions (new +
    /// handoff), completions, coverage exits and mobility steps. The
    /// numerator of the benchmarks' events-per-second figure.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.offered_new
            + self.handoff_attempts
            + self.completed
            + self.exited_coverage
            + self.mobility_steps
    }

    /// Accumulates another run's counters into this one (used to
    /// aggregate replications; percentages are recomputed from the summed
    /// counters).
    pub fn merge(&mut self, other: &Metrics) {
        self.offered_new += other.offered_new;
        self.accepted_new += other.accepted_new;
        self.blocked_new += other.blocked_new;
        self.handoff_attempts += other.handoff_attempts;
        self.handoff_accepted += other.handoff_accepted;
        self.handoff_dropped += other.handoff_dropped;
        self.completed += other.completed;
        self.exited_coverage += other.exited_coverage;
        self.mobility_steps += other.mobility_steps;
        self.degraded_admissions += other.degraded_admissions;
        self.reallocations += other.reallocations;
        self.allocated_bu_sum += other.allocated_bu_sum;
        self.nominal_bu_sum += other.nominal_bu_sum;
        for i in 0..3 {
            self.per_class[i].offered += other.per_class[i].offered;
            self.per_class[i].accepted += other.per_class[i].accepted;
            self.per_class[i].denied += other.per_class[i].denied;
        }
        self.utilization_bu_seconds += other.utilization_bu_seconds;
        self.capacity_bu_seconds += other.capacity_bu_seconds;
    }
}

impl MetricsSink for Metrics {
    fn fork(&self) -> Self {
        Metrics::new()
    }

    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }

    fn on_decision(&mut self, _now: SimTime, _cell: CellId, record: &DecisionRecord) {
        self.record_decision(record.class, record.kind, record.admitted);
        if record.admitted {
            self.allocated_bu_sum += u64::from(record.allocated.get());
            self.nominal_bu_sum += u64::from(record.nominal.get());
            if record.is_degraded() {
                self.degraded_admissions += 1;
            }
        }
    }

    fn on_reallocation(
        &mut self,
        _now: SimTime,
        _cell: CellId,
        _user: UserId,
        _allocated: BandwidthUnits,
        _floor: BandwidthUnits,
    ) {
        self.reallocations += 1;
    }

    fn on_completion(&mut self, _now: SimTime, _cell: CellId, _user: UserId) {
        self.completed += 1;
    }

    fn on_exit(&mut self, _now: SimTime, _cell: CellId, _user: UserId) {
        self.exited_coverage += 1;
    }

    fn on_mobility_steps(&mut self, _now: SimTime, steps: u64) {
        self.mobility_steps += steps;
    }

    fn on_cell_utilization(&mut self, _cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
        self.utilization_bu_seconds += occupied_bu_s;
        self.capacity_bu_seconds += capacity_bu_s;
    }
}

/// A streaming per-cell occupancy time series: one `(t, occupied BU)`
/// sample per cell per movement epoch, taken at the epoch barrier.
///
/// Because a cell is sampled only by the shard that owns it, each cell's
/// series is bit-identical no matter how many shards the run used.
/// Every sample is retained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellLoadSeries {
    series: BTreeMap<u32, Vec<(f64, u32)>>,
    capacity: u32,
}

impl CellLoadSeries {
    /// Creates an empty series sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells with at least one sample, in id order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.series.keys().map(|&id| CellId(id))
    }

    /// The `(time s, occupied BU)` samples of one cell, in time order.
    #[must_use]
    pub fn samples(&self, cell: CellId) -> &[(f64, u32)] {
        self.series.get(&cell.0).map_or(&[], Vec::as_slice)
    }

    /// The sampled base-station capacity (0 before any sample arrived).
    #[must_use]
    pub fn capacity_bu(&self) -> u32 {
        self.capacity
    }

    /// Renders the series as CSV rows `cell,t,occupied`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cell,t_s,occupied_bu\n");
        for (cell, series) in &self.series {
            for &(t, occupied) in series {
                out.push_str(&format!("{cell},{t:.3},{occupied}\n"));
            }
        }
        out
    }
}

impl MetricsSink for CellLoadSeries {
    fn fork(&self) -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: Self) {
        for (cell, samples) in other.series {
            self.series.entry(cell).or_default().extend(samples);
        }
        self.capacity = self.capacity.max(other.capacity);
    }

    fn on_cell_sample(&mut self, now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        self.capacity = capacity;
        self.series.entry(cell.0).or_default().push((now.as_secs_f64(), occupied));
    }
}

/// Occupancy-fraction histogram resolution of the rollup sink: 5%-wide
/// buckets over `[0, 1]`.
const OCCUPANCY_BUCKETS: usize = 20;

/// Fixed-size streaming summary of one region (or the whole grid): pure
/// counters plus an occupancy-fraction histogram, so memory is O(1) per
/// region no matter how many cells, epochs or users the run covers.
///
/// All in-run fields are exact integer sums, which makes a rollup
/// **bit-identical across shard counts** — the floating-point
/// utilization integrals are only folded in at the end of the run, in
/// cell-id order, by [`MetricsSink::on_cell_utilization`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionRollup {
    /// The [`Metrics`] of this region's cells, fed by the decision,
    /// completion, exit and end-of-run utilization hooks.
    pub counts: Metrics,
    /// Epoch occupancy samples taken.
    pub samples: u64,
    /// Histogram of per-sample occupancy fraction (5% buckets).
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
}

impl RegionRollup {
    fn merge(&mut self, other: &Self) {
        self.counts.merge(&other.counts);
        self.samples += other.samples;
        for (a, b) in self.occupancy_hist.iter_mut().zip(&other.occupancy_hist) {
            *a += b;
        }
    }

    /// Occupancy-fraction quantile `q ∈ [0, 1]` estimated from the
    /// histogram (upper edge of the bucket holding the quantile; 0 when
    /// no samples). `q = 0.5` is the median, `q = 0.99` the p99.
    #[must_use]
    pub fn occupancy_percentile(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.samples as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.occupancy_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (i + 1) as f64 / OCCUPANCY_BUCKETS as f64;
            }
        }
        1.0
    }
}

/// Hierarchical cells → regions → global rollup sink with fixed-size
/// accumulators, the memory-flat replacement for unbounded per-cell
/// series on planet-scale grids: a region summarizes `cells_per_region`
/// consecutive cell ids, and the global rollup summarizes everything.
///
/// Counter updates are exact integer sums and each sample's histogram
/// bucket is computed in integer math, so — like [`Metrics`] — the
/// rollup is bit-identical across shard and worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRollupSink {
    cells_per_region: u32,
    regions: BTreeMap<u32, RegionRollup>,
    global: RegionRollup,
}

impl RegionRollupSink {
    /// Creates a rollup sink grouping `cells_per_region` consecutive
    /// cell ids per region (clamped to at least 1).
    #[must_use]
    pub fn new(cells_per_region: u32) -> Self {
        Self {
            cells_per_region: cells_per_region.max(1),
            regions: BTreeMap::new(),
            global: RegionRollup::default(),
        }
    }

    fn region_of(&self, cell: CellId) -> u32 {
        cell.0 / self.cells_per_region
    }

    fn region_mut(&mut self, cell: CellId) -> &mut RegionRollup {
        let region = self.region_of(cell);
        self.regions.entry(region).or_default()
    }

    /// The configured region width, in consecutive cell ids.
    #[must_use]
    pub fn cells_per_region(&self) -> u32 {
        self.cells_per_region
    }

    /// `(region id, rollup)` pairs in region-id order.
    pub fn regions(&self) -> impl Iterator<Item = (u32, &RegionRollup)> {
        self.regions.iter().map(|(&id, r)| (id, r))
    }

    /// The whole-grid rollup.
    #[must_use]
    pub fn global(&self) -> &RegionRollup {
        &self.global
    }

    /// Renders the rollup as a JSON artifact: a header, the global
    /// summary and one object per region.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn rollup_fields(r: &RegionRollup) -> String {
            let c = &r.counts;
            format!(
                "\"offered_new\": {}, \"accepted_new\": {}, \"blocked_new\": {}, \
                 \"handoff_attempts\": {}, \"handoff_dropped\": {}, \"completed\": {}, \
                 \"exited_coverage\": {}, \"samples\": {}, \"acceptance_pct\": {:.4}, \
                 \"dropping_pct\": {:.4}, \"mean_utilization\": {:.6}, \
                 \"occupancy_p50\": {:.4}, \"occupancy_p99\": {:.4}",
                c.offered_new,
                c.accepted_new,
                c.blocked_new,
                c.handoff_attempts,
                c.handoff_dropped,
                c.completed,
                c.exited_coverage,
                r.samples,
                c.acceptance_percentage(),
                c.dropping_percentage(),
                c.mean_utilization(),
                r.occupancy_percentile(0.50),
                r.occupancy_percentile(0.99),
            )
        }
        let mut out = String::from("{\n  \"experiment\": \"region-rollup\",\n");
        out.push_str(&format!("  \"cells_per_region\": {},\n", self.cells_per_region));
        out.push_str(&format!("  \"global\": {{ {} }},\n", rollup_fields(&self.global)));
        out.push_str("  \"regions\": [\n");
        let mut first = true;
        for (id, rollup) in &self.regions {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    {{ \"region\": {id}, {} }}", rollup_fields(rollup)));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl MetricsSink for RegionRollupSink {
    fn fork(&self) -> Self {
        Self::new(self.cells_per_region)
    }

    fn absorb(&mut self, other: Self) {
        for (region, rollup) in other.regions {
            self.regions.entry(region).or_default().merge(&rollup);
        }
        self.global.merge(&other.global);
    }

    fn on_decision(&mut self, now: SimTime, cell: CellId, record: &DecisionRecord) {
        self.region_mut(cell).counts.on_decision(now, cell, record);
        self.global.counts.on_decision(now, cell, record);
    }

    fn on_completion(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.region_mut(cell).counts.on_completion(now, cell, user);
        self.global.counts.on_completion(now, cell, user);
    }

    fn on_exit(&mut self, now: SimTime, cell: CellId, user: UserId) {
        self.region_mut(cell).counts.on_exit(now, cell, user);
        self.global.counts.on_exit(now, cell, user);
    }

    fn on_cell_sample(&mut self, _now: SimTime, cell: CellId, occupied: u32, capacity: u32) {
        // Integer bucket math: exact, so order-independent.
        let bucket = if capacity == 0 {
            0
        } else {
            (((occupied as usize) * OCCUPANCY_BUCKETS) / capacity as usize)
                .min(OCCUPANCY_BUCKETS - 1)
        };
        let region = self.region_mut(cell);
        region.samples += 1;
        region.occupancy_hist[bucket] += 1;
        self.global.samples += 1;
        self.global.occupancy_hist[bucket] += 1;
    }

    fn on_cell_utilization(&mut self, cell: CellId, occupied_bu_s: f64, capacity_bu_s: f64) {
        self.region_mut(cell).counts.on_cell_utilization(cell, occupied_bu_s, capacity_bu_s);
        self.global.counts.on_cell_utilization(cell, occupied_bu_s, capacity_bu_s);
    }
}

/// One `(x, y)` series of an experiment figure (e.g. acceptance percentage
/// vs. number of requesting connections).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"30km/h"` or `"FACS"`).
    pub label: String,
    /// The `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders the series as CSV rows `label,x,y`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for &(x, y) in &self.points {
            out.push_str(&format!("{},{:.4},{:.4}\n", self.label, x, y));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_percentage_math() {
        let mut m = Metrics::new();
        for i in 0..10 {
            m.record_decision(ServiceClass::Text, CallKind::New, i < 7);
        }
        assert_eq!(m.offered_new, 10);
        assert_eq!(m.accepted_new, 7);
        assert_eq!(m.blocked_new, 3);
        assert!((m.acceptance_percentage() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_edge_cases() {
        let m = Metrics::new();
        assert_eq!(m.acceptance_percentage(), 100.0);
        assert_eq!(m.dropping_percentage(), 0.0);
        assert_eq!(m.mean_utilization(), 0.0);
    }

    #[test]
    fn handoffs_tracked_separately() {
        let mut m = Metrics::new();
        m.record_decision(ServiceClass::Voice, CallKind::Handoff, true);
        m.record_decision(ServiceClass::Voice, CallKind::Handoff, false);
        assert_eq!(m.offered_new, 0, "handoffs are not offered new calls");
        assert_eq!(m.handoff_attempts, 2);
        assert_eq!(m.handoff_dropped, 1);
        assert_eq!(m.dropping_percentage(), 50.0);
    }

    #[test]
    fn per_class_counters() {
        let mut m = Metrics::new();
        m.record_decision(ServiceClass::Video, CallKind::New, true);
        m.record_decision(ServiceClass::Video, CallKind::New, false);
        m.record_decision(ServiceClass::Text, CallKind::New, true);
        let acceptance = |class: ServiceClass| m.per_class[class.index()].acceptance_percentage();
        assert_eq!(acceptance(ServiceClass::Video), 50.0);
        assert_eq!(acceptance(ServiceClass::Text), 100.0);
        assert_eq!(acceptance(ServiceClass::Voice), 100.0, "nothing offered => 100");
    }

    #[test]
    fn degraded_admissions_and_allocation_fraction() {
        let mut m = Metrics::new();
        let profile =
            ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0);
        let t = SimTime::ZERO;
        let cell = CellId(0);
        // Nominal entry, degraded entry (6/10), and a denial.
        m.on_decision(
            t,
            cell,
            &DecisionRecord::admitted(UserId(1), profile, CallKind::New, BandwidthUnits::new(10)),
        );
        m.on_decision(
            t,
            cell,
            &DecisionRecord::admitted(
                UserId(2),
                profile,
                CallKind::Handoff,
                BandwidthUnits::new(6),
            ),
        );
        m.on_decision(t, cell, &DecisionRecord::denied(UserId(3), profile, CallKind::New));
        m.on_reallocation(t, cell, UserId(1), BandwidthUnits::new(7), BandwidthUnits::new(5));
        assert_eq!(m.degraded_admissions, 1);
        assert_eq!(m.reallocations, 1);
        assert!((m.mean_allocation_fraction() - 16.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_time_average() {
        let mut m = Metrics::new();
        m.on_cell_utilization(CellId(0), 400.0, 400.0); // full for 10 s
        m.on_cell_utilization(CellId(1), 0.0, 1200.0); // empty for 30 s
        assert!((m.mean_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn series_csv_rows() {
        let mut s = Series::new("30km/h");
        s.push(10.0, 95.0);
        s.push(20.0, 85.0);
        let csv = s.to_csv();
        assert!(csv.contains("30km/h,10.0000,95.0000"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn region_rollup_counts_and_percentiles() {
        let profile = ServiceProfile::fixed(ServiceClass::Voice, BandwidthUnits::new(4));
        let mut sink = RegionRollupSink::new(4);
        let t = SimTime::from_secs_f64(1.0);
        // Cells 0..4 land in region 0, cell 5 in region 1.
        sink.on_decision(
            t,
            CellId(0),
            &DecisionRecord::admitted(UserId(1), profile, CallKind::New, BandwidthUnits::new(4)),
        );
        sink.on_decision(t, CellId(1), &DecisionRecord::denied(UserId(2), profile, CallKind::New));
        sink.on_decision(
            t,
            CellId(5),
            &DecisionRecord::denied(UserId(3), profile, CallKind::Handoff),
        );
        sink.on_completion(t, CellId(0), UserId(1));
        sink.on_exit(t, CellId(5), UserId(4));
        for occ in [0u32, 10, 20, 40] {
            sink.on_cell_sample(t, CellId(2), occ, 40);
        }
        sink.on_cell_utilization(CellId(0), 30.0, 120.0);
        sink.on_cell_utilization(CellId(5), 10.0, 120.0);

        let regions: Vec<_> = sink.regions().collect();
        assert_eq!(regions.len(), 2);
        let r0 = &regions[0].1;
        let c0 = &r0.counts;
        assert_eq!((regions[0].0, c0.offered_new, c0.accepted_new, c0.blocked_new), (0, 2, 1, 1));
        assert_eq!((c0.completed, r0.samples), (1, 4));
        let c1 = &regions[1].1.counts;
        assert_eq!((regions[1].0, c1.handoff_attempts, c1.handoff_dropped), (1, 1, 1));
        assert_eq!(c1.exited_coverage, 1);

        let g = sink.global();
        let gc = &g.counts;
        assert_eq!((gc.offered_new, gc.accepted_new, gc.handoff_attempts), (2, 1, 1));
        assert!((gc.acceptance_percentage() - 50.0).abs() < 1e-12);
        assert!((gc.dropping_percentage() - 100.0).abs() < 1e-12);
        assert!((gc.mean_utilization() - 40.0 / 240.0).abs() < 1e-12);
        // Samples at fractions 0, 0.25, 0.5, 1.0: the median falls in
        // the 0.25 bucket (upper edge 0.30), the p99 in the top bucket.
        assert!((g.occupancy_percentile(0.5) - 0.30).abs() < 1e-12);
        assert!((g.occupancy_percentile(0.99) - 1.0).abs() < 1e-12);

        let expected = concat!(
            "{\n  \"experiment\": \"region-rollup\",\n  \"cells_per_region\": 4,\n",
            "  \"global\": { \"offered_new\": 2, \"accepted_new\": 1, \"blocked_new\": 1, ",
            "\"handoff_attempts\": 1, \"handoff_dropped\": 1, \"completed\": 1, ",
            "\"exited_coverage\": 1, \"samples\": 4, \"acceptance_pct\": 50.0000, ",
            "\"dropping_pct\": 100.0000, \"mean_utilization\": 0.166667, ",
            "\"occupancy_p50\": 0.3000, \"occupancy_p99\": 1.0000 },\n",
            "  \"regions\": [\n",
            "    { \"region\": 0, \"offered_new\": 2, \"accepted_new\": 1, \"blocked_new\": 1, ",
            "\"handoff_attempts\": 0, \"handoff_dropped\": 0, \"completed\": 1, ",
            "\"exited_coverage\": 0, \"samples\": 4, \"acceptance_pct\": 50.0000, ",
            "\"dropping_pct\": 0.0000, \"mean_utilization\": 0.250000, ",
            "\"occupancy_p50\": 0.3000, \"occupancy_p99\": 1.0000 },\n",
            "    { \"region\": 1, \"offered_new\": 0, \"accepted_new\": 0, \"blocked_new\": 0, ",
            "\"handoff_attempts\": 1, \"handoff_dropped\": 1, \"completed\": 0, ",
            "\"exited_coverage\": 1, \"samples\": 0, \"acceptance_pct\": 100.0000, ",
            "\"dropping_pct\": 100.0000, \"mean_utilization\": 0.083333, ",
            "\"occupancy_p50\": 0.0000, \"occupancy_p99\": 0.0000 }\n",
            "  ]\n}\n",
        );
        assert_eq!(sink.to_json(), expected);
    }

    #[test]
    fn region_rollup_fork_absorb_is_exact() {
        let profile = ServiceProfile::fixed(ServiceClass::Voice, BandwidthUnits::new(4));
        let t = SimTime::from_secs_f64(2.0);
        let feed = |sink: &mut RegionRollupSink, offset: u32| {
            for i in 0..6u32 {
                let cell = CellId(offset + i);
                sink.on_decision(
                    t,
                    cell,
                    &DecisionRecord::admitted(
                        UserId(u64::from(i)),
                        profile,
                        CallKind::New,
                        BandwidthUnits::new(2),
                    ),
                );
                sink.on_cell_sample(t, cell, i, 40);
            }
        };
        let mut whole = RegionRollupSink::new(4);
        feed(&mut whole, 0);
        feed(&mut whole, 6);

        let mut root = RegionRollupSink::new(4);
        let mut a = root.fork();
        let mut b = root.fork();
        feed(&mut a, 0);
        feed(&mut b, 6);
        root.absorb(a);
        root.absorb(b);
        assert_eq!(root, whole);
    }
}
