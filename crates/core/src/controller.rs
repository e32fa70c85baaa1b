//! The FACS admission controller: FLC1 → FLC2 cascade (paper Fig. 4).

use std::fmt::{self, Write as _};
use std::sync::Arc;

use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, CallKind, CallRequest,
    CellSnapshot, Decision, MobilityInfo, PolicyKey, ServiceClass, ServiceProfile,
};
use facs_fuzzy::{BackendKind, CompiledSurface, FuzzyError, InferenceConfig};

use crate::flc1::Flc1;
use crate::flc2::Flc2;

/// Tunables of the FACS controller.
///
/// Defaults are paper-faithful where the paper specifies them: no handoff
/// bias (the paper explicitly defers call priority to future work) and a
/// 10-km distance universe. The paper leaves the binary gate over the
/// soft A/R score unspecified; the default threshold of 0.1 ("must lean
/// at least slightly toward accept") is the calibration that reproduces
/// the figure shapes — EXPERIMENTS.md records the sweep behind it, and
/// `ablation_threshold` benches the sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacsConfig {
    /// Admit iff the defuzzified score exceeds this threshold.
    pub threshold: f64,
    /// Score bonus applied to handoff requests (0 = paper-faithful; the
    /// handoff-priority extension of EXPERIMENTS.md sets it positive).
    pub handoff_bias: f64,
    /// The radius the FLC1 distance universe (0–10 km) is scaled from:
    /// observed distances are multiplied by `10 / cell_radius_km`.
    pub cell_radius_km: f64,
    /// Inference operators shared by both FLCs.
    pub inference: InferenceConfig,
    /// Inference backend shared by both FLCs: exact Mamdani per decision
    /// (default, bit-exact) or compiled decision surfaces (orders of
    /// magnitude faster per decision; EXPERIMENTS.md bounds the
    /// divergence).
    pub backend: BackendKind,
}

impl Default for FacsConfig {
    fn default() -> Self {
        Self {
            threshold: 0.1,
            handoff_bias: 0.0,
            cell_radius_km: 10.0,
            inference: InferenceConfig::default(),
            backend: BackendKind::Exact,
        }
    }
}

impl FacsConfig {
    /// The default configuration on compiled decision surfaces — the
    /// production-serving profile (same rule bases, ~interpolated
    /// scores).
    #[must_use]
    pub fn compiled() -> Self {
        Self { backend: BackendKind::compiled(), ..Self::default() }
    }
}

/// The full evidence of one FACS evaluation, exposed so operators can
/// audit why a call was admitted or denied (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacsEvaluation {
    /// FLC1's correction value in `[0, 1]`.
    pub correction_value: f64,
    /// FLC2's defuzzified score in `[-1, 1]` (after any handoff bias).
    pub score: f64,
    /// The gated decision.
    pub decision: Decision,
}

impl FacsEvaluation {
    /// The firm rejection the cascade answers with when it cannot score
    /// a request.
    fn firm_reject(correction_value: f64) -> Self {
        Self { correction_value, score: -1.0, decision: Decision::reject(-1.0) }
    }
}

/// The Fuzzy Admission Control System of Barolli et al. (ICDCSW 2007).
///
/// One instance serves one cell. The controller is pure over its inputs —
/// identical requests against identical cell states yield identical
/// decisions — which the reproduction's determinism rests on.
///
/// Nothing in it changes after construction, so every clone shares one
/// core (both FLCs, the configuration and the score bound) behind an
/// `Arc`: stamping one controller per cell of a planet-scale grid bumps
/// a refcount, and every cell reads the same hot surfaces. Every clone
/// reports the same [`policy_key`](AdmissionController::policy_key), so
/// the simulator keeps one of them per shard.
///
/// # Examples
///
/// ```
/// use facs::FacsController;
/// use facs_cac::{
///     AdmissionController, BandwidthLedger, BandwidthUnits, CallId, CallKind, CallRequest,
///     MobilityInfo, ServiceClass,
/// };
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// let mut facs = FacsController::new()?;
/// let mut cell = BandwidthLedger::new(BandwidthUnits::new(40));
/// // A vehicle heading straight at the BS asking for voice: admitted.
/// let req = CallRequest::new(
///     CallId(1),
///     ServiceClass::Voice,
///     CallKind::New,
///     MobilityInfo::new(60.0, 0.0, 2.0),
/// );
/// let plan = facs.decide(&req, &cell);
/// assert!(plan.admits());
/// cell.allocate(req.id, req.profile).expect("the plan fits");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FacsController {
    core: Arc<FacsCore>,
}

/// What every clone of one [`FacsController`] shares.
#[derive(Debug)]
struct FacsCore {
    flc1: Flc1,
    flc2: Flc2,
    config: FacsConfig,
    /// The policy table read off the compiled FLC2 surface; the exact
    /// backend has no lattice to prove over.
    bound: Option<ScoreBound>,
}

impl FacsController {
    /// Builds FACS with the default (paper-faithful) configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile.
    pub fn new() -> Result<Self, FuzzyError> {
        Self::with_config(FacsConfig::default())
    }

    /// Builds FACS with a custom configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile (e.g. a
    /// compiled backend with fewer than 2 lattice points per axis).
    pub fn with_config(config: FacsConfig) -> Result<Self, FuzzyError> {
        let flc2 = Flc2::with_backend(config.inference, config.backend)?;
        let core = FacsCore {
            flc1: Flc1::with_backend(config.inference, config.backend)?,
            bound: flc2.surface().map(|surface| ScoreBound::new(surface, &config)),
            flc2,
            config,
        };
        Ok(Self { core: Arc::new(core) })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FacsConfig {
        &self.core.config
    }

    /// FLC1, for membership dumps and rule inspection.
    #[must_use]
    pub fn flc1(&self) -> &Flc1 {
        &self.core.flc1
    }

    /// FLC2, for membership dumps and rule inspection.
    #[must_use]
    pub fn flc2(&self) -> &Flc2 {
        &self.core.flc2
    }

    /// The row of FACS's policy table for `class` at occupancy
    /// `occupied` of a 40-BU cell: which Cv segments `decide` settles
    /// without running FLC2. `None` on the exact backend, which proves
    /// nothing, and above 40 BU.
    #[must_use]
    pub fn cv_segments(&self, class: ServiceClass, occupied: u32) -> Option<CvSegments<'_>> {
        let (bound, surface) = (self.core.bound.as_ref()?, self.core.flc2.surface()?);
        let row = *bound.rows[class.index()].get(occupied as usize)?;
        Some(CvSegments { row, full: bound.full, surface })
    }

    /// Runs the full cascade and returns every intermediate value.
    ///
    /// A corrupted (non-finite) mobility observation yields a firm
    /// rejection with `correction_value = 0` rather than an error: in a
    /// live system a broken GPS fix must not take the admission path down.
    #[must_use]
    pub fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        match self.core.correction_value(request) {
            Some(correction_value) => self.core.gate(correction_value, request, cell),
            None => FacsEvaluation::firm_reject(0.0),
        }
    }
}

impl FacsCore {
    /// FLC1's correction value for `request`, or `None` where the cascade
    /// rejects before FLC2: a non-finite mobility, a finite distance whose
    /// scaling overflows, or any other FLC1 error.
    #[inline]
    fn correction_value(&self, request: &CallRequest) -> Option<f64> {
        if !request.mobility.is_finite() {
            return None;
        }
        self.flc1.correction_value(&scale_mobility(&self.config, &request.mobility)).ok()
    }

    /// The rest of the cascade on FLC1's correction value: FLC2, the
    /// handoff bias, the score snap and the gate.
    fn gate(
        &self,
        correction_value: f64,
        request: &CallRequest,
        cell: &CellSnapshot,
    ) -> FacsEvaluation {
        let counter = scale_counter(cell);
        let request_bu = request.class.request_level();
        let Ok(mut score) = self.flc2.decision_score(correction_value, request_bu, counter) else {
            return FacsEvaluation::firm_reject(correction_value);
        };
        if request.kind == CallKind::Handoff {
            score = (score + self.config.handoff_bias).clamp(-1.0, 1.0);
        }
        // Snap to a 1e-12 grid: the sampled centroid carries ~1e-16 noise
        // which must not flip a `score > threshold` gate at exactly the
        // neutral point (a pure-NRNA surface defuzzifies to 0 ± ulp).
        score = (score * 1e12).round() / 1e12;
        FacsEvaluation {
            correction_value,
            score,
            decision: Decision::from_score(score, self.config.threshold),
        }
    }

    /// `decide` past `fast_reject` on a 40-BU cell of the compiled
    /// backend, whose policy-table row is `row`: a full admit row admits
    /// without FLC1, a proven Cv segment settles the request without
    /// FLC2, and a mixed one runs FLC2 on the Cv already computed.
    #[inline]
    fn decide_on_row(
        &self,
        request: &CallRequest,
        cell: &BandwidthLedger,
        surface: &CompiledSurface,
        row: RowProof,
        full: u64,
    ) -> AdmissionPlan {
        if row.admit == full && scale_mobility(&self.config, &request.mobility).is_finite() {
            return AdmissionPlan::Admit(Decision::accept(1.0));
        }
        let Some(correction_value) = self.correction_value(request) else {
            return AdmissionPlan::Reject(Decision::reject(-1.0));
        };
        match row.verdict_at(surface, correction_value) {
            Some(true) => AdmissionPlan::Admit(Decision::accept(1.0)),
            Some(false) => AdmissionPlan::Reject(Decision::reject(-1.0)),
            None => {
                AdmissionPlan::gate(self.gate(correction_value, request, &cell.snapshot()).decision)
            }
        }
    }
}

/// Scales an observed distance into FLC1's 0–10 km universe according
/// to the configured cell radius.
fn scale_mobility(config: &FacsConfig, mobility: &MobilityInfo) -> MobilityInfo {
    let scale = 10.0 / config.cell_radius_km.max(f64::MIN_POSITIVE);
    MobilityInfo {
        speed_kmh: mobility.speed_kmh,
        angle_deg: mobility.angle_deg,
        distance_km: mobility.distance_km * scale,
    }
}

/// The capacity at which the counter state *is* the occupancy (FLC2's
/// 0–40 BU counter universe, the paper's cell).
const PAPER_CAPACITY_BU: u32 = 40;

/// The occupancies of a 40-BU cell, 0 to 40 BU.
const PAPER_ROWS: usize = PAPER_CAPACITY_BU as usize + 1;

/// Scales occupancy into FLC2's 0–40 BU counter universe according to
/// the cell's own capacity, so a half-full cell reads as `Cs = 20`
/// whatever its size.
fn scale_counter(cell: &CellSnapshot) -> f64 {
    let capacity = f64::from(cell.capacity.get().max(1));
    f64::from(cell.occupied.get()) * f64::from(PAPER_CAPACITY_BU) / capacity
}

/// One row of FACS's policy table ([`FacsController::cv_segments`]): for
/// one class at one occupancy of a 40-BU cell, which segments of FLC2's
/// Cv axis the compiled surface settles whatever the request's kind.
/// Segment `s` of the default 33-knot axis spans Cv ∈ `[s/32, (s+1)/32]`.
/// A segment is *admitted* (every Cv in it admits), *rejected* (every Cv
/// in it rejects) or *mixed* (FLC2 scores it). On a surface with more
/// than 64 Cv segments a row is settled whole or not at all, and its 64
/// bits all stand for the whole row.
///
/// `Display` writes one character per segment in Cv order: `A` admitted,
/// `R` rejected, `?` mixed.
#[derive(Debug, Clone, Copy)]
pub struct CvSegments<'a> {
    row: RowProof,
    full: u64,
    surface: &'a CompiledSurface,
}

impl CvSegments<'_> {
    /// The number of Cv segments in the row.
    #[must_use]
    pub fn segments(&self) -> u32 {
        self.full.count_ones()
    }

    /// Bit `s` set: every Cv in segment `s` is admitted.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.row.admit
    }

    /// Bit `s` set: every Cv in segment `s` is rejected.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.row.reject
    }

    /// Bit `s` set: segment `s` is left to FLC2.
    #[must_use]
    pub fn mixed(&self) -> u64 {
        self.full & !(self.row.admit | self.row.reject)
    }

    /// The verdict the row proves at correction value `cv`: `Some(true)`
    /// admitted, `Some(false)` rejected, `None` where FLC2 must score it
    /// (a mixed segment, or a non-finite `cv`). This is the lookup
    /// `decide` makes on FLC1's Cv: a Cv on an inner knot reads the
    /// segment above it.
    #[must_use]
    pub fn verdict_at(&self, cv: f64) -> Option<bool> {
        self.row.verdict_at(self.surface, cv)
    }

    /// The Cv cuts the row pins down: how often the verdict turns between
    /// an admitted and a rejected segment, in Cv order, with the mixed
    /// segments between them skipped. Each such turn has a cut inside
    /// the mixed segments between (or at the knot shared by) the two.
    #[must_use]
    pub fn cuts(&self) -> u32 {
        let mut last = None;
        let mut cuts = 0;
        for verdict in (0..self.segments() as usize).filter_map(|s| self.row.verdict(s)) {
            cuts += u32::from(last.is_some_and(|l| l != verdict));
            last = Some(verdict);
        }
        cuts
    }
}

impl fmt::Display for CvSegments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..self.segments() as usize).try_for_each(|s| {
            f.write_char(match self.row.verdict(s) {
                Some(true) => 'A',
                Some(false) => 'R',
                None => '?',
            })
        })
    }
}

/// The proven Cv segments of one (class, occupancy) row: bit `s` of a
/// mask stands for segment `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RowProof {
    admit: u64,
    reject: u64,
}

impl RowProof {
    /// `Some(true)` when segment `segment` is proven admitted,
    /// `Some(false)` when proven rejected.
    #[inline]
    fn verdict(self, segment: usize) -> Option<bool> {
        let proven = |mask: u64| mask.checked_shr(segment as u32).is_some_and(|rest| rest & 1 != 0);
        if proven(self.admit) {
            Some(true)
        } else if proven(self.reject) {
            Some(false)
        } else {
            None
        }
    }

    /// The verdict the row proves at correction value `cv`, located on
    /// the FLC2 surface as `decision_score` locates it.
    #[inline]
    fn verdict_at(self, surface: &CompiledSurface, cv: f64) -> Option<bool> {
        self.verdict(surface.first_axis_segment(cv).ok()?)
    }
}

/// FACS's policy table on a 40-BU cell, read off the compiled FLC2
/// surface: per class and occupancy, the Cv segments `decide` settles
/// without FLC2 ([`CvSegments`]).
///
/// On a 40-BU cell the counter is the occupancy. At a fixed (request,
/// counter) the surface's multilinear interpolant is linear in Cv inside
/// each lattice segment, so over a segment it lies between the scores at
/// the segment's two knots ([`CompiledSurface::first_axis_knots`]). Bit
/// `s` of a row's mask is set when segment `s` is *proven*:
///
/// * **admit** — both knots score above the gate plus any negative
///   handoff bias's magnitude plus 1e-9;
/// * **reject** — both knots score at or below the gate less any
///   positive handoff bias less 1e-9.
///
/// The 1e-9 covers float error, far above the 1e-12 score snap. A knot
/// two segments share is in both proofs, so a Cv on it is settled
/// whichever segment the lookup places it in. A row whose admit mask is
/// full admits at every Cv, so `decide` skips FLC1 there too. The rows
/// whose reject masks are full from `tails` up to 40 are
/// [`FacsController::fast_reject`]'s: a tail, so a claim at one
/// occupancy holds at every higher one too, although FLC2 is not
/// monotone in occupancy. [`HeadroomFacsController`] forwards to it and
/// needs only the live row, since it never scores a new call above the
/// live cascade. Other capacities claim nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScoreBound {
    /// Per class, per occupancy 0–40.
    rows: [[RowProof; PAPER_ROWS]; 3],
    /// A row proven whole: one bit per Cv segment, or every bit on a
    /// surface with more segments than a mask has bits.
    full: u64,
    /// Per class, the lowest occupancy from which every row up to 40 is a
    /// full reject mask (41 when row 40 is not).
    tails: [u32; 3],
}

impl ScoreBound {
    /// Reads the table off the surface's Cv knots, one walk per (class,
    /// occupancy), without running `decision_score` or allocating.
    fn new(surface: &CompiledSurface, config: &FacsConfig) -> Self {
        // A NaN bias turns every handoff score into NaN, which never
        // admits.
        let admit_gate = if config.handoff_bias.is_nan() {
            f64::INFINITY
        } else {
            config.threshold + (-config.handoff_bias).max(0.0) + 1e-9
        };
        let reject_gate = config.threshold - config.handoff_bias.max(0.0) - 1e-9;
        let segments = surface.points_per_axis() - 1;
        let per_segment = segments <= 64;
        let full = if per_segment { u64::MAX >> (64 - segments) } else { u64::MAX };
        let mut bound = Self {
            rows: [[RowProof::default(); PAPER_ROWS]; 3],
            full,
            tails: [PAPER_CAPACITY_BU + 1; 3],
        };
        for class in ServiceClass::ALL {
            let rows = &mut bound.rows[class.index()];
            for (occupied, row) in (0..=PAPER_CAPACITY_BU).zip(rows.iter_mut()) {
                let (mut admit, mut reject) = (full, full);
                let knots = surface
                    .first_axis_knots(&[class.request_level(), f64::from(occupied)])
                    .expect("finite readings on FLC2's three axes");
                for (knot, value) in knots.enumerate() {
                    // A knot ends the segment below it and starts the one
                    // above; past 64 segments it touches the whole row.
                    let touching = if per_segment { (0b11u128 << knot >> 1) as u64 } else { full };
                    let (above, below) = (value > admit_gate, value <= reject_gate);
                    if !above {
                        admit &= !touching;
                    }
                    if !below {
                        reject &= !touching;
                    }
                }
                *row = RowProof { admit, reject };
            }
            let tail = &mut bound.tails[class.index()];
            while *tail > 0 && rows[*tail as usize - 1].reject == full {
                *tail -= 1;
            }
        }
        bound
    }

    /// The row of `class` at `cell`'s occupancy, if `cell` is a 40-BU
    /// cell.
    #[inline]
    fn row(&self, class: ServiceClass, cell: &BandwidthLedger) -> Option<RowProof> {
        if cell.capacity().get() != PAPER_CAPACITY_BU {
            return None;
        }
        self.rows[class.index()].get(cell.occupied().get() as usize).copied()
    }

    /// `true` when `class` cannot be admitted into `cell` at any Cv, at
    /// this occupancy or any higher one.
    #[inline]
    fn rejects(&self, class: ServiceClass, cell: &BandwidthLedger) -> bool {
        cell.capacity().get() == PAPER_CAPACITY_BU
            && cell.occupied().get() >= self.tails[class.index()]
    }
}

impl AdmissionController for FacsController {
    fn name(&self) -> &str {
        "FACS"
    }

    /// Pre-screens before running the cascade:
    ///
    /// * a request that [`fast_reject`](AdmissionController::fast_reject)
    ///   proves deniable is denied with the placeholder score −1.0;
    /// * on the compiled backend, at a 40-BU cell, a request whose class
    ///   the policy table ([`FacsController::cv_segments`]) admits at
    ///   every Cv at this occupancy is admitted with the placeholder
    ///   score +1.0 without FLC1, unless its mobility is non-finite or
    ///   overflows the distance scaling, which
    ///   [`evaluate`](FacsController::evaluate) rejects;
    /// * otherwise FLC1 runs once, and a Cv in a proven segment of the
    ///   row is admitted (+1.0) or rejected (−1.0) without FLC2.
    ///
    /// Every way the admission outcome is the cascade's; only the plan's
    /// score differs. Every other request is gated on the cascade, FLC2
    /// reusing the Cv already computed.
    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        if self.fast_reject(&request.profile, cell) {
            return AdmissionPlan::Reject(Decision::reject(-1.0));
        }
        let core = &*self.core;
        if let (Some(bound), Some(surface)) = (&core.bound, core.flc2.surface()) {
            if let Some(row) = bound.row(request.class, cell) {
                return core.decide_on_row(request, cell, surface, row, bound.full);
            }
        }
        AdmissionPlan::gate(self.evaluate(request, &cell.snapshot()).decision)
    }

    /// Plain FACS never degrades or squeezes, so a profile whose nominal
    /// cost does not fit is denied for any mobility and kind; on the
    /// compiled backend, so is one whose class the surface cannot score
    /// over the gate at this or any higher occupancy of a 40-BU cell.
    /// `decide` answers such a request with the placeholder score −1.0.
    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        !cell.can_fit(profile.rb_cost_nominal)
            || self.core.bound.as_ref().is_some_and(|bound| bound.rejects(profile.class, cell))
    }

    /// Every clone of one controller is the same policy: all state is
    /// the shared core.
    fn policy_key(&self) -> Option<PolicyKey> {
        Some(PolicyKey::of::<Self, _>(&self.core))
    }
}

/// FACS with elastic-bandwidth degradation (cf. Chowdhury et al.,
/// arXiv:1412.3630): the fuzzy cascade still gates every request, but a
/// fuzzy-accepted call that does not fit at nominal bandwidth is not
/// immediately lost.
///
/// * Any accepted call may enter **self-degraded** — allocated whatever
///   free bandwidth remains, down to its own QoS floor — squeezing
///   nobody else.
/// * Only **handoffs** may additionally trigger degradation of existing
///   elastic calls toward their floors to make room (users tolerate a
///   quality dip far better than a dropped call); new calls never
///   squeeze anyone.
/// * The cascade is consulted at the **effective occupancy** — live
///   occupancy net of the slack degradation could reclaim. Occupancy is
///   an FLC2 input, so an elastic cell full of nominal-rate calls is
///   genuinely less congested than the raw counter suggests; feeding
///   the raw value would make the gate reject at exactly the loads
///   where degradation matters. With rigid profiles nothing is
///   reclaimable and the effective occupancy *is* the live occupancy.
///
/// Degraded calls are re-upgraded toward nominal by the ledger as
/// bandwidth frees up. With rigid paper profiles (floor == nominal)
/// every elastic branch above is unreachable and the set of effectively
/// admitted calls (fuzzy-accepted *and* fitting) is identical to
/// [`FacsController`]'s — the degradation variant merely folds the
/// does-it-fit check into the plan instead of leaving it to the
/// ledger's allocation failure.
#[derive(Debug, Clone)]
pub struct FacsDegradeController {
    inner: FacsController,
}

impl FacsDegradeController {
    /// Builds the degradation-aware controller with the default
    /// (paper-faithful) fuzzy configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile.
    pub fn new() -> Result<Self, FuzzyError> {
        Self::with_config(FacsConfig::default())
    }

    /// Builds the degradation-aware controller over a custom FACS
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile.
    pub fn with_config(config: FacsConfig) -> Result<Self, FuzzyError> {
        FacsController::with_config(config).map(Self::from)
    }

    /// The wrapped plain FACS controller.
    #[must_use]
    pub fn inner(&self) -> &FacsController {
        &self.inner
    }
}

/// FACS-degrade over `inner`'s core: the two share both FLCs and the
/// configuration, and still report different
/// [`policy_key`](AdmissionController::policy_key)s.
impl From<FacsController> for FacsDegradeController {
    fn from(inner: FacsController) -> Self {
        Self { inner }
    }
}

// `fast_reject` keeps the trait default (`false`): this controller gates
// at live occupancy minus the reclaimable slack, below the live
// occupancy `FacsController`'s score bound is proven at, and admits
// self-degraded calls whose nominal cost does not fit.
impl AdmissionController for FacsDegradeController {
    fn name(&self) -> &str {
        "FACS-degrade"
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        let snapshot = cell.snapshot();
        // Gate at the effective occupancy: live occupancy minus the
        // slack a degradation plan could reclaim. Elastic headroom is
        // real capacity, and hiding it from FLC2's occupancy input
        // would make the gate reject at exactly the loads where
        // degradation matters. Rigid profiles have zero slack, so this
        // is the live snapshot and the controller degenerates to FACS.
        let effective = CellSnapshot {
            occupied: BandwidthUnits::new(
                snapshot.occupied.get().saturating_sub(cell.reclaimable().get()),
            ),
            ..snapshot
        };
        let eval = self.inner.evaluate(request, &effective);
        let profile = request.profile;
        if !eval.decision.admits() {
            return AdmissionPlan::Reject(eval.decision);
        }
        let free = cell.free();
        if profile.rb_cost_nominal <= free {
            return AdmissionPlan::Admit(eval.decision);
        }
        // Enter self-degraded on the remaining free bandwidth (>= own
        // floor). Allowed for new calls too: nobody else is squeezed.
        if profile.rb_cost_min <= free {
            return AdmissionPlan::AdmitDegraded {
                decision: eval.decision,
                squeezes: Vec::new(),
                grant: free,
            };
        }
        // Squeezing existing calls toward their floors is reserved for
        // handoffs, which would otherwise be dropped mid-call.
        if request.kind == CallKind::Handoff {
            if let Some(squeezes) = cell.degradation_squeezes(profile.rb_cost_min) {
                return AdmissionPlan::AdmitDegraded {
                    decision: eval.decision,
                    squeezes,
                    grant: profile.rb_cost_min,
                };
            }
        }
        AdmissionPlan::Reject(Decision::reject(eval.score))
    }

    /// Keyed by the wrapped core, like [`FacsController`], but as a
    /// different policy.
    fn policy_key(&self) -> Option<PolicyKey> {
        Some(PolicyKey::of::<Self, _>(&self.inner.core))
    }
}

/// The headroom a new call must leave above the live occupancy, in BU.
/// One BU keeps the flash-crowd blocking cost inside the `predict`
/// experiment's 2-point budget; two BU break it (EXPERIMENTS.md).
const NEW_CALL_HEADROOM_BU: u32 = 1;

/// FACS with a fixed new-call headroom, in the spirit of a dynamic guard
/// channel (arXiv:1502.06329): where the network is heading
/// (arXiv:1004.4444) is read off one BU above the live load, not off a
/// forecast.
///
/// * A **handoff** is gated exactly as [`FacsController`] gates it: the
///   call already exists and needs capacity now.
/// * A **new call** is admitted only if the cascade admits it both at
///   the live occupancy and at `min(live + 1, capacity)`. A new call
///   holds its bandwidth for its whole holding time, so admitting it on
///   the last BU the cascade would still grant spends the headroom the
///   next handoff needs.
///
/// [`evaluate`](Self::evaluate) reports the lower-scoring of the two
/// evaluations, so a new call never scores above plain FACS. The
/// controller holds no state besides the shared core, so every clone
/// reports one [`policy_key`](AdmissionController::policy_key).
#[derive(Debug, Clone)]
pub struct HeadroomFacsController {
    inner: FacsController,
}

impl HeadroomFacsController {
    /// Builds headroom FACS over a custom FACS configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile.
    pub fn with_config(config: FacsConfig) -> Result<Self, FuzzyError> {
        FacsController::with_config(config).map(Self::from)
    }

    /// Runs the cascade exactly as `decide` gates it, exposing the
    /// evidence: plain FACS's evaluation for a handoff, and for a new
    /// call the lower-scoring of the evaluations at the live occupancy
    /// and one BU above it. FLC1 runs once.
    #[must_use]
    pub fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        let core = &*self.inner.core;
        let Some(correction_value) = core.correction_value(request) else {
            return FacsEvaluation::firm_reject(0.0);
        };
        let live = core.gate(correction_value, request, cell);
        if request.kind != CallKind::New {
            return live;
        }
        let raised = CellSnapshot {
            occupied: BandwidthUnits::new(
                cell.occupied.get().saturating_add(NEW_CALL_HEADROOM_BU).min(cell.capacity.get()),
            ),
            ..*cell
        };
        let above = core.gate(correction_value, request, &raised);
        if above.score < live.score {
            above
        } else {
            live
        }
    }
}

/// Headroom FACS over `inner`'s core, sharing both FLCs and the
/// configuration under a [`policy_key`](AdmissionController::policy_key)
/// of its own.
impl From<FacsController> for HeadroomFacsController {
    fn from(inner: FacsController) -> Self {
        Self { inner }
    }
}

impl AdmissionController for HeadroomFacsController {
    fn name(&self) -> &str {
        "FACS-headroom"
    }

    /// A handoff goes to plain FACS's `decide`, pre-screens included. A
    /// new call that [`fast_reject`](AdmissionController::fast_reject)
    /// proves deniable is denied with the placeholder score −1.0; any
    /// other is gated on [`evaluate`](Self::evaluate).
    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        if request.kind != CallKind::New {
            return self.inner.decide(request, cell);
        }
        if self.fast_reject(&request.profile, cell) {
            return AdmissionPlan::Reject(Decision::reject(-1.0));
        }
        AdmissionPlan::gate(self.evaluate(request, &cell.snapshot()).decision)
    }

    /// Plain FACS's pre-screen: a request it proves the live cascade
    /// denies is denied here too, since a new call is admitted only where
    /// the live cascade admits it.
    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        self.inner.fast_reject(profile, cell)
    }

    /// Keyed by the wrapped core, like [`FacsController`], but as a
    /// different policy.
    fn policy_key(&self) -> Option<PolicyKey> {
        Some(PolicyKey::of::<Self, _>(&self.inner.core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facs_cac::{BandwidthUnits, CallId, ServiceClass, ServiceProfile};

    fn facs() -> FacsController {
        FacsController::new().expect("FACS builds")
    }

    fn cell(occupied: u32) -> CellSnapshot {
        CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(occupied))
    }

    /// A 40-BU ledger pre-loaded to `occupied` via one rigid filler call.
    fn ledger(occupied: u32) -> BandwidthLedger {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        if occupied > 0 {
            l.allocate(
                CallId(999),
                ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(occupied)),
            )
            .unwrap();
        }
        l
    }

    fn req(class: ServiceClass, kind: CallKind, mobility: MobilityInfo) -> CallRequest {
        CallRequest::new(CallId(1), class, kind, mobility)
    }

    #[test]
    fn admits_good_users_into_light_cell() {
        let mut facs = facs();
        let r = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0));
        assert!(facs.decide(&r, &ledger(0)).admits());
        assert!(facs.decide(&r, &ledger(5)).admits());
    }

    #[test]
    fn rejects_video_into_full_cell_even_with_perfect_mobility() {
        let mut facs = facs();
        let r = req(ServiceClass::Video, CallKind::New, MobilityInfo::new(60.0, 0.0, 1.0));
        assert!(!facs.decide(&r, &ledger(39)).admits());
    }

    #[test]
    fn good_mobility_unlocks_moderate_load() {
        let mut facs = facs();
        let good = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0));
        let bad = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(5.0, 170.0, 9.0));
        // Moderate occupancy: good mobility admitted, bad denied.
        assert!(facs.decide(&good, &ledger(20)).admits());
        assert!(!facs.decide(&bad, &ledger(20)).admits());
    }

    #[test]
    fn evaluation_exposes_cascade() {
        let facs = facs();
        let r = req(ServiceClass::Text, CallKind::New, MobilityInfo::new(90.0, 0.0, 1.0));
        let eval = facs.evaluate(&r, &cell(3));
        assert!(eval.correction_value > 0.85, "cv {}", eval.correction_value);
        assert!(eval.score > 0.0);
        assert!(eval.decision.admits());
    }

    #[test]
    fn corrupted_gps_is_firmly_rejected() {
        let facs = facs();
        let r = req(
            ServiceClass::Text,
            CallKind::New,
            MobilityInfo { speed_kmh: f64::NAN, angle_deg: 0.0, distance_km: 1.0 },
        );
        let eval = facs.evaluate(&r, &cell(0));
        assert!(!eval.decision.admits());
        assert_eq!(eval.score, -1.0);
    }

    #[test]
    fn threshold_is_configurable() {
        let strict =
            FacsController::with_config(FacsConfig { threshold: 0.6, ..FacsConfig::default() })
                .unwrap();
        let lax =
            FacsController::with_config(FacsConfig { threshold: -0.6, ..FacsConfig::default() })
                .unwrap();
        let r = req(ServiceClass::Video, CallKind::New, MobilityInfo::new(30.0, 40.0, 4.0));
        let mid_cell = cell(14);
        let eval_strict = strict.evaluate(&r, &mid_cell);
        let eval_lax = lax.evaluate(&r, &mid_cell);
        assert_eq!(eval_strict.score, eval_lax.score, "threshold must not change the score");
        assert!(!eval_strict.decision.admits());
        assert!(eval_lax.decision.admits());
    }

    #[test]
    fn handoff_bias_prioritizes_handoffs() {
        let biased =
            FacsController::with_config(FacsConfig { handoff_bias: 0.4, ..FacsConfig::default() })
                .unwrap();
        let mobility = MobilityInfo::new(5.0, 100.0, 6.0);
        let new_call = req(ServiceClass::Voice, CallKind::New, mobility);
        let handoff = req(ServiceClass::Voice, CallKind::Handoff, mobility);
        let c = cell(18);
        let s_new = biased.evaluate(&new_call, &c).score;
        let s_ho = biased.evaluate(&handoff, &c).score;
        assert!(s_ho > s_new, "handoff {s_ho} should score above new {s_new}");
    }

    #[test]
    fn paper_default_has_no_handoff_priority() {
        let facs = facs();
        let mobility = MobilityInfo::new(30.0, 20.0, 3.0);
        let new_call = req(ServiceClass::Voice, CallKind::New, mobility);
        let handoff = req(ServiceClass::Voice, CallKind::Handoff, mobility);
        let c = cell(18);
        assert_eq!(facs.evaluate(&new_call, &c).score, facs.evaluate(&handoff, &c).score);
    }

    #[test]
    fn distance_scaling_for_small_cells() {
        // In a 2-km cell, 1.8 km from the BS is "far" (9/10 scaled).
        let small = FacsController::with_config(FacsConfig {
            cell_radius_km: 2.0,
            ..FacsConfig::default()
        })
        .unwrap();
        let default = facs();
        let r = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(5.0, 0.0, 1.8));
        let eval_small = small.evaluate(&r, &cell(0));
        let eval_default = default.evaluate(&r, &cell(0));
        // Slow straight user: near => mostly cv9 (high), far => cv3 (low).
        // (The default cv stays below ~0.7 because the cv9 edge trapezoid
        // holds little in-universe area; what matters is the gap.)
        assert!(eval_default.correction_value > 0.6, "{}", eval_default.correction_value);
        assert!(eval_small.correction_value < 0.45, "{}", eval_small.correction_value);
        assert!(eval_default.correction_value > eval_small.correction_value + 0.2);
    }

    #[test]
    fn capacity_scaling_for_bigger_cells() {
        // An 80-BU cell half full should look like Cs = 20 (Middle).
        let big = facs();
        let big_cell = CellSnapshot::loaded(BandwidthUnits::new(80), BandwidthUnits::new(40));
        let r = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0));
        let eval = big.evaluate(&r, &big_cell);
        // Good cv at middle occupancy -> accept (G ? M -> A).
        assert!(eval.decision.admits());
        // Same controller, nearly full big cell -> reject.
        let full_cell = CellSnapshot::loaded(BandwidthUnits::new(80), BandwidthUnits::new(78));
        let r_vid = req(ServiceClass::Video, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0));
        assert!(!big.evaluate(&r_vid, &full_cell).decision.admits());
    }

    #[test]
    fn flc2_reads_occupancy_against_the_cells_own_capacity() {
        // Default FACS on an 80-BU cell holding 40 BU scores exactly like
        // a 40-BU cell holding 20 BU: both are half full.
        let facs = facs();
        let big = CellSnapshot::loaded(BandwidthUnits::new(80), BandwidthUnits::new(40));
        let paper = CellSnapshot::loaded(BandwidthUnits::new(40), BandwidthUnits::new(20));
        for class in ServiceClass::ALL {
            for mobility in [MobilityInfo::new(60.0, 0.0, 2.0), MobilityInfo::new(5.0, 90.0, 8.0)] {
                let r = req(class, CallKind::New, mobility);
                assert_eq!(facs.evaluate(&r, &big), facs.evaluate(&r, &paper), "{class:?}");
            }
        }
    }

    #[test]
    fn decide_matches_evaluate() {
        let mut facs = facs();
        let r = req(ServiceClass::Text, CallKind::New, MobilityInfo::new(45.0, 30.0, 5.0));
        let l = ledger(12);
        let eval = facs.evaluate(&r, &l.snapshot());
        let plan = facs.decide(&r, &l);
        assert_eq!(eval.decision.admits(), plan.admits());
        assert_eq!(eval.decision.score(), plan.decision().score());
        assert!(!plan.is_degraded(), "plain FACS never degrades");
    }

    #[test]
    fn controller_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FacsController>();
        assert_send::<FacsDegradeController>();
    }

    /// A fuzzy gate that always accepts, isolating the elastic logic.
    fn lax_degrade() -> FacsDegradeController {
        FacsDegradeController::with_config(FacsConfig { threshold: -2.0, ..FacsConfig::default() })
            .unwrap()
    }

    /// 40 BU fully occupied by four elastic video calls at nominal
    /// (each 10 BU nominal, 5 BU floor — 20 BU reclaimable).
    fn elastic_full_ledger() -> BandwidthLedger {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        for i in 0..4 {
            l.allocate(
                CallId(100 + i),
                ServiceProfile::elastic(ServiceClass::Video, BandwidthUnits::new(10), 0.5, 180.0),
            )
            .unwrap();
        }
        l
    }

    fn elastic_voice() -> ServiceProfile {
        // Nominal 5 BU, floor ceil(5 * 0.4) = 2 BU.
        ServiceProfile::elastic(ServiceClass::Voice, BandwidthUnits::new(5), 0.4, 120.0)
    }

    #[test]
    fn handoff_squeezes_elastic_calls_into_a_full_cell() {
        let mut deg = lax_degrade();
        let mut l = elastic_full_ledger();
        let r = req(ServiceClass::Voice, CallKind::Handoff, MobilityInfo::new(60.0, 0.0, 2.0))
            .with_profile(elastic_voice());
        let plan = deg.decide(&r, &l);
        match plan {
            AdmissionPlan::AdmitDegraded { ref squeezes, grant, .. } => {
                assert!(!squeezes.is_empty(), "a full cell needs squeezes");
                assert_eq!(grant, r.profile.rb_cost_min);
                // The plan must actually be applicable.
                l.admit_with_plan(r.id, r.profile, grant, squeezes).unwrap();
                assert_eq!(l.allocated_to(r.id).unwrap().get(), 2);
            }
            other => panic!("expected AdmitDegraded, got {other:?}"),
        }
    }

    #[test]
    fn new_calls_never_squeeze_existing_calls() {
        let mut deg = lax_degrade();
        let l = elastic_full_ledger();
        let r = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0))
            .with_profile(elastic_voice());
        let plan = deg.decide(&r, &l);
        assert!(!plan.admits(), "new calls may not degrade others: {plan:?}");
    }

    #[test]
    fn entering_call_self_degrades_onto_free_bandwidth() {
        let mut deg = lax_degrade();
        // 37 occupied: 3 BU free, below voice nominal (5) but >= floor (2).
        let l = ledger(37);
        let r = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0))
            .with_profile(elastic_voice());
        match deg.decide(&r, &l) {
            AdmissionPlan::AdmitDegraded { squeezes, grant, .. } => {
                assert!(squeezes.is_empty(), "self-degradation squeezes nobody");
                assert_eq!(grant.get(), 3);
            }
            other => panic!("expected AdmitDegraded, got {other:?}"),
        }
    }

    #[test]
    fn congested_handoff_is_squeezed_in_rather_than_dropped() {
        // Default threshold: the fuzzy gate genuinely rejects at full
        // occupancy but accepts at the post-squeeze occupancy, so the
        // relief branch converts a drop into a floor-grant admission.
        let mut deg = FacsDegradeController::new().unwrap();
        let mut plain = facs();
        let l = elastic_full_ledger();
        let r = req(ServiceClass::Voice, CallKind::Handoff, MobilityInfo::new(60.0, 0.0, 2.0))
            .with_profile(elastic_voice());
        assert!(!plain.decide(&r, &l).admits(), "plain FACS drops this handoff");
        match deg.decide(&r, &l) {
            AdmissionPlan::AdmitDegraded { ref squeezes, grant, decision } => {
                assert!(!squeezes.is_empty(), "a full cell needs squeezes");
                assert_eq!(grant, r.profile.rb_cost_min);
                assert!(decision.admits(), "the plan carries the accepting post-squeeze verdict");
            }
            other => panic!("expected AdmitDegraded, got {other:?}"),
        }
        // The same congested cell still rejects a *new* call: squeezing
        // existing users is reserved for calls that would be dropped.
        let n = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0))
            .with_profile(elastic_voice());
        assert!(!deg.decide(&n, &l).admits(), "new calls may not trigger relief squeezes");
    }

    #[test]
    fn rigid_profiles_degenerate_to_plain_facs() {
        let mut plain = facs();
        let mut deg = FacsDegradeController::new().unwrap();
        for occupied in 0..=40 {
            let l = ledger(occupied);
            for class in ServiceClass::ALL {
                for kind in [CallKind::New, CallKind::Handoff] {
                    let r = req(class, kind, MobilityInfo::new(45.0, 20.0, 4.0));
                    let a = plain.decide(&r, &l);
                    let b = deg.decide(&r, &l);
                    // Effective admission (fuzzy-accepted AND fitting)
                    // must match; the paper profile leaves no slack so
                    // nothing may ever be degraded.
                    assert_eq!(
                        a.admits() && l.can_fit(r.demand()),
                        b.admits(),
                        "{class} {kind:?} at occupancy {occupied}"
                    );
                    assert!(!b.is_degraded());
                }
            }
        }
    }

    #[test]
    fn compiled_backend_agrees_on_clear_cut_decisions() {
        let compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
        assert_eq!(compiled.config().backend, BackendKind::compiled());
        let good = req(ServiceClass::Voice, CallKind::New, MobilityInfo::new(60.0, 0.0, 2.0));
        let vid = req(ServiceClass::Video, CallKind::New, MobilityInfo::new(60.0, 0.0, 1.0));
        assert!(compiled.evaluate(&good, &cell(0)).decision.admits());
        assert!(!compiled.evaluate(&vid, &cell(39)).decision.admits());
    }

    #[test]
    fn compiled_backend_handles_corrupted_gps_identically() {
        let compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let r = req(
            ServiceClass::Text,
            CallKind::New,
            MobilityInfo { speed_kmh: f64::INFINITY, angle_deg: 0.0, distance_km: 1.0 },
        );
        let eval = compiled.evaluate(&r, &cell(0));
        assert!(!eval.decision.admits());
        assert_eq!(eval.score, -1.0);
    }

    /// Bits `from..=to` of a per-occupancy mask.
    fn span(from: u32, to: u32) -> u64 {
        (u64::MAX >> (63 - to)) & (u64::MAX << from)
    }

    /// Per class, the occupancies (bit `n` for `n` BU) whose rows admit
    /// at every Cv, and those of the reject tail.
    fn row_masks(bound: &ScoreBound) -> ([u64; 3], [u64; 3]) {
        let admits = bound.rows.map(|rows| {
            (0..PAPER_ROWS).filter(|&n| rows[n].admit == bound.full).fold(0, |m, n| m | 1 << n)
        });
        (admits, bound.tails.map(|tail| span(tail.min(41), 40)))
    }

    #[test]
    fn compiled_score_bound_pins_the_paper_cell_heads_and_tails() {
        let compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let heads = [17, 17, 17];
        let tails = [32, 27, 29];
        let bound = compiled.core.bound.as_ref().unwrap();
        let (admits, rejects) = row_masks(bound);
        assert_eq!(admits, heads.map(|head| span(0, head - 1)), "text/voice/video heads end (BU)");
        assert_eq!(bound.tails, tails, "text/voice/video tails (BU)");
        assert_eq!(rejects, tails.map(|tail| span(tail, 40)));
        // Against the cascade: a dense sweep of Cv through FLC2, and of
        // mobility through `evaluate` for new calls and handoffs. Every
        // proven occupancy goes one way at every input, and one BU past
        // each head and before each tail, some input goes the other.
        let flc2 = compiled.flc2();
        let threshold = compiled.config().threshold;
        let mobilities: Vec<MobilityInfo> = (0..=8)
            .flat_map(|s| (0..=12).flat_map(move |a| (0..=8).map(move |d| (s, a, d))))
            .map(|(s, a, d)| {
                MobilityInfo::new(f64::from(s) * 15.0, f64::from(a) * 15.0, f64::from(d) * 1.25)
            })
            .collect();
        for class in ServiceClass::ALL {
            let (head, tail) = (heads[class.index()], tails[class.index()]);
            for occupied in 0..=40 {
                let scores: Vec<f64> = (0..=320)
                    .map(|i| {
                        flc2.decision_score(
                            f64::from(i) / 320.0,
                            class.request_level(),
                            f64::from(occupied),
                        )
                        .unwrap()
                    })
                    .collect();
                let admitted = |kind| {
                    mobilities
                        .iter()
                        .map(|&m| compiled.evaluate(&req(class, kind, m), &cell(occupied)))
                        .map(|eval| eval.decision.admits())
                        .collect::<Vec<_>>()
                };
                let (new_calls, handoffs) = (admitted(CallKind::New), admitted(CallKind::Handoff));
                if occupied < head {
                    assert!(scores.iter().all(|&s| s > threshold), "{class} at {occupied}");
                    assert!(new_calls.iter().chain(&handoffs).all(|&a| a), "{class} at {occupied}");
                }
                if occupied >= tail {
                    assert!(scores.iter().all(|&s| s <= threshold), "{class} at {occupied}");
                    assert!(
                        !new_calls.iter().chain(&handoffs).any(|&a| a),
                        "{class} at {occupied}"
                    );
                }
                if occupied == head {
                    assert!(scores.iter().any(|&s| s <= threshold), "{class} head at {occupied}");
                }
                if occupied + 1 == tail {
                    assert!(scores.iter().any(|&s| s > threshold), "{class} tail at {occupied}");
                }
            }
            let profile = ServiceProfile::paper(class);
            assert!(compiled.fast_reject(&profile, &ledger(tail)), "{class} at {tail}");
            assert!(!compiled.fast_reject(&profile, &ledger(tail - 1)), "{class} at {}", tail - 1);
        }
        // Other capacities claim only what does not fit, and prove no
        // admission.
        let mut big = BandwidthLedger::new(BandwidthUnits::new(80));
        let filler = ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(72));
        big.allocate(CallId(999), filler).unwrap();
        let empty_big = BandwidthLedger::new(BandwidthUnits::new(80));
        for class in ServiceClass::ALL {
            let profile = ServiceProfile::paper(class);
            let unfit = !big.can_fit(profile.rb_cost_nominal);
            assert_eq!(compiled.fast_reject(&profile, &big), unfit, "{class} at 72/80");
            assert_eq!(bound.row(class, &empty_big), None, "{class} at 0/80");
        }
    }

    #[test]
    fn compiled_decide_matches_evaluate() {
        let mut compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let mobilities = [
            MobilityInfo::new(60.0, 0.0, 2.0),
            MobilityInfo::new(45.0, 30.0, 5.0),
            MobilityInfo::new(5.0, 170.0, 9.0),
            MobilityInfo { speed_kmh: f64::NAN, angle_deg: 0.0, distance_km: 1.0 },
            MobilityInfo { speed_kmh: 30.0, angle_deg: 0.0, distance_km: f64::INFINITY },
            // Finite, but the distance scaling overflows to infinity.
            MobilityInfo::new(30.0, 0.0, f64::MAX),
        ];
        let mut proven = 0;
        for occupied in 0..=40 {
            let l = ledger(occupied);
            for class in ServiceClass::ALL {
                for kind in [CallKind::New, CallKind::Handoff] {
                    for mobility in mobilities {
                        let r = req(class, kind, mobility);
                        let eval = compiled.evaluate(&r, &l.snapshot());
                        let plan = compiled.decide(&r, &l);
                        let fits = l.can_fit(r.demand());
                        assert_eq!(
                            plan.admits(),
                            fits && eval.decision.admits(),
                            "{class} {kind:?} {mobility:?} at {occupied}"
                        );
                        if plan.admits() && plan.decision().score() != eval.score {
                            assert_eq!(plan.decision().score(), 1.0, "the placeholder score");
                            proven += 1;
                        }
                    }
                }
            }
        }
        assert!(proven > 0, "no admission was proven");
    }

    #[test]
    fn exact_backend_fast_reject_is_the_capacity_check() {
        let exact = facs();
        assert_eq!(exact.core.bound, None);
        assert!(exact.cv_segments(ServiceClass::Text, 0).is_none());
        for capacity in [7, 40, 80] {
            for occupied in 0..=capacity {
                let mut l = BandwidthLedger::new(BandwidthUnits::new(capacity));
                if occupied > 0 {
                    let filler =
                        ServiceProfile::fixed(ServiceClass::Text, BandwidthUnits::new(occupied));
                    l.allocate(CallId(999), filler).unwrap();
                }
                for class in ServiceClass::ALL {
                    let profile = ServiceProfile::paper(class);
                    assert_eq!(
                        exact.fast_reject(&profile, &l),
                        !l.can_fit(profile.rb_cost_nominal),
                        "{class} at {occupied}/{capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn score_bound_follows_the_gate_and_the_handoff_bias() {
        let bound = |config: FacsConfig| {
            let facs = FacsController::with_config(FacsConfig {
                backend: BackendKind::compiled(),
                ..config
            })
            .unwrap();
            facs.core.bound.clone().unwrap()
        };
        let every = span(0, 40);
        // A gate below every score proves every admission and no
        // rejection, at every segment; a gate above every score proves
        // the reverse.
        let lax = bound(FacsConfig { threshold: -1.5, ..FacsConfig::default() });
        assert_eq!(lax.full, span(0, 31), "one bit per Cv segment");
        assert_eq!(row_masks(&lax), ([every; 3], [0; 3]));
        assert!(lax
            .rows
            .iter()
            .flatten()
            .all(|row| *row == RowProof { admit: lax.full, reject: 0 }));
        let strict = bound(FacsConfig { threshold: 1.5, ..FacsConfig::default() });
        assert_eq!(row_masks(&strict), ([0; 3], [every; 3]));
        assert!(strict
            .rows
            .iter()
            .flatten()
            .all(|row| *row == RowProof { admit: 0, reject: strict.full }));
        let plain = bound(FacsConfig::default());
        // A positive handoff bias shrinks every tail, a negative one
        // every head, and a NaN one proves no admission; segment by
        // segment too.
        let raised = bound(FacsConfig { handoff_bias: 0.3, ..FacsConfig::default() });
        let lowered = bound(FacsConfig { handoff_bias: -0.3, ..FacsConfig::default() });
        let unknown = bound(FacsConfig { handoff_bias: f64::NAN, ..FacsConfig::default() });
        let (plain_admits, plain_rejects) = row_masks(&plain);
        let (raised_admits, raised_rejects) = row_masks(&raised);
        let (lowered_admits, lowered_rejects) = row_masks(&lowered);
        for class in ServiceClass::ALL {
            let i = class.index();
            assert_eq!(raised_rejects[i] & !plain_rejects[i], 0, "{class}");
            assert!(raised_rejects[i].count_ones() < plain_rejects[i].count_ones(), "{class}");
            assert_eq!(raised_admits[i], plain_admits[i], "{class}");
            assert_eq!(lowered_admits[i] & !plain_admits[i], 0, "{class}");
            assert!(lowered_admits[i].count_ones() < plain_admits[i].count_ones(), "{class}");
            assert_eq!(lowered_rejects[i], plain_rejects[i], "{class}");
            for n in 0..PAPER_ROWS {
                let (p, r, l) = (plain.rows[i][n], raised.rows[i][n], lowered.rows[i][n]);
                assert_eq!((r.admit, r.reject & !p.reject), (p.admit, 0), "{class} at {n}");
                assert_eq!((l.reject, l.admit & !p.admit), (p.reject, 0), "{class} at {n}");
                assert_eq!(unknown.rows[i][n].admit, 0, "{class} at {n}");
            }
        }
        let raised_segments: u32 =
            raised.rows.iter().flatten().map(|r| r.reject.count_ones()).sum();
        let plain_segments: u32 = plain.rows.iter().flatten().map(|r| r.reject.count_ones()).sum();
        assert!(raised_segments < plain_segments);
    }

    #[test]
    fn reject_masks_are_tails_ending_at_full_occupancy() {
        // `fast_reject` claims a tail: a proven rejection must also
        // hold at every higher occupancy. Checked against a
        // per-occupancy proof read off the surface, over a grid of gates
        // and handoff biases. The best knot score dips between 0 and
        // 20 BU (text and voice bottom out at 10 BU), so gates near 0.82
        // prove occupancies there that the tail must leave out.
        let mut broken_tails = 0;
        for threshold in (-20..=36).map(|i| f64::from(i) * 0.025) {
            for handoff_bias in (-4..=10).map(|i| f64::from(i) * 0.05) {
                let config = FacsConfig { threshold, handoff_bias, ..FacsConfig::compiled() };
                let facs = FacsController::with_config(config).unwrap();
                let surface = facs.flc2().surface().unwrap();
                let reject_gate = threshold - handoff_bias.max(0.0) - 1e-9;
                for class in ServiceClass::ALL {
                    let per_occupancy = (0..=40u32)
                        .filter(|&n| {
                            let readings = [class.request_level(), f64::from(n)];
                            surface.first_axis_knots(&readings).unwrap().all(|v| v <= reject_gate)
                        })
                        .fold(0u64, |mask, n| mask | 1 << n);
                    let rejects = row_masks(facs.core.bound.as_ref().unwrap()).1[class.index()];
                    let first = rejects.trailing_zeros().min(41);
                    assert_eq!(rejects, span(first, 40), "{class} at {config:?}");
                    assert_eq!(rejects & !per_occupancy, 0, "{class} at {config:?}");
                    let lowest_tail = (0..=41).find(|&n| span(n, 40) & !per_occupancy == 0);
                    assert_eq!(Some(first), lowest_tail, "{class} at {config:?}");
                    broken_tails += usize::from(per_occupancy != rejects);
                }
            }
        }
        assert!(broken_tails > 0, "no gate proves an occupancy below an unproven one");
    }

    #[test]
    fn cloned_compiled_controllers_share_surfaces() {
        // A planet-scale grid clones one controller per cell, so a clone
        // must be one pointer to one shared core, not a copy of it.
        assert_eq!(std::mem::size_of::<FacsController>(), std::mem::size_of::<usize>());
        let a = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.core, &b.core), "clones must share one core");
        assert!(a.flc1().surface().unwrap().shares_samples(b.flc1().surface().unwrap()));
        assert!(a.flc2().surface().unwrap().shares_samples(b.flc2().surface().unwrap()));
    }

    /// The gate over FLC2's score, as the cascade applies it after FLC1.
    fn cascade_admits(
        flc2: &Flc2,
        config: &FacsConfig,
        class: ServiceClass,
        kind: CallKind,
        occupied: u32,
        cv: f64,
    ) -> bool {
        let mut score =
            flc2.decision_score(cv, class.request_level(), f64::from(occupied)).unwrap();
        if kind == CallKind::Handoff {
            score = (score + config.handoff_bias).clamp(-1.0, 1.0);
        }
        score = (score * 1e12).round() / 1e12;
        score > config.threshold
    }

    /// Checks every proven segment of the rows `rows` selects against the
    /// cascade: at both knots, the midpoint and one ulp inside each end,
    /// for new calls and handoffs, the segment's verdict and the verdict
    /// `decide`'s lookup reads for that Cv must both be the gate's.
    /// Returns how many segments were proven.
    fn check_segments(config: FacsConfig, rows: impl Fn(ServiceClass, u32) -> bool) -> usize {
        let facs = FacsController::with_config(config).unwrap();
        let (flc2, bound) = (facs.flc2(), facs.core.bound.as_ref().unwrap());
        let surface = flc2.surface().unwrap();
        let mut proven = 0;
        for class in ServiceClass::ALL {
            for occupied in (0..=40).filter(|&n| rows(class, n)) {
                let row = bound.rows[class.index()][occupied as usize];
                for segment in 0..32u32 {
                    let Some(verdict) = row.verdict(segment as usize) else { continue };
                    proven += 1;
                    let (low, high) = (f64::from(segment) / 32.0, f64::from(segment + 1) / 32.0);
                    let inside =
                        [f64::from_bits(low.to_bits() + 1), f64::from_bits(high.to_bits() - 1)];
                    for cv in [low, high, (low + high) / 2.0, inside[0], inside[1]] {
                        for kind in [CallKind::New, CallKind::Handoff] {
                            let admits = cascade_admits(flc2, &config, class, kind, occupied, cv);
                            let at = format!("{class} {kind:?} at {occupied} BU, Cv {cv}");
                            assert_eq!(verdict, admits, "segment {segment}: {at}");
                            if let Some(looked_up) = row.verdict_at(surface, cv) {
                                assert_eq!(looked_up, admits, "lookup: {at}");
                            }
                        }
                    }
                }
            }
        }
        proven
    }

    #[test]
    fn every_proven_segment_agrees_with_the_cascade_at_its_ends_and_middle() {
        // Every (class, occupancy, segment) at the default gate, with a
        // positive and with a negative handoff bias.
        let proven = [0.0, 0.3, -0.3].map(|handoff_bias| {
            check_segments(FacsConfig { handoff_bias, ..FacsConfig::compiled() }, |_, _| true)
        });
        // A bias of either sign widens one of the two gates by 0.3, so
        // its proofs leave more segments to FLC2.
        assert_eq!(proven, [3_936 - 43, 2_339, 2_560]);
        // Gates placed exactly on knot scores, where only the 1e-9 margin
        // keeps a knot out of both proofs: the score snap can move a
        // knot's score either way across such a gate. Each gate is checked
        // on the row its knot comes from, for new calls (no bias) and for
        // handoffs under a bias that puts the biased gate on the knot.
        let flc2 = Flc2::with_backend(InferenceConfig::default(), BackendKind::compiled()).unwrap();
        let surface = flc2.surface().unwrap();
        for class in ServiceClass::ALL {
            for occupied in [17, 24] {
                let readings = [class.request_level(), f64::from(occupied)];
                for knot in surface.first_axis_knots(&readings).unwrap() {
                    for (threshold, handoff_bias) in
                        [(knot, 0.0), (knot + 0.3, 0.3), (knot - 0.3, -0.3)]
                    {
                        let config =
                            FacsConfig { threshold, handoff_bias, ..FacsConfig::compiled() };
                        check_segments(config, |c, n| c == class && n == occupied);
                    }
                }
            }
        }
    }

    #[test]
    fn policy_table_at_the_default_gate() {
        let facs = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let surface = facs.flc2().surface().unwrap();
        let rows: Vec<(ServiceClass, u32, CvSegments)> = ServiceClass::ALL
            .into_iter()
            .flat_map(|class| (0..=40).map(move |n| (class, n)))
            .map(|(class, n)| (class, n, facs.cv_segments(class, n).unwrap()))
            .collect();
        assert!(facs.cv_segments(ServiceClass::Text, 41).is_none());
        // 43 of the 3,936 (class, occupancy, segment) cells are mixed:
        // 17 for text, 12 for voice and 14 for video.
        let mixed = |class: ServiceClass| {
            rows.iter().filter(|r| r.0 == class).map(|r| r.2.mixed().count_ones()).sum::<u32>()
        };
        assert_eq!(ServiceClass::ALL.map(mixed), [17, 12, 14]);
        assert!(rows.iter().all(|r| r.2.segments() == 32));
        // Every mixed segment holds exactly one cut of the admit set: the
        // row's cuts are the turns of the gate's verdict between knots.
        for (class, n, row) in &rows {
            let readings = [class.request_level(), f64::from(*n)];
            let knots: Vec<bool> =
                surface.first_axis_knots(&readings).unwrap().map(|v| v > 0.1).collect();
            let turns = knots.windows(2).filter(|pair| pair[0] != pair[1]).count();
            assert_eq!(row.cuts() as usize, turns, "{class} at {n}: {row}");
            assert_eq!(row.mixed().count_ones(), row.cuts(), "{class} at {n}: {row}");
        }
        // At most one cut on 120 rows; three on each 17-BU row, where the
        // lowest Cv segments reject and the middle ones both admit and
        // reject.
        assert_eq!(rows.iter().filter(|r| r.2.cuts() <= 1).count(), 120);
        let at_17: Vec<String> =
            rows.iter().filter(|r| r.1 == 17).map(|r| r.2.to_string()).collect();
        assert_eq!(
            at_17,
            [
                "RRRR?AAAAAA?RRRRRR?AAAAAAAAAAAAA",
                "RRRR?AAAAAA?RRRRRR?AAAAAAAAAAAAA",
                "RRRR?AAAAAA?RRRRR?AAAAAAAAAAAAAA"
            ]
        );
        // One cut per row from 18 BU up to the reject tail, at a Cv that
        // rises with occupancy: low Cv rejects, high Cv admits.
        for (class, n, row) in &rows {
            let tail = facs.core.bound.as_ref().unwrap().tails[class.index()];
            if (18..tail).contains(n) {
                let cut = row.mixed().trailing_zeros();
                assert_eq!(row.rejected(), span(0, cut - 1), "{class} at {n}: {row}");
                assert_eq!(row.admitted(), span(cut + 1, 31), "{class} at {n}: {row}");
            }
        }
    }

    /// Mobilities on both sides of the admission gate: a vehicle heading
    /// at the base station, a user at an angle, and a slow user moving
    /// across the bearing far out.
    const MOBILITIES: [MobilityInfo; 3] = [
        MobilityInfo { speed_kmh: 60.0, angle_deg: 0.0, distance_km: 2.0 },
        MobilityInfo { speed_kmh: 45.0, angle_deg: 20.0, distance_km: 4.0 },
        MobilityInfo { speed_kmh: 10.0, angle_deg: 90.0, distance_km: 6.0 },
    ];

    #[test]
    fn headroom_gates_handoffs_as_facs_and_new_calls_at_live_and_one_above() {
        for config in [FacsConfig::default(), FacsConfig::compiled()] {
            let mut plain = FacsController::with_config(config).unwrap();
            let mut headroom = HeadroomFacsController::from(plain.clone());
            for occupied in 0..=40 {
                let l = ledger(occupied);
                for class in ServiceClass::ALL {
                    for mobility in MOBILITIES {
                        let handoff = req(class, CallKind::Handoff, mobility);
                        assert_eq!(
                            headroom.decide(&handoff, &l),
                            plain.decide(&handoff, &l),
                            "{class} handoff at {occupied}"
                        );
                        let new = req(class, CallKind::New, mobility);
                        let above = plain.evaluate(&new, &cell((occupied + 1).min(40)));
                        assert_eq!(
                            headroom.decide(&new, &l).admits(),
                            plain.decide(&new, &l).admits() && above.decision.admits(),
                            "{class} new call at {occupied}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn headroom_turns_away_new_calls_on_the_last_admissible_bu_but_not_handoffs() {
        let plain = facs();
        let headroom = HeadroomFacsController::from(plain.clone());
        let mut turned_away = 0;
        for occupied in 0..40 {
            for class in ServiceClass::ALL {
                for mobility in MOBILITIES {
                    let new = req(class, CallKind::New, mobility);
                    let (live, above) = (
                        plain.evaluate(&new, &cell(occupied)),
                        plain.evaluate(&new, &cell(occupied + 1)),
                    );
                    let gated = headroom.evaluate(&new, &cell(occupied));
                    assert_eq!(gated, if above.score < live.score { above } else { live });
                    if live.decision.admits() && !above.decision.admits() {
                        turned_away += 1;
                        assert!(!gated.decision.admits(), "{class} new call at {occupied}");
                        let handoff = req(class, CallKind::Handoff, mobility);
                        assert!(headroom.evaluate(&handoff, &cell(occupied)).decision.admits());
                    }
                }
            }
        }
        assert!(turned_away > 0, "no new call sits on its last admissible BU");
    }

    #[test]
    fn headroom_never_reads_above_capacity() {
        // A full cell has no BU above it: the raised occupancy is the live
        // one, on the paper cell and on a bigger one alike.
        let plain = facs();
        let headroom = HeadroomFacsController::from(plain.clone());
        for full in
            [cell(40), CellSnapshot::loaded(BandwidthUnits::new(80), BandwidthUnits::new(80))]
        {
            for class in ServiceClass::ALL {
                for mobility in MOBILITIES {
                    let new = req(class, CallKind::New, mobility);
                    assert_eq!(headroom.evaluate(&new, &full), plain.evaluate(&new, &full));
                }
            }
        }
    }

    #[test]
    fn headroom_controller_is_cell_local_keyed_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HeadroomFacsController>();
        assert_eq!(std::mem::size_of::<HeadroomFacsController>(), std::mem::size_of::<usize>());
        let plain = facs();
        let headroom = HeadroomFacsController::from(plain.clone());
        assert_eq!(headroom.name(), "FACS-headroom");
        assert!(headroom.is_cell_local());
        assert!(headroom.policy_key().is_some());
        assert_eq!(headroom.policy_key(), headroom.clone().policy_key());
        assert_ne!(headroom.policy_key(), plain.policy_key());
        assert_ne!(headroom.policy_key(), FacsDegradeController::from(plain).policy_key());
    }
}
