//! The FACS admission controller: FLC1 → FLC2 cascade (paper Fig. 4).

use std::sync::Arc;

use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, CallKind, CallRequest,
    CellSnapshot, Decision, MobilityInfo, ServiceClass, ServiceProfile,
};
use facs_fuzzy::{BackendKind, FuzzyError, InferenceConfig};

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

/// The Fuzzy Admission Control System of Barolli et al. (ICDCSW 2007).
///
/// One instance serves one cell. The controller is pure over its inputs —
/// identical requests against identical cell states yield identical
/// decisions — which the reproduction's determinism rests on.
///
/// Nothing in it changes after construction, so every clone shares one
/// core (both FLCs, the configuration and the score bound) behind an
/// `Arc`: stamping one controller per cell of a planet-scale grid bumps
/// a refcount, and every cell reads the same hot surfaces.
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
    bound: ScoreBound,
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
            bound: ScoreBound::new(&flc2, &config),
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

    /// Runs the full cascade and returns every intermediate value.
    ///
    /// A corrupted (non-finite) mobility observation yields a firm
    /// rejection with `correction_value = 0` rather than an error: in a
    /// live system a broken GPS fix must not take the admission path down.
    #[must_use]
    pub fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        if !request.mobility.is_finite() {
            return FacsEvaluation {
                correction_value: 0.0,
                score: -1.0,
                decision: Decision::reject(-1.0),
            };
        }
        let core = &*self.core;
        let scaled = scale_mobility(&core.config, &request.mobility);
        let correction_value = match core.flc1.correction_value(&scaled) {
            Ok(cv) => cv,
            Err(_) => {
                return FacsEvaluation {
                    correction_value: 0.0,
                    score: -1.0,
                    decision: Decision::reject(-1.0),
                }
            }
        };
        let counter = scale_counter(cell);
        let request_bu = request.class.request_level();
        let mut score = match core.flc2.decision_score(correction_value, request_bu, counter) {
            Ok(s) => s,
            Err(_) => {
                return FacsEvaluation {
                    correction_value,
                    score: -1.0,
                    decision: Decision::reject(-1.0),
                }
            }
        };
        if request.kind == CallKind::Handoff {
            score = (score + core.config.handoff_bias).clamp(-1.0, 1.0);
        }
        // Snap to a 1e-12 grid: the sampled centroid carries ~1e-16 noise
        // which must not flip a `score > threshold` gate at exactly the
        // neutral point (a pure-NRNA surface defuzzifies to 0 ± ulp).
        score = (score * 1e12).round() / 1e12;
        FacsEvaluation {
            correction_value,
            score,
            decision: Decision::from_score(score, core.config.threshold),
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

/// Scales occupancy into FLC2's 0–40 BU counter universe according to
/// the cell's own capacity, so a half-full cell reads as `Cs = 20`
/// whatever its size.
fn scale_counter(cell: &CellSnapshot) -> f64 {
    let capacity = f64::from(cell.capacity.get().max(1));
    f64::from(cell.occupied.get()) * f64::from(PAPER_CAPACITY_BU) / capacity
}

/// Per class, the occupancies of a 40-BU cell at which the compiled FLC2
/// surface settles a request whatever its mobility: the table behind
/// [`FacsController::fast_reject`] and `decide`'s proven admissions.
///
/// On a 40-BU cell the counter is the occupancy. At a fixed (request,
/// counter) the surface's multilinear interpolant is piecewise linear
/// in Cv, so its maximum and its minimum over Cv ∈ `[0, 1]` sit at Cv
/// lattice knots ([`CompiledSurface::first_axis_extremes`]). Bit `n` of
/// a class's mask is set when occupancy `n` is *proven*:
///
/// * **admit** — every knot scores above the gate plus any negative
///   handoff bias's magnitude plus 1e-9;
/// * **reject** — every knot scores at or below the gate less any
///   positive handoff bias less 1e-9, and so does every knot at every
///   higher occupancy up to 40.
///
/// The 1e-9 covers float error, far above the 1e-12 score snap. FLC2 is
/// not monotone in occupancy, so admissions are proven one occupancy at
/// a time; rejections are kept as a tail ending at 40 because
/// predictive FACS forwards to [`FacsController::fast_reject`] and then
/// gates at an occupancy at or above the live one. The proofs cover
/// every Cv, so FLC1 and the distance scaling play no part in them.
/// Other capacities claim nothing.
///
/// [`CompiledSurface::first_axis_extremes`]: facs_fuzzy::CompiledSurface::first_axis_extremes
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScoreBound {
    admits: [u64; 3],
    rejects: [u64; 3],
}

impl ScoreBound {
    /// Proves nothing: the exact backend has no lattice to bound over.
    const NONE: Self = Self { admits: [0; 3], rejects: [0; 3] };

    /// Reads the knot extremes off the surface once per (class,
    /// occupancy), without running `decision_score`.
    fn new(flc2: &Flc2, config: &FacsConfig) -> Self {
        let Some(surface) = flc2.surface() else {
            return Self::NONE;
        };
        // A NaN bias turns every handoff score into NaN, which never
        // admits.
        let admit_gate = if config.handoff_bias.is_nan() {
            f64::INFINITY
        } else {
            config.threshold + (-config.handoff_bias).max(0.0) + 1e-9
        };
        let reject_gate = config.threshold - config.handoff_bias.max(0.0) - 1e-9;
        let mut bound = Self::NONE;
        for class in ServiceClass::ALL {
            let (admits, rejects) =
                (&mut bound.admits[class.index()], &mut bound.rejects[class.index()]);
            let mut tail_unbroken = true;
            for occupied in (0..=PAPER_CAPACITY_BU).rev() {
                let (lowest, highest) = surface
                    .first_axis_extremes(&[class.request_level(), f64::from(occupied)])
                    .expect("finite readings on FLC2's three axes");
                if lowest > admit_gate {
                    *admits |= 1 << occupied;
                }
                tail_unbroken &= highest <= reject_gate;
                if tail_unbroken {
                    *rejects |= 1 << occupied;
                }
            }
        }
        bound
    }

    /// `true` when `class` is admitted into `cell` at every Cv.
    #[inline]
    fn admits(&self, class: ServiceClass, cell: &BandwidthLedger) -> bool {
        proven(self.admits[class.index()], cell)
    }

    /// `true` when `class` cannot be admitted into `cell` at any Cv, at
    /// this occupancy or any higher one.
    #[inline]
    fn rejects(&self, class: ServiceClass, cell: &BandwidthLedger) -> bool {
        proven(self.rejects[class.index()], cell)
    }
}

/// Whether `mask` holds the occupancy of `cell`, a 40-BU cell.
#[inline]
fn proven(mask: u64, cell: &BandwidthLedger) -> bool {
    cell.capacity().get() == PAPER_CAPACITY_BU
        && mask.checked_shr(cell.occupied().get()).is_some_and(|rest| rest & 1 != 0)
}

impl AdmissionController for FacsController {
    fn name(&self) -> &str {
        "FACS"
    }

    /// Pre-screens both ways before running the cascade:
    ///
    /// * a request that [`fast_reject`](AdmissionController::fast_reject)
    ///   proves deniable is denied with the placeholder score −1.0;
    /// * on the compiled backend, a request whose class the surface
    ///   admits at every Cv at this occupancy of a 40-BU cell is admitted
    ///   with the placeholder score +1.0, unless its mobility is
    ///   non-finite or overflows the distance scaling, which
    ///   [`evaluate`](FacsController::evaluate) rejects.
    ///
    /// Either way the admission outcome is the cascade's; only the plan's
    /// score differs. Every other request is gated on `evaluate`.
    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        if self.fast_reject(&request.profile, cell) {
            return AdmissionPlan::Reject(Decision::reject(-1.0));
        }
        let core = &*self.core;
        if core.bound.admits(request.class, cell)
            && scale_mobility(&core.config, &request.mobility).is_finite()
        {
            return AdmissionPlan::Admit(Decision::accept(1.0));
        }
        AdmissionPlan::gate(self.evaluate(request, &cell.snapshot()).decision)
    }

    /// Plain FACS never degrades or squeezes, so a profile whose nominal
    /// cost does not fit is denied for any mobility and kind; on the
    /// compiled backend, so is one whose class the surface cannot score
    /// over the gate at this or any higher occupancy of a 40-BU cell.
    /// `decide` answers such a request with the placeholder score −1.0.
    fn fast_reject(&self, profile: &ServiceProfile, cell: &BandwidthLedger) -> bool {
        !cell.can_fit(profile.rb_cost_nominal) || self.core.bound.rejects(profile.class, cell)
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
        Ok(Self { inner: FacsController::with_config(config)? })
    }

    /// The wrapped plain FACS controller.
    #[must_use]
    pub fn inner(&self) -> &FacsController {
        &self.inner
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

    #[test]
    fn compiled_score_bound_pins_the_paper_cell_heads_and_tails() {
        let compiled = FacsController::with_config(FacsConfig::compiled()).unwrap();
        let heads = [17, 17, 17];
        let tails = [32, 27, 29];
        let bound = compiled.core.bound;
        assert_eq!(
            bound.admits,
            heads.map(|head| span(0, head - 1)),
            "text/voice/video heads end (BU)"
        );
        assert_eq!(bound.rejects, tails.map(|tail| span(tail, 40)), "text/voice/video tails (BU)");
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
            assert!(!bound.admits(class, &empty_big), "{class} at 0/80");
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
        assert_eq!(exact.core.bound, ScoreBound::NONE);
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
            FacsController::with_config(FacsConfig { backend: BackendKind::compiled(), ..config })
                .unwrap()
                .core
                .bound
        };
        let every = span(0, 40);
        // A gate below every score proves every admission and no
        // rejection; a gate above every score proves the reverse.
        let lax = bound(FacsConfig { threshold: -1.5, ..FacsConfig::default() });
        assert_eq!(lax, ScoreBound { admits: [every; 3], rejects: [0; 3] });
        let strict = bound(FacsConfig { threshold: 1.5, ..FacsConfig::default() });
        assert_eq!(strict, ScoreBound { admits: [0; 3], rejects: [every; 3] });
        let plain = bound(FacsConfig::default());
        // A positive handoff bias shrinks every tail, a negative one
        // every head, and a NaN one proves no admission.
        let raised = bound(FacsConfig { handoff_bias: 0.3, ..FacsConfig::default() });
        let lowered = bound(FacsConfig { handoff_bias: -0.3, ..FacsConfig::default() });
        let unknown = bound(FacsConfig { handoff_bias: f64::NAN, ..FacsConfig::default() });
        for class in ServiceClass::ALL {
            let i = class.index();
            assert_eq!(raised.rejects[i] & !plain.rejects[i], 0, "{class}");
            assert!(raised.rejects[i].count_ones() < plain.rejects[i].count_ones(), "{class}");
            assert_eq!(raised.admits[i], plain.admits[i], "{class}");
            assert_eq!(lowered.admits[i] & !plain.admits[i], 0, "{class}");
            assert!(lowered.admits[i].count_ones() < plain.admits[i].count_ones(), "{class}");
            assert_eq!(lowered.rejects[i], plain.rejects[i], "{class}");
            assert_eq!(unknown.admits[i], 0, "{class}");
        }
    }

    #[test]
    fn reject_masks_are_tails_ending_at_full_occupancy() {
        // Predictive FACS gates at or above the live occupancy, so a
        // proven rejection must also hold at every higher occupancy.
        // Checked against a per-occupancy proof read off the surface,
        // over a grid of gates and handoff biases. The best knot score
        // dips between 0 and 20 BU (text and voice bottom out at 10 BU),
        // so gates near 0.82 prove occupancies there that the tail
        // must leave out.
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
                            surface.first_axis_extremes(&readings).unwrap().1 <= reject_gate
                        })
                        .fold(0u64, |mask, n| mask | 1 << n);
                    let rejects = facs.core.bound.rejects[class.index()];
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
}
