//! Predictive FACS: the reactive cascade of [`FacsController`] fed a
//! **forecast** occupancy for new calls.
//!
//! [`PredictiveFacsController`] keeps one EWMA/Holt forecaster per
//! service class and gates new calls at the forecast occupancy, at a
//! horizon equal to the cell's mean handoff interarrival (estimated
//! online). The intelligent decision mechanism of arXiv:1004.4444
//! motivates the shape: condition admission on where the network is
//! *heading*, not where it is.
//!
//! The controller is strictly **cell-local**: every input to its
//! mutable state arrives through `decide`/`observe` on its own cell, so
//! each cell's update stream — and therefore the whole simulation —
//! stays bit-identical across shard counts.

use facs_cac::{
    AdmissionController, AdmissionPlan, BandwidthLedger, BandwidthUnits, BoxedController, CallKind,
    CallRequest, CellSnapshot, Decision, EwmaHoltForecaster, InterarrivalEstimator,
};
use facs_fuzzy::FuzzyError;

use crate::controller::{FacsConfig, FacsController, FacsEvaluation};

/// Horizon used before enough handoffs have been seen to estimate the
/// cell's mean handoff interarrival — one default movement tick.
const DEFAULT_HORIZON_S: f64 = 5.0;
/// Handoffs required before the measured interarrival replaces the
/// default horizon.
const HORIZON_MIN_EVENTS: u64 = 8;
/// Epoch samples each per-class forecaster needs before its forecasts
/// are trusted over the live counter (cold start falls back to
/// reactive FACS).
const WARMUP_SAMPLES: u64 = 4;

/// FACS with a per-cell, per-class load forecaster in the loop.
///
/// **New calls** are gated at the forecast occupancy — the sum of the
/// three per-class forecasts at the handoff-interarrival horizon —
/// because a new call is an investment over its whole holding time:
/// admitting it on a rising cell spends exactly the headroom the next
/// handoff will need. **Handoffs** are gated at the live counter: the
/// call already exists and needs capacity *now*, so denying it on a
/// pessimistic forecast would manufacture drops. The asymmetry is what
/// converts forecast skill into a lower drop probability at comparable
/// new-call blocking.
///
/// Until the forecasters warm up (`WARMUP_SAMPLES` epoch samples) or
/// when nothing pulses `observe` (a controller driven outside the
/// kernel), the controller degrades to plain reactive FACS.
#[derive(Debug, Clone)]
pub struct PredictiveFacsController {
    inner: FacsController,
    per_class: [EwmaHoltForecaster; 3],
    horizon: InterarrivalEstimator,
}

impl PredictiveFacsController {
    /// Predictive FACS over the EWMA/Holt forecaster
    /// ([`EwmaHoltForecaster::default_profile`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the FLCs fail to compile.
    pub fn ewma(config: FacsConfig) -> Result<Self, FuzzyError> {
        let forecaster = EwmaHoltForecaster::default_profile();
        Ok(Self {
            inner: FacsController::with_config(config)?,
            per_class: [forecaster.clone(), forecaster.clone(), forecaster],
            horizon: InterarrivalEstimator::new(DEFAULT_HORIZON_S, HORIZON_MIN_EVENTS),
        })
    }

    /// A cloneable per-cell factory sharing one compiled prototype: rule
    /// compilation (and, on the compiled backend, surface precomputation)
    /// happens once here, and every call hands out a clone, so a sharded
    /// simulation pays a single compile.
    ///
    /// # Errors
    ///
    /// Propagates [`FuzzyError`] if the prototype fails to build.
    pub fn ewma_factory(
        config: FacsConfig,
    ) -> Result<impl Fn() -> BoxedController + Send + Sync + Clone, FuzzyError> {
        let prototype = Self::ewma(config)?;
        Ok(move || Box::new(prototype.clone()) as BoxedController)
    }

    /// The wrapped reactive FACS controller.
    #[must_use]
    pub fn inner(&self) -> &FacsController {
        &self.inner
    }

    /// The forecast horizon currently in use (seconds): the measured
    /// mean handoff interarrival, or the default during warm-up.
    #[must_use]
    pub fn horizon_s(&self) -> f64 {
        self.horizon.mean_interarrival_s()
    }

    /// Total forecast occupancy (BU) at the current horizon — the value
    /// fed to FLC2 for a new call once warm.
    #[must_use]
    pub fn forecast_occupancy_bu(&self) -> f64 {
        let h = self.horizon.mean_interarrival_s();
        self.per_class.iter().map(|f| f.forecast(h)).sum()
    }

    fn warm(&self) -> bool {
        self.per_class.iter().all(|f| f.samples() >= WARMUP_SAMPLES)
    }

    /// Runs the cascade exactly as `decide` will, exposing the evidence.
    #[must_use]
    pub fn evaluate(&self, request: &CallRequest, cell: &CellSnapshot) -> FacsEvaluation {
        self.inner.evaluate(request, &self.gate_snapshot(request, cell))
    }

    /// The snapshot the cascade is consulted at: live for handoffs and
    /// cold starts, `max(live, forecast)` for new calls once warm.
    /// Taking the max means a forecast that lags a ramp-down never feeds
    /// FLC2 a lower occupancy than the live one. The gate is still not
    /// strictly monotone: FLC2's score can rise by up to ~0.07 as
    /// occupancy rises, so a higher forecast occupancy can occasionally
    /// admit a new call the live occupancy would have refused.
    fn gate_snapshot(&self, request: &CallRequest, cell: &CellSnapshot) -> CellSnapshot {
        if request.kind != CallKind::New || !self.warm() {
            return *cell;
        }
        let cap = f64::from(cell.capacity.get());
        let predicted = self.forecast_occupancy_bu().round().clamp(0.0, cap) as u32;
        let occ = predicted.max(cell.occupied.get());
        CellSnapshot { occupied: BandwidthUnits::new(occ), ..*cell }
    }
}

impl AdmissionController for PredictiveFacsController {
    fn name(&self) -> &str {
        "FACS-predict-ewma"
    }

    fn decide(&mut self, request: &CallRequest, cell: &BandwidthLedger) -> AdmissionPlan {
        if request.kind == CallKind::Handoff {
            self.horizon.record_event();
        }
        // Pre-screen, exactly like reactive FACS: a request the live
        // cell proves deniable is denied whatever the (live or forecast)
        // cascade would say.
        if self.fast_reject(&request.profile, cell) {
            return AdmissionPlan::Reject(Decision::reject(-1.0));
        }
        let snapshot = cell.snapshot();
        AdmissionPlan::gate(
            self.inner.evaluate(request, &self.gate_snapshot(request, &snapshot)).decision,
        )
    }

    fn fast_reject(&self, profile: &facs_cac::ServiceProfile, cell: &BandwidthLedger) -> bool {
        // Reactive FACS's proof holds here too: the gate occupancy is
        // the live one or `max(live, forecast)` clamped to capacity,
        // never below live, so it stays inside the proven tail. The
        // engine pre-screens new-call arrivals only, which `decide`
        // would not count towards the handoff horizon either.
        self.inner.fast_reject(profile, cell)
    }

    fn observe(&mut self, now_s: f64, cell: &BandwidthLedger) {
        self.horizon.advance(now_s);
        let mut by_class = [0u32; 3];
        for (_, alloc) in cell.iter() {
            by_class[alloc.profile.class.index()] += alloc.allocated.get();
        }
        for (i, forecaster) in self.per_class.iter_mut().enumerate() {
            forecaster.observe(now_s, f64::from(by_class[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facs_cac::{CallId, MobilityInfo, ServiceClass, ServiceProfile};

    fn req(class: ServiceClass, kind: CallKind) -> CallRequest {
        CallRequest::new(CallId(1), class, kind, MobilityInfo::new(45.0, 20.0, 4.0))
    }

    /// A 40-BU ledger pre-loaded to `occupied` via one rigid filler call.
    fn ledger(occupied: u32) -> BandwidthLedger {
        let mut l = BandwidthLedger::new(BandwidthUnits::new(40));
        if occupied > 0 {
            l.allocate(
                CallId(999),
                ServiceProfile::fixed(ServiceClass::Voice, BandwidthUnits::new(occupied)),
            )
            .unwrap();
        }
        l
    }

    #[test]
    fn cold_start_matches_reactive_facs() {
        let mut predictive = PredictiveFacsController::ewma(FacsConfig::default()).unwrap();
        let mut plain = FacsController::new().unwrap();
        for occupied in [0, 10, 20, 30, 39] {
            let l = ledger(occupied);
            for kind in [CallKind::New, CallKind::Handoff] {
                for class in ServiceClass::ALL {
                    let r = req(class, kind);
                    assert_eq!(
                        predictive.decide(&r, &l).admits(),
                        plain.decide(&r, &l).admits(),
                        "{class} {kind:?} at {occupied}"
                    );
                }
            }
        }
    }

    #[test]
    fn rising_load_makes_new_calls_stricter_but_not_handoffs() {
        let mut predictive = PredictiveFacsController::ewma(FacsConfig::default()).unwrap();
        let plain = FacsController::new().unwrap();
        // Steep ramp: 4 -> 28 BU over six epochs. Holt extrapolates on
        // (level lags the ramp, but level + trend·h clears the live 20).
        for (i, occ) in [4u32, 9, 14, 19, 24, 28].iter().enumerate() {
            predictive.observe(i as f64 * 5.0, &ledger(*occ));
        }
        assert!(predictive.forecast_occupancy_bu() > 24.0, "trend must extrapolate upward");
        // Gate at live occupancy 20 (middle): plain FACS admits a good
        // voice call; the predictive gate sees the forecast instead.
        let l = ledger(20);
        let good = CallRequest::new(
            CallId(7),
            ServiceClass::Voice,
            CallKind::New,
            MobilityInfo::new(60.0, 0.0, 2.0),
        );
        let plain_eval = plain.evaluate(&good, &l.snapshot());
        let pred_eval = predictive.evaluate(&good, &l.snapshot());
        assert!(plain_eval.decision.admits());
        assert!(
            pred_eval.score < plain_eval.score,
            "forecast gate must be stricter on a rising cell: {} vs {}",
            pred_eval.score,
            plain_eval.score
        );
        // The same request as a handoff is scored at the live counter.
        let handoff = CallRequest::new(
            CallId(8),
            ServiceClass::Voice,
            CallKind::Handoff,
            MobilityInfo::new(60.0, 0.0, 2.0),
        );
        assert_eq!(
            predictive.evaluate(&handoff, &l.snapshot()).score,
            plain.evaluate(&handoff, &l.snapshot()).score,
            "handoffs are gated at live occupancy"
        );
    }

    #[test]
    fn horizon_tracks_mean_handoff_interarrival() {
        let mut p = PredictiveFacsController::ewma(FacsConfig::default()).unwrap();
        assert_eq!(p.horizon_s(), DEFAULT_HORIZON_S);
        let l = ledger(0);
        // 10 handoffs over 50 seconds of epochs -> mean interarrival 5 s;
        // then another 40 s without handoffs stretches it to 9 s.
        for i in 0..10u64 {
            p.decide(&req(ServiceClass::Voice, CallKind::Handoff), &l);
            p.observe(i as f64 * 5.0, &l);
        }
        assert!((p.horizon_s() - 4.5).abs() < 1e-9, "{}", p.horizon_s());
        for i in 10..19u64 {
            p.observe(i as f64 * 5.0, &l);
        }
        assert!((p.horizon_s() - 9.0).abs() < 1e-9, "{}", p.horizon_s());
    }

    #[test]
    fn forecast_never_exceeds_capacity_at_the_gate() {
        let mut p = PredictiveFacsController::ewma(FacsConfig::default()).unwrap();
        for i in 0..8u64 {
            p.observe(i as f64 * 5.0, &ledger((5 * i as u32 + 5).min(40)));
        }
        let snapshot =
            p.gate_snapshot(&req(ServiceClass::Text, CallKind::New), &ledger(38).snapshot());
        assert!(snapshot.occupied.get() <= 40);
    }

    #[test]
    fn predictive_controllers_are_cell_local_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PredictiveFacsController>();
        let p = PredictiveFacsController::ewma(FacsConfig::default()).unwrap();
        assert!(p.is_cell_local());
        assert_eq!(p.name(), "FACS-predict-ewma");
    }
}
