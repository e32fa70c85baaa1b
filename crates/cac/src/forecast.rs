//! Per-cell load forecasting for predictive admission control.
//!
//! An intelligent decision mechanism that conditions admission on
//! predicted network state (arXiv:1004.4444) needs an answer to "where
//! will this cell's load be `h` seconds from now?". This module provides
//! it: an [`EwmaHoltForecaster`] fed one occupancy sample per epoch from
//! the [`observe`](crate::AdmissionController::observe) hook, plus the
//! [`InterarrivalEstimator`] that sets the look-ahead horizon.
//!
//! The forecaster is **deterministic given the sample stream**: no
//! wall-clock, no global entropy, every update a fixed sequence of float
//! ops. A forecaster owned by a cell-local controller therefore preserves
//! the kernel's bit-reproducibility across shard counts.

/// EWMA level + Holt linear-trend forecaster.
///
/// With smoothing factors `alpha` (level) and `beta` (trend), each
/// sample `x` at elapsed `dt` seconds updates
///
/// ```text
/// level' = alpha * x + (1 - alpha) * (level + trend * dt)
/// trend' = beta * (level' - level) / dt + (1 - beta) * trend
/// ```
///
/// and `forecast(h) = max(0, level + trend * h)`. `beta = 0` degenerates
/// to a plain EWMA (the trend stays 0), which
/// [`EwmaHoltForecaster::ewma`] exposes directly.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaHoltForecaster {
    alpha: f64,
    beta: f64,
    level: f64,
    /// Trend in BU per second.
    trend: f64,
    last_t: f64,
    samples: u64,
}

impl EwmaHoltForecaster {
    /// Creates a Holt forecaster with level factor `alpha` and trend
    /// factor `beta`, both clamped into `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        Self {
            alpha: alpha.clamp(0.0, 1.0),
            beta: beta.clamp(0.0, 1.0),
            level: 0.0,
            trend: 0.0,
            last_t: 0.0,
            samples: 0,
        }
    }

    /// A trend-free EWMA with smoothing factor `alpha`.
    #[must_use]
    pub fn ewma(alpha: f64) -> Self {
        Self::new(alpha, 0.0)
    }

    /// The defaults used by the predictive FACS controller: responsive
    /// level, damped trend.
    #[must_use]
    pub fn default_profile() -> Self {
        Self::new(0.4, 0.2)
    }

    /// The smoothed level (BU).
    #[must_use]
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The smoothed trend (BU per second).
    #[must_use]
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Feeds one occupancy sample (in BU) observed at `now_s` seconds.
    /// Samples arrive in increasing time order; non-finite samples are
    /// ignored.
    pub fn observe(&mut self, now_s: f64, occupied_bu: f64) {
        if !occupied_bu.is_finite() || !now_s.is_finite() {
            return;
        }
        if self.samples == 0 {
            self.level = occupied_bu;
            self.trend = 0.0;
        } else {
            let dt = (now_s - self.last_t).max(f64::MIN_POSITIVE);
            let prev_level = self.level;
            let predicted = self.level + self.trend * dt;
            self.level = self.alpha * occupied_bu + (1.0 - self.alpha) * predicted;
            self.trend =
                self.beta * (self.level - prev_level) / dt + (1.0 - self.beta) * self.trend;
        }
        self.last_t = now_s;
        self.samples += 1;
    }

    /// Predicted occupancy (BU, `>= 0`) `horizon_s` seconds past the
    /// last sample; 0 before any sample arrives.
    #[must_use]
    pub fn forecast(&self, horizon_s: f64) -> f64 {
        (self.level + self.trend * horizon_s.max(0.0)).max(0.0)
    }

    /// Number of samples consumed so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Online estimator of the mean interarrival of a recurring event —
/// used by the predictive controller to set the forecast horizon to the
/// cell's mean handoff interarrival, as the related work prescribes.
///
/// Events are *counted* as they occur (no timestamps needed at the
/// decision site); elapsed time advances at the epoch cadence. The mean
/// interarrival is simply `elapsed / events`, with a configurable
/// default until enough events accumulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterarrivalEstimator {
    events: u64,
    first_t: f64,
    last_t: f64,
    started: bool,
    default_s: f64,
    min_events: u64,
}

impl InterarrivalEstimator {
    /// Creates an estimator that answers `default_s` until `min_events`
    /// events have been counted.
    #[must_use]
    pub fn new(default_s: f64, min_events: u64) -> Self {
        Self {
            events: 0,
            first_t: 0.0,
            last_t: 0.0,
            started: false,
            default_s: default_s.max(0.0),
            min_events: min_events.max(1),
        }
    }

    /// Counts one event occurrence.
    pub fn record_event(&mut self) {
        self.events += 1;
    }

    /// Advances the elapsed-time clock to `now_s` (monotone).
    pub fn advance(&mut self, now_s: f64) {
        if !self.started {
            self.first_t = now_s;
            self.started = true;
        }
        self.last_t = self.last_t.max(now_s);
    }

    /// The estimated mean interarrival in seconds.
    #[must_use]
    pub fn mean_interarrival_s(&self) -> f64 {
        let elapsed = self.last_t - self.first_t;
        if self.events < self.min_events || elapsed <= 0.0 {
            self.default_s
        } else {
            elapsed / self.events as f64
        }
    }

    /// Events counted so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_matches_closed_form() {
        let alpha = 0.3;
        let xs = [10.0, 14.0, 9.0, 20.0, 18.0, 25.0, 7.0, 13.0];
        let mut f = EwmaHoltForecaster::ewma(alpha);
        for (i, &x) in xs.iter().enumerate() {
            f.observe(i as f64 * 5.0, x);
        }
        // Closed form with level_0 = x_0:
        // level_n = (1-a)^n x_0 + a * sum_{k=1..n} (1-a)^{n-k} x_k.
        let n = xs.len() - 1;
        let mut expect = (1.0 - alpha).powi(n as i32) * xs[0];
        for (k, &x) in xs.iter().enumerate().skip(1) {
            expect += alpha * (1.0 - alpha).powi((n - k) as i32) * x;
        }
        assert!(
            (f.level() - expect).abs() < 1e-9,
            "recursive {} vs closed form {expect}",
            f.level()
        );
        assert_eq!(f.trend(), 0.0, "beta = 0 must never grow a trend");
        assert_eq!(f.forecast(100.0), f.level(), "trend-free forecast is flat");
        assert_eq!(f.samples(), xs.len() as u64);
    }

    #[test]
    fn holt_tracks_a_linear_ramp() {
        let mut f = EwmaHoltForecaster::new(0.5, 0.3);
        // x(t) = 2 + 0.6 t sampled every 5 s.
        for i in 0..200 {
            let t = f64::from(i) * 5.0;
            f.observe(t, 2.0 + 0.6 * t);
        }
        let t_last = 199.0 * 5.0;
        for horizon in [5.0, 10.0, 20.0] {
            let truth = 2.0 + 0.6 * (t_last + horizon);
            let got = f.forecast(horizon);
            assert!(
                (got - truth).abs() < 1.0,
                "horizon {horizon}: forecast {got} vs truth {truth}"
            );
        }
        assert!((f.trend() - 0.6).abs() < 0.05, "trend {} should approach 0.6", f.trend());
    }

    #[test]
    fn forecasts_never_go_negative() {
        let mut f = EwmaHoltForecaster::new(0.5, 0.5);
        for i in 0..20 {
            // A steep dive toward zero.
            f.observe(f64::from(i), (40.0 - 10.0 * f64::from(i)).max(0.0));
        }
        assert!(f.forecast(50.0) >= 0.0);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut f = EwmaHoltForecaster::ewma(0.5);
        f.observe(0.0, 10.0);
        f.observe(1.0, f64::NAN);
        f.observe(f64::INFINITY, 20.0);
        assert_eq!(f.samples(), 1);
        assert_eq!(f.level(), 10.0);
    }

    #[test]
    fn cloned_forecasters_evolve_identically() {
        let mut a = EwmaHoltForecaster::default_profile();
        for i in 0..50u64 {
            a.observe(i as f64, (i % 7) as f64);
        }
        let mut b = a.clone();
        for i in 50..120u64 {
            let x = (i % 11) as f64;
            a.observe(i as f64, x);
            b.observe(i as f64, x);
        }
        assert_eq!(a, b);
        assert_eq!(a.forecast(3.0).to_bits(), b.forecast(3.0).to_bits());
    }

    #[test]
    fn interarrival_estimator_defaults_then_measures() {
        let mut est = InterarrivalEstimator::new(7.5, 4);
        assert_eq!(est.mean_interarrival_s(), 7.5, "no data: default");
        est.advance(0.0);
        est.record_event();
        est.record_event();
        est.advance(30.0);
        assert_eq!(est.mean_interarrival_s(), 7.5, "below min_events: default");
        est.record_event();
        est.record_event();
        est.advance(40.0);
        assert_eq!(est.events(), 4);
        assert!((est.mean_interarrival_s() - 10.0).abs() < 1e-12);
    }
}
