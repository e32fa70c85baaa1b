//! Traffic generation: class mix and holding times. Arrival instants
//! come from [`crate::workload::ArrivalPattern`].

use facs_cac::ServiceClass;
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// The share of each service class in offered traffic.
///
/// The paper's mix (§4): *"The required bandwidth for voice, video and
/// text was 30%, 10%, and 60%, respectively."*
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Fraction of text calls.
    pub text: f64,
    /// Fraction of voice calls.
    pub voice: f64,
    /// Fraction of video calls.
    pub video: f64,
}

impl TrafficMix {
    /// The paper's 60 / 30 / 10 % text/voice/video mix.
    pub const PAPER: TrafficMix = TrafficMix { text: 0.6, voice: 0.3, video: 0.1 };

    /// Creates a mix; the weights need not sum to 1 (they are used as
    /// relative weights) but must be non-negative with a positive sum.
    ///
    /// # Panics
    ///
    /// Panics on negative weights or an all-zero mix.
    #[must_use]
    pub fn new(text: f64, voice: f64, video: f64) -> Self {
        assert!(
            text >= 0.0 && voice >= 0.0 && video >= 0.0,
            "negative traffic weight ({text}, {voice}, {video})"
        );
        assert!(text + voice + video > 0.0, "all-zero traffic mix");
        Self { text, voice, video }
    }

    /// A single-class mix (useful in controlled experiments).
    #[must_use]
    pub fn only(class: ServiceClass) -> Self {
        match class {
            ServiceClass::Text => Self { text: 1.0, voice: 0.0, video: 0.0 },
            ServiceClass::Voice => Self { text: 0.0, voice: 1.0, video: 0.0 },
            ServiceClass::Video => Self { text: 0.0, voice: 0.0, video: 1.0 },
        }
    }

    /// Samples a class according to the mix.
    #[must_use]
    pub fn sample(&self, rng: &mut SimRng) -> ServiceClass {
        let idx = rng.weighted_index(&[self.text, self.voice, self.video]);
        ServiceClass::ALL[idx]
    }

    /// The expected bandwidth (BU) of one call drawn from this mix.
    #[must_use]
    pub fn expected_demand_bu(&self) -> f64 {
        let total = self.text + self.voice + self.video;
        (self.text * 1.0 + self.voice * 5.0 + self.video * 10.0) / total
    }
}

impl Default for TrafficMix {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Exponentially distributed call holding times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoldingTimes {
    mean_s: f64,
}

impl HoldingTimes {
    /// Creates a distribution with the given mean (seconds).
    ///
    /// # Panics
    ///
    /// Panics unless the mean is finite and positive.
    #[must_use]
    pub fn new(mean_s: f64) -> Self {
        assert!(mean_s.is_finite() && mean_s > 0.0, "bad holding mean {mean_s}");
        Self { mean_s }
    }

    /// Mean holding time in seconds.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        self.mean_s
    }

    /// Draws one holding time, in seconds.
    #[must_use]
    pub fn sample_s(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_proportions() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            match TrafficMix::PAPER.sample(&mut rng) {
                ServiceClass::Text => counts[0] += 1,
                ServiceClass::Voice => counts[1] += 1,
                ServiceClass::Video => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.6).abs() < 0.02);
        assert!((counts[1] as f64 / 30_000.0 - 0.3).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn expected_demand_of_paper_mix() {
        // 0.6*1 + 0.3*5 + 0.1*10 = 3.1 BU.
        assert!((TrafficMix::PAPER.expected_demand_bu() - 3.1).abs() < 1e-12);
    }

    #[test]
    fn single_class_mix() {
        let mut rng = SimRng::seed_from_u64(6);
        for _ in 0..100 {
            assert_eq!(TrafficMix::only(ServiceClass::Video).sample(&mut rng), ServiceClass::Video);
        }
    }

    #[test]
    #[should_panic(expected = "all-zero traffic mix")]
    fn rejects_zero_mix() {
        let _ = TrafficMix::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn holding_time_mean_converges() {
        let holding = HoldingTimes::new(120.0);
        let mut rng = SimRng::seed_from_u64(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| holding.sample_s(&mut rng)).sum();
        assert!((sum / n as f64 - 120.0).abs() < 3.0);
    }
}
