//! Small-sample statistics for replication series: mean, sample standard
//! deviation, and Student-t confidence intervals.
//!
//! Simulation papers report curves averaged over a handful of seeded
//! replications; a point estimate without an interval hides whether two
//! curves actually separate. [`Summary`] carries both.

/// Two-sided 95 % Student-t critical values for 1..=30 degrees of
/// freedom; beyond 30 the normal approximation (1.96) is used.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary statistics of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval on the mean
    /// (0 for n < 2).
    pub ci95_half_width: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values — replication
    /// results are produced by this workspace, so garbage is a bug.
    #[must_use]
    pub fn of(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "empty sample");
        assert!(sample.iter().all(|v| v.is_finite()), "non-finite sample value");
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Self { n, mean, std_dev: 0.0, ci95_half_width: 0.0 };
        }
        let var = sample.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        let df = n - 1;
        let t = if df <= 30 { T_95[df - 1] } else { 1.96 };
        let ci95_half_width = t * std_dev / (n as f64).sqrt();
        Self { n, mean, std_dev, ci95_half_width }
    }

    /// The interval `(lower, upper)` of the 95 % CI on the mean.
    #[must_use]
    pub fn ci95(&self) -> (f64, f64) {
        (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.ci95_half_width, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev - 2.138).abs() < 1e-3);
    }

    #[test]
    fn single_value_has_zero_spread() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width, 0.0);
        assert_eq!(s.ci95(), (42.0, 42.0));
    }

    #[test]
    fn ci_uses_t_distribution_for_small_n() {
        // n = 2, df = 1: t = 12.706 — the CI must be enormous.
        let s = Summary::of(&[0.0, 1.0]);
        assert!((s.ci95_half_width - 12.706 * s.std_dev / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn ci_narrows_with_more_samples() {
        let wide = Summary::of(&[9.0, 10.0, 11.0]);
        let narrow = Summary::of(&[9.0, 10.0, 11.0, 9.0, 10.0, 11.0, 9.0, 10.0, 11.0]);
        assert!(narrow.ci95_half_width < wide.ci95_half_width);
    }

    #[test]
    fn large_samples_use_normal_approximation() {
        let sample: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let s = Summary::of(&sample);
        let expected = 1.96 * s.std_dev / 10.0;
        assert!((s.ci95_half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn display_reads_naturally() {
        let s = Summary::of(&[70.0, 72.0, 71.0]);
        assert_eq!(s.to_string(), "71.00 ± 2.48 (n=3)");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }
}
