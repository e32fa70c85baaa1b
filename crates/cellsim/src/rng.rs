//! Seeded randomness for reproducible simulations.
//!
//! All stochastic draws in the simulator flow through [`SimRng`] so a run
//! is fully determined by its seed. Distribution sampling (exponential,
//! normal) is implemented here directly — `rand_distr` is not on the
//! dependency allowlist, and the two samplers we need are tiny.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source with the distribution helpers the simulator
/// needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { inner: StdRng::seed_from_u64(seed) }
    }

    /// Splits off an independent generator for a subsystem, derived from
    /// this generator's stream and a domain tag. Subsystems with separate
    /// streams stay reproducible even if one of them changes how many
    /// draws it makes.
    #[must_use]
    pub fn split(&mut self, domain: u64) -> SimRng {
        let seed = self.inner.gen::<u64>() ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// Uniform draw in `[0, 1)`.
    #[must_use]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    #[must_use]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    #[must_use]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "bad exponential mean {mean}");
        // 1 - U in (0, 1] avoids ln(0).
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Standard-normal draw via Box–Muller (one value per call; the spare
    /// is discarded). Every [`Walker`](crate::mobility::Walker) step the
    /// kernel applies makes one such draw, so its `ln`, `sqrt` and `cos`
    /// are a large share of a movement-heavy run's time. Changing the
    /// sampler changes every user's stream, and with it every golden
    /// digest.
    #[must_use]
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    #[must_use]
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(sigma.is_finite() && sigma >= 0.0, "bad sigma {sigma}");
        mean + sigma * self.standard_normal()
    }

    /// Weighted choice: returns the index of the selected weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero/non-finite.
    #[must_use]
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total.is_finite() && total > 0.0, "bad weights {weights:?}");
        let mut draw = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return i;
            }
            draw -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(7);
        let mut root2 = SimRng::seed_from_u64(7);
        let mut a1 = root1.split(1);
        let mut a2 = root2.split(1);
        assert_eq!(a1.uniform(), a2.uniform());
        let mut b1 = root1.split(2);
        assert_ne!(a1.uniform(), b1.uniform());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.uniform_range(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / f64::from(n);
        assert!((sample_mean - mean).abs() < 0.1, "sample mean {sample_mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 0.5)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(17);
        let weights = [0.6, 0.3, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 0.6).abs() < 0.03);
        assert!((counts[1] as f64 / 10_000.0 - 0.3).abs() < 0.03);
        assert!((counts[2] as f64 / 10_000.0 - 0.1).abs() < 0.03);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    #[should_panic(expected = "bad exponential mean")]
    fn exponential_rejects_bad_mean() {
        let mut rng = SimRng::seed_from_u64(23);
        let _ = rng.exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "index(0)")]
    fn index_rejects_zero() {
        let mut rng = SimRng::seed_from_u64(29);
        let _ = rng.index(0);
    }
}
