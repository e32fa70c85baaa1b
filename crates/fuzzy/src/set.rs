//! Discretized (sampled) fuzzy sets — the aggregation surface that Mamdani
//! inference produces and defuzzifiers consume.

use serde::{Deserialize, Serialize};

use crate::error::{FuzzyError, Result};

/// A fuzzy set over a bounded universe, represented by `n` uniformly spaced
/// membership samples (inclusive of both bounds).
///
/// # Examples
///
/// ```
/// use facs_fuzzy::SampledSet;
///
/// # fn main() -> Result<(), facs_fuzzy::FuzzyError> {
/// // A triangular surface sampled at 101 points.
/// let set = SampledSet::from_fn(0.0, 1.0, 101, |x| 1.0 - (x - 0.5).abs() * 2.0)?;
/// assert!((set.centroid().unwrap() - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledSet {
    min: f64,
    max: f64,
    values: Vec<f64>,
}

impl SampledSet {
    /// Creates an all-zero (empty) set with `samples` points over
    /// `[min, max]`.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::InvalidUniverse`] for inverted/non-finite bounds;
    /// [`FuzzyError::InvalidResolution`] for fewer than 2 samples.
    pub fn empty(min: f64, max: f64, samples: usize) -> Result<Self> {
        if !min.is_finite() || !max.is_finite() || min >= max {
            return Err(FuzzyError::InvalidUniverse { min, max });
        }
        if samples < 2 {
            return Err(FuzzyError::InvalidResolution { samples });
        }
        Ok(Self { min, max, values: vec![0.0; samples] })
    }

    /// Samples `f` at `samples` uniformly spaced points over `[min, max]`,
    /// clamping each result into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SampledSet::empty`].
    pub fn from_fn(min: f64, max: f64, samples: usize, f: impl Fn(f64) -> f64) -> Result<Self> {
        let mut set = Self::empty(min, max, samples)?;
        for i in 0..samples {
            let x = set.x_at(i);
            let mu = f(x);
            set.values[i] = if mu.is_finite() { mu.clamp(0.0, 1.0) } else { 0.0 };
        }
        Ok(set)
    }

    /// Lower bound of the universe.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound of the universe.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when every sample is zero (no rule contributed mass).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0)
    }

    /// The sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The universe coordinate of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn x_at(&self, i: usize) -> f64 {
        assert!(i < self.values.len(), "sample index {i} out of range");
        let step = (self.max - self.min) / (self.values.len() as f64 - 1.0);
        self.min + step * i as f64
    }

    /// Resets every sample to zero, keeping the universe and resolution
    /// (lets the engine reuse one aggregation buffer across inferences).
    pub fn zero(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// Mamdani `min` implication and `max` aggregation of one
    /// consequent: `values[i] = max(values[i], min(clip, samples[i]))`,
    /// where `samples` holds the consequent's membership at each of this
    /// set's sample points.
    pub(crate) fn merge_clipped(&mut self, clip: f64, samples: &[f64]) {
        debug_assert_eq!(samples.len(), self.values.len(), "sample-count mismatch");
        for (v, &mu) in self.values.iter_mut().zip(samples) {
            *v = v.max(clip.min(mu));
        }
    }

    /// Height of the set: the maximum sampled membership.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Area under the sampled membership curve (trapezoidal integration).
    #[must_use]
    pub fn area(&self) -> f64 {
        let step = (self.max - self.min) / (self.values.len() as f64 - 1.0);
        let mut area = 0.0;
        for w in self.values.windows(2) {
            area += 0.5 * (w[0] + w[1]) * step;
        }
        area
    }

    /// Centroid (center of gravity) of the set, or `None` when the set is
    /// empty (zero area).
    #[must_use]
    pub fn centroid(&self) -> Option<f64> {
        let step = (self.max - self.min) / (self.values.len() as f64 - 1.0);
        let mut area = 0.0;
        let mut moment = 0.0;
        for (i, w) in self.values.windows(2).enumerate() {
            let x0 = self.min + step * i as f64;
            let x1 = x0 + step;
            let a = 0.5 * (w[0] + w[1]) * step;
            // Centroid of one trapezoidal strip (linear interpolation of mu).
            let cx = if w[0] + w[1] > 0.0 {
                (x0 * (2.0 * w[0] + w[1]) + x1 * (w[0] + 2.0 * w[1])) / (3.0 * (w[0] + w[1]))
            } else {
                0.5 * (x0 + x1)
            };
            area += a;
            moment += a * cx;
        }
        if area <= f64::EPSILON {
            None
        } else {
            Some((moment / area).clamp(self.min, self.max))
        }
    }

    /// Bisector: the x splitting the area into two equal halves, or `None`
    /// when the set is empty.
    #[must_use]
    pub fn bisector(&self) -> Option<f64> {
        let total = self.area();
        if total <= f64::EPSILON {
            return None;
        }
        let step = (self.max - self.min) / (self.values.len() as f64 - 1.0);
        let half = total / 2.0;
        let mut acc = 0.0;
        for (i, w) in self.values.windows(2).enumerate() {
            let strip = 0.5 * (w[0] + w[1]) * step;
            if acc + strip >= half {
                // Interpolate inside the strip assuming uniform density.
                let frac = if strip > 0.0 { (half - acc) / strip } else { 0.5 };
                let x0 = self.min + step * i as f64;
                return Some(x0 + frac * step);
            }
            acc += strip;
        }
        Some(self.max)
    }

    /// Mean of maxima: average coordinate of the samples attaining the
    /// maximum membership, or `None` when the set is empty.
    #[must_use]
    pub fn mean_of_maxima(&self) -> Option<f64> {
        let h = self.height();
        if h <= 0.0 {
            return None;
        }
        let tol = 1e-9;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &v) in self.values.iter().enumerate() {
            if (v - h).abs() <= tol {
                sum += self.x_at(i);
                count += 1;
            }
        }
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_set() -> SampledSet {
        SampledSet::from_fn(0.0, 1.0, 1001, |x| 1.0 - (x - 0.5).abs() * 2.0).unwrap()
    }

    #[test]
    fn empty_set_reports_empty() {
        let s = SampledSet::empty(0.0, 1.0, 11).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.height(), 0.0);
        assert_eq!(s.area(), 0.0);
        assert!(s.centroid().is_none());
        assert!(s.bisector().is_none());
        assert!(s.mean_of_maxima().is_none());
    }

    #[test]
    fn rejects_bad_universe_and_resolution() {
        assert!(SampledSet::empty(1.0, 0.0, 10).is_err());
        assert!(SampledSet::empty(0.0, 1.0, 1).is_err());
        assert!(SampledSet::empty(f64::NAN, 1.0, 10).is_err());
    }

    #[test]
    fn x_at_spans_bounds() {
        let s = SampledSet::empty(-1.0, 1.0, 5).unwrap();
        assert_eq!(s.x_at(0), -1.0);
        assert_eq!(s.x_at(4), 1.0);
        assert_eq!(s.x_at(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn x_at_out_of_range_panics() {
        let s = SampledSet::empty(0.0, 1.0, 5).unwrap();
        let _ = s.x_at(5);
    }

    #[test]
    fn symmetric_triangle_centroid_is_center() {
        let s = triangle_set();
        assert!((s.centroid().unwrap() - 0.5).abs() < 1e-9);
        assert!((s.bisector().unwrap() - 0.5).abs() < 1e-3);
        assert!((s.mean_of_maxima().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn triangle_area_is_half() {
        let s = triangle_set();
        assert!((s.area() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn asymmetric_set_centroid_leans_right() {
        // Ramp from 0 at x=0 to 1 at x=1: centroid of a right triangle is 2/3.
        let s = SampledSet::from_fn(0.0, 1.0, 2001, |x| x).unwrap();
        assert!((s.centroid().unwrap() - 2.0 / 3.0).abs() < 1e-6);
        // Bisector of area x^2/2: half-area at x = sqrt(0.5).
        assert!((s.bisector().unwrap() - 0.5f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn plateau_maxima_statistics() {
        // Flat top between 0.4 and 0.6.
        let s =
            SampledSet::from_fn(
                0.0,
                1.0,
                1001,
                |x| {
                    if (0.4..=0.6).contains(&x) {
                        1.0
                    } else {
                        0.0
                    }
                },
            )
            .unwrap();
        assert!((s.mean_of_maxima().unwrap() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn merge_clipped_takes_the_max_of_clipped_samples() {
        let mut s = SampledSet::from_fn(0.0, 1.0, 5, |x| if x < 0.5 { 0.8 } else { 0.1 }).unwrap();
        s.merge_clipped(0.6, &[0.0, 1.0, 0.3, 1.0, 0.9]);
        assert_eq!(s.values(), &[0.8, 0.8, 0.3, 0.6, 0.6]);
    }

    #[test]
    fn zero_keeps_shape() {
        let mut s = triangle_set();
        s.zero();
        assert!(s.is_empty());
        assert_eq!(s.len(), 1001);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 1.0);
    }

    #[test]
    fn from_fn_sanitizes_non_finite() {
        let s =
            SampledSet::from_fn(0.0, 1.0, 11, |x| if x == 0.0 { f64::NAN } else { 0.5 }).unwrap();
        assert_eq!(s.values()[0], 0.0);
    }

    #[test]
    fn centroid_stays_in_universe() {
        let s = SampledSet::from_fn(-1.0, 1.0, 501, |x| if x > 0.9 { 1.0 } else { 0.0 }).unwrap();
        let c = s.centroid().unwrap();
        assert!(c > 0.9 && c <= 1.0);
    }
}
