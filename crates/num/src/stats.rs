//! Descriptive statistics and model-validation metrics.
//!
//! Includes the goodness-of-fit measures the paper reports: the R² of the
//! Gaussian fit to BLOD histograms (Fig. 4), the mutual information between
//! the BLOD sample mean and variance (Fig. 7), and Kolmogorov–Smirnov
//! distances used to validate the χ² approximation (Fig. 8).

use crate::hist::{Histogram1d, Histogram2d};
use crate::{NumError, Result};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use statobd_num::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.sample_variance() - 5.0/3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Streaming quantile sketch with deterministic, order-independent merges.
///
/// Wraps a fixed-layout [`Histogram1d`] (integer bin counts) together with
/// exact running min/max. Every accumulator is either a `u64` count or an
/// exact `min`/`max` fold, so splitting an observation stream across shards
/// and merging the shard sketches — in any order — reproduces the
/// single-pass sketch *bit-for-bit*. Quantiles are then extracted
/// deterministically from the merged counts. This is the reduction primitive
/// the fleet workload uses for lifetime/FIT percentiles.
///
/// Accuracy: interior quantiles are linearly interpolated within a bin, so
/// the error is bounded by one bin width of the configured range; the
/// extreme quantiles (`q = 0`, `q = 1`) are exact (they return the running
/// min/max), and mass falling outside `[lo, hi)` is attributed to the
/// appropriate extreme rather than lost.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    hist: Histogram1d,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Creates an empty sketch over the bin range `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        Ok(QuantileSketch {
            hist: Histogram1d::new(lo, hi, bins)?,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.hist.add(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Total observations, including those outside the bin range.
    pub fn count(&self) -> u64 {
        let (below, above) = self.hist.outliers();
        self.hist.total() + below + above
    }

    /// Exact minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The sketch's bin range `[lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        self.hist.range()
    }

    /// Merges another sketch into this one (exact and commutative).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if the bin layouts differ.
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<()> {
        self.hist.merge(&other.hist)?;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Estimated `q`-quantile over *all* observations.
    ///
    /// Mass below/above the bin range maps to the exact min/max, interior
    /// mass is interpolated within its bin, and the result is clamped to
    /// the observed `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if the sketch is empty or `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(NumError::Domain {
                detail: format!("quantile level must be in [0, 1], got {q}"),
            });
        }
        let total = self.count();
        if total == 0 {
            return Err(NumError::Domain {
                detail: "quantile of an empty sketch".to_string(),
            });
        }
        let (below, _above) = self.hist.outliers();
        let in_range = self.hist.total();
        let target = q * total as f64;
        if target <= below as f64 {
            return Ok(self.min);
        }
        if target >= (below + in_range) as f64 {
            return Ok(self.max);
        }
        // Interior mass: rescale the target onto the in-range histogram.
        let q_in = ((target - below as f64) / in_range as f64).clamp(0.0, 1.0);
        Ok(self.hist.quantile(q_in)?.clamp(self.min, self.max))
    }
}

/// Sample mean of a slice.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "mean of empty slice");
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance of a slice.
///
/// # Panics
///
/// Panics if `data.len() < 2`.
pub fn sample_variance(data: &[f64]) -> f64 {
    assert!(data.len() >= 2, "sample variance needs at least 2 points");
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Linear-interpolated empirical quantile of **sorted** data.
///
/// # Errors
///
/// Returns [`NumError::Domain`] if `data` is empty or `p ∉ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Result<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return Err(NumError::Domain {
            detail: format!(
                "quantile needs non-empty data and p in [0,1], got n={}, p={p}",
                sorted.len()
            ),
        });
    }
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let pos = p * (n - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 >= n {
        Ok(sorted[n - 1])
    } else {
        Ok(sorted[i] * (1.0 - frac) + sorted[i + 1] * frac)
    }
}

/// Coefficient of determination R² between observations and model values.
///
/// This is the metric the paper quotes for the Gaussian fit of the BLOD
/// histograms (99.8 % / 99.5 % in its Fig. 4).
///
/// # Errors
///
/// Returns [`NumError::Domain`] if lengths differ, fewer than 2 points are
/// given, or the observations are constant.
pub fn r_squared(observed: &[f64], modeled: &[f64]) -> Result<f64> {
    if observed.len() != modeled.len() || observed.len() < 2 {
        return Err(NumError::Domain {
            detail: format!(
                "r_squared needs equal-length inputs with >= 2 points, got {} and {}",
                observed.len(),
                modeled.len()
            ),
        });
    }
    let m = mean(observed);
    let ss_tot: f64 = observed.iter().map(|&y| (y - m) * (y - m)).sum();
    if ss_tot == 0.0 {
        return Err(NumError::Domain {
            detail: "r_squared undefined for constant observations".to_string(),
        });
    }
    let ss_res: f64 = observed
        .iter()
        .zip(modeled)
        .map(|(&y, &f)| (y - f) * (y - f))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

/// Mutual information (in nats) of a 2-D histogram's joint distribution.
///
/// `I(X;Y) = Σ p(x,y) ln( p(x,y) / (p(x)p(y)) )`, the independence measure
/// the paper uses to justify `f(u,v) ≈ f(u)·f(v)` (it reports ≈ 0.003).
pub fn mutual_information(hist: &Histogram2d) -> f64 {
    let joint = hist.joint_probabilities();
    let mx = hist.marginal_x();
    let my = hist.marginal_y();
    let (xbins, ybins) = hist.shape();
    let mut mi = 0.0;
    for i in 0..xbins {
        for j in 0..ybins {
            let pxy = joint[i * ybins + j];
            if pxy > 0.0 {
                mi += pxy * (pxy / (mx[i] * my[j])).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Two-sample style Kolmogorov–Smirnov distance between an empirical sample
/// and a reference CDF.
///
/// # Errors
///
/// Returns [`NumError::Domain`] if `sample` is empty.
pub fn ks_distance(sample: &mut [f64], cdf: impl Fn(f64) -> f64) -> Result<f64> {
    if sample.is_empty() {
        return Err(NumError::Domain {
            detail: "ks_distance needs a non-empty sample".to_string(),
        });
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sample.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sample.iter().enumerate() {
        let f = cdf(x);
        let emp_hi = (i as f64 + 1.0) / n;
        let emp_lo = i as f64 / n;
        d = d.max((f - emp_lo).abs()).max((emp_hi - f).abs());
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_cdf;

    #[test]
    fn online_stats_matches_batch() {
        let data = [1.5, 2.5, -3.0, 4.0, 0.0, 7.25];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert!((s.mean() - mean(&data)).abs() < 1e-12);
        assert!((s.sample_variance() - sample_variance(&data)).abs() < 1e-12);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 7.25);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.77).sin() * 3.0).collect();
        let mut all = OnlineStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&sorted, 0.0).unwrap(), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0).unwrap(), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.5).unwrap(), 3.0);
        assert_eq!(quantile_sorted(&sorted, 0.25).unwrap(), 2.0);
        assert!(quantile_sorted(&[], 0.5).is_err());
        assert!(quantile_sorted(&sorted, 1.5).is_err());
    }

    #[test]
    fn r_squared_perfect_and_mean_model() {
        let obs = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&obs, &obs).unwrap() - 1.0).abs() < 1e-15);
        // Predicting the mean gives R² = 0.
        let mean_model = [2.5; 4];
        assert!(r_squared(&obs, &mean_model).unwrap().abs() < 1e-15);
    }

    #[test]
    fn r_squared_rejects_degenerate() {
        assert!(r_squared(&[1.0], &[1.0]).is_err());
        assert!(r_squared(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(r_squared(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn mutual_information_zero_for_independent() {
        let mut h = Histogram2d::new((0.0, 1.0, 4), (0.0, 1.0, 4)).unwrap();
        // Product fill: exactly independent.
        for i in 0..4 {
            for j in 0..4 {
                for _ in 0..(i + 1) * (j + 1) {
                    h.add(0.125 + i as f64 * 0.25, 0.125 + j as f64 * 0.25);
                }
            }
        }
        assert!(mutual_information(&h) < 1e-12);
    }

    #[test]
    fn mutual_information_positive_for_dependent() {
        let mut h = Histogram2d::new((0.0, 1.0, 4), (0.0, 1.0, 4)).unwrap();
        // Perfectly correlated fill.
        for i in 0..4 {
            for _ in 0..25 {
                h.add(0.125 + i as f64 * 0.25, 0.125 + i as f64 * 0.25);
            }
        }
        // I = H(X) = ln 4 for a uniform perfectly-dependent pair.
        assert!((mutual_information(&h) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn ks_distance_small_for_matching_cdf() {
        // Deterministic normal scores: KS should be ~1/n.
        let n = 1000;
        let mut sample: Vec<f64> = (1..=n)
            .map(|i| crate::special::norm_inv_cdf(i as f64 / (n as f64 + 1.0)).unwrap())
            .collect();
        let d = ks_distance(&mut sample, norm_cdf).unwrap();
        assert!(d < 2.0 / n as f64, "KS {d}");
    }

    #[test]
    fn quantile_sketch_tracks_sorted_quantiles() {
        // Deterministic, non-uniformly spaced data in [0, 10).
        let data: Vec<f64> = (0..2000)
            .map(|i| 5.0 + 4.9 * (i as f64 * 0.137).sin())
            .collect();
        let mut sketch = QuantileSketch::new(0.0, 10.0, 200).unwrap();
        for &x in &data {
            sketch.add(x);
        }
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bin_w = 10.0 / 200.0;
        for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let est = sketch.quantile(q).unwrap();
            let exact = quantile_sorted(&sorted, q).unwrap();
            assert!(
                (est - exact).abs() <= bin_w,
                "q={q}: sketch {est} vs exact {exact}"
            );
        }
        // Extreme quantiles are exact.
        assert_eq!(sketch.quantile(0.0).unwrap(), sorted[0]);
        assert_eq!(sketch.quantile(1.0).unwrap(), sorted[sorted.len() - 1]);
        assert_eq!(sketch.count(), 2000);
    }

    #[test]
    fn quantile_sketch_merge_is_bit_identical_to_single_pass() {
        let data: Vec<f64> = (0..999).map(|i| (i as f64 * 0.311).cos() * 7.0).collect();
        let mut whole = QuantileSketch::new(-5.0, 5.0, 64).unwrap();
        for &x in &data {
            whole.add(x);
        }
        // Three shards, merged in a non-stream order (1 <- 2, then 0 <- that).
        let mut shards: Vec<QuantileSketch> = (0..3)
            .map(|_| QuantileSketch::new(-5.0, 5.0, 64).unwrap())
            .collect();
        for (i, &x) in data.iter().enumerate() {
            shards[i % 3].add(x);
        }
        let s2 = shards.pop().unwrap();
        let mut s1 = shards.pop().unwrap();
        let mut s0 = shards.pop().unwrap();
        s1.merge(&s2).unwrap();
        s0.merge(&s1).unwrap();
        let merged = &s0;
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min().to_bits(), whole.min().to_bits());
        assert_eq!(merged.max().to_bits(), whole.max().to_bits());
        for q in [0.0, 0.1, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(
                merged.quantile(q).unwrap().to_bits(),
                whole.quantile(q).unwrap().to_bits(),
                "quantile {q} diverged after merge"
            );
        }
    }

    #[test]
    fn quantile_sketch_attributes_outliers_to_extremes() {
        // Range only covers [0, 1) but data spills both sides.
        let mut s = QuantileSketch::new(0.0, 1.0, 10).unwrap();
        s.add(-100.0);
        s.add(0.5);
        s.add(0.5);
        s.add(200.0);
        assert_eq!(s.count(), 4);
        assert_eq!(s.quantile(0.0).unwrap(), -100.0);
        // q=0.1 -> target 0.4 of 4 obs, inside the below-range mass.
        assert_eq!(s.quantile(0.1).unwrap(), -100.0);
        assert_eq!(s.quantile(1.0).unwrap(), 200.0);
        assert_eq!(s.quantile(0.9).unwrap(), 200.0);
        // Median lands in the occupied interior bin.
        let med = s.quantile(0.5).unwrap();
        assert!((0.0..1.0).contains(&med), "median {med}");
    }

    #[test]
    fn quantile_sketch_rejects_bad_input() {
        let empty = QuantileSketch::new(0.0, 1.0, 4).unwrap();
        assert!(empty.quantile(0.5).is_err());
        let mut a = QuantileSketch::new(0.0, 1.0, 4).unwrap();
        a.add(0.5);
        assert!(a.quantile(-0.1).is_err());
        assert!(a.quantile(1.1).is_err());
        assert!(a.quantile(f64::NAN).is_err());
        // Layout mismatch is rejected and leaves the target untouched.
        let mut b = QuantileSketch::new(0.0, 1.0, 8).unwrap();
        b.add(0.25);
        assert!(a.merge(&b).is_err());
        assert_eq!(a.count(), 1);
        assert!(QuantileSketch::new(1.0, 0.0, 4).is_err());
        assert!(QuantileSketch::new(0.0, 1.0, 0).is_err());
    }
}
