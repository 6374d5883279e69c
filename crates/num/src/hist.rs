//! 1-D and 2-D histograms.
//!
//! Used for (a) building block-level oxide-thickness distributions (BLODs)
//! from Monte-Carlo samples (paper Fig. 4), (b) constructing the numerical
//! joint PDF of `(u_j, v_j)` for the `st_MC` engine (paper Sec. V), and
//! (c) the mutual-information estimate of Fig. 7.

use crate::{NumError, Result};

/// A uniform-bin 1-D histogram over `[lo, hi)`.
///
/// Values outside the range are counted in saturating edge bins' *outlier*
/// counters, never silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram1d {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
    total_in_range: u64,
}

impl Histogram1d {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 || !(lo < hi) {
            return Err(NumError::Domain {
                detail: format!("histogram needs bins > 0 and lo < hi, got {bins}, [{lo}, {hi})"),
            });
        }
        Ok(Histogram1d {
            lo,
            hi,
            counts: vec![0; bins],
            below: 0,
            above: 0,
            total_in_range: 0,
        })
    }

    /// Builds a histogram spanning the min/max of `data` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `data` is empty, contains non-finite
    /// values, or is constant.
    pub fn from_data(data: &[f64], bins: usize) -> Result<Self> {
        if data.is_empty() {
            return Err(NumError::Domain {
                detail: "cannot build a histogram from empty data".to_string(),
            });
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in data {
            if !v.is_finite() {
                return Err(NumError::Domain {
                    detail: "histogram data contains non-finite values".to_string(),
                });
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo == hi {
            return Err(NumError::Domain {
                detail: "histogram data is constant".to_string(),
            });
        }
        // Nudge the top so the max lands in the last bin.
        let span = hi - lo;
        let mut h = Self::new(lo, hi + span * 1e-9, bins)?;
        for &v in data {
            h.add(v);
        }
        Ok(h)
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x >= self.hi {
            self.above += 1;
        } else {
            let bins = self.counts.len();
            let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
            self.counts[idx.min(bins - 1)] += 1;
            self.total_in_range += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw in-range bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below/above the range.
    pub fn outliers(&self) -> (u64, u64) {
        (self.below, self.above)
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.total_in_range
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// The histogram's range `[lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Merges another histogram's counts into this one.
    ///
    /// All accumulators are integer counts, so the merge is *exact and
    /// commutative*: any partitioning of an observation stream across
    /// shard histograms, merged in any order, reproduces the single-pass
    /// histogram bit-for-bit. Sharded reducers (the fleet workload) rest
    /// their determinism guarantee on this.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] unless the two layouts are identical
    /// (bit-equal `lo` and `hi`, same bin count) — merging histograms
    /// with different bin geometries would silently misattribute mass.
    pub fn merge(&mut self, other: &Histogram1d) -> Result<()> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return Err(NumError::Domain {
                detail: format!(
                    "cannot merge histograms with different layouts: [{}, {}) x {} vs \
                     [{}, {}) x {}",
                    self.lo,
                    self.hi,
                    self.counts.len(),
                    other.lo,
                    other.hi,
                    other.counts.len()
                ),
            });
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.below += other.below;
        self.above += other.above;
        self.total_in_range += other.total_in_range;
        Ok(())
    }

    /// Extracts the `q`-quantile of the **in-range** mass from the bin
    /// counts, spreading each bin's count uniformly over its width
    /// (linear interpolation). Out-of-range observations are excluded;
    /// callers that need tail-exact edges should track min/max alongside
    /// (see [`crate::stats::QuantileSketch`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `q` is outside `[0, 1]` or the
    /// histogram holds no in-range observations.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(NumError::Domain {
                detail: format!("quantile level must be in [0, 1], got {q}"),
            });
        }
        if self.total_in_range == 0 {
            return Err(NumError::Domain {
                detail: "quantile of a histogram with no in-range observations".to_string(),
            });
        }
        // The cumulative walk stays in u64: summing counts in f64 loses
        // integer precision past 2^53 and accumulates rounding that can
        // select a neighboring bin. Only the within-bin interpolation —
        // inherently fractional — converts to float.
        let target = q * self.total_in_range as f64;
        let width = self.bin_width();
        let mut cum: u64 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return Ok(self.lo + (i as f64 + frac) * width);
            }
            cum += c;
        }
        // Float rounding in `target` walked past the last occupied bin:
        // its top edge.
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("total_in_range > 0 implies an occupied bin");
        Ok(self.lo + (last as f64 + 1.0) * width)
    }

    /// Normalized density values (integrate to 1 over the in-range mass).
    pub fn density(&self) -> Vec<f64> {
        let norm = self.total_in_range.max(1) as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }
}

/// A uniform-bin 2-D histogram over `[xlo, xhi) × [ylo, yhi)`.
#[derive(Debug, Clone)]
pub struct Histogram2d {
    xlo: f64,
    xhi: f64,
    ylo: f64,
    yhi: f64,
    xbins: usize,
    ybins: usize,
    counts: Vec<u64>,
    total_in_range: u64,
}

impl Histogram2d {
    /// Creates a 2-D histogram.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] on empty bins or inverted ranges.
    pub fn new(
        (xlo, xhi, xbins): (f64, f64, usize),
        (ylo, yhi, ybins): (f64, f64, usize),
    ) -> Result<Self> {
        if xbins == 0 || ybins == 0 || !(xlo < xhi) || !(ylo < yhi) {
            return Err(NumError::Domain {
                detail: "2-D histogram needs positive bins and ordered ranges".to_string(),
            });
        }
        Ok(Histogram2d {
            xlo,
            xhi,
            ylo,
            yhi,
            xbins,
            ybins,
            counts: vec![0; xbins * ybins],
            total_in_range: 0,
        })
    }

    /// Records one observation; one outside the ranges is dropped.
    pub fn add(&mut self, x: f64, y: f64) {
        if x < self.xlo || x >= self.xhi || y < self.ylo || y >= self.yhi {
            return;
        }
        let i = (((x - self.xlo) / (self.xhi - self.xlo)) * self.xbins as f64) as usize;
        let j = (((y - self.ylo) / (self.yhi - self.ylo)) * self.ybins as f64) as usize;
        let i = i.min(self.xbins - 1);
        let j = j.min(self.ybins - 1);
        self.counts[i * self.ybins + j] += 1;
        self.total_in_range += 1;
    }

    /// Bin counts (row-major over x, then y).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// (xbins, ybins).
    pub fn shape(&self) -> (usize, usize) {
        (self.xbins, self.ybins)
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.total_in_range
    }

    /// (x bin width, y bin width).
    pub fn bin_widths(&self) -> (f64, f64) {
        (
            (self.xhi - self.xlo) / self.xbins as f64,
            (self.yhi - self.ylo) / self.ybins as f64,
        )
    }

    /// Center of bin `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn bin_center(&self, i: usize, j: usize) -> (f64, f64) {
        assert!(i < self.xbins && j < self.ybins, "bin index out of range");
        let (wx, wy) = self.bin_widths();
        (
            self.xlo + (i as f64 + 0.5) * wx,
            self.ylo + (j as f64 + 0.5) * wy,
        )
    }

    /// Joint probability mass per bin (sums to 1 over in-range mass).
    pub fn joint_probabilities(&self) -> Vec<f64> {
        let n = self.total_in_range.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Marginal probability over x (length `xbins`).
    pub fn marginal_x(&self) -> Vec<f64> {
        let n = self.total_in_range.max(1) as f64;
        (0..self.xbins)
            .map(|i| {
                (0..self.ybins)
                    .map(|j| self.counts[i * self.ybins + j] as f64)
                    .sum::<f64>()
                    / n
            })
            .collect()
    }

    /// Marginal probability over y (length `ybins`).
    pub fn marginal_y(&self) -> Vec<f64> {
        let n = self.total_in_range.max(1) as f64;
        (0..self.ybins)
            .map(|j| {
                (0..self.xbins)
                    .map(|i| self.counts[i * self.ybins + j] as f64)
                    .sum::<f64>()
                    / n
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_correct_bins() {
        let mut h = Histogram1d::new(0.0, 10.0, 10).unwrap();
        h.add(0.5);
        h.add(9.99);
        h.add(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn outliers_tracked_not_dropped() {
        let mut h = Histogram1d::new(0.0, 1.0, 4).unwrap();
        h.add(-1.0);
        h.add(2.0);
        h.add(0.5);
        assert_eq!(h.outliers(), (1, 1));
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram1d::new(0.0, 2.0, 8).unwrap();
        for i in 0..1000 {
            h.add((i as f64 / 1000.0) * 2.0);
        }
        let integral: f64 = h.density().iter().map(|d| d * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_data_covers_all_points() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let h = Histogram1d::from_data(&data, 16).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.outliers(), (0, 0));
    }

    #[test]
    fn from_data_rejects_degenerate() {
        assert!(Histogram1d::from_data(&[], 4).is_err());
        assert!(Histogram1d::from_data(&[1.0, 1.0], 4).is_err());
        assert!(Histogram1d::from_data(&[1.0, f64::NAN], 4).is_err());
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        // Split one stream across three shard histograms; every merge
        // order must reproduce the single-pass histogram exactly.
        let values: Vec<f64> = (0..3000).map(|i| ((i * 37) % 997) as f64 / 100.0).collect();
        let mut single = Histogram1d::new(0.0, 8.0, 13).unwrap();
        for &v in &values {
            single.add(v);
        }
        let mut shards: Vec<Histogram1d> = (0..3)
            .map(|_| Histogram1d::new(0.0, 8.0, 13).unwrap())
            .collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].add(v);
        }
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut merged = Histogram1d::new(0.0, 8.0, 13).unwrap();
            for &s in &order {
                merged.merge(&shards[s]).unwrap();
            }
            assert_eq!(merged.counts(), single.counts(), "order {order:?}");
            assert_eq!(merged.outliers(), single.outliers());
            assert_eq!(merged.total(), single.total());
        }
    }

    #[test]
    fn merge_rejects_incompatible_layouts() {
        let mut base = Histogram1d::new(0.0, 1.0, 4).unwrap();
        // Different bin count, different lo, different hi: all rejected
        // with a message naming both layouts.
        for other in [
            Histogram1d::new(0.0, 1.0, 5).unwrap(),
            Histogram1d::new(0.1, 1.0, 4).unwrap(),
            Histogram1d::new(0.0, 2.0, 4).unwrap(),
        ] {
            let err = base.merge(&other).unwrap_err().to_string();
            assert!(err.contains("different layouts"), "{err}");
        }
        // And the failed merges left the target untouched.
        assert_eq!(base.total(), 0);
        let same = Histogram1d::new(0.0, 1.0, 4).unwrap();
        assert!(base.merge(&same).is_ok());
    }

    #[test]
    fn quantile_interpolates_within_bins() {
        // Uniform fill of [0, 10): quantiles ≈ identity scaled by 10.
        let mut h = Histogram1d::new(0.0, 10.0, 20).unwrap();
        for i in 0..10_000 {
            h.add(i as f64 / 1000.0);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 10.0 * q).abs() <= h.bin_width(), "q {q}: {v}");
        }
        // Quantiles are monotone in q.
        let vs: Vec<f64> = (0..=10)
            .map(|i| h.quantile(i as f64 / 10.0).unwrap())
            .collect();
        assert!(vs.windows(2).all(|w| w[0] <= w[1]), "{vs:?}");
    }

    #[test]
    fn quantile_cumulative_walk_is_exact_beyond_2_pow_53() {
        // Counts past 2^53 are not representable in f64: an f64
        // cumulative walk silently drops the low bits (2^53 + 1 rounds
        // to 2^53, and + 1 is then a no-op), which can land the
        // quantile a whole bin away. The u64 walk keeps the running
        // count exact; only the within-bin interpolation is float.
        let big = (1u64 << 53) + 1;
        let mut h = Histogram1d::new(0.0, 4.0, 4).unwrap();
        h.counts = vec![big, 1, 1, big];
        h.total_in_range = 2 * big + 2;
        // Exact cumulative: bin 0 holds 2^53 + 1, bin 1 reaches the
        // median mass 2^53 + 2 at its top edge — x = 2.0. The rounding
        // walk skips bin 1 entirely and lands in bin 3.
        let v = h.quantile(0.5).unwrap();
        assert!((v - 2.0).abs() < 1e-9, "median at bin-1 top edge, got {v}");
    }

    #[test]
    fn quantile_ignores_outliers_and_rejects_bad_input() {
        let mut h = Histogram1d::new(0.0, 1.0, 4).unwrap();
        assert!(h.quantile(0.5).is_err(), "empty histogram");
        h.add(-5.0);
        h.add(7.0);
        assert!(h.quantile(0.5).is_err(), "outliers alone are not mass");
        h.add(0.3);
        let v = h.quantile(0.5).unwrap();
        assert!(
            (0.25..0.5).contains(&v),
            "median in the occupied bin, got {v}"
        );
        assert!(h.quantile(-0.1).is_err());
        assert!(h.quantile(1.5).is_err());
        assert!(h.quantile(f64::NAN).is_err());
    }

    #[test]
    fn hist2d_marginals_sum_to_one() {
        let mut h = Histogram2d::new((0.0, 1.0, 4), (0.0, 1.0, 5)).unwrap();
        for i in 0..200 {
            let x = (i as f64 * 0.618) % 1.0;
            let y = (i as f64 * 0.414) % 1.0;
            h.add(x, y);
        }
        let sx: f64 = h.marginal_x().iter().sum();
        let sy: f64 = h.marginal_y().iter().sum();
        assert!((sx - 1.0).abs() < 1e-12);
        assert!((sy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hist2d_joint_matches_marginal_product_for_independent_fill() {
        // A full-grid deterministic fill is exactly independent.
        let mut h = Histogram2d::new((0.0, 1.0, 3), (0.0, 1.0, 3)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                h.add(0.17 + i as f64 / 3.0, 0.17 + j as f64 / 3.0);
            }
        }
        let joint = h.joint_probabilities();
        let mx = h.marginal_x();
        let my = h.marginal_y();
        for i in 0..3 {
            for j in 0..3 {
                assert!((joint[i * 3 + j] - mx[i] * my[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hist2d_outliers() {
        // Points outside either range, the upper edges included, leave
        // the counts and the total as they were.
        let mut h = Histogram2d::new((0.0, 1.0, 2), (0.0, 1.0, 2)).unwrap();
        h.add(0.5, 0.5);
        let (counts, total) = (h.counts().to_vec(), h.total());
        for (x, y) in [(2.0, 0.5), (0.5, -0.1), (1.0, 0.5), (0.5, 1.0)] {
            h.add(x, y);
        }
        assert_eq!(h.counts(), counts.as_slice());
        assert_eq!(h.total(), total);
        assert_eq!(total, 1);
    }
}
