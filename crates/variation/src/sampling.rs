//! Monte-Carlo sampling of thickness fields from a [`ThicknessModel`].
//!
//! A *die sample* fixes the principal components `z` (one correlated "base"
//! thickness per grid); *device samples* add the independent residual
//! `σ_ind·ε` on top. The reference Monte-Carlo reliability engine and the
//! BLOD histogram experiments (paper Fig. 4) are built on this.

use crate::ThicknessModel;
use statobd_num::rng::{NormalSampler, Rng};

/// One sampled die: the principal-component draw and the resulting
/// correlated base thickness per grid.
#[derive(Debug, Clone)]
pub struct GridBaseSample {
    /// The principal-component values `z` drawn for this die.
    pub z: Vec<f64>,
    /// Correlated thickness (nominal + loadings·z) per grid.
    pub base: Vec<f64>,
}

/// Sampler of thickness fields bound to a model.
///
/// # Example
///
/// ```
/// use statobd_variation::*;
///
/// let model = ThicknessModelBuilder::new()
///     .grid(GridSpec::square_unit(4)?)
///     .nominal(2.2)
///     .budget(VarianceBudget::itrs_2008(2.2)?)
///     .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
///     .build()?;
/// let mut sampler = FieldSampler::new(&model);
/// let mut rng = statobd_num::rng::Xoshiro256pp::seed_from_u64(7);
/// let die = sampler.sample_die(&mut rng);
/// assert_eq!(die.base.len(), 16);
/// # Ok::<(), VariationError>(())
/// ```
#[derive(Debug)]
pub struct FieldSampler<'a> {
    model: &'a ThicknessModel,
    normal: NormalSampler,
}

impl<'a> FieldSampler<'a> {
    /// Creates a sampler for `model`.
    pub fn new(model: &'a ThicknessModel) -> Self {
        FieldSampler {
            model,
            normal: NormalSampler::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &ThicknessModel {
        self.model
    }

    /// Discards any cached polar-method spare, restoring the sampler to
    /// its freshly-constructed draw state.
    ///
    /// A reused sampler that starts chip `i+1` with chip `i`'s leftover
    /// spare would shift every subsequent draw; resetting makes a hoisted
    /// per-shard sampler draw-for-draw identical to constructing a fresh
    /// one per chip.
    pub fn reset(&mut self) {
        self.normal = NormalSampler::new();
    }

    /// Draws one die's principal components into lane `lane` of a
    /// `width`-interleaved SoA tile: component `k` lands at
    /// `z_tile[k·width + lane]`.
    ///
    /// Draw order is identical to [`FieldSampler::sample_z_into`] — only
    /// the destination stride differs — so a lane consumes exactly the
    /// substream its chip would consume on the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= width` or `z_tile.len()` is not `width` times
    /// the model's component count.
    pub fn sample_z_lane<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        z_tile: &mut [f64],
        width: usize,
        lane: usize,
    ) {
        assert!(lane < width, "lane index out of range");
        assert_eq!(
            z_tile.len(),
            self.model.n_components() * width,
            "z tile length must be width times the model's component count"
        );
        for slot in z_tile[lane..].iter_mut().step_by(width) {
            *slot = self.normal.sample(rng);
        }
    }

    /// Draws one die: principal components and grid base thicknesses.
    pub fn sample_die<R: Rng + ?Sized>(&mut self, rng: &mut R) -> GridBaseSample {
        let mut z = vec![0.0; self.model.n_components()];
        self.normal.fill(rng, &mut z);
        let base = self.model.grid_base(&z);
        GridBaseSample { z, base }
    }

    /// Draws one die's principal components into a caller-owned buffer.
    ///
    /// The allocation-free twin of [`FieldSampler::sample_die`] for hot
    /// loops that evaluate per-block `(u, v)` moments directly from `z`
    /// (via `uv_given_z`) and never need the grid base field. Draw order
    /// is identical to `sample_die`, so the two are interchangeable for a
    /// given RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the model's component count.
    pub fn sample_z_into<R: Rng + ?Sized>(&mut self, rng: &mut R, z: &mut [f64]) {
        assert_eq!(
            z.len(),
            self.model.n_components(),
            "z buffer length must match the model's component count"
        );
        self.normal.fill(rng, z);
    }

    /// Draws `count` device thicknesses in grid `g` of a die into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range for the die sample.
    pub fn sample_devices<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        die: &GridBaseSample,
        g: usize,
        count: usize,
    ) -> Vec<f64> {
        let base = die.base[g];
        let sigma = self.model.sigma_ind();
        (0..count)
            .map(|_| base + sigma * self.normal.sample(rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};
    use statobd_num::rng::Xoshiro256pp;
    use statobd_num::stats::OnlineStats;

    fn model() -> ThicknessModel {
        ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(5).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap()
    }

    #[test]
    fn die_base_statistics_match_model() {
        let m = model();
        let mut sampler = FieldSampler::new(&m);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut stats = OnlineStats::new();
        for _ in 0..20_000 {
            let die = sampler.sample_die(&mut rng);
            stats.push(die.base[12]);
        }
        assert!((stats.mean() - 2.2).abs() < 1e-3, "mean {}", stats.mean());
        let expected_sigma = m.grid_sigma(12);
        assert!(
            (stats.std_dev() - expected_sigma).abs() < 0.05 * expected_sigma,
            "sigma {} vs {}",
            stats.std_dev(),
            expected_sigma
        );
    }

    #[test]
    fn device_samples_add_independent_variance() {
        let m = model();
        let mut sampler = FieldSampler::new(&m);
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let die = sampler.sample_die(&mut rng);
        let devices = sampler.sample_devices(&mut rng, &die, 3, 50_000);
        let mut stats = OnlineStats::new();
        for &d in &devices {
            stats.push(d);
        }
        // Within one die, device spread is the independent sigma only.
        assert!((stats.mean() - die.base[3]).abs() < 3e-4);
        let sig = m.sigma_ind();
        assert!(
            (stats.std_dev() - sig).abs() < 0.05 * sig,
            "sigma {} vs {}",
            stats.std_dev(),
            sig
        );
    }

    #[test]
    fn neighboring_grids_are_correlated_across_dies() {
        let m = model();
        let mut sampler = FieldSampler::new(&m);
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let n = 20_000;
        let (mut sa, mut sb, mut sab) = (0.0, 0.0, 0.0);
        let (mut saa, mut sbb) = (0.0, 0.0);
        for _ in 0..n {
            let die = sampler.sample_die(&mut rng);
            let a = die.base[0];
            let b = die.base[1];
            sa += a;
            sb += b;
            sab += a * b;
            saa += a * a;
            sbb += b * b;
        }
        let nf = n as f64;
        let cov = sab / nf - (sa / nf) * (sb / nf);
        let var_a = saa / nf - (sa / nf).powi(2);
        let var_b = sbb / nf - (sb / nf).powi(2);
        let corr = cov / (var_a * var_b).sqrt();
        let expected = m.covariance(0, 1) / (m.grid_sigma(0) * m.grid_sigma(1));
        assert!(
            (corr - expected).abs() < 0.03,
            "corr {corr} vs expected {expected}"
        );
    }

    #[test]
    fn sample_z_into_matches_sample_die_bitwise() {
        let m = model();
        let mut rng_a = Xoshiro256pp::seed_from_u64(29);
        let mut rng_b = rng_a.clone();
        let mut sampler_a = FieldSampler::new(&m);
        let mut sampler_b = FieldSampler::new(&m);
        let mut z = vec![0.0; m.n_components()];
        for _ in 0..4 {
            let die = sampler_a.sample_die(&mut rng_a);
            sampler_b.sample_z_into(&mut rng_b, &mut z);
            for (a, b) in die.z.iter().zip(&z) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sample_z_lane_matches_sample_z_into_bitwise() {
        // Same RNG state, same draws — only the destination stride
        // differs. Also covers reset(): the reused sampler must behave
        // like a fresh one even when a spare was cached mid-stream.
        let m = model();
        let n_pc = m.n_components();
        const W: usize = 4;
        let mut sampler = FieldSampler::new(&m);
        let mut poison_rng = Xoshiro256pp::seed_from_u64(1);
        let die = FieldSampler::new(&m).sample_die(&mut poison_rng);
        let mut z = vec![0.0; n_pc];
        let mut tile = vec![0.0; n_pc * W];
        for lane in 0..W {
            let mut rng_a = Xoshiro256pp::seed_from_u64(400 + lane as u64);
            let mut rng_b = rng_a.clone();
            // Poison the sampler with a cached spare (a lone sample()
            // call always leaves one); reset must clear it.
            sampler.sample_devices(&mut poison_rng, &die, 0, 1);
            sampler.reset();
            sampler.sample_z_lane(&mut rng_a, &mut tile, W, lane);
            let mut fresh = FieldSampler::new(&m);
            fresh.sample_z_into(&mut rng_b, &mut z);
            for k in 0..n_pc {
                assert_eq!(
                    tile[k * W + lane].to_bits(),
                    z[k].to_bits(),
                    "component {k} lane {lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn sample_z_into_rejects_wrong_length() {
        let m = model();
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut sampler = FieldSampler::new(&m);
        let mut z = vec![0.0; m.n_components() + 1];
        sampler.sample_z_into(&mut rng, &mut z);
    }

    #[test]
    fn sampled_z_length_matches_components() {
        let m = model();
        let mut sampler = FieldSampler::new(&m);
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let die = sampler.sample_die(&mut rng);
        assert_eq!(die.z.len(), m.n_components());
        assert_eq!(die.base.len(), m.n_grids());
    }
}

#[cfg(test)]
mod cholesky_cross_validation {
    use super::*;
    use crate::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};
    use statobd_num::cholesky::Cholesky;
    use statobd_num::matrix::DMatrix;
    use statobd_num::rng::Xoshiro256pp;

    /// The PCA canonical form and direct Cholesky coloring of the same
    /// covariance must produce statistically identical grid fields — an
    /// end-to-end check that the eigendecomposition-based model samples
    /// the covariance it claims to.
    #[test]
    fn pca_sampling_matches_cholesky_sampling() {
        let model = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(4).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        let n = model.n_grids();
        let cov = DMatrix::from_fn(n, n, |i, j| model.covariance(i, j));
        let chol = Cholesky::new(&cov).unwrap();

        let mut rng = Xoshiro256pp::seed_from_u64(2024);
        let mut normal = statobd_num::rng::NormalSampler::new();
        let mut sampler = FieldSampler::new(&model);
        let samples = 30_000;
        // Accumulate the empirical covariance of grid pair (0, 5) from
        // both samplers.
        let (mut pca_cov, mut chol_cov) = (0.0, 0.0);
        for _ in 0..samples {
            let die = sampler.sample_die(&mut rng);
            pca_cov += (die.base[0] - 2.2) * (die.base[5] - 2.2);

            let mut z = vec![0.0; n];
            normal.fill(&mut rng, &mut z);
            let colored = chol.correlate(&z);
            chol_cov += colored[0] * colored[5];
        }
        let pca_cov = pca_cov / samples as f64;
        let chol_cov = chol_cov / samples as f64;
        let truth = model.covariance(0, 5);
        assert!(
            (pca_cov - truth).abs() < 0.05 * truth,
            "PCA sampler covariance {pca_cov:e} vs model {truth:e}"
        );
        assert!(
            (chol_cov - truth).abs() < 0.05 * truth,
            "Cholesky sampler covariance {chol_cov:e} vs model {truth:e}"
        );
    }
}
