//! Probability distributions with PDFs, CDFs, quantiles, moments and
//! sampling: normal, gamma and χ² (including fractional degrees of
//! freedom, as produced by the Yuan–Bentler approximation).

use crate::rng::NormalSampler;
use crate::rng::Rng;
use crate::special::{gamma_p, gamma_p_inv, ln_gamma, norm_cdf, norm_inv_cdf, norm_pdf};
use crate::{NumError, Result};

/// A univariate continuous distribution.
///
/// All the distributions in this module implement this trait so that
/// goodness-of-fit utilities and the reliability integration engines can be
/// written generically.
pub trait ContinuousDistribution: std::fmt::Debug {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile function (inverse CDF) at probability `p ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] when `p` is outside `(0, 1)`.
    fn quantile(&self, p: f64) -> Result<f64>;
    /// Mean of the distribution.
    fn mean(&self) -> f64;
    /// Variance of the distribution.
    fn variance(&self) -> f64;
}

/// Normal distribution `N(μ, σ²)`.
///
/// # Example
///
/// ```
/// use statobd_num::dist::{Normal, ContinuousDistribution};
///
/// let n = Normal::new(2.2, 0.03)?;
/// assert!((n.cdf(2.2) - 0.5).abs() < 1e-14);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `std_dev <= 0` or either argument is
    /// non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !(std_dev > 0.0) || !mean.is_finite() || !std_dev.is_finite() {
            return Err(NumError::Domain {
                detail: format!(
                    "Normal requires finite mean and std_dev > 0, got ({mean}, {std_dev})"
                ),
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Standard deviation σ.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, sampler: &mut NormalSampler) -> f64 {
        self.mean + self.std_dev * sampler.sample(rng)
    }
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mean) / self.std_dev) / self.std_dev
    }

    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mean) / self.std_dev)
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        Ok(self.mean + self.std_dev * norm_inv_cdf(p)?)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }
}

/// Gamma distribution with shape `k` and scale `θ` (mean `kθ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `shape <= 0` or `scale <= 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape > 0.0) || !(scale > 0.0) {
            return Err(NumError::Domain {
                detail: format!("Gamma requires shape > 0 and scale > 0, got ({shape}, {scale})"),
            });
        }
        Ok(Gamma { shape, scale })
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Moment-generating function `E[e^{sX}] = (1 − sθ)^{−k}` for `sθ < 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] when `s·scale ≥ 1` (the MGF diverges).
    pub fn mgf(&self, s: f64) -> Result<f64> {
        let st = s * self.scale;
        if st >= 1.0 {
            return Err(NumError::Domain {
                detail: format!("gamma MGF diverges for s*scale >= 1, got {st}"),
            });
        }
        Ok((1.0 - st).powf(-self.shape))
    }

    /// Draws one sample via the Marsaglia–Tsang method (with the Ahrens
    /// boost for `shape < 1`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, sampler: &mut NormalSampler) -> f64 {
        if self.shape < 1.0 {
            // Boost: X ~ Gamma(k+1), return X * U^{1/k}.
            let boosted = Gamma {
                shape: self.shape + 1.0,
                scale: self.scale,
            };
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return boosted.sample(rng, sampler) * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = sampler.sample(rng);
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
                return d * v * self.scale;
            }
        }
    }
}

impl ContinuousDistribution for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at zero: infinite for k < 1, 1/θ for k = 1, 0 for k > 1.
            return if self.shape < 1.0 {
                f64::INFINITY
            } else if self.shape == 1.0 {
                1.0 / self.scale
            } else {
                0.0
            };
        }
        let k = self.shape;
        let ln_pdf = (k - 1.0) * x.ln() - x / self.scale - ln_gamma(k) - k * self.scale.ln();
        ln_pdf.exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.shape, x / self.scale).unwrap_or(0.0)
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0..1.0).contains(&p) {
            return Err(NumError::Domain {
                detail: format!("quantile requires 0 <= p < 1, got {p}"),
            });
        }
        Ok(self.scale * gamma_p_inv(self.shape, p)?)
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// χ² distribution with (possibly fractional) degrees of freedom `k`.
///
/// This is the `Gamma(k/2, 2)` special case packaged with the reliability
/// literature's parameterization: the Yuan–Bentler approximation of the BLOD
/// sample variance produces `v ≈ v₀ + â·χ²_{b̂}` with non-integer `b̂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    gamma: Gamma,
    dof: f64,
}

impl ChiSquared {
    /// Creates a χ² distribution with `dof` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `dof <= 0`.
    pub fn new(dof: f64) -> Result<Self> {
        Ok(ChiSquared {
            gamma: Gamma::new(dof / 2.0, 2.0)?,
            dof,
        })
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, sampler: &mut NormalSampler) -> f64 {
        self.gamma.sample(rng, sampler)
    }
}

impl ContinuousDistribution for ChiSquared {
    fn pdf(&self, x: f64) -> f64 {
        self.gamma.pdf(x)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.gamma.cdf(x)
    }

    fn quantile(&self, p: f64) -> Result<f64> {
        self.gamma.quantile(p)
    }

    fn mean(&self) -> f64 {
        self.dof
    }

    fn variance(&self) -> f64 {
        2.0 * self.dof
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn normal_pdf_cdf_quantile() {
        let n = Normal::new(1.0, 2.0).unwrap();
        assert_close(n.cdf(1.0), 0.5, 1e-14);
        assert_close(
            n.pdf(1.0),
            1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt()),
            1e-14,
        );
        let q = n.quantile(0.975).unwrap();
        assert_close(q, 1.0 + 2.0 * 1.959_963_984_540_054, 1e-8);
        assert_close(n.cdf(n.quantile(0.123).unwrap()), 0.123, 1e-12);
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn gamma_moments_and_cdf() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        assert_close(g.mean(), 6.0, 1e-14);
        assert_close(g.variance(), 12.0, 1e-14);
        // Gamma(1, θ) is exponential.
        let e = Gamma::new(1.0, 2.0).unwrap();
        assert_close(e.cdf(2.0), 1.0 - (-1.0f64).exp(), 1e-13);
    }

    #[test]
    fn gamma_mgf_matches_monte_carlo_free_identity() {
        let g = Gamma::new(2.5, 0.1).unwrap();
        // MGF at 0 is 1; derivative at 0 is the mean (finite difference).
        assert_close(g.mgf(0.0).unwrap(), 1.0, 1e-14);
        let h = 1e-6;
        let deriv = (g.mgf(h).unwrap() - g.mgf(-h).unwrap()) / (2.0 * h);
        assert_close(deriv, g.mean(), 1e-5);
        assert!(g.mgf(10.1).is_err());
    }

    #[test]
    fn chi_squared_fractional_dof() {
        let c = ChiSquared::new(1.7).unwrap();
        assert_close(c.mean(), 1.7, 1e-14);
        assert_close(c.variance(), 3.4, 1e-14);
        let q = c.quantile(0.5).unwrap();
        assert_close(c.cdf(q), 0.5, 1e-10);
    }

    #[test]
    fn sampling_moments_converge() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut ns = NormalSampler::new();
        let g = Gamma::new(2.0, 3.0).unwrap();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng, &mut ns)).sum::<f64>() / n as f64;
        assert_close(mean, g.mean(), 0.05);
    }

    #[test]
    fn gamma_sample_small_shape() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut ns = NormalSampler::new();
        let g = Gamma::new(0.3, 1.0).unwrap();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng, &mut ns)).sum::<f64>() / n as f64;
        assert_close(mean, 0.3, 0.02);
    }

    #[test]
    fn pdf_nonnegative_and_zero_left_of_support() {
        let g = Gamma::new(2.0, 1.0).unwrap();
        assert_eq!(g.pdf(-1.0), 0.0);
    }
}
