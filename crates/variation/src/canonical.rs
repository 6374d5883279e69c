//! The PCA canonical form of the thickness variation model (paper eq. 2).
//!
//! Assembles the grid-level covariance (global + spatially correlated
//! components), eigendecomposes it, and stores the loadings so the oxide
//! thickness of a device in grid `g` is
//!
//! ```text
//! x = nominal[g] + Σ_k loadings[g, k] · z_k + σ_ind · ε
//! ```
//!
//! with `z_k`, `ε` independent standard normals.

use crate::{
    CorrelationKernel, GridSpec, Result, SystematicPattern, VarianceBudget, VariationError,
};
use statobd_num::eigen::{extend_over_cluster, SymmetricEigen};
use statobd_num::matrix::DMatrix;
use std::time::Instant;

/// Relative eigenvalue floor: components with `λ < EIG_FLOOR · λ_max` are
/// treated as numerically zero and dropped.
const EIG_FLOOR: f64 = 1e-12;

/// Wall-clock breakdown of one model construction (see
/// [`ThicknessModelBuilder::build_with_stats`]): covariance assembly,
/// eigendecomposition, and loading truncation/scaling, plus the model's
/// size. The timings are measured, so they vary run-to-run; the
/// structural fields are deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ModelBuildStats {
    /// Correlation-grid count `n` (the covariance is `n × n`).
    pub n_grids: usize,
    /// Principal components retained by the truncation.
    pub n_components: usize,
    /// Seconds spent assembling the grid covariance matrix.
    pub covariance_s: f64,
    /// Seconds spent in the eigendecomposition.
    pub eigen_s: f64,
    /// Seconds spent selecting components and scaling the loadings.
    pub truncation_s: f64,
}

impl ModelBuildStats {
    /// Total build time across the three stages.
    pub fn total_s(&self) -> f64 {
        self.covariance_s + self.eigen_s + self.truncation_s
    }
}

/// The canonical-form thickness variation model (paper eq. 2).
///
/// Built by [`ThicknessModelBuilder`]. The correlated part (inter-die
/// global + intra-die spatial) is expressed over independent standard
/// normal principal components; the residual independent part is a single
/// sigma (`λ_r`).
#[derive(Debug, Clone)]
pub struct ThicknessModel {
    grid: GridSpec,
    nominal: Vec<f64>,
    loadings: DMatrix,
    sigma_ind: f64,
    budget: VarianceBudget,
    kernel: CorrelationKernel,
}

impl ThicknessModel {
    /// The correlation grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Number of correlation grids `n`.
    pub fn n_grids(&self) -> usize {
        self.grid.n_grids()
    }

    /// Number of retained principal components.
    pub fn n_components(&self) -> usize {
        self.loadings.ncols()
    }

    /// Per-grid nominal thickness (`λ_{i,0}` of eq. 2: the technology
    /// nominal plus any systematic pattern offset).
    pub fn nominal(&self) -> &[f64] {
        &self.nominal
    }

    /// The `n_grids × n_components` loadings matrix (`λ_{i,j}` of eq. 2).
    pub fn loadings(&self) -> &DMatrix {
        &self.loadings
    }

    /// Residual independent sigma (`λ_r` of eq. 2).
    pub fn sigma_ind(&self) -> f64 {
        self.sigma_ind
    }

    /// The variance budget the model was built from.
    pub fn budget(&self) -> &VarianceBudget {
        &self.budget
    }

    /// The correlation kernel the model was built from.
    pub fn kernel(&self) -> &CorrelationKernel {
        &self.kernel
    }

    /// Correlated (grid-level) thickness for every grid given principal
    /// component values `z`: `nominal + loadings · z`.
    ///
    /// This is the per-die "base field"; adding `σ_ind·ε` per device
    /// completes a device sample.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != n_components()`.
    pub fn grid_base(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(
            z.len(),
            self.n_components(),
            "principal-component vector length mismatch"
        );
        let mut out = self.nominal.clone();
        for g in 0..self.n_grids() {
            let row = self.loadings.row(g);
            let mut acc = 0.0;
            for (l, zk) in row.iter().zip(z) {
                acc += l * zk;
            }
            out[g] += acc;
        }
        out
    }

    /// Correlated standard deviation of grid `g` (should equal
    /// `sqrt(σ_g² + σ_spa²)` up to truncation).
    ///
    /// # Panics
    ///
    /// Panics if `g >= n_grids()`.
    pub fn grid_sigma(&self, g: usize) -> f64 {
        assert!(g < self.n_grids(), "grid index out of range");
        self.loadings
            .row(g)
            .iter()
            .map(|l| l * l)
            .sum::<f64>()
            .sqrt()
    }

    /// Covariance between the correlated components of grids `a` and `b`,
    /// reconstructed from the loadings.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn covariance(&self, a: usize, b: usize) -> f64 {
        assert!(
            a < self.n_grids() && b < self.n_grids(),
            "grid index out of range"
        );
        let ra = self.loadings.row(a);
        let rb = self.loadings.row(b);
        ra.iter().zip(rb).map(|(x, y)| x * y).sum()
    }

    /// Reconstructs a model from previously computed parts — the artifact
    /// cache load path, which must skip the eigendecomposition entirely.
    ///
    /// Validates the cross-field invariants (`nominal` and `loadings` rows
    /// must match the grid count; `sigma_ind` must be finite and
    /// non-negative) but trusts the loadings themselves: they are whatever
    /// PCA produced at build time.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidParameter`] on any dimension or
    /// domain violation.
    pub fn from_parts(
        grid: GridSpec,
        nominal: Vec<f64>,
        loadings: DMatrix,
        sigma_ind: f64,
        budget: VarianceBudget,
        kernel: CorrelationKernel,
    ) -> Result<Self> {
        let n = grid.n_grids();
        if nominal.len() != n {
            return Err(VariationError::InvalidParameter {
                detail: format!("nominal has {} entries for {} grids", nominal.len(), n),
            });
        }
        if loadings.nrows() != n {
            return Err(VariationError::InvalidParameter {
                detail: format!("loadings have {} rows for {} grids", loadings.nrows(), n),
            });
        }
        if !(sigma_ind >= 0.0) || !sigma_ind.is_finite() {
            return Err(VariationError::InvalidParameter {
                detail: format!("sigma_ind must be non-negative, got {sigma_ind}"),
            });
        }
        Ok(ThicknessModel {
            grid,
            nominal,
            loadings,
            sigma_ind,
            budget,
            kernel,
        })
    }

    /// Eigendecomposes the grid covariance, checks it is positive
    /// semidefinite, and keeps the numerically positive components as
    /// loadings scaled by `√λ`. Returns the loadings plus the
    /// `(eigen, truncation)` stage timings for
    /// [`ThicknessModelBuilder::build_with_stats`].
    fn principal_loadings(covariance: &DMatrix) -> Result<(DMatrix, (f64, f64))> {
        let n = covariance.nrows();
        let eigen_start = Instant::now();
        let eig = SymmetricEigen::new(covariance)?;
        let eigen_s = eigen_start.elapsed().as_secs_f64();

        let truncation_start = Instant::now();
        let eigenvalues = eig.eigenvalues();
        let lambda_max = eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        if let Some(&min) = eigenvalues.last() {
            if min < -1e-8 * lambda_max.max(1.0) {
                return Err(VariationError::InvalidCovariance {
                    min_eigenvalue: min,
                });
            }
        }

        // Retain components: eigenvalues above the floor, until their
        // cumulative sum reaches the trace (the whole energy of a PSD
        // covariance).
        let total_energy = covariance.trace();
        let mut kept = 0;
        let mut cum = 0.0;
        for &l in eigenvalues {
            if l <= EIG_FLOOR * lambda_max || (total_energy > 0.0 && cum >= total_energy) {
                break;
            }
            cum += l;
            kept += 1;
        }
        // Symmetric grids have exactly repeated eigenvalues; never cut
        // inside such a cluster or the retained subspace (and hence the
        // model covariance) would depend on which basis of its eigenspace
        // the solver returned.
        kept = extend_over_cluster(eigenvalues, kept);
        // Degenerate case: a zero covariance (pure-independent budget).
        let loadings = if kept == 0 {
            DMatrix::zeros(n, 0)
        } else {
            let v = eig.eigenvectors();
            DMatrix::from_fn(n, kept, |g, k| v[(g, k)] * eigenvalues[k].sqrt())
        };
        let truncation_s = truncation_start.elapsed().as_secs_f64();
        Ok((loadings, (eigen_s, truncation_s)))
    }
}

impl statobd_num::json::ToJson for ThicknessModel {
    fn to_json(&self) -> statobd_num::json::Json {
        use statobd_num::json::Json;
        Json::Object(vec![
            ("grid".to_string(), self.grid.to_json()),
            (
                "nominal".to_string(),
                statobd_num::json::pack_f64s(&self.nominal),
            ),
            ("loadings".to_string(), self.loadings.to_json()),
            ("sigma_ind".to_string(), self.sigma_ind.to_json()),
            ("budget".to_string(), self.budget.to_json()),
            ("kernel".to_string(), self.kernel.to_json()),
        ])
    }
}

impl statobd_num::json::FromJson for ThicknessModel {
    fn from_json(v: &statobd_num::json::Json) -> statobd_num::json::Result<Self> {
        use statobd_num::json::JsonError;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| JsonError::new(format!("missing field '{k}' in ThicknessModel")))
        };
        ThicknessModel::from_parts(
            GridSpec::from_json(field("grid")?)?,
            statobd_num::json::unpack_f64s(field("nominal")?)?,
            DMatrix::from_json(field("loadings")?)?,
            f64::from_json(field("sigma_ind")?)?,
            VarianceBudget::from_json(field("budget")?)?,
            CorrelationKernel::from_json(field("kernel")?)?,
        )
        .map_err(|e| JsonError::new(e.to_string()))
    }
}

/// Builder for [`ThicknessModel`] (paper Sec. II pipeline: covariance
/// assembly → PCA → canonical form).
///
/// # Example
///
/// ```
/// use statobd_variation::*;
///
/// let model = ThicknessModelBuilder::new()
///     .grid(GridSpec::square_unit(10)?)
///     .nominal(2.2)
///     .budget(VarianceBudget::itrs_2008(2.2)?)
///     .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
///     .systematic(SystematicPattern::None)
///     .build()?;
/// // Grid sigma reproduces the correlated budget.
/// let expected = (model.budget().sigma_global().powi(2)
///     + model.budget().sigma_spatial().powi(2)).sqrt();
/// assert!((model.grid_sigma(0) - expected).abs() < 1e-9);
/// # Ok::<(), VariationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThicknessModelBuilder {
    grid: Option<GridSpec>,
    nominal: Option<f64>,
    budget: Option<VarianceBudget>,
    kernel: Option<CorrelationKernel>,
    systematic: SystematicPattern,
}

impl Default for ThicknessModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThicknessModelBuilder {
    /// Creates a builder with no defaults for the required fields (grid,
    /// nominal, budget, kernel).
    pub fn new() -> Self {
        ThicknessModelBuilder {
            grid: None,
            nominal: None,
            budget: None,
            kernel: None,
            systematic: SystematicPattern::None,
        }
    }

    /// Sets the correlation grid (required).
    pub fn grid(mut self, grid: GridSpec) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Sets the nominal oxide thickness `u₀` (required).
    pub fn nominal(mut self, u0: f64) -> Self {
        self.nominal = Some(u0);
        self
    }

    /// Sets the variance budget (required).
    pub fn budget(mut self, budget: VarianceBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the correlation kernel (required).
    pub fn kernel(mut self, kernel: CorrelationKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Sets a wafer-level systematic pattern (optional; default none).
    pub fn systematic(mut self, pattern: SystematicPattern) -> Self {
        self.systematic = pattern;
        self
    }

    /// Assembles the covariance, runs PCA and builds the model.
    ///
    /// # Errors
    ///
    /// * [`VariationError::InvalidParameter`] if a required field is
    ///   missing or invalid,
    /// * [`VariationError::InvalidCovariance`] if the kernel produces an
    ///   indefinite covariance,
    /// * [`VariationError::Numerical`] on eigendecomposition failure.
    pub fn build(self) -> Result<ThicknessModel> {
        self.build_with_stats().map(|(model, _)| model)
    }

    /// As [`ThicknessModelBuilder::build`], additionally returning a
    /// wall-clock breakdown of the three construction stages (covariance
    /// assembly, eigendecomposition, truncation) — the numbers behind the
    /// `statobd bench --timings` report and the `models` benchmark.
    ///
    /// # Errors
    ///
    /// As for [`ThicknessModelBuilder::build`].
    pub fn build_with_stats(self) -> Result<(ThicknessModel, ModelBuildStats)> {
        let grid = self.grid.ok_or_else(|| VariationError::InvalidParameter {
            detail: "grid is required".to_string(),
        })?;
        let u0 = self
            .nominal
            .ok_or_else(|| VariationError::InvalidParameter {
                detail: "nominal thickness is required".to_string(),
            })?;
        if !(u0 > 0.0) || !u0.is_finite() {
            return Err(VariationError::InvalidParameter {
                detail: format!("nominal thickness must be positive, got {u0}"),
            });
        }
        let budget = self
            .budget
            .ok_or_else(|| VariationError::InvalidParameter {
                detail: "variance budget is required".to_string(),
            })?;
        let kernel = self
            .kernel
            .ok_or_else(|| VariationError::InvalidParameter {
                detail: "correlation kernel is required".to_string(),
            })?;
        if !kernel.is_valid() {
            return Err(VariationError::InvalidParameter {
                detail: format!("invalid kernel {kernel:?}"),
            });
        }
        let sigma_ind = budget.sigma_independent();
        if !(sigma_ind >= 0.0) {
            return Err(VariationError::InvalidParameter {
                detail: format!("sigma_ind must be non-negative, got {sigma_ind}"),
            });
        }

        let n = grid.n_grids();
        let var_g = budget.sigma_global().powi(2);
        let var_s = budget.sigma_spatial().powi(2);
        let dim = grid.max_dimension();
        let covariance_start = Instant::now();
        let cov = DMatrix::from_fn(n, n, |i, j| {
            let d = grid.distance(i, j);
            var_g + var_s * kernel.correlation(d, dim)
        });
        let covariance_s = covariance_start.elapsed().as_secs_f64();

        let nominal: Vec<f64> = (0..n)
            .map(|g| {
                let (x, y) = grid.center(g);
                u0 + self.systematic.offset(x / grid.chip_w(), y / grid.chip_h())
            })
            .collect();

        let (loadings, (eigen_s, truncation_s)) = ThicknessModel::principal_loadings(&cov)?;
        let model = ThicknessModel {
            grid,
            nominal,
            loadings,
            sigma_ind,
            budget,
            kernel,
        };
        let stats = ModelBuildStats {
            n_grids: n,
            n_components: model.n_components(),
            covariance_s,
            eigen_s,
            truncation_s,
        };
        Ok((model, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_model(n: usize, rel: f64) -> ThicknessModel {
        ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(n).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: rel })
            .build()
            .unwrap()
    }

    #[test]
    fn loadings_reproduce_covariance() {
        let m = build_model(6, 0.5);
        let grid = *m.grid();
        let b = m.budget();
        let var_g = b.sigma_global().powi(2);
        let var_s = b.sigma_spatial().powi(2);
        for &(a, c) in &[(0usize, 0usize), (0, 35), (5, 17), (12, 12)] {
            let d = grid.distance(a, c);
            let expected = var_g + var_s * (-d / 0.5).exp();
            let got = m.covariance(a, c);
            assert!(
                (got - expected).abs() < 1e-10,
                "cov({a},{c}): {got} vs {expected}"
            );
        }
    }

    #[test]
    fn gaussian_kernel_with_a_rounding_level_tail_builds() {
        // The smooth kernel's smallest eigenvalues sit at rounding level,
        // where QL once stalled instead of deflating them.
        let rel = 0.25;
        let m = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(18).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Gaussian { rel_distance: rel })
            .build()
            .unwrap();
        let grid = *m.grid();
        let b = m.budget();
        let var_g = b.sigma_global().powi(2);
        let var_s = b.sigma_spatial().powi(2);
        for &(a, c) in &[(0usize, 0usize), (0, 323), (5, 17), (40, 41), (160, 161)] {
            let d = grid.distance(a, c);
            let expected = var_g + var_s * (-(d / rel).powi(2)).exp();
            let got = m.covariance(a, c);
            assert!(
                (got - expected).abs() < 1e-10,
                "cov({a},{c}): {got} vs {expected}"
            );
        }
    }

    #[test]
    fn grid_sigma_matches_budget() {
        let m = build_model(5, 0.25);
        let b = m.budget();
        let expected = (b.sigma_global().powi(2) + b.sigma_spatial().powi(2)).sqrt();
        for g in 0..m.n_grids() {
            assert!((m.grid_sigma(g) - expected).abs() < 1e-10);
        }
        let s = m.grid_sigma(0);
        let device_sigma = (s * s + m.sigma_ind * m.sigma_ind).sqrt();
        assert!((device_sigma - b.sigma_total()).abs() < 1e-10);
    }

    #[test]
    fn grid_base_at_zero_is_nominal() {
        let m = build_model(4, 0.5);
        let z = vec![0.0; m.n_components()];
        assert_eq!(m.grid_base(&z), m.nominal().to_vec());
    }

    #[test]
    fn grid_base_shifts_with_first_component() {
        let m = build_model(4, 0.5);
        let mut z = vec![0.0; m.n_components()];
        z[0] = 1.0;
        let base = m.grid_base(&z);
        // First PC of a global+spatial covariance is close to the common
        // mode: all grids move the same direction.
        let signs: Vec<bool> = base.iter().zip(m.nominal()).map(|(b, n)| b > n).collect();
        assert!(signs.iter().all(|&s| s) || signs.iter().all(|&s| !s));
    }

    #[test]
    fn systematic_bowl_shifts_nominal() {
        let m = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(3).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .systematic(SystematicPattern::Bowl {
                depth: 0.01,
                center: (0.5, 0.5),
            })
            .build()
            .unwrap();
        // Center grid (index 4 of a 3x3) is the bowl minimum.
        let center = m.nominal()[4];
        for (g, &n) in m.nominal().iter().enumerate() {
            if g != 4 {
                assert!(n >= center, "grid {g}: {n} < center {center}");
            }
        }
    }

    #[test]
    fn pure_independent_budget_has_no_components() {
        let m = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(3).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::new(0.03, 0.0, 0.0, 1.0).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        assert_eq!(m.n_components(), 0);
        assert_eq!(m.grid_sigma(0), 0.0);
        assert_eq!(m.sigma_ind(), 0.03);
        let base = m.grid_base(&[]);
        assert_eq!(base, m.nominal().to_vec());
    }

    #[test]
    fn builder_requires_all_fields() {
        assert!(ThicknessModelBuilder::new().build().is_err());
        assert!(ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(2).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_bad_values() {
        let base = || {
            ThicknessModelBuilder::new()
                .grid(GridSpec::square_unit(2).unwrap())
                .budget(VarianceBudget::itrs_2008(2.2).unwrap())
                .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        };
        assert!(base().nominal(-2.2).build().is_err());
        assert!(base()
            .nominal(2.2)
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.0 })
            .build()
            .is_err());
    }

    #[test]
    fn build_with_stats_reports_the_breakdown() {
        let (model, stats) = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(8).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build_with_stats()
            .unwrap();
        assert_eq!(stats.n_grids, 64);
        assert_eq!(stats.n_components, model.n_components());
        assert!(stats.covariance_s >= 0.0);
        assert!(stats.eigen_s >= 0.0);
        assert!(stats.truncation_s >= 0.0);
        assert!(stats.total_s() >= stats.eigen_s);
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        use statobd_num::json::{from_str, to_string};
        let m = build_model(6, 0.5);
        let back: ThicknessModel = from_str(&to_string(&m)).unwrap();
        assert_eq!(back.n_grids(), m.n_grids());
        assert_eq!(back.n_components(), m.n_components());
        assert_eq!(back.sigma_ind().to_bits(), m.sigma_ind().to_bits());
        for (a, b) in m
            .loadings()
            .as_slice()
            .iter()
            .zip(back.loadings().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in m.nominal().iter().zip(back.nominal()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn from_parts_validates_dimensions() {
        let m = build_model(3, 0.5);
        // Wrong nominal length.
        assert!(ThicknessModel::from_parts(
            *m.grid(),
            vec![2.2; 5],
            m.loadings().clone(),
            m.sigma_ind(),
            *m.budget(),
            *m.kernel(),
        )
        .is_err());
        // Wrong loadings row count.
        assert!(ThicknessModel::from_parts(
            *m.grid(),
            m.nominal().to_vec(),
            DMatrix::zeros(4, 2),
            m.sigma_ind(),
            *m.budget(),
            *m.kernel(),
        )
        .is_err());
        // Negative sigma.
        assert!(ThicknessModel::from_parts(
            *m.grid(),
            m.nominal().to_vec(),
            m.loadings().clone(),
            -0.1,
            *m.budget(),
            *m.kernel(),
        )
        .is_err());
    }
}
