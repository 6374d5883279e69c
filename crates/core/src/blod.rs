//! Block-level oxide-thickness distribution (BLOD) characterization
//! (paper Sec. IV-A/IV-C).
//!
//! For block `j` with device weights `w_g` over the correlation grids, the
//! BLOD sample mean and variance as functions of the principal components
//! `z` are
//!
//! ```text
//! u_j(z) = u_{j,0} + Σ_k u_{j,k} z_k                    (eq. 22)
//! v_j(z) = λ_r² + zᵀ Q_j z                              (eq. 24, corrected)
//! Q_j    = Σ_g w_g (λ_g − u_j)(λ_g − u_j)ᵀ
//! ```
//!
//! (The paper's printed eq. 24 has a sign typo; the centered quadratic
//! form above is the correct covariance-of-deviations expression — see
//! DESIGN.md. Its positive semidefiniteness is what makes the χ²
//! approximation applicable.)
//!
//! `u_j` is Gaussian. `v_j` is a quadratic form in Gaussians, approximated
//! by the Yuan–Bentler two-moment fit (eqs. 29–30):
//!
//! ```text
//! v_j ≈ λ_r² + â·χ²_b̂,   â = tr(Q²)/tr(Q),   b̂ = tr(Q)²/tr(Q²)
//! ```

use crate::chip::BlockSpec;
use crate::Result;
use statobd_num::dist::{ContinuousDistribution, Gamma, Normal};
use statobd_num::eigen::{filter_full_spectrum, SymmetricEigen};
use statobd_num::matrix::DMatrix;
use statobd_num::simd;
use statobd_variation::ThicknessModel;

/// Fraction of `tr(Q)` the retained low-rank projection of `Q` must
/// capture (used by the sampling-based engines to evaluate `v(z)`).
///
/// Truncating at `1 − 10⁻⁴` keeps `v(z)` accurate to a relative 10⁻⁴,
/// two orders below the method's ~1 % accuracy target. The cut keeps
/// almost every component: the centred Gram matrix of a block with
/// `n_bg` grids has at most `n_bg − 1` nonzero eigenvalues, and summed
/// over the blocks at the paper's 25 × 25 grid and ρ = 0.5 the cut keeps
/// 695 of the 696 on C1, 711 of 728 on C3 and all 468 on MC16.
const PROJECTION_ENERGY: f64 = 1.0 - 1e-4;

/// Rows of the projection matrix that [`BlodMoments::uv_given_z_tile`]
/// projects per kernel call, into a stack buffer (16 KiB at `W = 8`).
/// Every block of the bundled designs at the paper's 25 × 25 grid has
/// fewer (at most 169, on C6), so each of their blocks is one call.
const UV_TILE_ROWS: usize = 256;

/// Distribution of the BLOD sample mean `u_j`.
#[derive(Debug, Clone)]
pub enum MeanDist {
    /// No correlated components: `u_j` is a constant.
    Deterministic(f64),
    /// `u_j ~ N(u_{j,0}, σ_u²)`.
    Gaussian(Normal),
}

impl MeanDist {
    /// Mean of `u_j`.
    pub fn mean(&self) -> f64 {
        match self {
            MeanDist::Deterministic(u) => *u,
            MeanDist::Gaussian(n) => n.mean(),
        }
    }

    /// Standard deviation of `u_j`.
    pub fn std_dev(&self) -> f64 {
        match self {
            MeanDist::Deterministic(_) => 0.0,
            MeanDist::Gaussian(n) => n.std_dev(),
        }
    }
}

/// Distribution of the BLOD sample variance `v_j` (the χ² approximation
/// of the quadratic form, eqs. 29–30).
#[derive(Debug, Clone)]
pub enum VarianceDist {
    /// The block sits inside one grid (or has no correlated variation):
    /// `v_j` is constant.
    Deterministic(f64),
    /// `v_j = floor + G`, `G ~ Gamma(b̂/2, 2â)`.
    ShiftedGamma {
        /// The deterministic floor `v_{j,0} = λ_r²` (plus any systematic
        /// within-block spread).
        floor: f64,
        /// The fitted gamma component.
        gamma: Gamma,
    },
}

impl VarianceDist {
    /// Mean of `v_j`.
    pub fn mean(&self) -> f64 {
        match self {
            VarianceDist::Deterministic(v) => *v,
            VarianceDist::ShiftedGamma { floor, gamma } => floor + gamma.mean(),
        }
    }

    /// Variance of `v_j`.
    pub fn variance(&self) -> f64 {
        match self {
            VarianceDist::Deterministic(_) => 0.0,
            VarianceDist::ShiftedGamma { gamma, .. } => gamma.variance(),
        }
    }

    /// Quantile of `v_j`.
    ///
    /// # Errors
    ///
    /// Propagates quantile domain errors for `p ∉ [0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        match self {
            VarianceDist::Deterministic(v) => Ok(*v),
            VarianceDist::ShiftedGamma { floor, gamma } => Ok(floor + gamma.quantile(p)?),
        }
    }

    /// CDF of `v_j` at `v`.
    pub fn cdf(&self, v: f64) -> f64 {
        match self {
            VarianceDist::Deterministic(v0) => {
                if v >= *v0 {
                    1.0
                } else {
                    0.0
                }
            }
            VarianceDist::ShiftedGamma { floor, gamma } => gamma.cdf(v - floor),
        }
    }

    /// Moment-generating function `E[e^{s·v}]` (used by the closed-form
    /// engine).
    ///
    /// # Errors
    ///
    /// Returns a domain error when the gamma MGF diverges (`s·scale ≥ 1`).
    pub fn mgf(&self, s: f64) -> Result<f64> {
        match self {
            VarianceDist::Deterministic(v) => Ok((s * v).exp()),
            VarianceDist::ShiftedGamma { floor, gamma } => Ok((s * floor).exp() * gamma.mgf(s)?),
        }
    }
}

/// The characterized BLOD of one block.
#[derive(Debug, Clone)]
pub struct BlodMoments {
    /// Nominal sample mean `u_{j,0}`.
    u_nominal: f64,
    /// The projection rows, row-major with `n_components` columns: row 0
    /// holds the principal-component sensitivities `u_{j,k}` (eq. 22),
    /// rows `1..` the low-rank projection vectors `a_r` with
    /// `zᵀQz = Σ_r (a_rᵀ z)²`. One matrix so a lane tile projects both in
    /// one pass ([`BlodMoments::uv_given_z_tile`]).
    uv_rows: Vec<f64>,
    /// Row length of `uv_rows`: the model's principal-component count.
    n_components: usize,
    /// `σ_u = ‖u_coeffs‖`.
    u_sigma: f64,
    /// `v_{j,0}`: the independent-variance floor (plus systematic spread).
    v_floor: f64,
    /// `tr(Q_j)`.
    q_trace: f64,
    /// `tr(Q_j²)`.
    q_trace_sq: f64,
    /// The fitted χ² scale `â` (0 when `Q = 0`).
    chi2_scale: f64,
    /// The fitted χ² degrees of freedom `b̂` (0 when `Q = 0`).
    chi2_dof: f64,
}

// Manual (de)serialization instead of `impl_json_struct`: the component
// arrays scale with the model size, so they use the packed bit-exact
// float encoding to keep persisted artifacts cheap to load.
impl statobd_num::json::ToJson for BlodMoments {
    fn to_json(&self) -> statobd_num::json::Json {
        use statobd_num::json::{pack_f64s, Json};
        Json::Object(vec![
            ("u_nominal".to_string(), self.u_nominal.to_json()),
            ("u_coeffs".to_string(), pack_f64s(self.u_coeffs())),
            ("u_sigma".to_string(), self.u_sigma.to_json()),
            ("v_floor".to_string(), self.v_floor.to_json()),
            ("q_trace".to_string(), self.q_trace.to_json()),
            ("q_trace_sq".to_string(), self.q_trace_sq.to_json()),
            (
                "v_projections".to_string(),
                Json::Array(self.v_rows().map(pack_f64s).collect()),
            ),
            ("chi2_scale".to_string(), self.chi2_scale.to_json()),
            ("chi2_dof".to_string(), self.chi2_dof.to_json()),
        ])
    }
}

impl statobd_num::json::FromJson for BlodMoments {
    fn from_json(v: &statobd_num::json::Json) -> statobd_num::json::Result<Self> {
        use statobd_num::json::{packed_f64_len, unpack_f64s_into, Json, JsonError};
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| JsonError::new(format!("missing field '{k}' in BlodMoments")))
        };
        let u_row = field("u_coeffs")?;
        let rows = match field("v_projections")? {
            Json::Array(rows) => rows,
            other => {
                return Err(JsonError::new(format!(
                    "expected an array of packed projections, got {other}"
                )))
            }
        };
        // The u row, then each projection row appended after it, in one
        // allocation sized from the document itself. A row of another
        // length would misalign every row after it.
        let mut uv_rows = Vec::with_capacity(
            packed_f64_len(u_row) + rows.iter().map(packed_f64_len).sum::<usize>(),
        );
        unpack_f64s_into(u_row, &mut uv_rows)?;
        let n_components = uv_rows.len();
        for (r, row) in rows.iter().enumerate() {
            unpack_f64s_into(row, &mut uv_rows)?;
            let len = uv_rows.len() - (r + 1) * n_components;
            if len != n_components {
                return Err(JsonError::new(format!(
                    "v projection {r} has {len} components, u_coeffs {n_components}"
                )));
            }
        }
        Ok(BlodMoments {
            u_nominal: f64::from_json(field("u_nominal")?)?,
            uv_rows,
            n_components,
            u_sigma: f64::from_json(field("u_sigma")?)?,
            v_floor: f64::from_json(field("v_floor")?)?,
            q_trace: f64::from_json(field("q_trace")?)?,
            q_trace_sq: f64::from_json(field("q_trace_sq")?)?,
            chi2_scale: f64::from_json(field("chi2_scale")?)?,
            chi2_dof: f64::from_json(field("chi2_dof")?)?,
        })
    }
}

impl BlodMoments {
    /// Characterizes the BLOD of `block` under `model` (eqs. 22/24/29/30).
    ///
    /// # Errors
    ///
    /// Propagates eigendecomposition failures from the Gram-matrix
    /// low-rank projection ([`crate::CoreError::Numerical`]).
    ///
    /// # Panics
    ///
    /// Panics if the block references grids outside the model (the
    /// [`crate::ChipAnalysis`] constructor validates this).
    pub fn characterize(model: &ThicknessModel, block: &BlockSpec) -> Result<Self> {
        let n_pc = model.n_components();
        let weights = block.grid_weights();

        // u coefficients (eq. 22): u_k = Σ_g w_g λ[g, k], the first row
        // of the projection matrix.
        let mut uv_rows = vec![0.0; n_pc];
        let mut u_nominal = 0.0;
        for &(g, w) in weights {
            u_nominal += w * model.nominal()[g];
            let row = model.loadings().row(g);
            for (uk, l) in uv_rows.iter_mut().zip(row) {
                *uk += w * l;
            }
        }
        let u_coeffs = &uv_rows[..];
        let u_sigma = u_coeffs.iter().map(|c| c * c).sum::<f64>().sqrt();

        // Centered factor rows: F[r] = sqrt(w_g) (λ_g − u_coeffs), so that
        // Q = FᵀF. Also accumulate the systematic nominal spread into the
        // floor (approximation documented in DESIGN.md).
        let n_bg = weights.len();
        let mut f = DMatrix::zeros(n_bg, n_pc);
        let mut nominal_spread = 0.0;
        for (r, &(g, w)) in weights.iter().enumerate() {
            let sw = w.sqrt();
            let row = model.loadings().row(g);
            for k in 0..n_pc {
                f[(r, k)] = sw * (row[k] - u_coeffs[k]);
            }
            let dn = model.nominal()[g] - u_nominal;
            nominal_spread += w * dn * dn;
        }
        let v_floor = model.sigma_ind().powi(2) + nominal_spread;

        // Gram matrix G = F·Fᵀ (n_bg × n_bg): tr(Q) = tr(G),
        // tr(Q²) = Σ G_ik², and the eigenvectors of G give the low-rank
        // projection of Q.
        let gram = f.mul(&f.transpose())?;
        let q_trace = gram.trace();
        let q_trace_sq = gram.as_slice().iter().map(|x| x * x).sum::<f64>();

        // Yuan–Bentler fit (eqs. 29–30, repaired form):
        // â = tr(Q²)/tr(Q), b̂ = tr(Q)²/tr(Q²).
        let (chi2_scale, chi2_dof) = if q_trace > 1e-30 && q_trace_sq > 0.0 {
            (q_trace_sq / q_trace, q_trace * q_trace / q_trace_sq)
        } else {
            (0.0, 0.0)
        };

        // Low-rank projections a_r = Fᵀ·y_r (y_r eigenvectors of G), so
        // zᵀQz = Σ_r (a_rᵀz)², appended as rows 1.. of the projection
        // matrix. Retained until PROJECTION_ENERGY of tr(Q); the cut keeps
        // positive eigenvalues only.
        if q_trace > 1e-30 {
            let eig = SymmetricEigen::new(&gram)?;
            let (_, ys) =
                filter_full_spectrum(eig.eigenvalues(), eig.eigenvectors(), PROJECTION_ENERGY);
            uv_rows.resize((1 + ys.ncols()) * n_pc, 0.0);
            for r in 0..ys.ncols() {
                let y: Vec<f64> = ys.column(r);
                // a_r = Fᵀ y_r.
                let a = &mut uv_rows[(1 + r) * n_pc..(2 + r) * n_pc];
                for (row_idx, &yv) in y.iter().enumerate() {
                    if yv == 0.0 {
                        continue;
                    }
                    let frow = f.row(row_idx);
                    for (ak, fv) in a.iter_mut().zip(frow) {
                        *ak += yv * fv;
                    }
                }
            }
        }

        Ok(BlodMoments {
            u_nominal,
            uv_rows,
            n_components: n_pc,
            u_sigma,
            v_floor,
            q_trace,
            q_trace_sq,
            chi2_scale,
            chi2_dof,
        })
    }

    /// Nominal sample mean `u_{j,0}`.
    pub fn u_nominal(&self) -> f64 {
        self.u_nominal
    }

    /// Principal-component sensitivities of the sample mean.
    pub fn u_coeffs(&self) -> &[f64] {
        &self.uv_rows[..self.n_components]
    }

    /// The low-rank projection vectors `a_r` of `v(z)`, in order.
    fn v_rows(&self) -> std::slice::ChunksExact<'_, f64> {
        // With no components there are no projections and the slice is
        // empty; `max(1)` only keeps the chunk size valid.
        self.uv_rows[self.n_components..].chunks_exact(self.n_components.max(1))
    }

    /// Standard deviation of the sample mean.
    pub fn u_sigma(&self) -> f64 {
        self.u_sigma
    }

    /// The variance floor `v_{j,0}`.
    pub fn v_floor(&self) -> f64 {
        self.v_floor
    }

    /// `tr(Q_j)` — the mean of the quadratic-form part of `v_j`.
    pub fn q_trace(&self) -> f64 {
        self.q_trace
    }

    /// `tr(Q_j²)` — half the variance of the quadratic-form part.
    pub fn q_trace_sq(&self) -> f64 {
        self.q_trace_sq
    }

    /// Fitted χ² scale `â`.
    pub fn chi2_scale(&self) -> f64 {
        self.chi2_scale
    }

    /// Fitted χ² degrees of freedom `b̂`.
    pub fn chi2_dof(&self) -> f64 {
        self.chi2_dof
    }

    /// Number of retained low-rank projection vectors for `v(z)`.
    pub fn n_projections(&self) -> usize {
        self.v_rows().len()
    }

    /// The retained eigenvalues of the quadratic form `Q_j` (the squared
    /// norms of the projection vectors) — the input to the exact Imhof
    /// evaluation of the sample-variance distribution.
    pub fn q_eigenvalues(&self) -> Vec<f64> {
        self.v_rows()
            .map(|a| a.iter().map(|x| x * x).sum())
            .collect()
    }

    /// Quantile of `v_j` computed by the *exact* Imhof inversion of the
    /// quadratic form instead of the χ² two-moment fit — the ablation the
    /// paper's reference to Imhof (its ref. 32) invites.
    ///
    /// # Errors
    ///
    /// Propagates quantile domain and Imhof convergence failures.
    pub fn v_quantile_imhof(&self, p: f64) -> Result<f64> {
        if self.q_trace <= 1e-30 {
            return Ok(self.v_floor + self.q_trace);
        }
        let eigen = self.q_eigenvalues();
        Ok(self.v_floor + statobd_num::quadform::imhof_quantile(&eigen, p)?)
    }

    /// Distribution of the sample mean `u_j`.
    pub fn u_dist(&self) -> MeanDist {
        if self.u_sigma > 0.0 {
            MeanDist::Gaussian(Normal::new(self.u_nominal, self.u_sigma).expect("validated sigma"))
        } else {
            MeanDist::Deterministic(self.u_nominal)
        }
    }

    /// Distribution of the sample variance `v_j` (χ² approximation).
    pub fn v_dist(&self) -> VarianceDist {
        if self.chi2_dof > 0.0 {
            VarianceDist::ShiftedGamma {
                floor: self.v_floor,
                gamma: Gamma::new(self.chi2_dof / 2.0, 2.0 * self.chi2_scale)
                    .expect("validated chi2 parameters"),
            }
        } else {
            VarianceDist::Deterministic(self.v_floor + self.q_trace)
        }
    }

    /// Exact `(u_j, v_j)` for a given principal-component draw `z`
    /// (used by the `st_MC` engine and by validation tests).
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` does not match the model's component count.
    pub fn uv_given_z(&self, z: &[f64]) -> (f64, f64) {
        assert_eq!(z.len(), self.n_components, "component count mismatch");
        let mut u = self.u_nominal;
        for (c, zk) in self.u_coeffs().iter().zip(z) {
            u += c * zk;
        }
        let mut v = self.v_floor;
        for a in self.v_rows() {
            let mut d = 0.0;
            for (ak, zk) in a.iter().zip(z) {
                d += ak * zk;
            }
            v += d * d;
        }
        (u, v)
    }

    /// Exact `(u_j, v_j)` for `W` principal-component draws at once,
    /// lane dimension across draws: `z_tile[k·W + w]` holds component `k`
    /// of draw `w` (SoA), and `u[w]`/`v[w]` receive draw `w`'s moments.
    ///
    /// The projection matrix goes through [`simd::lane_matvec_acc`] with
    /// row 0 seeded at `u_nominal` and the projection rows at 0, then
    /// `v = v_floor + Σ_r d_r²` in row order. Every output accumulates in
    /// the same `k`-sequential order as [`BlodMoments::uv_given_z`], so
    /// lane `w` is **bit-identical** to the scalar evaluation of its draw
    /// at any `W` — the property that lets the fleet's chip tiles and the
    /// `st_MC` chunk fill adopt this without changing a single reported
    /// number. The rows go through the kernel in chunks held on the
    /// stack; each block of the bundled designs at the paper's 25 × 25
    /// grid is one chunk, so one kernel call.
    ///
    /// # Panics
    ///
    /// Panics if `z_tile.len()` is not `W` times the component count.
    pub fn uv_given_z_tile<const W: usize>(
        &self,
        z_tile: &[f64],
        u: &mut [f64; W],
        v: &mut [f64; W],
    ) {
        let n = self.n_components;
        assert_eq!(z_tile.len(), n * W, "component tile size mismatch");
        let rows = 1 + self.n_projections();
        let mut d = [[0.0; W]; UV_TILE_ROWS];
        *v = [self.v_floor; W];
        for r0 in (0..rows).step_by(UV_TILE_ROWS) {
            let out = &mut d[..(rows - r0).min(UV_TILE_ROWS)];
            out.fill([0.0; W]);
            if r0 == 0 {
                out[0] = [self.u_nominal; W];
            }
            let a = &self.uv_rows[r0 * n..(r0 + out.len()) * n];
            simd::lane_matvec_acc::<W>(a, n, z_tile, out);
            let projections = if r0 == 0 {
                *u = out[0];
                &out[1..]
            } else {
                &out[..]
            };
            for dr in projections {
                for w in 0..W {
                    v[w] += dr[w] * dr[w];
                }
            }
        }
    }
}

/// Computes the exact `(u_j, v_j)` of a block directly from a sampled
/// grid base field (`base[g]` = correlated thickness of grid `g`), as the
/// per-device Monte-Carlo reference does:
///
/// `u = Σ w_g·base_g`, `v = σ_ind² + Σ w_g·(base_g − u)²`.
pub fn uv_from_grid_base(
    grid_weights: &[(usize, f64)],
    base: &[f64],
    sigma_ind: f64,
) -> (f64, f64) {
    let mut u = 0.0;
    for &(g, w) in grid_weights {
        u += w * base[g];
    }
    let mut v = sigma_ind * sigma_ind;
    for &(g, w) in grid_weights {
        let d = base[g] - u;
        v += w * d * d;
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::BlockSpec;
    use statobd_num::rng::{NormalSampler, Xoshiro256pp};
    use statobd_num::stats::OnlineStats;
    use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};

    fn model(n: usize) -> ThicknessModel {
        ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(n).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap()
    }

    fn block(grids: Vec<(usize, f64)>) -> BlockSpec {
        BlockSpec::new("b", 10_000.0, 10_000, 350.0, 1.2, grids).unwrap()
    }

    #[test]
    fn uv_tile_lanes_match_scalar_bitwise() {
        // Every lane of the SoA tile evaluation must reproduce the
        // scalar uv_given_z of its draw bit for bit, at every tile width
        // and for every pass shape of the row-blocked kernel: blocks of
        // 1 + n_projections = 1, 5, 8, 9 and at least 17 rows (an 8-row
        // pass, an overlapping last pass, 4/2/1-row passes).
        let m = model(5);
        let n_pc = m.n_components();
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let mut normal = NormalSampler::new();
        fn check<const W: usize>(
            mom: &BlodMoments,
            n_pc: usize,
            rng: &mut Xoshiro256pp,
            normal: &mut NormalSampler,
        ) {
            let mut tile = vec![0.0; n_pc * W];
            let mut draws = vec![vec![0.0; n_pc]; W];
            for (w, draw) in draws.iter_mut().enumerate() {
                normal.fill(rng, draw);
                for k in 0..n_pc {
                    tile[k * W + w] = draw[k];
                }
            }
            let (mut u, mut v) = ([0.0; W], [0.0; W]);
            mom.uv_given_z_tile::<W>(&tile, &mut u, &mut v);
            let rows = 1 + mom.n_projections();
            for (w, draw) in draws.iter().enumerate() {
                let (su, sv) = mom.uv_given_z(draw);
                assert_eq!(
                    u[w].to_bits(),
                    su.to_bits(),
                    "u lane {w} of {W}, {rows} rows"
                );
                assert_eq!(
                    v[w].to_bits(),
                    sv.to_bits(),
                    "v lane {w} of {W}, {rows} rows"
                );
            }
        }
        // Blocks over the first g grids have up to g rows.
        let mut row_counts = Vec::new();
        for g in 1..=n_pc.min(25) {
            let grids = (0..g).map(|i| (i, 1.0 / g as f64)).collect();
            let mom = BlodMoments::characterize(&m, &block(grids)).unwrap();
            row_counts.push(1 + mom.n_projections());
            check::<1>(&mom, n_pc, &mut rng, &mut normal);
            check::<4>(&mom, n_pc, &mut rng, &mut normal);
            check::<8>(&mom, n_pc, &mut rng, &mut normal);
        }
        for rows in [1, 5, 8, 9] {
            assert!(
                row_counts.contains(&rows),
                "no {rows}-row block in {row_counts:?}"
            );
        }
        assert!(row_counts.iter().any(|&r| r >= 17), "{row_counts:?}");
    }

    #[test]
    fn from_json_rejects_a_projection_row_of_another_length() {
        // The rows are read into one flat matrix, so a short or long row
        // would shift every row after it: a corrupt artifact must fail to
        // parse instead.
        use statobd_num::json::{FromJson, Json, ToJson};
        let m = model(4);
        let mom = BlodMoments::characterize(&m, &block(vec![(0, 0.5), (15, 0.5)])).unwrap();
        assert!(mom.n_projections() > 0);
        let json = mom.to_json();
        let back = BlodMoments::from_json(&json).unwrap();
        assert_eq!(back.uv_rows, mom.uv_rows);
        assert_eq!(back.n_projections(), mom.n_projections());
        let resized = |edit: &dyn Fn(&mut String)| {
            let Json::Object(mut fields) = json.clone() else {
                panic!("moments serialize as an object")
            };
            for (key, value) in &mut fields {
                if let (true, Json::Array(rows)) = (key == "v_projections", value) {
                    let Json::String(row) = &mut rows[0] else {
                        panic!("packed row")
                    };
                    edit(row);
                }
            }
            BlodMoments::from_json(&Json::Object(fields))
        };
        let err = resized(&|row| row.truncate(row.len() - 16)).unwrap_err();
        assert!(err.to_string().contains("v projection 0"), "{err}");
        let err = resized(&|row| row.push_str(&"0".repeat(16))).unwrap_err();
        assert!(err.to_string().contains("v projection 0"), "{err}");
    }

    #[test]
    fn single_grid_block_has_deterministic_variance() {
        let m = model(4);
        let mom = BlodMoments::characterize(&m, &block(vec![(5, 1.0)])).unwrap();
        assert_eq!(mom.q_trace(), 0.0);
        assert!(matches!(mom.v_dist(), VarianceDist::Deterministic(v)
            if (v - m.sigma_ind().powi(2)).abs() < 1e-18));
        // u sigma equals that grid's correlated sigma.
        assert!((mom.u_sigma() - m.grid_sigma(5)).abs() < 1e-12);
        assert!((mom.u_nominal() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn multi_grid_block_gains_variance_spread() {
        let m = model(4);
        // Far-apart grids: within-block dispersion is large.
        let mom = BlodMoments::characterize(&m, &block(vec![(0, 0.5), (15, 0.5)])).unwrap();
        assert!(mom.q_trace() > 0.0);
        let v = mom.v_dist();
        assert!(v.mean() > m.sigma_ind().powi(2));
        // Mean of the χ² fit matches tr(Q) by construction.
        assert!((v.mean() - (mom.v_floor() + mom.q_trace())).abs() < 1e-15);
        // Variance matches 2·tr(Q²).
        assert!((v.variance() - 2.0 * mom.q_trace_sq()).abs() < 1e-18);
    }

    #[test]
    fn uv_given_z_matches_brute_force_quadratic_form() {
        let m = model(5);
        let b = block(vec![(0, 0.25), (1, 0.25), (7, 0.5)]);
        let mom = BlodMoments::characterize(&m, &b).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut ns = NormalSampler::new();
        for _ in 0..50 {
            let mut z = vec![0.0; m.n_components()];
            ns.fill(&mut rng, &mut z);
            let (u, v) = mom.uv_given_z(&z);
            // Brute force via the grid base field. The projection is
            // truncated at PROJECTION_ENERGY, so v matches to a relative
            // ~1e-6, u exactly.
            let base = m.grid_base(&z);
            let (u_ref, v_ref) = uv_from_grid_base(b.grid_weights(), &base, m.sigma_ind());
            assert!((u - u_ref).abs() < 1e-12, "u {u} vs {u_ref}");
            assert!((v - v_ref).abs() < 1e-3 * v_ref, "v {v} vs {v_ref}");
        }
    }

    #[test]
    fn monte_carlo_moments_match_analytic() {
        let m = model(5);
        let b = block(vec![(0, 0.3), (6, 0.4), (24, 0.3)]);
        let mom = BlodMoments::characterize(&m, &b).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut ns = NormalSampler::new();
        let mut u_stats = OnlineStats::new();
        let mut v_stats = OnlineStats::new();
        for _ in 0..40_000 {
            let mut z = vec![0.0; m.n_components()];
            ns.fill(&mut rng, &mut z);
            let (u, v) = mom.uv_given_z(&z);
            u_stats.push(u);
            v_stats.push(v);
        }
        // E[u] and SD[u].
        assert!((u_stats.mean() - mom.u_nominal()).abs() < 5e-4);
        assert!((u_stats.std_dev() - mom.u_sigma()).abs() < 0.02 * mom.u_sigma());
        // E[v] = floor + tr(Q); Var[v] = 2 tr(Q²).
        let v_mean_expected = mom.v_floor() + mom.q_trace();
        assert!(
            (v_stats.mean() - v_mean_expected).abs() < 0.02 * v_mean_expected,
            "v mean {} vs {}",
            v_stats.mean(),
            v_mean_expected
        );
        let v_var_expected = 2.0 * mom.q_trace_sq();
        assert!(
            (v_stats.sample_variance() - v_var_expected).abs() < 0.1 * v_var_expected,
            "v var {} vs {}",
            v_stats.sample_variance(),
            v_var_expected
        );
    }

    #[test]
    fn chi2_fit_matches_quadratic_form_cdf() {
        // The Fig. 8 validation in unit-test form: the χ² CDF should track
        // the empirical CDF of the quadratic form.
        let m = model(5);
        let b = block(vec![(0, 0.2), (3, 0.2), (12, 0.2), (20, 0.2), (24, 0.2)]);
        let mom = BlodMoments::characterize(&m, &b).unwrap();
        let vd = mom.v_dist();
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut ns = NormalSampler::new();
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| {
                let mut z = vec![0.0; m.n_components()];
                ns.fill(&mut rng, &mut z);
                mom.uv_given_z(&z).1
            })
            .collect();
        let ks = statobd_num::stats::ks_distance(&mut samples, |v| vd.cdf(v)).unwrap();
        assert!(ks < 0.05, "KS distance {ks} too large for the χ² fit");
    }

    #[test]
    fn mean_dist_variants() {
        let m = model(3);
        let mom = BlodMoments::characterize(&m, &block(vec![(0, 1.0)])).unwrap();
        match mom.u_dist() {
            MeanDist::Gaussian(n) => {
                assert!((n.mean() - 2.2).abs() < 1e-12);
            }
            MeanDist::Deterministic(_) => panic!("expected Gaussian u"),
        }
    }

    #[test]
    fn variance_dist_quantile_and_cdf_consistency() {
        let m = model(4);
        let mom = BlodMoments::characterize(&m, &block(vec![(0, 0.5), (15, 0.5)])).unwrap();
        let vd = mom.v_dist();
        for &p in &[0.01, 0.5, 0.99] {
            let q = vd.quantile(p).unwrap();
            assert!((vd.cdf(q) - p).abs() < 1e-8);
        }
        // Deterministic variant.
        let det = VarianceDist::Deterministic(0.5);
        assert_eq!(det.quantile(0.3).unwrap(), 0.5);
        assert_eq!(det.cdf(0.49), 0.0);
        assert_eq!(det.cdf(0.5), 1.0);
        assert_eq!(det.mgf(2.0).unwrap(), (1.0f64).exp());
    }

    #[test]
    fn uv_from_grid_base_weighted_mean() {
        let base = vec![2.0, 3.0, 4.0];
        let (u, v) = uv_from_grid_base(&[(0, 0.5), (2, 0.5)], &base, 0.1);
        assert!((u - 3.0).abs() < 1e-15);
        // v = 0.01 + 0.5·1 + 0.5·1 = 1.01
        assert!((v - 1.01).abs() < 1e-15);
    }
}
