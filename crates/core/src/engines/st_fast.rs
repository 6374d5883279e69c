//! The paper's main method (Sec. IV-D, algorithm of its Fig. 9): the
//! ensemble failure probability as `N` double integrals over the product
//! of marginals `f_u(u)·f_v(v)`,
//!
//! ```text
//! P(t) = Σ_j ∫∫ (1 − e^{−A_j·g(u,v)}) f_u_j(u) f_v_j(v) du dv     (eq. 28)
//! ```
//!
//! The `u` integral is evaluated by an `l0`-point midpoint rule over
//! `±width·σ_u` (the paper's sub-domain integral sum); the `v` integral is
//! evaluated in *quantile space* — `v = F_v⁻¹(p)` with a midpoint rule
//! over `p ∈ (0,1)` — which is exact in distribution and immune to the
//! integrable singularity the χ² density develops at its floor when the
//! fitted degrees of freedom drop below 2.

use crate::blod::{BlodMoments, MeanDist, VarianceDist};
use crate::chip::ChipAnalysis;
use crate::engines::{ChipRecord, ReliabilityEngine};
use crate::gfun::GCoefficients;
use crate::{CoreError, Result};
use statobd_num::dist::ContinuousDistribution;
use statobd_num::quadform::imhof_quantile;
use statobd_num::simd;
use std::sync::OnceLock;

/// One u-row ∩ tile segment of the flattened `(u, v)` node walk. The
/// probability weight `wu·w_v` is constant per segment, so the kernel
/// terms are summed plainly and the weight multiplied in once.
#[derive(Clone, Copy)]
struct Segment {
    /// Start offset (in nodes) of this segment's terms in the compacted
    /// tile buffer; meaningless when `skip` is set.
    start: usize,
    /// Segment length in nodes.
    len: usize,
    /// The row's probability weight `wu · w_v`.
    wuv: f64,
    /// Saturated row: every term is exactly 1.0, nothing was buffered.
    skip: bool,
}

/// Scratch buffers for the lane-vectorized quadrature sweeps, reused
/// across calls (and private to each worker thread, so the batched
/// fan-out never shares them).
#[derive(Default)]
struct QuadScratch {
    args: Vec<f64>,
    terms: Vec<f64>,
    segs: Vec<Segment>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<QuadScratch> =
        std::cell::RefCell::new(QuadScratch::default());
}

/// Flattened-node budget per lane tile: the argument and term buffers
/// are 8 KiB each, comfortably L1-resident. The lane walk tiles at
/// `NODE_TILE / W` logical nodes at the active lane width `W`, also
/// when a one-item batch runs it at one lane, so per-segment partial
/// sums group identically and a single integral stays bit-identical to
/// its entry in a batch at the same width.
const NODE_TILE: usize = 1024;

/// How the sample-variance distribution `f_v` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarianceMethod {
    /// The paper's Yuan–Bentler χ² two-moment fit (eqs. 29–30).
    #[default]
    ChiSquare,
    /// Exact Imhof numerical inversion of the quadratic form (the paper's
    /// reference \[32\]) — slower node construction, removes the fit error.
    Imhof,
}

impl statobd_num::json::ToJson for VarianceMethod {
    fn to_json(&self) -> statobd_num::json::Json {
        statobd_num::json::Json::String(
            match self {
                VarianceMethod::ChiSquare => "chi_square",
                VarianceMethod::Imhof => "imhof",
            }
            .to_string(),
        )
    }
}

impl statobd_num::json::FromJson for VarianceMethod {
    fn from_json(v: &statobd_num::json::Json) -> statobd_num::json::Result<Self> {
        match v.as_str() {
            Some("chi_square") => Ok(VarianceMethod::ChiSquare),
            Some("imhof") => Ok(VarianceMethod::Imhof),
            _ => Err(statobd_num::json::JsonError::new(format!(
                "expected \"chi_square\" or \"imhof\", got {v}"
            ))),
        }
    }
}

/// Configuration of the [`StFast`] engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StFastConfig {
    /// Number of integration sub-domains per axis (`l0`; paper default 10).
    pub l0: usize,
    /// Half-width of the `u` domain in units of `σ_u`.
    pub u_width_sigmas: f64,
    /// Evaluation method for the sample-variance distribution.
    pub v_method: VarianceMethod,
    /// Worker threads for the per-block quadrature construction
    /// (`None` = all cores).
    pub threads: Option<usize>,
}

statobd_num::impl_json_struct!(StFastConfig {
    l0,
    u_width_sigmas,
    v_method,
    threads
});

impl Default for StFastConfig {
    fn default() -> Self {
        StFastConfig {
            l0: crate::params::DEFAULT_L0,
            u_width_sigmas: 6.0,
            v_method: VarianceMethod::ChiSquare,
            threads: None,
        }
    }
}

/// What st_fast and st_closed read of one block's BLOD: the laws of its
/// sample mean `u` and sample variance `v`, plus the eigenvalues of its
/// quadratic form `Q` for the Imhof variance method. A few numbers per
/// block, copied when the engine is built; the projection rows (megabytes
/// on the large designs) stay behind.
#[derive(Debug, Clone)]
pub(crate) struct BlockLaw {
    pub(crate) u: MeanDist,
    pub(crate) v: VarianceDist,
    /// `Q`'s eigenvalues under [`VarianceMethod::Imhof`]; empty otherwise.
    q_eigenvalues: Vec<f64>,
}

impl BlockLaw {
    /// The law of a block with BLOD `moments`, for `v_method`.
    pub(crate) fn new(moments: &BlodMoments, v_method: VarianceMethod) -> Self {
        let q_eigenvalues = match v_method {
            VarianceMethod::ChiSquare => Vec::new(),
            VarianceMethod::Imhof => moments.q_eigenvalues(),
        };
        BlockLaw {
            u: moments.u_dist(),
            v: moments.v_dist(),
            q_eigenvalues,
        }
    }
}

/// Precomputed quadrature nodes for one block's `(u, v)` double integral.
///
/// The node sets depend only on the BLOD distributions, not on time, so
/// they are built once per engine (gamma quantile inversion is the
/// expensive part) and reused by every `P_j(t)` evaluation.
#[derive(Debug, Clone)]
pub(crate) struct BlockQuadrature {
    u_nodes: Vec<f64>,
    u_weights: Vec<f64>,
    v_nodes: Vec<f64>,
    v_weight: f64,
}

impl BlockQuadrature {
    /// Builds the node sets for a block's law under `cfg` (`law` must
    /// carry `cfg.v_method`'s data).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `cfg.l0` is 0, and
    /// propagates quantile-evaluation failures.
    pub(crate) fn new(law: &BlockLaw, cfg: &StFastConfig) -> Result<Self> {
        if cfg.l0 == 0 {
            return Err(CoreError::InvalidParameter {
                detail: "l0 must be positive".to_string(),
            });
        }

        // u nodes and probability weights (midpoint over ±width·σ).
        let (u_nodes, u_weights): (Vec<f64>, Vec<f64>) = match &law.u {
            MeanDist::Deterministic(u) => (vec![*u], vec![1.0]),
            MeanDist::Gaussian(n) => {
                let mu = n.mean();
                let sd = n.std_dev();
                let half = cfg.u_width_sigmas * sd;
                let h = 2.0 * half / cfg.l0 as f64;
                let nodes: Vec<f64> = (0..cfg.l0)
                    .map(|i| mu - half + (i as f64 + 0.5) * h)
                    .collect();
                let weights: Vec<f64> = nodes.iter().map(|&u| n.pdf(u) * h).collect();
                (nodes, weights)
            }
        };

        // v nodes in quantile space (equal probability weights).
        let v_nodes: Vec<f64> = match &law.v {
            VarianceDist::Deterministic(v) => vec![*v],
            dist @ VarianceDist::ShiftedGamma { floor, .. } => (0..cfg.l0)
                .map(|i| {
                    let p = (i as f64 + 0.5) / cfg.l0 as f64;
                    match cfg.v_method {
                        VarianceMethod::ChiSquare => dist.quantile(p),
                        // The exact inversion of `v = floor + zᵀQz` (a
                        // shifted gamma law means tr(Q) > 0).
                        VarianceMethod::Imhof => Ok(floor + imhof_quantile(&law.q_eigenvalues, p)?),
                    }
                })
                .collect::<Result<Vec<f64>>>()?,
        };
        let v_weight = 1.0 / v_nodes.len() as f64;
        Ok(BlockQuadrature {
            u_nodes,
            u_weights,
            v_nodes,
            v_weight,
        })
    }

    /// The argument at which a u-row's *smallest* quadrature argument
    /// sits, given the row offset `su` and the `v`-axis coefficient:
    /// `v_nodes` is ascending, so the row minimum is at the first node
    /// for `s2 ≥ 0` and the last otherwise.
    #[inline]
    fn row_min_arg(&self, su: f64, s2: f64) -> f64 {
        let v = if s2 >= 0.0 {
            self.v_nodes[0]
        } else {
            self.v_nodes[self.v_nodes.len() - 1]
        };
        su + s2 * v
    }

    /// Evaluates `∫∫ (1 − e^{−A·g(u,v)}) f_u(u) f_v(v) du dv` for the
    /// given kernel coefficients: a one-item [`Self::integrate_many`].
    pub(crate) fn integrate(&self, area: f64, coeff: GCoefficients) -> f64 {
        let mut p = [0.0];
        self.integrate_many(area, &[coeff], &mut p);
        p[0]
    }

    /// The pre-lane-layer scalar loop, kept verbatim: it defines the
    /// bit-exact reference semantics that lane width 1 must reproduce.
    fn integrate_scalar(&self, area: f64, coeff: GCoefficients) -> f64 {
        let mut p = 0.0;
        for (&u, &wu) in self.u_nodes.iter().zip(&self.u_weights) {
            for &v in &self.v_nodes {
                let g = coeff.g(u, v);
                p += wu * self.v_weight * (-(-area * g).exp_m1());
            }
        }
        p.clamp(0.0, 1.0)
    }

    /// Evaluates the double integral for a batch of coefficient sets
    /// (e.g. one per sweep time) sharing this block's node grid, writing
    /// `out[i] = integrate(area, coeffs[i])`.
    ///
    /// At lane width 1 every entry runs the historical scalar loop. At
    /// widths 4/8 the batch runs through [`Self::integrate_lanes`], `W`
    /// items at a time; a batch of one runs it at one lane, whose
    /// failure-term kernel then runs its lanes across the quadrature
    /// nodes. Either way the walk tiles at `NODE_TILE / W` logical nodes
    /// for the active width `W`, so the segment sums group alike, and
    /// the kernel picks each node's arm from that node's argument alone,
    /// so every entry is bit-identical to a one-item call at the same
    /// width, whatever the other entries of the batch hold.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != out.len()`.
    pub(crate) fn integrate_many(&self, area: f64, coeffs: &[GCoefficients], out: &mut [f64]) {
        assert_eq!(coeffs.len(), out.len(), "integrate_many length mismatch");
        let width = simd::active_width();
        let cap = NODE_TILE / width.lanes();
        match (coeffs.len(), width) {
            (_, simd::LaneWidth::W1) => {
                for (o, &coeff) in out.iter_mut().zip(coeffs) {
                    *o = self.integrate_scalar(area, coeff);
                }
            }
            (1, _) => self.integrate_lanes::<1>(area, coeffs, cap, out),
            (_, simd::LaneWidth::W4) => self.integrate_lanes::<4>(area, coeffs, cap, out),
            (_, simd::LaneWidth::W8) => self.integrate_lanes::<8>(area, coeffs, cap, out),
        }
    }

    /// The lane walk behind [`Self::integrate_many`], `W` items at a time:
    /// each `(u, v)` node contributes to `W` integrals from one fused lane
    /// evaluation. The flattened node walk is tiled at `cap` logical
    /// nodes (the argument and term buffers hold `cap · W` values) and
    /// split into u-row ∩ tile [`Segment`]s: the probability weight is
    /// constant per segment, so each lane accumulates a plain term sum
    /// (one add per node) with the weight multiplied in once. Each tile
    /// flush runs [`simd::failure_term_slice`] once over the buffered
    /// arguments, and the kernel screens each of its chunks into the
    /// cheapest route on its own. Rows whose minimum argument clears
    /// [`simd::failure_sat_threshold`] in every lane skip argument fill
    /// and kernel entirely — every term there is exactly 1.0 and a
    /// sequential sum of ones is exact, so the skip contributes
    /// `wuv · len` with unchanged bits. The segment boundaries follow
    /// the *logical* node walk, never the skip decisions, so every
    /// lane's partial-sum grouping — and therefore every output bit —
    /// depends on `cap` alone, never on `W` or on the other items of the
    /// batch.
    fn integrate_lanes<const W: usize>(
        &self,
        area: f64,
        coeffs: &[GCoefficients],
        cap: usize,
        out: &mut [f64],
    ) {
        let x_sat = simd::failure_sat_threshold(area);
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.args.resize(cap * W, 0.0);
            scratch.terms.resize(cap * W, 0.0);

            let mut idx = 0;
            while idx < coeffs.len() {
                let m = (coeffs.len() - idx).min(W);
                // Unused lanes of a remainder chunk repeat the chunk's
                // last coefficients and are discarded. Zero coefficients
                // would put their argument, 0, beside the used lanes' in
                // every kernel chunk, mixing its regimes, and would keep
                // saturated rows from being skipped.
                let mut s1 = [0.0; W];
                let mut s2 = [0.0; W];
                for w in 0..W {
                    let coeff = &coeffs[idx + w.min(m - 1)];
                    s1[w] = coeff.s1;
                    s2[w] = coeff.s2;
                }
                let mut acc = [0.0; W];
                let mut fill = 0;
                let mut bfill = 0;
                scratch.segs.clear();
                let flush = |scratch: &mut QuadScratch, bfill: usize, acc: &mut [f64; W]| {
                    simd::failure_term_slice(
                        &scratch.args[..bfill * W],
                        area,
                        &mut scratch.terms[..bfill * W],
                    );
                    for seg in &scratch.segs {
                        if seg.skip {
                            for lane in acc.iter_mut() {
                                *lane += seg.wuv * seg.len as f64;
                            }
                        } else {
                            let mut sum = [0.0; W];
                            simd::lane_sum_acc(
                                &scratch.terms[seg.start * W..(seg.start + seg.len) * W],
                                &mut sum,
                            );
                            for (lane, &s) in acc.iter_mut().zip(&sum) {
                                *lane += seg.wuv * s;
                            }
                        }
                    }
                    scratch.segs.clear();
                };
                for (&u, &wu) in self.u_nodes.iter().zip(&self.u_weights) {
                    let wuv = wu * self.v_weight;
                    let mut su = [0.0; W];
                    for w in 0..W {
                        su[w] = s1[w] * u;
                    }
                    // A row is skipped only when EVERY lane saturates.
                    // Lanes that saturate inside a computed row still
                    // get exact 1.0 terms from the kernel's own screen,
                    // and segment boundaries follow the logical walk
                    // either way, so skipped and computed lanes agree
                    // bit for bit with a one-lane walk.
                    let skip = (0..W).all(|w| self.row_min_arg(su[w], s2[w]) >= x_sat);
                    let mut vi = 0;
                    while vi < self.v_nodes.len() {
                        let run = (cap - fill).min(self.v_nodes.len() - vi);
                        scratch.segs.push(Segment {
                            start: bfill,
                            len: run,
                            wuv,
                            skip,
                        });
                        if !skip {
                            simd::lane_affine_fill(
                                &su,
                                &s2,
                                &self.v_nodes[vi..vi + run],
                                &mut scratch.args[bfill * W..(bfill + run) * W],
                            );
                            bfill += run;
                        }
                        fill += run;
                        vi += run;
                        if fill == cap {
                            flush(scratch, bfill, &mut acc);
                            fill = 0;
                            bfill = 0;
                        }
                    }
                }
                if fill > 0 {
                    flush(scratch, bfill, &mut acc);
                }
                for (o, &a) in out[idx..idx + m].iter_mut().zip(&acc[..m]) {
                    *o = a.clamp(0.0, 1.0);
                }
                idx += m;
            }
        });
    }
}

/// The marginal-product analytic engine (`st_fast` in the paper's
/// Table III).
#[derive(Debug)]
pub struct StFast {
    pub(super) chip: ChipRecord,
    pub(super) laws: Vec<BlockLaw>,
    config: StFastConfig,
    /// Lazily built per-block quadratures (time-independent).
    quadratures: OnceLock<Result<Vec<BlockQuadrature>>>,
}

impl StFast {
    /// Creates the engine over a characterized chip.
    pub fn new(analysis: &ChipAnalysis, config: StFastConfig) -> Self {
        StFast {
            chip: ChipRecord::of(analysis),
            laws: analysis
                .blocks()
                .iter()
                .map(|block| BlockLaw::new(block.moments(), config.v_method))
                .collect(),
            config,
            quadratures: OnceLock::new(),
        }
    }

    fn quadratures(&self) -> Result<&[BlockQuadrature]> {
        let built = self.quadratures.get_or_init(|| {
            // Node construction (gamma quantile inversion, Imhof) is the
            // expensive step; fan it out one block per work item. Results
            // are gathered in block order, so the engine is deterministic
            // at any thread count.
            let threads = statobd_num::parallel::resolve_threads(self.config.threads);
            statobd_num::parallel::run_indexed(self.laws.len(), threads, |j| {
                BlockQuadrature::new(&self.laws[j], &self.config)
            })
            .into_iter()
            .collect()
        });
        built.as_deref().map_err(CoreError::clone)
    }

    /// The per-block failure probability
    /// `P_j(t) = ∫∫ (1 − e^{−A_j g}) f_u f_v du dv`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the configured `l0` is 0,
    /// and propagates quantile-evaluation failures.
    pub fn block_failure_probability(&self, block_idx: usize, t_s: f64) -> Result<f64> {
        let block = &self.chip.blocks[block_idx];
        Ok(self.quadratures()?[block_idx].integrate(block.area, block.coefficients(t_s)))
    }
}

impl ReliabilityEngine for StFast {
    fn name(&self) -> &str {
        "st_fast"
    }

    /// The shared sweep over this engine's kernel: each `(block ×
    /// time-chunk)` item runs one `BlockQuadrature::integrate_many` call
    /// on the block's time-independent nodes (lanes across the chunk's
    /// times, or across the quadrature nodes for a one-time chunk), whose
    /// entries are bit-identical to one-item walks at any lane width. A
    /// one-point call stays serial: one integral per block amortizes
    /// neither the thread-count lookup nor the thread spawn.
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        self.chip.sweep(ts, self.config.threads, 2, |j, ts, out| {
            let block = &self.chip.blocks[j];
            let coeffs: Vec<GCoefficients> = ts.iter().map(|&t| block.coefficients(t)).collect();
            self.quadratures()?[j].integrate_many(block.area, &coeffs, out);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
    use crate::engines::ReliabilityEngine;
    use statobd_device::ClosedFormTech;
    use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};

    fn analysis() -> ChipAnalysis {
        let model = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(5).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        let mut spec = ChipSpec::new();
        spec.add_block(
            BlockSpec::new(
                "core",
                40_000.0,
                40_000,
                368.15,
                1.2,
                vec![(0, 0.5), (1, 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        spec.add_block(
            BlockSpec::new("cache", 60_000.0, 60_000, 341.15, 1.2, vec![(12, 1.0)]).unwrap(),
        )
        .unwrap();
        ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
    }

    #[test]
    fn failure_probability_is_monotone_in_time() {
        let a = analysis();
        let mut e = StFast::new(&a, StFastConfig::default());
        let mut prev = 0.0;
        for i in 0..12 {
            let t = 10f64.powf(6.0 + i as f64);
            let p = e.failure_probability(t).unwrap();
            assert!(p >= prev - 1e-15, "P not monotone at {t}: {p} < {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn hot_block_dominates_failure() {
        let a = analysis();
        let e = StFast::new(&a, StFastConfig::default());
        // Pick a time where total failure prob is around 1e-5.
        let t = 3e8;
        let p_hot = e.block_failure_probability(0, t).unwrap();
        let p_cool = e.block_failure_probability(1, t).unwrap();
        // The hot block (30 K hotter, comparable area) must dominate.
        assert!(
            p_hot > 5.0 * p_cool,
            "hot {p_hot:.3e} should dominate cool {p_cool:.3e}"
        );
    }

    #[test]
    fn converges_with_l0() {
        let a = analysis();
        let t = 1e9;
        let coarse = StFast::new(
            &a,
            StFastConfig {
                l0: 10,
                ..Default::default()
            },
        )
        .block_failure_probability(0, t)
        .unwrap();
        let fine = StFast::new(
            &a,
            StFastConfig {
                l0: 200,
                ..Default::default()
            },
        )
        .block_failure_probability(0, t)
        .unwrap();
        let rel = ((coarse - fine) / fine).abs();
        // The paper claims l0 = 10 is sufficient (~1% errors); allow 3%.
        assert!(rel < 0.03, "l0=10 vs l0=200 differ by {rel:.4}");
    }

    #[test]
    fn matches_direct_device_product_for_single_grid_block() {
        // For a block entirely inside one grid, u ~ N(u0, σ_grid²) and
        // v = σ_ind² exactly. The ensemble block failure probability can
        // be computed directly as an integral over the global+spatial
        // component:
        //   P = ∫ φ(s) (1 − exp(−A·g(u0+σ_g·s, σ_ind²))) ds.
        let a = analysis();
        let block = &a.blocks()[1];
        let t = 3e8;
        let coeff = GCoefficients::at(t, block.alpha_s(), block.b_per_nm());
        let sigma_u = block.moments().u_sigma();
        let u0 = block.moments().u_nominal();
        let v0 = block.moments().v_floor();
        let area = block.spec().area();
        let direct = statobd_num::quad::integrate_1d(
            statobd_num::quad::QuadRule::GaussLegendre,
            400,
            -10.0,
            10.0,
            |s| {
                statobd_num::special::norm_pdf(s)
                    * (-(-area * coeff.g(u0 + sigma_u * s, v0)).exp_m1())
            },
        )
        .unwrap();
        let engine = StFast::new(
            &a,
            StFastConfig {
                l0: 400,
                ..Default::default()
            },
        );
        let p = engine.block_failure_probability(1, t).unwrap();
        let rel = ((p - direct) / direct).abs();
        assert!(rel < 1e-6, "engine {p:.6e} vs direct {direct:.6e}");
    }

    #[test]
    fn imhof_variance_method_agrees_with_chi2() {
        // The exact Imhof evaluation of f_v vs the Yuan-Bentler fit: for
        // the multi-grid core block they agree at the sub-percent level on
        // P(t) (the chi2 fit error is small compared to the method's ~1%
        // target, which is why the paper's cheap approximation works).
        let a = analysis();
        let t = 1e9;
        let chi = StFast::new(
            &a,
            StFastConfig {
                l0: 50,
                ..Default::default()
            },
        )
        .block_failure_probability(0, t)
        .unwrap();
        let imhof = StFast::new(
            &a,
            StFastConfig {
                l0: 50,
                v_method: VarianceMethod::Imhof,
                ..Default::default()
            },
        )
        .block_failure_probability(0, t)
        .unwrap();
        let rel = ((chi - imhof) / imhof).abs();
        assert!(rel < 0.01, "chi2 {chi:e} vs imhof {imhof:e} (rel {rel:.4})");
    }

    #[test]
    fn zero_l0_is_rejected() {
        let a = analysis();
        let e = StFast::new(
            &a,
            StFastConfig {
                l0: 0,
                ..Default::default()
            },
        );
        assert!(e.block_failure_probability(0, 1e9).is_err());
    }

    #[test]
    fn batch_entries_never_depend_on_their_lane_neighbours() {
        // Items whose nodes sit in different failure-term regimes share
        // each lane chunk: a NaN item, one that saturates every node, one
        // whose hazards vanish, and typical ones. At every batch length
        // and lane position, each entry must equal its one-item call bit
        // for bit, and only the NaN entry may be NaN.
        let a = analysis();
        let block = &a.blocks()[0];
        let law = BlockLaw::new(block.moments(), VarianceMethod::ChiSquare);
        let quad = BlockQuadrature::new(&law, &StFastConfig::default()).unwrap();
        let area = block.spec().area();
        let at = |t: f64| GCoefficients::at(t, block.alpha_s(), block.b_per_nm());
        let nan = GCoefficients {
            s1: f64::NAN,
            ..at(1e9)
        };
        let items = [
            at(3e8),
            nan,
            at(1e30),
            at(1.0),
            at(1e9),
            at(3e9),
            at(1e8),
            at(1e10),
            at(2e9),
        ];
        for width in [simd::LaneWidth::W4, simd::LaneWidth::W8] {
            simd::force_width(Some(width));
            let single: Vec<f64> = items.iter().map(|&c| quad.integrate(area, c)).collect();
            // Every node saturates: P is the sum of the node weights.
            assert!(single[2] > 0.999_99, "the saturating item");
            assert!(single[3] < 1e-12, "the vanishing item");
            for len in 1..=items.len() {
                for first in 0..items.len() {
                    let k = |i: usize| (first + i) % items.len();
                    let batch: Vec<GCoefficients> = (0..len).map(|i| items[k(i)]).collect();
                    let mut out = vec![0.0; len];
                    quad.integrate_many(area, &batch, &mut out);
                    for (i, &p) in out.iter().enumerate() {
                        let want = single[k(i)];
                        assert!(
                            p.to_bits() == want.to_bits() || (p.is_nan() && want.is_nan()),
                            "{width:?} len {len} item {}: {p:e} vs {want:e}",
                            k(i)
                        );
                        assert_eq!(p.is_nan(), k(i) == 1, "{width:?} item {}", k(i));
                    }
                }
            }
        }
        simd::force_width(None);
    }

    #[test]
    fn very_early_time_has_negligible_failure() {
        let a = analysis();
        let mut e = StFast::new(&a, StFastConfig::default());
        let p = e.failure_probability(1.0).unwrap();
        assert!(p < 1e-12, "P(1 s) = {p:e}");
    }
}
