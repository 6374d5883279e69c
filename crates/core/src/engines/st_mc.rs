//! The `st_MC` engine (paper Sec. V): like [`crate::StFast`] but with the
//! joint PDF of `(u_j, v_j)` constructed *numerically* from Monte-Carlo
//! samples of the principal components, instead of the marginal-product
//! independence approximation.
//!
//! For each block a 2-D histogram of exact `(u_j(z), v_j(z))` pairs is
//! built once at construction; `P_j(t)` is then the integral sum of the
//! conditional failure probability over the joint histogram. This is the
//! variant the paper uses to quantify how little accuracy the
//! `f(u,v) ≈ f(u)·f(v)` approximation costs (~0.1 %).

use crate::chip::ChipAnalysis;
use crate::engines::{check_times, ReliabilityEngine};
use crate::gfun::GCoefficients;
use crate::{CoreError, Result};
use statobd_num::hist::Histogram2d;
use statobd_num::parallel;
use statobd_num::rng::Xoshiro256pp;
use statobd_num::simd::{self, LaneWidth};
use statobd_variation::FieldSampler;

/// Configuration of the [`StMc`] engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StMcConfig {
    /// Number of principal-component samples used to build the joint
    /// PDFs.
    pub n_samples: usize,
    /// Histogram bins per axis.
    pub bins: usize,
    /// RNG seed; sample `i` derives its stream from `seed` and `i`, so
    /// results are independent of the thread count.
    pub seed: u64,
    /// Worker threads for the sampling fan-out (`None` = all cores).
    pub threads: Option<usize>,
}

statobd_num::impl_json_struct!(StMcConfig {
    n_samples,
    bins,
    seed,
    threads
});

impl Default for StMcConfig {
    fn default() -> Self {
        StMcConfig {
            n_samples: 10_000,
            bins: 60,
            seed: 0x5eed_57a7,
            threads: None,
        }
    }
}

/// Per-block numerical joint PDF.
#[derive(Debug)]
struct JointPdf {
    hist: Histogram2d,
}

/// The numerical-joint-PDF engine (`st_MC` in the paper's Table III).
#[derive(Debug)]
pub struct StMc<'a> {
    analysis: &'a ChipAnalysis,
    joints: Vec<JointPdf>,
    /// The raw per-block `(u, v)` samples, kept for joint-across-blocks
    /// queries (multi-breakdown analysis).
    samples: Vec<Vec<(f64, f64)>>,
    /// Worker threads for batched sweeps (from the build configuration).
    threads: Option<usize>,
}

impl<'a> StMc<'a> {
    /// Builds the per-block joint `(u, v)` histograms from `config.n_samples`
    /// principal-component draws.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for zero samples or bins.
    pub fn new(analysis: &'a ChipAnalysis, config: StMcConfig) -> Result<Self> {
        if config.n_samples < 100 || config.bins == 0 {
            return Err(CoreError::InvalidParameter {
                detail: format!(
                    "st_MC needs n_samples >= 100 and bins > 0, got {} and {}",
                    config.n_samples, config.bins
                ),
            });
        }
        // Draw all samples once, fanned out over threads; sample i uses a
        // stream derived from (seed, i), so results do not depend on the
        // thread partitioning. The flat layout [sample][block] gives each
        // thread a disjoint mutable slice. Within a chunk the (u, v)
        // evaluation runs `width` samples per tile through the
        // `uv_given_z_tile` kernel; each sample still consumes its own
        // `(seed, sample)` stream and every lane keeps the scalar
        // component order, so the fill is bit-identical at every lane
        // width.
        let n_blocks = analysis.n_blocks();
        let mut flat = vec![(0.0, 0.0); config.n_samples * n_blocks];
        let threads = parallel::resolve_threads(config.threads);
        let width = simd::active_width();
        let chunk_samples = 256;
        parallel::for_each_chunk_mut(
            &mut flat,
            chunk_samples * n_blocks,
            threads,
            move |chunk_idx, chunk: &mut [(f64, f64)]| {
                let first = chunk_idx * chunk_samples;
                let n = chunk.len() / n_blocks;
                match width {
                    LaneWidth::W8 => fill_uv_tiled::<8>(analysis, config.seed, first, n, chunk),
                    LaneWidth::W4 => fill_uv_tiled::<4>(analysis, config.seed, first, n, chunk),
                    LaneWidth::W1 => fill_uv_tiled::<1>(analysis, config.seed, first, n, chunk),
                }
            },
        );
        // Transpose to the per-block layout the queries use.
        let mut uv: Vec<Vec<(f64, f64)>> = vec![Vec::with_capacity(config.n_samples); n_blocks];
        for sample in 0..config.n_samples {
            for (j, uv_j) in uv.iter_mut().enumerate() {
                uv_j.push(flat[sample * n_blocks + j]);
            }
        }

        // Build histograms spanning the sampled ranges (with a small
        // margin so the max sample lands inside).
        let mut joints = Vec::with_capacity(n_blocks);
        for pairs in &uv {
            let (mut ulo, mut uhi) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut vlo, mut vhi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &(u, v) in pairs {
                ulo = ulo.min(u);
                uhi = uhi.max(u);
                vlo = vlo.min(v);
                vhi = vhi.max(v);
            }
            // Degenerate axes (deterministic u or v) get a token width
            // relative to the magnitude so the bounds stay distinct in f64.
            let uspan = (uhi - ulo).max(1e-9 * uhi.abs()).max(1e-12);
            let vspan = (vhi - vlo).max(1e-9 * vhi.abs()).max(1e-300);
            let mut hist = Histogram2d::new(
                (ulo - 1e-3 * uspan, uhi + 1e-3 * uspan, config.bins),
                (vlo - 1e-3 * vspan, vhi + 1e-3 * vspan, config.bins),
            )
            .map_err(CoreError::from)?;
            for &(u, v) in pairs {
                hist.add(u, v);
            }
            joints.push(JointPdf { hist });
        }
        Ok(StMc {
            analysis,
            joints,
            samples: uv,
            threads: config.threads,
        })
    }

    /// Ensemble probability that **at least `k` breakdowns** occur by
    /// time `t` — the multi-breakdown extension of the paper's Sec. III
    /// discussion ("circuit may even survive to function after several
    /// HBDs"): given the thicknesses, breakdowns across the chip arrive
    /// as a Poisson process with mean equal to the chip hazard
    /// `H(t) = Σ_j A_j·g_j(u_j, v_j)`, so
    /// `P(N ≥ k) = P_gamma(k, H)` averaged over the sampled `(u, v)`.
    ///
    /// Breakdowns are counted chip-wide, whatever the chip's
    /// [`Composition`](crate::Composition): under weakest-link `k = 1`
    /// reduces to [`ReliabilityEngine::failure_probability`] (with
    /// per-sample instead of histogram evaluation), while redundancy
    /// groups, which survive spare breakdowns, fail less often than
    /// `k = 1` says.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `k == 0`.
    pub fn failure_probability_multi(&self, t_s: f64, k: u32) -> Result<f64> {
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                detail: "breakdown count k must be at least 1".to_string(),
            });
        }
        let coeffs: Vec<(f64, GCoefficients)> = self
            .analysis
            .blocks()
            .iter()
            .map(|b| {
                (
                    b.spec().area(),
                    GCoefficients::at(t_s, b.alpha_s(), b.b_per_nm()),
                )
            })
            .collect();
        let n_samples = self.samples[0].len();
        let mut acc = 0.0;
        for s in 0..n_samples {
            let mut hazard = 0.0;
            for (j, &(area, coeff)) in coeffs.iter().enumerate() {
                let (u, v) = self.samples[j][s];
                hazard += area * coeff.g(u, v);
            }
            // P(Poisson(H) >= k) = P_gamma(k, H); for k = 1 this is
            // 1 - exp(-H), evaluated stably below.
            let p = if k == 1 {
                -(-hazard).exp_m1()
            } else {
                statobd_num::special::gamma_p(k as f64, hazard)?
            };
            acc += p;
        }
        Ok(acc / n_samples as f64)
    }
}

/// Fills `chunk` (flat `[sample][block]` layout) with exact `(u, v)`
/// pairs for samples `first..first + n`, evaluated `W` samples per tile
/// through the SoA `uv_given_z_tile` kernel. Each sample's principal
/// components are drawn by a freshly reset [`FieldSampler`] from its own
/// `(seed, sample)` stream, straight into its lane of the tile, in the
/// documented order; a last tile with fewer than `W` samples left draws
/// the samples that follow and drops their lanes, so every pair is a
/// function of its own sample alone at every width (width 1 is the plain
/// per-sample loop).
fn fill_uv_tiled<const W: usize>(
    analysis: &ChipAnalysis,
    seed: u64,
    first: usize,
    n: usize,
    chunk: &mut [(f64, f64)],
) {
    let n_blocks = analysis.n_blocks();
    let mut sampler = FieldSampler::new(analysis.model());
    let mut z_tile = vec![0.0; analysis.model().n_components() * W];
    let (mut u, mut v) = ([0.0; W], [0.0; W]);
    for local in (0..n).step_by(W) {
        for w in 0..W {
            let mut rng = Xoshiro256pp::stream(seed, (first + local + w) as u64);
            sampler.reset();
            sampler.sample_z_lane(&mut rng, &mut z_tile, W, w);
        }
        let live = (n - local).min(W);
        for (j, block) in analysis.blocks().iter().enumerate() {
            block
                .moments()
                .uv_given_z_tile::<W>(&z_tile, &mut u, &mut v);
            for w in 0..live {
                chunk[(local + w) * n_blocks + j] = (u[w], v[w]);
            }
        }
    }
}

/// The integral sum over precomputed joint-bin masses, in bin order with
/// zero-mass bins skipped.
fn block_probability_from_masses(
    hist: &Histogram2d,
    probs: &[f64],
    area: f64,
    coeff: GCoefficients,
) -> f64 {
    let (xb, yb) = hist.shape();
    let mut p = 0.0;
    for i in 0..xb {
        for j in 0..yb {
            let mass = probs[i * yb + j];
            if mass == 0.0 {
                continue;
            }
            let (u, v) = hist.bin_center(i, j);
            p += mass * (-(-area * coeff.g(u, v)).exp_m1());
        }
    }
    p.clamp(0.0, 1.0)
}

impl ReliabilityEngine for StMc<'_> {
    fn name(&self) -> &str {
        "st_MC"
    }

    /// Computes each block's joint-bin masses once for the whole sweep
    /// (instead of once per `(block, t)` evaluation) and fans the
    /// `(block × t)` integral sums out over threads as a flat work list;
    /// per-time compositions run in block order, so every entry is
    /// bit-identical to a one-point call at any thread count.
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        check_times(ts)?;
        let n_t = ts.len();
        let n_blocks = self.analysis.n_blocks();
        // Hoisted time-independent per-block data: (histogram, bin masses,
        // area, α, b).
        let block_data: Vec<(&Histogram2d, Vec<f64>, f64, f64, f64)> = self
            .analysis
            .blocks()
            .iter()
            .zip(self.joints.iter())
            .map(|(block, joint)| {
                (
                    &joint.hist,
                    joint.hist.joint_probabilities(),
                    block.spec().area(),
                    block.alpha_s(),
                    block.b_per_nm(),
                )
            })
            .collect();
        let eval_one = |idx: usize| -> f64 {
            let (j, ti) = (idx / n_t, idx % n_t);
            let (hist, probs, area, alpha_s, b_per_nm) = &block_data[j];
            let coeff = GCoefficients::at(ts[ti], *alpha_s, *b_per_nm);
            block_probability_from_masses(hist, probs, *area, coeff)
        };
        let n_items = n_blocks * n_t;
        // One-point calls and tiny sweeps stay serial: they amortize
        // neither the thread-count lookup nor the thread spawn.
        let per_block_t: Vec<f64> = if n_t == 1 || n_items < 8 {
            (0..n_items).map(eval_one).collect()
        } else {
            let threads = parallel::resolve_threads(self.threads);
            parallel::run_indexed(n_items, threads, eval_one)
        };
        let mut chip = self.analysis.composition().accumulator(n_blocks);
        Ok((0..n_t)
            .map(|ti| {
                chip.reset();
                for j in 0..n_blocks {
                    chip.absorb(j, per_block_t[j * n_t + ti]);
                }
                chip.failure_probability()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
    use crate::engines::st_fast::{StFast, StFastConfig};
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
                vec![(0, 0.4), (1, 0.3), (6, 0.3)],
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
    fn st_mc_agrees_with_st_fast_within_percent_scale() {
        // The paper's Table III shows st_fast and st_MC within ~0.1 % of
        // each other; with 40k samples we verify low-single-digit-percent
        // agreement on P(t).
        let a = analysis();
        let mut mc = StMc::new(
            &a,
            StMcConfig {
                n_samples: 40_000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut fast = StFast::new(
            &a,
            StFastConfig {
                l0: 200,
                ..Default::default()
            },
        );
        for &t in &[1e9, 3e9] {
            let pm = mc.failure_probability(t).unwrap();
            let pf = fast.failure_probability(t).unwrap();
            let rel = ((pm - pf) / pf).abs();
            assert!(
                rel < 0.05,
                "st_MC {pm:.4e} vs st_fast {pf:.4e} at {t:e} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let a = analysis();
        let base = StMcConfig {
            n_samples: 1000,
            threads: Some(1),
            ..Default::default()
        };
        let mut one = StMc::new(&a, base).unwrap();
        let mut four = StMc::new(
            &a,
            StMcConfig {
                threads: Some(4),
                ..base
            },
        )
        .unwrap();
        assert_eq!(
            one.failure_probability(1e9).unwrap(),
            four.failure_probability(1e9).unwrap()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = analysis();
        let cfg = StMcConfig::default();
        let mut e1 = StMc::new(&a, cfg).unwrap();
        let mut e2 = StMc::new(&a, cfg).unwrap();
        assert_eq!(
            e1.failure_probability(1e9).unwrap(),
            e2.failure_probability(1e9).unwrap()
        );
    }

    #[test]
    fn rejects_degenerate_config() {
        let a = analysis();
        assert!(StMc::new(
            &a,
            StMcConfig {
                n_samples: 10,
                ..Default::default()
            }
        )
        .is_err());
        assert!(StMc::new(
            &a,
            StMcConfig {
                bins: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn multi_breakdown_k1_matches_engine() {
        let a = analysis();
        let mut e = StMc::new(&a, StMcConfig::default()).unwrap();
        let t = 1e9;
        // The k = 1 reduction holds under weakest-link only.
        assert!(a.composition().is_weakest_link());
        let p_hist = e.failure_probability(t).unwrap();
        let p_k1 = e.failure_probability_multi(t, 1).unwrap();
        // Histogram binning vs per-sample evaluation: small difference.
        let rel = ((p_hist - p_k1) / p_k1).abs();
        assert!(rel < 0.05, "hist {p_hist:e} vs k1 {p_k1:e}");
    }

    #[test]
    fn multi_breakdown_decreases_with_k() {
        let a = analysis();
        let e = StMc::new(&a, StMcConfig::default()).unwrap();
        let t = 1e10; // late enough that P(N >= 2) is representable
        let p1 = e.failure_probability_multi(t, 1).unwrap();
        let p2 = e.failure_probability_multi(t, 2).unwrap();
        let p3 = e.failure_probability_multi(t, 3).unwrap();
        assert!(p1 > p2 && p2 > p3, "{p1:e} {p2:e} {p3:e}");
        assert!(p2 > 0.0);
        assert!(e.failure_probability_multi(t, 0).is_err());
    }
}
