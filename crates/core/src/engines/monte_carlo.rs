//! The reference per-device Monte-Carlo engine (paper's `MC` column).
//!
//! For each sample chip the full thickness field is drawn: one correlated
//! base value per grid (principal components) plus an independent residual
//! per *device*. Devices are binned into a fine per-block thickness
//! histogram, so the conditional chip reliability
//!
//! ```text
//! R_chip(t) = exp(−Σ_j (A_j/m_j) Σ_devices (t/α_j)^{b_j·x_i})
//! ```
//!
//! is evaluated exactly (up to binning at ~10⁻⁴ nm resolution) at any `t`
//! without re-simulation, and the ensemble failure probability is the
//! average over chips. Chip sampling is embarrassingly parallel and fans
//! out across scoped threads ([`statobd_num::parallel`]); every chip draws
//! from its own counter-based RNG stream, so results are bit-identical at
//! any thread count.

use crate::chip::ChipAnalysis;
use crate::engines::composition::Composition;
use crate::engines::{check_times, ChipRecord, ReliabilityEngine};
use crate::{CoreError, Result};
use statobd_num::parallel;
use statobd_num::rng::{NormalSampler, Xoshiro256pp};

/// Configuration of the Monte-Carlo reference engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of sample chips (the paper uses 1000 for Table III).
    pub n_chips: usize,
    /// Thickness histogram bins per block.
    pub bins: usize,
    /// RNG seed; chip `i` derives its stream from `seed` and `i`, so
    /// results are independent of the thread count.
    pub seed: u64,
    /// Worker threads (`None` = all available cores).
    pub threads: Option<usize>,
}

statobd_num::impl_json_struct!(MonteCarloConfig {
    n_chips,
    bins,
    seed,
    threads
});

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            n_chips: 1000,
            bins: 400,
            seed: 0xC0FFEE,
            threads: None,
        }
    }
}

/// Per-block device allocation across grids.
#[derive(Debug, Clone)]
struct BlockAllocation {
    /// `(grid, device count)` with counts summing to `m_j`.
    per_grid: Vec<(usize, u64)>,
    /// Histogram axis start (nm).
    x_lo: f64,
    /// Histogram bin width (nm).
    bin_w: f64,
}

/// Reusable scratch buffers shared by every evaluation entry point, so
/// repeated sweep/solve calls allocate nothing once warm.
#[derive(Debug, Default)]
struct McWorkspace {
    /// Bin-weight table, laid out `[block][bin][t]`.
    weights: Vec<f64>,
    /// Per-chip hazards or failure probabilities, laid out `[chip][t]`.
    per_chip: Vec<f64>,
}

/// What the per-chip kernel ([`MonteCarlo::fill_per_chip`]) writes for
/// each `(chip, t)`.
#[derive(Clone, Copy)]
enum PerChip {
    /// The chip's cumulative hazard `H_chip(t) = Σ_j H_j(t)` — the mean
    /// breakdown count, whatever the composition.
    Hazard,
    /// The chip's conditional failure probability under its composition.
    Failure,
}

/// The Monte-Carlo reference engine (`MC` in Table III).
#[derive(Debug)]
pub struct MonteCarlo {
    chip: ChipRecord,
    config: MonteCarloConfig,
    allocations: Vec<BlockAllocation>,
    /// Device-count histograms, laid out `[chip][block][bin]`.
    counts: Vec<u32>,
    /// Wall-clock seconds spent sampling chips.
    build_seconds: f64,
    /// Cached evaluation scratch (weight tables, per-chip probabilities).
    ws: std::cell::RefCell<McWorkspace>,
}

impl MonteCarlo {
    /// Samples `config.n_chips` chips of the analyzed design (the
    /// expensive step — per-device work, parallelized over chips).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a degenerate
    /// configuration.
    pub fn build(analysis: &ChipAnalysis, config: MonteCarloConfig) -> Result<Self> {
        if config.n_chips == 0 || config.bins < 8 {
            return Err(CoreError::InvalidParameter {
                detail: format!(
                    "MC needs n_chips > 0 and bins >= 8, got {} and {}",
                    config.n_chips, config.bins
                ),
            });
        }
        let model = analysis.model();
        let sigma_ind = model.sigma_ind();

        // Precompute per-block device allocations and histogram axes.
        let mut allocations = Vec::with_capacity(analysis.n_blocks());
        for block in analysis.blocks() {
            let spec = block.spec();
            let m = spec.m_devices();
            // Largest-remainder apportionment of devices to grids.
            let mut per_grid: Vec<(usize, u64, f64)> = spec
                .grid_weights()
                .iter()
                .map(|&(g, w)| {
                    let exact = w * m as f64;
                    (g, exact.floor() as u64, exact.fract())
                })
                .collect();
            let assigned: u64 = per_grid.iter().map(|&(_, c, _)| c).sum();
            let mut remainder = m - assigned;
            per_grid.sort_by(|a, b| b.2.total_cmp(&a.2));
            for entry in per_grid.iter_mut() {
                if remainder == 0 {
                    break;
                }
                entry.1 += 1;
                remainder -= 1;
            }
            let per_grid: Vec<(usize, u64)> = per_grid
                .into_iter()
                .filter(|&(_, c, _)| c > 0)
                .map(|(g, c, _)| (g, c))
                .collect();

            // Axis: nominal range ± (6σ_corr + 6σ_ind) with headroom.
            let u0 = block.moments().u_nominal();
            let spread = 6.0 * block.moments().u_sigma()
                + 6.0 * sigma_ind
                + 3.0 * block.moments().q_trace().sqrt();
            let x_lo = u0 - spread;
            let bin_w = 2.0 * spread / config.bins as f64;
            allocations.push(BlockAllocation {
                per_grid,
                x_lo,
                bin_w,
            });
        }

        let n_blocks = analysis.n_blocks();
        let stride_chip = n_blocks * config.bins;
        let mut counts = vec![0u32; config.n_chips * stride_chip];

        let threads = parallel::resolve_threads(config.threads);
        // Chunk size is fixed (not derived from the thread count) so the
        // work decomposition — and with per-chip RNG streams, the result —
        // is identical no matter how many workers run.
        let chunk_chips = 16;

        let start = std::time::Instant::now();
        {
            let allocations = &allocations;
            parallel::for_each_chunk_mut(
                &mut counts,
                chunk_chips * stride_chip,
                threads,
                |chunk_idx, count_chunk| {
                    let n_pc = model.n_components();
                    let mut z = vec![0.0; n_pc];
                    let first_chip = chunk_idx * chunk_chips;
                    let chips_here = count_chunk.len() / stride_chip;
                    for local in 0..chips_here {
                        let chip = first_chip + local;
                        // Per-chip deterministic stream; a fresh sampler per
                        // chip keeps results independent of the thread
                        // partitioning.
                        let mut normal = NormalSampler::new();
                        let mut rng = Xoshiro256pp::stream(config.seed, chip as u64);
                        normal.fill(&mut rng, &mut z);
                        let base = model.grid_base(&z);
                        let chip_counts =
                            &mut count_chunk[local * stride_chip..(local + 1) * stride_chip];
                        for (j, alloc) in allocations.iter().enumerate() {
                            let bins = &mut chip_counts[j * config.bins..(j + 1) * config.bins];
                            let inv_w = 1.0 / alloc.bin_w;
                            for &(g, m_g) in &alloc.per_grid {
                                let b0 = base[g];
                                for _ in 0..m_g {
                                    let x = b0 + sigma_ind * normal.sample(&mut rng);
                                    let idx = ((x - alloc.x_lo) * inv_w) as isize;
                                    let idx = idx.clamp(0, config.bins as isize - 1) as usize;
                                    bins[idx] += 1;
                                }
                            }
                        }
                    }
                },
            );
        }
        let build_seconds = start.elapsed().as_secs_f64();

        Ok(MonteCarlo {
            chip: ChipRecord::of(analysis),
            config,
            allocations,
            counts,
            build_seconds,
            ws: std::cell::RefCell::new(McWorkspace::default()),
        })
    }

    /// Seconds spent in the chip-sampling phase.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Number of sampled chips.
    pub fn n_chips(&self) -> usize {
        self.config.n_chips
    }

    /// Per-chip cumulative hazards `H_chip(t) = Σ_j (A_j/m_j) Σ_i
    /// (t/α_j)^{b_j x_i}` for every sampled chip — the mean breakdown
    /// count, whatever the chip's composition.
    pub fn per_chip_hazard(&self, t_s: f64) -> Vec<f64> {
        self.fill_per_chip(std::slice::from_ref(&t_s), PerChip::Hazard)
            .to_vec()
    }

    /// Per-chip conditional failure probabilities `1 − R_chip(t)` for
    /// every sampled chip under the chip's composition (the
    /// lifetime-distribution view of Fig. 10). Their mean in chip order
    /// is [`ReliabilityEngine::failure_probability`], bit for bit.
    pub fn per_chip_failure(&self, t_s: f64) -> Vec<f64> {
        self.fill_per_chip(std::slice::from_ref(&t_s), PerChip::Failure)
            .to_vec()
    }

    /// Ensemble probability that at least `k` breakdowns occur by `t` —
    /// the multi-breakdown (SBD-tolerant design) extension: breakdowns
    /// arrive as a Poisson process with the chip's cumulative hazard as
    /// its mean, so `P(N ≥ k) = P_gamma(k, H_chip)` averaged over chips.
    ///
    /// Breakdowns are counted chip-wide, whatever the chip's
    /// [`Composition`]: under weakest-link `k = 1` is
    /// [`ReliabilityEngine::failure_probability`], while redundancy
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
        let hazards = self.per_chip_hazard(t_s);
        let mut acc = 0.0;
        for h in &hazards {
            acc += if k == 1 {
                -(-h).exp_m1()
            } else {
                statobd_num::special::gamma_p(k as f64, *h)?
            };
        }
        Ok(acc / hazards.len() as f64)
    }

    /// The per-chip kernel behind every query: one parallel pass over the
    /// chip histograms that evaluates every time in `ts` per chip visit,
    /// returning the workspace's `[chip][t]` table of `what`. The weight
    /// table holds all `(block, bin, t)` entries up front and the
    /// innermost loop runs over `t` with unit stride, so the 200-point
    /// sweeps behind [`crate::failure_rate_curve`] traverse the (large)
    /// count array once instead of 200 times.
    fn fill_per_chip(&self, ts: &[f64], what: PerChip) -> std::cell::RefMut<'_, Vec<f64>> {
        let n_t = ts.len();
        let n_blocks = self.chip.blocks.len();
        let bins = self.config.bins;
        let stride_chip = n_blocks * bins;
        let threads = parallel::resolve_threads(self.config.threads);

        let mut ws = self.ws.borrow_mut();
        self.fill_bin_weights(ts, &mut ws.weights);
        let McWorkspace { weights, per_chip } = &mut *ws;
        let weights: &[f64] = weights;
        per_chip.clear();
        per_chip.resize(self.config.n_chips * n_t, 0.0);

        // Fixed chunking (as in `build`) and disjoint per-chip output rows
        // keep the result independent of the worker count; capture the
        // individual fields, not `&self` (the workspace `RefCell` makes the
        // engine `!Sync`).
        let counts = &self.counts;
        // Redundancy groups flip the per-chip composition: instead of
        // summing block hazards into one chip hazard (weakest-link:
        // survival factorizes, so the sum *is* the composition), each
        // sampled chip keeps its exact per-block failure probabilities and
        // runs the spares directly through a linear-space Poisson-binomial
        // pass — the "simulate spares on every sample chip" reference the
        // analytic log-space DP is validated against.
        let groups = match (what, &self.chip.composition) {
            (PerChip::Failure, Composition::Groups(groups)) => Some(groups.as_slice()),
            _ => None,
        };
        let chunk_chips = 16;
        parallel::for_each_chunk_mut(
            per_chip.as_mut_slice(),
            chunk_chips * n_t,
            threads,
            |chunk_idx, out_chunk| {
                let first_chip = chunk_idx * chunk_chips;
                let chips_here = out_chunk.len() / n_t;
                let mut acc = vec![0.0; n_t];
                let mut hazards = vec![0.0; n_t];
                let mut block_haz = vec![0.0; if groups.is_some() { n_blocks * n_t } else { 0 }];
                let mut dp: Vec<f64> = Vec::new();
                for local in 0..chips_here {
                    let chip = first_chip + local;
                    let chip_counts = &counts[chip * stride_chip..(chip + 1) * stride_chip];
                    hazards.iter_mut().for_each(|h| *h = 0.0);
                    for j in 0..n_blocks {
                        let w = &weights[j * bins * n_t..(j + 1) * bins * n_t];
                        let c = &chip_counts[j * bins..(j + 1) * bins];
                        acc.iter_mut().for_each(|a| *a = 0.0);
                        for (k, ck) in c.iter().enumerate() {
                            if *ck != 0 {
                                let cf = *ck as f64;
                                let w_row = &w[k * n_t..(k + 1) * n_t];
                                for (a, wk) in acc.iter_mut().zip(w_row) {
                                    *a += wk * cf;
                                }
                            }
                        }
                        match groups {
                            None => {
                                for (h, a) in hazards.iter_mut().zip(&acc) {
                                    *h += a;
                                }
                            }
                            Some(_) => {
                                block_haz[j * n_t..(j + 1) * n_t].copy_from_slice(&acc);
                            }
                        }
                    }
                    let out = &mut out_chunk[local * n_t..(local + 1) * n_t];
                    match (what, groups) {
                        (PerChip::Hazard, _) => out.copy_from_slice(&hazards),
                        (PerChip::Failure, None) => {
                            for (o, h) in out.iter_mut().zip(&hazards) {
                                *o = -(-h).exp_m1();
                            }
                        }
                        (PerChip::Failure, Some(groups)) => {
                            for (ti, o) in out.iter_mut().enumerate() {
                                let mut survival = 1.0;
                                for group in groups {
                                    let s = group.spares;
                                    dp.clear();
                                    dp.resize(s + 1, 0.0);
                                    dp[0] = 1.0;
                                    let mut tail = 0.0;
                                    for &j in &group.blocks {
                                        let p = -(-block_haz[j * n_t + ti]).exp_m1();
                                        tail += dp[s] * p;
                                        for m in (1..=s).rev() {
                                            dp[m] = dp[m] * (1.0 - p) + dp[m - 1] * p;
                                        }
                                        dp[0] *= 1.0 - p;
                                    }
                                    survival *= 1.0 - tail;
                                }
                                *o = 1.0 - survival;
                            }
                        }
                    }
                }
            },
        );
        std::cell::RefMut::map(ws, |ws| &mut ws.per_chip)
    }

    /// Fills `out` with the per-block per-bin hazard weights
    /// `(A_j/m_j)·exp(γ_j(t)·b_j·x_bin)` for every requested time, laid out
    /// `[block][bin][t]`.
    ///
    /// The bin axis is uniform, so each `(block, t)` row is a geometric
    /// progression filled by [`statobd_num::special::scaled_exp_grid`] —
    /// one `exp` per resync window instead of one per bin (and at lane
    /// widths > 1 those resync anchors are themselves batched through one
    /// vectorized exp per row; see [`statobd_num::simd`]).
    fn fill_bin_weights(&self, ts: &[f64], out: &mut Vec<f64>) {
        let bins = self.config.bins;
        let n_t = ts.len();
        out.clear();
        out.resize(self.chip.blocks.len() * bins * n_t, 0.0);
        for (j, (block, alloc)) in self.chip.blocks.iter().zip(&self.allocations).enumerate() {
            let area_per_device = block.area / block.m_devices as f64;
            let x0 = alloc.x_lo + 0.5 * alloc.bin_w;
            for (ti, &t_s) in ts.iter().enumerate() {
                let gamma = (t_s / block.alpha_s).ln();
                let gb = gamma * block.b_per_nm;
                statobd_num::special::scaled_exp_grid(
                    area_per_device,
                    gb,
                    x0,
                    alloc.bin_w,
                    bins,
                    &mut out[j * bins * n_t + ti..],
                    n_t,
                );
            }
        }
    }
}

impl ReliabilityEngine for MonteCarlo {
    fn name(&self) -> &str {
        "MC"
    }

    /// The per-chip kernel's failure probabilities, averaged over chips
    /// serially in chip order — the same summation order at any thread
    /// count.
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        check_times(ts)?;
        if ts.is_empty() {
            return Ok(Vec::new());
        }
        let n_t = ts.len();
        let per_chip = self.fill_per_chip(ts, PerChip::Failure);
        let mut totals = vec![0.0; n_t];
        for row in per_chip.chunks_exact(n_t) {
            for (tot, p) in totals.iter_mut().zip(row) {
                *tot += p;
            }
        }
        for tot in totals.iter_mut() {
            *tot /= self.config.n_chips as f64;
        }
        Ok(totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
    use crate::engines::st_fast::{StFast, StFastConfig};
    use statobd_device::ClosedFormTech;
    use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};

    fn analysis(devices: u64) -> ChipAnalysis {
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
                devices as f64 * 0.4,
                (devices as f64 * 0.4) as u64,
                368.15,
                1.2,
                vec![(0, 0.5), (6, 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        spec.add_block(
            BlockSpec::new(
                "cache",
                devices as f64 * 0.6,
                (devices as f64 * 0.6) as u64,
                341.15,
                1.2,
                vec![(12, 0.7), (13, 0.3)],
            )
            .unwrap(),
        )
        .unwrap();
        ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
    }

    #[test]
    fn mc_agrees_with_st_fast() {
        // The paper's central result: st_fast within ~1-2 % of MC.
        let a = analysis(50_000);
        let mut mc = MonteCarlo::build(
            &a,
            MonteCarloConfig {
                n_chips: 600,
                ..Default::default()
            },
        )
        .unwrap();
        let mut fast = StFast::new(
            &a,
            StFastConfig {
                l0: 50,
                ..Default::default()
            },
        );
        for &t in &[3e8, 1e9] {
            let pm = mc.failure_probability(t).unwrap();
            let pf = fast.failure_probability(t).unwrap();
            let rel = ((pm - pf) / pf).abs();
            assert!(
                rel < 0.12,
                "MC {pm:.4e} vs st_fast {pf:.4e} at t={t:e} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let a = analysis(5_000);
        let base = MonteCarloConfig {
            n_chips: 50,
            threads: Some(1),
            ..Default::default()
        };
        let mut one = MonteCarlo::build(&a, base).unwrap();
        let mut four = MonteCarlo::build(
            &a,
            MonteCarloConfig {
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
    fn per_chip_failure_bounds_and_mean() {
        // The per-chip probabilities apply the chip's composition, so
        // their chip-order mean is the engine's P(t) bit for bit — with
        // spares as well as under weakest-link.
        let spared = analysis(5_000)
            .with_composition(Composition::uniform_spares(2, 1))
            .unwrap();
        for a in [analysis(5_000), spared] {
            let mut mc = MonteCarlo::build(
                &a,
                MonteCarloConfig {
                    n_chips: 100,
                    ..Default::default()
                },
            )
            .unwrap();
            for t in [1e9, 1e10] {
                let per_chip = mc.per_chip_failure(t);
                assert_eq!(per_chip.len(), 100);
                assert!(per_chip.iter().all(|&p| (0.0..=1.0).contains(&p)));
                let mean = per_chip.iter().fold(0.0, |acc, p| acc + p) / 100.0;
                let p = mc.failure_probability(t).unwrap();
                assert!(p > 0.0, "degenerate P({t:e})");
                assert_eq!(
                    mean.to_bits(),
                    p.to_bits(),
                    "{:?} at {t:e}: per-chip mean {mean:e} vs P {p:e}",
                    a.composition()
                );
            }
        }
    }

    #[test]
    fn rejects_degenerate_config() {
        let a = analysis(5_000);
        assert!(MonteCarlo::build(
            &a,
            MonteCarloConfig {
                n_chips: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(MonteCarlo::build(
            &a,
            MonteCarloConfig {
                bins: 4,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn multi_breakdown_consistency() {
        let a = analysis(5_000);
        let mut mc = MonteCarlo::build(
            &a,
            MonteCarloConfig {
                n_chips: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let t = 1e10;
        // Under weakest-link, k = 1 equals the engine probability exactly
        // (same hazards, same chip-order mean).
        assert!(a.composition().is_weakest_link());
        let p1 = mc.failure_probability_multi(t, 1).unwrap();
        let p_engine = mc.failure_probability(t).unwrap();
        assert_eq!(p1.to_bits(), p_engine.to_bits());
        // Decreasing in k, and a 2-SBD-tolerant design lives longer.
        let p2 = mc.failure_probability_multi(t, 2).unwrap();
        assert!(p2 < p1);
        assert!(mc.failure_probability_multi(t, 0).is_err());
        // Breakdowns are counted chip-wide: a spare absorbs one, so the
        // spared chip fails less often than k = 1 says.
        let spared = a
            .with_composition(Composition::uniform_spares(2, 1))
            .unwrap();
        let mut mc = MonteCarlo::build(
            &spared,
            MonteCarloConfig {
                n_chips: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let p_spared = mc.failure_probability(t).unwrap();
        assert_eq!(
            mc.failure_probability_multi(t, 1).unwrap().to_bits(),
            p1.to_bits()
        );
        assert!(p_spared < p1, "spared {p_spared:e} vs k = 1 {p1:e}");
    }

    #[test]
    fn failure_probability_is_monotone() {
        let a = analysis(5_000);
        let mut mc = MonteCarlo::build(
            &a,
            MonteCarloConfig {
                n_chips: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let mut prev = 0.0;
        for i in 0..8 {
            let t = 10f64.powf(7.0 + i as f64);
            let p = mc.failure_probability(t).unwrap();
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }
}
