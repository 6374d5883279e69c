//! Fleet-scale population simulation: millions of chip instances streamed
//! through a mission profile into constant-memory aggregate statistics.
//!
//! The paper's point is that reliability is a *population* property:
//! process variation makes every die different, so FIT budgets and
//! burn-in decisions are made over distributions, not a single chip. This
//! module samples a fleet of chip instances — wafer position × inter-die
//! principal components (via [`FieldSampler`]) on top of the compiled
//! intra-die model — evaluates each against a [`MissionProfile`], and
//! reduces the population to aggregate statistics through a sharded,
//! constant-memory streaming reducer.
//!
//! # Determinism architecture
//!
//! Three properties combine to make fleet aggregates *bit-identical* at
//! any thread count and independent of the shard layout:
//!
//! 1. **Counter-based RNG streams.** Chip `i` draws from
//!    `base.substream(i)` ([`Xoshiro256pp::substream`]), a pure function
//!    of `(seed, i)` — so a chip's draws never depend on which thread or
//!    shard evaluates it.
//! 2. **Exact-commutative shard accumulators.** Every compared aggregate
//!    is either a `u64` count ([`Histogram1d`]-backed
//!    [`QuantileSketch`]es, exceedance and weakest-block counters) or an
//!    exact `min`/`max` fold; integer addition and f64 min/max are exact
//!    and commutative, so any partitioning of the chip range merges to
//!    the same bits.
//! 3. **Serial index-order reduction.** Shards are evaluated via
//!    [`run_indexed`] (results gathered in shard order) and merged
//!    serially — and because of (2) even the shard *count* cannot change
//!    the merged aggregates.
//!
//! Quantiles are extracted deterministically from the merged counts, so
//! the whole [`FleetAggregates`] value is reproducible bit-for-bit.
//!
//! # Lane tiling
//!
//! Every chip is evaluated in a **lane tile** of the active `num::simd`
//! width `W` (8 on AVX-512F, 4 on AVX2, 1 under `STATOBD_LANES=1`), lane
//! dimension across chips: each lane still consumes its own
//! `substream(chip)` in the documented draw order (the sampling stays
//! per-lane scalar — the polar method is rejection-based), but the
//! `(u, v)` dot products, the mission-end failure terms and each of the
//! 52 lifetime-bisection steps run `W` chips at once through the lane
//! kernels, with per-lane lo/hi selects and censoring masks. Lane-tile
//! boundaries are absolute multiples of `W` inside the fixed
//! [`TILE_CHIPS`] work tiles (`TILE_CHIPS % 8 == 0`); the ragged tail at
//! the fleet end runs as a masked partial tile, whose spare lanes
//! evaluate the chips past the end and are dropped. Every lane kernel is
//! elementwise, so a chip's bits are a pure function of `(chip, W)` —
//! never of the shard layout, the fleet size or its tile neighbours: the
//! bit-identity guarantees above hold per fixed width. `W = 1` runs the
//! same kernel on the libm expressions (picked at compile time), which
//! reproduces the historical scalar bits; wider tiles agree with it to
//! ≤ 1e-12 relative per chip (enforced by `tests/fleet_consistency.rs`).
//!
//! The blocks compose into chip failure through a [`LaneFold`]: the
//! weakest-link sum, or — for redundancy-grouped runs
//! ([`FleetConfig::spares`] > 0, or an analysis carrying a grouped
//! [`Composition`]) — the log-space Poisson-binomial DP of
//! [`simd::group_absorb`], run across the lanes on state rows held in
//! the shard workspace. Grouped aggregates are therefore bit-identical
//! across threads × shards at each width, and agree across widths within
//! the same 1e-12 gate as weakest-link runs.
//!
//! # Constant-memory guarantee
//!
//! The hot path is allocation-free per chip: each shard allocates one
//! reusable [`Workspace`] (principal-component and per-block tile
//! scratch, plus the composition fold's state rows) up front and every
//! chip reuses it. The number of workspaces actually created is
//! reported in [`FleetReport::workspaces_created`] and asserted (≤ shard
//! count) by the `fleet` bench binary.
//!
//! [`FieldSampler`]: statobd_variation::FieldSampler
//! [`MissionProfile`]: statobd_manager::MissionProfile
//! [`Xoshiro256pp::substream`]: statobd_num::rng::Xoshiro256pp::substream
//! [`Histogram1d`]: statobd_num::hist::Histogram1d
//! [`QuantileSketch`]: statobd_num::stats::QuantileSketch
//! [`run_indexed`]: statobd_num::parallel::run_indexed
//! [`LaneFold`]: statobd_num::simd::LaneFold

use crate::error::{Error, Result};
use statobd_core::{conditional_block_failure, params, ChipAnalysis, Composition, GCoefficients};
use statobd_device::ObdTechnology;
use statobd_manager::MissionProfile;
use statobd_num::impl_json_struct;
use statobd_num::parallel::{resolve_threads, run_indexed};
use statobd_num::rng::{Rng, Xoshiro256pp};
use statobd_num::simd::{self, GroupFold, GroupLayout, LaneFold, LaneWidth, WeakestLinkFold};
use statobd_num::stats::QuantileSketch;
use statobd_variation::{FieldSampler, SystematicPattern, ThicknessModel};
use std::sync::atomic::{AtomicU64, Ordering};

/// Chips per work tile. Shards own contiguous tile ranges; the tile size
/// is a fixed constant so the chip → shard assignment depends only on the
/// shard count — and per-chip results depend on neither (substream RNG).
/// A multiple of every lane width (8, 4, 1), so lane tiles never straddle
/// a work-tile boundary and their start positions are absolute multiples
/// of the width regardless of the shard layout.
const TILE_CHIPS: u64 = 256;

/// Quantile levels reported for the lifetime / FIT / mission-probability
/// distributions.
pub const QUANTILE_LEVELS: [f64; 8] = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999];

/// Lifetime solve bracket (seconds): generous enough for any physical
/// fleet member; chips whose budget-crossing falls outside are counted
/// as censored at the edge.
pub const LIFE_BRACKET_S: (f64, f64) = (1e2, 1e16);

/// Bisection iterations for the per-chip lifetime solve on `x = ln t`.
/// 52 halvings of the ~32-wide bracket reach f64 resolution.
const LIFE_BISECTIONS: u32 = 52;

/// Log₁₀-seconds layout of the lifetime quantile sketch (0.05 decades per
/// bin).
const LIFE_SKETCH: (f64, f64, usize) = (2.0, 16.0, 280);

/// Log₁₀ layout of the mission failure-probability sketch.
const P_SKETCH: (f64, f64, usize) = (-30.0, 0.0, 240);

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of chip instances to sample (10⁵–10⁷ is the target regime).
    pub chips: u64,
    /// The mission profile every chip is evaluated against.
    pub profile: MissionProfile,
    /// Root seed of the per-chip substream family.
    pub seed: u64,
    /// Mission-end failure-probability budget: chips above it count as
    /// exceedances, and the per-chip lifetime is the age at which the
    /// chip's failure probability reaches it.
    pub budget: f64,
    /// Wafer-level systematic thickness pattern, sampled at a uniform
    /// wafer position per chip; the offset shifts the die-mean oxide
    /// thickness. [`SystematicPattern::None`] disables wafer variation.
    pub wafer: SystematicPattern,
    /// Worker threads (`None` = `STATOBD_THREADS`, then all cores).
    pub threads: Option<usize>,
    /// Shard count (`None` = the resolved thread count). Aggregates are
    /// bit-identical for any value; this knob exists for testing that
    /// claim and for tuning reduction granularity.
    pub shards: Option<usize>,
    /// Spare budget for redundancy-aware composition: `0` inherits the
    /// analysis's own [`Composition`]; `s > 0` overrides it with a
    /// single k-out-of-n group spanning every block that tolerates `s`
    /// block failures before the chip fails. Grouped runs take the same
    /// lane tiles as weakest-link ones, composing through the lane
    /// Poisson-binomial fold: aggregates are bit-identical at any
    /// thread/shard layout per lane width, and agree across widths
    /// within 1e-12.
    pub spares: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            chips: 100_000,
            profile: MissionProfile::datacenter(),
            seed: 42,
            budget: params::ONE_PER_MILLION,
            wafer: SystematicPattern::Bowl {
                depth: 0.02,
                center: (0.5, 0.5),
            },
            threads: None,
            shards: None,
            spares: 0,
        }
    }
}

impl FleetConfig {
    /// Validates the scalar knobs (the profile validates at compile time
    /// against the chip's block count).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.chips == 0 {
            return Err(Error::Spec(
                "chips: the fleet needs at least one chip".to_string(),
            ));
        }
        if self.shards == Some(0) {
            return Err(Error::Spec("shards: need at least one shard".to_string()));
        }
        if self.threads == Some(0) {
            return Err(Error::Spec(
                "threads: need at least one worker thread".to_string(),
            ));
        }
        if !(self.budget > 0.0 && self.budget < 1.0) {
            return Err(Error::Spec(format!(
                "budget: failure-probability budget must be in (0, 1), got {}",
                self.budget
            )));
        }
        Ok(())
    }
}

/// Per-block mission constants, precomputed once per run.
///
/// The damage identity makes this possible: a block's failure probability
/// depends on its stress history only through `γ = ln ξ` with
/// `ξ = Σ Δt/α(T, V)` — which is *chip-independent* (temperatures and
/// voltages come from the spec and profile, not the thickness draw). So
/// one serial pass over the profile reduces every mission to a handful of
/// per-block constants, and the per-chip hot path never touches the
/// technology model.
#[derive(Debug, Clone)]
struct BlockMission {
    /// `g`-kernel coefficients divided by the thickness moments: at
    /// mission end, `ln g = γ_mission·b_eff·u + ½·γ_mission²·b_eff²·v`.
    coeff_mission: GCoefficients,
    /// `ln(ξ_mission / D)`: under steady mission repetition the block's
    /// effective age is `ξ(t) = t·ξ_mission/D`, so `γ(t) = ln_rate + ln t`.
    ln_rate: f64,
    /// Time-weighted effective thickness slope `b` over the mission.
    b_eff: f64,
    /// Block area `A_j`.
    area: f64,
}

/// A fleet compiled against one chip analysis: per-block mission
/// constants plus everything the per-chip evaluation needs.
#[derive(Debug)]
struct CompiledFleet<'a> {
    analysis: &'a ChipAnalysis,
    blocks: Vec<BlockMission>,
    /// Flat `(ln_rate, area, x_small, x_sat)` quad per block — the
    /// parameter layout of the fused [`simd::ln_surv_tile_sum`]
    /// bisection kernel, with the regime-screen thresholds precomputed
    /// once per compile.
    block_params: Vec<f64>,
    base_rng: Xoshiro256pp,
    wafer: SystematicPattern,
    budget: f64,
    /// `ln(1 − budget)`: the log-survival threshold of the lifetime solve.
    ln1p_neg_budget: f64,
    /// How block failures compose into chip failure — the analysis's own
    /// composition or the [`FleetConfig::spares`] override — as a lane
    /// fold layout; `None` is weakest-link.
    groups: Option<GroupLayout>,
}

/// Per-shard scratch, allocated once and reused by every chip the shard
/// evaluates (the constant-memory guarantee).
#[derive(Debug)]
struct Workspace<'a> {
    tile: TileScratch<'a>,
    /// The group fold's Poisson-binomial state rows
    /// ([`GroupLayout::rows`] × lane width values), cleared per
    /// evaluation; empty under weakest-link.
    fold_rows: Vec<f64>,
}

/// The per-tile sampling and `[block][lane]` buffers of a [`Workspace`].
#[derive(Debug)]
struct TileScratch<'a> {
    /// The shard's thickness-field sampler, hoisted out of the per-chip
    /// loop and [`FieldSampler::reset`] per chip — so the hot path runs
    /// no constructor at all.
    sampler: FieldSampler<'a>,
    /// SoA principal-component tile: `z_tile[k·W + w]` is component `k`
    /// of the tile's lane-`w` chip.
    z_tile: Vec<f64>,
    /// Per-`[block][lane]` `b_eff·u` of the current tile.
    bu: Vec<f64>,
    /// Per-`[block][lane]` `b_eff²·v` of the current tile.
    bbv: Vec<f64>,
}

impl<'a> Workspace<'a> {
    fn new(fleet: &CompiledFleet<'a>, lanes: usize, created: &AtomicU64) -> Self {
        created.fetch_add(1, Ordering::Relaxed);
        let model: &'a ThicknessModel = fleet.analysis.model();
        let n_blocks = fleet.blocks.len();
        Workspace {
            tile: TileScratch {
                sampler: FieldSampler::new(model),
                z_tile: vec![0.0; model.n_components() * lanes],
                bu: vec![0.0; n_blocks * lanes],
                bbv: vec![0.0; n_blocks * lanes],
            },
            fold_rows: vec![0.0; fleet.groups.as_ref().map_or(0, GroupLayout::rows) * lanes],
        }
    }
}

/// The outcome of one chip's mission evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipOutcome {
    /// Chip failure probability at mission end, composed through the
    /// chip's [`Composition`] (weakest-link, or k-out-of-n redundancy
    /// groups with spares).
    pub p_mission: f64,
    /// Index of the block with the largest mission-end failure
    /// probability. Ties resolve to the lowest index, and a NaN
    /// probability never wins, so a chip whose blocks are all NaN
    /// reports block 0.
    pub weakest_block: usize,
    /// Age (seconds) at which the chip's failure probability reaches the
    /// budget, under steady mission repetition; clamped to the solve
    /// bracket when censored.
    pub lifetime_s: f64,
    /// The chip already exceeds the budget at the bracket's low edge.
    pub censored_low: bool,
    /// The chip never reaches the budget inside the bracket.
    pub censored_high: bool,
}

/// One shard's streaming accumulators. Every field is exact-commutative
/// under merge (integer counts, f64 min/max), which is what makes the
/// reduction independent of the shard layout.
#[derive(Debug)]
struct ShardAcc {
    chips: u64,
    exceed_budget: u64,
    censored_low: u64,
    censored_high: u64,
    weakest: Vec<u64>,
    life_sketch: QuantileSketch,
    p_sketch: QuantileSketch,
    lifetime_min_s: f64,
    lifetime_max_s: f64,
    p_min: f64,
    p_max: f64,
}

impl ShardAcc {
    fn new(n_blocks: usize) -> Result<Self> {
        Ok(ShardAcc {
            chips: 0,
            exceed_budget: 0,
            censored_low: 0,
            censored_high: 0,
            weakest: vec![0; n_blocks],
            life_sketch: QuantileSketch::new(LIFE_SKETCH.0, LIFE_SKETCH.1, LIFE_SKETCH.2)?,
            p_sketch: QuantileSketch::new(P_SKETCH.0, P_SKETCH.1, P_SKETCH.2)?,
            lifetime_min_s: f64::INFINITY,
            lifetime_max_s: f64::NEG_INFINITY,
            p_min: f64::INFINITY,
            p_max: f64::NEG_INFINITY,
        })
    }

    fn absorb(&mut self, outcome: &ChipOutcome, budget: f64) {
        self.chips += 1;
        if outcome.p_mission > budget {
            self.exceed_budget += 1;
        }
        self.censored_low += u64::from(outcome.censored_low);
        self.censored_high += u64::from(outcome.censored_high);
        self.weakest[outcome.weakest_block] += 1;
        self.life_sketch.add(outcome.lifetime_s.log10());
        // Sub-normal-proof: a fully underflowed p lands in the sketch's
        // below-range mass and reports as the (clamped) minimum.
        self.p_sketch
            .add(outcome.p_mission.max(f64::MIN_POSITIVE).log10());
        self.lifetime_min_s = self.lifetime_min_s.min(outcome.lifetime_s);
        self.lifetime_max_s = self.lifetime_max_s.max(outcome.lifetime_s);
        self.p_min = self.p_min.min(outcome.p_mission);
        self.p_max = self.p_max.max(outcome.p_mission);
    }

    fn merge(&mut self, other: &ShardAcc) -> Result<()> {
        self.chips += other.chips;
        self.exceed_budget += other.exceed_budget;
        self.censored_low += other.censored_low;
        self.censored_high += other.censored_high;
        for (w, &o) in self.weakest.iter_mut().zip(&other.weakest) {
            *w += o;
        }
        self.life_sketch.merge(&other.life_sketch)?;
        self.p_sketch.merge(&other.p_sketch)?;
        self.lifetime_min_s = self.lifetime_min_s.min(other.lifetime_min_s);
        self.lifetime_max_s = self.lifetime_max_s.max(other.lifetime_max_s);
        self.p_min = self.p_min.min(other.p_min);
        self.p_max = self.p_max.max(other.p_max);
        Ok(())
    }
}

/// The deterministic aggregate statistics of one fleet run.
///
/// Every field is a pure function of `(analysis, tech, chips, profile,
/// seed, budget, wafer)` — bit-identical at any thread count and for any
/// shard layout. The bench binary and the consistency tests compare the
/// compact-JSON rendering of this struct across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregates {
    /// Fleet size.
    pub chips: u64,
    /// Mission profile name.
    pub profile: String,
    /// Root RNG seed.
    pub seed: u64,
    /// Failure-probability budget.
    pub budget: f64,
    /// Mission duration (seconds).
    pub mission_s: f64,
    /// Chips whose mission-end failure probability exceeds the budget.
    pub exceed_budget: u64,
    /// Chips already over budget at the bracket's low edge (10² s).
    pub censored_low: u64,
    /// Chips that never reach the budget inside the bracket (10¹⁶ s).
    pub censored_high: u64,
    /// Block names, in chip block order.
    pub block_names: Vec<String>,
    /// Per-block count of chips for which that block is the weakest.
    pub weakest_counts: Vec<u64>,
    /// The quantile levels the distributions are reported at.
    pub quantile_levels: Vec<f64>,
    /// Budget-lifetime quantiles (seconds) at `quantile_levels`.
    pub lifetime_quantiles_s: Vec<f64>,
    /// Mission-end failure-probability quantiles at `quantile_levels`.
    pub p_mission_quantiles: Vec<f64>,
    /// Mission-average FIT quantiles (failures per 10⁹ chip-hours)
    /// at `quantile_levels` — `p_q · 10⁹ / mission_hours`.
    pub fit_quantiles: Vec<f64>,
    /// Exact minimum budget-lifetime (seconds).
    pub lifetime_min_s: f64,
    /// Exact maximum budget-lifetime (seconds).
    pub lifetime_max_s: f64,
    /// Exact minimum mission-end failure probability.
    pub p_mission_min: f64,
    /// Exact maximum mission-end failure probability.
    pub p_mission_max: f64,
}

impl_json_struct!(FleetAggregates {
    chips,
    profile,
    seed,
    budget,
    mission_s,
    exceed_budget,
    censored_low,
    censored_high,
    block_names,
    weakest_counts,
    quantile_levels,
    lifetime_quantiles_s,
    p_mission_quantiles,
    fit_quantiles,
    lifetime_min_s,
    lifetime_max_s,
    p_mission_min,
    p_mission_max,
});

/// A fleet run's full report: the deterministic aggregates plus run
/// metadata (thread/shard layout, wall time, throughput) that is *not*
/// part of the bit-compared surface.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The deterministic aggregate statistics.
    pub aggregates: FleetAggregates,
    /// Resolved worker-thread count.
    pub threads: u64,
    /// Resolved shard count.
    pub shards: u64,
    /// SIMD lane dispatch active during the run, e.g.
    /// `"8 lanes (avx512f, default)"` (see [`simd::dispatch_label`]).
    pub lanes: String,
    /// Chips evaluated per lane tile (1 = the libm expressions, the
    /// historical scalar bits), for every composition.
    pub lane_width: u64,
    /// Lane tiles evaluated, `⌈chips / lane_width⌉`: the last one is a
    /// masked partial tile when `lane_width` does not divide the fleet.
    pub lane_tiles: u64,
    /// Wall time of the evaluation+reduction (seconds).
    pub run_s: f64,
    /// Headline throughput: chips evaluated per second.
    pub chips_per_s: f64,
    /// Workspaces allocated during the run — the constant-memory check:
    /// must never exceed the shard count.
    pub workspaces_created: u64,
}

impl_json_struct!(FleetReport {
    aggregates,
    threads,
    shards,
    lanes,
    lane_width,
    lane_tiles,
    run_s,
    chips_per_s,
    workspaces_created,
});

/// Compiles the per-block mission constants.
fn compile_fleet<'a>(
    analysis: &'a ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
) -> Result<CompiledFleet<'a>> {
    config.validate()?;
    let spec = analysis.spec();
    let mission_s = config.profile.mission_s();
    // Resolve and validate every phase against this design up front so a
    // bad profile/design pairing fails with a named phase, not NaNs.
    for phase_spec in config.profile.phases() {
        phase_spec.resolve(spec).validate(spec.n_blocks())?;
    }
    let blocks: Vec<BlockMission> = analysis
        .blocks()
        .iter()
        .map(|block| {
            let t_spec = block.spec().temperature_k();
            let mut xi = 0.0;
            let mut t_weighted = 0.0;
            for phase in config.profile.phases() {
                let t_k = t_spec + phase.dt_k;
                xi += phase.duration_s / tech.alpha(t_k, phase.vdd_v);
                t_weighted += phase.duration_s * t_k;
            }
            let b_eff = tech.b(t_weighted / mission_s);
            let gamma_mission = xi.ln();
            BlockMission {
                coeff_mission: GCoefficients::from_gamma(gamma_mission, b_eff),
                ln_rate: (xi / mission_s).ln(),
                b_eff,
                area: block.spec().area(),
            }
        })
        .collect();
    let block_params = blocks
        .iter()
        .flat_map(|m| {
            [
                m.ln_rate,
                m.area,
                simd::failure_poly_threshold(m.area),
                simd::failure_sat_threshold(m.area),
            ]
        })
        .collect();
    let groups = if config.spares > 0 {
        let c = Composition::uniform_spares(analysis.n_blocks(), config.spares);
        c.validate(analysis.n_blocks())?;
        c.group_layout(analysis.n_blocks())
    } else {
        analysis.composition().group_layout(analysis.n_blocks())
    };
    Ok(CompiledFleet {
        analysis,
        blocks,
        block_params,
        base_rng: Xoshiro256pp::seed_from_u64(config.seed),
        wafer: config.wafer,
        budget: config.budget,
        ln1p_neg_budget: (-config.budget).ln_1p(),
        groups,
    })
}

/// Updates the running weakest-block argmax with block `j`'s mission-end
/// failure probability `p`, one lane at a time.
///
/// The rule, made explicit: the strict `>` against a `−∞` seed means
/// **ties resolve to the lowest block index** (a later equal `p` never
/// displaces the incumbent), and a **NaN `p` never wins** (every
/// comparison against NaN is false) — so a chip whose blocks all produce
/// NaN deterministically reports block 0, the seed incumbent.
#[inline]
fn update_weakest(j: usize, p: f64, weakest_block: &mut usize, weakest_p: &mut f64) {
    if p > *weakest_p {
        *weakest_p = p;
        *weakest_block = j;
    }
}

impl CompiledFleet<'_> {
    /// Evaluates the chip range `[chip_lo, chip_hi)` in lane tiles of
    /// `width`, feeding each outcome to `sink` in chip order and
    /// returning the number of lane tiles evaluated. Callers pass
    /// work-tile ranges aligned to [`TILE_CHIPS`], so a partial tile
    /// only ever occurs at the fleet end.
    fn evaluate(
        &self,
        width: LaneWidth,
        chip_lo: u64,
        chip_hi: u64,
        ws: &mut Workspace<'_>,
        sink: &mut impl FnMut(ChipOutcome),
    ) -> u64 {
        match width {
            LaneWidth::W1 => self.evaluate_lanes::<1>(chip_lo, chip_hi, ws, sink),
            LaneWidth::W4 => self.evaluate_lanes::<4>(chip_lo, chip_hi, ws, sink),
            LaneWidth::W8 => self.evaluate_lanes::<8>(chip_lo, chip_hi, ws, sink),
        }
    }

    /// [`CompiledFleet::evaluate`] at lane width `W`, composing through
    /// the fleet's fold.
    fn evaluate_lanes<const W: usize>(
        &self,
        chip_lo: u64,
        chip_hi: u64,
        ws: &mut Workspace<'_>,
        sink: &mut impl FnMut(ChipOutcome),
    ) -> u64 {
        match &self.groups {
            None => {
                let mut fold = WeakestLinkFold::<W>::default();
                self.evaluate_tiles(chip_lo, chip_hi, &mut ws.tile, &mut fold, sink)
            }
            Some(layout) => {
                let mut fold = GroupFold::<W>::new(layout, &mut ws.fold_rows);
                self.evaluate_tiles(chip_lo, chip_hi, &mut ws.tile, &mut fold, sink)
            }
        }
    }

    /// The lane-tile loop of [`CompiledFleet::evaluate_lanes`].
    fn evaluate_tiles<const W: usize>(
        &self,
        chip_lo: u64,
        chip_hi: u64,
        tile: &mut TileScratch<'_>,
        fold: &mut impl LaneFold<W>,
        sink: &mut impl FnMut(ChipOutcome),
    ) -> u64 {
        let mut tiles = 0;
        for chip0 in (chip_lo..chip_hi).step_by(W) {
            // Lanes past `chip_hi` evaluate the chips that follow it and
            // are masked out here.
            let live = (chip_hi - chip0).min(W as u64) as usize;
            for &outcome in &self.evaluate_tile::<W>(chip0, tile, fold)[..live] {
                sink(outcome);
            }
            tiles += 1;
        }
        tiles
    }

    /// Evaluates the `W` chips `chip0..chip0 + W` as one lane tile:
    /// per-lane scalar sampling (the substream draw-order contract), then
    /// `(u, v)` dot products, mission-end failure terms composed through
    /// `fold`, and the lane-parallel masked lifetime bisection across all
    /// `W` chips at once. Every stage is elementwise per lane, so each
    /// outcome is a function of its own chip and `W` alone.
    fn evaluate_tile<const W: usize>(
        &self,
        chip0: u64,
        ws: &mut TileScratch<'_>,
        fold: &mut impl LaneFold<W>,
    ) -> [ChipOutcome; W] {
        // Draw order is part of the contract (the consistency test
        // replays it): wafer position first, then the principal
        // components. Sampling stays per-lane scalar — the polar method
        // is rejection-based, so each lane consumes exactly its chip's
        // substream draws. The shard sampler is reset per chip —
        // draw-for-draw identical to a fresh sampler.
        let mut offsets = [0.0; W];
        for (w, offset) in offsets.iter_mut().enumerate() {
            let mut rng = self.base_rng.substream(chip0 + w as u64);
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            *offset = self.wafer.offset(x, y);
            ws.sampler.reset();
            ws.sampler.sample_z_lane(&mut rng, &mut ws.z_tile, W, w);
        }

        // Mission end: (u, v) lane dots per block, the failure term for
        // all W chips, the composition fold and a per-lane weakest block.
        let mut u = [0.0; W];
        let mut v = [0.0; W];
        let mut args = [0.0; W];
        let mut p = [0.0; W];
        let mut weakest_p = [f64::NEG_INFINITY; W];
        let mut weakest_block = [0usize; W];
        fold.clear();
        for (j, (block, mission)) in self.analysis.blocks().iter().zip(&self.blocks).enumerate() {
            block
                .moments()
                .uv_given_z_tile::<W>(&ws.z_tile, &mut u, &mut v);
            for w in 0..W {
                // A uniform die-mean thickness shift moves the block mean
                // one-for-one and leaves the within-block spread unchanged.
                let uw = u[w] + offsets[w];
                ws.bu[j * W + w] = mission.b_eff * uw;
                ws.bbv[j * W + w] = mission.b_eff * mission.b_eff * v[w];
                args[w] = mission.coeff_mission.s1 * uw + mission.coeff_mission.s2 * v[w];
            }
            if W == 1 {
                // Width 1 is the libm expression by construction, not by
                // the global dispatch the slice kernel reads.
                p[0] = conditional_block_failure(mission.area, args[0].exp());
            } else {
                simd::failure_term_slice(&args, mission.area, &mut p);
            }
            fold.absorb(j, &p);
            for w in 0..W {
                // The argmax applies [`update_weakest`]'s documented
                // tie/NaN rule.
                update_weakest(j, p[w], &mut weakest_block[w], &mut weakest_p[w]);
            }
        }
        let ln_mission = fold.ln_survival();

        // Budget lifetime under steady mission repetition:
        // γ_j(t) = ln_rate_j + ln t, so on x = ln t the chip log-survival
        // ln S(x) is monotone decreasing (more time never helps any
        // block); bisect for ln S(x) = ln(1 − budget). Censoring masks
        // come from the bracket edges: a low-censored lane never reports
        // high censoring.
        let n = self.blocks.len() * W;
        let (bu, bbv) = (&ws.bu[..n], &ws.bbv[..n]);
        let target = self.ln1p_neg_budget;
        let lo_edge = [LIFE_BRACKET_S.0.ln(); W];
        let hi_edge = [LIFE_BRACKET_S.1.ln(); W];
        let mut s = [0.0; W];
        simd::ln_surv_tile_fold(&lo_edge, &self.block_params, bu, bbv, fold, &mut s);
        let censored_low = simd::lane_le::<W>(&s, target);
        simd::ln_surv_tile_fold(&hi_edge, &self.block_params, bu, bbv, fold, &mut s);
        let reaches_budget = simd::lane_le::<W>(&s, target);
        let mut active = [false; W];
        let mut censored_high = [false; W];
        for w in 0..W {
            censored_high[w] = !censored_low[w] && !reaches_budget[w];
            active[w] = !censored_low[w] && !censored_high[w];
        }

        // Lane-parallel masked bisection: every step evaluates ln S for
        // all W chips at once; per-lane selects move each lane's own
        // bracket. Censored lanes ride along harmlessly (their bracket
        // converges somewhere, but the censored edge wins below); if the
        // whole tile is censored the 52 steps are skipped. The whole
        // solve is one dispatched kernel call so the brackets stay in
        // registers across steps — see [`simd::ln_surv_bisect_fold`].
        let mut lo = lo_edge;
        let mut hi = hi_edge;
        if simd::lane_any::<W>(&active) {
            simd::ln_surv_bisect_fold(
                &mut lo,
                &mut hi,
                target,
                LIFE_BISECTIONS,
                &self.block_params,
                bu,
                bbv,
                fold,
            );
        }

        let mut out = [ChipOutcome {
            p_mission: 0.0,
            weakest_block: 0,
            lifetime_s: 0.0,
            censored_low: false,
            censored_high: false,
        }; W];
        for w in 0..W {
            let lifetime_s = if censored_low[w] {
                LIFE_BRACKET_S.0
            } else if censored_high[w] {
                LIFE_BRACKET_S.1
            } else {
                (0.5 * (lo[w] + hi[w])).exp()
            };
            out[w] = ChipOutcome {
                p_mission: -ln_mission[w].exp_m1(),
                weakest_block: weakest_block[w],
                lifetime_s,
                censored_low: censored_low[w],
                censored_high: censored_high[w],
            };
        }
        out
    }
}

/// Runs a fleet: samples `config.chips` chip instances, evaluates each
/// against the mission profile, and reduces to [`FleetAggregates`]
/// through the sharded constant-memory reducer.
///
/// # Errors
///
/// Returns [`Error::Spec`] for a degenerate configuration and propagates
/// profile-resolution failures.
pub fn run_fleet(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
) -> Result<FleetReport> {
    let start = std::time::Instant::now();
    let compiled = compile_fleet(analysis, tech, config)?;
    let threads = resolve_threads(config.threads);
    let n_tiles = config.chips.div_ceil(TILE_CHIPS);
    let shards = config
        .shards
        .unwrap_or(threads)
        .max(1)
        .min(n_tiles.max(1) as usize);
    let n_blocks = analysis.n_blocks();
    let workspaces_created = AtomicU64::new(0);
    let lane_tiles = AtomicU64::new(0);
    // Captured once so every shard runs the same dispatch even if a
    // concurrent force_width lands mid-run.
    let width = simd::active_width();

    // Shard s owns the contiguous tile range [s·T/S, (s+1)·T/S).
    let shard_results: Vec<Result<ShardAcc>> = run_indexed(shards, threads, |s| {
        let mut acc = ShardAcc::new(n_blocks)?;
        let mut ws = Workspace::new(&compiled, width.lanes(), &workspaces_created);
        let tile_lo = n_tiles * s as u64 / shards as u64;
        let tile_hi = n_tiles * (s as u64 + 1) / shards as u64;
        let mut shard_lane_tiles = 0;
        for tile in tile_lo..tile_hi {
            let chip_lo = tile * TILE_CHIPS;
            let chip_hi = (chip_lo + TILE_CHIPS).min(config.chips);
            shard_lane_tiles +=
                compiled.evaluate(width, chip_lo, chip_hi, &mut ws, &mut |outcome| {
                    acc.absorb(&outcome, compiled.budget);
                });
        }
        lane_tiles.fetch_add(shard_lane_tiles, Ordering::Relaxed);
        Ok(acc)
    });

    // Serial merge in shard order. (Order is irrelevant for the result —
    // the accumulators are exact-commutative — but keeping it fixed makes
    // that claim testable rather than assumed.)
    let mut merged = ShardAcc::new(n_blocks)?;
    for shard in shard_results {
        merged.merge(&shard?)?;
    }
    debug_assert_eq!(merged.chips, config.chips);

    let mission_s = config.profile.mission_s();
    let mission_hours = config.profile.mission_hours();
    let mut lifetime_quantiles_s = Vec::with_capacity(QUANTILE_LEVELS.len());
    let mut p_mission_quantiles = Vec::with_capacity(QUANTILE_LEVELS.len());
    let mut fit_quantiles = Vec::with_capacity(QUANTILE_LEVELS.len());
    for &q in &QUANTILE_LEVELS {
        lifetime_quantiles_s.push(10f64.powf(merged.life_sketch.quantile(q).map_err(Error::from)?));
        let p_q = 10f64.powf(merged.p_sketch.quantile(q).map_err(Error::from)?);
        p_mission_quantiles.push(p_q);
        fit_quantiles.push(p_q * 1e9 / mission_hours);
    }
    let aggregates = FleetAggregates {
        chips: config.chips,
        profile: config.profile.name().to_string(),
        seed: config.seed,
        budget: config.budget,
        mission_s,
        exceed_budget: merged.exceed_budget,
        censored_low: merged.censored_low,
        censored_high: merged.censored_high,
        block_names: analysis
            .spec()
            .blocks()
            .iter()
            .map(|b| b.name().to_string())
            .collect(),
        weakest_counts: merged.weakest,
        quantile_levels: QUANTILE_LEVELS.to_vec(),
        lifetime_quantiles_s,
        p_mission_quantiles,
        fit_quantiles,
        lifetime_min_s: merged.lifetime_min_s,
        lifetime_max_s: merged.lifetime_max_s,
        p_mission_min: merged.p_min,
        p_mission_max: merged.p_max,
    };
    let run_s = start.elapsed().as_secs_f64();
    Ok(FleetReport {
        aggregates,
        threads: threads as u64,
        shards: shards as u64,
        lanes: simd::dispatch_label(),
        lane_width: width.lanes() as u64,
        lane_tiles: lane_tiles.load(Ordering::Relaxed),
        run_s,
        chips_per_s: config.chips as f64 / run_s.max(1e-12),
        workspaces_created: workspaces_created.load(Ordering::Relaxed),
    })
}

/// Evaluates the first `n` chips of the fleet serially, returning each
/// chip's individual outcome — the cross-check surface for the
/// consistency tests (`tests/fleet_consistency.rs`), which re-derive the
/// same outcomes through the public per-instance APIs.
///
/// Chips route through the same lane tiles as [`run_fleet`] at the
/// active width, and a chip's outcome depends only on the chip and the
/// width, so every outcome matches the streaming run bit for bit.
///
/// # Errors
///
/// Same failure modes as [`run_fleet`].
pub fn chip_outcomes(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
    n: u64,
) -> Result<Vec<ChipOutcome>> {
    let compiled = compile_fleet(analysis, tech, config)?;
    let width = simd::active_width();
    let mut ws = Workspace::new(&compiled, width.lanes(), &AtomicU64::new(0));
    let n = n.min(config.chips);
    let mut outcomes = Vec::with_capacity(n as usize);
    compiled.evaluate(width, 0, n, &mut ws, &mut |outcome| outcomes.push(outcome));
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AnalysisSpec;
    use crate::Session;
    use statobd_core::{BlockSpec, ChipSpec};
    use statobd_num::json;

    fn tiny_analysis() -> Session {
        let mut chip = ChipSpec::new();
        chip.add_block(
            BlockSpec::new("core", 4e4, 40_000, 368.15, 1.2, vec![(0, 0.5), (6, 0.5)]).unwrap(),
        )
        .unwrap();
        chip.add_block(BlockSpec::new("cache", 6e4, 60_000, 341.15, 1.2, vec![(12, 1.0)]).unwrap())
            .unwrap();
        Session::build(&AnalysisSpec::chip(chip).with_grid_side(5)).unwrap()
    }

    fn small_config(chips: u64) -> FleetConfig {
        FleetConfig {
            chips,
            threads: Some(1),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        for (mutate, needle) in [
            (
                Box::new(|c: &mut FleetConfig| c.chips = 0) as Box<dyn Fn(&mut FleetConfig)>,
                "chips",
            ),
            (Box::new(|c: &mut FleetConfig| c.shards = Some(0)), "shards"),
            (
                Box::new(|c: &mut FleetConfig| c.threads = Some(0)),
                "threads",
            ),
            (Box::new(|c: &mut FleetConfig| c.budget = 0.0), "budget"),
            (Box::new(|c: &mut FleetConfig| c.budget = 1.5), "budget"),
        ] {
            let mut bad = FleetConfig::default();
            mutate(&mut bad);
            let err = bad.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in: {err}");
        }
        assert!(FleetConfig::default().validate().is_ok());
    }

    #[test]
    fn weakest_block_rule_ties_low_and_nan_never_wins() {
        // Ties resolve to the lowest index: an equal later p loses.
        let (mut block, mut p) = (0usize, f64::NEG_INFINITY);
        for (j, pj) in [0.3, 0.5, 0.5, 0.1].iter().enumerate() {
            update_weakest(j, *pj, &mut block, &mut p);
        }
        assert_eq!((block, p), (1, 0.5));
        // NaN never displaces a real value...
        update_weakest(4, f64::NAN, &mut block, &mut p);
        assert_eq!((block, p), (1, 0.5));
        // ...and an all-NaN chip deterministically reports block 0.
        let (mut block, mut p) = (0usize, f64::NEG_INFINITY);
        for j in 0..3 {
            update_weakest(j, f64::NAN, &mut block, &mut p);
        }
        assert_eq!(block, 0);
        // Zero still beats the −∞ seed.
        update_weakest(2, 0.0, &mut block, &mut p);
        assert_eq!((block, p), (2, 0.0));
    }

    #[test]
    fn spares_lower_failure_and_stay_layout_independent() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let base = FleetConfig {
            chips: 1200,
            ..FleetConfig::default()
        };
        let wl = run_fleet(
            session.analysis(),
            &tech,
            &FleetConfig {
                threads: Some(1),
                ..base.clone()
            },
        )
        .unwrap();
        let mut reference: Option<String> = None;
        for (threads, shards) in [(1, None), (2, Some(1)), (2, Some(3)), (4, Some(7))] {
            let config = FleetConfig {
                spares: 1,
                threads: Some(threads),
                shards,
                ..base.clone()
            };
            let report = run_fleet(session.analysis(), &tech, &config).unwrap();
            assert!(report.workspaces_created <= report.shards);
            let rendered = json::to_string(&report.aggregates);
            match &reference {
                None => reference = Some(rendered),
                Some(r) => assert_eq!(r, &rendered, "threads={threads} shards={shards:?} diverged"),
            }
            // One spare over two blocks: the chip survives any single
            // block failure, so every outcome weakly improves.
            let a = &report.aggregates;
            assert!(a.p_mission_max <= wl.aggregates.p_mission_max);
            assert!(a.exceed_budget <= wl.aggregates.exceed_budget);
            assert!(a.lifetime_min_s >= wl.aggregates.lifetime_min_s);
        }
        // And the improvement is real, not a no-op: the median mission
        // probability collapses (both blocks must fail).
        let grouped: FleetAggregates = json::from_str(reference.as_deref().unwrap()).unwrap();
        assert!(
            grouped.p_mission_quantiles[3] < 1e-3 * wl.aggregates.p_mission_quantiles[3],
            "grouped median {:.3e} vs weakest-link median {:.3e}",
            grouped.p_mission_quantiles[3],
            wl.aggregates.p_mission_quantiles[3]
        );
        // An over-budget spare spec is a structured error.
        assert!(run_fleet(
            session.analysis(),
            &tech,
            &FleetConfig { spares: 2, ..base }
        )
        .is_err());
    }

    #[test]
    fn aggregates_are_shard_and_thread_independent() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let mut reference: Option<String> = None;
        for (threads, shards) in [(1, None), (2, Some(1)), (2, Some(3)), (4, Some(7))] {
            let config = FleetConfig {
                chips: 1500,
                threads: Some(threads),
                shards,
                ..FleetConfig::default()
            };
            let report = run_fleet(session.analysis(), &tech, &config).unwrap();
            assert!(report.workspaces_created <= report.shards);
            let rendered = json::to_string(&report.aggregates);
            match &reference {
                None => reference = Some(rendered),
                Some(r) => assert_eq!(r, &rendered, "threads={threads} shards={shards:?} diverged"),
            }
        }
    }

    #[test]
    fn aggregates_account_for_every_chip() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let config = small_config(777);
        let report = run_fleet(session.analysis(), &tech, &config).unwrap();
        let a = &report.aggregates;
        assert_eq!(a.weakest_counts.iter().sum::<u64>(), a.chips);
        assert_eq!(a.chips, 777);
        assert!(a.lifetime_min_s <= a.lifetime_quantiles_s[0]);
        assert!(a.lifetime_max_s >= *a.lifetime_quantiles_s.last().unwrap());
        assert!(
            a.lifetime_quantiles_s.windows(2).all(|w| w[0] <= w[1]),
            "lifetime quantiles must be monotone: {:?}",
            a.lifetime_quantiles_s
        );
        assert!(
            a.p_mission_quantiles.windows(2).all(|w| w[0] <= w[1]),
            "p quantiles must be monotone"
        );
        // FIT is a fixed monotone transform of the p quantiles.
        for (fit, p) in a.fit_quantiles.iter().zip(&a.p_mission_quantiles) {
            assert!((fit - p * 1e9 / (a.mission_s / 3600.0)).abs() <= fit.abs() * 1e-12);
        }
    }

    #[test]
    fn outcomes_match_streaming_aggregates() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let config = small_config(256);
        let outcomes = chip_outcomes(session.analysis(), &tech, &config, 256).unwrap();
        let report = run_fleet(session.analysis(), &tech, &config).unwrap();
        let exceed = outcomes
            .iter()
            .filter(|o| o.p_mission > config.budget)
            .count() as u64;
        assert_eq!(report.aggregates.exceed_budget, exceed);
        let p_max = outcomes
            .iter()
            .map(|o| o.p_mission)
            .fold(f64::MIN, f64::max);
        assert_eq!(report.aggregates.p_mission_max.to_bits(), p_max.to_bits());
    }

    #[test]
    fn harsher_missions_fail_more() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let field = run_fleet(
            session.analysis(),
            &tech,
            &FleetConfig {
                profile: MissionProfile::datacenter(),
                ..small_config(400)
            },
        )
        .unwrap();
        let stress = run_fleet(
            session.analysis(),
            &tech,
            &FleetConfig {
                profile: MissionProfile::htol(),
                ..small_config(400)
            },
        )
        .unwrap();
        // HTOL packs hot, high-voltage stress into 1000 h: the median
        // budget-lifetime under repeated stress must be far shorter than
        // under the datacenter duty cycle.
        assert!(
            stress.aggregates.lifetime_quantiles_s[3] < field.aggregates.lifetime_quantiles_s[3],
            "HTOL {:?} vs datacenter {:?}",
            stress.aggregates.lifetime_quantiles_s[3],
            field.aggregates.lifetime_quantiles_s[3]
        );
    }

    /// The ragged tail below one lane width runs as a masked partial
    /// tile: it is counted, and its spare lanes never reach the sink —
    /// for either composition, at every width.
    #[test]
    fn tiled_range_counts_tiles_and_covers_ragged_tail() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        for spares in [0, 1] {
            let config = FleetConfig {
                spares,
                ..small_config(19)
            };
            let compiled = compile_fleet(session.analysis(), &tech, &config).unwrap();
            for (width, want_tiles) in [(LaneWidth::W1, 19), (LaneWidth::W4, 5), (LaneWidth::W8, 3)]
            {
                let mut ws = Workspace::new(&compiled, width.lanes(), &AtomicU64::new(0));
                let mut seen = 0u64;
                let tiles = compiled.evaluate(width, 0, 19, &mut ws, &mut |_| seen += 1);
                assert_eq!(tiles, want_tiles, "{width:?} spares={spares}: lane tiles");
                assert_eq!(seen, 19, "every chip reported exactly once");
            }
        }
    }

    #[test]
    fn report_json_round_trips() {
        let session = tiny_analysis();
        let tech = session.spec().tech.tech();
        let report = run_fleet(session.analysis(), &tech, &small_config(64)).unwrap();
        let back: FleetReport = json::from_str(&json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
    }
}
