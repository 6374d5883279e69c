//! `fleet_paper` and `fleet_spares`: `run_fleet` on the paper's C3 design.
//!
//! `fleet_paper` runs C3 at the default 25 × 25 grid (625 components)
//! through the datacenter profile, weakest-link, with a budget that puts
//! about one chip in eight over it — so the exceedance path is exercised.
//! With 625 components per chip, sampling and the (u, v) projection
//! dominate, and the composition DP is never entered.
//!
//! `fleet_spares` runs C3 at a 10 × 10 grid through the 4-phase
//! automotive profile with one spare over all blocks (In-Field Logic
//! Repair): grouped runs take the scalar path and the Poisson-binomial DP,
//! while sampling 100 components is cheap.
//!
//! The timed loop cycles through [`CALL_SEEDS`] fleet runs of a fixed chip
//! count, each with its own seed drawn from the workload seed, until the
//! time budget is spent. Each call thus repeats identical work many times
//! over the run; its fastest repetition is the one least slowed by other
//! tenants of the host. A traced run replays a chip prefix through the
//! public per-chip functions the fleet loop calls.

use crate::design::{traced_build, traced_engine};
use crate::stats::median;
use crate::trace::Recorder;
use crate::Measured;
use statobd::circuits::Benchmark;
use statobd::core::{conditional_block_failure, ChipAnalysis, Composition, GCoefficients};
use statobd::device::{ClosedFormTech, ObdTechnology};
use statobd::manager::MissionProfile;
use statobd::num::json;
use statobd::num::rng::{Rng, Xoshiro256pp};
use statobd::num::simd::{self, LaneWidth};
use statobd::variation::{FieldSampler, SystematicPattern};
use statobd::{
    chip_outcomes, run_fleet, AnalysisSpec, ChipOutcome, EngineKind, FleetConfig, Session,
    FLEET_LIFE_BRACKET_S,
};
use std::time::Instant;

/// Bisection steps of the fleet's per-chip lifetime solve.
const LIFE_BISECTIONS: u32 = 52;

/// Distinct fleet runs the timed loop cycles through.
const CALL_SEEDS: usize = 8;

/// Workload size and scenario.
#[derive(Debug, Clone)]
pub struct Params {
    pub seconds: f64,
    pub grid_side: usize,
    pub thermal_side: Option<usize>,
    pub profile: MissionProfile,
    pub budget: f64,
    pub spares: usize,
    /// Chips per `run_fleet` call.
    pub call_chips: u64,
    /// Cold builds whose median is `setup_s`.
    pub setup_reps: usize,
    /// Leading chips checked against a direct replay (a multiple of 8).
    pub check_chips: u64,
    /// Leading chips replayed stage by stage in a traced run (a multiple
    /// of 8).
    pub replay_chips: u64,
}

impl Params {
    pub fn paper(seconds: f64) -> Self {
        Params {
            seconds,
            grid_side: 25,
            thermal_side: None,
            profile: MissionProfile::datacenter(),
            budget: 5e-5,
            spares: 0,
            call_chips: 256,
            setup_reps: 5,
            check_chips: 512,
            replay_chips: 20_000,
        }
    }

    pub fn spares(seconds: f64) -> Self {
        Params {
            grid_side: 10,
            profile: MissionProfile::automotive(),
            budget: 5e-10,
            spares: 1,
            call_chips: 512,
            setup_reps: 15,
            ..Params::paper(seconds)
        }
    }

    /// The smoke-test size of either scenario.
    pub fn tiny(mut self) -> Self {
        self.seconds = 0.0;
        self.grid_side = 5;
        self.thermal_side = Some(16);
        self.call_chips = 256;
        self.setup_reps = 1;
        self.check_chips = 64;
        self.replay_chips = 64;
        self
    }

    fn spec(&self) -> AnalysisSpec {
        let mut spec = AnalysisSpec::benchmark(Benchmark::C3)
            .with_grid_side(self.grid_side)
            .with_engine(EngineKind::StClosed)
            .with_threads(Some(1));
        if let Some(n) = self.thermal_side {
            spec.thermal.nx = n;
            spec.thermal.ny = n;
        }
        spec
    }

    fn config(&self, seed: u64) -> FleetConfig {
        FleetConfig {
            chips: self.call_chips,
            profile: self.profile.clone(),
            seed,
            budget: self.budget,
            threads: Some(1),
            spares: self.spares,
            ..FleetConfig::default()
        }
    }
}

pub fn run(p: &Params, seed: u64, trace: bool) -> Result<Measured, String> {
    let spec = p.spec();
    let mut m = Measured::default();
    // A traced run replays each piece of work stage by stage right after
    // its untraced twin, so both see the same load on the host.
    let mut rec = trace.then(Recorder::new);
    let mut traced_chips_s = 0.0;
    let session = set_up(&spec, &mut m, rec.as_mut())?;
    let analysis = session.analysis();
    let tech = session.spec().tech.tech();

    // The remaining set-ups are spread evenly over the timed loop, so the
    // samples do not all share one burst of load from another tenant.
    let build_every_s = p.seconds / p.setup_reps.max(1) as f64;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let configs: Vec<FleetConfig> = (0..CALL_SEEDS).map(|_| p.config(rng.next_u64())).collect();
    // Per call: the fastest repetition, and the aggregates every repetition
    // must reproduce bit for bit.
    let mut best_s = [f64::INFINITY; CALL_SEEDS];
    let mut aggregates: [Option<String>; CALL_SEEDS] = Default::default();
    let (mut calls, mut chips, mut exceed, mut replayed) = (0, 0, 0, 0);
    let mut lane_width = 0;
    let mut outcomes = Vec::new();
    let start = Instant::now();
    while calls < CALL_SEEDS || start.elapsed().as_secs_f64() < p.seconds {
        if m.setup_s.len() < p.setup_reps
            && start.elapsed().as_secs_f64() >= build_every_s * m.setup_s.len() as f64
        {
            set_up(&spec, &mut m, rec.as_mut())?;
        }
        let k = calls % CALL_SEEDS;
        let config = &configs[k];
        calls += 1;
        m.attempted += config.chips;
        let t0 = Instant::now();
        let report = run_fleet(analysis, &tech, config)
            .map_err(|e| format!("run_fleet seed {}: {e}", config.seed))?;
        let this_s = t0.elapsed().as_secs_f64();
        best_s[k] = best_s[k].min(this_s);
        lane_width = report.lane_width;
        let a = &report.aggregates;
        let rendered = json::to_string(a);
        match &aggregates[k] {
            Some(first) if *first != rendered => m.fail(format!(
                "seed {}: a repeated run changed its aggregates",
                config.seed
            )),
            Some(_) => {}
            None => {
                if !(a.exceed_budget > 0 && a.exceed_budget < a.chips) {
                    m.fail(format!(
                        "seed {}: {} of {} chips over budget; the exceedance path must be \
                         exercised",
                        config.seed, a.exceed_budget, a.chips
                    ));
                }
                aggregates[k] = Some(rendered);
            }
        }
        exceed += a.exceed_budget;
        chips += a.chips;
        if let Some(rec) = rec.as_mut().filter(|_| replayed < p.replay_chips) {
            let n = p.call_chips.min(p.replay_chips - replayed);
            outcomes.clear();
            Replay::new(analysis, &tech, config).run(rec, 0..n, &mut outcomes);
            traced_chips_s += this_s * n as f64 / p.call_chips as f64;
            replayed += n;
        }
    }
    while m.setup_s.len() < p.setup_reps {
        set_up(&spec, &mut m, rec.as_mut())?;
    }
    let config = &configs[0];
    // Every call simulates the same number of chips: the latency is the
    // median over the calls of their fastest repetition, the throughput
    // all the calls' chips over the sum of those.
    m.latency_ms = median(&best_s) * 1e3;
    m.ops_per_s = (CALL_SEEDS as u64 * p.call_chips) as f64 / best_s.iter().sum::<f64>();
    m.info("fleet_calls", calls as f64, "count");
    m.info("fleet_lane_width", lane_width as f64, "count");
    m.extra("fleet.exceed_frac", exceed as f64 / chips as f64);
    m.extra(
        "variation.components",
        analysis.model().n_components() as f64,
    );

    // The fleet_consistency contract: the leading chips of the first run's
    // seed must match a direct replay through the public per-chip functions.
    let check = FleetConfig {
        chips: p.check_chips,
        ..config.clone()
    };
    outcomes.clear();
    Replay::new(analysis, &tech, &check).run(
        &mut Recorder::new(),
        0..p.check_chips,
        &mut outcomes,
    );
    match chip_outcomes(analysis, &tech, &check, p.check_chips) {
        Ok(fleet)
            if (fleet.len() as u64, outcomes.len() as u64) != (p.check_chips, p.check_chips) =>
        {
            m.fail(format!(
                "seed {}: {} fleet and {} replayed outcomes for {} chips",
                config.seed,
                fleet.len(),
                outcomes.len(),
                p.check_chips
            ))
        }
        Ok(fleet) => {
            for (chip, (got, want)) in fleet.iter().zip(&outcomes).enumerate() {
                if let Err(e) = same_outcome(got, want) {
                    m.fail(format!("seed {} chip {chip}: {e}", config.seed));
                }
            }
        }
        Err(e) => m.fail(format!("chip_outcomes: {e}")),
    }

    if let Some(rec) = rec {
        // Tracing must not change a single aggregate bit.
        match run_fleet(analysis, &tech, config) {
            Ok(r) if Some(json::to_string(&r.aggregates)) == aggregates[0] => {}
            Ok(_) => m.fail("aggregates changed after the traced replay".to_string()),
            Err(e) => m.fail(format!("traced run_fleet: {e}")),
        }
        let setup_s = m.setup_s.iter().sum();
        m.set_trace(rec, setup_s, traced_chips_s);
    }
    Ok(m)
}

/// One cold build of the fleet spec, timed as a set-up sample; a traced
/// run rebuilds it stage by stage right after.
fn set_up(
    spec: &AnalysisSpec,
    m: &mut Measured,
    rec: Option<&mut Recorder>,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let session = Session::build(spec).map_err(|e| format!("build: {e}"))?;
    m.setup_s.push(t0.elapsed().as_secs_f64());
    if let Some(rec) = rec {
        let id = m.setup_s.len() as u64;
        traced_build(rec, id, spec)
            .and_then(|analysis| traced_engine(rec, id, spec, &analysis).map(drop))
            .map_err(|e| format!("traced build: {e}"))?;
    }
    Ok(session)
}

/// Outcomes agree: probability within 1e-12 relative, lifetime within
/// 1e-9, the weakest block and the censoring flags exactly.
fn same_outcome(got: &ChipOutcome, want: &ChipOutcome) -> Result<(), String> {
    let rel = |a: f64, b: f64| {
        if a == b {
            0.0
        } else {
            ((a - b) / b.abs().max(f64::MIN_POSITIVE)).abs()
        }
    };
    if rel(got.p_mission, want.p_mission) <= 1e-12
        && rel(got.lifetime_s, want.lifetime_s) <= 1e-9
        && (got.weakest_block, got.censored_low, got.censored_high)
            == (want.weakest_block, want.censored_low, want.censored_high)
    {
        Ok(())
    } else {
        Err(format!("fleet {got:?} vs replay {want:?}"))
    }
}

/// Per-block mission constants, derived from the public technology and
/// profile APIs.
struct Mission {
    coeff: GCoefficients,
    ln_rate: f64,
    b_eff: f64,
    area: f64,
}

/// A direct replay of the fleet's per-chip evaluation.
struct Replay<'a> {
    analysis: &'a ChipAnalysis,
    blocks: Vec<Mission>,
    /// `(ln_rate, area, x_small, x_sat)` per block, the lane kernels'
    /// parameter layout.
    block_params: Vec<f64>,
    base: Xoshiro256pp,
    wafer: SystematicPattern,
    /// `ln(1 − budget)`, the log-survival the lifetime solve seeks.
    target: f64,
    composition: Composition,
}

impl<'a> Replay<'a> {
    fn new(analysis: &'a ChipAnalysis, tech: &ClosedFormTech, config: &FleetConfig) -> Self {
        let mission_s = config.profile.mission_s();
        let blocks: Vec<Mission> = analysis
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
                Mission {
                    coeff: GCoefficients::from_gamma(xi.ln(), b_eff),
                    ln_rate: (xi / mission_s).ln(),
                    b_eff,
                    area: block.spec().area(),
                }
            })
            .collect();
        let block_params = blocks
            .iter()
            .flat_map(|b| {
                [
                    b.ln_rate,
                    b.area,
                    simd::failure_poly_threshold(b.area),
                    simd::failure_sat_threshold(b.area),
                ]
            })
            .collect();
        let composition = if config.spares > 0 {
            Composition::uniform_spares(analysis.n_blocks(), config.spares)
        } else {
            analysis.composition().clone()
        };
        Replay {
            analysis,
            blocks,
            block_params,
            base: Xoshiro256pp::seed_from_u64(config.seed),
            wafer: config.wafer,
            target: (-config.budget).ln_1p(),
            composition,
        }
    }

    /// Replays `chips` (lane-tile aligned) through the route the fleet
    /// takes: lane tiles for weakest-link at widths 4 and 8, the scalar
    /// path otherwise.
    fn run(&self, rec: &mut Recorder, chips: std::ops::Range<u64>, out: &mut Vec<ChipOutcome>) {
        let width = if self.composition.is_weakest_link() {
            simd::active_width()
        } else {
            LaneWidth::W1
        };
        match width {
            LaneWidth::W1 => self.scalar(rec, chips, out),
            LaneWidth::W4 => self.tiled::<4>(rec, chips, out),
            LaneWidth::W8 => self.tiled::<8>(rec, chips, out),
        }
    }

    /// Draws chip `chip`'s wafer offset; the components follow from the
    /// same substream.
    fn offset(&self, rng: &mut Xoshiro256pp) -> f64 {
        let x = rng.gen_range(0.0..1.0);
        let y = rng.gen_range(0.0..1.0);
        self.wafer.offset(x, y)
    }

    fn scalar(&self, rec: &mut Recorder, chips: std::ops::Range<u64>, out: &mut Vec<ChipOutcome>) {
        let model = self.analysis.model();
        let n = self.blocks.len();
        let mut sampler = FieldSampler::new(model);
        let mut z = vec![0.0; model.n_components()];
        let (mut u, mut v) = (vec![0.0; n], vec![0.0; n]);
        let (mut bu, mut bbv, mut ps) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut acc = self.composition.accumulator(n);
        for chip in chips {
            let offset = rec.span("variation.sample", chip, |_| {
                let mut rng = self.base.substream(chip);
                let offset = self.offset(&mut rng);
                sampler.reset();
                sampler.sample_z_into(&mut rng, &mut z);
                offset
            });
            rec.span("core.uv", chip, |_| {
                for (j, (block, b)) in self.analysis.blocks().iter().zip(&self.blocks).enumerate() {
                    let (uj, vj) = block.moments().uv_given_z(&z);
                    u[j] = uj + offset;
                    v[j] = vj;
                    bu[j] = b.b_eff * u[j];
                    bbv[j] = b.b_eff * b.b_eff * vj;
                }
            });
            rec.span("core.failure_term", chip, |_| {
                for (j, b) in self.blocks.iter().enumerate() {
                    ps[j] = conditional_block_failure(b.area, b.coeff.g(u[j], v[j]));
                }
            });
            let (p_mission, weakest_block) = rec.span("core.compose", chip, |_| {
                acc.reset();
                let mut weakest = (0, f64::NEG_INFINITY);
                for (j, &p) in ps.iter().enumerate() {
                    acc.absorb(j, p);
                    if p > weakest.1 {
                        weakest = (j, p);
                    }
                }
                (acc.failure_probability(), weakest.0)
            });
            // ln S(x) on x = ln t: the failure terms, then the composition,
            // as laps of one span (one clock read per stage, 54 steps).
            let (lifetime_s, censored_low, censored_high) = rec.span("bench.bisect", chip, |rec| {
                let mut ln_surv = |x: f64| {
                    for (j, b) in self.blocks.iter().enumerate() {
                        let gamma = b.ln_rate + x;
                        let ln_g = gamma * bu[j] + 0.5 * gamma * gamma * bbv[j];
                        ps[j] = conditional_block_failure(b.area, ln_g.exp());
                    }
                    rec.lap("core.failure_term");
                    acc.reset();
                    for (j, &p) in ps.iter().enumerate() {
                        acc.absorb(j, p);
                    }
                    let s = acc.ln_survival();
                    rec.lap("core.compose");
                    s
                };
                let (mut lo, mut hi) = (FLEET_LIFE_BRACKET_S.0.ln(), FLEET_LIFE_BRACKET_S.1.ln());
                if ln_surv(lo) <= self.target {
                    (FLEET_LIFE_BRACKET_S.0, true, false)
                } else if ln_surv(hi) > self.target {
                    (FLEET_LIFE_BRACKET_S.1, false, true)
                } else {
                    for _ in 0..LIFE_BISECTIONS {
                        let mid = 0.5 * (lo + hi);
                        if ln_surv(mid) <= self.target {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    ((0.5 * (lo + hi)).exp(), false, false)
                }
            });
            out.push(ChipOutcome {
                p_mission,
                weakest_block,
                lifetime_s,
                censored_low,
                censored_high,
            });
        }
    }

    fn tiled<const W: usize>(
        &self,
        rec: &mut Recorder,
        chips: std::ops::Range<u64>,
        out: &mut Vec<ChipOutcome>,
    ) {
        let model = self.analysis.model();
        let n = self.blocks.len();
        let mut sampler = FieldSampler::new(model);
        let mut z_tile = vec![0.0; model.n_components() * W];
        let (mut bu, mut bbv) = (vec![0.0; n * W], vec![0.0; n * W]);
        let (mut args, mut ps) = (vec![0.0; n * W], vec![0.0; n * W]);
        assert_eq!(
            (chips.end - chips.start) % W as u64,
            0,
            "replay whole lane tiles"
        );
        for chip0 in chips.step_by(W) {
            let offsets = rec.span("variation.sample", chip0, |_| {
                let mut offsets = [0.0; W];
                for (w, offset) in offsets.iter_mut().enumerate() {
                    let mut rng = self.base.substream(chip0 + w as u64);
                    *offset = self.offset(&mut rng);
                    sampler.reset();
                    sampler.sample_z_lane(&mut rng, &mut z_tile, W, w);
                }
                offsets
            });
            rec.span("core.uv", chip0, |_| {
                let (mut u, mut v) = ([0.0; W], [0.0; W]);
                for (j, (block, b)) in self.analysis.blocks().iter().zip(&self.blocks).enumerate() {
                    block
                        .moments()
                        .uv_given_z_tile::<W>(&z_tile, &mut u, &mut v);
                    for w in 0..W {
                        let uw = u[w] + offsets[w];
                        bu[j * W + w] = b.b_eff * uw;
                        bbv[j * W + w] = b.b_eff * b.b_eff * v[w];
                        args[j * W + w] = b.coeff.s1 * uw + b.coeff.s2 * v[w];
                    }
                }
            });
            rec.span("simd.failure_term", chip0, |_| {
                for (j, b) in self.blocks.iter().enumerate() {
                    let lanes = j * W..(j + 1) * W;
                    simd::failure_term_slice(&args[lanes.clone()], b.area, &mut ps[lanes]);
                }
            });
            let (ln_survival, weakest) = rec.span("core.compose", chip0, |_| {
                let mut ln_survival = [0.0; W];
                let mut weakest = [(0, f64::NEG_INFINITY); W];
                for j in 0..n {
                    for w in 0..W {
                        let p = ps[j * W + w];
                        ln_survival[w] += (-p.clamp(0.0, 1.0)).ln_1p();
                        if p > weakest[w].1 {
                            weakest[w] = (j, p);
                        }
                    }
                }
                (ln_survival, weakest)
            });
            let (lo, hi, censored_low, censored_high) = rec.span("simd.bisect", chip0, |_| {
                let lo_edge = [FLEET_LIFE_BRACKET_S.0.ln(); W];
                let hi_edge = [FLEET_LIFE_BRACKET_S.1.ln(); W];
                let mut s = [0.0; W];
                simd::ln_surv_tile_sum::<W>(&lo_edge, &self.block_params, &bu, &bbv, &mut s);
                let censored_low = simd::lane_le::<W>(&s, self.target);
                simd::ln_surv_tile_sum::<W>(&hi_edge, &self.block_params, &bu, &bbv, &mut s);
                let reaches = simd::lane_le::<W>(&s, self.target);
                let censored_high: [bool; W] =
                    std::array::from_fn(|w| !censored_low[w] && !reaches[w]);
                let active: [bool; W] =
                    std::array::from_fn(|w| !censored_low[w] && !censored_high[w]);
                let (mut lo, mut hi) = (lo_edge, hi_edge);
                if simd::lane_any::<W>(&active) {
                    simd::ln_surv_bisect::<W>(
                        &mut lo,
                        &mut hi,
                        self.target,
                        LIFE_BISECTIONS,
                        &self.block_params,
                        &bu,
                        &bbv,
                    );
                }
                (lo, hi, censored_low, censored_high)
            });
            for w in 0..W {
                let lifetime_s = if censored_low[w] {
                    FLEET_LIFE_BRACKET_S.0
                } else if censored_high[w] {
                    FLEET_LIFE_BRACKET_S.1
                } else {
                    (0.5 * (lo[w] + hi[w])).exp()
                };
                out.push(ChipOutcome {
                    p_mission: -ln_survival[w].exp_m1(),
                    weakest_block: weakest[w].0,
                    lifetime_s,
                    censored_low: censored_low[w],
                    censored_high: censored_high[w],
                });
            }
        }
    }
}
