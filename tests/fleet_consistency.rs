//! Fleet-simulation consistency: the sharded streaming reducer must agree
//! chip-by-chip with a scalar oracle built on the public per-instance
//! APIs, and its aggregates must be bit-identical across every thread
//! count, and so every shard layout — at every lane width and for every
//! composition, with width 1 reproducing the oracle bit for bit and the
//! wider lane tiles agreeing with it within the 1e-12 cross-path gate.
//!
//! Lane-width forcing is process-global, so every test serializes on one
//! mutex and restores the environment default before releasing.

use statobd::core::{conditional_block_failure, Composition, GCoefficients, RedundancyGroup};
use statobd::device::{ClosedFormTech, ObdTechnology};
use statobd::manager::MissionProfile;
use statobd::num::json;
use statobd::num::rng::{Rng, Xoshiro256pp};
use statobd::num::root::Illinois;
use statobd::num::simd::{self, LaneWidth};
use statobd::variation::FieldSampler;
use statobd::{
    chip_outcomes, run_fleet, AnalysisSpec, ChipOutcome, FleetConfig, Session,
    FLEET_LIFE_BRACKET_S, FLEET_LIFE_LN_T_TOL,
};
use std::sync::{Mutex, MutexGuard};

static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_guard() -> MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII width override holding the global lock; restores the
/// environment-derived default on drop even on panic.
struct ForcedWidth(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForcedWidth {
    fn new(w: LaneWidth) -> Self {
        let guard = width_guard();
        simd::force_width(Some(w));
        ForcedWidth(guard)
    }

    fn set(&self, w: LaneWidth) {
        simd::force_width(Some(w));
    }
}

impl Drop for ForcedWidth {
    fn drop(&mut self) {
        simd::force_width(None);
    }
}

const WIDTHS: [LaneWidth; 3] = [LaneWidth::W1, LaneWidth::W4, LaneWidth::W8];

fn session() -> Session {
    let mut chip = statobd::core::ChipSpec::new();
    chip.add_block(
        statobd::core::BlockSpec::new(
            "core",
            50_000.0,
            50_000,
            368.15,
            1.2,
            vec![(0, 0.4), (7, 0.6)],
        )
        .unwrap(),
    )
    .unwrap();
    chip.add_block(
        statobd::core::BlockSpec::new("cache", 90_000.0, 90_000, 341.15, 1.2, vec![(20, 1.0)])
            .unwrap(),
    )
    .unwrap();
    Session::build(&AnalysisSpec::chip(chip).with_grid_side(6)).unwrap()
}

/// Three blocks in two redundancy groups: `core` and `io` share one
/// spare, `cache` stands alone without one.
fn two_group_session() -> Session {
    let mut chip = statobd::core::ChipSpec::new();
    for (name, area, t_k, grid) in [
        ("core", 50_000.0, 368.15, 0),
        ("cache", 90_000.0, 341.15, 20),
        ("io", 30_000.0, 355.15, 30),
    ] {
        chip.add_block(
            statobd::core::BlockSpec::new(name, area, area as u64, t_k, 1.2, vec![(grid, 1.0)])
                .unwrap(),
        )
        .unwrap();
    }
    let groups = Composition::Groups(vec![
        RedundancyGroup::new(vec![0, 2], 1),
        RedundancyGroup::new(vec![1], 0),
    ]);
    Session::build(
        &AnalysisSpec::chip(chip)
            .with_grid_side(6)
            .with_composition(groups),
    )
    .unwrap()
}

fn config(chips: u64) -> FleetConfig {
    FleetConfig {
        chips,
        profile: MissionProfile::datacenter(),
        seed: 2718,
        threads: Some(1),
        ..FleetConfig::default()
    }
}

fn spares_config(chips: u64) -> FleetConfig {
    FleetConfig {
        spares: 1,
        ..config(chips)
    }
}

/// Per-block mission constants derived independently of the fleet module,
/// straight from the public technology and profile APIs.
struct RefBlock {
    coeff_mission: GCoefficients,
    ln_rate: f64,
    b_eff: f64,
    area: f64,
}

/// The scalar fleet evaluator that preceded the lane-tiled kernel,
/// moved onto public APIs: the oracle every width and composition is
/// checked against. Its lifetime step runs the public Illinois
/// root-finder at one lane on the oracle's own libm ln S (see
/// [`ScalarOracle::solve_lifetime`]), and a 200-step bisection of the
/// same ln S checks that solve.
struct ScalarOracle<'a> {
    session: &'a Session,
    blocks: Vec<RefBlock>,
    composition: Composition,
    base: Xoshiro256pp,
    config: FleetConfig,
}

/// One chip through the oracle: its outcome, plus the per-block
/// `(b·u, b²·v)` the lifetime check re-evaluates ln S from.
struct OracleChip {
    outcome: ChipOutcome,
    bu: Vec<f64>,
    bbv: Vec<f64>,
}

impl<'a> ScalarOracle<'a> {
    fn new(session: &'a Session, config: &FleetConfig) -> Self {
        let tech = ClosedFormTech::nominal_45nm();
        let mission_s = config.profile.mission_s();
        let blocks = session
            .analysis()
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
                RefBlock {
                    coeff_mission: GCoefficients::from_gamma(xi.ln(), b_eff),
                    ln_rate: (xi / mission_s).ln(),
                    b_eff,
                    area: block.spec().area(),
                }
            })
            .collect();
        let n_blocks = session.analysis().n_blocks();
        let composition = if config.spares > 0 {
            Composition::uniform_spares(n_blocks, config.spares)
        } else {
            session.analysis().composition().clone()
        };
        ScalarOracle {
            session,
            blocks,
            composition,
            base: Xoshiro256pp::seed_from_u64(config.seed),
            config: config.clone(),
        }
    }

    /// The budget lifetime `x = ln t` of a chip whose ln S straddles
    /// `target` on `(lo, hi)`: the Illinois solve on the Weibull-plot
    /// residual `ln(−ln S) − ln(−target)`, at the fleet's tolerance.
    fn solve_lifetime(&self, lo: f64, hi: f64, target: f64, bu: &[f64], bbv: &[f64]) -> f64 {
        let residual = |s: f64| (-s).ln() - (-target).ln();
        let (s_lo, s_hi) = (self.ln_survival(lo, bu, bbv), self.ln_survival(hi, bu, bbv));
        let mut solver = Illinois::<1>::new(
            [lo],
            [residual(s_lo)],
            [hi],
            [residual(s_hi)],
            [true],
            FLEET_LIFE_LN_T_TOL,
        );
        while !solver.done() {
            let [x] = solver.probe();
            solver.update(&[residual(self.ln_survival(x, bu, bbv))]);
        }
        solver.roots()[0]
    }

    /// The reference the root-finder is checked against: 200 bisection
    /// steps of `ln S(x) ≤ target` on `(lo, hi)`, far past f64
    /// resolution.
    fn bisect_lifetime(&self, lo: f64, hi: f64, target: f64, bu: &[f64], bbv: &[f64]) -> f64 {
        let (mut lo, mut hi) = (lo, hi);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.ln_survival(mid, bu, bbv) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The chip log-survival at log-age `x = ln t` under steady mission
    /// repetition, composed through the chip's composition.
    fn ln_survival(&self, x: f64, bu: &[f64], bbv: &[f64]) -> f64 {
        let mut acc = self.composition.accumulator(self.blocks.len());
        for (j, mission) in self.blocks.iter().enumerate() {
            let gamma = mission.ln_rate + x;
            let ln_g = gamma * bu[j] + 0.5 * gamma * gamma * bbv[j];
            let p = -(-mission.area * ln_g.exp()).exp_m1();
            acc.absorb(j, p);
        }
        acc.ln_survival()
    }

    fn evaluate_chip(&self, chip: u64) -> OracleChip {
        let analysis = self.session.analysis();
        let model = analysis.model();
        let mut sampler = FieldSampler::new(model);
        let mut z = vec![0.0; model.n_components()];
        let mut bu = vec![0.0; self.blocks.len()];
        let mut bbv = vec![0.0; self.blocks.len()];
        let mut chip_acc = self.composition.accumulator(self.blocks.len());

        let mut rng = self.base.substream(chip);
        // Draw order is part of the contract: wafer position first, then
        // the principal components.
        let x = rng.gen_range(0.0..1.0);
        let y = rng.gen_range(0.0..1.0);
        let offset = self.config.wafer.offset(x, y);
        sampler.reset();
        sampler.sample_z_into(&mut rng, &mut z);

        chip_acc.reset();
        let mut weakest_block = 0usize;
        let mut weakest_p = f64::NEG_INFINITY;
        for (j, (block, mission)) in analysis.blocks().iter().zip(&self.blocks).enumerate() {
            let (u, v) = block.moments().uv_given_z(&z);
            // A uniform die-mean thickness shift moves the block mean
            // one-for-one and leaves the within-block spread unchanged.
            let u = u + offset;
            bu[j] = mission.b_eff * u;
            bbv[j] = mission.b_eff * mission.b_eff * v;
            let p = conditional_block_failure(mission.area, mission.coeff_mission.g(u, v));
            chip_acc.absorb(j, p);
            if p > weakest_p {
                weakest_p = p;
                weakest_block = j;
            }
        }
        let p_mission = chip_acc.failure_probability();

        // Budget lifetime: solve ln S(x) = ln(1 − budget) on x = ln t.
        let target = (-self.config.budget).ln_1p();
        let ln_surv = |x: f64| self.ln_survival(x, &bu, &bbv);
        let (lo, hi) = (FLEET_LIFE_BRACKET_S.0.ln(), FLEET_LIFE_BRACKET_S.1.ln());
        let mut censored_low = false;
        let mut censored_high = false;
        let lifetime_s = if ln_surv(lo) <= target {
            censored_low = true;
            FLEET_LIFE_BRACKET_S.0
        } else if ln_surv(hi) > target {
            censored_high = true;
            FLEET_LIFE_BRACKET_S.1
        } else {
            self.solve_lifetime(lo, hi, target, &bu, &bbv).exp()
        };
        OracleChip {
            outcome: ChipOutcome {
                p_mission,
                weakest_block,
                lifetime_s,
                censored_low,
                censored_high,
            },
            bu,
            bbv,
        }
    }
}

/// Checks `chips` fleet outcomes at the active width against the
/// oracle: mission-end probability within `1e-12` relative, exact
/// weakest-block index and censoring flags, censored lifetimes pinned to
/// the bracket edges, and uncensored lifetimes sitting on the budget
/// within `1e-9` through the oracle's composed ln S. Returns the
/// outcomes for further checks.
fn check_outcomes_against_oracle(
    session: &Session,
    config: &FleetConfig,
    chips: u64,
    what: &str,
) -> Vec<ChipOutcome> {
    let tech = ClosedFormTech::nominal_45nm();
    let outcomes = chip_outcomes(session.analysis(), &tech, config, chips).unwrap();
    assert_eq!(outcomes.len(), chips as usize);
    let oracle = ScalarOracle::new(session, config);
    let target = (-config.budget).ln_1p();
    let mut censored_seen = 0;
    for (chip, got) in outcomes.iter().enumerate() {
        let want = oracle.evaluate_chip(chip as u64);
        let p_ref = want.outcome.p_mission;
        let rel = ((got.p_mission - p_ref) / p_ref.max(f64::MIN_POSITIVE)).abs();
        assert!(
            rel <= 1e-12,
            "{what} chip {chip}: fleet P {} vs oracle {p_ref} (rel {rel:.3e})",
            got.p_mission
        );
        assert_eq!(
            (got.weakest_block, got.censored_low, got.censored_high),
            (
                want.outcome.weakest_block,
                want.outcome.censored_low,
                want.outcome.censored_high
            ),
            "{what} chip {chip}: weakest block and censoring"
        );
        if got.censored_low || got.censored_high {
            censored_seen += 1;
            let edge = if got.censored_low {
                FLEET_LIFE_BRACKET_S.0
            } else {
                FLEET_LIFE_BRACKET_S.1
            };
            assert_eq!(got.lifetime_s, edge, "{what} chip {chip}: censored edge");
        } else {
            let at_life = oracle.ln_survival(got.lifetime_s.ln(), &want.bu, &want.bbv);
            let rel = ((at_life - target) / target).abs();
            assert!(
                rel <= 1e-9,
                "{what} chip {chip}: ln-survival at reported lifetime {} deviates {rel:.3e}",
                got.lifetime_s
            );
        }
    }
    // The tiny fleet exercises the uncensored path at minimum; censoring
    // is allowed but must have been consistent when it appeared.
    assert!(
        censored_seen < chips,
        "{what}: every chip censored — solve is broken"
    );
    outcomes
}

/// The per-chip cross-check at every lane width for the weakest-link
/// fleet: 67 chips leave a ragged 3-chip masked tile at width 8 and
/// width 4.
#[test]
fn fleet_matches_direct_per_chip_evaluation_at_every_width() {
    let session = session();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        check_outcomes_against_oracle(&session, &config(67), 67, &format!("{w:?}"));
    }
}

/// The grouped fleet — one spare over both blocks — against the
/// composed oracle at every width, ragged tail included. A spare can
/// only lower the failure probability.
#[test]
fn spares_outcomes_match_the_scalar_oracle_at_every_width() {
    let session = session();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        let grouped =
            check_outcomes_against_oracle(&session, &spares_config(67), 67, &format!("{w:?}"));
        let tech = ClosedFormTech::nominal_45nm();
        let weakest_link = chip_outcomes(session.analysis(), &tech, &config(67), 67).unwrap();
        for (chip, (g, wl)) in grouped.iter().zip(&weakest_link).enumerate() {
            assert!(
                g.p_mission <= wl.p_mission,
                "{w:?} chip {chip}: a spare cannot raise the failure probability"
            );
        }
    }
}

/// Two redundancy groups on three blocks — one with a spare, one
/// without — carried by the analysis's own composition.
#[test]
fn two_group_composition_matches_the_scalar_oracle_at_every_width() {
    let session = two_group_session();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        check_outcomes_against_oracle(&session, &config(67), 67, &format!("{w:?}"));
    }
}

/// Width 1 is the libm lane kernel: bit for bit the retired scalar
/// evaluator, for weakest-link, a uniform spare and two groups.
#[test]
fn width_1_outcomes_are_bit_identical_to_the_scalar_oracle() {
    let _width = ForcedWidth::new(LaneWidth::W1);
    let tech = ClosedFormTech::nominal_45nm();
    let (plain, grouped) = (session(), two_group_session());
    for (what, session, config) in [
        ("weakest-link", &plain, config(37)),
        ("spares", &plain, spares_config(37)),
        ("two groups", &grouped, config(37)),
    ] {
        let outcomes = chip_outcomes(session.analysis(), &tech, &config, 37).unwrap();
        let oracle = ScalarOracle::new(session, &config);
        for (chip, got) in outcomes.iter().enumerate() {
            let want = oracle.evaluate_chip(chip as u64).outcome;
            assert_eq!(
                (got.p_mission.to_bits(), got.lifetime_s.to_bits()),
                (want.p_mission.to_bits(), want.lifetime_s.to_bits()),
                "{what} chip {chip}: {got:?} vs {want:?}"
            );
            assert_eq!(got, &want, "{what} chip {chip}");
        }
    }
}

/// The oracle's root-finder lands on the root: every uncensored oracle
/// lifetime is within 1e-12 relative of a 200-step bisection of the same
/// ln S, for weakest-link, a uniform spare and two groups.
#[test]
fn oracle_lifetimes_match_a_200_step_bisection() {
    let (plain, grouped) = (session(), two_group_session());
    let (lo, hi) = (FLEET_LIFE_BRACKET_S.0.ln(), FLEET_LIFE_BRACKET_S.1.ln());
    for (what, session, config) in [
        ("weakest-link", &plain, config(37)),
        ("spares", &plain, spares_config(37)),
        ("two groups", &grouped, config(37)),
    ] {
        let oracle = ScalarOracle::new(session, &config);
        let target = (-config.budget).ln_1p();
        let mut solved = 0;
        for chip in 0..37 {
            let c = oracle.evaluate_chip(chip);
            if c.outcome.censored_low || c.outcome.censored_high {
                continue;
            }
            let exact = oracle.bisect_lifetime(lo, hi, target, &c.bu, &c.bbv).exp();
            let rel = ((c.outcome.lifetime_s - exact) / exact).abs();
            assert!(
                rel <= 1e-12,
                "{what} chip {chip}: lifetime {} vs bisection {exact} (rel {rel:.3e})",
                c.outcome.lifetime_s
            );
            solved += 1;
        }
        assert!(solved > 0, "{what}: no uncensored chip to check");
    }
}

/// Every lane tile of the test fleets solves its lifetimes in at most 8
/// probes of the chip log-survival, at every width and composition.
#[test]
fn lifetime_solves_take_at_most_8_probes_per_tile() {
    let tech = ClosedFormTech::nominal_45nm();
    let (plain, grouped) = (session(), two_group_session());
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        for (what, session, config) in [
            ("weakest-link", &plain, config(300)),
            ("spares", &plain, spares_config(300)),
            ("two groups", &grouped, config(300)),
        ] {
            let report = run_fleet(session.analysis(), &tech, &config).unwrap();
            assert!(
                (1..=8).contains(&report.max_solve_steps),
                "{w:?} {what}: {} probes in one tile",
                report.max_solve_steps
            );
        }
    }
}

/// `chip_outcomes` over a prefix that ends mid lane tile reproduces the
/// streaming run's chips bit for bit (a chip's bits depend only on the
/// chip and the width, never on its tile neighbours), and the streaming
/// aggregates are exactly those of the per-chip outcomes.
#[test]
fn streaming_aggregates_match_per_chip_outcomes() {
    let session = session();
    let tech = ClosedFormTech::nominal_45nm();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        for config in [config(300), spares_config(300)] {
            let what = format!("{w:?} spares={}", config.spares);
            let outcomes = chip_outcomes(session.analysis(), &tech, &config, 300).unwrap();
            let prefix = chip_outcomes(session.analysis(), &tech, &config, 67).unwrap();
            for (chip, (a, b)) in prefix.iter().zip(&outcomes).enumerate() {
                assert_eq!(
                    (a.p_mission.to_bits(), a.lifetime_s.to_bits()),
                    (b.p_mission.to_bits(), b.lifetime_s.to_bits()),
                    "{what} chip {chip}: ragged prefix vs full run"
                );
                assert_eq!(a, b, "{what} chip {chip}");
            }
            let report = run_fleet(session.analysis(), &tech, &config).unwrap();
            let a = &report.aggregates;
            let exceed = outcomes
                .iter()
                .filter(|o| o.p_mission > config.budget)
                .count() as u64;
            assert_eq!(a.exceed_budget, exceed, "{what}");
            assert_eq!(
                a.censored_low,
                outcomes.iter().filter(|o| o.censored_low).count() as u64
            );
            assert_eq!(
                a.censored_high,
                outcomes.iter().filter(|o| o.censored_high).count() as u64
            );
            for (j, count) in a.weakest_counts.iter().enumerate() {
                let direct = outcomes.iter().filter(|o| o.weakest_block == j).count() as u64;
                assert_eq!(*count, direct, "{what}: weakest count of block {j}");
            }
            let fold = |init: f64, f: fn(f64, f64) -> f64, g: fn(&ChipOutcome) -> f64| {
                outcomes.iter().map(g).fold(init, f)
            };
            assert_eq!(
                a.lifetime_min_s.to_bits(),
                fold(f64::MAX, f64::min, |o| o.lifetime_s).to_bits()
            );
            assert_eq!(
                a.lifetime_max_s.to_bits(),
                fold(f64::MIN, f64::max, |o| o.lifetime_s).to_bits()
            );
            assert_eq!(
                a.p_mission_max.to_bits(),
                fold(f64::MIN, f64::max, |o| o.p_mission).to_bits()
            );

            // Quantiles come from histogram counts: each reported
            // quantile must sit within one (log-space) bin of the exact
            // order statistic.
            let mut lives: Vec<f64> = outcomes.iter().map(|o| o.lifetime_s.log10()).collect();
            lives.sort_by(f64::total_cmp);
            for (q, est) in a.quantile_levels.iter().zip(&a.lifetime_quantiles_s) {
                let idx = ((q * lives.len() as f64) as usize).min(lives.len() - 1);
                let exact = lives[idx];
                assert!(
                    (est.log10() - exact).abs() <= 0.1,
                    "{what} lifetime q={q}: {est} vs exact 10^{exact}"
                );
            }
        }
    }
}

/// At every fixed lane width, and for both compositions, the aggregates
/// must be bit-identical at 1, 2, 3 and 7 threads — one shard each, so
/// the shard boundaries move over the four tiles of a 1,000-chip fleet
/// (the last one ragged) — because every chip's bits are a pure function
/// of the chip and the width.
#[test]
fn aggregates_are_bit_identical_across_threads_and_shards_at_every_width() {
    let session = session();
    let tech = ClosedFormTech::nominal_45nm();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        for spares in [0, 1] {
            let mut reference: Option<String> = None;
            for threads in [1usize, 2, 3, 7] {
                let config = FleetConfig {
                    threads: Some(threads),
                    spares,
                    ..config(1000)
                };
                let report = run_fleet(session.analysis(), &tech, &config).unwrap();
                assert_eq!(report.shards, threads.min(4) as u64);
                assert!(
                    report.workspaces_created <= report.shards,
                    "{w:?} threads={threads}: allocated per chip"
                );
                assert_eq!(report.lane_width, w.lanes() as u64);
                let rendered = json::to_string(&report.aggregates);
                match &reference {
                    None => reference = Some(rendered),
                    Some(r) => assert_eq!(
                        r, &rendered,
                        "aggregates diverged at {w:?} spares={spares} threads={threads}"
                    ),
                }
            }
        }
    }
}

/// Cross-width agreement on the aggregate surface, for both
/// compositions: float statistics within 1e-12 relative, discrete counts
/// exactly equal (this seed puts no chip within the gate of the budget
/// threshold), and the lane-tile count covering the fleet once.
#[test]
fn aggregates_agree_across_lane_widths() {
    let session = session();
    let tech = ClosedFormTech::nominal_45nm();
    let guard = ForcedWidth::new(LaneWidth::W1);
    for spares in [0, 1] {
        // 1003 chips: a ragged 3-chip masked tile at both width 4 and
        // width 8.
        let config = FleetConfig {
            spares,
            ..config(1003)
        };
        let report_at = |w: LaneWidth| {
            guard.set(w);
            run_fleet(session.analysis(), &tech, &config).unwrap()
        };
        let r1 = report_at(LaneWidth::W1);
        let r4 = report_at(LaneWidth::W4);
        let r8 = report_at(LaneWidth::W8);
        assert_eq!(r1.lane_tiles, 1003, "width 1 runs one lane per chip");
        assert_eq!(r4.lane_tiles, 1003u64.div_ceil(4));
        assert_eq!(r8.lane_tiles, 1003u64.div_ceil(8));
        // Widths 4 and 8 run the same elementwise cores.
        assert_eq!(
            json::to_string(&r4.aggregates),
            json::to_string(&r8.aggregates),
            "spares={spares}: widths 4 and 8 must agree bitwise"
        );

        let rel = |a: f64, b: f64| {
            if a == b {
                0.0
            } else {
                (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
            }
        };
        let (a, b) = (&r8.aggregates, &r1.aggregates);
        assert_eq!(a.exceed_budget, b.exceed_budget);
        assert_eq!(a.censored_low, b.censored_low);
        assert_eq!(a.censored_high, b.censored_high);
        assert_eq!(a.weakest_counts, b.weakest_counts);
        for (x, y) in [
            (a.lifetime_min_s, b.lifetime_min_s),
            (a.lifetime_max_s, b.lifetime_max_s),
            (a.p_mission_min, b.p_mission_min),
            (a.p_mission_max, b.p_mission_max),
        ] {
            assert!(
                rel(x, y) <= 1e-12,
                "spares={spares}: extreme {x:e} vs {y:e}"
            );
        }
        for (x, y) in a.lifetime_quantiles_s.iter().zip(&b.lifetime_quantiles_s) {
            assert!(rel(*x, *y) <= 1e-9, "lifetime quantile {x:e} vs {y:e}");
        }
        for (x, y) in a.p_mission_quantiles.iter().zip(&b.p_mission_quantiles) {
            assert!(rel(*x, *y) <= 1e-9, "p quantile {x:e} vs {y:e}");
        }
    }
}

/// Two blocks with identical geometry, environment and grid weights tie
/// exactly in mission-end failure probability on every chip; the
/// weakest-block argmax must resolve to the lowest index at every width.
#[test]
fn weakest_block_ties_resolve_to_lowest_index_at_every_width() {
    let mut chip = statobd::core::ChipSpec::new();
    for name in ["twin_a", "twin_b"] {
        chip.add_block(
            statobd::core::BlockSpec::new(name, 70_000.0, 70_000, 358.15, 1.2, vec![(8, 1.0)])
                .unwrap(),
        )
        .unwrap();
    }
    let session = Session::build(&AnalysisSpec::chip(chip).with_grid_side(6)).unwrap();
    let tech = ClosedFormTech::nominal_45nm();
    let config = config(96);
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in WIDTHS {
        guard.set(w);
        let report = run_fleet(session.analysis(), &tech, &config).unwrap();
        assert_eq!(
            report.aggregates.weakest_counts,
            vec![96, 0],
            "{w:?}: tie must resolve to block 0 on every chip"
        );
    }
}
