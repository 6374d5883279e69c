//! Cross-engine consistency: the analytic engines and the Monte-Carlo
//! reference must agree on a small design, the parallel Monte-Carlo
//! fan-out must be bit-identical at any thread count, and the
//! redundancy-aware composition must hold across every engine — the
//! log-space Poisson-binomial against brute-force subset enumeration,
//! and spare-less groups bit-identical to the weakest-link default.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{
    build_engine, solve_lifetime, ChipAnalysis, Composition, EngineKind, EngineSpec,
    MonteCarloConfig, RedundancyGroup, ReliabilityEngine, Result, StFast, StMcConfig,
};
use statobd::device::ClosedFormTech;
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder, VarianceBudget};

fn bench_analysis(benchmark: Benchmark) -> ChipAnalysis {
    let built = build_design(
        benchmark,
        &DesignConfig {
            correlation_grid_side: 8,
            ..DesignConfig::default()
        },
    )
    .expect("design");
    let model = ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(statobd::core::params::NOMINAL_THICKNESS_NM)
        .budget(
            VarianceBudget::itrs_2008(statobd::core::params::NOMINAL_THICKNESS_NM).expect("budget"),
        )
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .build()
        .expect("model");
    ChipAnalysis::new(built.spec.clone(), model, &ClosedFormTech::nominal_45nm())
        .expect("characterization")
}

fn c1_analysis() -> ChipAnalysis {
    bench_analysis(Benchmark::C1)
}

/// The paper's analytic engines and the per-device Monte-Carlo reference
/// must produce lifetimes within tolerance of each other on C1.
#[test]
fn st_fast_st_closed_and_monte_carlo_agree_on_c1() {
    let analysis = c1_analysis();
    let bracket = (1e5, 1e13);
    let target = 1e-4;

    let solve = |spec: &EngineSpec| {
        let mut engine = build_engine(&analysis, spec).expect("engine");
        solve_lifetime(engine.as_mut(), target, bracket).expect("lifetime")
    };

    let t_fast = solve(&EngineKind::StFast.default_spec());
    let t_closed = solve(&EngineKind::StClosed.default_spec());
    let t_mc = solve(&EngineSpec::MonteCarlo(MonteCarloConfig {
        n_chips: 2000,
        ..Default::default()
    }));

    // The two analytic evaluations of the same model agree tightly.
    let closed_err = ((t_closed - t_fast) / t_fast).abs();
    assert!(
        closed_err < 0.05,
        "st_closed vs st_fast: {t_closed:e} vs {t_fast:e} ({:.1} %)",
        100.0 * closed_err
    );

    // The Monte-Carlo reference carries sampling noise in the thickness
    // draws; the paper reports single-digit-percent errors for st_fast.
    let mc_err = ((t_fast - t_mc) / t_mc).abs();
    assert!(
        mc_err < 0.15,
        "st_fast vs MC: {t_fast:e} vs {t_mc:e} ({:.1} %)",
        100.0 * mc_err
    );
}

/// An engine wrapper counting the calls a solve makes and the widest
/// one.
struct Counting<'e> {
    inner: &'e mut dyn ReliabilityEngine,
    calls: usize,
    widest: usize,
}

impl ReliabilityEngine for Counting<'_> {
    fn name(&self) -> &str {
        "counting"
    }
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        self.calls += 1;
        self.widest = self.widest.max(ts.len());
        self.inner.failure_probabilities(ts)
    }
}

/// `P(t) = target` by 200 bisection steps on `ln t` (stopping early once
/// the midpoint no longer splits the bracket): the reference the
/// lifetime solver is checked against.
fn bisect_lifetime(engine: &mut dyn ReliabilityEngine, target: f64, bracket: (f64, f64)) -> f64 {
    let (mut lo, mut hi) = (bracket.0.ln(), bracket.1.ln());
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            break;
        }
        if engine.failure_probability(mid.exp()).expect("P(t)") >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

/// Every engine kind solves its 1 and 10 ppm lifetimes on C1 and C3 in at
/// most 8 one-point calls, landing within 1e-10 relative of a 200-step
/// bisection of the same engine.
#[test]
fn lifetime_solves_take_at_most_8_one_point_calls_on_every_engine() {
    let bracket = statobd::LIFETIME_BRACKET_S;
    for benchmark in [Benchmark::C1, Benchmark::C3] {
        let analysis = bench_analysis(benchmark);
        for kind in EngineKind::ALL {
            // Small sampled engines: the solver sees the same smooth
            // ensemble curve at any sample count.
            let spec = match kind {
                EngineKind::StMc => EngineSpec::StMc(StMcConfig {
                    n_samples: 2000,
                    ..StMcConfig::default()
                }),
                EngineKind::MonteCarlo => EngineSpec::MonteCarlo(MonteCarloConfig {
                    n_chips: 50,
                    ..MonteCarloConfig::default()
                }),
                _ => kind.default_spec(),
            };
            let mut engine = build_engine(&analysis, &spec).expect("engine");
            for target in [1e-6, 1e-5] {
                let mut counting = Counting {
                    inner: engine.as_mut(),
                    calls: 0,
                    widest: 0,
                };
                let t = solve_lifetime(&mut counting, target, bracket).expect("lifetime");
                let (calls, widest) = (counting.calls, counting.widest);
                let what = format!("{benchmark:?} {kind} at {target:e}");
                assert!(
                    calls <= 8 && widest == 1,
                    "{what}: {calls} calls, up to {widest} points each"
                );
                let exact = bisect_lifetime(engine.as_mut(), target, bracket);
                let rel = ((t - exact) / exact).abs();
                assert!(
                    rel <= 1e-10,
                    "{what}: {t:e} vs bisection {exact:e} ({rel:.2e})"
                );
                eprintln!("{what}: {calls} calls, {rel:.1e} from bisection");
            }
        }
    }
}

/// The scoped-thread Monte-Carlo fan-out uses per-chip counter-based RNG
/// streams and fixed chunk boundaries, so the result must be bit-identical
/// no matter how many worker threads run it.
#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let analysis = c1_analysis();
    let times: Vec<f64> = (0..8).map(|i| 10f64.powf(6.0 + i as f64 * 0.7)).collect();

    let curve = |threads: usize| -> Vec<f64> {
        let spec = EngineSpec::MonteCarlo(MonteCarloConfig {
            n_chips: 400,
            threads: Some(threads),
            ..Default::default()
        });
        let mut engine = build_engine(&analysis, &spec).expect("engine");
        times
            .iter()
            .map(|&t| engine.failure_probability(t).expect("P(t)"))
            .collect()
    };

    let serial = curve(1);
    assert!(serial.iter().any(|&p| p > 0.0), "degenerate P(t) curve");
    for threads in [2, 8] {
        let parallel = curve(threads);
        for (i, (&a, &b)) in serial.iter().zip(&parallel).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "P(t[{i}]) differs at {threads} threads: {a:e} vs {b:e}"
            );
        }
    }
}

/// Brute-force k-out-of-n reference: enumerate every subset with more
/// failures than the spare budget and sum that failure mass directly —
/// summing the *failure* side keeps the deep tail representable (the
/// survival side would round to 1.0 and cancel to zero).
fn brute_force_group_failure(ps: &[f64], spares: usize) -> f64 {
    let n = ps.len();
    assert!(n <= 20, "subset enumeration only for small groups");
    let mut fail = 0.0;
    for mask in 0u32..(1u32 << n) {
        if (mask.count_ones() as usize) <= spares {
            continue;
        }
        let mut prob = 1.0;
        for (j, &p) in ps.iter().enumerate() {
            prob *= if mask & (1 << j) != 0 { p } else { 1.0 - p };
        }
        fail += prob;
    }
    fail
}

/// Chip failure across independent groups, composed on log-survival so a
/// tiny per-group tail is not lost to `1 − (1 − ε)` rounding.
fn brute_force_chip_failure(ps: &[f64], groups: &[RedundancyGroup]) -> f64 {
    let ln_survival: f64 = groups
        .iter()
        .map(|group| {
            let group_ps: Vec<f64> = group.blocks.iter().map(|&j| ps[j]).collect();
            (-brute_force_group_failure(&group_ps, group.spares)).ln_1p()
        })
        .sum();
    -ln_survival.exp_m1()
}

/// The log-space Poisson-binomial DP behind [`Composition::compose`]
/// must match brute-force subset enumeration to ≤ 1e-9 relative on
/// per-block probabilities taken from the C1 and C3 benchmarks — over
/// uniform spare budgets and a split two-group layout, across ages
/// spanning deep-tail to near-certain failure regimes.
#[test]
fn analytic_composition_matches_brute_force_on_c1_and_c3() {
    let mut worst: f64 = 0.0;
    for benchmark in [Benchmark::C1, Benchmark::C3] {
        let analysis = bench_analysis(benchmark);
        let n = analysis.n_blocks();
        let engine = StFast::new(&analysis, Default::default());
        for t_s in [3e7, 1e9, 3e10, 1e12] {
            let ps: Vec<f64> = (0..n)
                .map(|j| engine.block_failure_probability(j, t_s).expect("block P"))
                .collect();
            let mut configs = vec![
                Composition::uniform_spares(n, 1),
                Composition::uniform_spares(n, 2),
            ];
            // A split layout: the first half tolerates one failure, the
            // rest is a plain weakest-link group.
            configs.push(Composition::Groups(vec![
                RedundancyGroup::new((0..n / 2).collect(), 1),
                RedundancyGroup::new((n / 2..n).collect(), 0),
            ]));
            for comp in &configs {
                comp.validate(n).expect("valid grouping");
                let analytic = comp.compose(&ps);
                let brute = match comp {
                    Composition::WeakestLink => unreachable!(),
                    Composition::Groups(groups) => brute_force_chip_failure(&ps, groups),
                };
                let rel = ((analytic - brute) / brute.max(f64::MIN_POSITIVE)).abs();
                assert!(
                    rel <= 1e-9,
                    "{benchmark:?} t={t_s:e} {comp:?}: analytic {analytic:e} \
                     vs brute-force {brute:e} (rel {rel:.3e})"
                );
                worst = worst.max(rel);
            }
        }
    }
    eprintln!("analytic vs brute-force composition: worst rel {worst:.3e}");
}

/// A single spare-less group spanning every block is the weakest-link
/// composition written as a k-out-of-n degenerate case. The accumulator
/// engines produce bit-identical failure probabilities for the two
/// spellings (the spare-less DP finalizes through the same log-survival
/// sum); GuardBand and MonteCarlo take algebraically equal but
/// differently ordered routes when grouped — the whole-chip worst-case
/// closed form vs per-block corners, the hazard sum vs the per-chip
/// linear-space spare simulation — so they get the 1e-9 relative gate
/// (the linear-space pass carries an ulp of *absolute* rounding, which
/// at deep-tail probabilities is relative error well above ulp level).
#[test]
fn spareless_group_is_bit_identical_to_weakest_link_in_every_engine() {
    let weakest = c1_analysis();
    let n = weakest.n_blocks();
    let grouped = weakest
        .clone()
        .with_composition(Composition::Groups(vec![RedundancyGroup::new(
            (0..n).collect(),
            0,
        )]))
        .expect("spare-less group");

    let times: Vec<f64> = (0..6).map(|i| 10f64.powf(7.0 + i as f64)).collect();
    for kind in EngineKind::ALL {
        let spec = match kind {
            EngineKind::MonteCarlo => EngineSpec::MonteCarlo(MonteCarloConfig {
                n_chips: 200,
                ..Default::default()
            }),
            other => other.default_spec(),
        };
        let mut wl = build_engine(&weakest, &spec).expect("engine");
        let mut gr = build_engine(&grouped, &spec).expect("engine");
        let exact = !matches!(kind, EngineKind::GuardBand | EngineKind::MonteCarlo);
        for &t in &times {
            let a = wl.failure_probability(t).expect("P(t)");
            let b = gr.failure_probability(t).expect("P(t)");
            if exact {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{kind:?} at t={t:e}: weakest-link {a:e} vs spare-less group {b:e}"
                );
            } else {
                let rel = ((a - b) / a.max(f64::MIN_POSITIVE)).abs();
                assert!(
                    rel <= 1e-9,
                    "{kind:?} at t={t:e}: weakest-link {a:e} vs spare-less group {b:e} \
                     (rel {rel:.3e})"
                );
            }
        }
    }
}

/// With one spare over C1's blocks the engines must still agree with
/// each other: the analytic engines tightly, the per-device Monte-Carlo
/// reference (which simulates the spares directly on every sampled
/// chip) within its sampling noise — and redundancy must extend the
/// solved lifetime relative to weakest-link.
#[test]
fn grouped_engines_agree_on_c1_with_one_spare() {
    let weakest = c1_analysis();
    let n = weakest.n_blocks();
    let grouped = weakest
        .clone()
        .with_composition(Composition::uniform_spares(n, 1))
        .expect("grouped analysis");
    let bracket = (1e5, 1e13);
    let target = 1e-4;

    let solve = |analysis: &ChipAnalysis, spec: &EngineSpec| {
        let mut engine = build_engine(analysis, spec).expect("engine");
        solve_lifetime(engine.as_mut(), target, bracket).expect("lifetime")
    };

    let t_fast = solve(&grouped, &EngineKind::StFast.default_spec());
    let t_closed = solve(&grouped, &EngineKind::StClosed.default_spec());
    let t_mc = solve(
        &grouped,
        &EngineSpec::MonteCarlo(MonteCarloConfig {
            n_chips: 2000,
            ..Default::default()
        }),
    );
    let t_weakest = solve(&weakest, &EngineKind::StFast.default_spec());

    assert!(
        t_fast > t_weakest,
        "one spare must extend the lifetime: {t_fast:e} vs weakest-link {t_weakest:e}"
    );
    let closed_err = ((t_closed - t_fast) / t_fast).abs();
    assert!(
        closed_err < 0.05,
        "grouped st_closed vs st_fast: {t_closed:e} vs {t_fast:e} ({:.1} %)",
        100.0 * closed_err
    );
    let mc_err = ((t_fast - t_mc) / t_mc).abs();
    assert!(
        mc_err < 0.15,
        "grouped st_fast vs MC: {t_fast:e} vs {t_mc:e} ({:.1} %)",
        100.0 * mc_err
    );
    eprintln!(
        "grouped C1, 1 spare: st_fast {t_fast:.3e}s, st_closed {t_closed:.3e}s \
         ({:.2} %), MC {t_mc:.3e}s ({:.2} %), weakest-link {t_weakest:.3e}s",
        100.0 * closed_err,
        100.0 * mc_err
    );
}
