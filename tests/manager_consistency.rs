//! Cross-validation of the dynamic reliability manager against the
//! static engines — the correctness anchors of the damage model.
//!
//! * Under a **constant** operating point the effective-age identity
//!   `ξ = t/α` makes the manager's accumulated-damage P(t) reduce to the
//!   static table query at the same `t`: it must agree with a direct
//!   `Hybrid` engine built from the same table configuration to ≤1e-9
//!   relative (in practice the only difference is `Σ(dt/α)` vs `(Σdt)/α`
//!   float rounding), and with `StFast` to table-interpolation accuracy.
//! * Under a **two-phase** schedule the manager must agree with a
//!   piecewise reference: a chip whose technology model reports the
//!   harmonic-mix equivalent Weibull scale
//!   `1/α_eq = f_a/α_a + f_b/α_b` sees exactly the same per-block
//!   effective ages, so its static analysis (both the analytic `StFast`
//!   and a Monte-Carlo population) is the ground truth for the
//!   time-varying run.
//!
//! The throttle-hysteresis and checkpoint round-trip properties are unit
//! tests inside `statobd-manager` itself.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{
    build_engine, params, ChipAnalysis, EngineKind, EngineSpec, HybridConfig, HybridTables,
    MonteCarloConfig, ReliabilityEngine,
};
use statobd::device::{ClosedFormTech, ObdTechnology};
use statobd::manager::{OperatingPhase, PolicyConfig, ReliabilityManager};
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder, VarianceBudget};

const YEAR_S: f64 = 3.156e7;

fn design_parts(
    benchmark: Benchmark,
    grid_side: usize,
) -> (statobd::core::ChipSpec, statobd::variation::ThicknessModel) {
    let built = build_design(
        benchmark,
        &DesignConfig {
            correlation_grid_side: grid_side,
            ..DesignConfig::default()
        },
    )
    .unwrap();
    let model = ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(params::NOMINAL_THICKNESS_NM)
        .budget(VarianceBudget::itrs_2008(params::NOMINAL_THICKNESS_NM).unwrap())
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .build()
        .unwrap();
    (built.spec, model)
}

fn design_analysis(benchmark: Benchmark, grid_side: usize) -> ChipAnalysis {
    let (spec, model) = design_parts(benchmark, grid_side);
    ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
}

/// Constant-point equivalence on a benchmark design: manager P(t) vs the
/// direct `Hybrid` engine on the manager's own (widened) tables, and vs
/// `StFast`.
fn constant_point_case(benchmark: Benchmark) {
    let analysis = design_analysis(benchmark, 10);
    let tech = ClosedFormTech::nominal_45nm();
    let mut mgr = ReliabilityManager::new(
        &analysis,
        Box::new(tech),
        PolicyConfig::monitoring_only(1.0, 12.0 * YEAR_S),
        HybridConfig::default(),
    )
    .unwrap();
    let temps: Vec<f64> = analysis
        .blocks()
        .iter()
        .map(|b| b.spec().temperature_k())
        .collect();
    let vdd = analysis.blocks()[0].spec().voltage_v();
    // Many unequal steps, so the accumulated Σ(dt/α) exercises real
    // floating-point accumulation rather than one lucky division.
    let steps = 37;
    let total_s = 9.0 * YEAR_S;
    for i in 0..steps {
        let w = 0.5 + (i % 5) as f64; // 0.5..4.5, sums to 92.5 half-units
        let dt = total_s * w / 92.5;
        mgr.step(dt, &temps, vdd).unwrap();
    }
    let t_s = mgr.damage().elapsed_s();
    let p_mgr = mgr.failure_probability_now().unwrap();

    // Direct Hybrid engine on the *same* table configuration: identical
    // grids, so the ≤1e-9 criterion is meaningful.
    let mut hybrid = HybridTables::build(&analysis, *mgr.tables().config()).unwrap();
    let p_hybrid = hybrid.failure_probability(t_s).unwrap();
    let rel = ((p_mgr - p_hybrid) / p_hybrid).abs();
    assert!(
        rel <= 1e-9,
        "{}: manager {p_mgr:.12e} vs hybrid {p_hybrid:.12e}, rel {rel:.3e}",
        benchmark.name()
    );

    // StFast evaluates the same integral without tables; agreement is
    // bounded by the bilinear interpolation error.
    let mut st_fast = build_engine(&analysis, &EngineKind::StFast.default_spec()).unwrap();
    let p_fast = st_fast.failure_probability(t_s).unwrap();
    let rel_fast = ((p_mgr - p_fast) / p_fast).abs();
    assert!(
        rel_fast < 0.02,
        "{}: manager {p_mgr:.6e} vs st_fast {p_fast:.6e}, rel {rel_fast:.3e}",
        benchmark.name()
    );
    assert_eq!(mgr.off_grid_queries(), 0);
}

#[test]
fn constant_point_matches_direct_engines_on_c1() {
    constant_point_case(Benchmark::C1);
}

#[test]
fn constant_point_matches_direct_engines_on_c3() {
    constant_point_case(Benchmark::C3);
}

/// A technology whose reported Weibull scale is the harmonic mix of the
/// base technology over a two-phase operating pattern, so a *static*
/// analysis of it is the exact reference for the manager's *time-varying*
/// run over the same pattern.
#[derive(Debug)]
struct PiecewiseEquivalentTech {
    base: ClosedFormTech,
    /// Fraction of the total time spent in phase A.
    frac_a: f64,
    /// Phase-A temperature offset (K) over the queried (phase-B) point.
    dt_a_k: f64,
    vdd_a: f64,
    vdd_b: f64,
}

impl ObdTechnology for PiecewiseEquivalentTech {
    fn alpha(&self, t_k: f64, _vdd_v: f64) -> f64 {
        let inv_a = self.frac_a / self.base.alpha(t_k + self.dt_a_k, self.vdd_a);
        let inv_b = (1.0 - self.frac_a) / self.base.alpha(t_k, self.vdd_b);
        1.0 / (inv_a + inv_b)
    }

    fn b(&self, t_k: f64) -> f64 {
        self.base.b(t_k)
    }
}

#[test]
fn two_phase_schedule_matches_piecewise_references() {
    let (spec, model) = design_parts(Benchmark::C1, 8);
    let base = ClosedFormTech::nominal_45nm();
    let analysis = ChipAnalysis::new(spec.clone(), model.clone(), &base).unwrap();
    let spec_temps: Vec<f64> = analysis
        .blocks()
        .iter()
        .map(|b| b.spec().temperature_k())
        .collect();
    let vdd = analysis.blocks()[0].spec().voltage_v();

    // Phase A: hot turbo burst. Phase B: the specification point, last,
    // so the manager's final `b` ordinate matches the static reference.
    let total_s = 8.0 * YEAR_S;
    let frac_a = 0.3;
    let dt_a_k = 12.0;
    let vdd_a = vdd * 1.05;
    let phase_a = OperatingPhase {
        name: "turbo".to_string(),
        duration_s: frac_a * total_s,
        temps_k: spec_temps.iter().map(|t| t + dt_a_k).collect(),
        vdd_v: vdd_a,
    };
    let phase_b = OperatingPhase {
        name: "typical".to_string(),
        duration_s: (1.0 - frac_a) * total_s,
        temps_k: spec_temps.clone(),
        vdd_v: vdd,
    };

    let mut mgr = ReliabilityManager::new(
        &analysis,
        Box::new(base),
        PolicyConfig::monitoring_only(1.0, 12.0 * YEAR_S),
        HybridConfig::default(),
    )
    .unwrap();
    mgr.run_phase(&phase_a, 7).unwrap();
    mgr.run_phase(&phase_b, 11).unwrap();
    let p_mgr = mgr.failure_probability_now().unwrap();

    // The equivalent static chip: same spec and variation model, but the
    // technology reports the two-phase harmonic-mix α. Its per-block
    // effective age at `total_s` is identical to the manager's.
    let eq_tech = PiecewiseEquivalentTech {
        base,
        frac_a,
        dt_a_k,
        vdd_a,
        vdd_b: vdd,
    };
    let eq_analysis = ChipAnalysis::new(spec, model, &eq_tech).unwrap();
    for (mgr_xi, block) in mgr
        .damage()
        .effective_ages()
        .iter()
        .zip(eq_analysis.blocks())
    {
        let eq_xi = total_s / block.alpha_s();
        let rel = ((mgr_xi - eq_xi) / eq_xi).abs();
        assert!(
            rel < 1e-12,
            "effective-age mismatch: manager {mgr_xi:.9e} vs equivalent {eq_xi:.9e}"
        );
    }

    // Analytic piecewise reference.
    let mut st_fast = build_engine(&eq_analysis, &EngineKind::StFast.default_spec()).unwrap();
    let p_fast = st_fast.failure_probability(total_s).unwrap();
    let rel_fast = ((p_mgr - p_fast) / p_fast).abs();
    assert!(
        rel_fast < 0.02,
        "manager {p_mgr:.6e} vs piecewise st_fast {p_fast:.6e}, rel {rel_fast:.3e}"
    );

    // Monte-Carlo piecewise reference: a sampled chip population under
    // the equivalent technology.
    let mc_spec = EngineSpec::MonteCarlo(MonteCarloConfig {
        n_chips: 2000,
        ..Default::default()
    });
    let mut mc = build_engine(&eq_analysis, &mc_spec).unwrap();
    let p_mc = mc.failure_probability(total_s).unwrap();
    let rel_mc = ((p_mgr - p_mc) / p_mc).abs();
    assert!(
        rel_mc < 0.15,
        "manager {p_mgr:.6e} vs piecewise MC {p_mc:.6e}, rel {rel_mc:.3e}"
    );
}
