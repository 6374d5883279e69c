//! Downstream invariance of the spectral backend: a thickness model built
//! through the Lanczos top-k path must drive the analytic engine to the
//! same chip failure probabilities as the QL-built model.
//!
//! Both models truncate at the same energy target, so they retain the
//! identical component set (the truncation rule is shared across solvers
//! and never splits a degenerate eigenvalue cluster); the engines consume
//! the model only through rotation-invariant quantities (per-block trace
//! moments and marginal sigmas), so P(t) must agree to solver precision.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{build_engine, ChipAnalysis, EngineKind};
use statobd::device::ClosedFormTech;
use statobd::num::eigen::{SpectralOptions, SpectralSolver};
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder, VarianceBudget};

/// Energy target for both builds: keeps a genuinely truncated component
/// set on the 12×12 correlation grid (the exponential kernel's flat tail
/// would defeat targets much closer to 1).
const ENERGY: f64 = 0.95;

fn analysis_with_solver(benchmark: Benchmark, solver: SpectralSolver) -> ChipAnalysis {
    let built = build_design(
        benchmark,
        &DesignConfig {
            correlation_grid_side: 12,
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
        .spectral(SpectralOptions::energy(ENERGY).with_solver(solver))
        .build()
        .expect("model");
    ChipAnalysis::new(built.spec.clone(), model, &ClosedFormTech::nominal_45nm())
        .expect("characterization")
}

fn failure_curve(analysis: &ChipAnalysis) -> Vec<f64> {
    let mut engine = build_engine(analysis, &EngineKind::StFast.default_spec()).expect("engine");
    (0..7)
        .map(|i| {
            let t = 10f64.powf(6.0 + i as f64);
            engine.failure_probability(t).expect("P(t)")
        })
        .collect()
}

fn assert_curves_match(benchmark: Benchmark) {
    let ql = analysis_with_solver(benchmark, SpectralSolver::TridiagonalQl);
    let lanczos = analysis_with_solver(benchmark, SpectralSolver::Lanczos);
    assert_eq!(
        ql.model().n_components(),
        lanczos.model().n_components(),
        "solvers retained different component sets"
    );

    let p_ql = failure_curve(&ql);
    let p_lan = failure_curve(&lanczos);
    assert!(
        p_ql.iter().any(|&p| p > 1e-6 && p < 1.0),
        "degenerate P(t) curve for {benchmark:?}"
    );
    for (i, (&a, &b)) in p_ql.iter().zip(&p_lan).enumerate() {
        let scale = a.abs().max(1e-300);
        let rel = (a - b).abs() / scale;
        assert!(
            rel <= 1e-9,
            "{benchmark:?} P(t[{i}]): QL {a:e} vs Lanczos {b:e} (rel {rel:.3e})"
        );
    }
}

#[test]
fn lanczos_built_model_matches_ql_on_c1() {
    assert_curves_match(Benchmark::C1);
}

#[test]
fn lanczos_built_model_matches_ql_on_c3() {
    assert_curves_match(Benchmark::C3);
}
