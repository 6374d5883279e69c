//! Cross-lane-width equivalence: the engines rewired onto the
//! `num::simd` lane layer (StFast quadrature, hybrid `(γ, b)` tables,
//! the Monte-Carlo weight table) must agree across lane widths within
//! the layer's 1e-12 relative gate — width 1 reproduces the historical
//! scalar bits, widths 4 and 8 agree bitwise with each other — and the
//! StFast batched sweep (lanes across times) must stay bit-identical to
//! its one-point calls (lanes across quadrature nodes) at every width.
//!
//! Width forcing is process-global, so every test serializes on one
//! mutex and restores the environment default before releasing.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{
    build_engine, ChipAnalysis, EngineSpec, HybridConfig, HybridTables, MonteCarloConfig,
    ReliabilityEngine,
};
use statobd::device::ClosedFormTech;
use statobd::num::simd::{self, LaneWidth};
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder, VarianceBudget};
use std::sync::{Mutex, MutexGuard};

static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// RAII width override holding the global lock; restores the
/// environment-derived default on drop even on panic.
struct ForcedWidth(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForcedWidth {
    fn new(w: LaneWidth) -> Self {
        let guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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

fn c1_analysis() -> ChipAnalysis {
    let built = build_design(
        Benchmark::C1,
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

/// Log-spaced sweep times over the lifetime bracket the solvers use.
fn sweep_times(n: usize) -> Vec<f64> {
    let (t_lo, t_hi) = (1e6f64, 1e12f64);
    let ratio = (t_hi / t_lo).ln();
    (0..n)
        .map(|i| t_lo * (ratio * i as f64 / (n - 1) as f64).exp())
        .collect()
}

fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x == y {
                0.0
            } else {
                (x - y).abs() / y.abs().max(f64::MIN_POSITIVE)
            }
        })
        .fold(0.0, f64::max)
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} idx {i}: {x:e} vs {y:e}");
    }
}

/// Evaluates one batched sweep at a forced width.
fn sweep_at(
    guard: &ForcedWidth,
    w: LaneWidth,
    analysis: &ChipAnalysis,
    spec: &EngineSpec,
    ts: &[f64],
) -> Vec<f64> {
    guard.set(w);
    let mut engine = build_engine(analysis, spec).expect("engine");
    engine.failure_probabilities(ts).expect("batched sweep")
}

#[test]
fn st_fast_widths_agree_within_gate() {
    let analysis = c1_analysis();
    let ts = sweep_times(40);
    let spec = EngineSpec::default().with_threads(Some(1));
    let guard = ForcedWidth::new(LaneWidth::W1);
    let p1 = sweep_at(&guard, LaneWidth::W1, &analysis, &spec, &ts);
    let p4 = sweep_at(&guard, LaneWidth::W4, &analysis, &spec, &ts);
    let p8 = sweep_at(&guard, LaneWidth::W8, &analysis, &spec, &ts);
    assert!(p1.iter().any(|&p| p > 1e-9), "sweep covers the rising edge");
    assert!(
        max_rel_err(&p4, &p1) < 1e-12,
        "w4 vs w1: {:e}",
        max_rel_err(&p4, &p1)
    );
    assert!(
        max_rel_err(&p8, &p1) < 1e-12,
        "w8 vs w1: {:e}",
        max_rel_err(&p8, &p1)
    );
    assert_bitwise(&p4, &p8, "st_fast w4 vs w8");
}

#[test]
fn st_fast_scalar_and_batched_stay_bit_identical_per_width() {
    let analysis = c1_analysis();
    let ts = sweep_times(17);
    let spec = EngineSpec::default().with_threads(Some(1));
    let guard = ForcedWidth::new(LaneWidth::W1);
    for w in [LaneWidth::W1, LaneWidth::W4, LaneWidth::W8] {
        guard.set(w);
        let mut engine = build_engine(&analysis, &spec).expect("engine");
        let scalar: Vec<f64> = ts
            .iter()
            .map(|&t| engine.failure_probability(t).expect("scalar"))
            .collect();
        let batched = engine.failure_probabilities(&ts).expect("batched");
        assert_bitwise(&scalar, &batched, &format!("{w:?} scalar vs batched"));
    }
}

#[test]
fn hybrid_tables_widths_agree_within_gate() {
    let analysis = c1_analysis();
    let ts = sweep_times(24);
    let config = HybridConfig {
        n_gamma: 24,
        n_b: 24,
        ..HybridConfig::default()
    };
    let guard = ForcedWidth::new(LaneWidth::W1);
    let build = |w: LaneWidth| -> Vec<f64> {
        guard.set(w);
        let mut tables = HybridTables::build(&analysis, config).expect("tables");
        tables.failure_probabilities(&ts).expect("sweep")
    };
    let p1 = build(LaneWidth::W1);
    let p4 = build(LaneWidth::W4);
    let p8 = build(LaneWidth::W8);
    // The 1e-12 kernel gate compounds through table interpolation only
    // linearly; the table fill itself is the gated quadrature.
    assert!(
        max_rel_err(&p4, &p1) < 1e-11,
        "w4 vs w1: {:e}",
        max_rel_err(&p4, &p1)
    );
    assert!(
        max_rel_err(&p8, &p1) < 1e-11,
        "w8 vs w1: {:e}",
        max_rel_err(&p8, &p1)
    );
    assert_bitwise(&p4, &p8, "hybrid w4 vs w8");
}

#[test]
fn monte_carlo_weight_table_widths_agree_within_gate() {
    let analysis = c1_analysis();
    let ts = sweep_times(12);
    let spec = EngineSpec::MonteCarlo(MonteCarloConfig {
        n_chips: 200,
        ..MonteCarloConfig::default()
    })
    .with_threads(Some(1));
    let guard = ForcedWidth::new(LaneWidth::W1);
    let p1 = sweep_at(&guard, LaneWidth::W1, &analysis, &spec, &ts);
    let p4 = sweep_at(&guard, LaneWidth::W4, &analysis, &spec, &ts);
    let p8 = sweep_at(&guard, LaneWidth::W8, &analysis, &spec, &ts);
    assert!(
        max_rel_err(&p4, &p1) < 1e-12,
        "w4 vs w1: {:e}",
        max_rel_err(&p4, &p1)
    );
    assert!(
        max_rel_err(&p8, &p1) < 1e-12,
        "w8 vs w1: {:e}",
        max_rel_err(&p8, &p1)
    );
    assert_bitwise(&p4, &p8, "mc w4 vs w8");
}
