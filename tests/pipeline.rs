//! End-to-end integration tests: floorplan → power → thermal → variation
//! model → BLOD → reliability engines, across all workspace crates.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{
    params, solve_lifetime, ChipAnalysis, GuardBand, GuardBandConfig, HybridConfig, HybridTables,
    MonteCarlo, MonteCarloConfig, ReliabilityEngine, StClosed, StFast, StFastConfig, StMc,
    StMcConfig,
};
use statobd::device::ClosedFormTech;
use statobd::thermal::ThermalConfig;
use statobd::variation::{
    CorrelationKernel, ThicknessModel, ThicknessModelBuilder, VarianceBudget,
};

fn quick_design_config() -> DesignConfig {
    DesignConfig {
        correlation_grid_side: 8,
        thermal: ThermalConfig {
            nx: 32,
            ny: 32,
            ..ThermalConfig::default()
        },
        ..DesignConfig::default()
    }
}

fn model_for(built: &statobd::circuits::BuiltDesign) -> ThicknessModel {
    ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(params::NOMINAL_THICKNESS_NM)
        .budget(VarianceBudget::itrs_2008(params::NOMINAL_THICKNESS_NM).unwrap())
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .build()
        .unwrap()
}

/// A small analysis used by most tests (kept light: these run in debug).
fn small_analysis() -> ChipAnalysis {
    let built = build_design(Benchmark::C1, &quick_design_config()).unwrap();
    // Shrink the device counts 10x for debug-speed MC while keeping the
    // block structure.
    let mut spec = statobd::core::ChipSpec::new();
    for b in built.spec.blocks() {
        spec.add_block(
            statobd::core::BlockSpec::new(
                b.name(),
                b.area() / 10.0,
                (b.m_devices() / 10).max(2),
                b.temperature_k(),
                b.voltage_v(),
                b.grid_weights().to_vec(),
            )
            .unwrap(),
        )
        .unwrap();
    }
    let model = model_for(&built);
    ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
}

#[test]
fn full_pipeline_produces_consistent_engines() {
    let analysis = small_analysis();
    let mut fast = StFast::new(&analysis, StFastConfig::default());
    let mut closed = StClosed::new(&analysis);
    let mut smc = StMc::new(
        &analysis,
        StMcConfig {
            n_samples: 5000,
            ..Default::default()
        },
    )
    .unwrap();
    let mut hybrid = HybridTables::build(
        &analysis,
        HybridConfig {
            n_gamma: 60,
            n_b: 20,
            ..Default::default()
        },
    )
    .unwrap();

    // All statistical engines agree on P(t) within a few percent over the
    // lifetime window.
    for &t in &[1e8, 1e9, 5e9] {
        let p_fast = fast.failure_probability(t).unwrap();
        let p_closed = closed.failure_probability(t).unwrap();
        let p_smc = smc.failure_probability(t).unwrap();
        let p_hyb = hybrid.failure_probability(t).unwrap();
        assert!(p_fast > 0.0);
        for (name, p) in [("st_closed", p_closed), ("st_MC", p_smc), ("hybrid", p_hyb)] {
            let rel = ((p - p_fast) / p_fast).abs();
            assert!(rel < 0.08, "{name} at t={t:e}: {p:e} vs st_fast {p_fast:e}");
        }
    }
}

#[test]
fn statistical_lifetime_matches_monte_carlo_reference() {
    let analysis = small_analysis();
    let mut fast = StFast::new(&analysis, StFastConfig::default());
    let mut mc = MonteCarlo::build(
        &analysis,
        MonteCarloConfig {
            n_chips: 300,
            ..Default::default()
        },
    )
    .unwrap();
    let t_fast = solve_lifetime(&mut fast, params::TEN_PER_MILLION, (1e6, 1e12)).unwrap();
    let t_mc = solve_lifetime(&mut mc, params::TEN_PER_MILLION, (1e6, 1e12)).unwrap();
    let rel = ((t_fast - t_mc) / t_mc).abs();
    assert!(
        rel < 0.05,
        "st_fast {t_fast:e} vs MC {t_mc:e} (rel {rel:.3})"
    );
}

#[test]
fn guard_band_is_most_pessimistic_temp_unaware_in_between() {
    // The Fig. 10 ordering: guard < temp-unaware < temp-aware ≈ truth.
    let analysis = small_analysis();
    let mut fast = StFast::new(&analysis, StFastConfig::default());
    let t_aware = solve_lifetime(&mut fast, params::TEN_PER_MILLION, (1e6, 1e12)).unwrap();

    let unaware_spec = analysis.spec().with_uniform_worst_temperature().unwrap();
    let unaware = ChipAnalysis::new(
        unaware_spec,
        analysis.model().clone(),
        &ClosedFormTech::nominal_45nm(),
    )
    .unwrap();
    let mut fast_unaware = StFast::new(&unaware, StFastConfig::default());
    let t_unaware =
        solve_lifetime(&mut fast_unaware, params::TEN_PER_MILLION, (1e6, 1e12)).unwrap();

    let guard = GuardBand::new(&analysis, GuardBandConfig::default()).unwrap();
    let t_guard = guard.lifetime(params::TEN_PER_MILLION).unwrap();

    assert!(
        t_guard < t_unaware && t_unaware < t_aware,
        "ordering violated: guard {t_guard:e}, unaware {t_unaware:e}, aware {t_aware:e}"
    );
}

#[test]
fn hybrid_tables_survive_disk_round_trip() {
    let analysis = small_analysis();
    let mut tables = HybridTables::build(
        &analysis,
        HybridConfig {
            n_gamma: 40,
            n_b: 10,
            ..Default::default()
        },
    )
    .unwrap();
    let json = tables.to_json().unwrap();
    let dir = std::env::temp_dir().join("statobd_test_tables.json");
    std::fs::write(&dir, &json).unwrap();
    let loaded = std::fs::read_to_string(&dir).unwrap();
    std::fs::remove_file(&dir).ok();
    let mut restored = HybridTables::from_json(&loaded).unwrap();
    for &t in &[1e8, 1e9, 1e10] {
        let a = tables.failure_probability(t).unwrap();
        let b = restored.failure_probability(t).unwrap();
        assert!(((a - b) / a.max(1e-300)).abs() < 1e-9);
    }
}

#[test]
fn temperature_feeds_through_to_reliability() {
    // Hotter thermal environment (higher ambient) must shorten the
    // statistical lifetime.
    let cool_cfg = quick_design_config();
    let mut hot_cfg = quick_design_config();
    hot_cfg.thermal.ambient_k += 15.0;

    let tech = ClosedFormTech::nominal_45nm();
    let mut lifetimes = Vec::new();
    for cfg in [cool_cfg, hot_cfg] {
        let built = build_design(Benchmark::C1, &cfg).unwrap();
        let model = model_for(&built);
        let analysis = ChipAnalysis::new(built.spec.clone(), model, &tech).unwrap();
        let mut fast = StFast::new(&analysis, StFastConfig::default());
        lifetimes.push(solve_lifetime(&mut fast, 1e-6, (1e5, 1e12)).unwrap());
    }
    assert!(
        lifetimes[1] < lifetimes[0],
        "hotter ambient should shorten lifetime: {lifetimes:?}"
    );
}

#[test]
fn voltage_feeds_through_to_reliability() {
    let built = build_design(Benchmark::C1, &quick_design_config()).unwrap();
    let model = model_for(&built);
    let tech = ClosedFormTech::nominal_45nm();
    let mut lifetimes = Vec::new();
    for vdd in [1.2, 1.26] {
        let cfg = DesignConfig {
            vdd_v: vdd,
            ..quick_design_config()
        };
        let built_v = build_design(Benchmark::C1, &cfg).unwrap();
        let analysis = ChipAnalysis::new(built_v.spec.clone(), model.clone(), &tech).unwrap();
        let mut fast = StFast::new(&analysis, StFastConfig::default());
        lifetimes.push(solve_lifetime(&mut fast, 1e-6, (1e4, 1e12)).unwrap());
    }
    // 5% more VDD with a ~40x power law => far shorter life.
    assert!(lifetimes[1] < lifetimes[0] * 0.5, "{lifetimes:?}");
    let _ = built;
}
