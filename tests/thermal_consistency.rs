//! Cross-solver consistency of the thermal fast path: MGCG must produce
//! the same temperature field as IC(0)-PCG on the reference profiles, warm
//! starting must change the cost but not the fixed point, and the
//! transient stepper must amortize one operator build over all steps.

use statobd::thermal::{
    alpha_ev6_floorplan, alpha_ev6_power, many_core_floorplan, many_core_power, Floorplan,
    PowerModel, TemperatureMap, ThermalConfig, ThermalSolver, ThermalSolverKind,
};

fn solve_with(kind: ThermalSolverKind, fp: &Floorplan, pm: &PowerModel) -> TemperatureMap {
    let solver = ThermalSolver::new(ThermalConfig {
        solver: kind,
        ..ThermalConfig::default()
    });
    solver.solve(fp, pm).expect("solve")
}

/// Per-cell fields must agree to 1e-8 relative, block temperatures to
/// 1e-6 K — the contract that lets either solver feed the reliability
/// model.
fn assert_fields_agree(reference: &TemperatureMap, other: &TemperatureMap, label: &str) {
    for (a, b) in other.temps().iter().zip(reference.temps()) {
        assert!(
            (a - b).abs() < 1e-8 * b.abs(),
            "{label}: cell {a} vs reference {b}"
        );
    }
}

fn assert_blocks_agree(fp: &Floorplan, reference: &TemperatureMap, other: &TemperatureMap) {
    for block in fp.blocks() {
        let r = reference.block_stats(block.rect());
        let o = other.block_stats(block.rect());
        assert!(
            (r.mean_k - o.mean_k).abs() < 1e-6 && (r.max_k - o.max_k).abs() < 1e-6,
            "block {}: mean {} vs {}, max {} vs {}",
            block.name(),
            o.mean_k,
            r.mean_k,
            o.max_k,
            r.max_k
        );
    }
}

#[test]
fn all_solver_tiers_agree_on_alpha_profile() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let reference = solve_with(ThermalSolverKind::Ic0Pcg, &fp, &pm);
    let map = solve_with(ThermalSolverKind::Mgcg, &fp, &pm);
    assert_fields_agree(&reference, &map, "mgcg");
    assert_blocks_agree(&fp, &reference, &map);
}

#[test]
fn all_solver_tiers_agree_on_many_core_profile() {
    let fp = many_core_floorplan().unwrap();
    let pm = many_core_power(&[0, 3, 5, 10, 12, 15], 9.0).unwrap();
    let reference = solve_with(ThermalSolverKind::Ic0Pcg, &fp, &pm);
    let map = solve_with(ThermalSolverKind::Mgcg, &fp, &pm);
    assert_fields_agree(&reference, &map, "mgcg");
    assert_blocks_agree(&fp, &reference, &map);
}

#[test]
fn warm_start_reaches_same_fixed_point_with_fewer_cg_iterations() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let base = ThermalConfig {
        solver: ThermalSolverKind::Ic0Pcg,
        ..ThermalConfig::default()
    };
    let warm = ThermalSolver::new(base)
        .solve(&fp, &pm)
        .expect("warm solve");
    let cold = ThermalSolver::new(ThermalConfig {
        warm_start: false,
        ..base
    })
    .solve(&fp, &pm)
    .expect("cold solve");
    assert_fields_agree(&cold, &warm, "warm vs cold");
    assert!(
        warm.total_cg_iterations() < cold.total_cg_iterations(),
        "warm {} vs cold {} total CG iterations",
        warm.total_cg_iterations(),
        cold.total_cg_iterations()
    );
    // The later fixed-point iterations should be nearly free when warm
    // started: strictly fewer CG iterations than the cold first solve.
    let first = warm.cg_iterations()[0];
    for &later in &warm.cg_iterations()[1..] {
        assert!(later < first, "iteration cost {later} vs first {first}");
    }
}

#[test]
fn auto_dispatch_reports_the_resolved_tier() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let small = ThermalSolver::new(ThermalConfig {
        nx: 32,
        ny: 32,
        ..ThermalConfig::default()
    })
    .solve(&fp, &pm)
    .unwrap();
    assert_eq!(small.breakdown().solver, "ic0_pcg");
    let large = ThermalSolver::new(ThermalConfig::default())
        .solve(&fp, &pm)
        .unwrap();
    assert_eq!(large.breakdown().solver, "mgcg");
}

#[test]
fn transient_amortizes_one_operator_over_all_steps() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let cfg = ThermalConfig {
        nx: 32,
        ny: 32,
        ..ThermalConfig::default()
    };
    let tau_v = cfg.r_package * cfg.c_volumetric * cfg.die_thickness;
    let result = ThermalSolver::new(cfg)
        .solve_transient(&fp, &pm, cfg.ambient_k, 2.0 * tau_v, 4)
        .expect("transient");
    let s = &result.stats;
    assert_eq!(s.operator_assemblies, 1);
    assert_eq!(s.preconditioner_builds, 1);
    assert!(s.steps >= 4);
    // Warm-started implicit steps must stay cheap: far below what
    // re-assembling or cold-starting every step would cost.
    assert!(
        s.total_cg_iterations < s.steps * 40,
        "{} CG iterations over {} steps",
        s.total_cg_iterations,
        s.steps
    );
}
