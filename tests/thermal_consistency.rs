//! Consistency of the thermal fast path at the default 64² grid: MGCG at
//! the default CG tolerance must produce the temperature field of a
//! tight-tolerance MGCG reference on the reference profiles, warm starting
//! must change the cost but not the fixed point, and the transient stepper
//! must amortize one operator build over all steps. (The dense-Cholesky
//! oracle checks live with the solver, on grids up to 32².)

use statobd::thermal::{
    alpha_ev6_floorplan, alpha_ev6_power, many_core_floorplan, many_core_power, Floorplan,
    PowerModel, TemperatureMap, ThermalConfig, ThermalSolver,
};

fn solve_with(cg_rel_tol: f64, fp: &Floorplan, pm: &PowerModel) -> TemperatureMap {
    let solver = ThermalSolver::new(ThermalConfig {
        cg_rel_tol,
        ..ThermalConfig::default()
    });
    solver.solve(fp, pm).expect("solve")
}

/// Per-cell fields must agree to 1e-8 relative, block temperatures to
/// 1e-6 K — the contract that lets the solve feed the reliability model.
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
fn mgcg_matches_a_tight_tolerance_reference_on_alpha_profile() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let reference = solve_with(1e-12, &fp, &pm);
    let map = solve_with(ThermalConfig::default().cg_rel_tol, &fp, &pm);
    assert_fields_agree(&reference, &map, "mgcg");
    assert_blocks_agree(&fp, &reference, &map);
}

#[test]
fn mgcg_matches_a_tight_tolerance_reference_on_many_core_profile() {
    let fp = many_core_floorplan().unwrap();
    let pm = many_core_power(&[0, 3, 5, 10, 12, 15], 9.0).unwrap();
    let reference = solve_with(1e-12, &fp, &pm);
    let map = solve_with(ThermalConfig::default().cg_rel_tol, &fp, &pm);
    assert_fields_agree(&reference, &map, "mgcg");
    assert_blocks_agree(&fp, &reference, &map);
}

#[test]
fn warm_start_reaches_same_fixed_point_with_fewer_cg_iterations() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    let base = ThermalConfig::default();
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
fn transient_amortizes_one_operator_over_all_steps() {
    let fp = alpha_ev6_floorplan().unwrap();
    let pm = alpha_ev6_power().unwrap();
    for side in [16, 32] {
        let cfg = ThermalConfig {
            nx: side,
            ny: side,
            ..ThermalConfig::default()
        };
        let tau_v = cfg.r_package * cfg.c_volumetric * cfg.die_thickness;
        let result = ThermalSolver::new(cfg)
            .solve_transient(&fp, &pm, cfg.ambient_k, 2.0 * tau_v, 4)
            .expect("transient");
        let s = &result.stats;
        assert!(s.steps >= 4, "{side}x{side}");
        // Warm-started implicit steps must stay cheap: far below what
        // re-assembling or cold-starting every step would cost.
        assert!(
            s.total_cg_iterations < s.steps * 40,
            "{side}x{side}: {} CG iterations over {} steps",
            s.total_cg_iterations,
            s.steps
        );
    }
}
