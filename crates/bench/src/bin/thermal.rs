//! Thermal linear-algebra benchmark: times the steady-state solve, the
//! leakage fixed point (warm vs cold start) and the transient stepper
//! with both linear solvers (IC(0)-PCG, the reference, and MGCG) on the
//! Alpha EV6 reference profile, and emits machine-readable
//! `BENCH_thermal.json` so the repo accumulates a perf trajectory for the
//! thermal fast path.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin thermal -- \
//!     [--quick] [--out BENCH_thermal.json] [--grids 64,128,256,512] \
//!     [--threads 1]
//! ```
//!
//! Row kinds:
//!
//! * `steady` — one linear solve (leakage folded into fixed dynamic
//!   power), both solvers at every grid: the MGCG-vs-IC(0) speedup
//!   headline.
//! * `leakage_warm` / `leakage_cold` — the full leakage–temperature fixed
//!   point with warm starting on and off; the CG-iteration totals show
//!   what warm starting buys.
//! * `transient` — a 3·τ_v backward-Euler run with the auto-dispatched
//!   solver: one operator + preconditioner build amortized over all steps.
//!
//! Every solved temperature field is checked against the grid's first
//! IC(0) map of the same problem, steady or leakage (block mean and max
//! within 1e-6 K); the run exits non-zero on mismatch. Defaults measure
//! the algorithmic win at `--threads 1`.

use statobd_bench::harness::Cli;
use statobd_num::flags::{at_least, list};
use statobd_num::impl_json_struct;
use statobd_thermal::{
    alpha_ev6_floorplan, alpha_ev6_power, BlockPower, Floorplan, PowerModel, TemperatureMap,
    ThermalConfig, ThermalSolver, ThermalSolverKind,
};

/// Consistency tolerance (K) on block mean/max temperatures.
const AGREE_TOL_K: f64 = 1e-6;

/// One measurement: a (grid, kind, solver) cell.
#[derive(Debug, Clone)]
struct ThermalRow {
    grid_side: usize,
    n_cells: usize,
    /// `steady`, `leakage_warm`, `leakage_cold` or `transient`.
    kind: String,
    /// Resolved solver name (`auto` never appears).
    solver: String,
    /// Conductance assembly + power rasterization seconds.
    assembly_s: f64,
    /// Preconditioner build seconds.
    precond_s: f64,
    /// Accumulated CG seconds.
    solve_s: f64,
    total_s: f64,
    /// Leakage fixed-point iterations (backward-Euler steps for
    /// `transient` rows).
    outer_iters: usize,
    /// CG iterations summed over the whole run.
    total_cg_iters: usize,
    /// Relative residual of the final CG solve (0 for transient rows).
    final_residual: f64,
    /// IC(0)-PCG total at the same (grid, kind) divided by this total (0
    /// for the IC(0) rows themselves and for transient rows).
    speedup_vs_ic0: f64,
    /// Whether block temperatures match the grid's reference map (the run
    /// aborts non-zero if any is false).
    consistent: bool,
}

impl_json_struct!(ThermalRow {
    grid_side,
    n_cells,
    kind,
    solver,
    assembly_s,
    precond_s,
    solve_s,
    total_s,
    outer_iters,
    total_cg_iters,
    final_residual,
    speedup_vs_ic0,
    consistent
});

/// The whole report (`BENCH_thermal.json`).
#[derive(Debug, Clone)]
struct ThermalReport {
    /// Worker threads the solves were pinned to.
    threads: usize,
    rows: Vec<ThermalRow>,
}

impl_json_struct!(ThermalReport { threads, rows });

/// The alpha power profile with leakage folded into fixed dynamic power —
/// turns the fixed point into a single linear solve of the same total
/// wattage.
fn zero_leakage(pm: &PowerModel) -> PowerModel {
    let mut out = PowerModel::new();
    for (name, bp) in pm.iter() {
        out.set_block_power(
            name,
            BlockPower::new(bp.dynamic_w() + bp.leakage_ref_w(), 0.0).expect("power"),
        )
        .expect("block");
    }
    out
}

fn config(side: usize, solver: ThermalSolverKind, warm_start: bool) -> ThermalConfig {
    ThermalConfig {
        nx: side,
        ny: side,
        solver,
        warm_start,
        ..ThermalConfig::default()
    }
}

/// Block mean and max temperatures, the quantities the reliability model
/// consumes — the consistency contract between solver variants.
fn block_temps(map: &TemperatureMap, fp: &Floorplan) -> Vec<f64> {
    fp.blocks()
        .iter()
        .flat_map(|b| {
            let s = map.block_stats(b.rect());
            [s.mean_k, s.max_k]
        })
        .collect()
}

fn agrees(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| (x - y).abs() < AGREE_TOL_K)
}

#[allow(clippy::too_many_arguments)]
fn print_row(row: &ThermalRow) {
    println!(
        "  {:<13} {:<11} outer {:>3}  cg {:>6}  asm {:>7.4}s  pre {:>7.4}s  \
         solve {:>8.4}s  total {:>8.4}s  {:>6.1}x  {}",
        row.kind,
        row.solver,
        row.outer_iters,
        row.total_cg_iters,
        row.assembly_s,
        row.precond_s,
        row.solve_s,
        row.total_s,
        row.speedup_vs_ic0,
        if row.consistent { "ok" } else { "MISMATCH" }
    );
}

fn main() {
    let mut cli = Cli::from_env();
    let threads = cli.threads(1);
    let grids = cli.flag(
        "--grids",
        list(at_least(1)),
        vec![64, 128, 256, 512],
        vec![32, 64],
    );
    let mut gates = cli.gates("BENCH_thermal.json");
    // The thermal solver reads its thread budget from the environment.
    std::env::set_var("STATOBD_THREADS", threads.to_string());
    let fp = alpha_ev6_floorplan().expect("floorplan");
    let pm = alpha_ev6_power().expect("power");
    let pm_steady = zero_leakage(&pm);
    let solvers = [ThermalSolverKind::Ic0Pcg, ThermalSolverKind::Mgcg];

    let mut rows: Vec<ThermalRow> = Vec::new();
    for &side in &grids {
        println!("grid {side}x{side} ({} cells):", side * side);
        let mut reference: Option<Vec<f64>> = None;
        let mut leakage_reference: Option<Vec<f64>> = None;
        let baseline = |rows: &[ThermalRow], kind: &str| {
            rows.iter()
                .find(|r| r.grid_side == side && r.kind == kind && r.solver == "ic0_pcg")
                .map(|r| r.total_s)
        };

        for &solver in &solvers {
            // Steady: one linear solve, the headline comparison; then the
            // leakage fixed point, warm vs cold.
            for (kind, warm) in [
                ("steady", true),
                ("leakage_warm", true),
                ("leakage_cold", false),
            ] {
                let (power, reference) = if kind == "steady" {
                    (&pm_steady, &mut reference)
                } else {
                    (&pm, &mut leakage_reference)
                };
                let t0 = std::time::Instant::now();
                let map = ThermalSolver::new(config(side, solver, warm))
                    .solve(&fp, power)
                    .expect("thermal solve");
                let total_s = t0.elapsed().as_secs_f64();
                let temps = block_temps(&map, &fp);
                let consistent = reference.as_ref().is_none_or(|r| agrees(&temps, r));
                gates.check(consistent, || {
                    format!(
                        "{side}x{side} {kind} {}: block temperatures diverged from the reference",
                        solver.name()
                    )
                });
                reference.get_or_insert(temps);
                let b = map.breakdown();
                let row = ThermalRow {
                    grid_side: side,
                    n_cells: side * side,
                    kind: kind.to_string(),
                    solver: b.solver.clone(),
                    assembly_s: b.assembly_s,
                    precond_s: b.precond_s,
                    solve_s: b.solve_s,
                    total_s,
                    outer_iters: map.leakage_iterations(),
                    total_cg_iters: map.total_cg_iterations(),
                    final_residual: map.final_residual(),
                    speedup_vs_ic0: baseline(&rows, kind)
                        .map(|b| b / total_s.max(1e-12))
                        .unwrap_or(0.0),
                    consistent,
                };
                print_row(&row);
                rows.push(row);
            }
        }

        // Transient: auto-dispatched solver, 3 vertical time constants.
        let cfg = config(side, ThermalSolverKind::Auto, true);
        let tau_v = cfg.r_package * cfg.c_volumetric * cfg.die_thickness;
        let t0 = std::time::Instant::now();
        let result = ThermalSolver::new(cfg)
            .solve_transient(&fp, &pm, cfg.ambient_k, 3.0 * tau_v, 3)
            .expect("transient solve");
        let total_s = t0.elapsed().as_secs_f64();
        let s = &result.stats;
        assert_eq!(s.operator_assemblies, 1, "transient must assemble once");
        let row = ThermalRow {
            grid_side: side,
            n_cells: side * side,
            kind: "transient".to_string(),
            solver: s.solver.clone(),
            assembly_s: s.assembly_s,
            precond_s: s.precond_s,
            solve_s: s.solve_s,
            total_s,
            outer_iters: s.steps,
            total_cg_iters: s.total_cg_iterations,
            final_residual: 0.0,
            speedup_vs_ic0: 0.0,
            consistent: true,
        };
        print_row(&row);
        rows.push(row);
    }

    gates.finish(&ThermalReport { threads, rows });
}
