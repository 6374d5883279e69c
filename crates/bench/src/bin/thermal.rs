//! Thermal linear-algebra benchmark: times the steady-state solve, the
//! leakage fixed point (warm vs cold start) and the transient stepper,
//! all on multigrid-preconditioned CG (MGCG), on the Alpha EV6 reference
//! profile, and emits machine-readable `BENCH_thermal.json` so the repo
//! accumulates a perf trajectory for the thermal fast path.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin thermal -- \
//!     [--quick] [--out BENCH_thermal.json] [--grids 64,128,256,512]
//! ```
//!
//! Row kinds, one of each per grid:
//!
//! * `steady` — one linear solve (leakage folded into fixed dynamic
//!   power).
//! * `leakage_warm` / `leakage_cold` — the full leakage–temperature fixed
//!   point with warm starting on and off; the CG-iteration totals show
//!   what warm starting buys.
//! * `transient` — a 3·τ_v backward-Euler run: one operator +
//!   preconditioner build amortized over all steps.
//!
//! Each row is the fastest of [`REPEATS`] runs, with that run's stage
//! breakdown; the CG counts do not change from run to run.
//!
//! Gate: at every grid the warm and cold fixed points agree on every
//! block's mean and max temperature within 1e-6 K; the run exits non-zero
//! otherwise. (The solver itself is checked against a dense Cholesky
//! solve by the thermal crate's tests.) The thermal solver runs on one
//! thread, so there is no thread setting.

use statobd_bench::harness::Cli;
use statobd_num::flags::{at_least, list};
use statobd_num::impl_json_struct;
use statobd_thermal::{
    alpha_ev6_floorplan, alpha_ev6_power, BlockPower, Floorplan, PowerModel, TemperatureMap,
    ThermalConfig, ThermalSolver,
};

/// Consistency tolerance (K) on block mean/max temperatures.
const AGREE_TOL_K: f64 = 1e-6;

/// Runs per row; the row keeps the fastest.
const REPEATS: usize = 3;

/// One measurement: a (grid, kind) cell.
#[derive(Debug, Clone)]
struct ThermalRow {
    grid_side: usize,
    n_cells: usize,
    /// `steady`, `leakage_warm`, `leakage_cold` or `transient`.
    kind: String,
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
    /// For `leakage_cold`: whether its block temperatures match the warm
    /// fixed point's (the run exits non-zero if any is false); true on
    /// the other rows.
    consistent: bool,
}

impl_json_struct!(ThermalRow {
    grid_side,
    n_cells,
    kind,
    assembly_s,
    precond_s,
    solve_s,
    total_s,
    outer_iters,
    total_cg_iters,
    final_residual,
    consistent
});

/// The whole report (`BENCH_thermal.json`).
#[derive(Debug, Clone)]
struct ThermalReport {
    rows: Vec<ThermalRow>,
}

impl_json_struct!(ThermalReport { rows });

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

fn config(side: usize, warm_start: bool) -> ThermalConfig {
    ThermalConfig {
        nx: side,
        ny: side,
        warm_start,
        ..ThermalConfig::default()
    }
}

/// Block mean and max temperatures, the quantities the reliability model
/// consumes — the consistency contract between warm and cold starts.
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

/// Runs `solve` [`REPEATS`] times; returns the fastest run's output and
/// its wall time.
fn fastest<T>(mut solve: impl FnMut() -> T) -> (T, f64) {
    let mut timed = || {
        let t0 = std::time::Instant::now();
        let out = solve();
        (out, t0.elapsed().as_secs_f64())
    };
    let mut best = timed();
    for _ in 1..REPEATS {
        let run = timed();
        if run.1 < best.1 {
            best = run;
        }
    }
    best
}

fn print_row(row: &ThermalRow) {
    println!(
        "  {:<13} outer {:>3}  cg {:>6}  asm {:>7.4}s  pre {:>7.4}s  \
         solve {:>8.4}s  total {:>8.4}s  {}",
        row.kind,
        row.outer_iters,
        row.total_cg_iters,
        row.assembly_s,
        row.precond_s,
        row.solve_s,
        row.total_s,
        if row.consistent { "ok" } else { "MISMATCH" }
    );
}

fn main() {
    let mut cli = Cli::from_env();
    let grids = cli.flag(
        "--grids",
        list(at_least(1)),
        vec![64, 128, 256, 512],
        vec![32, 64],
    );
    let mut gates = cli.gates("BENCH_thermal.json");
    let fp = alpha_ev6_floorplan().expect("floorplan");
    let pm = alpha_ev6_power().expect("power");
    let pm_steady = zero_leakage(&pm);

    let mut rows: Vec<ThermalRow> = Vec::new();
    for &side in &grids {
        println!("grid {side}x{side} ({} cells):", side * side);
        // Steady: one linear solve; then the leakage fixed point, warm vs
        // cold.
        let mut warm_temps = Vec::new();
        for (kind, power, warm) in [
            ("steady", &pm_steady, true),
            ("leakage_warm", &pm, true),
            ("leakage_cold", &pm, false),
        ] {
            let solver = ThermalSolver::new(config(side, warm));
            let (map, total_s) = fastest(|| solver.solve(&fp, power).expect("thermal solve"));
            let temps = block_temps(&map, &fp);
            let consistent = kind != "leakage_cold" || agrees(&temps, &warm_temps);
            gates.check(consistent, || {
                format!("{side}x{side}: cold-start block temperatures diverged from warm-start")
            });
            if kind == "leakage_warm" {
                warm_temps = temps;
            }
            let b = map.breakdown();
            let row = ThermalRow {
                grid_side: side,
                n_cells: side * side,
                kind: kind.to_string(),
                assembly_s: b.assembly_s,
                precond_s: b.precond_s,
                solve_s: b.solve_s,
                total_s,
                outer_iters: map.leakage_iterations(),
                total_cg_iters: map.total_cg_iterations(),
                final_residual: map.final_residual(),
                consistent,
            };
            print_row(&row);
            rows.push(row);
        }

        // Transient: 3 vertical time constants.
        let cfg = config(side, true);
        let tau_v = cfg.r_package * cfg.c_volumetric * cfg.die_thickness;
        let solver = ThermalSolver::new(cfg);
        let (result, total_s) = fastest(|| {
            solver
                .solve_transient(&fp, &pm, cfg.ambient_k, 3.0 * tau_v, 3)
                .expect("transient solve")
        });
        let s = &result.stats;
        let row = ThermalRow {
            grid_side: side,
            n_cells: side * side,
            kind: "transient".to_string(),
            assembly_s: s.assembly_s,
            precond_s: s.precond_s,
            solve_s: s.solve_s,
            total_s,
            outer_iters: s.steps,
            total_cg_iters: s.total_cg_iterations,
            final_residual: 0.0,
            consistent: true,
        };
        print_row(&row);
        rows.push(row);
    }

    gates.finish(&ThermalReport { rows });
}
