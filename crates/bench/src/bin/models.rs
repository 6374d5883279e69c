//! Model-construction benchmark: times `ThicknessModelBuilder` across the
//! spectral backends (Householder+QL full spectrum, the reference, and
//! Lanczos top-k) and emits machine-readable `BENCH_models.json` so the
//! repo accumulates a perf trajectory for the spectral pipeline.
//!
//! For each correlation-grid size the runner builds the Table II model
//! with every requested solver at the full spectrum and at the default
//! energy target, records the covariance/eigen/truncation wall-time
//! breakdown from [`statobd_variation::ModelBuildStats`], and verifies
//! that every solver retained the same component count and produces the
//! same model covariance.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin models -- \
//!     [--quick] [--out BENCH_models.json] [--grids 8,16,32] \
//!     [--threads 1] [--solvers tridiagonal_ql,lanczos] \
//!     [--energy 0.95]
//! ```
//!
//! Defaults measure the algorithmic win at `--threads 1`. Output schema
//! (one JSON object):
//!
//! ```text
//! { "threads": 1, "energy": 0.95, "rows": [ { "grid_side": 32,
//!   "n_grids": 1024, "solver": "lanczos", "energy_fraction": 0.95,
//!   "n_components": ..., "covariance_s": ..., "eigen_s": ...,
//!   "truncation_s": ..., "total_s": ..., "speedup_vs_ql": ...,
//!   "consistent": true }, ... ] }
//! ```

use statobd_bench::harness::Cli;
use statobd_core::params::NOMINAL_THICKNESS_NM;
use statobd_num::eigen::{SpectralOptions, SpectralSolver};
use statobd_num::flags::{at_least, fraction, list};
use statobd_num::impl_json_struct;
use statobd_variation::{
    CorrelationKernel, GridSpec, ThicknessModel, ThicknessModelBuilder, VarianceBudget,
};

/// Default energy target for the top-k rows. The exponential kernel has a
/// flat spectral tail (0.99 of the energy already needs over half the
/// components), so 0.95 is the regime where truncation genuinely pays.
const DEFAULT_ENERGY: f64 = 0.95;

/// One measurement: a (grid, solver, energy target) cell.
#[derive(Debug, Clone)]
struct ModelRow {
    grid_side: usize,
    n_grids: usize,
    solver: String,
    energy_fraction: f64,
    n_components: usize,
    /// Covariance assembly seconds.
    covariance_s: f64,
    /// Eigendecomposition seconds (the dominant cost at scale).
    eigen_s: f64,
    /// Loading truncation/scaling seconds.
    truncation_s: f64,
    /// Whole model construction.
    total_s: f64,
    /// QL total at the same energy target divided by this total (0 when no
    /// QL baseline ran).
    speedup_vs_ql: f64,
    /// Whether the model matches the QL-built one (component count and
    /// probed covariance entries; the run aborts non-zero if any is false).
    consistent: bool,
}

impl_json_struct!(ModelRow {
    grid_side,
    n_grids,
    solver,
    energy_fraction,
    n_components,
    covariance_s,
    eigen_s,
    truncation_s,
    total_s,
    speedup_vs_ql,
    consistent
});

/// The whole report (`BENCH_models.json`).
#[derive(Debug, Clone)]
struct ModelReport {
    /// Worker threads every decomposition was pinned to (0 = all cores).
    threads: usize,
    /// Energy target used for the top-k rows.
    energy: f64,
    rows: Vec<ModelRow>,
}

impl_json_struct!(ModelReport {
    threads,
    energy,
    rows
});

fn parse_solver(name: &str) -> Result<SpectralSolver, String> {
    match name.to_ascii_lowercase().as_str() {
        "tridiagonal_ql" | "ql" => Ok(SpectralSolver::TridiagonalQl),
        "lanczos" => Ok(SpectralSolver::Lanczos),
        other => Err(format!(
            "unknown solver {other:?} (expected tridiagonal_ql or lanczos)"
        )),
    }
}

fn build_with(
    side: usize,
    spectral: SpectralOptions,
) -> (ThicknessModel, statobd_variation::ModelBuildStats) {
    ThicknessModelBuilder::new()
        .grid(GridSpec::square_unit(side).expect("grid"))
        .nominal(NOMINAL_THICKNESS_NM)
        .budget(VarianceBudget::itrs_2008(NOMINAL_THICKNESS_NM).expect("budget"))
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .spectral(spectral)
        .build_with_stats()
        .expect("model builds")
}

/// Component count plus probed covariance entries must match the QL
/// reference (the spectral backend must not change the model).
fn models_agree(model: &ThicknessModel, reference: &ThicknessModel) -> bool {
    let n = reference.n_grids();
    if model.n_grids() != n || model.n_components() != reference.n_components() {
        return false;
    }
    let scale = reference.covariance(0, 0).abs().max(1e-300);
    [(0, 0), (0, n - 1), (n / 3, n / 2), (n - 1, n - 1)]
        .iter()
        .all(|&(a, b)| (model.covariance(a, b) - reference.covariance(a, b)).abs() < 1e-6 * scale)
}

fn main() {
    let mut cli = Cli::from_env();
    let threads = cli.threads(1);
    // A 1×1 grid has no correlation structure to decompose.
    let grids = cli.flag("--grids", list(at_least(2)), vec![8, 16, 32], vec![8, 16]);
    let all_solvers = vec![SpectralSolver::TridiagonalQl, SpectralSolver::Lanczos];
    let solvers = cli.flag(
        "--solvers",
        list(parse_solver),
        all_solvers.clone(),
        all_solvers,
    );
    let energy = cli.flag("--energy", fraction, DEFAULT_ENERGY, DEFAULT_ENERGY);
    let mut gates = cli.gates("BENCH_models.json");
    let mut rows = Vec::new();

    for &side in &grids {
        let n = side * side;
        println!("grid {side}x{side} ({n} grids):");
        // Lanczos computes only the retained components, so a full-spectrum
        // request would just fall through to the dense path — skip that
        // redundant cell.
        let energies = if energy < 1.0 {
            vec![1.0, energy]
        } else {
            vec![1.0]
        };
        for &energy in &energies {
            let mut reference: Option<ThicknessModel> = None;
            for &solver in &solvers {
                if solver == SpectralSolver::Lanczos && energy >= 1.0 {
                    continue;
                }
                let spectral = SpectralOptions::energy(energy)
                    .with_solver(solver)
                    .with_threads(threads);
                let (model, stats) = build_with(side, spectral);
                let consistent = reference
                    .as_ref()
                    .map(|r| models_agree(&model, r))
                    .unwrap_or(true);
                gates.check(consistent, || {
                    format!(
                        "{side}x{side} {} at energy {energy}: model diverged from the \
                         QL reference",
                        solver.name()
                    )
                });
                if solver == SpectralSolver::TridiagonalQl {
                    reference = Some(model);
                }
                let baseline = rows
                    .iter()
                    .find(|r: &&ModelRow| {
                        r.grid_side == side
                            && r.solver == "tridiagonal_ql"
                            && r.energy_fraction == energy
                    })
                    .map(|r| r.total_s);
                let total_s = stats.total_s();
                let row = ModelRow {
                    grid_side: side,
                    n_grids: n,
                    solver: solver.name().to_string(),
                    energy_fraction: energy,
                    n_components: stats.n_components,
                    covariance_s: stats.covariance_s,
                    eigen_s: stats.eigen_s,
                    truncation_s: stats.truncation_s,
                    total_s,
                    speedup_vs_ql: baseline.map(|b| b / total_s.max(1e-12)).unwrap_or(0.0),
                    consistent,
                };
                println!(
                    "  {:<14} energy {:<6} k={:<4} cov {:>8.4}s  eigen {:>9.4}s  \
                     trunc {:>8.4}s  total {:>9.4}s  {:>7.1}x  {}",
                    row.solver,
                    row.energy_fraction,
                    row.n_components,
                    row.covariance_s,
                    row.eigen_s,
                    row.truncation_s,
                    row.total_s,
                    row.speedup_vs_ql,
                    if consistent { "ok" } else { "MISMATCH" }
                );
                rows.push(row);
            }
        }
    }

    gates.finish(&ModelReport {
        threads,
        energy,
        rows,
    });
}
