//! Model-construction benchmark: times `ThicknessModelBuilder` (one
//! full-spectrum tridiagonal-QL decomposition per grid) and emits
//! machine-readable `BENCH_models.json` so the repo accumulates a perf
//! trajectory for the spectral pipeline.
//!
//! For each correlation-grid size the runner builds the Table II model,
//! records the covariance/eigen/truncation wall-time breakdown from
//! [`statobd_variation::ModelBuildStats`], and checks the model against
//! the covariance it decomposed: the loadings must reproduce it, `L·Lᵀ`
//! against `Σ`, to [`MAX_RESIDUAL`] relative Frobenius norm.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin models -- \
//!     [--quick] [--out BENCH_models.json] [--grids 8,16,25,32]
//! ```
//!
//! Output schema (one JSON object):
//!
//! ```text
//! { "rows": [ { "grid_side": 32, "n_grids": 1024,
//!   "n_components": ..., "covariance_s": ..., "eigen_s": ...,
//!   "truncation_s": ..., "total_s": ..., "residual": ... }, ... ] }
//! ```

use statobd_bench::harness::Cli;
use statobd_core::params::NOMINAL_THICKNESS_NM;
use statobd_num::flags::{at_least, list};
use statobd_num::impl_json_struct;
use statobd_num::matrix::DMatrix;
use statobd_variation::{
    CorrelationKernel, GridSpec, ThicknessModel, ThicknessModelBuilder, VarianceBudget,
};

/// Largest `‖Σ − L·Lᵀ‖_F / ‖Σ‖_F` the gate accepts. QL reproduces the
/// covariance to ~1e-14; an eigenvalue off by 1 % moves the residual by
/// 1 % of that eigenvalue over `‖Σ‖_F`, far above this bar for every
/// component the model keeps.
const MAX_RESIDUAL: f64 = 1e-10;

/// One measurement: a correlation grid.
#[derive(Debug, Clone)]
struct ModelRow {
    grid_side: usize,
    n_grids: usize,
    n_components: usize,
    /// Covariance assembly seconds.
    covariance_s: f64,
    /// Eigendecomposition seconds (the dominant cost at scale).
    eigen_s: f64,
    /// Loading truncation/scaling seconds.
    truncation_s: f64,
    /// Whole model construction.
    total_s: f64,
    /// `‖Σ − L·Lᵀ‖_F / ‖Σ‖_F` of the built model (gated at
    /// [`MAX_RESIDUAL`]).
    residual: f64,
}

impl_json_struct!(ModelRow {
    grid_side,
    n_grids,
    n_components,
    covariance_s,
    eigen_s,
    truncation_s,
    total_s,
    residual
});

/// The whole report (`BENCH_models.json`).
#[derive(Debug, Clone)]
struct ModelReport {
    rows: Vec<ModelRow>,
}

impl_json_struct!(ModelReport { rows });

/// Relative Frobenius distance of the model's covariance `L·Lᵀ` from the
/// covariance `Σ` the builder assembled and decomposed (the same kernel
/// and budget, rebuilt here entry by entry).
fn residual(model: &ThicknessModel) -> f64 {
    let grid = model.grid();
    let kernel = model.kernel();
    let var_g = model.budget().sigma_global().powi(2);
    let var_s = model.budget().sigma_spatial().powi(2);
    let dim = grid.max_dimension();
    let n = model.n_grids();
    let l = model.loadings();
    let llt = l.mul(&l.transpose()).expect("square product");
    let sigma = DMatrix::from_fn(n, n, |i, j| {
        var_g + var_s * kernel.correlation(grid.distance(i, j), dim)
    });
    let diff = DMatrix::from_fn(n, n, |i, j| sigma[(i, j)] - llt[(i, j)]);
    diff.frobenius_norm() / sigma.frobenius_norm()
}

fn main() {
    let mut cli = Cli::from_env();
    // A 1×1 grid has no correlation structure to decompose. 25 × 25 is
    // the paper's grid, whose 625² eigensolve every cold build pays.
    let grids = cli.flag(
        "--grids",
        list(at_least(2)),
        vec![8, 16, 25, 32],
        vec![8, 16],
    );
    let mut gates = cli.gates("BENCH_models.json");
    let mut rows = Vec::new();

    for &side in &grids {
        let (model, stats) = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(side).expect("grid"))
            .nominal(NOMINAL_THICKNESS_NM)
            .budget(VarianceBudget::itrs_2008(NOMINAL_THICKNESS_NM).expect("budget"))
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build_with_stats()
            .expect("model builds");
        let residual = residual(&model);
        gates.check(residual <= MAX_RESIDUAL, || {
            format!(
                "{side}x{side}: the model reproduces its covariance only to {residual:.3e} \
                 relative (gate {MAX_RESIDUAL:e})"
            )
        });
        let row = ModelRow {
            grid_side: side,
            n_grids: stats.n_grids,
            n_components: stats.n_components,
            covariance_s: stats.covariance_s,
            eigen_s: stats.eigen_s,
            truncation_s: stats.truncation_s,
            total_s: stats.total_s(),
            residual,
        };
        println!(
            "grid {side:>3}x{side:<3} ({:>5} grids) k={:<5} cov {:>8.4}s  eigen {:>9.4}s  \
             trunc {:>8.4}s  total {:>9.4}s  residual {:.2e}",
            row.n_grids,
            row.n_components,
            row.covariance_s,
            row.eigen_s,
            row.truncation_s,
            row.total_s,
            row.residual
        );
        rows.push(row);
    }

    gates.finish(&ModelReport { rows });
}
