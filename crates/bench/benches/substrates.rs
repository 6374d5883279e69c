//! Benchmarks of the substrate layers: PCA model construction (the
//! paper's pre-processing step), the thermal solver, and the numerical
//! kernels the engines lean on. Plain `fn main` harness
//! (`harness = false`) built on [`statobd_bench::timing`].

use statobd_bench::timing::Group;
use statobd_num::eigen::SymmetricEigen;
use statobd_num::matrix::DMatrix;
use statobd_num::special::{gamma_p, norm_inv_cdf};
use statobd_thermal::{alpha_ev6_floorplan, alpha_ev6_power, ThermalConfig, ThermalSolver};
use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};
use std::hint::black_box;

fn bench_pca_model_build() {
    let group = Group::new("pca_model_build");
    for side in [5usize, 10, 15] {
        group.bench(&format!("{}_grids", side * side), || {
            black_box(
                ThicknessModelBuilder::new()
                    .grid(GridSpec::square_unit(side).unwrap())
                    .nominal(2.2)
                    .budget(VarianceBudget::itrs_2008(2.2).unwrap())
                    .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
                    .build()
                    .unwrap(),
            )
        });
    }
}

fn bench_spectral_eigen() {
    let group = Group::new("spectral_eigen");
    for n in [64usize, 256, 1024] {
        let a = DMatrix::from_fn(n, n, |i, j| {
            (-((i as f64 - j as f64).abs()) / (n as f64 / 4.0)).exp()
        });
        group.bench(&format!("tridiagonal_ql_{n}x{n}"), || {
            black_box(SymmetricEigen::new(&a).unwrap())
        });
    }
}

fn bench_thermal_solve() {
    let fp = alpha_ev6_floorplan().expect("floorplan");
    let pm = alpha_ev6_power().expect("power");
    let group = Group::new("thermal_solve");
    for grid in [32usize, 64] {
        let solver = ThermalSolver::new(ThermalConfig {
            nx: grid,
            ny: grid,
            ..ThermalConfig::default()
        });
        group.bench(&format!("{}_cells", grid * grid), || {
            black_box(solver.solve(&fp, &pm).unwrap())
        });
    }
}

fn bench_special_functions() {
    let group = Group::new("special_functions");
    group.bench("gamma_p", || {
        black_box(gamma_p(black_box(3.7), black_box(2.9)).unwrap())
    });
    group.bench("norm_inv_cdf", || {
        black_box(norm_inv_cdf(black_box(1e-6)).unwrap())
    });
}

fn main() {
    bench_pca_model_build();
    bench_spectral_eigen();
    bench_thermal_solve();
    bench_special_functions();
}
