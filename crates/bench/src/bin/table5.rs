//! Reproduces **Table V**: lifetime-estimation error of `st_fast` for
//! design C2 at three correlation-grid resolutions (10×10, 20×20, 25×25)
//! and three correlation distances, against a Monte-Carlo reference that
//! always uses the 25×25 model (as the paper does).
//!
//! Run with `--quick` to reduce the Monte-Carlo chip count.

use statobd_bench::*;
use statobd_circuits::{build_design, Benchmark, DesignConfig};
use statobd_core::MonteCarloConfig;
use statobd_device::ClosedFormTech;

fn main() {
    let quick = statobd_bench::harness::quick_flag();
    let mc_chips = if quick { 200 } else { 1000 };
    let rhos = [0.05, 0.25, 0.5];
    let grid_sides = [10usize, 20, 25];

    println!(
        "== Table V: st_fast error vs MC (25x25 reference) for grid resolutions, design C2 =="
    );
    println!();

    let tech = ClosedFormTech::nominal_45nm();

    // Reference: MC on the 25x25 model, one per rho.
    let ref_config = DesignConfig {
        correlation_grid_side: 25,
        ..DesignConfig::default()
    };
    let ref_built = build_design(Benchmark::C2, &ref_config).expect("reference design");
    let mut mc_refs = Vec::new();
    for &rho in &rhos {
        let model = thickness_model_for(&ref_built, rho);
        let analysis = analyze(&ref_built, &model, &tech).expect("characterization");
        let mc = run_mc(
            &analysis,
            MonteCarloConfig {
                n_chips: mc_chips,
                ..Default::default()
            },
        )
        .expect("MC");
        mc_refs.push(mc);
    }

    println!(
        "{:<10} | {:>9} {:>10} | {:>9} {:>10} | {:>9} {:>10}",
        "grid", "1/mil", "10/mil", "1/mil", "10/mil", "1/mil", "10/mil"
    );
    println!(
        "{:<10} | {:^20} | {:^20} | {:^20}",
        "", "rho = 0.05", "rho = 0.25", "rho = 0.5"
    );
    println!("{}", "-".repeat(80));

    for &side in &grid_sides {
        let config = DesignConfig {
            correlation_grid_side: side,
            ..DesignConfig::default()
        };
        let built = build_design(Benchmark::C2, &config).expect("design construction");
        let mut cells = Vec::new();
        for (i, &rho) in rhos.iter().enumerate() {
            let model = thickness_model_for(&built, rho);
            let analysis = analyze(&built, &model, &tech).expect("characterization");
            let fast = run_st_fast(&analysis).expect("st_fast");
            let (e1, e10) = fast.error_pct(&mc_refs[i]);
            cells.push((e1, e10));
        }
        println!(
            "{:<10} | {:>8.2}% {:>9.2}% | {:>8.2}% {:>9.2}% | {:>8.2}% {:>9.2}%",
            format!("{side} x {side}"),
            cells[0].0,
            cells[0].1,
            cells[1].0,
            cells[1].1,
            cells[2].0,
            cells[2].1
        );
    }
    // Pure discretization error: st_fast on the coarse grid vs st_fast on
    // the 25x25 reference grid — no Monte-Carlo noise.
    println!();
    println!("Pure discretization error of st_fast (vs st_fast on 25x25, no MC noise):");
    println!(
        "{:<10} | {:>10} | {:>10} | {:>10}",
        "grid", "rho=0.05", "rho=0.25", "rho=0.5"
    );
    println!("{}", "-".repeat(52));
    // Reference lifetimes on the 25x25 grid.
    let mut ref_t = Vec::new();
    for &rho in &rhos {
        let model = thickness_model_for(&ref_built, rho);
        let analysis = analyze(&ref_built, &model, &tech).expect("characterization");
        let fast = run_st_fast(&analysis).expect("st_fast");
        ref_t.push(fast.t_1pm);
    }
    for &side in &grid_sides {
        let config = DesignConfig {
            correlation_grid_side: side,
            ..DesignConfig::default()
        };
        let built = build_design(Benchmark::C2, &config).expect("design construction");
        let mut cells = Vec::new();
        for (i, &rho) in rhos.iter().enumerate() {
            let model = thickness_model_for(&built, rho);
            let analysis = analyze(&built, &model, &tech).expect("characterization");
            let fast = run_st_fast(&analysis).expect("st_fast");
            cells.push(100.0 * ((fast.t_1pm - ref_t[i]) / ref_t[i]).abs());
        }
        println!(
            "{:<10} | {:>9.3}% | {:>9.3}% | {:>9.3}%",
            format!("{side} x {side}"),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    println!();
    println!("Expected shape (paper): error decreases (in general) as the grid is");
    println!("refined towards the 25x25 reference, while even the coarsest 10x10 grid");
    println!("stays accurate. Finding here: the pure discretization error decreases");
    println!("with refinement but is orders of magnitude below the MC noise floor -");
    println!("with the Table II budget (50% global variance) and processor-scale");
    println!("blocks, the BLOD projection is essentially grid-resolution independent,");
    println!("which *strengthens* the paper's conclusion that a coarse grid suffices.");
}
