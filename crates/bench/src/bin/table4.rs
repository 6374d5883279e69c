//! Reproduces **Table IV**: lifetime-estimation error of the proposed
//! `st_fast` method w.r.t. Monte-Carlo for three relative correlation
//! distances (`ρ_dist ∈ {0.25, 0.5, 0.75}`), designs C1–C6.
//!
//! Run with `--quick` for a reduced sweep.

use statobd_bench::*;
use statobd_circuits::{build_design, Benchmark, DesignConfig};
use statobd_core::MonteCarloConfig;
use statobd_device::ClosedFormTech;

fn main() {
    let quick = statobd_bench::harness::quick_flag();
    let designs: Vec<Benchmark> = if quick {
        vec![Benchmark::C1, Benchmark::C2]
    } else {
        Benchmark::table_iii().to_vec()
    };
    let mc_chips = if quick { 200 } else { 1000 };
    let rhos = [0.25, 0.5, 0.75];

    println!("== Table IV: st_fast error vs MC for different correlation distances ==");
    println!();
    println!(
        "{:<5} | {:>9} {:>10} | {:>9} {:>10} | {:>9} {:>10}",
        "ckt.", "1/mil", "10/mil", "1/mil", "10/mil", "1/mil", "10/mil"
    );
    println!(
        "{:<5} | {:^20} | {:^20} | {:^20}",
        "", "rho = 0.25", "rho = 0.5", "rho = 0.75"
    );
    println!("{}", "-".repeat(75));

    let tech = ClosedFormTech::nominal_45nm();
    let config = DesignConfig::default();

    // Pre-build the three thickness models (PCA once per rho).
    let probe = build_design(designs[0], &config).expect("design construction");
    let models: Vec<_> = rhos
        .iter()
        .map(|&rho| thickness_model_for(&probe, rho))
        .collect();

    for bench in designs {
        let built = build_design(bench, &config).expect("design construction");
        let mut cells = Vec::new();
        for model in &models {
            let analysis = analyze(&built, model, &tech).expect("characterization");
            let mc = run_mc(
                &analysis,
                MonteCarloConfig {
                    n_chips: mc_chips,
                    ..Default::default()
                },
            )
            .expect("MC");
            let fast = run_st_fast(&analysis).expect("st_fast");
            let (e1, e10) = fast.error_pct(&mc);
            cells.push((e1, e10));
        }
        println!(
            "{:<5} | {:>8.2}% {:>9.2}% | {:>8.2}% {:>9.2}% | {:>8.2}% {:>9.2}%",
            bench.name(),
            cells[0].0,
            cells[0].1,
            cells[1].0,
            cells[1].1,
            cells[2].0,
            cells[2].1
        );
    }
    println!();
    println!("Expected shape (paper): errors stay at the few-percent level for every");
    println!("correlation distance, typically largest at rho = 0.25 (sharpest spatial");
    println!("structure for the grid model to capture).");
}
