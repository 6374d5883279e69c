//! Reproduces **Table III**: lifetime-estimation accuracy and runtime of
//! `st_fast`, `st_MC`, `hybrid` and `guard` against the Monte-Carlo
//! reference, for designs C1–C6 at the 1- and 10-faults-per-million
//! criteria.
//!
//! Run with `--quick` to use fewer Monte-Carlo chips and skip the largest
//! designs (useful for smoke testing).

use statobd_bench::*;
use statobd_circuits::{build_design, Benchmark, DesignConfig};
use statobd_core::{MonteCarloConfig, StMcConfig};
use statobd_device::ClosedFormTech;

fn main() {
    let quick = statobd_bench::harness::quick_flag();
    let designs: Vec<Benchmark> = if quick {
        vec![Benchmark::C1, Benchmark::C2]
    } else {
        Benchmark::table_iii().to_vec()
    };
    let mc_chips = if quick { 200 } else { 1000 };

    println!("== Table III: accuracy and runtime vs Monte-Carlo ==");
    println!(
        "   (rho_dist = {}, {}x{} correlation grid, {} MC chips)",
        statobd_core::params::DEFAULT_CORRELATION_DISTANCE,
        statobd_core::params::DEFAULT_GRID_SIDE,
        statobd_core::params::DEFAULT_GRID_SIDE,
        mc_chips
    );
    println!();

    let tech = ClosedFormTech::nominal_45nm();
    let config = DesignConfig::default();

    // All Table III designs share the die size and grid; the thickness
    // model (PCA) is the paper's shared pre-processing step.
    let first = build_design(designs[0], &config).expect("design construction");
    let model = thickness_model_for(&first, statobd_core::params::DEFAULT_CORRELATION_DISTANCE);

    println!(
        "{:<5} {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "ckt.",
        "#device",
        "st_fast",
        "st_MC",
        "hybrid",
        "guard",
        "st_fast",
        "st_MC",
        "hybrid",
        "guard"
    );
    println!(
        "{:<5} {:>9} | {:^35} | {:^35}",
        "", "", "err% @ 1/million", "err% @ 10/million"
    );
    println!("{}", "-".repeat(100));

    let mut rows = Vec::new();
    for &bench in &designs {
        let built = build_design(bench, &config).expect("design construction");
        let analysis = analyze(&built, &model, &tech).expect("characterization");

        let mc = run_mc(
            &analysis,
            MonteCarloConfig {
                n_chips: mc_chips,
                ..Default::default()
            },
        )
        .expect("MC");
        let fast = run_st_fast(&analysis).expect("st_fast");
        let smc = run_st_mc(&analysis, StMcConfig::default()).expect("st_MC");
        let (hybrid_build_s, hybrid) = run_hybrid(&analysis).expect("hybrid");
        let guard = run_guard(&analysis).expect("guard");

        let (f1, f10) = fast.error_pct(&mc);
        let (s1, s10) = smc.error_pct(&mc);
        let (h1, h10) = hybrid.error_pct(&mc);
        let (g1, g10) = guard.error_pct(&mc);
        println!(
            "{:<5} {:>9} | {:>8.2} {:>8.2} {:>8.2} {:>8.1} | {:>8.2} {:>8.2} {:>8.2} {:>8.1}",
            bench.name(),
            built.spec.total_devices(),
            f1,
            s1,
            h1,
            g1,
            f10,
            s10,
            h10,
            g10
        );
        rows.push((bench, built, fast, smc, hybrid, hybrid_build_s, guard, mc));
    }

    println!();
    println!("== Runtime (s) / speed-up w.r.t. MC ==");
    println!(
        "{:<5} | {:>10} {:>9} | {:>10} {:>9} | {:>12} {:>11} | {:>10}",
        "ckt.", "st_fast", "speedup", "st_MC", "speedup", "hybrid(query)", "speedup", "MC"
    );
    println!("{}", "-".repeat(95));
    for (bench, _built, fast, smc, hybrid, hybrid_build_s, _guard, mc) in &rows {
        println!(
            "{:<5} | {:>10} {:>8.0}x | {:>10} {:>8.0}x | {:>12} {:>10.0}x | {:>10}",
            bench.name(),
            fmt_seconds(fast.runtime_s),
            mc.runtime_s / fast.runtime_s,
            fmt_seconds(smc.runtime_s),
            mc.runtime_s / smc.runtime_s,
            fmt_seconds(hybrid.runtime_s),
            mc.runtime_s / hybrid.runtime_s,
            fmt_seconds(mc.runtime_s),
        );
        let _ = hybrid_build_s;
    }
    println!();
    println!("== Lifetime estimates (MC reference) ==");
    for (bench, _built, _fast, _smc, _hybrid, hybrid_build_s, guard, mc) in &rows {
        println!(
            "{:<5} 1/million: {}   10/million: {}   guard 1/million: {}   (hybrid table build: {})",
            bench.name(),
            fmt_lifetime(mc.t_1pm),
            fmt_lifetime(mc.t_10pm),
            fmt_lifetime(guard.t_1pm),
            fmt_seconds(*hybrid_build_s),
        );
    }
    println!();
    println!("Expected shape (paper): st_fast/st_MC/hybrid within ~1-3% of MC;");
    println!("guard ~40-60% pessimistic; st_* runtimes roughly flat in device count");
    println!("while MC grows with devices; hybrid queries 3-5 orders faster than MC.");
}
