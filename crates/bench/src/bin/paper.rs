//! Reproduces the paper's evaluation: Tables III–V, Figs. 1, 3, 4, 6–7,
//! 8 and 10, and the ablation studies of DESIGN.md §6.
//!
//! `paper [--quick] [--only name,name,...]` runs every experiment in
//! paper order, or the named ones in the order given: `table3`, `table4`,
//! `table5`, `fig1`, `fig3`, `fig4`, `fig6_7`, `fig8`, `fig10` and
//! `ablation`. `--quick` shrinks the Monte-Carlo references (Tables III–V
//! run C1 and C2 against 200 chips, Fig. 10 against 500); the fixed-size
//! figures and the ablations ignore it. A bad or unknown flag, an unknown
//! name or a stray argument exits 2 before any experiment runs.

use statobd_bench::harness::Cli;
use statobd_bench::{analyze, thickness_model_for, BRACKET};
use statobd_circuits::{build_design, Benchmark, DesignConfig};
use statobd_core::params::{
    DEFAULT_CORRELATION_DISTANCE, DEFAULT_GRID_SIDE, ONE_PER_MILLION, TEN_PER_MILLION,
};
use statobd_core::{
    build_engine, failure_rate_curve, solve_lifetime, BlockSpec, BlodMoments, ChipAnalysis,
    EngineSpec, GuardBand, GuardBandConfig, HybridConfig, HybridTables, MonteCarlo,
    MonteCarloConfig, Result as CoreResult, StClosed, StFast, StFastConfig, StMc, StMcConfig,
    VarianceMethod,
};
use statobd_device::{ClosedFormTech, DegradationSimulator, PercolationConfig};
use statobd_num::dist::{ContinuousDistribution, Normal};
use statobd_num::flags::list;
use statobd_num::hist::{Histogram1d, Histogram2d};
use statobd_num::rng::{NormalSampler, Xoshiro256pp};
use statobd_num::stats::{ks_distance, mean, mutual_information, r_squared, sample_variance};
use statobd_thermal::{
    alpha_ev6_floorplan, alpha_ev6_power, kelvin_to_celsius, many_core_floorplan, many_core_power,
    Floorplan, PowerModel, TemperatureMap, ThermalConfig, ThermalSolver,
};
use statobd_variation::{
    CorrelationKernel, FieldSampler, GridSpec, ThicknessModel, ThicknessModelBuilder,
    VarianceBudget,
};
use std::ops::Range;
use std::time::Instant;

/// An experiment's body; it takes `--quick`.
type Experiment = fn(bool);

/// Every experiment with its `--only` name, in paper order.
const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6_7", fig6_7),
    ("fig8", fig8),
    ("fig10", fig10),
    ("ablation", ablation),
];

fn main() {
    let mut cli = Cli::from_env();
    let all: Vec<Experiment> = EXPERIMENTS.iter().map(|&(_, run)| run).collect();
    let chosen = cli.flag("--only", list(experiment), all.clone(), all);
    let quick = cli.finish();
    for (i, run) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(quick);
    }
}

/// Parses one `--only` name.
fn experiment(name: &str) -> Result<Experiment, String> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(n, _)| n).collect();
    EXPERIMENTS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, run)| run)
        .ok_or_else(|| {
            format!(
                "unknown experiment {name:?} (expected {})",
                names.join(", ")
            )
        })
}

/// The Table III–V designs and the chips of their Monte-Carlo reference:
/// C1–C6 against 1000 chips, or C1 and C2 against 200 under `--quick`.
fn table_setup(quick: bool) -> (Vec<Benchmark>, usize) {
    if quick {
        (vec![Benchmark::C1, Benchmark::C2], 200)
    } else {
        (Benchmark::table_iii().to_vec(), 1000)
    }
}

/// The Monte-Carlo reference engine over `n_chips` chips.
fn mc_spec(n_chips: usize) -> EngineSpec {
    EngineSpec::MonteCarlo(MonteCarloConfig {
        n_chips,
        ..Default::default()
    })
}

/// Lifetimes of one method at the two per-million criteria, plus its
/// runtime.
#[derive(Debug, Clone)]
struct MethodResult {
    /// Lifetime (s) at 1 fault per million parts.
    t_1pm: f64,
    /// Lifetime (s) at 10 faults per million parts.
    t_10pm: f64,
    /// Wall-clock seconds spent (engine construction + both solves).
    runtime_s: f64,
}

impl MethodResult {
    /// Relative lifetime errors (%) against a reference, at 1 and 10 per
    /// million.
    fn error_pct(&self, reference: &MethodResult) -> (f64, f64) {
        (
            100.0 * ((self.t_1pm - reference.t_1pm) / reference.t_1pm).abs(),
            100.0 * ((self.t_10pm - reference.t_10pm) / reference.t_10pm).abs(),
        )
    }
}

/// Times `build` and the lifetimes its engine gives at 1 and 10 faults
/// per million.
fn timed<E>(
    build: impl FnOnce() -> CoreResult<E>,
    lifetime: impl Fn(&mut E, f64) -> CoreResult<f64>,
) -> CoreResult<MethodResult> {
    let start = Instant::now();
    let mut engine = build()?;
    let t_1pm = lifetime(&mut engine, ONE_PER_MILLION)?;
    let t_10pm = lifetime(&mut engine, TEN_PER_MILLION)?;
    Ok(MethodResult {
        t_1pm,
        t_10pm,
        runtime_s: start.elapsed().as_secs_f64(),
    })
}

/// Runs any engine selected by an [`EngineSpec`]: construction plus both
/// per-million lifetime solves, timed.
fn run_engine(analysis: &ChipAnalysis, spec: &EngineSpec) -> CoreResult<MethodResult> {
    timed(
        || build_engine(analysis, spec),
        |e, p| solve_lifetime(e.as_mut(), p, BRACKET),
    )
}

/// Builds the hybrid tables (the one-time step), then times the
/// lookup-based solves; returns `(build seconds, query result)`.
fn run_hybrid(analysis: &ChipAnalysis) -> CoreResult<(f64, MethodResult)> {
    let start = Instant::now();
    let tables = HybridTables::build(analysis, HybridConfig::default())?;
    let build_s = start.elapsed().as_secs_f64();
    let query = timed(|| Ok(tables), |t, p| solve_lifetime(t, p, BRACKET))?;
    Ok((build_s, query))
}

/// Runs the guard-band corner method (closed form).
fn run_guard(analysis: &ChipAnalysis) -> CoreResult<MethodResult> {
    timed(
        || GuardBand::new(analysis, GuardBandConfig::default()),
        |g, p| g.lifetime(p),
    )
}

/// Formats seconds for table cells, always with a unit: whole µs below
/// 1 ms, then ms to one decimal below 1 s, then s to two decimals.
fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a speed-up ratio: whole from 10 up, else two significant
/// digits.
fn fmt_speedup(ratio: f64) -> String {
    if ratio >= 10.0 {
        return format!("{ratio:.0}x");
    }
    let decimals = (1.0 - ratio.log10().floor()).clamp(1.0, 6.0) as usize;
    format!("{ratio:.decimals$}x")
}

/// Formats a lifetime in seconds with the year equivalent.
fn fmt_lifetime(t_s: f64) -> String {
    format!("{:.3e} s ({:.2} yr)", t_s, t_s / 3.156e7)
}

/// Prints an error table's header (Tables IV and V): one `1/mil 10/mil`
/// column pair per correlation distance, then a rule one character
/// longer than the header.
fn error_header(label: &str, width: usize, rhos: &[f64]) {
    let pairs: String = rhos
        .iter()
        .map(|_| format!(" | {:>9} {:>10}", "1/mil", "10/mil"))
        .collect();
    let titles: String = rhos
        .iter()
        .map(|rho| format!(" | {:^20}", format!("rho = {rho}")))
        .collect();
    println!("{label:<width$}{pairs}");
    println!("{:<width$}{titles}", "");
    println!("{}", "-".repeat(width + pairs.len() + 1));
}

/// Prints one error-table row: the (1/mil, 10/mil) errors (%) per
/// correlation distance.
fn error_row(label: &str, width: usize, cells: &[(f64, f64)]) {
    let cells: String = cells
        .iter()
        .map(|(e1, e10)| format!(" | {e1:>8.2}% {e10:>9.2}%"))
        .collect();
    println!("{label:<width$}{cells}");
}

/// **Table III**: lifetime-estimation accuracy and runtime of `st_fast`,
/// `st_MC`, `hybrid` and `guard` against the Monte-Carlo reference, for
/// designs C1–C6 at the 1- and 10-faults-per-million criteria.
fn table3(quick: bool) {
    let (designs, mc_chips) = table_setup(quick);
    println!("== Table III: accuracy and runtime vs Monte-Carlo ==");
    println!(
        "   (rho_dist = {DEFAULT_CORRELATION_DISTANCE}, {DEFAULT_GRID_SIDE}x{DEFAULT_GRID_SIDE} correlation grid, {mc_chips} MC chips)"
    );
    println!();

    let tech = ClosedFormTech::nominal_45nm();
    let config = DesignConfig::default();

    // All Table III designs share the die size and grid; the thickness
    // model (PCA) is the paper's shared pre-processing step.
    let first = build_design(designs[0], &config).expect("design construction");
    let model = thickness_model_for(&first, DEFAULT_CORRELATION_DISTANCE);

    let methods = ["st_fast", "st_MC", "hybrid", "guard"]
        .map(|m| format!(" {m:>8}"))
        .concat();
    println!("{:<5} {:>9} |{methods} |{methods}", "ckt.", "#device");
    println!(
        "{:<5} {:>9} | {:^35} | {:^35}",
        "", "", "err% @ 1/million", "err% @ 10/million"
    );
    println!("{}", "-".repeat(100));

    let mut rows = Vec::new();
    for &bench in &designs {
        let built = build_design(bench, &config).expect("design construction");
        let analysis = analyze(&built, &model, &tech).expect("characterization");

        let mc = run_engine(&analysis, &mc_spec(mc_chips)).expect("MC");
        let fast = run_engine(&analysis, &EngineSpec::default()).expect("st_fast");
        let smc = run_engine(&analysis, &EngineSpec::StMc(StMcConfig::default())).expect("st_MC");
        let (hybrid_build_s, hybrid) = run_hybrid(&analysis).expect("hybrid");
        let guard = run_guard(&analysis).expect("guard");

        let [f, s, h, g] = [&fast, &smc, &hybrid, &guard].map(|m| m.error_pct(&mc));
        println!(
            "{:<5} {:>9} | {:>8.2} {:>8.2} {:>8.2} {:>8.1} | {:>8.2} {:>8.2} {:>8.2} {:>8.1}",
            bench.name(),
            built.spec.total_devices(),
            f.0,
            s.0,
            h.0,
            g.0,
            f.1,
            s.1,
            h.1,
            g.1
        );
        rows.push((bench, fast, smc, hybrid, hybrid_build_s, guard, mc));
    }

    println!();
    println!("== Runtime (s) / speed-up w.r.t. MC ==");
    println!(
        "{:<5} | {:>10} {:>9} | {:>10} {:>9} | {:>12} {:>11} | {:>10}",
        "ckt.", "st_fast", "speedup", "st_MC", "speedup", "hybrid(query)", "speedup", "MC"
    );
    println!("{}", "-".repeat(95));
    for (bench, fast, smc, hybrid, _, _, mc) in &rows {
        println!(
            "{:<5} | {:>10} {:>9} | {:>10} {:>9} | {:>12} {:>11} | {:>10}",
            bench.name(),
            fmt_seconds(fast.runtime_s),
            fmt_speedup(mc.runtime_s / fast.runtime_s),
            fmt_seconds(smc.runtime_s),
            fmt_speedup(mc.runtime_s / smc.runtime_s),
            fmt_seconds(hybrid.runtime_s),
            fmt_speedup(mc.runtime_s / hybrid.runtime_s),
            fmt_seconds(mc.runtime_s),
        );
    }
    println!();
    println!("== Lifetime estimates (MC reference) ==");
    for (bench, _, _, _, hybrid_build_s, guard, mc) in &rows {
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

/// **Table IV**: lifetime-estimation error of `st_fast` w.r.t.
/// Monte-Carlo for three relative correlation distances, designs C1–C6.
fn table4(quick: bool) {
    let (designs, mc_chips) = table_setup(quick);
    let rhos = [0.25, 0.5, 0.75];

    println!("== Table IV: st_fast error vs MC for different correlation distances ==");
    println!();
    error_header("ckt.", 5, &rhos);

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
        let cells: Vec<_> = models
            .iter()
            .map(|model| {
                let analysis = analyze(&built, model, &tech).expect("characterization");
                let mc = run_engine(&analysis, &mc_spec(mc_chips)).expect("MC");
                let fast = run_engine(&analysis, &EngineSpec::default()).expect("st_fast");
                fast.error_pct(&mc)
            })
            .collect();
        error_row(bench.name(), 5, &cells);
    }
    println!();
    println!("Expected shape (paper): errors stay at the few-percent level for every");
    println!("correlation distance, typically largest at rho = 0.25 (sharpest spatial");
    println!("structure for the grid model to capture).");
}

/// **Table V**: lifetime-estimation error of `st_fast` for design C2 at
/// three correlation-grid resolutions and three correlation distances,
/// against a Monte-Carlo reference that always uses the 25×25 model (as
/// the paper does), plus the pure discretization error against `st_fast`
/// on the 25×25 model.
fn table5(quick: bool) {
    let (_, mc_chips) = table_setup(quick);
    let rhos = [0.05, 0.25, 0.5];
    let grid_sides = [10usize, 20, 25];

    println!(
        "== Table V: st_fast error vs MC (25x25 reference) for grid resolutions, design C2 =="
    );
    println!();

    // One analysis per (grid, rho), shared by both tables; the last grid
    // is the 25x25 reference, where Monte-Carlo runs too.
    let tech = ClosedFormTech::nominal_45nm();
    let analyses: Vec<Vec<ChipAnalysis>> = grid_sides
        .iter()
        .map(|&side| {
            let config = DesignConfig {
                correlation_grid_side: side,
                ..DesignConfig::default()
            };
            let built = build_design(Benchmark::C2, &config).expect("design construction");
            rhos.iter()
                .map(|&rho| {
                    let model = thickness_model_for(&built, rho);
                    analyze(&built, &model, &tech).expect("characterization")
                })
                .collect()
        })
        .collect();
    let fast: Vec<Vec<MethodResult>> = analyses
        .iter()
        .map(|row| {
            row.iter()
                .map(|a| run_engine(a, &EngineSpec::default()).expect("st_fast"))
                .collect()
        })
        .collect();
    let mc: Vec<_> = analyses[analyses.len() - 1]
        .iter()
        .map(|a| run_engine(a, &mc_spec(mc_chips)).expect("MC"))
        .collect();
    let labels = grid_sides.map(|side| format!("{side} x {side}"));

    error_header("grid", 10, &rhos);
    for (label, row) in labels.iter().zip(&fast) {
        let cells: Vec<_> = row.iter().zip(&mc).map(|(f, m)| f.error_pct(m)).collect();
        error_row(label, 10, &cells);
    }

    // Pure discretization error: st_fast on the coarse grid vs st_fast on
    // the 25x25 reference grid — no Monte-Carlo noise.
    println!();
    println!("Pure discretization error of st_fast (vs st_fast on 25x25, no MC noise):");
    let titles: String = rhos
        .iter()
        .map(|rho| format!(" | {:>10}", format!("rho={rho}")))
        .collect();
    println!("{:<10}{titles}", "grid");
    println!("{}", "-".repeat(52));
    let reference = &fast[fast.len() - 1];
    for (label, row) in labels.iter().zip(&fast) {
        let cells: String = row
            .iter()
            .zip(reference)
            .map(|(f, r)| format!(" | {:>9.3}%", f.error_pct(r).0))
            .collect();
        println!("{label:<10}{cells}");
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

/// Solves one Fig. 1 profile and prints its map and die summary.
fn thermal_profile(fp: &Floorplan, power: &PowerModel) -> TemperatureMap {
    let map = ThermalSolver::new(ThermalConfig::default())
        .solve(fp, power)
        .expect("thermal solve");
    println!("{}", map.ascii_render(48));
    println!(
        "die: min {:.1} C, mean {:.1} C, max {:.1} C, spread {:.1} K",
        kelvin_to_celsius(map.min_k()),
        kelvin_to_celsius(map.mean_k()),
        kelvin_to_celsius(map.max_k()),
        map.max_k() - map.min_k()
    );
    map
}

/// Prints the hot-spot locality: the share of the die within 5 K of the
/// maximum.
fn print_hot_spot_locality(map: &TemperatureMap) {
    let hot_cells = map
        .temps()
        .iter()
        .filter(|&&t| t > map.max_k() - 5.0)
        .count();
    println!(
        "hot-spot locality: {:.1}% of the die within 5 K of the maximum",
        100.0 * hot_cells as f64 / map.temps().len() as f64
    );
}

/// **Fig. 1**: steady-state temperature profiles of (a) an
/// Alpha-processor-class design and (b) a many-core design — compact hot
/// spots tens of kelvin above the inactive regions, with local
/// (block-level) uniformity.
fn fig1(_quick: bool) {
    println!("== Fig. 1(a): Alpha-processor-class temperature profile ==");
    let fp = alpha_ev6_floorplan().expect("floorplan");
    let map = thermal_profile(&fp, &alpha_ev6_power().expect("power"));
    println!();
    println!(
        "{:<10} {:>9} {:>9} {:>9}",
        "block", "min C", "mean C", "max C"
    );
    let mut blocks: Vec<_> = fp
        .blocks()
        .iter()
        .map(|b| (b.name(), map.block_stats(b.rect())))
        .collect();
    blocks.sort_by(|a, b| b.1.max_k.total_cmp(&a.1.max_k));
    for (name, s) in blocks {
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>9.1}",
            name,
            kelvin_to_celsius(s.min_k),
            kelvin_to_celsius(s.mean_k),
            kelvin_to_celsius(s.max_k)
        );
    }
    println!();
    print_hot_spot_locality(&map);

    println!();
    println!("== Fig. 1(b): many-core temperature profile (cores 1,5,6,10,14 active) ==");
    let map = thermal_profile(
        &many_core_floorplan().expect("floorplan"),
        &many_core_power(&[1, 5, 6, 10, 14], 6.5).expect("power"),
    );
    print_hot_spot_locality(&map);
    println!();
    println!("Expected shape (paper): hot spots occupy a small region of the chip and");
    println!("sit tens of kelvin (~30 K) above the inactive regions.");
}

/// **Fig. 3**: gate-leakage trace of a stressed device (the paper shows a
/// 45 nm device at 3.1 V / 100 °C) — a flat direct-tunneling baseline, a
/// 10–20× soft-breakdown jump, and a monotone wear-out ramp to hard
/// breakdown.
fn fig3(_quick: bool) {
    let sim = DegradationSimulator::new(PercolationConfig::default()).expect("valid config");
    let mut rng = Xoshiro256pp::seed_from_u64(2010);
    let trace = sim.simulate(&mut rng, 1.0, 10).expect("simulation");

    println!("== Fig. 3: gate leakage vs stress time (percolation simulator) ==");
    println!("   stress condition modeled: 3.1 V, 100 C equivalent");
    println!();
    println!("{:>12} {:>14}  (log-log trace)", "t (s)", "I_gate (A)");
    let i_max = trace.leakage_a.iter().cloned().fold(0.0, f64::max);
    let i_min = trace
        .leakage_a
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    for (t, i) in trace.times_s.iter().zip(&trace.leakage_a) {
        let frac = ((i / i_min).ln() / (i_max / i_min).ln() * 50.0) as usize;
        let marker = if *t >= trace.t_hbd_s {
            " <- HBD regime"
        } else if *t >= trace.t_sbd_s {
            " <- post-SBD"
        } else {
            ""
        };
        println!("{:>12.3e} {:>14.3e}  |{}{}", t, i, "#".repeat(frac), marker);
    }
    println!();
    println!(
        "SBD at t = {:.3e} s ({} traps generated); HBD at t = {:.3e} s",
        trace.t_sbd_s, trace.traps_at_sbd, trace.t_hbd_s
    );
    let pre = trace
        .times_s
        .iter()
        .zip(&trace.leakage_a)
        .filter(|(t, _)| **t < trace.t_sbd_s)
        .map(|(_, i)| *i)
        .next_back()
        .unwrap_or(i_min);
    let post = trace
        .times_s
        .iter()
        .zip(&trace.leakage_a)
        .find(|(t, _)| **t >= trace.t_sbd_s)
        .map(|(_, i)| *i)
        .unwrap_or(i_max);
    println!("SBD leakage jump: {:.1}x (paper: 10-20x)", post / pre);
    println!("HBD/baseline leakage ratio: {:.0}x", i_max / i_min);

    // The Weibull abstraction the chip analysis uses: slope estimate from
    // repeated SBD simulations.
    let slope = sim
        .estimate_weibull_slope(&mut rng, 500)
        .expect("slope estimation");
    println!();
    println!("Weibull slope of simulated SBD times: beta = {slope:.2} (thin-oxide range ~1-2.5)");
    println!();
    println!("Expected shape (paper): leakage increases continuously after SBD until");
    println!("HBD is triggered; SBD is an irreversible 10-20x jump.");
}

/// The Table II model on the unit-square 25×25 grid at `ρ_dist = 0.5`
/// (Figs. 4, 6–7 and 8).
fn unit_square_model() -> ThicknessModel {
    ThicknessModelBuilder::new()
        .grid(GridSpec::square_unit(25).expect("grid"))
        .nominal(2.2)
        .budget(VarianceBudget::itrs_2008(2.2).expect("budget"))
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .build()
        .expect("model")
}

/// BLOD moments of a block of `devices` devices spread evenly over the
/// `rows × cols` patch of the unit-square model's grid.
fn patch_block(
    model: &ThicknessModel,
    name: &str,
    devices: u64,
    rows: Range<usize>,
    cols: Range<usize>,
) -> BlodMoments {
    let weight = 1.0 / (rows.len() * cols.len()) as f64;
    let weights = rows
        .flat_map(|row| cols.clone().map(move |col| (row * 25 + col, weight)))
        .collect();
    let block =
        BlockSpec::new(name, devices as f64, devices, 358.15, 1.2, weights).expect("block spec");
    BlodMoments::characterize(model, &block).expect("BLOD characterization")
}

/// `n` seeded draws of a block's `(u, v)` from the model's principal
/// components.
fn sample_uv(
    model: &ThicknessModel,
    moments: &BlodMoments,
    n: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut normal = NormalSampler::new();
    let mut z = vec![0.0; model.n_components()];
    (0..n)
        .map(|_| {
            normal.fill(&mut rng, &mut z);
            moments.uv_given_z(&z)
        })
        .collect()
}

/// One die's thickness histogram of `n_devices` devices in one grid and
/// its Gaussian fit: `(R², [(bin center, density, fit)])`.
fn blod_histogram(
    model: &ThicknessModel,
    n_devices: usize,
    seed: u64,
) -> (f64, Vec<(f64, f64, f64)>) {
    let mut sampler = FieldSampler::new(model);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let die = sampler.sample_die(&mut rng);
    // One block sitting in a single grid (grid 312 = center): its devices
    // share the correlated base and differ by the independent residual.
    let xs = sampler.sample_devices(&mut rng, &die, 312, n_devices);

    let bins = 40;
    let hist = Histogram1d::from_data(&xs, bins).expect("histogram");
    let density = hist.density();
    let fit = Normal::new(mean(&xs), sample_variance(&xs).sqrt()).expect("fit");
    let modeled: Vec<f64> = (0..bins).map(|i| fit.pdf(hist.bin_center(i))).collect();
    let r2 = r_squared(&density, &modeled).expect("r-squared");

    let rows = (0..bins)
        .map(|i| (hist.bin_center(i), density[i], modeled[i]))
        .collect();
    (r2, rows)
}

/// **Fig. 4**: the BLOD property — the histogram of oxide thicknesses
/// within one block of one sample chip follows a Gaussian curve, with
/// R² ≈ 99.8 % (5 K devices) and 99.5 % (20 K devices) in the paper.
fn fig4(_quick: bool) {
    let model = unit_square_model();
    println!("== Fig. 4: BLOD histograms vs Gaussian fit ==");
    for (n, label) in [(5_000usize, "(a) 5K devices"), (20_000, "(b) 20K devices")] {
        let (r2, rows) = blod_histogram(&model, n, 42);
        println!();
        println!("-- {label}: R^2 = {:.2}% --", r2 * 100.0);
        println!("{:>10} {:>12} {:>12}", "x (nm)", "density", "gauss fit");
        let max_d = rows.iter().map(|r| r.1).fold(0.0, f64::max);
        for &(x, d, m) in rows.iter().step_by(2) {
            let bar = "#".repeat((d / max_d * 40.0) as usize);
            println!("{x:>10.4} {d:>12.2} {m:>12.2}  |{bar}");
        }
    }
    println!();
    println!("Expected shape (paper): distinctly Gaussian-like curves with fitting");
    println!("goodness (R-square) above 99% for both block sizes.");
}

/// **Fig. 6** (joint PDF `f(u,v)` vs the marginal product `f(u)·f(v)`) and
/// **Fig. 7** (contour of their normalized error, plus the mutual
/// information ≈ 0.003 the paper quotes) for a multi-grid block — the
/// evidence behind the independence approximation of Sec. IV-C.
fn fig6_7(_quick: bool) {
    let model = unit_square_model();
    // A block spanning a 5x3 patch of grids.
    let moments = patch_block(&model, "fig6", 20_000, 10..13, 8..13);
    let n_samples = 200_000;
    let pairs = sample_uv(&model, &moments, n_samples, 67);
    let (mut ulo, mut uhi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut vlo, mut vhi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(u, v) in &pairs {
        ulo = ulo.min(u);
        uhi = uhi.max(u);
        vlo = vlo.min(v);
        vhi = vhi.max(v);
    }
    let bins = 30;
    let mut hist = Histogram2d::new(
        (ulo, uhi + 1e-9 * (uhi - ulo), bins),
        (vlo, vhi + 1e-9 * (vhi - vlo), bins),
    )
    .expect("histogram");
    for &(u, v) in &pairs {
        hist.add(u, v);
    }

    let joint = hist.joint_probabilities();
    let mu = hist.marginal_x();
    let mv = hist.marginal_y();
    let peak = joint.iter().cloned().fold(0.0, f64::max);

    // Fig. 7: normalized error contour and its maximum.
    let mut max_err = 0.0f64;
    let mut contour = vec![vec![' '; bins]; bins];
    for i in 0..bins {
        for j in 0..bins {
            let err = (joint[i * bins + j] - mu[i] * mv[j]).abs() / peak;
            max_err = max_err.max(err);
            contour[i][j] = match err {
                e if e >= 0.05 => '#',
                e if e >= 0.02 => '+',
                e if e >= 0.01 => '.',
                _ => ' ',
            };
        }
    }

    let mi = mutual_information(&hist);

    println!("== Fig. 6: joint PDF vs marginal product (block over 15 grids) ==");
    println!(
        "u range: [{ulo:.4}, {uhi:.4}] nm; v range: [{vlo:.3e}, {vhi:.3e}] nm^2; {n_samples} samples"
    );
    println!();
    println!("joint-PDF heat map (rows = u bins, cols = v bins, '@' = peak):");
    for i in 0..bins {
        let row: String = (0..bins)
            .map(|j| {
                let p = joint[i * bins + j] / peak;
                match p {
                    p if p >= 0.75 => '@',
                    p if p >= 0.50 => '#',
                    p if p >= 0.25 => '+',
                    p if p >= 0.05 => '.',
                    _ => ' ',
                }
            })
            .collect();
        println!("  {row}");
    }
    println!();
    println!(
        "== Fig. 7: normalized |joint - product| contour ('#' >= 5%, '+' >= 2%, '.' >= 1%) =="
    );
    for row in &contour {
        let s: String = row.iter().collect();
        println!("  {s}");
    }
    println!();
    println!(
        "max normalized error: {:.1}%  (paper: ~7% in a small region)",
        max_err * 100.0
    );
    println!("mutual information I(u; v) = {mi:.4} nats  (paper: ~0.003)");
    println!();
    println!("Expected shape (paper): the dependence between u and v is weak — small");
    println!("mutual information, with the largest normalized errors confined to a");
    println!("small low-probability region.");
}

/// **Fig. 8**: the CDF of the BLOD sample variance (a quadratic form in
/// normal variables) against its Yuan–Bentler χ² approximation
/// (eqs. 29–30).
fn fig8(_quick: bool) {
    let model = unit_square_model();
    // A wide block spanning a 6x4 patch of grids — a genuinely
    // multi-dimensional quadratic form.
    let moments = patch_block(&model, "fig8", 50_000, 5..9, 4..10);
    let v_dist = moments.v_dist();

    println!("== Fig. 8: quadratic-form CDF vs chi-square approximation ==");
    println!(
        "chi2 fit: a_hat = {:.4e}, b_hat = {:.3} dof; v floor = {:.4e}",
        moments.chi2_scale(),
        moments.chi2_dof(),
        moments.v_floor()
    );
    println!();

    // Monte-Carlo CDF of the exact quadratic form.
    let mut samples: Vec<f64> = sample_uv(&model, &moments, 100_000, 8)
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    println!("{:>12} {:>12} {:>12}", "v (nm^2)", "MC CDF", "chi2 CDF");
    let n = samples.len();
    for q in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
        let idx = ((n as f64 * q) as usize).min(n - 1);
        let v = samples[idx];
        println!("{:>12.4e} {:>12.4} {:>12.4}", v, q, v_dist.cdf(v));
    }

    let ks = ks_distance(&mut samples, |v| v_dist.cdf(v)).expect("ks");
    println!();
    println!("Kolmogorov-Smirnov distance: {ks:.4}");
    println!();
    println!("Expected shape (paper): the computationally efficient chi-square");
    println!("representation is in good agreement with the MC-simulated CDF of the");
    println!("quadratic normal form.");
}

/// **Fig. 10**: failure-rate curves of design C3 by four methods —
/// Monte-Carlo, the proposed temperature-aware statistical approach, a
/// temperature-unaware variant (worst-case temperature for every block)
/// and the conventional guard-band — plus the 10-faults-per-million
/// lifetime errors of each (the paper reports 1.8 %, 25.1 % and 54.3 %).
fn fig10(quick: bool) {
    // The paper simulates 10 000 sample chips for this figure.
    let mc_chips = if quick { 500 } else { 10_000 };

    println!("== Fig. 10: failure-rate curves and 10-per-million errors, design C3 ==");
    let built = build_design(Benchmark::C3, &DesignConfig::default()).expect("design");
    let model = thickness_model_for(&built, 0.5);
    let tech = ClosedFormTech::nominal_45nm();

    // Temperature-aware analysis.
    let aware = analyze(&built, &model, &tech).expect("characterization");
    // Temperature-unaware: every block at the chip's worst temperature.
    let unaware_spec = built
        .spec
        .with_uniform_worst_temperature()
        .expect("non-empty spec");
    let unaware = ChipAnalysis::new(unaware_spec, model.clone(), &tech).expect("characterization");

    let mut mc = MonteCarlo::build(
        &aware,
        MonteCarloConfig {
            n_chips: mc_chips,
            ..Default::default()
        },
    )
    .expect("MC build");
    let mut fast_aware = StFast::new(&aware, StFastConfig::default());
    let mut fast_unaware = StFast::new(&unaware, StFastConfig::default());
    let mut guard = GuardBand::new(&aware, GuardBandConfig::default()).expect("guard");

    // Lifetimes at the 10-per-million criterion.
    let p10 = TEN_PER_MILLION;
    let t_mc = solve_lifetime(&mut mc, p10, BRACKET).expect("MC lifetime");
    let t_aware = solve_lifetime(&mut fast_aware, p10, BRACKET).expect("aware lifetime");
    let t_unaware = solve_lifetime(&mut fast_unaware, p10, BRACKET).expect("unaware lifetime");
    let t_guard = guard.lifetime(p10).expect("guard lifetime");

    let err = |t: f64| 100.0 * ((t - t_mc) / t_mc).abs();
    println!();
    println!("10-faults-per-million lifetimes (MC = {mc_chips} chips):");
    println!("  MC reference     : {}", fmt_lifetime(t_mc));
    println!(
        "  temp-aware       : {}  error {:>5.1}%  (paper:  1.8%)",
        fmt_lifetime(t_aware),
        err(t_aware)
    );
    println!(
        "  temp-unaware     : {}  error {:>5.1}%  (paper: 25.1%)",
        fmt_lifetime(t_unaware),
        err(t_unaware)
    );
    println!(
        "  guard-band       : {}  error {:>5.1}%  (paper: 54.3%)",
        fmt_lifetime(t_guard),
        err(t_guard)
    );

    // Failure-rate curves over the interesting window.
    let (t_lo, t_hi) = (t_guard / 4.0, t_mc * 6.0);
    let n_pts = 25;
    let c_mc = failure_rate_curve(&mut mc, t_lo, t_hi, n_pts).expect("curve");
    let c_aw = failure_rate_curve(&mut fast_aware, t_lo, t_hi, n_pts).expect("curve");
    let c_un = failure_rate_curve(&mut fast_unaware, t_lo, t_hi, n_pts).expect("curve");
    let c_gd = failure_rate_curve(&mut guard, t_lo, t_hi, n_pts).expect("curve");

    println!();
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "t (s)", "MC", "temp-aware", "temp-unaw.", "guard"
    );
    for i in 0..n_pts {
        println!(
            "{:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            c_mc[i].0, c_mc[i].1, c_aw[i].1, c_un[i].1, c_gd[i].1
        );
    }
    println!();
    println!("Expected shape (paper): the temperature-aware curve tracks MC closely;");
    println!("temp-unaware overstates the failure rate (lifetime error tens of %);");
    println!("guard-band overstates it the most (~half the real lifetime).");
    println!("Error ordering: temp-aware < temp-unaware < guard-band.");
}

/// Ablation studies of the design choices DESIGN.md calls out, on C3:
/// (1) integration resolution `l0` (the paper claims `l0 = 10`
/// suffices), (2) `u`-domain width in sigmas, (3) χ² (Yuan–Bentler) vs
/// exact Imhof evaluation of the sample-variance distribution, (4) the
/// fully closed-form `st_closed` engine vs numerical `st_fast`, and (5)
/// multi-breakdown (SBD-tolerant) failure criteria.
fn ablation(_quick: bool) {
    let built = build_design(Benchmark::C3, &DesignConfig::default()).expect("design");
    let model = thickness_model_for(&built, 0.5);
    let tech = ClosedFormTech::nominal_45nm();
    let analysis = analyze(&built, &model, &tech).expect("characterization");
    let lifetime = |config: StFastConfig| {
        solve_lifetime(
            &mut StFast::new(&analysis, config),
            ONE_PER_MILLION,
            BRACKET,
        )
        .expect("solve")
    };
    let l0 = |l0: usize| StFastConfig {
        l0,
        ..Default::default()
    };

    // Reference: very fine quadrature.
    let t_ref = lifetime(StFastConfig {
        u_width_sigmas: 8.0,
        ..l0(400)
    });
    let gap = |t: f64| 100.0 * ((t - t_ref) / t_ref).abs();

    println!("== Ablation 1: integration sub-domains l0 (vs l0 = 400 reference) ==");
    println!("{:>6} {:>14} {:>10}", "l0", "t_1pm (s)", "error");
    for n in [2usize, 4, 6, 10, 20, 50, 100] {
        let t = lifetime(l0(n));
        println!("{:>6} {:>14.5e} {:>9.3}%", n, t, gap(t));
    }
    println!("(paper: l0 = 10 'is already a reasonable number')");

    println!();
    println!("== Ablation 2: u-domain width (sigmas), l0 = 10 ==");
    println!("{:>8} {:>14} {:>10}", "width", "t_1pm (s)", "error");
    for width in [2.0, 3.0, 4.0, 6.0, 8.0] {
        let t = lifetime(StFastConfig {
            u_width_sigmas: width,
            ..l0(10)
        });
        println!("{:>8.1} {:>14.5e} {:>9.3}%", width, t, gap(t));
    }

    println!();
    println!("== Ablation 3: chi-square (Yuan-Bentler) vs exact Imhof f_v ==");
    for n in [10usize, 50] {
        let t_chi = lifetime(l0(n));
        let start = Instant::now();
        let t_imhof = lifetime(StFastConfig {
            v_method: VarianceMethod::Imhof,
            ..l0(n)
        });
        let imhof_s = start.elapsed().as_secs_f64();
        println!(
            "l0 = {n:>3}: chi2 {t_chi:.5e} s vs imhof {t_imhof:.5e} s  (gap {:.3}%, imhof solve {:.0} ms)",
            100.0 * ((t_chi - t_imhof) / t_imhof).abs(),
            imhof_s * 1e3
        );
    }
    println!("(the cheap two-moment fit costs <1% accuracy — the paper's trade-off)");

    println!();
    println!("== Ablation 4: closed-form st_closed vs numerical st_fast ==");
    let t_closed =
        solve_lifetime(&mut StClosed::new(&analysis), ONE_PER_MILLION, BRACKET).expect("closed");
    println!(
        "st_closed t_1pm = {:.5e} s, gap to reference {:.3}%",
        t_closed,
        gap(t_closed)
    );

    println!();
    println!("== Ablation 5: multi-breakdown failure criteria (SBD-tolerant designs) ==");
    let st_mc = StMc::new(&analysis, StMcConfig::default()).expect("st_MC");
    let mc = MonteCarlo::build(
        &analysis,
        MonteCarloConfig {
            n_chips: 1000,
            ..Default::default()
        },
    )
    .expect("MC");
    println!("{:>4} {:>16} {:>16}", "k", "P(N>=k) st_MC", "P(N>=k) MC");
    let t_probe = 4.0 * t_ref;
    for k in 1..=4u32 {
        let p_smc = st_mc.failure_probability_multi(t_probe, k).expect("st_MC");
        let p_mc = mc.failure_probability_multi(t_probe, k).expect("MC");
        println!("{k:>4} {p_smc:>16.4e} {p_mc:>16.4e}");
    }
    println!("(at t = 4x the 1-ppm lifetime; a design tolerating one extra breakdown");
    println!(" gains orders of magnitude in failure probability)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_seconds_ranges() {
        assert_eq!(fmt_seconds(1.68e-4), "168 µs");
        assert_eq!(fmt_seconds(2.8e-5), "28 µs");
        assert_eq!(fmt_seconds(4.4e-3), "4.4 ms");
        assert_eq!(fmt_seconds(0.5), "500.0 ms");
        assert_eq!(fmt_seconds(2.0), "2.00 s");
    }

    #[test]
    fn fmt_speedup_keeps_two_significant_digits_below_10() {
        assert_eq!(fmt_speedup(323.1 / 925.8), "0.35x");
        assert_eq!(fmt_speedup(1.43), "1.4x");
        assert_eq!(fmt_speedup(0.0472), "0.047x");
        assert_eq!(fmt_speedup(9.4), "9.4x");
        assert_eq!(fmt_speedup(12.4), "12x");
        assert_eq!(fmt_speedup(48_369.2), "48369x");
    }

    #[test]
    fn method_result_errors() {
        let a = MethodResult {
            t_1pm: 110.0,
            t_10pm: 90.0,
            runtime_s: 0.0,
        };
        let r = MethodResult {
            t_1pm: 100.0,
            t_10pm: 100.0,
            runtime_s: 0.0,
        };
        let (e1, e10) = a.error_pct(&r);
        assert!((e1 - 10.0).abs() < 1e-12);
        assert!((e10 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn only_names_every_experiment() {
        for (name, _) in EXPERIMENTS {
            assert!(experiment(name).is_ok(), "{name}");
        }
        let err = experiment("nope").unwrap_err();
        assert!(err.contains("table3") && err.contains("ablation"), "{err}");
    }
}
