//! Manager benchmark: the paper's "very fast response" claim, measured.
//!
//! For each design the runner builds a [`ReliabilityManager`] on the
//! hybrid tables and (a) cross-validates the accumulated-damage chip
//! failure probability under a *constant* operating point against a
//! direct `Hybrid` engine built from the **same** table configuration —
//! the two must agree to ≤1e-9 relative, and the run exits non-zero if
//! they do not; (b) times the runtime monitoring loop (manager steps per
//! second and per-table-query latency, the figure that must stay in the
//! microsecond range for an embedded monitor); and (c) times a throttled
//! three-level DVFS schedule, whose ladder walks cost extra projection
//! sweeps.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin manager -- \
//!     [--quick] [--out BENCH_manager.json] [--designs C1,C3] \
//!     [--steps 2000] [--threads 1]
//! ```
//!
//! Output schema (one JSON object):
//!
//! ```text
//! { "threads": 1, "rows": [ { "design": "C1", "scenario": "monitor",
//!   "blocks": 10, "steps": 2000, "build_s": ..., "run_s": ...,
//!   "steps_per_s": ..., "per_query_us": ..., "rel_vs_hybrid": ...,
//!   "transitions": 0, "off_grid_queries": 0, "within_tolerance": true },
//!   ... ] }
//! ```

use statobd_bench::harness::{design, rel_divergence, Cli};
use statobd_bench::session_for;
use statobd_circuits::Benchmark;
use statobd_core::{HybridTables, ReliabilityEngine};
use statobd_device::ClosedFormTech;
use statobd_manager::{DvfsLevel, PolicyConfig, ReliabilityManager};
use statobd_num::flags::{at_least, list};
use statobd_num::impl_json_struct;
use std::time::Instant;

/// Cross-validation tolerance: constant-point manager P(t) vs the direct
/// engine on identical tables.
const TOLERANCE: f64 = 1e-9;
const YEAR_S: f64 = 3.156e7;

/// One measurement: a (design, scenario) cell.
#[derive(Debug, Clone)]
struct ManagerRow {
    design: String,
    scenario: String,
    blocks: u64,
    steps: u64,
    /// Manager construction seconds (widened-table build).
    build_s: f64,
    /// Wall seconds for the whole stepping loop.
    run_s: f64,
    /// Manager damage/decision steps per second.
    steps_per_s: f64,
    /// Mean per-table-query latency in microseconds (each step performs
    /// one monitoring sweep and one projection sweep per ladder level
    /// visited).
    per_query_us: f64,
    /// Constant-point relative deviation vs the direct `Hybrid` engine
    /// on the same table configuration (NaN for throttled scenarios,
    /// where no constant-point identity holds).
    rel_vs_hybrid: f64,
    /// DVFS ladder transitions taken during the run.
    transitions: u64,
    /// Queries that fell off the non-conservative table edges.
    off_grid_queries: u64,
    /// Whether `rel_vs_hybrid` met the 1e-9 criterion (the run exits
    /// non-zero if any constant-point row is false).
    within_tolerance: bool,
}

impl_json_struct!(ManagerRow {
    design,
    scenario,
    blocks,
    steps,
    build_s,
    run_s,
    steps_per_s,
    per_query_us,
    rel_vs_hybrid,
    transitions,
    off_grid_queries,
    within_tolerance
});

/// The whole report (`BENCH_manager.json`).
#[derive(Debug, Clone)]
struct ManagerReport {
    /// Worker threads the table build was pinned to (0 = all cores).
    threads: usize,
    rows: Vec<ManagerRow>,
}

impl_json_struct!(ManagerReport { threads, rows });

fn print_row(row: &ManagerRow) {
    println!(
        "  {:<9} steps={:<5} build {:>7.3}s  run {:>8.4}s  {:>9.0} steps/s  \
         {:>6.2} µs/query  rel {:>9.2e}  {}",
        row.scenario,
        row.steps,
        row.build_s,
        row.run_s,
        row.steps_per_s,
        row.per_query_us,
        row.rel_vs_hybrid,
        if row.within_tolerance {
            "ok"
        } else {
            "DIVERGED"
        }
    );
}

fn main() {
    let mut cli = Cli::from_env();
    let threads_flag = cli.threads(1);
    let designs = cli.flag(
        "--designs",
        list(design),
        vec![Benchmark::C1, Benchmark::C3],
        vec![Benchmark::C1],
    );
    let steps = cli.flag("--steps", at_least(1), 2000, 200);
    let mut gates = cli.gates("BENCH_manager.json");
    let threads = (threads_flag > 0).then_some(threads_flag);
    let tech = ClosedFormTech::nominal_45nm();
    let service_life_s = 10.0 * YEAR_S;
    let mut rows = Vec::new();

    for &benchmark in &designs {
        let session = session_for(benchmark, 0.5);
        let analysis = session.analysis();
        let n_blocks = analysis.n_blocks();
        let spec_temps: Vec<f64> = analysis
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let vdd_spec = analysis
            .blocks()
            .iter()
            .map(|b| b.spec().voltage_v())
            .fold(f64::MIN, f64::max);
        println!(
            "{}: {} blocks, {} devices",
            benchmark.name(),
            n_blocks,
            analysis.spec().total_devices()
        );
        let tables = statobd_core::HybridConfig {
            threads,
            ..statobd_core::HybridConfig::default()
        };

        // Scenario 1 — "monitor": a constant operating point at the
        // specification conditions. The effective-age identity ξ = t/α
        // makes the manager's P(t) directly comparable to the static
        // engine, anchoring the damage model.
        let build_start = Instant::now();
        let mut mgr = ReliabilityManager::new(
            analysis,
            Box::new(tech),
            PolicyConfig::monitoring_only(1.0, service_life_s),
            tables,
        )
        .expect("manager builds");
        let build_s = build_start.elapsed().as_secs_f64();

        let dt_s = 0.8 * service_life_s / steps as f64;
        let run_start = Instant::now();
        for _ in 0..steps {
            mgr.step(dt_s, &spec_temps, vdd_spec).expect("step");
        }
        let run_s = run_start.elapsed().as_secs_f64();
        let p_mgr = mgr.failure_probability_now().expect("query");

        // The direct engine must use the manager's own (γ/b-widened)
        // table configuration — identical grids, so the only difference
        // is Σ(dt/α) vs (Σdt)/α float rounding.
        let mut direct =
            HybridTables::build(analysis, *mgr.tables().config()).expect("direct tables");
        let p_direct = direct
            .failure_probability(mgr.damage().elapsed_s())
            .expect("direct eval");
        let rel = rel_divergence(&[p_mgr], &[p_direct]);
        let within = gates.check(rel <= TOLERANCE, || {
            format!(
                "{}: constant-point manager P(t) diverged from the direct Hybrid engine \
                 (rel {rel:.3e})",
                benchmark.name()
            )
        });

        // One monitoring sweep + one projection sweep per step
        // (monitoring ladder has a single level).
        let queries = (2 * n_blocks * steps) as f64;
        let row = ManagerRow {
            design: benchmark.name().to_string(),
            scenario: "monitor".to_string(),
            blocks: n_blocks as u64,
            steps: steps as u64,
            build_s,
            run_s,
            steps_per_s: steps as f64 / run_s.max(1e-12),
            per_query_us: run_s / queries * 1e6,
            rel_vs_hybrid: rel,
            transitions: mgr.transitions(),
            off_grid_queries: mgr.off_grid_queries(),
            within_tolerance: within,
        };
        print_row(&row);
        rows.push(row);

        // Scenario 2 — "throttle": a bursty turbo request against a
        // three-level ladder and a tight budget, so the policy layer's
        // ladder walks (extra projection sweeps) are included in the
        // step cost.
        let policy = PolicyConfig {
            budget: 1e-5,
            service_life_s,
            hysteresis: 0.85,
            levels: vec![
                DvfsLevel {
                    name: "turbo".to_string(),
                    vdd_cap_v: vdd_spec * 1.05,
                    dt_when_capped_k: 0.0,
                },
                DvfsLevel {
                    name: "nominal".to_string(),
                    vdd_cap_v: vdd_spec,
                    dt_when_capped_k: -6.0,
                },
                DvfsLevel {
                    name: "eco".to_string(),
                    vdd_cap_v: vdd_spec * 0.92,
                    dt_when_capped_k: -14.0,
                },
            ],
        };
        let build_start = Instant::now();
        let mut mgr = ReliabilityManager::new(analysis, Box::new(tech), policy, tables)
            .expect("manager builds");
        let build_s = build_start.elapsed().as_secs_f64();

        let hot: Vec<f64> = spec_temps.iter().map(|t| t + 8.0).collect();
        let run_start = Instant::now();
        for i in 0..steps {
            // Alternate turbo bursts with typical stretches.
            let (temps, vdd) = if i % 8 < 2 {
                (&hot, vdd_spec * 1.05)
            } else {
                (&spec_temps, vdd_spec)
            };
            mgr.step(dt_s, temps, vdd).expect("step");
        }
        let run_s = run_start.elapsed().as_secs_f64();
        // ≥ 2 sweeps per step, more when the ladder moved; report the
        // conservative lower bound so the µs figure is an upper bound.
        let queries = (2 * n_blocks * steps) as f64;
        let row = ManagerRow {
            design: benchmark.name().to_string(),
            scenario: "throttle".to_string(),
            blocks: n_blocks as u64,
            steps: steps as u64,
            build_s,
            run_s,
            steps_per_s: steps as f64 / run_s.max(1e-12),
            per_query_us: run_s / queries * 1e6,
            rel_vs_hybrid: f64::NAN,
            transitions: mgr.transitions(),
            off_grid_queries: mgr.off_grid_queries(),
            within_tolerance: true,
        };
        print_row(&row);
        rows.push(row);
    }

    gates.finish(&ManagerReport {
        threads: threads_flag,
        rows,
    });
}
