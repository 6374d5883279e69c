//! Sweep benchmark: scalar-loop vs batched time-sweep evaluation for
//! every reliability engine, emitting machine-readable
//! `BENCH_sweeps.json` so the repo accumulates a perf trajectory.
//!
//! For each design × engine × sweep length the runner times `n` scalar
//! `failure_probability` calls against one batched
//! `failure_probabilities` call over the same log-spaced times, verifies
//! the two are **bit-identical**, and records build time, both eval
//! times, the speedup and the batched throughput.
//!
//! Each engine is warmed up (one throwaway evaluation, so lazily built
//! node sets and tables are charged to neither path) and every
//! measurement is the minimum over several repetitions, with fast cells
//! iterated until each repetition is long enough to time reliably. Full
//! runs additionally **assert batched ≥ scalar for every row** and exit
//! non-zero otherwise, so a committed `BENCH_sweeps.json` can never
//! contain a batched-path regression (`--quick` smokes skip the speedup
//! assertion but keep the bit-identity check).
//!
//! ```text
//! cargo run --release -p statobd-bench --bin sweeps -- \
//!     [--quick] [--out BENCH_sweeps.json] [--designs C1,C3] \
//!     [--sweeps 20,200] [--threads 1] [--mc-chips 1000]
//! ```
//!
//! Defaults measure the algorithmic win at `--threads 1`; pass
//! `--threads 0` to use every core. Output schema (one JSON object):
//!
//! ```text
//! { "threads": 1, "rows": [ { "design": "C1", "engine": "MC",
//!   "sweep_len": 200, "build_s": ..., "scalar_eval_s": ...,
//!   "batched_eval_s": ..., "speedup": ..., "batched_evals_per_s": ...,
//!   "bit_identical": true }, ... ] }
//! ```

use statobd_bench::harness::{bit_identical, design, log_times, remeasure, Cli};
use statobd_bench::{measure_min, session_for, BRACKET};
use statobd_circuits::Benchmark;
use statobd_core::{build_engine, EngineKind, EngineSpec, MonteCarloConfig};
use statobd_num::flags::{at_least, list};
use statobd_num::impl_json_struct;
use std::time::Instant;

/// One measurement: a (design, engine, sweep length) cell.
#[derive(Debug, Clone)]
struct SweepRow {
    design: String,
    engine: String,
    devices: u64,
    sweep_len: usize,
    /// Engine construction seconds (tables, chip samples, node sets).
    build_s: f64,
    /// Wall seconds for `sweep_len` scalar `failure_probability` calls.
    scalar_eval_s: f64,
    /// Wall seconds for one batched `failure_probabilities` call.
    batched_eval_s: f64,
    /// `scalar_eval_s / batched_eval_s`.
    speedup: f64,
    /// Time points per second through the batched path.
    batched_evals_per_s: f64,
    /// Whether every batched probability matched the scalar loop bit for
    /// bit (the run aborts with a non-zero exit if any row is false).
    bit_identical: bool,
}

impl_json_struct!(SweepRow {
    design,
    engine,
    devices,
    sweep_len,
    build_s,
    scalar_eval_s,
    batched_eval_s,
    speedup,
    batched_evals_per_s,
    bit_identical
});

/// The whole report (`BENCH_sweeps.json`).
#[derive(Debug, Clone)]
struct SweepReport {
    /// Worker threads every engine was pinned to (0 = all cores).
    threads: usize,
    rows: Vec<SweepRow>,
}

impl_json_struct!(SweepReport { threads, rows });

fn main() {
    let mut cli = Cli::from_env();
    let threads_flag = cli.threads(1);
    let designs = cli.flag(
        "--designs",
        list(design),
        vec![Benchmark::C1, Benchmark::C3],
        vec![Benchmark::C1],
    );
    let sweeps = cli.flag("--sweeps", list(at_least(2)), vec![20, 200], vec![8, 40]);
    let mc_chips = cli.flag("--mc-chips", at_least(1), 1000, 200);
    let mut gates = cli.gates("BENCH_sweeps.json");
    let threads = (threads_flag > 0).then_some(threads_flag);
    let mut rows = Vec::new();
    println!("lane dispatch: {}", statobd_num::simd::dispatch_label());

    for &benchmark in &designs {
        let session = session_for(benchmark, 0.5);
        let analysis = session.analysis();
        let devices = analysis.spec().total_devices();
        println!(
            "{}: {} blocks, {} devices",
            benchmark.name(),
            analysis.spec().n_blocks(),
            devices
        );

        for kind in EngineKind::ALL {
            let spec = match kind.default_spec() {
                EngineSpec::MonteCarlo(c) => EngineSpec::MonteCarlo(MonteCarloConfig {
                    n_chips: mc_chips,
                    ..c
                }),
                other => other,
            }
            .with_threads(threads);
            let build_start = Instant::now();
            let mut engine = build_engine(analysis, &spec).expect("engine builds");
            let build_s = build_start.elapsed().as_secs_f64();

            // Charge lazily built node sets / tables to neither timed
            // path (historically they landed in the first scalar sweep,
            // inflating short-sweep speedups).
            engine
                .failure_probability(0.5 * (BRACKET.0 + BRACKET.1))
                .expect("warm-up eval");

            for &n in &sweeps {
                let ts = log_times(n);

                let scalar: Vec<f64> = ts
                    .iter()
                    .map(|&t| engine.failure_probability(t).expect("scalar eval"))
                    .collect();
                let batched = engine.failure_probabilities(&ts).expect("batched eval");

                let bit_identical = bit_identical(&scalar, &batched);
                gates.check(bit_identical, || {
                    format!(
                        "{} {} n={n}: batched results diverged from the scalar loop",
                        benchmark.name(),
                        kind.name()
                    )
                });

                // Near-tie rows (engines whose batched path saves only
                // per-call overhead) can land a hair under 1.0x from
                // run-to-run jitter between two measurements: re-measure
                // interleaved, keeping each path's min across attempts.
                let (scalar_eval_s, batched_eval_s) = remeasure(
                    1.0,
                    |s| *s,
                    |batched| {
                        measure_min(|| {
                            if batched {
                                engine.failure_probabilities(&ts).expect("batched eval");
                            } else {
                                for &t in &ts {
                                    engine.failure_probability(t).expect("scalar eval");
                                }
                            }
                        })
                    },
                );
                let speedup = scalar_eval_s / batched_eval_s.max(1e-12);
                gates.bar(speedup >= 1.0, || {
                    format!(
                        "{} {} n={n}: batched {batched_eval_s:.3e}s slower than scalar \
                         {scalar_eval_s:.3e}s ({speedup:.3}x)",
                        benchmark.name(),
                        kind.name(),
                    )
                });
                let row = SweepRow {
                    design: benchmark.name().to_string(),
                    engine: kind.name().to_string(),
                    devices,
                    sweep_len: ts.len(),
                    build_s,
                    scalar_eval_s,
                    batched_eval_s,
                    speedup,
                    batched_evals_per_s: ts.len() as f64 / batched_eval_s.max(1e-12),
                    bit_identical,
                };
                println!(
                    "  {:<9} n={:<4} build {:>9.4}s  scalar {:>9.4}s  batched {:>9.4}s  \
                     {:>6.1}x  {}",
                    row.engine,
                    row.sweep_len,
                    row.build_s,
                    row.scalar_eval_s,
                    row.batched_eval_s,
                    row.speedup,
                    if bit_identical {
                        "bit-identical"
                    } else {
                        "MISMATCH"
                    }
                );
                rows.push(row);
            }
        }
    }

    gates.finish(&SweepReport {
        threads: threads_flag,
        rows,
    });
}
