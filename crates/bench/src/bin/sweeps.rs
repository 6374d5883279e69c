//! Sweep benchmark: one-point calls vs one batched time sweep for every
//! reliability engine, emitting machine-readable `BENCH_sweeps.json` so
//! the repo accumulates a perf trajectory.
//!
//! Every engine evaluates `P(t)` only in its batched
//! `failure_probabilities`; `failure_probability(t)` is a one-point call
//! of it. For each design × engine × sweep length the runner times `n`
//! one-point `failure_probability` calls — through the same path — against
//! one `failure_probabilities` call over the same log-spaced times,
//! verifies the two are **bit-identical**, and records build time, both
//! eval times, the speedup and the batched throughput. The JSON keeps
//! its historical field names: `scalar_eval_s` is the time of the `n`
//! one-point calls.
//!
//! Each engine is warmed up (one throwaway evaluation, so lazily built
//! node sets and tables are charged to neither path) and every
//! measurement is the minimum over several repetitions, with fast cells
//! iterated until each repetition is long enough to time reliably. Full
//! runs additionally **assert one sweep ≥ n one-point calls for every
//! row** and exit non-zero otherwise, so a committed `BENCH_sweeps.json`
//! can never contain a batched-path regression (`--quick` smokes skip
//! the speedup assertion but keep the bit-identity check).
//!
//! Each design × engine also gets a lifetime row per per-million target:
//! the engine calls and time points one `solve_lifetime` over
//! `LIFETIME_BRACKET_S` makes (through a counting wrapper), its seconds
//! per solve, and its relative distance from a 200-step bisection of the
//! same engine. Two gates hold for these rows at every size, `--quick`
//! included: at most [`MAX_SOLVE_POINTS`] time points per solve, and at
//! most [`MAX_SOLVE_REL`] from the bisection.
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
//!   "bit_identical": true }, ... ],
//!   "lifetimes": [ { "design": "C1", "engine": "st_fast", "target":
//!   1e-6, "calls": 7, "points": 7, "solve_s": ..., "lifetime_s": ...,
//!   "rel_to_bisection": ... }, ... ] }
//! ```

use statobd::LIFETIME_BRACKET_S;
use statobd_bench::harness::{bit_identical, design, log_times, remeasure, Cli};
use statobd_bench::{measure_min, session_for, BRACKET};
use statobd_circuits::Benchmark;
use statobd_core::{
    build_engine, params, solve_lifetime, EngineKind, EngineSpec, MonteCarloConfig,
    ReliabilityEngine, Result,
};
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
    /// Wall seconds for `sweep_len` one-point `failure_probability`
    /// calls (the historical field name).
    scalar_eval_s: f64,
    /// Wall seconds for one batched `failure_probabilities` call.
    batched_eval_s: f64,
    /// `scalar_eval_s / batched_eval_s`.
    speedup: f64,
    /// Time points per second through the batched path.
    batched_evals_per_s: f64,
    /// Whether every batched probability matched its one-point call bit
    /// for bit (the run aborts with a non-zero exit if any row is false).
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

/// Most time points one lifetime solve may spend (gated at every size).
const MAX_SOLVE_POINTS: usize = 8;

/// Largest relative distance of a solved lifetime from the 200-step
/// bisection (gated at every size).
const MAX_SOLVE_REL: f64 = 1e-10;

/// One lifetime solve: a (design, engine, target) cell.
#[derive(Debug, Clone)]
struct LifetimeRow {
    design: String,
    engine: String,
    /// Target failure probability (1 or 10 per million).
    target: f64,
    /// Engine calls the solve made.
    calls: usize,
    /// Time points over all those calls.
    points: usize,
    /// Wall seconds per solve.
    solve_s: f64,
    /// The solved lifetime (seconds).
    lifetime_s: f64,
    /// Relative distance of `lifetime_s` from a 200-step bisection of the
    /// same engine.
    rel_to_bisection: f64,
}

impl_json_struct!(LifetimeRow {
    design,
    engine,
    target,
    calls,
    points,
    solve_s,
    lifetime_s,
    rel_to_bisection
});

/// The whole report (`BENCH_sweeps.json`).
#[derive(Debug, Clone)]
struct SweepReport {
    /// Worker threads every engine was pinned to (0 = all cores).
    threads: usize,
    rows: Vec<SweepRow>,
    lifetimes: Vec<LifetimeRow>,
}

impl_json_struct!(SweepReport {
    threads,
    rows,
    lifetimes
});

/// An engine wrapper counting the calls and time points it is asked for.
struct Counting<'e> {
    inner: &'e mut dyn ReliabilityEngine,
    calls: usize,
    points: usize,
}

impl ReliabilityEngine for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        self.calls += 1;
        self.points += ts.len();
        self.inner.failure_probabilities(ts)
    }
}

/// `P(t) = target` by 200 bisection steps on `ln t` over `bracket`,
/// stopping early once the midpoint no longer splits the bracket.
fn bisect_lifetime(engine: &mut dyn ReliabilityEngine, target: f64, bracket: (f64, f64)) -> f64 {
    let (mut lo, mut hi) = (bracket.0.ln(), bracket.1.ln());
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if !(lo < mid && mid < hi) {
            break;
        }
        if engine.failure_probability(mid.exp()).expect("P(t)") >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
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
    let sweeps = cli.flag("--sweeps", list(at_least(2)), vec![20, 200], vec![8, 40]);
    let mc_chips = cli.flag("--mc-chips", at_least(1), 1000, 200);
    let mut gates = cli.gates("BENCH_sweeps.json");
    let threads = (threads_flag > 0).then_some(threads_flag);
    let mut rows = Vec::new();
    let mut lifetimes = Vec::new();
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
            // path (historically they landed in the first one-point loop,
            // inflating short-sweep speedups).
            engine
                .failure_probability(0.5 * (BRACKET.0 + BRACKET.1))
                .expect("warm-up eval");

            for &n in &sweeps {
                let ts = log_times(n);

                let one_point: Vec<f64> = ts
                    .iter()
                    .map(|&t| engine.failure_probability(t).expect("one-point eval"))
                    .collect();
                let batched = engine.failure_probabilities(&ts).expect("batched eval");

                let bit_identical = bit_identical(&one_point, &batched);
                gates.check(bit_identical, || {
                    format!(
                        "{} {} n={n}: batched results diverged from the one-point calls",
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
                                    engine.failure_probability(t).expect("one-point eval");
                                }
                            }
                        })
                    },
                );
                let speedup = scalar_eval_s / batched_eval_s.max(1e-12);
                gates.bar(speedup >= 1.0, || {
                    format!(
                        "{} {} n={n}: batched {batched_eval_s:.3e}s slower than one-point \
                         calls {scalar_eval_s:.3e}s ({speedup:.3}x)",
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
                    "  {:<9} n={:<4} build {:>9.4}s  1-point {:>9.4}s  batched {:>9.4}s  \
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

            for target in [params::ONE_PER_MILLION, params::TEN_PER_MILLION] {
                let mut counting = Counting {
                    inner: engine.as_mut(),
                    calls: 0,
                    points: 0,
                };
                let lifetime_s = solve_lifetime(&mut counting, target, LIFETIME_BRACKET_S)
                    .expect("lifetime solve");
                let (calls, points) = (counting.calls, counting.points);
                let solve_s = measure_min(|| {
                    solve_lifetime(engine.as_mut(), target, LIFETIME_BRACKET_S)
                        .expect("lifetime solve")
                });
                let exact = bisect_lifetime(engine.as_mut(), target, LIFETIME_BRACKET_S);
                let rel_to_bisection = ((lifetime_s - exact) / exact).abs();
                let what = format!("{} {} at {target:e}", benchmark.name(), kind.name());
                gates.check(points <= MAX_SOLVE_POINTS, || {
                    format!("{what}: {points} time points per solve (> {MAX_SOLVE_POINTS})")
                });
                gates.check(rel_to_bisection <= MAX_SOLVE_REL, || {
                    format!(
                        "{what}: lifetime {lifetime_s:e} is {rel_to_bisection:.2e} from the \
                         bisection's {exact:e} (> {MAX_SOLVE_REL:e})"
                    )
                });
                println!(
                    "  {:<9} lifetime @ {target:e}: {calls} calls, {points} points, \
                     {solve_s:.3e}s per solve, {rel_to_bisection:.1e} from bisection",
                    kind.name()
                );
                lifetimes.push(LifetimeRow {
                    design: benchmark.name().to_string(),
                    engine: kind.name().to_string(),
                    target,
                    calls,
                    points,
                    solve_s,
                    lifetime_s,
                    rel_to_bisection,
                });
            }
        }
    }

    gates.finish(&SweepReport {
        threads: threads_flag,
        rows,
        lifetimes,
    });
}
