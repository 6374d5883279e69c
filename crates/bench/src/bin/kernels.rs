//! Kernel benchmark: scalar (lane width 1) vs vectorized (widths 4/8)
//! evaluation of the hot transcendental paths, emitting machine-readable
//! `BENCH_kernels.json`.
//!
//! These kernel groups are measured, each at every lane width with the
//! same inputs:
//!
//! * raw `num::simd` slice kernels (`exp`, `exp_m1`, `ln_1p` and the
//!   failure term) over seeded samples of the engines' argument ranges,
//! * `st_fast_integrate`: a batched StFast failure-probability sweep on
//!   the C3 design (the `(u, v)` quadrature lane sweep),
//! * `st_fast_point`: one-point StFast calls on C3 at log-spaced times —
//!   the shape of every lifetime probe and every serve `p_at` on an
//!   StFast session, whose failure-term kernel runs its lanes across the
//!   quadrature nodes (reported without a speedup bar),
//! * `hybrid_table_fill`: the hybrid `(γ, b)` table construction,
//! * `mc_weight_table`: a batched Monte-Carlo sweep (the
//!   `scaled_exp_grid` weight-table fill plus histogram traversal —
//!   recurrence-dominated, reported for completeness without a speedup
//!   bar),
//! * `uv_projection`: eight seeded principal-component draws projected
//!   through every block of C3 by `uv_given_z_tile` (the fleet's and
//!   st_MC's `(u, v)` stage), `W` draws per tile. Every width must equal
//!   the scalar `uv_given_z` of each draw bit for bit.
//!
//! Every width-4/8 row is gated at ≤ 1e-12 relative against the width-1
//! reference values. Full runs additionally require a ≥ 2× best-width
//! speedup on `st_fast_integrate` and `hybrid_table_fill`; the binary
//! exits non-zero if any gate fails, so a committed `BENCH_kernels.json`
//! always reflects a working lane layer. `--quick` keeps the accuracy
//! gates but skips the speedup bars (timings on loaded CI machines are
//! not trustworthy).
//!
//! ```text
//! cargo run --release -p statobd-bench --bin kernels -- \
//!     [--quick] [--out BENCH_kernels.json] [--threads 1]
//! ```

use statobd_bench::harness::{bit_identical, log_times, rel_divergence, Cli};
use statobd_bench::{measure_min, session_for};
use statobd_circuits::Benchmark;
use statobd_core::{
    build_engine, ChipAnalysis, EngineSpec, HybridConfig, HybridTables, MonteCarloConfig,
    ReliabilityEngine, StFastConfig,
};
use statobd_num::impl_json_struct;
use statobd_num::simd::{self, LaneWidth};

/// Widths every kernel is measured at (width 1 is the reference row).
const WIDTHS: [LaneWidth; 3] = [LaneWidth::W1, LaneWidth::W4, LaneWidth::W8];
/// Best-width speedup bar for the quadrature kernels (full runs).
const GATE_SPEEDUP: f64 = 2.0;
/// Relative gate for width-4/8 values against the width-1 reference.
const GATE_REL_ERR: f64 = 1e-12;

/// One measurement: a (kernel, lane width) cell.
#[derive(Debug, Clone)]
struct KernelRow {
    kernel: String,
    /// What one `eval_s` unit covers (self-description for the JSON).
    unit: String,
    width: usize,
    /// Seconds per evaluation unit (min over repetitions).
    eval_s: f64,
    /// Width-1 `eval_s` divided by this row's `eval_s`.
    speedup_vs_scalar: f64,
    /// Max relative deviation from the width-1 values (0 for width 1).
    max_rel_err: f64,
}

impl_json_struct!(KernelRow {
    kernel,
    unit,
    width,
    eval_s,
    speedup_vs_scalar,
    max_rel_err
});

/// The whole report (`BENCH_kernels.json`).
#[derive(Debug, Clone)]
struct KernelReport {
    /// Lane dispatch decision active for the vector rows.
    dispatch: String,
    threads: usize,
    quick: bool,
    gate_speedup: f64,
    gate_rel_err: f64,
    rows: Vec<KernelRow>,
}

impl_json_struct!(KernelReport {
    dispatch,
    threads,
    quick,
    gate_speedup,
    gate_rel_err,
    rows
});

/// Measures one kernel at every lane width: `measure` runs after the
/// width is forced and returns seconds per evaluation unit plus the
/// values; the width-1 run is the reference for both the speedup and the
/// accuracy gate.
fn bench_widths(
    kernel: &str,
    unit: &str,
    rows: &mut Vec<KernelRow>,
    mut measure: impl FnMut() -> (f64, Vec<f64>),
) {
    let mut scalar: Option<(f64, Vec<f64>)> = None;
    for width in WIDTHS {
        simd::force_width(Some(width));
        let (eval_s, values) = measure();
        let (scalar_s, reference) = scalar.get_or_insert_with(|| (eval_s, values.clone()));
        let row = KernelRow {
            kernel: kernel.to_string(),
            unit: unit.to_string(),
            width: width.lanes(),
            eval_s,
            speedup_vs_scalar: *scalar_s / eval_s.max(1e-12),
            max_rel_err: rel_divergence(&values, reference),
        };
        println!(
            "  {:<18} w={:<2} {:>10.4e} s/{:<14} {:>6.2}x  rel {:.2e}",
            row.kernel, row.width, row.eval_s, unit, row.speedup_vs_scalar, row.max_rel_err
        );
        rows.push(row);
    }
    simd::force_width(None);
}

/// Benchmarks one raw slice kernel at every width: the timed unit is the
/// kernel writing into a pre-allocated output buffer (no allocation or
/// copy in the measured region).
fn bench_slice(
    kernel: &str,
    unit: &str,
    rows: &mut Vec<KernelRow>,
    args: &[f64],
    f: impl Fn(&[f64], &mut [f64]),
) {
    let mut out = vec![0.0; args.len()];
    bench_widths(kernel, unit, rows, || {
        f(args, &mut out);
        let eval_s = measure_min(|| f(args, &mut out));
        f(args, &mut out);
        (eval_s, out.clone())
    });
}

/// Benchmarks an engine-level kernel at every width. `setup` runs once
/// per width (after the width is forced) and returns the evaluation
/// closure; a warm-up call charges lazy state (quadrature nodes, chip
/// samples) to neither path before the timed repetitions.
fn bench_engine<E: FnMut() -> Vec<f64>>(
    kernel: &str,
    unit: &str,
    rows: &mut Vec<KernelRow>,
    mut setup: impl FnMut() -> E,
) {
    bench_widths(kernel, unit, rows, || {
        let mut eval = setup();
        let values = eval();
        (measure_min(&mut eval), values)
    });
}

/// Seeded argument samples for the raw slice kernels, spanning the
/// engines' ranges: quadrature log-domain arguments for `exp`, the
/// non-positive hazard exponents for `exp_m1`, weakest-link log terms
/// for `ln_1p`.
fn sample_args(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    use statobd_num::rng::Rng;
    let mut rng = statobd_num::rng::Xoshiro256pp::seed_from_u64(0x6b65726e656c73);
    let mut exp_args = Vec::with_capacity(n);
    let mut exp_m1_args = Vec::with_capacity(n);
    let mut ln_1p_args = Vec::with_capacity(n);
    for _ in 0..n {
        exp_args.push(rng.gen_range(-100.0..50.0));
        exp_m1_args.push(rng.gen_range(-25.0..0.0));
        ln_1p_args.push(rng.gen_range(-0.999..9.0));
    }
    (exp_args, exp_m1_args, ln_1p_args)
}

/// Draws projected per `uv_projection` evaluation: one tile at the
/// widest lane width.
const UV_DRAWS: usize = 8;

/// Seeded principal-component draws for the `uv_projection` row.
fn sample_draws(n_pc: usize) -> Vec<Vec<f64>> {
    use statobd_num::rng::{NormalSampler, Xoshiro256pp};
    let mut rng = Xoshiro256pp::seed_from_u64(0x75765f70726f6a);
    let mut normal = NormalSampler::new();
    (0..UV_DRAWS)
        .map(|_| {
            let mut z = vec![0.0; n_pc];
            normal.fill(&mut rng, &mut z);
            z
        })
        .collect()
}

/// Times the `(u, v)` projection of `draws` through every block at lane
/// width `W` (`UV_DRAWS / W` tiles per evaluation) and returns seconds per
/// evaluation with the `(u, v)` values in `[draw][block]` order.
fn project_draws<const W: usize>(analysis: &ChipAnalysis, draws: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let n_pc = analysis.model().n_components();
    let tiles: Vec<Vec<f64>> = draws
        .chunks_exact(W)
        .map(|tile_draws| {
            let mut tile = vec![0.0; n_pc * W];
            for (w, z) in tile_draws.iter().enumerate() {
                for (k, &zk) in z.iter().enumerate() {
                    tile[k * W + w] = zk;
                }
            }
            tile
        })
        .collect();
    let blocks = analysis.blocks();
    let mut values = vec![0.0; draws.len() * blocks.len() * 2];
    let mut project = || {
        for (t, tile) in tiles.iter().enumerate() {
            let (mut u, mut v) = ([0.0; W], [0.0; W]);
            for (j, block) in blocks.iter().enumerate() {
                block.moments().uv_given_z_tile::<W>(tile, &mut u, &mut v);
                for w in 0..W {
                    let at = ((t * W + w) * blocks.len() + j) * 2;
                    values[at] = u[w];
                    values[at + 1] = v[w];
                }
            }
        }
    };
    let eval_s = measure_min(&mut project);
    project();
    (eval_s, values)
}

fn main() {
    let mut cli = Cli::from_env();
    let threads_flag = cli.threads(1);
    let quick = cli.quick;
    let mut gates = cli.gates("BENCH_kernels.json");
    let threads = (threads_flag > 0).then_some(threads_flag);
    // Resolve the dispatch before any width forcing so the report shows
    // the production decision.
    let dispatch = simd::dispatch_label();
    println!("lane dispatch: {dispatch}");

    let mut rows: Vec<KernelRow> = Vec::new();

    // --- Raw slice kernels -------------------------------------------------
    let n_args = if quick { 20_000 } else { 200_000 };
    let (exp_args, exp_m1_args, ln_1p_args) = sample_args(n_args);
    let unit = format!("{}k-elem slice", n_args / 1000);
    bench_slice("exp_slice", &unit, &mut rows, &exp_args, simd::exp_slice);
    bench_slice(
        "exp_m1_slice",
        &unit,
        &mut rows,
        &exp_m1_args,
        simd::exp_m1_slice,
    );
    bench_slice(
        "ln_1p_slice",
        &unit,
        &mut rows,
        &ln_1p_args,
        simd::ln_1p_slice,
    );
    bench_slice(
        "failure_term_slice",
        &unit,
        &mut rows,
        &exp_args,
        |xs, out| simd::failure_term_slice(xs, 1e-3, out),
    );

    // --- Engine kernels ----------------------------------------------------
    let session = session_for(Benchmark::C3, 0.5);
    let analysis = session.analysis();
    let n_sweep = if quick { 32 } else { 256 };
    let ts = log_times(n_sweep);

    bench_engine(
        "st_fast_integrate",
        &format!("{n_sweep}-pt sweep"),
        &mut rows,
        || {
            let spec = EngineSpec::StFast(StFastConfig::default()).with_threads(threads);
            let mut engine = build_engine(analysis, &spec).expect("st_fast builds");
            let ts = ts.clone();
            move || engine.failure_probabilities(&ts).expect("st_fast sweep")
        },
    );

    let n_point = if quick { 8 } else { 32 };
    let point_ts = log_times(n_point);
    bench_engine(
        "st_fast_point",
        &format!("{n_point} 1-pt calls"),
        &mut rows,
        || {
            let spec = EngineSpec::StFast(StFastConfig::default()).with_threads(threads);
            let mut engine = build_engine(analysis, &spec).expect("st_fast builds");
            let ts = point_ts.clone();
            move || {
                ts.iter()
                    .map(|&t| engine.failure_probability(t).expect("st_fast point"))
                    .collect()
            }
        },
    );

    let hybrid_config = HybridConfig {
        n_gamma: if quick { 30 } else { 100 },
        n_b: if quick { 30 } else { 100 },
        threads,
        ..HybridConfig::default()
    };
    // The timed unit is the (γ, b) table construction itself; the sweep
    // through the finished tables supplies the gate values and costs
    // only interpolation.
    bench_engine("hybrid_table_fill", "table build", &mut rows, || {
        let ts = ts.clone();
        move || {
            let mut tables = HybridTables::build(analysis, hybrid_config).expect("hybrid builds");
            tables.failure_probabilities(&ts).expect("hybrid sweep")
        }
    });

    let mc_config = MonteCarloConfig {
        n_chips: if quick { 100 } else { 500 },
        ..MonteCarloConfig::default()
    };
    let mc_ts: Vec<f64> = ts[..ts.len().min(64)].to_vec();
    bench_engine(
        "mc_weight_table",
        &format!("{}-pt sweep", mc_ts.len()),
        &mut rows,
        || {
            let spec = EngineSpec::MonteCarlo(mc_config).with_threads(threads);
            let mut engine = build_engine(analysis, &spec).expect("mc builds");
            let mc_ts = mc_ts.clone();
            move || engine.failure_probabilities(&mc_ts).expect("mc sweep")
        },
    );

    // The (u, v) projection, against the scalar per-draw evaluation.
    let draws = sample_draws(analysis.model().n_components());
    let scalar_uv: Vec<f64> = draws
        .iter()
        .flat_map(|z| analysis.blocks().iter().map(|b| b.moments().uv_given_z(z)))
        .flat_map(|(u, v)| [u, v])
        .collect();
    let mut uv_bit_exact = Vec::new();
    bench_widths(
        "uv_projection",
        &format!("{UV_DRAWS}-draw pass"),
        &mut rows,
        || {
            let (eval_s, values) = match simd::active_width() {
                LaneWidth::W1 => project_draws::<1>(analysis, &draws),
                LaneWidth::W4 => project_draws::<4>(analysis, &draws),
                LaneWidth::W8 => project_draws::<8>(analysis, &draws),
            };
            uv_bit_exact.push(bit_identical(&values, &scalar_uv));
            (eval_s, values)
        },
    );

    // --- Gates -------------------------------------------------------------
    for (width, exact) in WIDTHS.iter().zip(&uv_bit_exact) {
        gates.check(*exact, || {
            format!("uv_projection w={width}: differs from uv_given_z in some bit")
        });
    }
    for row in rows.iter().filter(|r| r.width > 1) {
        gates.check(row.max_rel_err <= GATE_REL_ERR, || {
            format!(
                "{} w={}: rel err {:.3e} above the {GATE_REL_ERR:.0e} gate",
                row.kernel, row.width, row.max_rel_err
            )
        });
    }
    for kernel in ["st_fast_integrate", "hybrid_table_fill"] {
        let best = rows
            .iter()
            .filter(|r| r.kernel == kernel && r.width > 1)
            .map(|r| r.speedup_vs_scalar)
            .fold(0.0, f64::max);
        gates.bar(best >= GATE_SPEEDUP, || {
            format!("{kernel}: best lane speedup {best:.2}x below the {GATE_SPEEDUP}x bar")
        });
    }

    gates.finish(&KernelReport {
        dispatch,
        threads: threads_flag,
        quick,
        gate_speedup: GATE_SPEEDUP,
        gate_rel_err: GATE_REL_ERR,
        rows,
    });
}
