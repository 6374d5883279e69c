//! Serve benchmark: the build/serve split, measured — emitting
//! machine-readable `BENCH_serve.json`.
//!
//! The runner compiles the C3 hybrid spec cold into a scratch
//! [`ArtifactCache`], re-opens it warm (the load must come from the
//! cache and skip the eigendecomposition / table construction
//! entirely), verifies the two sessions answer a committed query sweep
//! **bit-identically**, then times sustained queries two ways: direct
//! [`Session::p_at`] calls and full request/reply round trips through
//! [`serve_lines`] (JSON parse + dispatch + JSON print per query).
//!
//! ```text
//! cargo run --release -p statobd-bench --bin serve -- \
//!     [--quick] [--out BENCH_serve.json] [--design C3] \
//!     [--threads 1] [--queries 20000]
//! ```
//!
//! The run exits non-zero when the warm open misses the cache, the warm
//! and cold sweeps diverge, or (outside `--quick`) the warm/cold
//! speedup falls below 10x. Output schema (one JSON object):
//!
//! ```text
//! { "design": "C3", "engine": "hybrid", "threads": 1,
//!   "cold_build_s": ..., "warm_load_s": ..., "speedup": ...,
//!   "warm_source": "cache", "bit_identical": true, "queries": 20000,
//!   "session_queries_per_s": ..., "serve_requests_per_s": ...,
//!   "speedup_ok": true }
//! ```

use statobd::{serve_lines, AnalysisSpec, ArtifactCache, EngineKind, ServeConfig, Session};
use statobd_bench::harness::{bit_identical, design, log_times, Cli};
use statobd_circuits::Benchmark;
use statobd_num::flags::at_least;
use statobd_num::impl_json_struct;
use statobd_num::json::ToJson;
use std::io::Cursor;
use std::time::Instant;

/// Minimum warm/cold speedup the full run enforces; `--quick` designs
/// are too small for the ratio to be stable, so they only record it.
const MIN_SPEEDUP: f64 = 10.0;
/// Points of the committed query sweep for the bit-equality check
/// (log-spaced across the lifetime bracket).
const SWEEP_POINTS: usize = 64;

/// The whole report (`BENCH_serve.json`).
#[derive(Debug, Clone)]
struct ServeReport {
    design: String,
    engine: String,
    /// Worker threads the cold build was pinned to (0 = all cores).
    threads: usize,
    /// Cold compile seconds (eigendecomposition + hybrid tables).
    cold_build_s: f64,
    /// Warm open seconds (artifact deserialization + validation only).
    warm_load_s: f64,
    /// `cold_build_s / warm_load_s`.
    speedup: f64,
    /// Where the warm open came from (must be `"cache"`).
    warm_source: String,
    /// Whether the warm session reproduced the cold sweep bit for bit.
    bit_identical: bool,
    /// Sustained-query loop length.
    queries: u64,
    /// Direct `Session::p_at` queries per second on the warm session.
    session_queries_per_s: f64,
    /// Full `serve_lines` round trips per second (parse + query + print).
    serve_requests_per_s: f64,
    /// Whether the speedup criterion held (always recorded; only
    /// enforced outside `--quick`).
    speedup_ok: bool,
}

impl_json_struct!(ServeReport {
    design,
    engine,
    threads,
    cold_build_s,
    warm_load_s,
    speedup,
    warm_source,
    bit_identical,
    queries,
    session_queries_per_s,
    serve_requests_per_s,
    speedup_ok
});

fn main() {
    let mut cli = Cli::from_env();
    let threads_flag = cli.threads(1);
    let design = cli.flag("--design", design, Benchmark::C3, Benchmark::C1);
    let queries = cli.flag("--queries", at_least(1), 20_000, 2_000);
    let mut gates = cli.gates("BENCH_serve.json");
    let threads = (threads_flag > 0).then_some(threads_flag);
    let spec = AnalysisSpec::benchmark(design)
        .with_engine(EngineKind::Hybrid)
        .with_threads(threads);

    // A scratch cache so the benchmark never reads (or pollutes) the
    // user's real artifact store.
    let scratch = std::env::temp_dir().join(format!("statobd-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch cache dir");
    let cache = ArtifactCache::new(&scratch);

    // Cold: the first open compiles from scratch and persists the
    // artifact; warm: the second must deserialize it.
    let mut cold = Session::open(&spec, &cache).expect("cold open");
    let cold_build_s = cold.stats().build_s;
    assert_eq!(
        cold.stats().source.name(),
        "cold",
        "scratch cache was not empty"
    );
    let mut warm = Session::open(&spec, &cache).expect("warm open");
    let warm_load_s = warm.stats().build_s;
    let warm_source = warm.stats().source.name().to_string();
    let speedup = cold_build_s / warm_load_s.max(1e-12);

    // The committed sweep must be bit-identical across the two paths.
    let ts = log_times(SWEEP_POINTS);
    let p_cold = cold.p_at_many(&ts).expect("cold sweep");
    let p_warm = warm.p_at_many(&ts).expect("warm sweep");
    let bit_identical = bit_identical(&p_cold, &p_warm);

    // Sustained direct queries on the warm session.
    let query_start = Instant::now();
    let mut checksum = 0.0;
    for i in 0..queries {
        checksum += warm.p_at(ts[i % ts.len()]).expect("query");
    }
    let query_s = query_start.elapsed().as_secs_f64();
    assert!(checksum.is_finite());

    // Full protocol round trips: open once from the warm cache, then
    // one p_at request per line. Request parsing, dispatch and reply
    // printing are all inside the timed region — this is what a serve
    // client actually observes per query.
    let mut script = format!(
        "{{\"op\": \"open\", \"session\": \"bench\", \"spec\": {}}}\n",
        spec.to_json().to_compact()
    );
    for i in 0..queries {
        script.push_str(&format!(
            "{{\"op\": \"p_at\", \"session\": \"bench\", \"t_s\": {:e}}}\n",
            ts[i % ts.len()]
        ));
    }
    script.push_str("{\"op\": \"shutdown\"}\n");
    let config = ServeConfig {
        max_sessions: 2,
        cache: Some(ArtifactCache::new(&scratch)),
    };
    let mut replies = Vec::new();
    let serve_start = Instant::now();
    serve_lines(Cursor::new(script.as_bytes()), &mut replies, config).expect("serve loop");
    let serve_s = serve_start.elapsed().as_secs_f64();
    let reply_text = String::from_utf8(replies).expect("utf-8 replies");
    // One reply per request (open, the queries, shutdown), all ok: an
    // empty reply stream must not pass vacuously.
    let replies = reply_text.lines().count();
    let all_ok = replies == queries + 2 && reply_text.lines().all(|l| l.contains("\"ok\":true"));

    let _ = std::fs::remove_dir_all(&scratch);

    let speedup_ok = speedup >= MIN_SPEEDUP && warm_source == "cache";
    let report = ServeReport {
        design: design.name().to_string(),
        engine: EngineKind::Hybrid.name().to_string(),
        threads: threads_flag,
        cold_build_s,
        warm_load_s,
        speedup,
        warm_source: warm_source.clone(),
        bit_identical,
        queries: queries as u64,
        session_queries_per_s: queries as f64 / query_s.max(1e-12),
        serve_requests_per_s: (queries + 2) as f64 / serve_s.max(1e-12),
        speedup_ok,
    };
    println!(
        "{} / {}: cold build {:.3}s, warm load {:.4}s  ({:.1}x, source {})",
        report.design, report.engine, cold_build_s, warm_load_s, speedup, warm_source
    );
    println!(
        "  sweep {}  |  {:.0} queries/s direct  |  {:.0} requests/s through serve",
        if bit_identical {
            "bit-identical"
        } else {
            "MISMATCH"
        },
        report.session_queries_per_s,
        report.serve_requests_per_s
    );
    gates.check(warm_source == "cache", || {
        "warm open did not come from the artifact cache".to_string()
    });
    gates.check(bit_identical, || {
        "warm session diverged from the cold build".to_string()
    });
    gates.check(all_ok, || {
        format!(
            "serve wrote {replies} replies for {} requests, or one reported ok=false",
            queries + 2
        )
    });
    gates.bar(speedup_ok, || {
        format!("warm load speedup {speedup:.1}x is below {MIN_SPEEDUP}x")
    });
    gates.finish(&report);
}
