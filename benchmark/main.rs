//! The repository benchmark: four single-threaded workloads that use the
//! paper's method the way its users do, each reporting end-to-end metrics,
//! per-layer metrics from a traced run, and the result of its output
//! checks.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload <design_build|serve_mix|fleet_paper|fleet_spares> \
//!     --seed <n> [--seconds <n>] [--trace 0|1] [--trace-out <spans.json>]
//! cargo run ... -- compare <parent outputs...> -- <change outputs...>
//! ```
//!
//! A run prints a `#` header, one `name value unit` line per metric, and
//! as its last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. It exits 1 when an output check
//! fails. README.md lists the metrics and why each workload was chosen.

mod compare;
mod design;
mod fleet;
mod serve;
mod stats;
mod trace;

use statobd::num::json::Json;
use std::path::{Path, PathBuf};
use trace::Recorder;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["design_build", "serve_mix", "fleet_paper", "fleet_spares"];

/// The end-to-end metrics and their units. What an operation is depends
/// on the workload: a lifetime query answered, a request served, a chip
/// simulated.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Stages timed while setting up (share of the untraced set-up time).
const SETUP_STAGES: [&str; 7] = [
    "circuits.build_design",
    "variation.model_build",
    "core.characterize",
    "core.engine_build",
    "artifact.load",
    "session.bind",
    "manager.build",
];

/// Stages timed while serving operations (share of the untraced time of
/// the same operations).
const OP_STAGES: [&str; 12] = [
    "core.lifetime",
    "core.p_at",
    "core.sweep",
    "manager.step",
    "json.parse",
    "json.encode",
    "variation.sample",
    "core.uv",
    "core.failure_term",
    "simd.failure_term",
    "core.compose",
    "simd.bisect",
];

/// The remaining per-layer metrics and their units.
const LAYER_VALUES: [(&str, &str); 9] = [
    ("serve.other.frac", "fraction"),
    ("serve.requests", "count"),
    ("fleet.exceed_frac", "fraction"),
    ("variation.components", "count"),
    ("simd.lane_width", "count"),
    ("trace.setup_coverage", "fraction"),
    ("trace.op_coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Every per-layer metric, in output order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    SETUP_STAGES
        .iter()
        .chain(&OP_STAGES)
        .map(|s| (format!("{s}.frac"), "fraction"))
        .chain(LAYER_VALUES.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A traced run's spans and the untraced times they are shares of.
#[derive(Debug)]
struct Traced {
    rec: Recorder,
    setup_ref_s: f64,
    op_ref_s: f64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// One sample per set-up repetition (seconds).
    pub setup_s: Vec<f64>,
    /// Operations per second of the timed loop.
    pub ops_per_s: f64,
    /// Latency of one user-visible call.
    pub latency_ms: f64,
    /// Operations checked, and how many failed or were incorrect.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Printed `name value unit` lines that no bound applies to.
    unbounded: Vec<Metric>,
    /// Per-layer values the workload measures directly.
    extras: Vec<(&'static str, f64)>,
    traced: Option<Traced>,
}

impl Measured {
    /// Counts one failed or incorrect operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.unbounded.push(Metric::new(name, value, unit));
    }

    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.push((name, value));
    }

    /// Attaches a traced run: `setup_ref_s` and `op_ref_s` are the
    /// untraced times of the set-up and operation work it replayed.
    pub fn set_trace(&mut self, rec: Recorder, setup_ref_s: f64, op_ref_s: f64) {
        self.traced = Some(Traced {
            rec,
            setup_ref_s,
            op_ref_s,
        });
    }

    fn share(&self, stages: &[&str], reference: impl Fn(&Traced) -> f64) -> Vec<f64> {
        let Some(t) = &self.traced else {
            return vec![0.0; stages.len()];
        };
        let r = reference(t);
        stages
            .iter()
            .map(|s| if r > 0.0 { t.rec.self_s(s) / r } else { 0.0 })
            .collect()
    }

    /// Share of the untraced operation time the replayed stages cover.
    pub fn op_coverage(&self) -> f64 {
        self.share(&OP_STAGES, |t| t.op_ref_s).iter().sum()
    }

    fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let values = [
            stats::median(&self.setup_s),
            self.ops_per_s,
            self.latency_ms,
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect()
    }

    /// The per-layer metrics; `costs` are the measured costs of recording,
    /// from which the tracing overhead follows.
    fn per_layer(&self, costs: &trace::Costs) -> Vec<Metric> {
        let setup = self.share(&SETUP_STAGES, |t| t.setup_ref_s);
        let op = self.share(&OP_STAGES, |t| t.op_ref_s);
        let (spans, overhead_s, traced_s) = self.traced.as_ref().map_or((0, 0.0, 0.0), |t| {
            (t.rec.spans(), t.rec.overhead_s(costs), t.rec.traced_s())
        });
        let value = |name: &str| match name {
            "simd.lane_width" => statobd::num::simd::active_width().lanes() as f64,
            "trace.setup_coverage" => setup.iter().sum(),
            "trace.op_coverage" => op.iter().sum(),
            "trace.overhead_frac" => overhead_s / traced_s.max(f64::MIN_POSITIVE),
            "trace.spans" => spans as f64,
            _ => self
                .extras
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        };
        let stages = SETUP_STAGES.iter().chain(&OP_STAGES);
        let mut metrics: Vec<Metric> = stages
            .zip(setup.iter().chain(&op))
            .map(|(stage, &share)| Metric::new(format!("{stage}.frac"), share, "fraction"))
            .collect();
        metrics.extend(
            LAYER_VALUES
                .iter()
                .map(|&(name, unit)| Metric::new(name, value(name), unit)),
        );
        metrics
    }
}

/// Runs one workload; `tiny` selects the smoke-test size.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    scratch: &Path,
) -> Result<Measured, String> {
    let fleet = |p: fleet::Params| fleet::run(&if tiny { p.tiny() } else { p }, seed, trace);
    match name {
        "design_build" => {
            let p = if tiny {
                design::Params::tiny()
            } else {
                design::Params::full(seconds)
            };
            design::run(&p, seed, trace)
        }
        "serve_mix" => {
            let p = if tiny {
                serve::Params::tiny()
            } else {
                serve::Params::full(seconds)
            };
            serve::run(&p, seed, trace, scratch)
        }
        "fleet_paper" => fleet(fleet::Params::paper(seconds)),
        "fleet_spares" => fleet(fleet::Params::spares(seconds)),
        other => Err(format!(
            "unknown workload '{other}' (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> [--seconds <n>] [--trace 0|1] \
                     [--trace-out <path>]\n       benchmark compare <outputs...> -- <outputs...>";

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn print_metric(m: &Metric) {
    println!("{} {} {}", m.name, m.value, m.unit);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let opts = parse_options(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Single-threaded throughout: every spec and fleet config also pins
    // `threads: Some(1)`; this covers stages that read only the variable.
    std::env::set_var("STATOBD_THREADS", "1");
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# benchmark workload={} seed={} seconds={} trace={} lanes=\"{}\" nproc={nproc} threads=1",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        statobd::num::simd::dispatch_label()
    );

    // Scratch files (the serve workload's artifact cache) stay inside the
    // working directory and are removed before exit.
    let scratch_root = PathBuf::from(".bench_scratch");
    let scratch = scratch_root.join(format!("{}-{}", opts.workload, std::process::id()));
    let result = run_workload(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        false,
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&scratch_root);
    let m = result
        .and_then(|m| match m.attempted {
            0 => Err("no operation was attempted".to_string()),
            _ => Ok(m),
        })
        .unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        });
    debug_assert!(m.failed <= m.attempted, "{} of {}", m.failed, m.attempted);

    let e2e = m.end_to_end(stats::peak_rss_mb());
    e2e.iter().chain(&m.unbounded).for_each(print_metric);
    let layers = if opts.trace {
        let layers = m.per_layer(&trace::calibrate());
        layers.iter().for_each(print_metric);
        layers
    } else {
        Vec::new()
    };
    if let (Some(path), Some(t)) = (&opts.trace_out, &m.traced) {
        if let Err(e) = std::fs::write(path, t.rec.to_json().to_compact()) {
            eprintln!("benchmark: writing {}: {e}", path.display());
        }
    }

    // A metric that is not finite is a broken measurement, not a failed
    // operation: the run is incorrect without counting against `failed`.
    let mut correct = m.failed == 0;
    for metric in e2e.iter().chain(&layers) {
        if !metric.value.is_finite() {
            eprintln!("check failed: metric {} is not finite", metric.name);
            correct = false;
        }
    }
    for p in &m.problems {
        eprintln!("check failed: {p}");
    }
    let metrics = if opts.trace { layers } else { e2e };
    let result = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Number(m.attempted as f64)),
        ("failed".to_string(), Json::Number(m.failed as f64)),
        (
            "metrics".to_string(),
            Json::Object(
                metrics
                    .into_iter()
                    .map(|m| {
                        let unit = Json::String(m.unit.to_string());
                        let entry = vec![
                            ("value".to_string(), Json::Number(m.value)),
                            ("unit".to_string(), unit),
                        ];
                        (m.name, Json::Object(entry))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at its smoke-test size: no check fails and every
    /// named metric is present and finite.
    #[test]
    fn every_workload_runs_at_tiny_size() {
        let scratch =
            std::env::temp_dir().join(format!("statobd-benchmark-{}", std::process::id()));
        for name in WORKLOADS {
            let m = run_workload(name, 7, 0.0, true, true, &scratch.join(name))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(m.failed, 0, "{name}: {:?}", m.problems);
            assert!(m.attempted > 0, "{name}");
            let e2e = m.end_to_end(stats::peak_rss_mb());
            for metric in &e2e {
                assert!(
                    metric.value.is_finite() && metric.value > 0.0,
                    "{name}: {metric:?}"
                );
            }
            let layers = m.per_layer(&trace::Costs {
                span_s: 1e-8,
                lap_s: 1e-8,
            });
            let names: Vec<_> = layers.iter().map(|l| (l.name.clone(), l.unit)).collect();
            assert_eq!(names, per_layer_names(), "{name}");
            for metric in &layers {
                assert!(metric.value.is_finite(), "{name}: {metric:?}");
            }
            let spans = layers.iter().find(|l| l.name == "trace.spans").unwrap();
            assert!(spans.value > 0.0, "{name}: nothing traced");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let doc = Json::parse(include_str!("../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    /// This package builds the library with its own release profile, so a
    /// change to the repository's must be copied here to be measured.
    #[test]
    fn release_profile_matches_the_repository() {
        let settings = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let repository = settings(include_str!("../Cargo.toml"));
        assert!(!repository.is_empty(), "no [profile.release] at the root");
        assert_eq!(settings(include_str!("Cargo.toml")), repository);
    }
}
