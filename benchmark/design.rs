//! `design_build`: the paper's Table III and Fig. 6/7 use. Each item is a
//! cold `Session::build` of one bundled design (st_fast engine) followed
//! by its 1 ppm and 10 ppm lifetimes.
//!
//! A run makes three passes over the seven designs, one at each
//! correlation distance of [`RHOS`]. The first pass is always at
//! [`QUERY_RHO`] in a fixed design order; the seed shuffles the order of
//! the other two passes and of the designs within them. No spec is built
//! twice (a memo of identical specs gains nothing), while the designs of a
//! pass share one ρ (a model-sharing change shows here and nowhere else).
//! About 90 % of a build is the spectral decomposition of the thickness
//! model.
//!
//! The first pass's sessions stay open and answer the lifetime queries
//! in rounds, each solving both targets on all seven. After the last
//! build of the first pass and after every later build, rounds run for an
//! equal share of `--seconds` (at least one round). Every round is the
//! same work and the rounds are spread over the run, so the fastest of
//! them is the estimate least slowed by other tenants; a build lasts about
//! a second, too long for that. `setup_s` takes, per design, the fastest
//! of its three builds and then the median over the designs.

use crate::stats::{median, min, shuffle};
use crate::trace::Recorder;
use crate::Measured;
use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{build_engine, params, solve_lifetime, ChipAnalysis, ReliabilityEngine};
use statobd::num::json::Json;
use statobd::num::rng::Xoshiro256pp;
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder};
use statobd::{AnalysisSpec, DesignSource, EngineKind, Session, LIFETIME_BRACKET_S};
use std::time::Instant;

/// The correlation distances of the passes (Table III's sweep).
const RHOS: [f64; 3] = [0.25, 0.5, 1.0];

/// The correlation distance of the first pass, whose sessions answer the
/// lifetime queries.
const QUERY_RHO: f64 = 0.5;

/// Builds followed by query rounds: the last of the first pass, then every
/// later one.
const QUERY_GAPS: usize = 1 + (RHOS.len() - 1) * Benchmark::ALL.len();

/// The two per-million lifetime criteria of the paper's tables.
const TARGETS: [f64; 2] = [params::ONE_PER_MILLION, params::TEN_PER_MILLION];

/// Relative tolerance of the lifetime goldens.
const GOLDEN_REL: f64 = 1e-6;

/// Lifetimes recorded once from this workload's specs, keyed by spec hash.
const GOLDENS: &str = include_str!("goldens.json");

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Query time in all, split evenly over the [`QUERY_GAPS`].
    pub seconds: f64,
    /// Correlation-grid side of every spec.
    pub grid_side: usize,
    /// Thermal-grid side override (`None` keeps the substrate default).
    pub thermal_side: Option<usize>,
}

impl Params {
    pub fn full(seconds: f64) -> Self {
        Params {
            seconds,
            grid_side: params::DEFAULT_GRID_SIDE,
            thermal_side: None,
        }
    }

    pub fn tiny() -> Self {
        Params {
            seconds: 0.0,
            grid_side: 5,
            thermal_side: Some(16),
        }
    }
}

/// The spec of one item.
pub fn spec(design: Benchmark, rho: f64, p: &Params) -> AnalysisSpec {
    let mut spec = AnalysisSpec::benchmark(design)
        .with_grid_side(p.grid_side)
        .with_engine(EngineKind::StFast)
        .with_threads(Some(1));
    spec.model.kernel = CorrelationKernel::Exponential { rel_distance: rho };
    if let Some(n) = p.thermal_side {
        spec.thermal.nx = n;
        spec.thermal.ny = n;
    }
    spec
}

/// The open first-pass sessions and what their query rounds measured.
#[derive(Default)]
struct Queries {
    /// Each session with the golden-checked lifetimes it must repeat.
    sessions: Vec<(Benchmark, Session, [f64; 2])>,
    /// The fastest solve per session and target.
    solve_s: Vec<[f64; 2]>,
    round_s: Vec<f64>,
}

impl Queries {
    fn open(&mut self, design: Benchmark, session: Session, lifetimes: [f64; 2]) {
        self.sessions.push((design, session, lifetimes));
        self.solve_s.push([f64::INFINITY; 2]);
    }

    /// Solves both targets on every session; each solve is one operation
    /// and must repeat its first answer bit for bit.
    fn round(&mut self, m: &mut Measured) {
        let t0 = Instant::now();
        for ((design, session, want), best) in self.sessions.iter_mut().zip(&mut self.solve_s) {
            for (k, &target) in TARGETS.iter().enumerate() {
                m.attempted += 1;
                let t = Instant::now();
                let got = session.lifetime(target);
                best[k] = best[k].min(t.elapsed().as_secs_f64());
                match got {
                    Ok(life) if life.to_bits() == want[k].to_bits() => {}
                    Ok(life) => m.fail(format!(
                        "{} lifetime at P={target:e} is {life:e} s, first {:e} s",
                        design.name(),
                        want[k]
                    )),
                    Err(e) => m.fail(format!("{} lifetime: {e}", design.name())),
                }
            }
        }
        self.round_s.push(t0.elapsed().as_secs_f64());
    }
}

pub fn run(p: &Params, seed: u64, trace: bool) -> Result<Measured, String> {
    let goldens = Json::parse(GOLDENS).map_err(|e| format!("goldens.json: {e}"))?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut later: Vec<f64> = RHOS.into_iter().filter(|&r| r != QUERY_RHO).collect();
    shuffle(&mut later, &mut rng);
    let mut m = Measured::default();
    let mut builds: Vec<(Benchmark, f64)> = Vec::new();
    let mut queries = Queries::default();
    let mut n_components = 0;
    // A traced run rebuilds each first-pass item stage by stage right after
    // its untraced build, so both see the same load on the host.
    let mut rec = Recorder::new();
    let (mut traced_builds_s, mut traced_solves_s) = (0.0, 0.0);
    for (pass, rho) in std::iter::once(QUERY_RHO).chain(later).enumerate() {
        // The allocator adapts to the first large frees it sees, so a
        // shuffled first pass would let the seed set the peak resident
        // memory (by one 3 MiB matrix in about one seed in four).
        let mut order = Benchmark::ALL;
        if pass > 0 {
            shuffle(&mut order, &mut rng);
        }
        for design in order {
            let spec = spec(design, rho, p);
            m.attempted += 1;
            let t0 = Instant::now();
            let built = Session::build(&spec);
            let build_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let result = built.and_then(|mut s| {
                let mut lifetimes = [0.0; 2];
                for (life, &target) in lifetimes.iter_mut().zip(&TARGETS) {
                    *life = s.lifetime(target)?;
                }
                Ok((s, lifetimes))
            });
            let solves_s = t1.elapsed().as_secs_f64();
            match result {
                Ok((session, lifetimes)) => {
                    n_components = session.stats().n_components;
                    // At most one failure per item, the first check it fails.
                    let mut checked = check_golden(&goldens, &spec, &lifetimes);
                    if trace && pass == 0 {
                        let traced = match traced_item(&mut rec, builds.len() as u64, &spec) {
                            Ok(t) if t.map(f64::to_bits) == lifetimes.map(f64::to_bits) => Ok(()),
                            Ok(t) => Err(format!(
                                "traced lifetimes {t:?} differ from untraced {lifetimes:?}"
                            )),
                            Err(e) => Err(format!("traced build: {e}")),
                        };
                        checked = checked.and(traced);
                        traced_builds_s += build_s;
                        traced_solves_s += solves_s;
                    }
                    if let Err(e) = checked {
                        m.fail(e);
                    }
                    builds.push((design, build_s));
                    if pass == 0 {
                        queries.open(design, session, lifetimes);
                    }
                }
                Err(e) => m.fail(format!("{} rho={rho}: {e}", design.name())),
            }
            if queries.sessions.len() == Benchmark::ALL.len() {
                let gap = Instant::now();
                queries.round(&mut m);
                while gap.elapsed().as_secs_f64() < p.seconds / QUERY_GAPS as f64 {
                    queries.round(&mut m);
                }
            }
        }
    }

    // Per design the fastest of its builds, then the median over designs.
    m.setup_s = Benchmark::ALL
        .iter()
        .filter_map(|&d| {
            let of_d = builds.iter().filter(|b| b.0 == d).map(|b| b.1);
            of_d.min_by(f64::total_cmp)
        })
        .collect();
    let per_round = queries.solve_s.len() * TARGETS.len();
    m.ops_per_s = per_round as f64 / min(&queries.round_s);
    let solves: Vec<f64> = queries.solve_s.iter().flatten().copied().collect();
    m.latency_ms = median(&solves) * 1e3;
    m.info("query_rounds", queries.round_s.len() as f64, "count");
    m.extra("variation.components", n_components as f64);
    if trace {
        m.set_trace(rec, traced_builds_s, traced_solves_s);
    }
    Ok(m)
}

/// One item rebuilt stage by stage, then its lifetime solves.
fn traced_item(rec: &mut Recorder, id: u64, spec: &AnalysisSpec) -> statobd::Result<[f64; 2]> {
    let analysis = traced_build(rec, id, spec)?;
    let mut engine = traced_engine(rec, id, spec, &analysis)?;
    let mut lifetimes = [0.0; 2];
    for (life, &target) in lifetimes.iter_mut().zip(&TARGETS) {
        *life = rec.span("core.lifetime", id, |_| {
            solve_lifetime(engine.as_mut(), target, LIFETIME_BRACKET_S)
        })?;
    }
    Ok(lifetimes)
}

/// The engine `Session::build` binds to `analysis`.
pub fn traced_engine<'a>(
    rec: &mut Recorder,
    id: u64,
    spec: &AnalysisSpec,
    analysis: &'a ChipAnalysis,
) -> statobd::Result<Box<dyn ReliabilityEngine + 'a>> {
    let engine_spec = spec.engine.clone().with_threads(spec.threads);
    Ok(rec.span("core.engine_build", id, |_| {
        build_engine(analysis, &engine_spec)
    })?)
}

/// A cold build of a bundled design stage by stage, around the public
/// calls `Session::build` makes and in the same order, up to the
/// characterized chip.
pub fn traced_build(
    rec: &mut Recorder,
    id: u64,
    spec: &AnalysisSpec,
) -> statobd::Result<ChipAnalysis> {
    spec.validate()?;
    let DesignSource::Benchmark(design) = spec.design else {
        unreachable!("design_build specs name bundled benchmarks");
    };
    let config = DesignConfig {
        correlation_grid_side: spec.grid_side,
        thermal: spec.thermal,
        vdd_v: spec.vdd_v,
        area_per_device: spec.area_per_device,
    };
    let built = rec.span("circuits.build_design", id, |_| {
        build_design(design, &config)
    })?;
    let budget = spec.model.resolved_budget()?;
    let model = rec.span("variation.model_build", id, |_| {
        ThicknessModelBuilder::new()
            .grid(built.grid)
            .nominal(spec.model.nominal_nm)
            .budget(budget)
            .kernel(spec.model.kernel)
            .systematic(spec.model.systematic)
            .build()
    })?;
    let tech = spec.tech.tech();
    Ok(rec.span("core.characterize", id, |_| {
        ChipAnalysis::new(built.spec, model, &tech)?.with_composition(spec.composition.clone())
    })?)
}

/// Both lifetimes of `spec` must sit within [`GOLDEN_REL`] of the goldens.
fn check_golden(goldens: &Json, spec: &AnalysisSpec, got: &[f64; 2]) -> Result<(), String> {
    let hash = spec.spec_hash().map_err(|e| e.to_string())?;
    let want = goldens
        .get(&hash)
        .and_then(|g| g.get("lifetimes_s"))
        .and_then(Json::as_array)
        .ok_or_else(|| format!("no golden for spec {hash}"))?;
    for (k, (w, g)) in want.iter().zip(got).enumerate() {
        let w = w
            .as_f64()
            .ok_or_else(|| format!("golden {hash}[{k}] is not a number"))?;
        if !(((g - w) / w).abs() <= GOLDEN_REL) {
            return Err(format!(
                "spec {hash}: lifetime at P={:e} is {g:e} s, golden {w:e} s",
                TARGETS[k]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints `goldens.json` for every spec of the full and smoke-test
    /// sizes. Recorded once with
    /// `cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored --nocapture record_goldens`.
    #[test]
    #[ignore = "records goldens.json"]
    fn record_goldens() {
        let mut entries = Vec::new();
        for p in [Params::full(0.0), Params::tiny()] {
            for rho in RHOS {
                for design in Benchmark::ALL {
                    let spec = spec(design, rho, &p);
                    let mut session = Session::build(&spec).unwrap();
                    let lifetimes = TARGETS.map(|t| Json::Number(session.lifetime(t).unwrap()));
                    let entry = Json::Object(vec![
                        ("design".into(), Json::String(design.name().into())),
                        ("rho".into(), Json::Number(rho)),
                        ("grid_side".into(), Json::Number(p.grid_side as f64)),
                        ("lifetimes_s".into(), Json::Array(lifetimes.to_vec())),
                    ]);
                    entries.push((spec.spec_hash().unwrap(), entry));
                }
            }
        }
        println!("{}", Json::Object(entries).to_pretty());
    }
}
