//! A compiled, queryable analysis session.
//!
//! [`Session::build`] turns one declarative [`AnalysisSpec`] into a ready
//! engine — replacing the imperative five-step dance (`build_design` →
//! `ThicknessModelBuilder` → `ChipAnalysis` → `build_engine`) with a
//! single call. [`Session::open`] does the same through the
//! [`ArtifactCache`]: a warm open deserializes the compiled model
//! (eigenbasis, BLOD moments, hybrid tables) instead of recomputing it,
//! and answers every query bit-identically to a cold build.
//!
//! # Example
//!
//! ```
//! use statobd::{AnalysisSpec, Session};
//! use statobd::core::{params, BlockSpec, ChipSpec, EngineKind};
//!
//! let mut chip = ChipSpec::new();
//! chip.add_block(BlockSpec::new("core", 1e5, 100_000, 368.15, 1.2, vec![(0, 1.0)])?)?;
//! let spec = AnalysisSpec::chip(chip)
//!     .with_grid_side(5)
//!     .with_engine(EngineKind::StClosed);
//! let mut session = Session::build(&spec)?;
//! let t = session.lifetime(params::ONE_PER_MILLION)?;
//! assert!(session.p_at(t)? > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::artifact::{ArtifactCache, CompiledModel};
use crate::error::{Error, Result};
use crate::spec::{AnalysisSpec, DesignSource};
use statobd_circuits::{build_design, DesignConfig};
use statobd_core::{
    build_engine, failure_rate_curve, params, solve_lifetime, ChipAnalysis, EngineSpec,
    HybridConfig, HybridTables, ReliabilityEngine,
};
use statobd_device::ClosedFormTech;
use statobd_manager::{ManagerConfig, PolicyConfig, ReliabilityManager, StepReport};
use statobd_num::impl_json_struct;
use statobd_num::json::{FromJson, Json, JsonError, ToJson};
use statobd_variation::{GridSpec, ThicknessModelBuilder};
use std::sync::Arc;

/// The lifetime-solve bracket shared by every session query (seconds):
/// generous enough for any physical design, tight enough to converge in a
/// few dozen bisections.
pub const LIFETIME_BRACKET_S: (f64, f64) = (1e4, 1e13);

/// The most points one [`Session::sweep`] evaluates: far beyond any
/// plotted curve, and small enough that a request cannot exhaust memory.
pub const MAX_SWEEP_POINTS: usize = 100_000;

/// Default service life assumed by the lazy reliability manager: five
/// years, the paper's DRM evaluation horizon.
pub const DEFAULT_SERVICE_LIFE_S: f64 = 5.0 * 3.156e7;

/// Where a session's compiled model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionSource {
    /// Built from scratch (and possibly saved to the cache).
    Cold,
    /// Deserialized from a validated cache artifact.
    Cache,
}

impl SessionSource {
    /// The wire name (`"cold"` / `"cache"`).
    pub fn name(&self) -> &'static str {
        match self {
            SessionSource::Cold => "cold",
            SessionSource::Cache => "cache",
        }
    }
}

impl ToJson for SessionSource {
    fn to_json(&self) -> Json {
        Json::String(self.name().to_string())
    }
}

impl FromJson for SessionSource {
    fn from_json(json: &Json) -> std::result::Result<Self, JsonError> {
        match json.as_str() {
            Some("cold") => Ok(SessionSource::Cold),
            Some("cache") => Ok(SessionSource::Cache),
            _ => Err(JsonError::new("source: expected 'cold' or 'cache'")),
        }
    }
}

/// Build provenance and counters for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// The spec's content hash (the cache key).
    pub spec_hash: String,
    /// Cold build or cache load.
    pub source: SessionSource,
    /// Wall time of the build or load (seconds).
    pub build_s: f64,
    /// The engine kind name.
    pub engine: String,
    /// Number of chip blocks.
    pub n_blocks: usize,
    /// Number of retained principal components in the thickness model.
    pub n_components: usize,
    /// Queries answered so far.
    pub queries: u64,
    /// A non-fatal build diagnostic (e.g. an invalid cache artifact that
    /// was rebuilt over).
    pub note: Option<String>,
}

impl_json_struct!(SessionStats {
    spec_hash,
    source,
    build_s,
    engine,
    n_blocks,
    n_components,
    queries,
    note,
});

/// A compiled analysis bound to its engine, ready for queries.
///
/// Queries mutate only engine-internal scratch state; results are
/// deterministic and bit-identical whether the session was built cold or
/// loaded from the cache.
pub struct Session {
    // Field order is load-bearing: `engine` may borrow `analysis` through
    // a lifetime-erased pointer (see `from_model`), so it must be declared
    // first and therefore dropped first.
    engine: Box<dyn ReliabilityEngine>,
    manager: Option<ReliabilityManager>,
    analysis: Arc<ChipAnalysis>,
    tech: ClosedFormTech,
    spec: AnalysisSpec,
    stats: SessionStats,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.stats.engine)
            .field("manager", &self.manager.is_some())
            .field("spec", &self.spec)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Compiles `spec` from scratch (no cache involved).
    ///
    /// # Errors
    ///
    /// Propagates spec validation and every substrate failure.
    pub fn build(spec: &AnalysisSpec) -> Result<Self> {
        let start = std::time::Instant::now();
        let model = compile(spec)?;
        Session::from_model(
            spec.clone(),
            model,
            SessionSource::Cold,
            start.elapsed().as_secs_f64(),
            None,
        )
    }

    /// Opens a session through the artifact cache: a validated artifact is
    /// loaded (skipping the eigendecomposition and table construction
    /// entirely), a missing one triggers a cold build whose result is
    /// saved back. An artifact that exists but fails validation is
    /// rebuilt over, with the rejection recorded in
    /// [`SessionStats::note`].
    ///
    /// # Errors
    ///
    /// Propagates build failures; cache I/O failures on the save path.
    pub fn open(spec: &AnalysisSpec, cache: &ArtifactCache) -> Result<Self> {
        let start = std::time::Instant::now();
        let note = match cache.load(spec) {
            Ok(Some(model)) => {
                return Session::from_model(
                    spec.clone(),
                    model,
                    SessionSource::Cache,
                    start.elapsed().as_secs_f64(),
                    None,
                );
            }
            Ok(None) => None,
            // An invalid artifact must never abort the analysis: rebuild
            // and overwrite, but surface what was wrong with it.
            Err(e) => Some(e.to_string()),
        };
        let model = compile(spec)?;
        cache.save(spec, &model)?;
        Session::from_model(
            spec.clone(),
            model,
            SessionSource::Cold,
            start.elapsed().as_secs_f64(),
            note,
        )
    }

    /// Binds an engine to a compiled model.
    fn from_model(
        spec: AnalysisSpec,
        model: CompiledModel,
        source: SessionSource,
        build_s: f64,
        note: Option<String>,
    ) -> Result<Self> {
        let CompiledModel { analysis, tables } = model;
        let n_blocks = analysis.n_blocks();
        let n_components = analysis.model().n_components();
        let analysis = Arc::new(analysis);
        let engine_spec = effective_engine(&spec);
        let engine: Box<dyn ReliabilityEngine> = match (&engine_spec, tables) {
            // The hybrid engine owns its tables outright; use the
            // persisted (or freshly built) ones directly.
            (EngineSpec::Hybrid(_), Some(tables)) => Box::new(tables),
            _ => {
                // SAFETY: `analysis` lives behind an `Arc`, so its address
                // is stable for the allocation's lifetime regardless of
                // how `Session` moves. The `analysis` field keeps the Arc
                // alive for the whole session, `engine` is declared before
                // it (dropped first), and no `&mut ChipAnalysis` is ever
                // handed out. Erasing the borrow to 'static is therefore
                // sound for the engine's actual use.
                let analysis_ref: &'static ChipAnalysis = unsafe { &*Arc::as_ptr(&analysis) };
                build_engine(analysis_ref, &engine_spec)?
            }
        };
        let stats = SessionStats {
            spec_hash: spec.spec_hash()?,
            source,
            build_s,
            engine: engine_spec.kind().name().to_string(),
            n_blocks,
            n_components,
            queries: 0,
            note,
        };
        let tech = spec.tech.tech();
        Ok(Session {
            engine,
            manager: None,
            analysis,
            tech,
            spec,
            stats,
        })
    }

    /// The spec this session was built from.
    pub fn spec(&self) -> &AnalysisSpec {
        &self.spec
    }

    /// The compiled chip analysis.
    pub fn analysis(&self) -> &ChipAnalysis {
        &self.analysis
    }

    /// Build provenance and query counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Direct mutable access to the underlying reliability engine, for
    /// the `statobd_core` free functions the session does not wrap
    /// (burn-in analysis, custom brackets). Queries made through this
    /// reference are not counted in [`stats`](Self::stats).
    pub fn engine_mut(&mut self) -> &mut dyn ReliabilityEngine {
        self.engine.as_mut()
    }

    /// Chip failure probability at age `t_s` (seconds).
    ///
    /// # Errors
    ///
    /// Rejects an age that is not finite and positive; propagates engine
    /// failures.
    pub fn p_at(&mut self, t_s: f64) -> Result<f64> {
        check_age(t_s)?;
        self.stats.queries += 1;
        self.engine.failure_probability(t_s).map_err(Error::from)
    }

    /// Batched failure probabilities at each age in `ts`.
    ///
    /// # Errors
    ///
    /// Rejects any age that is not finite and positive; propagates engine
    /// failures.
    pub fn p_at_many(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        ts.iter().try_for_each(|&t_s| check_age(t_s))?;
        self.stats.queries += ts.len() as u64;
        self.engine.failure_probabilities(ts).map_err(Error::from)
    }

    /// A log-spaced `(t, P(t))` curve over `[t_lo_s, t_hi_s]` with `n`
    /// points (one batched engine sweep).
    ///
    /// # Errors
    ///
    /// Rejects empty or inverted ranges and more than
    /// [`MAX_SWEEP_POINTS`] points; propagates engine failures.
    pub fn sweep(&mut self, t_lo_s: f64, t_hi_s: f64, n: usize) -> Result<Vec<(f64, f64)>> {
        if n > MAX_SWEEP_POINTS {
            return Err(Error::Spec(format!(
                "sweep: at most {MAX_SWEEP_POINTS} points, got {n}"
            )));
        }
        self.stats.queries += n as u64;
        failure_rate_curve(self.engine.as_mut(), t_lo_s, t_hi_s, n).map_err(Error::from)
    }

    /// The age (seconds) at which the chip failure probability reaches
    /// `p_target`.
    ///
    /// # Errors
    ///
    /// Rejects targets outside `(0, 1)`; propagates engine failures.
    pub fn lifetime(&mut self, p_target: f64) -> Result<f64> {
        self.stats.queries += 1;
        solve_lifetime(self.engine.as_mut(), p_target, LIFETIME_BRACKET_S).map_err(Error::from)
    }

    /// Instantaneous failure rate at age `t_s`, in FIT per 10⁹
    /// device-hours.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn fit_rate(&mut self, t_s: f64) -> Result<f64> {
        self.stats.queries += 1;
        statobd_core::fit_rate(self.engine.as_mut(), t_s).map_err(Error::from)
    }

    /// The effective chip-level Weibull slope `d ln(−ln S)/d ln t` at age
    /// `t_s`.
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn weibull_slope(&mut self, t_s: f64) -> Result<f64> {
        self.stats.queries += 1;
        statobd_core::effective_weibull_slope(self.engine.as_mut(), t_s).map_err(Error::from)
    }

    /// Replaces the lazy reliability manager with one built from an
    /// explicit policy and configuration (discarding any accumulated
    /// damage state).
    ///
    /// # Errors
    ///
    /// Propagates manager-construction failures.
    pub fn configure_manager(&mut self, policy: PolicyConfig, config: ManagerConfig) -> Result<()> {
        self.manager = Some(ReliabilityManager::new(
            &self.analysis,
            Box::new(self.tech),
            policy,
            config,
        )?);
        Ok(())
    }

    /// One dynamic-reliability-management step: advance the damage state
    /// by `dt_s` seconds at per-block temperatures `temps_k` under a
    /// requested supply voltage. On first use the manager is built lazily
    /// with a monitoring-only policy (1-ppm budget over a five-year
    /// service life); call [`configure_manager`](Self::configure_manager)
    /// first for a DVFS ladder.
    ///
    /// # Errors
    ///
    /// Propagates manager-construction and step failures.
    pub fn manage_step(&mut self, dt_s: f64, temps_k: &[f64], vdd_v: f64) -> Result<StepReport> {
        self.stats.queries += 1;
        self.ensure_manager()?;
        self.manager
            .as_mut()
            .expect("manager just ensured")
            .step(dt_s, temps_k, vdd_v)
            .map_err(Error::from)
    }

    /// Like [`manage_step`](Self::manage_step) with every block at its
    /// spec temperature plus a uniform offset `dt_k`.
    ///
    /// # Errors
    ///
    /// Propagates manager-construction and step failures.
    pub fn manage_step_uniform(&mut self, dt_s: f64, dt_k: f64, vdd_v: f64) -> Result<StepReport> {
        let temps: Vec<f64> = self
            .analysis
            .spec()
            .blocks()
            .iter()
            .map(|b| b.temperature_k() + dt_k)
            .collect();
        self.manage_step(dt_s, &temps, vdd_v)
    }

    /// The manager's accumulated damage state, if a manager exists.
    pub fn manager(&self) -> Option<&ReliabilityManager> {
        self.manager.as_ref()
    }

    /// Mutable access to the reliability manager, building the lazy
    /// default first if none exists — for callers that drive
    /// [`ReliabilityManager`] directly (phase schedules, checkpoints).
    ///
    /// # Errors
    ///
    /// Propagates manager-construction failures.
    pub fn manager_mut(&mut self) -> Result<&mut ReliabilityManager> {
        self.ensure_manager()?;
        Ok(self.manager.as_mut().expect("manager just ensured"))
    }

    fn ensure_manager(&mut self) -> Result<()> {
        if self.manager.is_some() {
            return Ok(());
        }
        let policy = PolicyConfig::monitoring_only(params::ONE_PER_MILLION, DEFAULT_SERVICE_LIFE_S);
        let config = ManagerConfig {
            tables: HybridConfig {
                threads: self.spec.threads,
                ..HybridConfig::default()
            },
            ..ManagerConfig::default()
        };
        self.configure_manager(policy, config)
    }
}

/// Rejects a query age that is not finite and positive: P(0) is
/// degenerate (engines disagree on it, and some assert on it), and a
/// non-finite age has no meaning.
fn check_age(t_s: f64) -> Result<()> {
    if t_s > 0.0 && t_s.is_finite() {
        Ok(())
    } else {
        Err(Error::Spec(format!(
            "t_s must be finite and > 0, got {t_s}"
        )))
    }
}

/// The engine spec with the session-level thread override applied.
fn effective_engine(spec: &AnalysisSpec) -> EngineSpec {
    match spec.threads {
        Some(n) => spec.engine.clone().with_threads(Some(n)),
        None => spec.engine.clone(),
    }
}

/// The expensive half: design construction, thickness-model
/// eigendecomposition, BLOD characterization and (for the hybrid engine)
/// table construction.
pub(crate) fn compile(spec: &AnalysisSpec) -> Result<CompiledModel> {
    spec.validate()?;
    let (chip, grid) = match &spec.design {
        DesignSource::Benchmark(benchmark) => {
            let config = DesignConfig {
                correlation_grid_side: spec.grid_side,
                thermal: spec.thermal,
                vdd_v: spec.vdd_v,
                area_per_device: spec.area_per_device,
            };
            let built = build_design(*benchmark, &config)?;
            (built.spec, built.grid)
        }
        DesignSource::Chip(chip) => (chip.clone(), GridSpec::square_unit(spec.grid_side)?),
    };
    let model = ThicknessModelBuilder::new()
        .grid(grid)
        .nominal(spec.model.nominal_nm)
        .budget(spec.model.resolved_budget()?)
        .kernel(spec.model.kernel)
        .systematic(spec.model.systematic)
        .build()?;
    let tech = spec.tech.tech();
    let analysis =
        ChipAnalysis::new(chip, model, &tech)?.with_composition(spec.composition.clone())?;
    let tables = match effective_engine(spec) {
        EngineSpec::Hybrid(config) => Some(HybridTables::build(&analysis, config)?),
        _ => None,
    };
    Ok(CompiledModel { analysis, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use statobd_circuits::Benchmark;
    use statobd_core::{BlockSpec, ChipSpec, EngineKind, EngineSpec, MonteCarloConfig, StMcConfig};

    fn tiny_chip() -> ChipSpec {
        let mut chip = ChipSpec::new();
        chip.add_block(
            BlockSpec::new("core", 4e4, 40_000, 368.15, 1.2, vec![(0, 0.5), (6, 0.5)]).unwrap(),
        )
        .unwrap();
        chip.add_block(BlockSpec::new("cache", 6e4, 60_000, 341.15, 1.2, vec![(12, 1.0)]).unwrap())
            .unwrap();
        chip
    }

    fn tiny_spec(kind: EngineKind) -> AnalysisSpec {
        AnalysisSpec::chip(tiny_chip())
            .with_grid_side(5)
            .with_engine(kind)
    }

    fn scratch_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("statobd-session-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    #[test]
    fn build_answers_the_basic_queries() {
        let mut s = Session::build(&tiny_spec(EngineKind::StClosed)).unwrap();
        let t = s.lifetime(params::ONE_PER_MILLION).unwrap();
        assert!(t > 0.0);
        let p = s.p_at(t).unwrap();
        assert!((p - params::ONE_PER_MILLION).abs() / params::ONE_PER_MILLION < 1e-6);
        let curve = s.sweep(t * 1e-1, t * 1e1, 5).unwrap();
        assert_eq!(curve.len(), 5);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
        assert_eq!(s.stats().queries, 7);
        assert_eq!(s.stats().source, SessionSource::Cold);
    }

    #[test]
    fn build_rejects_a_thermal_loop_that_cannot_run() {
        // Zero leakage iterations would leave the die at ambient and report
        // a lifetime ~10x too long; the spec must fail instead.
        let mut spec = AnalysisSpec::benchmark(Benchmark::C1).with_grid_side(4);
        spec.thermal.max_leakage_iters = 0;
        let err = Session::build(&spec).expect_err("build must fail");
        assert!(err.to_string().contains("max_leakage_iters"), "{err}");
    }

    #[test]
    fn cache_round_trip_is_bit_exact() {
        let cache = scratch_cache("roundtrip");
        for kind in [EngineKind::StFast, EngineKind::Hybrid] {
            let spec = tiny_spec(kind);
            let mut cold = Session::open(&spec, &cache).unwrap();
            assert_eq!(cold.stats().source, SessionSource::Cold);
            let mut warm = Session::open(&spec, &cache).unwrap();
            assert_eq!(warm.stats().source, SessionSource::Cache, "{kind:?}");
            for t in [1e6, 1e8, 3e9] {
                let a = cold.p_at(t).unwrap();
                let b = warm.p_at(t).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} at t={t}");
            }
        }
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn invalid_artifacts_are_rebuilt_with_a_note() {
        let cache = scratch_cache("corrupt");
        let spec = tiny_spec(EngineKind::StClosed);
        Session::open(&spec, &cache).unwrap();
        let path = cache.artifact_path(&spec.spec_hash().unwrap());
        std::fs::write(&path, "{ not json").unwrap();
        let s = Session::open(&spec, &cache).unwrap();
        assert_eq!(s.stats().source, SessionSource::Cold);
        assert!(s.stats().note.is_some());
        // The rebuild overwrote the corrupt artifact.
        let again = Session::open(&spec, &cache).unwrap();
        assert_eq!(again.stats().source, SessionSource::Cache);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn every_engine_rejects_ages_that_are_not_finite_and_positive() {
        for kind in EngineKind::ALL {
            let engine = match kind.default_spec() {
                EngineSpec::StMc(c) => EngineSpec::StMc(StMcConfig {
                    n_samples: 500,
                    ..c
                }),
                EngineSpec::MonteCarlo(c) => {
                    EngineSpec::MonteCarlo(MonteCarloConfig { n_chips: 50, ..c })
                }
                spec => spec,
            };
            let mut s = Session::build(&tiny_spec(kind).with_engine_spec(engine)).unwrap();
            for t in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let err = s.p_at(t).expect_err("age must be rejected");
                assert!(err.to_string().contains("t_s"), "{kind} at {t}: {err}");
            }
            assert!(s.p_at_many(&[1e6, 0.0]).is_err(), "{kind}");
            assert_eq!(
                s.stats().queries,
                0,
                "{kind}: rejected ages are not queries"
            );
            for t in [1e-300, 1e300] {
                let p = s.p_at(t).unwrap();
                assert!((0.0..=1.0).contains(&p), "{kind}: P({t:e}) = {p}");
            }
        }
    }

    #[test]
    fn manage_step_accumulates_damage() {
        let mut s = Session::build(&tiny_spec(EngineKind::StClosed)).unwrap();
        let year = 3.156e7;
        let r1 = s.manage_step_uniform(year, 0.0, 1.2).unwrap();
        let r2 = s.manage_step_uniform(year, 0.0, 1.2).unwrap();
        assert!(r2.p_now > r1.p_now, "{} vs {}", r2.p_now, r1.p_now);
        assert!(s.manager().is_some());
    }
}
