//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in this crate regenerates one table or figure of the
//! paper's evaluation or re-checks one gated claim; this library holds
//! the shared plumbing: building the thickness model for a design,
//! timing engines, solving the per-million lifetime criteria, formatting
//! rows, and the [`harness`] the gated binaries run on.

use statobd_circuits::BuiltDesign;
use statobd_core::{
    build_engine, solve_lifetime, ChipAnalysis, EngineSpec, GuardBand, GuardBandConfig,
    HybridConfig, HybridTables, MonteCarloConfig, Result as CoreResult, StMcConfig,
};
use statobd_device::ObdTechnology;
use statobd_variation::{CorrelationKernel, ThicknessModel, ThicknessModelBuilder, VarianceBudget};
use std::time::Instant;

pub mod harness;
pub mod timing;

/// Default lifetime search bracket (seconds).
pub const BRACKET: (f64, f64) = (1e6, 1e12);

/// Builds the Table II thickness model over a built design's grid with
/// relative correlation distance `rho`.
pub fn thickness_model_for(built: &BuiltDesign, rho: f64) -> ThicknessModel {
    ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(statobd_core::params::NOMINAL_THICKNESS_NM)
        .budget(
            VarianceBudget::itrs_2008(statobd_core::params::NOMINAL_THICKNESS_NM)
                .expect("Table II budget is valid"),
        )
        .kernel(CorrelationKernel::Exponential { rel_distance: rho })
        .build()
        .expect("Table II model construction cannot fail")
}

/// Lifetime estimates of one method at the two per-million criteria plus
/// its runtime.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method abbreviation as used in the paper's tables.
    pub method: String,
    /// Lifetime (s) at 1 fault per million parts.
    pub t_1pm: f64,
    /// Lifetime (s) at 10 faults per million parts.
    pub t_10pm: f64,
    /// Wall-clock seconds spent (engine construction + both solves).
    pub runtime_s: f64,
}

impl MethodResult {
    /// Relative lifetime error (%) against a reference result.
    pub fn error_pct(&self, reference: &MethodResult) -> (f64, f64) {
        (
            100.0 * ((self.t_1pm - reference.t_1pm) / reference.t_1pm).abs(),
            100.0 * ((self.t_10pm - reference.t_10pm) / reference.t_10pm).abs(),
        )
    }
}

/// Times a closure that produces both per-million lifetimes.
fn timed(method: &str, f: impl FnOnce() -> CoreResult<(f64, f64)>) -> CoreResult<MethodResult> {
    let start = Instant::now();
    let (t_1pm, t_10pm) = f()?;
    Ok(MethodResult {
        method: method.to_string(),
        t_1pm,
        t_10pm,
        runtime_s: start.elapsed().as_secs_f64(),
    })
}

/// Runs any engine selected by an [`EngineSpec`] through the unified
/// factory: construction plus both per-million lifetime solves, timed.
pub fn run_engine(analysis: &ChipAnalysis, spec: &EngineSpec) -> CoreResult<MethodResult> {
    timed(spec.kind().name(), || {
        let mut e = build_engine(analysis, spec)?;
        Ok((
            solve_lifetime(e.as_mut(), statobd_core::params::ONE_PER_MILLION, BRACKET)?,
            solve_lifetime(e.as_mut(), statobd_core::params::TEN_PER_MILLION, BRACKET)?,
        ))
    })
}

/// Runs the `st_fast` method (engine construction + both solves).
pub fn run_st_fast(analysis: &ChipAnalysis) -> CoreResult<MethodResult> {
    run_engine(analysis, &EngineSpec::default())
}

/// Runs the `st_MC` method.
pub fn run_st_mc(analysis: &ChipAnalysis, config: StMcConfig) -> CoreResult<MethodResult> {
    run_engine(analysis, &EngineSpec::StMc(config))
}

/// Builds the hybrid tables (the one-time step) and then runs the
/// lookup-based method; returns `(build_seconds, query result)`.
pub fn run_hybrid(analysis: &ChipAnalysis) -> CoreResult<(f64, MethodResult)> {
    let start = Instant::now();
    let mut tables = HybridTables::build(analysis, HybridConfig::default())?;
    let build_s = start.elapsed().as_secs_f64();
    let result = timed("hybrid", || {
        Ok((
            solve_lifetime(&mut tables, statobd_core::params::ONE_PER_MILLION, BRACKET)?,
            solve_lifetime(&mut tables, statobd_core::params::TEN_PER_MILLION, BRACKET)?,
        ))
    })?;
    Ok((build_s, result))
}

/// Runs the guard-band corner method (closed form).
pub fn run_guard(analysis: &ChipAnalysis) -> CoreResult<MethodResult> {
    timed("guard", || {
        let g = GuardBand::new(analysis, GuardBandConfig::default())?;
        Ok((
            g.lifetime(statobd_core::params::ONE_PER_MILLION)?,
            g.lifetime(statobd_core::params::TEN_PER_MILLION)?,
        ))
    })
}

/// Runs the Monte-Carlo reference.
pub fn run_mc(analysis: &ChipAnalysis, config: MonteCarloConfig) -> CoreResult<MethodResult> {
    run_engine(analysis, &EngineSpec::MonteCarlo(config))
}

/// Characterizes a built design against a technology and thickness model.
pub fn analyze(
    built: &BuiltDesign,
    model: &ThicknessModel,
    tech: &dyn ObdTechnology,
) -> CoreResult<ChipAnalysis> {
    ChipAnalysis::new(built.spec.clone(), model.clone(), tech)
}

/// Compiles a benchmark design through the facade
/// [`AnalysisSpec`](statobd::AnalysisSpec)/[`Session`](statobd::Session)
/// path with relative correlation distance `rho` — the substrate
/// defaults match `DesignConfig::default()` plus the Table II model, so
/// the session's analysis is identical to the hand-assembled one. Use
/// `session.analysis()` to drive specific engines.
pub fn session_for(benchmark: statobd_circuits::Benchmark, rho: f64) -> statobd::Session {
    let mut spec = statobd::AnalysisSpec::benchmark(benchmark);
    spec.model.kernel = CorrelationKernel::Exponential { rel_distance: rho };
    statobd::Session::build(&spec).expect("benchmark designs compile")
}

/// Repetitions per [`measure_min`] measurement (the minimum is reported).
pub const MEASURE_REPS: usize = 5;

/// Measurements shorter than this are re-run in amplified batches so a
/// single repetition is long enough for the wall clock to resolve.
pub const MIN_MEASURE_S: f64 = 1e-3;

/// Times one code path for benchmarking: minimum over [`MEASURE_REPS`]
/// repetitions, each amplified to at least [`MIN_MEASURE_S`] of work,
/// returning seconds per single call of `f`. The first (probe) call also
/// serves as a warm-up for caches and lazy state inside `f`.
pub fn measure_min<T>(f: impl FnMut() -> T) -> f64 {
    timing::sample(MIN_MEASURE_S, MEASURE_REPS - 1, f64::INFINITY, f).best_s
}

/// Formats seconds for table cells: sub-millisecond values in scientific
/// notation, the rest with three significant digits.
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{s:.2e}")
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a lifetime in seconds with the year equivalent.
pub fn fmt_lifetime(t_s: f64) -> String {
    format!("{:.3e} s ({:.2} yr)", t_s, t_s / 3.156e7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_seconds_ranges() {
        assert!(fmt_seconds(1e-5).contains('e'));
        assert!(fmt_seconds(0.5).contains("ms"));
        assert!(fmt_seconds(2.0).contains('s'));
    }

    #[test]
    fn method_result_errors() {
        let a = MethodResult {
            method: "a".into(),
            t_1pm: 110.0,
            t_10pm: 90.0,
            runtime_s: 0.0,
        };
        let r = MethodResult {
            method: "r".into(),
            t_1pm: 100.0,
            t_10pm: 100.0,
            runtime_s: 0.0,
        };
        let (e1, e10) = a.error_pct(&r);
        assert!((e1 - 10.0).abs() < 1e-12);
        assert!((e10 - 10.0).abs() < 1e-12);
    }
}
