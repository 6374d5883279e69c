//! Shared plumbing of the bench binaries: building the
//! Table II thickness model for a design ([`thickness_model_for`]),
//! characterizing it ([`analyze`]), compiling a design through the facade
//! ([`session_for`]), timing a code path ([`measure_min`]), and the
//! [`harness`] the binaries run on.
//!
//! The crate's binaries are `paper`, which regenerates every table and
//! figure of the paper's evaluation and the ablations, and the seven
//! gated benchmarks (`fleet`, `kernels`, `sweeps`, `models`, `thermal`,
//! `manager`, `serve`), each of which re-checks its claims and writes a
//! `BENCH_<name>.json` report.

use statobd_circuits::BuiltDesign;
use statobd_core::{ChipAnalysis, Result as CoreResult};
use statobd_device::ObdTechnology;
use statobd_variation::{CorrelationKernel, ThicknessModel, ThicknessModelBuilder, VarianceBudget};

pub mod harness;
mod timing;

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
    timing::sample(MIN_MEASURE_S, MEASURE_REPS - 1, f)
}
