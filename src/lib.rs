//! # statobd — statistical full-chip gate-oxide breakdown reliability
//!
//! Facade crate re-exporting the `statobd` workspace: a Rust implementation
//! of process-variation and temperature-aware full-chip oxide-breakdown
//! (OBD) reliability analysis (Zhuo, Chopra, Sylvester, Blaauw — DATE 2010
//! / IEEE TCAD 2011).
//!
//! See the individual crates for details:
//!
//! * [`num`] — numerical foundations (linear algebra, special functions,
//!   distributions, quadrature, statistics),
//! * [`variation`] — oxide-thickness variation modeling (grid spatial
//!   correlation, PCA canonical form),
//! * [`thermal`] — floorplan, power model and steady-state thermal solver,
//! * [`device`] — device-level Weibull OBD model and degradation simulator,
//! * [`core`] — the statistical chip-level reliability engines, all built
//!   through the unified [`core::build_engine`] factory,
//! * [`manager`] — runtime dynamic reliability management on the hybrid
//!   tables: effective-age damage accumulation, budget-driven DVFS
//!   throttling and checkpointable monitoring,
//! * [`circuits`] — the C1–C6 benchmark designs from the paper.
//!
//! The workspace is **hermetic**: it builds offline with the standard
//! library only (no external crates), including its RNG
//! ([`num::rng`]), JSON ([`num::json`]) and scoped-thread parallelism
//! ([`num::parallel`]). Parallel engines take an explicit thread count
//! (CLI `--threads`), honor the `STATOBD_THREADS` environment variable,
//! and return bit-identical results at any thread count.
//!
//! # Example
//!
//! The facade API: describe the whole analysis as one declarative
//! [`AnalysisSpec`], compile it into a [`Session`], query it. (The
//! substrate pipeline — floorplan → power → thermal → BLOD → analytic
//! integration — runs behind [`Session::build`]; see [`Session::open`]
//! for the content-addressed artifact cache that skips recompilation.)
//!
//! ```
//! use statobd::{AnalysisSpec, Session};
//! use statobd::circuits::Benchmark;
//! use statobd::core::params;
//!
//! // Small configuration so the doctest stays fast.
//! let mut spec = AnalysisSpec::benchmark(Benchmark::C1).with_grid_side(6);
//! spec.thermal.nx = 16;
//! spec.thermal.ny = 16;
//! let mut session = Session::build(&spec)?;
//! let t = session.lifetime(params::ONE_PER_MILLION)?;
//! assert!(t > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use statobd_circuits as circuits;
pub use statobd_core as core;
pub use statobd_device as device;
pub use statobd_manager as manager;
pub use statobd_num as num;
pub use statobd_thermal as thermal;
pub use statobd_variation as variation;

mod artifact;
mod error;
mod fleet;
mod serve;
mod session;
mod spec;

pub use artifact::{ArtifactCache, CompiledModel, CACHE_ENV, FORMAT_VERSION};
pub use error::{Error, Result};
pub use fleet::{
    chip_outcomes, run_fleet, ChipOutcome, FleetAggregates, FleetConfig, FleetReport,
    LIFE_BRACKET_S as FLEET_LIFE_BRACKET_S, LIFE_LN_T_TOL as FLEET_LIFE_LN_T_TOL, QUANTILE_LEVELS,
};
pub use serve::{serve, serve_lines, ServeConfig};
pub use session::{
    Session, SessionSource, SessionStats, DEFAULT_SERVICE_LIFE_S, LIFETIME_BRACKET_S,
    MAX_SWEEP_POINTS,
};
pub use spec::{AnalysisSpec, DesignSource, ModelSpec, TechSpec};

// Convenience re-exports of the types an `AnalysisSpec` is assembled
// from, so facade users rarely need the substrate crates directly.
pub use statobd_core::{EngineKind, EngineSpec};
