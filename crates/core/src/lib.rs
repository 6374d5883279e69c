//! Statistical full-chip gate-oxide breakdown (OBD) reliability analysis.
//!
//! This crate implements the paper's contribution: design-time estimation
//! of the chip-level OBD reliability function across the ensemble of all
//! manufactured chips, accounting for
//!
//! * die-to-die (global), spatially correlated intra-die and independent
//!   oxide-thickness variation (via [`statobd_variation::ThicknessModel`]),
//! * across-die temperature variation (per-block worst-case temperature
//!   and voltage driving the Weibull parameters `α_j`, `b_j`).
//!
//! # The analysis pipeline
//!
//! 1. A [`ChipSpec`] partitions the design into temperature-uniform
//!    blocks, each with device count, normalized gate area, operating
//!    point, and its device distribution over the correlation grids.
//! 2. [`ChipAnalysis`] characterizes each block's **BLOD** (block-level
//!    oxide-thickness distribution): the sample mean `u_j` (Gaussian,
//!    eq. 22) and sample variance `v_j` (quadratic form in the principal
//!    components, eq. 24, approximated as a shifted χ² via Yuan–Bentler,
//!    eqs. 29–30).
//! 3. A reliability *engine* evaluates the ensemble failure probability
//!    `P(t) = 1 − R_c(t)`:
//!    * [`StFast`] — N numerically evaluated double integrals over the
//!      marginal product `f_u·f_v` (paper Sec. IV-D, its main method),
//!    * [`StMc`] — joint PDF of `(u_j, v_j)` constructed numerically from
//!      Monte-Carlo samples of the principal components (the paper's
//!      `st_MC` variant),
//!    * [`StClosed`] — fully closed-form first-order evaluation using the
//!      Gaussian/χ² moment-generating functions (an extension this crate
//!      adds; used as an ablation),
//!    * [`HybridTables`] — precomputed `(ln(t/α), b)` look-up tables with
//!      bilinear interpolation (paper Sec. IV-E),
//!    * [`GuardBand`] — the traditional minimum-thickness worst-temperature
//!      corner (eqs. 33–34),
//!    * [`MonteCarlo`] — the reference per-device Monte-Carlo simulation.
//!
//!    Every engine is built through the unified [`build_engine`] factory
//!    from an [`EngineKind`] selection / [`EngineSpec`] configuration.
//! 4. [`solve_lifetime`] inverts `P(t)` for n-faults-per-million targets
//!    (eq. 32).
//!
//! # Example
//!
//! ```
//! use statobd_core::*;
//! use statobd_variation::*;
//! use statobd_device::ClosedFormTech;
//!
//! // Process model (Table II) over a 5x5 correlation grid.
//! let model = ThicknessModelBuilder::new()
//!     .grid(GridSpec::square_unit(5)?)
//!     .nominal(params::NOMINAL_THICKNESS_NM)
//!     .budget(VarianceBudget::itrs_2008(params::NOMINAL_THICKNESS_NM)?)
//!     .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
//!     .build()?;
//!
//! // A two-block chip: a hot core and a cool cache.
//! let mut spec = ChipSpec::new();
//! spec.add_block(BlockSpec::new("core", 30_000.0, 30_000, 368.15, 1.2,
//!     vec![(0, 0.5), (1, 0.5)])?)?;
//! spec.add_block(BlockSpec::new("cache", 50_000.0, 50_000, 341.15, 1.2,
//!     vec![(12, 1.0)])?)?;
//!
//! let analysis = ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm())?;
//! let mut engine = build_engine(&analysis, &EngineKind::StFast.default_spec())?;
//! let t = solve_lifetime(engine.as_mut(), 1e-6, (1e6, 1e12))?;
//! assert!(t > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blod;
mod chip;
mod engines;
mod gfun;
mod lifetime;
pub mod params;

pub use blod::{uv_from_grid_base, BlodMoments, MeanDist, VarianceDist};
pub use chip::{AnalysisBlock, BlockSpec, ChipAnalysis, ChipSpec};
pub use engines::composition::{Composition, CompositionAccumulator, RedundancyGroup};
pub use engines::guard::{GuardBand, GuardBandConfig};
pub use engines::hybrid::{HybridConfig, HybridTables};
pub use engines::monte_carlo::{MonteCarlo, MonteCarloConfig};
pub use engines::st_closed::StClosed;
pub use engines::st_fast::{StFast, StFastConfig, VarianceMethod};
pub use engines::st_mc::{StMc, StMcConfig};
pub use engines::{build_engine, edit_distance, EngineKind, EngineSpec, ReliabilityEngine};
pub use gfun::{conditional_block_failure, g_function, GCoefficients};
pub use lifetime::{
    burn_in_failure_probability, effective_weibull_slope, failure_rate_curve, fit_rate,
    solve_lifetime, solve_lifetime_after_burn_in,
};

use statobd_num::NumError;

/// Errors produced by the reliability analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A chip-specification or configuration parameter was invalid.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// The chip specification references grids outside the process model.
    GridMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A root solve failed to bracket or converge.
    SolveFailed {
        /// Description of the failure.
        detail: String,
    },
    /// An underlying numerical routine failed.
    Numerical(NumError),
    /// An underlying variation-model operation failed.
    Variation(statobd_variation::VariationError),
    /// An underlying device-model operation failed.
    Device(statobd_device::DeviceError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            CoreError::GridMismatch { detail } => write!(f, "grid mismatch: {detail}"),
            CoreError::SolveFailed { detail } => write!(f, "solve failed: {detail}"),
            CoreError::Numerical(e) => write!(f, "numerical failure: {e}"),
            CoreError::Variation(e) => write!(f, "variation model failure: {e}"),
            CoreError::Device(e) => write!(f, "device model failure: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numerical(e) => Some(e),
            CoreError::Variation(e) => Some(e),
            CoreError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumError> for CoreError {
    fn from(e: NumError) -> Self {
        CoreError::Numerical(e)
    }
}

impl From<statobd_variation::VariationError> for CoreError {
    fn from(e: statobd_variation::VariationError) -> Self {
        CoreError::Variation(e)
    }
}

impl From<statobd_device::DeviceError> for CoreError {
    fn from(e: statobd_device::DeviceError) -> Self {
        CoreError::Device(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
