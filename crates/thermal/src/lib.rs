//! Compact thermal simulation substrate for the OBD reliability analysis.
//!
//! The paper obtains its block-level temperature profiles from HotSpot
//! (Skadron et al.) driven by Wattch power estimates. This crate provides
//! the equivalent, self-contained pipeline:
//!
//! 1. a [`Floorplan`] of named rectangular functional blocks on a die,
//! 2. a [`PowerModel`] assigning each block dynamic power (an
//!    activity-based, Wattch-style estimate) and temperature-dependent
//!    leakage,
//! 3. a [`ThermalSolver`] that discretizes the die into a grid of thermal
//!    cells with lateral silicon conductances and a vertical
//!    package-to-ambient path, and solves the steady state with
//!    multigrid-preconditioned conjugate gradients (MGCG), iterating the
//!    warm-started leakage–temperature fixed point,
//! 4. a [`TemperatureMap`] from which per-block worst-case/mean
//!    temperatures are extracted for the reliability model.
//!
//! The default physical constants are calibrated so a mid-2000s
//! processor-class design shows the structure of the paper's Fig. 1:
//! hot spots confined to a small region sitting ~30 °C above the
//! inactive areas.
//!
//! # Example
//!
//! ```
//! use statobd_thermal::*;
//!
//! let mut fp = Floorplan::new(0.016, 0.016)?;
//! fp.add_block(Block::new("core", Rect::new(0.002, 0.002, 0.004, 0.004)?)?)?;
//! fp.add_block(Block::new("cache", Rect::new(0.008, 0.008, 0.006, 0.006)?)?)?;
//! let mut power = PowerModel::new();
//! power.set_block_power("core", BlockPower::new(25.0, 3.0)?)?;
//! power.set_block_power("cache", BlockPower::new(4.0, 1.0)?)?;
//! let solver = ThermalSolver::new(ThermalConfig::default());
//! let map = solver.solve(&fp, &power)?;
//! let core = map.block_stats(fp.block("core").unwrap().rect());
//! let cache = map.block_stats(fp.block("cache").unwrap().rect());
//! assert!(core.max_k > cache.max_k); // the core runs hotter
//! # Ok::<(), ThermalError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod floorplan;
mod power;
mod profiles;
mod solver;
mod transient;

pub use floorplan::{Block, Floorplan, Rect};
pub use power::{dynamic_power, BlockPower, PowerModel, LEAKAGE_REF_K};
pub use profiles::{alpha_ev6_floorplan, alpha_ev6_power, many_core_floorplan, many_core_power};
pub use solver::{BlockTempStats, SolveBreakdown, TemperatureMap, ThermalConfig, ThermalSolver};
pub use transient::{TransientResult, TransientStats};

use statobd_num::NumError;

/// Kelvin value of 0 °C, for conversions at API boundaries.
pub const ZERO_CELSIUS_K: f64 = 273.15;

/// Converts °C to K.
pub fn celsius_to_kelvin(c: f64) -> f64 {
    c + ZERO_CELSIUS_K
}

/// Converts K to °C.
pub fn kelvin_to_celsius(k: f64) -> f64 {
    k - ZERO_CELSIUS_K
}

/// Errors produced by the thermal pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A geometric or physical parameter was invalid.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// A block name was duplicated or referenced without being defined.
    UnknownBlock {
        /// The offending block name.
        name: String,
    },
    /// The iterative solve failed (CG breakdown or leakage runaway).
    SolveFailed {
        /// Description of the failure.
        detail: String,
    },
    /// An underlying numerical routine failed.
    Numerical(NumError),
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            ThermalError::UnknownBlock { name } => write!(f, "unknown block: {name}"),
            ThermalError::SolveFailed { detail } => write!(f, "thermal solve failed: {detail}"),
            ThermalError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for ThermalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThermalError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumError> for ThermalError {
    fn from(e: NumError) -> Self {
        ThermalError::Numerical(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ThermalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_conversions_round_trip() {
        assert_eq!(celsius_to_kelvin(0.0), 273.15);
        assert_eq!(kelvin_to_celsius(celsius_to_kelvin(85.0)), 85.0);
    }
}
