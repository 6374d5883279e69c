//! Device-level gate-oxide breakdown (OBD) modeling (paper Sec. III).
//!
//! The time-to-breakdown of a device with oxide thickness `x` (nm) and
//! area `a` (normalized to the minimum device area) is Weibull:
//!
//! ```text
//! F(t | x) = 1 − exp(−a · (t/α)^(b·x))            (paper eq. 4)
//! ```
//!
//! The scale `α` and thickness-slope coefficient `b` depend on temperature
//! and stress voltage through the [`ObdTechnology`] trait; the paper says
//! the parameters "can be characterized using some closed-form models or
//! look-up tables w.r.t. temperature", and the closed-form model
//! ([`ClosedFormTech`]) is the one provided.
//!
//! A cell-based percolation degradation simulator ([`degradation`])
//! reproduces the paper's Fig. 3: gate leakage under stress showing a soft
//! breakdown (SBD) jump followed by a wear-out ramp to hard breakdown
//! (HBD).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod degradation;
mod device;
mod tech;

pub use degradation::{DegradationSimulator, LeakageTrace, PercolationConfig};
pub use device::{DeviceObd, FailureCriterion};
pub use tech::{ClosedFormTech, ObdTechnology};

/// Boltzmann constant (eV/K).
pub const BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// Errors produced by the device-model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A model parameter was invalid.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DeviceError>;
