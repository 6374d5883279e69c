//! Runtime dynamic reliability management (DRM) on the hybrid lookup
//! tables — the use-case behind the paper's title: the hybrid `(γ, b)`
//! engine exists explicitly to be "embedded into a dynamic system for
//! reliability monitoring that usually requires very fast response"
//! (Sec. IV-E). This crate turns that sentence into a subsystem, in the
//! style of Srinivasan et al.'s RAMP dynamic reliability management.
//!
//! # Architecture
//!
//! * [`DamageState`] — the damage model. Under a time-varying operating
//!   point each block's Weibull hazard advances by the *effective age*
//!   `dξ_j = dt / α_j(T(t), V(t))`; under a constant point `ξ = t/α`,
//!   so the hybrid table entry at `γ_j = ln ξ_j` is exactly the paper's
//!   constant-condition lookup made cumulative. The state is a plain
//!   `Vec<f64>` + elapsed time and checkpoints to JSON
//!   ([`statobd_num::json`]) so a deployed monitor survives restarts.
//! * [`PolicyConfig`] — the budget-driven policy: an end-of-service
//!   failure-probability budget (n-per-million), a DVFS ladder of
//!   [`DvfsLevel`]s, and a hysteresis factor so the throttle does not
//!   oscillate at the budget boundary.
//! * [`OperatingPhase`] — a piecewise-constant operating point: per-block
//!   temperatures and a supply voltage, held for a duration.
//! * [`MissionProfile`] — a library of named stress histories
//!   (HTOL/LTOL qualification, datacenter, automotive, burn-in + field)
//!   expressed as design-independent [`PhaseSpec`] sequences; the fleet
//!   workload evaluates chip populations against these.
//! * [`ReliabilityManager`] — ties it together: advances damage, reads
//!   the chip failure probability off the tables (weakest-link composed
//!   on log-survival via [`statobd_core::WeakestLink`]), projects it to
//!   end of service, and walks the DVFS ladder against the budget.
//!
//! The manager's table queries share the engine-side off-grid
//! accounting: the tables are widened at build time to cover the service
//! life ([`statobd_core::HybridConfig::covering_gamma`]), and
//! [`ReliabilityManager::off_grid_queries`] must stay zero in a healthy
//! deployment.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod damage;
mod manager;
mod policy;
mod profile;
mod schedule;

pub use damage::DamageState;
pub use manager::{ManagerConfig, ReliabilityManager, StepReport};
pub use policy::{DvfsLevel, PolicyConfig};
pub use profile::{MissionProfile, YEAR_S};
pub use schedule::{ManageSpec, OperatingPhase, PhaseSpec};

/// Errors produced by the reliability manager.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    /// A policy, schedule or damage-state parameter was invalid.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// An underlying reliability-engine operation failed.
    Core(statobd_core::CoreError),
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::InvalidParameter { detail } => write!(f, "invalid parameter: {detail}"),
            ManagerError::Core(e) => write!(f, "reliability engine failure: {e}"),
        }
    }
}

impl std::error::Error for ManagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagerError::Core(e) => Some(e),
            ManagerError::InvalidParameter { .. } => None,
        }
    }
}

impl From<statobd_core::CoreError> for ManagerError {
    fn from(e: statobd_core::CoreError) -> Self {
        ManagerError::Core(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ManagerError>;
