//! Gate-oxide thickness variation modeling (paper Sec. II).
//!
//! The oxide thickness of a device is decomposed as
//!
//! ```text
//! x = u₀ + z_g + z_corr + z_ε                      (paper eq. 1)
//! ```
//!
//! with a die-to-die *global* component `z_g`, a *spatially correlated*
//! intra-die component `z_corr` (grid model: one random variable per grid,
//! exponentially decaying correlation with distance) and an *independent*
//! residual `z_ε` per device.
//!
//! The correlated structure is diagonalized by principal-component analysis
//! into the canonical form
//!
//! ```text
//! x = λ_{i,0} + Σ_j λ_{i,j} z_j + λ_r ε            (paper eq. 2)
//! ```
//!
//! which [`ThicknessModel`] represents: a loadings matrix over mutually
//! independent standard-normal principal components `z_j`, a per-grid
//! nominal, and the residual sigma `λ_r`.
//!
//! # Example
//!
//! ```
//! use statobd_variation::{GridSpec, VarianceBudget, CorrelationKernel, ThicknessModelBuilder};
//!
//! // Table II of the paper: u0 = 2.2 nm, 3σ/u0 = 4 %, split 50/25/25.
//! let budget = VarianceBudget::itrs_2008(2.2)?;
//! let model = ThicknessModelBuilder::new()
//!     .grid(GridSpec::new(1.0, 1.0, 5, 5)?)
//!     .nominal(2.2)
//!     .budget(budget)
//!     .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
//!     .build()?;
//! assert_eq!(model.n_grids(), 25);
//! # Ok::<(), statobd_variation::VariationError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod canonical;
mod grid;
mod kernel;
mod sampling;
mod systematic;

pub use budget::VarianceBudget;
pub use canonical::{ModelBuildStats, ThicknessModel, ThicknessModelBuilder};
pub use grid::GridSpec;
pub use kernel::CorrelationKernel;
pub use sampling::{FieldSampler, GridBaseSample};
pub use systematic::SystematicPattern;

use statobd_num::NumError;

/// Errors produced by the variation-model construction pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum VariationError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Description of the offending parameter.
        detail: String,
    },
    /// The assembled covariance matrix is not positive semidefinite (after
    /// allowing for round-off): the kernel/budget combination is invalid.
    InvalidCovariance {
        /// Most negative eigenvalue encountered.
        min_eigenvalue: f64,
    },
    /// An underlying numerical routine failed.
    Numerical(NumError),
}

impl std::fmt::Display for VariationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VariationError::InvalidParameter { detail } => {
                write!(f, "invalid parameter: {detail}")
            }
            VariationError::InvalidCovariance { min_eigenvalue } => write!(
                f,
                "covariance matrix is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
            ),
            VariationError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl std::error::Error for VariationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VariationError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumError> for VariationError {
    fn from(e: NumError) -> Self {
        VariationError::Numerical(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, VariationError>;
