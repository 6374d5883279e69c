//! Numerical foundations for the `statobd` workspace.
//!
//! This crate provides the self-contained numerical substrate needed by the
//! statistical oxide-breakdown reliability analysis:
//!
//! * dense linear algebra ([`matrix::DMatrix`], symmetric
//!   eigendecomposition — Householder tridiagonalization + implicit-shift
//!   QL for full spectra, blocked Lanczos for truncated ones — plus a
//!   Cholesky factorization),
//! * sparse matrices and a preconditioned conjugate-gradient solver with a
//!   pluggable [`cg::Preconditioner`] — zero-fill incomplete Cholesky
//!   ([`precond::Ic0`]) and a geometric-multigrid V-cycle
//!   ([`multigrid::Multigrid`]) — used by the thermal simulator,
//! * special functions (`erf`, `ln_gamma`, regularized incomplete gamma),
//! * probability distributions (normal, gamma/χ²) with PDFs, CDFs,
//!   quantiles and sampling,
//! * 1-D quadrature rules (midpoint, Simpson, Gauss–Legendre),
//! * bilinear interpolation on rectilinear grids,
//! * histograms and descriptive statistics (R², mutual information,
//!   Kolmogorov–Smirnov distance),
//! * a deterministic pseudo-random stream ([`rng::Xoshiro256pp`]) and
//!   normal/exponential samplers,
//! * a lane-parallel Illinois root-finder on the Weibull scale
//!   ([`root::Illinois`]), behind every lifetime solve,
//! * a runtime-dispatched SIMD-style lane layer ([`simd`]) with
//!   vectorized `exp`/`exp_m1`/`ln_1p` kernels for the engines' hot
//!   transcendental loops,
//! * a JSON value model with parser and serializers ([`json`]),
//! * an order-independent command-line flag parser ([`flags`]),
//! * stable, toolchain-independent FNV-1a content hashing ([`hash`]),
//! * chunked scoped-thread parallelism with deterministic reduction order
//!   ([`parallel`]).
//!
//! Everything is implemented from scratch on `f64` with **no external
//! dependencies** — the whole workspace builds offline against an empty
//! cargo registry.
//!
//! # Example
//!
//! ```
//! use statobd_num::matrix::DMatrix;
//! use statobd_num::eigen::SymmetricEigen;
//!
//! // Eigendecomposition of a small correlation matrix.
//! let c = DMatrix::from_rows(&[
//!     &[1.0, 0.5],
//!     &[0.5, 1.0],
//! ]);
//! let eig = SymmetricEigen::new(&c).expect("symmetric");
//! assert!((eig.eigenvalues()[0] - 1.5).abs() < 1e-12);
//! assert!((eig.eigenvalues()[1] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cg;
pub mod cholesky;
pub mod dist;
pub mod eigen;
pub mod flags;
pub mod hash;
pub mod hist;
pub mod interp;
pub mod json;
pub mod lanczos;
pub mod matrix;
pub mod multigrid;
pub mod parallel;
pub mod precond;
pub mod quad;
pub mod quadform;
pub mod rng;
pub mod root;
pub mod simd;
pub mod sparse;
pub mod special;
pub mod stats;
pub mod tridiag;

pub use matrix::DMatrix;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// A matrix argument had incompatible or invalid dimensions.
    Dimension {
        /// Human-readable description of the dimension mismatch.
        detail: String,
    },
    /// A factorization failed because the matrix is not (numerically)
    /// positive definite.
    NotPositiveDefinite,
    /// The input matrix was expected to be symmetric but is not.
    NotSymmetric,
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual at the point of failure.
        residual: f64,
        /// Problem size the iteration ran on (matrix dimension, eigenvalue
        /// count, …) — context for diagnosing which decomposition failed.
        dimension: usize,
    },
    /// A scalar argument was outside its mathematical domain.
    Domain {
        /// Human-readable description of the domain violation.
        detail: String,
    },
}

impl std::fmt::Display for NumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumError::Dimension { detail } => write!(f, "dimension mismatch: {detail}"),
            NumError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            NumError::NotSymmetric => write!(f, "matrix is not symmetric"),
            NumError::NoConvergence {
                iterations,
                residual,
                dimension,
            } => write!(
                f,
                "iteration failed to converge after {iterations} iterations \
                 on a size-{dimension} problem (residual {residual:.3e})"
            ),
            NumError::Domain { detail } => write!(f, "domain error: {detail}"),
        }
    }
}

impl std::error::Error for NumError {}

/// Convenience result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, NumError>;
