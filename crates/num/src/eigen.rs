//! Symmetric eigendecomposition with a two-backend solver.
//!
//! The spatial-correlation matrices used by the variation model are dense
//! and symmetric, with sizes ranging from a few dozen rows (coarse grids,
//! BLOD Gram matrices) to a few thousand (fine grids). [`SymmetricEigen`]
//! dispatches between two backends through [`SpectralOptions`]:
//!
//! * **Tridiagonal QL** ([`crate::tridiag`]) — Householder reduction +
//!   implicit-shift QL. The full-spectrum solver at every size.
//! * **Lanczos** ([`crate::lanczos`]) — blocked Krylov top-k with full
//!   reorthogonalization. Used when the caller asks for a truncated
//!   spectrum (`energy_fraction < 1`) of a matrix at least
//!   [`SymmetricEigen::LANCZOS_MIN_DIM`] rows: only the retained
//!   components are ever computed.
//!
//! Both sort eigenvalues descending and agree to solver tolerance, so
//! consumers can switch freely; the truncation rule is shared
//! ([`crate::lanczos::filter_full_spectrum`]) so a partial solve retains
//! exactly the components a full solve + truncate would.

use crate::lanczos::{self, LanczosOptions};
use crate::matrix::DMatrix;
use crate::tridiag::symmetric_eigen_ql;
use crate::{NumError, Result};

/// Which algorithm backs a spectral decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectralSolver {
    /// Choose automatically from the matrix size and requested truncation:
    /// Lanczos for truncated spectra from
    /// [`SymmetricEigen::LANCZOS_MIN_DIM`] rows upward, tridiagonal QL
    /// otherwise.
    Auto,
    /// Householder tridiagonalization + implicit-shift QL.
    TridiagonalQl,
    /// Blocked Lanczos with full reorthogonalization (top-k only).
    Lanczos,
}

impl SpectralSolver {
    /// Stable lower-case name for logs, stats and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            SpectralSolver::Auto => "auto",
            SpectralSolver::TridiagonalQl => "tridiagonal_ql",
            SpectralSolver::Lanczos => "lanczos",
        }
    }
}

/// How much of the spectrum to compute, with which backend, to what
/// accuracy.
///
/// The default ([`SpectralOptions::full`]) is the behaviour of
/// [`SymmetricEigen::new`]: the complete spectrum by tridiagonal QL.
/// [`SpectralOptions::energy`] requests a truncated
/// decomposition that stops once the retained eigenvalues capture the
/// given fraction of `trace(A)` — on large matrices this takes the
/// Lanczos path and never computes the discarded components.
///
/// # Example
///
/// ```
/// use statobd_num::matrix::DMatrix;
/// use statobd_num::eigen::{SpectralOptions, SymmetricEigen};
///
/// let a = DMatrix::from_fn(40, 40, |i, j| {
///     (-((i as f64 - j as f64).abs()) / 4.0).exp()
/// });
/// let e = SymmetricEigen::with_options(&a, &SpectralOptions::energy(0.95))?;
/// assert!(e.n_components() < 40);
/// let kept: f64 = e.eigenvalues().iter().sum();
/// assert!(kept >= 0.95 * a.trace());
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpectralOptions {
    /// Backend selection ([`SpectralSolver::Auto`] picks by size/truncation).
    pub solver: SpectralSolver,
    /// Retain leading eigenpairs until they capture this fraction of
    /// `trace(A)`; `1.0` keeps the complete spectrum.
    pub energy_fraction: f64,
    /// Hard cap on retained components (`None` = no cap).
    pub max_components: Option<usize>,
    /// Lanczos Ritz-pair residual tolerance, relative to the spectral
    /// scale (QL always converges to working precision).
    pub tol: f64,
    /// Worker threads for the Lanczos kernels (`None` = respect the
    /// `STATOBD_THREADS` environment override, defaulting to the available
    /// cores). Results are bit-identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        Self::full()
    }
}

impl SpectralOptions {
    /// Full spectrum, automatic solver — the [`SymmetricEigen::new`]
    /// behaviour.
    pub fn full() -> Self {
        SpectralOptions {
            solver: SpectralSolver::Auto,
            energy_fraction: 1.0,
            max_components: None,
            tol: SymmetricEigen::DEFAULT_TOL,
            threads: None,
        }
    }

    /// Truncated spectrum capturing `fraction` of the trace energy.
    pub fn energy(fraction: f64) -> Self {
        SpectralOptions {
            energy_fraction: fraction,
            ..Self::full()
        }
    }

    /// Forces a specific solver backend.
    pub fn with_solver(mut self, solver: SpectralSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the convergence tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Pins the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Caps the number of retained components.
    pub fn with_max_components(mut self, cap: usize) -> Self {
        self.max_components = Some(cap);
        self
    }

    /// Whether these options request less than the complete spectrum of an
    /// `n × n` matrix.
    pub fn wants_partial(&self, n: usize) -> bool {
        self.energy_fraction < 1.0 || self.max_components.is_some_and(|c| c < n)
    }

    fn validate(&self) -> Result<()> {
        if !(self.energy_fraction > 0.0 && self.energy_fraction <= 1.0) {
            return Err(NumError::Domain {
                detail: format!(
                    "energy fraction must be in (0, 1], got {}",
                    self.energy_fraction
                ),
            });
        }
        if !(self.tol > 0.0 && self.tol.is_finite()) {
            return Err(NumError::Domain {
                detail: format!(
                    "spectral tolerance must be positive and finite, got {}",
                    self.tol
                ),
            });
        }
        Ok(())
    }
}

/// Result of a symmetric eigendecomposition `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in **descending** order; column `k` of the
/// eigenvector matrix corresponds to eigenvalue `k`. This matches the
/// principal-component convention where the first component explains the
/// most variance.
///
/// # Example
///
/// ```
/// use statobd_num::matrix::DMatrix;
/// use statobd_num::eigen::SymmetricEigen;
///
/// let a = DMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]]);
/// let e = SymmetricEigen::new(&a)?;
/// assert_eq!(e.eigenvalues(), &[2.0, 1.0]);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Column `k` is the eigenvector for `eigenvalues[k]`; `n × k` with
    /// `k ≤ n` for truncated decompositions.
    eigenvectors: DMatrix,
    /// Rows of the decomposed matrix.
    dimension: usize,
    /// Backend that actually ran (never [`SpectralSolver::Auto`]).
    solver: SpectralSolver,
}

impl SymmetricEigen {
    /// Default Lanczos residual tolerance, relative to the matrix norm.
    pub const DEFAULT_TOL: f64 = 1e-12;

    /// Truncated spectra of matrices at least this large take the Lanczos
    /// top-k path; smaller ones solve fully and truncate.
    pub const LANCZOS_MIN_DIM: usize = 128;

    /// Computes the **full** eigendecomposition of a symmetric matrix by
    /// tridiagonal QL.
    ///
    /// # Errors
    ///
    /// * [`NumError::NotSymmetric`] if `a` is not symmetric to `1e-8`
    ///   relative tolerance,
    /// * [`NumError::NoConvergence`] if the backend iteration fails (does
    ///   not occur for finite symmetric input in practice); the error
    ///   carries the matrix size, the iteration count and the remaining
    ///   residual.
    pub fn new(a: &DMatrix) -> Result<Self> {
        Self::with_options(a, &SpectralOptions::full())
    }

    /// Computes a (possibly truncated) eigendecomposition with explicit
    /// solver, energy-target and threading control.
    ///
    /// # Errors
    ///
    /// * [`NumError::NotSymmetric`] if `a` is not symmetric to `1e-8`
    ///   relative tolerance,
    /// * [`NumError::Domain`] if the options are out of range,
    /// * [`NumError::NoConvergence`] if the backend iteration fails, with
    ///   the matrix size, iteration count and residual attached.
    pub fn with_options(a: &DMatrix, opts: &SpectralOptions) -> Result<Self> {
        opts.validate()?;
        let scale = a.frobenius_norm().max(1.0);
        if !a.is_symmetric(1e-8 * scale) {
            return Err(NumError::NotSymmetric);
        }
        let n = a.nrows();
        let wants_partial = opts.wants_partial(n);
        let solver = match opts.solver {
            SpectralSolver::Auto if wants_partial && n >= Self::LANCZOS_MIN_DIM => {
                SpectralSolver::Lanczos
            }
            SpectralSolver::Auto => SpectralSolver::TridiagonalQl,
            s => s,
        };

        let (eigenvalues, eigenvectors) = if solver == SpectralSolver::Lanczos {
            let lopts = LanczosOptions {
                energy_fraction: opts.energy_fraction,
                tol: opts.tol,
                max_components: opts.max_components,
                threads: crate::parallel::resolve_threads(opts.threads),
                ..LanczosOptions::default()
            };
            lanczos::top_eigenpairs(a, &lopts)?
        } else {
            let (vals, vecs) = symmetric_eigen_ql(a)?;
            if wants_partial {
                let cap = opts.max_components.unwrap_or(n).min(n);
                lanczos::filter_full_spectrum(&vals, &vecs, opts.energy_fraction, cap)
            } else {
                (vals, vecs)
            }
        };
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
            dimension: n,
            solver,
        })
    }

    /// Eigenvalues in descending order (the leading `k ≤ n` for truncated
    /// decompositions).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvector matrix (`n × k`); column `k` pairs with
    /// eigenvalue `k`.
    pub fn eigenvectors(&self) -> &DMatrix {
        &self.eigenvectors
    }

    /// Rows of the matrix that was decomposed.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of retained eigenpairs (`== dimension()` for a full
    /// decomposition).
    pub fn n_components(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Whether the complete spectrum was retained.
    pub fn is_full(&self) -> bool {
        self.n_components() == self.dimension
    }

    /// The backend that produced this decomposition (never
    /// [`SpectralSolver::Auto`]).
    pub fn solver(&self) -> SpectralSolver {
        self.solver
    }

    /// Sum of the retained eigenvalues — for a full decomposition this is
    /// `trace(A)`; for a truncated one, the captured energy.
    pub fn retained_energy(&self) -> f64 {
        self.eigenvalues.iter().sum()
    }

    /// Reconstructs `V · diag(λ) · Vᵀ` (used by tests and sanity checks).
    /// For a truncated decomposition this is the best rank-`k`
    /// approximation of the original matrix, not the matrix itself.
    pub fn reconstruct(&self) -> DMatrix {
        let n = self.dimension;
        let k = self.eigenvalues.len();
        DMatrix::from_fn(n, n, |i, j| {
            (0..k)
                .map(|k| {
                    self.eigenvalues[k] * self.eigenvectors[(i, k)] * self.eigenvectors[(j, k)]
                })
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues(), &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn two_by_two_known_values() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_close(e.eigenvalues()[0], 3.0, 1e-12);
        assert_close(e.eigenvalues()[1], 1.0, 1e-12);
    }

    #[test]
    fn rejects_asymmetric_input() {
        let a = DMatrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(NumError::NotSymmetric)
        ));
    }

    #[test]
    fn reconstruction_matches_original() {
        // Exponential-decay correlation matrix like the variation model uses.
        let n = 16;
        let a = DMatrix::from_fn(n, n, |i, j| (-((i as f64 - j as f64).abs()) / 4.0).exp());
        let e = SymmetricEigen::new(&a).unwrap();
        let r = e.reconstruct();
        for i in 0..n {
            for j in 0..n {
                assert_close(r[(i, j)], a[(i, j)], 1e-9);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 12;
        let a = DMatrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = SymmetricEigen::new(&a).unwrap();
        let v = e.eigenvectors();
        let vtv = v.transpose().mul(v).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_close(vtv[(i, j)], expected, 1e-10);
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let n = 20;
        let a = DMatrix::from_fn(n, n, |i, j| {
            (-((i % 5) as f64 - (j % 5) as f64).abs() / 2.0).exp()
                * (-((i / 5) as f64 - (j / 5) as f64).abs() / 2.0).exp()
        });
        let e = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = e.eigenvalues().iter().sum();
        assert_close(sum, a.trace(), 1e-9);
    }

    fn grid_kernel(side: usize, corr: f64) -> DMatrix {
        let n = side * side;
        let coord = |k: usize| ((k % side) as f64, (k / side) as f64);
        DMatrix::from_fn(n, n, |i, j| {
            let (xi, yi) = coord(i);
            let (xj, yj) = coord(j);
            (-(((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()) / corr).exp()
        })
    }

    #[test]
    fn auto_dispatch_picks_by_size_and_truncation() {
        let small = grid_kernel(4, 2.0); // n = 16
        let e = SymmetricEigen::new(&small).unwrap();
        assert_eq!(e.solver(), SpectralSolver::TridiagonalQl);
        assert!(e.is_full());

        // Truncated, but below LANCZOS_MIN_DIM: full QL solve + truncate.
        let large = grid_kernel(9, 2.0); // n = 81
        let e = SymmetricEigen::with_options(&large, &SpectralOptions::energy(0.95)).unwrap();
        assert_eq!(e.solver(), SpectralSolver::TridiagonalQl);
        assert!(!e.is_full());
        assert_eq!(e.dimension(), 81);

        let huge = grid_kernel(12, 2.0); // n = 144 ≥ LANCZOS_MIN_DIM
        let e = SymmetricEigen::with_options(&huge, &SpectralOptions::energy(0.95)).unwrap();
        assert_eq!(e.solver(), SpectralSolver::Lanczos);
        assert!(!e.is_full());
        assert!(e.retained_energy() >= 0.95 * huge.trace());
    }

    #[test]
    fn truncated_decomposition_matches_leading_full_spectrum() {
        let a = grid_kernel(8, 2.0); // n = 64
        let full = SymmetricEigen::new(&a).unwrap();
        for solver in [SpectralSolver::TridiagonalQl, SpectralSolver::Lanczos] {
            let part =
                SymmetricEigen::with_options(&a, &SpectralOptions::energy(0.9).with_solver(solver))
                    .unwrap();
            assert!(part.n_components() < 64, "{}", solver.name());
            assert!(part.retained_energy() >= 0.9 * a.trace());
            for (p, f) in part.eigenvalues().iter().zip(full.eigenvalues()) {
                assert_close(*p, *f, 1e-9 * full.eigenvalues()[0]);
            }
        }
    }

    #[test]
    fn max_components_cap_is_respected() {
        let a = grid_kernel(6, 2.0);
        let e = SymmetricEigen::with_options(&a, &SpectralOptions::full().with_max_components(5))
            .unwrap();
        assert_eq!(e.n_components(), 5);
        assert_eq!(e.eigenvectors().ncols(), 5);
        assert_eq!(e.eigenvectors().nrows(), 36);
    }

    #[test]
    fn rejects_invalid_options() {
        let a = DMatrix::identity(4);
        assert!(matches!(
            SymmetricEigen::with_options(&a, &SpectralOptions::energy(0.0)),
            Err(NumError::Domain { .. })
        ));
        assert!(matches!(
            SymmetricEigen::with_options(&a, &SpectralOptions::full().with_tol(-1.0)),
            Err(NumError::Domain { .. })
        ));
    }

    #[test]
    fn psd_correlation_matrix_has_nonnegative_eigenvalues() {
        // 2-D grid exponential correlation is positive semidefinite.
        let side = 6;
        let n = side * side;
        let coord = |k: usize| ((k % side) as f64, (k / side) as f64);
        let a = DMatrix::from_fn(n, n, |i, j| {
            let (xi, yi) = coord(i);
            let (xj, yj) = coord(j);
            let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            (-d / 3.0).exp()
        });
        let e = SymmetricEigen::new(&a).unwrap();
        for &l in e.eigenvalues() {
            assert!(l > -1e-9, "eigenvalue {l} should be non-negative");
        }
    }
}
