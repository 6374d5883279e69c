//! Preconditioned conjugate-gradient solver for symmetric positive-definite
//! sparse systems (the thermal grid's conductance matrix).
//!
//! The solver is generic over a [`Preconditioner`]. The thermal solver
//! uses the geometric-multigrid V-cycle of [`crate::multigrid`] (MGCG),
//! which makes every thermal grid converge in about ten iterations
//! rather than thousands. The identity ([`IdentityPreconditioner`],
//! plain CG) is the unpreconditioned baseline the tests measure it
//! against. [`solve_pcg`] accepts an initial guess
//! so fixed-point loops (the thermal leakage iteration, implicit transient
//! stepping) can warm-start from the previous solution.

use crate::matrix::{axpy, dot};
use crate::sparse::CsrMatrix;
use crate::{NumError, Result};

/// An SPD preconditioner `M ≈ A`: applies `z ← M⁻¹·r`.
///
/// Implementations must be symmetric positive definite as linear operators
/// — conjugate gradients silently loses its convergence guarantees
/// otherwise.
pub trait Preconditioner {
    /// Applies the preconditioner: `z ← M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len()`/`z.len()` do not match the
    /// operator dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner (plain, unpreconditioned CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Options controlling the conjugate-gradient iteration.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual tolerance: stop when `‖r‖ ≤ rel_tol·‖b‖`.
    pub rel_tol: f64,
    /// Hard cap on iterations.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            rel_tol: 1e-10,
            max_iter: 10_000,
        }
    }
}

/// Result of a converged CG solve.
#[derive(Debug, Clone)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Solves `A·x = b` for SPD `A` by conjugate gradients with the
/// preconditioner `m` and an optional warm-start guess `x0` (`None` starts
/// from zero).
///
/// The convergence test is on the *true* residual `‖b − A·x‖ ≤
/// rel_tol·‖b‖`, independent of the guess and the preconditioner, so
/// different variants of the same solve are directly comparable.
///
/// # Errors
///
/// * [`NumError::Dimension`] if shapes are inconsistent (including an
///   `x0` of the wrong length),
/// * [`NumError::NoConvergence`] if `max_iter` is exhausted,
/// * [`NumError::NotPositiveDefinite`] if a non-positive curvature
///   `pᵀ·A·p ≤ 0` is detected (the matrix is not SPD).
///
/// # Example
///
/// ```
/// use statobd_num::sparse::CooMatrix;
/// use statobd_num::cg::{solve_pcg, CgOptions, IdentityPreconditioner};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let sol = solve_pcg(&a, &[1.0, 2.0], None, &IdentityPreconditioner, &CgOptions::default())?;
/// assert!(sol.relative_residual < 1e-9);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
pub fn solve_pcg(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    m: &dyn Preconditioner,
    opts: &CgOptions,
) -> Result<CgSolution> {
    let n = a.nrows();
    if a.ncols() != n || b.len() != n || x0.is_some_and(|x| x.len() != n) {
        return Err(NumError::Dimension {
            detail: format!(
                "CG needs square A and matching vectors: A is {}x{}, b has {}, x0 has {:?}",
                a.nrows(),
                a.ncols(),
                b.len(),
                x0.map(<[f64]>::len)
            ),
        });
    }
    let b_norm = dot(b, b).sqrt();
    if b_norm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
        });
    }

    let mut x = x0.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);
    let mut r = b.to_vec();
    if x0.is_some() {
        let mut ax = vec![0.0; n];
        a.mul_vec_into(&x, &mut ax);
        axpy(-1.0, &ax, &mut r);
    }
    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for iter in 0..opts.max_iter {
        let r_norm = dot(&r, &r).sqrt();
        if r_norm <= opts.rel_tol * b_norm {
            return Ok(CgSolution {
                x,
                iterations: iter,
                relative_residual: r_norm / b_norm,
            });
        }
        a.mul_vec_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            return Err(NumError::NotPositiveDefinite);
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        m.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    let r_norm = dot(&r, &r).sqrt();
    Err(NumError::NoConvergence {
        iterations: opts.max_iter,
        residual: r_norm / b_norm,
        dimension: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Tridiagonal [−1, 2+ε, −1] — SPD.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.01);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    fn unpreconditioned(
        a: &CsrMatrix,
        b: &[f64],
        x0: Option<&[f64]>,
        opts: &CgOptions,
    ) -> Result<CgSolution> {
        solve_pcg(a, b, x0, &IdentityPreconditioner, opts)
    }

    #[test]
    fn solves_small_spd() {
        let a = laplacian_1d(50);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let sol = unpreconditioned(&a, &b, None, &CgOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let sol = unpreconditioned(&a, &[0.0; 10], None, &CgOptions::default()).unwrap();
        assert!(sol.x.iter().all(|&v| v == 0.0));
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn detects_indefinite_matrix() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        let a = coo.to_csr();
        let err = unpreconditioned(&a, &[1.0, 1.0], None, &CgOptions::default());
        assert!(matches!(err, Err(NumError::NotPositiveDefinite)));
    }

    #[test]
    fn iteration_budget_is_respected() {
        let a = laplacian_1d(200);
        let b = vec![1.0; 200];
        let opts = CgOptions {
            max_iter: 2,
            rel_tol: 1e-14,
        };
        let err = unpreconditioned(&a, &b, None, &opts);
        assert!(matches!(err, Err(NumError::NoConvergence { .. })));
    }

    #[test]
    fn exact_warm_start_converges_instantly() {
        let a = laplacian_1d(80);
        let x_true: Vec<f64> = (0..80).map(|i| (i as f64 * 0.17).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let cold = unpreconditioned(&a, &b, None, &CgOptions::default()).unwrap();
        let warm = unpreconditioned(&a, &b, Some(&cold.x), &CgOptions::default()).unwrap();
        assert_eq!(warm.iterations, 0);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn near_warm_start_converges_faster() {
        let a = laplacian_1d(300);
        let x_true: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let opts = CgOptions::default();
        let cold = unpreconditioned(&a, &b, None, &opts).unwrap();
        // Perturb the exact solution slightly: the warm start should need
        // far fewer iterations than the cold start.
        let guess: Vec<f64> = x_true.iter().map(|&v| v + 1e-6).collect();
        let warm = unpreconditioned(&a, &b, Some(&guess), &opts).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-7);
        }
    }

    #[test]
    fn warm_start_dimension_checked() {
        let a = laplacian_1d(10);
        let err = unpreconditioned(&a, &[1.0; 10], Some(&[0.0; 9]), &CgOptions::default());
        assert!(matches!(err, Err(NumError::Dimension { .. })));
    }
}
