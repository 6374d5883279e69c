//! Geometric multigrid for cell-centered 2-D grid operators.
//!
//! The thermal conductance matrix is a 5-point-stencil SPD operator on an
//! `nx × ny` cell-centered grid whose condition number grows with the
//! resolution, so Krylov iteration counts — and with them wall-clock —
//! grow with grid size. A multigrid V-cycle removes that growth: damped
//! Jacobi smoothing kills the high-frequency error on each level, the
//! remaining smooth error is restricted (full weighting, the transpose of
//! the prolongation) to a coarser grid, solved there recursively, and the
//! correction is prolongated back with bilinear interpolation. Coarse
//! operators are Galerkin products `A_c = Pᵀ·A·P`, which keeps every level
//! symmetric positive definite, and the coarsest level is handled directly
//! by the existing dense [`Cholesky`].
//!
//! The symmetric smoothing makes one V-cycle an SPD linear operator, so the
//! cycle serves as a CG preconditioner ([`Preconditioner`] impl): the
//! configuration ("MGCG") behind every thermal solve, at every grid size.
//! A grid of at most 64 cells has no fine level, so there
//! the V-cycle is the exact dense solve and MGCG converges in one step.

use crate::cg::Preconditioner;
use crate::cholesky::Cholesky;
use crate::matrix::DMatrix;
use crate::sparse::{CooMatrix, CsrMatrix};
use crate::{NumError, Result};

/// Damped-Jacobi sweeps before coarse-grid correction.
const NU_PRE: usize = 1;
/// Damped-Jacobi sweeps after coarse-grid correction (equal to [`NU_PRE`]
/// so the V-cycle stays symmetric for CG preconditioning).
const NU_POST: usize = 1;
/// Jacobi damping factor; 0.8 is near-optimal for 5-point stencils.
const OMEGA: f64 = 0.8;
/// Coarsening stops once a level has at most this many cells, which are
/// solved with a dense Cholesky factorization.
const COARSE_MAX_CELLS: usize = 64;

/// One fine level of the hierarchy.
#[derive(Debug, Clone)]
struct Level {
    a: CsrMatrix,
    /// Reciprocal diagonal for the damped-Jacobi smoother.
    inv_diag: Vec<f64>,
    /// Prolongation from the next-coarser level to this one.
    p: CsrMatrix,
    /// Restriction to the next-coarser level (`Pᵀ`, i.e. full weighting).
    r: CsrMatrix,
}

/// A geometric-multigrid V-cycle hierarchy for a cell-centered grid
/// operator.
///
/// # Example
///
/// ```
/// use statobd_num::cg::{solve_pcg, CgOptions};
/// use statobd_num::multigrid::Multigrid;
/// use statobd_num::sparse::CooMatrix;
///
/// // 2-D Laplacian + small vertical loss on a 16x16 cell grid.
/// let (nx, ny) = (16, 16);
/// let n = nx * ny;
/// let mut coo = CooMatrix::new(n, n);
/// for iy in 0..ny {
///     for ix in 0..nx {
///         let i = iy * nx + ix;
///         let mut d = 1e-3;
///         for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
///             let (jx, jy) = (ix as i64 + dx, iy as i64 + dy);
///             if (0..nx as i64).contains(&jx) && (0..ny as i64).contains(&jy) {
///                 coo.push(i, (jy as usize) * nx + jx as usize, -1.0);
///                 d += 1.0;
///             }
///         }
///         coo.push(i, i, d);
///     }
/// }
/// let a = coo.to_csr();
/// let mg = Multigrid::new(&a, nx, ny)?;
/// let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
/// let sol = solve_pcg(&a, &b, None, &mg, &CgOptions::default())?;
/// assert!(sol.relative_residual <= 1e-10);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Multigrid {
    n: usize,
    levels: Vec<Level>,
    coarse: Cholesky,
}

/// 1-D cell-center interpolation stencil: for each of `n_fine` fine cells,
/// up to two (coarse index, weight) pairs summing to one.
fn interp_1d(n_fine: usize, n_coarse: usize) -> Vec<[(usize, f64); 2]> {
    let ratio = n_coarse as f64 / n_fine as f64;
    (0..n_fine)
        .map(|i| {
            // Fine-cell center in coarse index space.
            let pos = (i as f64 + 0.5) * ratio - 0.5;
            let j0 = pos.floor();
            let w = pos - j0;
            let lo = (j0.max(0.0) as usize).min(n_coarse - 1);
            let hi = ((j0 + 1.0).max(0.0) as usize).min(n_coarse - 1);
            if lo == hi {
                [(lo, 1.0), (lo, 0.0)]
            } else {
                [(lo, 1.0 - w), (hi, w)]
            }
        })
        .collect()
}

/// Bilinear prolongation from an `ncx × ncy` coarse grid to an `nx × ny`
/// fine grid (row-major cell ordering, matching the thermal solver).
fn prolongation(nx: usize, ny: usize, ncx: usize, ncy: usize) -> CsrMatrix {
    let wx = interp_1d(nx, ncx);
    let wy = interp_1d(ny, ncy);
    let mut coo = CooMatrix::new(nx * ny, ncx * ncy);
    for (iy, wys) in wy.iter().enumerate() {
        for (ix, wxs) in wx.iter().enumerate() {
            let i = iy * nx + ix;
            for &(jy, vy) in wys {
                for &(jx, vx) in wxs {
                    coo.push(i, jy * ncx + jx, vy * vx);
                }
            }
        }
    }
    coo.to_csr()
}

impl Multigrid {
    /// Builds the hierarchy for the operator `a` on an `nx × ny`
    /// cell-centered grid (row-major, `i = iy·nx + ix`).
    ///
    /// # Errors
    ///
    /// * [`NumError::Dimension`] if `a` is not `nx·ny × nx·ny`,
    /// * [`NumError::NotPositiveDefinite`] if a diagonal is non-positive
    ///   on some level or the coarsest-level Cholesky fails.
    pub fn new(a: &CsrMatrix, nx: usize, ny: usize) -> Result<Self> {
        let n = nx * ny;
        if n == 0 || a.nrows() != n || a.ncols() != n {
            return Err(NumError::Dimension {
                detail: format!(
                    "multigrid needs a {n}x{n} operator for a {nx}x{ny} grid, got {}x{}",
                    a.nrows(),
                    a.ncols()
                ),
            });
        }
        let mut levels = Vec::new();
        let mut a_cur = a.clone();
        let (mut cx, mut cy) = (nx, ny);
        while cx * cy > COARSE_MAX_CELLS && (cx > 2 || cy > 2) {
            let (ncx, ncy) = (cx.div_ceil(2).max(1), cy.div_ceil(2).max(1));
            let p = prolongation(cx, cy, ncx, ncy);
            let r = p.transpose();
            let a_coarse = r.mul_csr(&a_cur.mul_csr(&p)?)?;
            let inv_diag = invert_diagonal(&a_cur)?;
            levels.push(Level {
                a: a_cur,
                inv_diag,
                p,
                r,
            });
            a_cur = a_coarse;
            (cx, cy) = (ncx, ncy);
        }
        let coarse_n = cx * cy;
        let dense = DMatrix::from_fn(coarse_n, coarse_n, |i, j| a_cur.get(i, j));
        let coarse = Cholesky::new(&dense)?;
        Ok(Multigrid { n, levels, coarse })
    }

    /// Operator dimension (`nx·ny`).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Runs one V-cycle for `A·x = b`, refining `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the operator dimension.
    fn v_cycle(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        self.cycle(0, b, x);
    }

    fn smooth(&self, level: &Level, b: &[f64], x: &mut [f64], sweeps: usize) {
        let n = x.len();
        let mut ax = vec![0.0; n];
        for _ in 0..sweeps {
            level.a.mul_vec_into(x, &mut ax);
            for i in 0..n {
                x[i] += OMEGA * level.inv_diag[i] * (b[i] - ax[i]);
            }
        }
    }

    fn cycle(&self, depth: usize, b: &[f64], x: &mut [f64]) {
        let Some(level) = self.levels.get(depth) else {
            let solved = self
                .coarse
                .solve(b)
                .expect("coarse dimension fixed at construction");
            x.copy_from_slice(&solved);
            return;
        };
        self.smooth(level, b, x, NU_PRE);
        // Restrict the residual.
        let mut r = vec![0.0; b.len()];
        level.a.mul_vec_into(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let rc = level.r.mul_vec(&r).expect("hierarchy dimensions agree");
        // Coarse-grid correction.
        let mut ec = vec![0.0; rc.len()];
        self.cycle(depth + 1, &rc, &mut ec);
        let e = level.p.mul_vec(&ec).expect("hierarchy dimensions agree");
        for (xi, ei) in x.iter_mut().zip(&e) {
            *xi += ei;
        }
        self.smooth(level, b, x, NU_POST);
    }
}

/// Reciprocal of the operator diagonal, validated positive.
fn invert_diagonal(a: &CsrMatrix) -> Result<Vec<f64>> {
    let d = a.diagonal();
    if d.iter().any(|&v| v <= 0.0) {
        return Err(NumError::NotPositiveDefinite);
    }
    Ok(d.iter().map(|&v| 1.0 / v).collect())
}

impl Preconditioner for Multigrid {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        // A single-level hierarchy makes the V-cycle the exact coarse solve.
        z.fill(0.0);
        self.v_cycle(r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{solve_pcg, CgOptions, CgSolution, IdentityPreconditioner};

    /// 5-point conductance operator matching the thermal grid's structure.
    fn grid_operator(nx: usize, ny: usize, g_lat: f64, g_v: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for iy in 0..ny {
            for ix in 0..nx {
                let i = iy * nx + ix;
                let mut d = g_v;
                for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    let (jx, jy) = (ix as i64 + dx, iy as i64 + dy);
                    if (0..nx as i64).contains(&jx) && (0..ny as i64).contains(&jy) {
                        coo.push(i, (jy as usize) * nx + jx as usize, -g_lat);
                        d += g_lat;
                    }
                }
                coo.push(i, i, d);
            }
        }
        coo.to_csr()
    }

    /// A right-hand side that is not constant: every row of
    /// [`grid_operator`] sums to `g_v`, so a constant vector is an exact
    /// eigenvector and any CG variant would converge in one iteration.
    fn rough_rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i % 7) as f64) - 3.0).collect()
    }

    fn mgcg(a: &CsrMatrix, nx: usize, ny: usize, b: &[f64], x0: Option<&[f64]>) -> CgSolution {
        let mg = Multigrid::new(a, nx, ny).unwrap();
        let opts = CgOptions {
            rel_tol: 1e-9,
            max_iter: 200,
        };
        solve_pcg(a, b, x0, &mg, &opts).unwrap()
    }

    #[test]
    fn mgcg_iterations_are_resolution_independent() {
        // The whole point of multigrid: MGCG iteration counts stay O(1) as
        // the grid refines, while plain CG counts grow.
        let mut iters = Vec::new();
        for side in [16usize, 32, 64] {
            // Vertical conductance scales with cell area (total fixed),
            // matching the thermal grid's refinement behaviour.
            let a = grid_operator(side, side, 0.25, 2.0 / (side * side) as f64);
            iters.push(mgcg(&a, side, side, &rough_rhs(side * side), None).iterations);
        }
        let max = *iters.iter().max().unwrap();
        let min = *iters.iter().min().unwrap();
        assert!(
            max <= min + 10 && max < 60,
            "MGCG iterations grew with resolution: {iters:?}"
        );
    }

    #[test]
    fn mgcg_beats_unpreconditioned_cg_on_large_grid() {
        let (nx, ny) = (48, 48);
        let a = grid_operator(nx, ny, 0.25, 1e-6);
        let b = rough_rhs(nx * ny);
        let opts = CgOptions {
            rel_tol: 1e-9,
            max_iter: 50_000,
        };
        let plain = solve_pcg(&a, &b, None, &IdentityPreconditioner, &opts).unwrap();
        let mgcg = mgcg(&a, nx, ny, &b, None);
        assert!(
            mgcg.iterations * 5 < plain.iterations,
            "mgcg {} vs unpreconditioned {}",
            mgcg.iterations,
            plain.iterations
        );
        let scale = plain.x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (m, c) in mgcg.x.iter().zip(&plain.x) {
            assert!((m - c).abs() < 1e-6 * scale);
        }
    }

    #[test]
    fn non_power_of_two_and_rectangular_grids_work() {
        for (nx, ny) in [(20usize, 12usize), (17, 31), (9, 9)] {
            let a = grid_operator(nx, ny, 1.0, 0.01);
            let sol = mgcg(&a, nx, ny, &rough_rhs(nx * ny), None);
            assert!(sol.relative_residual <= 1e-9, "{nx}x{ny} did not converge");
        }
    }

    #[test]
    fn tiny_grid_degenerates_to_direct_solve() {
        let (nx, ny) = (4, 4);
        let a = grid_operator(nx, ny, 1.0, 0.5);
        let mg = Multigrid::new(&a, nx, ny).unwrap();
        assert!(mg.levels.is_empty());
        // The single-level V-cycle is the exact Cholesky solve, so MGCG
        // converges in one step.
        let b = rough_rhs(16);
        let sol = mgcg(&a, nx, ny, &b, None);
        assert_eq!(sol.iterations, 1);
        let r = a.mul_vec(&sol.x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_skips_iterations() {
        let (nx, ny) = (16, 16);
        let a = grid_operator(nx, ny, 0.25, 1e-3);
        let b = rough_rhs(nx * ny);
        let cold = mgcg(&a, nx, ny, &b, None);
        assert!(cold.iterations > 0);
        let warm = mgcg(&a, nx, ny, &b, Some(&cold.x));
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = grid_operator(4, 4, 1.0, 1.0);
        assert!(matches!(
            Multigrid::new(&a, 5, 5),
            Err(NumError::Dimension { .. })
        ));
        let mg = Multigrid::new(&a, 4, 4).unwrap();
        assert!(matches!(
            solve_pcg(&a, &[1.0; 9], None, &mg, &CgOptions::default()),
            Err(NumError::Dimension { .. })
        ));
    }
}
