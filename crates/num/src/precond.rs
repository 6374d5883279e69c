//! Zero-fill incomplete Cholesky factorization `IC(0)` for sparse SPD
//! matrices.
//!
//! `IC(0)` computes a lower-triangular factor `L` with exactly the sparsity
//! pattern of the lower triangle of `A`, so `L·Lᵀ ≈ A` with no fill-in.
//! Applying the preconditioner is one forward and one backward triangular
//! solve — `O(nnz)` — while the iteration count of preconditioned CG on
//! grid Laplacians drops severalfold versus plain CG. For
//! M-matrices (the thermal conductance matrices: positive diagonal,
//! non-positive off-diagonals, diagonally dominant) the factorization is
//! guaranteed to exist.

use crate::cg::Preconditioner;
use crate::sparse::CsrMatrix;
use crate::{NumError, Result};

/// Zero-fill incomplete Cholesky factor of a sparse SPD matrix.
///
/// # Example
///
/// ```
/// use statobd_num::sparse::CooMatrix;
/// use statobd_num::cg::{solve_pcg, CgOptions};
/// use statobd_num::precond::Ic0;
///
/// // 1-D Laplacian with a regularized diagonal.
/// let n = 50;
/// let mut coo = CooMatrix::new(n, n);
/// for i in 0..n {
///     coo.push(i, i, 2.1);
///     if i > 0 {
///         coo.push(i, i - 1, -1.0);
///         coo.push(i - 1, i, -1.0);
///     }
/// }
/// let a = coo.to_csr();
/// let m = Ic0::new(&a)?;
/// let sol = solve_pcg(&a, &vec![1.0; n], None, &m, &CgOptions::default())?;
/// assert!(sol.relative_residual < 1e-9);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ic0 {
    n: usize,
    /// CSR of the strictly-lower part of `L`, columns ascending per row.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Diagonal of `L`, stored separately for the triangular solves.
    diag: Vec<f64>,
}

impl Ic0 {
    /// Factorizes `A ≈ L·Lᵀ` on the lower-triangular pattern of `A`.
    ///
    /// Only the lower triangle of `A` is read; the upper triangle is
    /// assumed symmetric.
    ///
    /// # Errors
    ///
    /// * [`NumError::Dimension`] if `a` is not square,
    /// * [`NumError::NotPositiveDefinite`] if a pivot becomes non-positive
    ///   (the matrix is too indefinite for zero-fill factorization).
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumError::Dimension {
                detail: format!("IC(0) requires a square matrix, got {}x{}", n, a.ncols()),
            });
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut diag = vec![0.0; n];
        row_ptr.push(0);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut a_ii = None;
            let row_start = col_idx.len();
            for (&j, &a_ij) in cols.iter().zip(vals) {
                if j > i {
                    continue;
                }
                if j == i {
                    a_ii = Some(a_ij);
                    continue;
                }
                // l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj, the sum running
                // over the shared sparsity of rows i (built so far) and j.
                let mut s = a_ij;
                let (mut p, mut q) = (row_start, row_ptr[j]);
                let (p_end, q_end) = (col_idx.len(), row_ptr[j + 1]);
                while p < p_end && q < q_end {
                    match col_idx[p].cmp(&col_idx[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            s -= values[p] * values[q];
                            p += 1;
                            q += 1;
                        }
                    }
                }
                col_idx.push(j);
                values.push(s / diag[j]);
            }
            let Some(a_ii) = a_ii else {
                return Err(NumError::NotPositiveDefinite);
            };
            let mut d = a_ii;
            for &v in &values[row_start..] {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NotPositiveDefinite);
            }
            diag[i] = d.sqrt();
            row_ptr.push(col_idx.len());
        }
        Ok(Ic0 {
            n,
            row_ptr,
            col_idx,
            values,
            diag,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored non-zeros of the factor (strict lower triangle + diagonal).
    pub fn nnz(&self) -> usize {
        self.values.len() + self.n
    }

    /// Solves `L·Lᵀ·z = r` in place of `z` (one forward and one backward
    /// triangular sweep).
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the factor dimension.
    pub fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "rhs length mismatch");
        assert_eq!(z.len(), self.n, "solution length mismatch");
        // Forward: L·y = r (y stored in z).
        for i in 0..self.n {
            let mut s = r[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s -= self.values[k] * z[self.col_idx[k]];
            }
            z[i] = s / self.diag[i];
        }
        // Backward: Lᵀ·z = y, saxpy form over the row-stored factor.
        for i in (0..self.n).rev() {
            let zi = z[i] / self.diag[i];
            z[i] = zi;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                z[self.col_idx[k]] -= self.values[k] * zi;
            }
        }
    }
}

impl Preconditioner for Ic0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_into(r, z);
    }

    fn name(&self) -> &'static str {
        "ic0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{solve_pcg, CgOptions, IdentityPreconditioner};
    use crate::sparse::CooMatrix;

    fn laplacian_2d(nx: usize, ny: usize, diag_boost: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        for iy in 0..ny {
            for ix in 0..nx {
                let i = iy * nx + ix;
                let mut d = diag_boost;
                let mut link = |j: usize, d: &mut f64| {
                    coo.push(i, j, -1.0);
                    *d += 1.0;
                };
                if ix + 1 < nx {
                    link(i + 1, &mut d);
                }
                if ix > 0 {
                    link(i - 1, &mut d);
                }
                if iy + 1 < ny {
                    link(i + nx, &mut d);
                }
                if iy > 0 {
                    link(i - nx, &mut d);
                }
                coo.push(i, i, d);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn dense_factor_is_exact_cholesky() {
        // On a dense SPD matrix the "incomplete" factor has no dropped
        // fill, so L·Lᵀ reconstructs A exactly.
        let mut coo = CooMatrix::new(3, 3);
        let a_dense = [[4.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]];
        for (i, row) in a_dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let ic = Ic0::new(&a).unwrap();
        // Applying M⁻¹ = (L·Lᵀ)⁻¹ to each unit vector reproduces A⁻¹.
        for rhs_col in 0..3 {
            let mut r = [0.0; 3];
            r[rhs_col] = 1.0;
            let mut z = [0.0; 3];
            ic.solve_into(&r, &mut z);
            // Check A·z == e_col.
            let az = a.mul_vec(&z).unwrap();
            for (i, &v) in az.iter().enumerate() {
                let want = if i == rhs_col { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "A·z[{i}] = {v}");
            }
        }
    }

    #[test]
    fn beats_unpreconditioned_cg_on_grid_laplacian() {
        let a = laplacian_2d(24, 24, 1e-3);
        // Not constant: every row of the operator sums to the diagonal
        // boost, so a constant vector is an eigenvector and plain CG would
        // converge in one iteration.
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let opts = CgOptions::default();
        let plain = solve_pcg(&a, &b, None, &IdentityPreconditioner, &opts).unwrap();
        let ic = solve_pcg(&a, &b, None, &Ic0::new(&a).unwrap(), &opts).unwrap();
        assert!(
            ic.iterations < plain.iterations,
            "ic0 {} vs unpreconditioned {}",
            ic.iterations,
            plain.iterations
        );
        let scale = plain.x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (x, y) in ic.x.iter().zip(&plain.x) {
            assert!((x - y).abs() < 1e-6 * scale);
        }
    }

    #[test]
    fn rejects_non_square_and_indefinite() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            Ic0::new(&coo.to_csr()),
            Err(NumError::Dimension { .. })
        ));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        assert!(matches!(
            Ic0::new(&coo.to_csr()),
            Err(NumError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn missing_diagonal_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        assert!(matches!(
            Ic0::new(&coo.to_csr()),
            Err(NumError::NotPositiveDefinite)
        ));
    }
}
