//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used to (a) sample correlated Gaussian fields directly from a covariance
//! matrix (as a PCA cross-check) and (b) verify positive-definiteness of
//! assembled covariance models.

use crate::matrix::DMatrix;
use crate::{NumError, Result};

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use statobd_num::matrix::DMatrix;
/// use statobd_num::cholesky::Cholesky;
///
/// let a = DMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`NumError::Dimension`] if `a` is not square,
    /// * [`NumError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(NumError::Dimension {
                detail: format!(
                    "Cholesky requires a square matrix, got {}x{}",
                    a.nrows(),
                    a.ncols()
                ),
            });
        }
        let n = a.nrows();
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NotPositiveDefinite);
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / djj;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &DMatrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A·x = b` via forward/back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if `b.len()` does not match.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::Dimension {
                detail: format!("rhs length {} != {}", b.len(), n),
            });
        }
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward: L^T x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        Ok(x)
    }

    /// Maps an i.i.d. standard-normal vector `z` to a correlated sample
    /// `L·z` with covariance `A`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` does not match the factor dimension.
    pub fn correlate(&self, z: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(z.len(), n, "sample length must equal matrix dimension");
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[(i, k)] * z[k];
            }
            out[i] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a = DMatrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 3.0, 1.0], &[0.5, 1.0, 2.0]]);
        let c = Cholesky::new(&a).unwrap();
        let llt = c.l().mul(&c.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((llt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&a), Err(NumError::Dimension { .. })));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = DMatrix::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]);
        let x_true = [1.0, -2.0];
        let b = a.mul_vec(&x_true);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn correlate_identity_is_identity() {
        let a = DMatrix::identity(3);
        let c = Cholesky::new(&a).unwrap();
        let z = [0.3, -1.2, 2.0];
        assert_eq!(c.correlate(&z), z.to_vec());
    }
}
