//! Dense row-major matrices and the small set of operations the reliability
//! analysis needs: products, transposes, symmetry checks and norms.

use crate::{NumError, Result};

/// A dense, row-major `f64` matrix.
///
/// `DMatrix` deliberately exposes a small, explicit API rather than operator
/// overloading for every combination — the call sites in the analysis code
/// stay readable and allocation points stay visible.
///
/// # Example
///
/// ```
/// use statobd_num::matrix::DMatrix;
///
/// let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = vec![1.0, 1.0];
/// assert_eq!(a.mul_vec(&x), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates an `nrows × ncols` matrix filled with zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        DMatrix { nrows, ncols, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(NumError::Dimension {
                detail: format!(
                    "expected {} elements for a {}x{} matrix, got {}",
                    nrows * ncols,
                    nrows,
                    ncols,
                    data.len()
                ),
            });
        }
        Ok(DMatrix { nrows, ncols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMatrix::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.nrows, "row index {i} out of bounds");
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.nrows, "row index {i} out of bounds");
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.ncols, "column index {j} out of bounds");
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix–vector product `A·x` written into a caller-provided buffer
    /// (no allocation — the hot path of the iterative eigensolvers).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        assert_eq!(y.len(), self.nrows, "output length must equal nrows");
        for (out, row) in y.iter_mut().zip(self.data.chunks_exact(self.ncols)) {
            *out = dot(row, x);
        }
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if `self.ncols() != other.nrows()`.
    pub fn mul(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.ncols != other.nrows {
            return Err(NumError::Dimension {
                detail: format!(
                    "cannot multiply {}x{} by {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        let mut out = DMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Elementwise maximum absolute asymmetry `max |A_ij − A_ji|`.
    ///
    /// Returns 0 for non-square matrices' overlapping part only when square;
    /// callers should check [`DMatrix::is_square`] first.
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols.min(self.nrows) {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Returns `true` if the matrix is square and symmetric to tolerance
    /// `tol` (absolute, elementwise).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.asymmetry() <= tol
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Quadratic form `xᵀ·A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x.len() != n`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert!(self.is_square(), "quadratic form requires a square matrix");
        assert_eq!(x.len(), self.nrows, "vector length must equal n");
        let mut acc = 0.0;
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut dot = 0.0;
            for (a, b) in row.iter().zip(x) {
                dot += a * b;
            }
            acc += x[i] * dot;
        }
        acc
    }
}

impl crate::json::ToJson for DMatrix {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Object(vec![
            ("nrows".to_string(), self.nrows.to_json()),
            ("ncols".to_string(), self.ncols.to_json()),
            ("data".to_string(), crate::json::pack_f64s(&self.data)),
        ])
    }
}

impl crate::json::FromJson for DMatrix {
    fn from_json(v: &crate::json::Json) -> crate::json::Result<Self> {
        use crate::json::JsonError;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| JsonError::new(format!("missing field '{k}' in DMatrix")))
        };
        let nrows = usize::from_json(field("nrows")?)?;
        let ncols = usize::from_json(field("ncols")?)?;
        let data = crate::json::unpack_f64s(field("data")?)?;
        DMatrix::from_vec(nrows, ncols, data).map_err(|e| JsonError::new(e.to_string()))
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl std::fmt::Display for DMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha * x` (BLAS axpy).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMatrix::zeros(2, 3);
        assert_eq!(z.nrows(), 2);
        assert_eq!(z.ncols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = DMatrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_vec_checks_dims() {
        assert!(DMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = a.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn mul_matches_identity() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMatrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        assert_eq!(i.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_dimension_error() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(NumError::Dimension { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn symmetry_detection() {
        let s = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = DMatrix::from_rows(&[&[2.0, 1.0], &[1.5, 2.0]]);
        assert!(!ns.is_symmetric(1e-9));
        assert!((ns.asymmetry() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn quadratic_form_matches_manual() {
        let q = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        // [1,2] Q [1,2]^T = 2 + 2 + 2 + 12 = 18
        assert!((q.quadratic_form(&[1.0, 2.0]) - 18.0).abs() < 1e-14);
    }

    #[test]
    fn frobenius_and_trace() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.trace(), 3.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let a = DMatrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 * 0.37 - 2.0);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 1.5).collect();
        let mut y = vec![0.0; 7];
        a.mul_vec_into(&x, &mut y);
        assert_eq!(y, a.mul_vec(&x));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        use crate::json::{from_str, to_string};
        let a = DMatrix::from_fn(3, 4, |i, j| ((i * 4 + j) as f64).exp() / 3.0 - 1.7);
        let back: DMatrix = from_str(&to_string(&a)).unwrap();
        assert_eq!(back.nrows(), 3);
        assert_eq!(back.ncols(), 4);
        for (x, y) in a.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Inconsistent dimensions are rejected, not trusted.
        assert!(from_str::<DMatrix>(r#"{"nrows":2,"ncols":2,"data":[1,2,3]}"#).is_err());
    }

    #[test]
    fn row_and_column_access() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.column(0), vec![1.0, 3.0]);
    }
}
