//! Compressed-sparse-row matrices for the thermal grid solver.
//!
//! The steady-state thermal model produces a 5-point-stencil conductance
//! matrix over tens of thousands of cells; CSR keeps the matrix-vector
//! product cheap for the conjugate-gradient solve.

use crate::{NumError, Result};

/// Triplet-form builder for a sparse matrix.
///
/// Duplicate entries are summed on [`CooMatrix::to_csr`], which matches the
/// natural "accumulate conductances" assembly style of grid solvers.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty triplet accumulator for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)` (summed with any existing entry there).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Compresses to CSR, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut current_row = 0;
        for &(r, c, v) in &sorted {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            if let (Some(&last_c), Some(last_v)) = (col_idx.last(), values.last_mut()) {
                if col_idx.len() > row_ptr[current_row] && last_c == c {
                    *last_v += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < self.nrows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }

        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(NumError::Dimension {
                detail: format!("vector length {} != ncols {}", x.len(), self.ncols),
            });
        }
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        Ok(y)
    }

    /// Matrix–vector product into a preallocated output (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "input length mismatch");
        assert_eq!(y.len(), self.nrows, "output length mismatch");
        for i in 0..self.nrows {
            let start = self.row_ptr[i];
            let end = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in start..end {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = acc;
        }
    }

    /// Returns the diagonal entries (zero where absent) — the damped-Jacobi
    /// smoother of the multigrid V-cycle.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows.min(self.ncols)];
        for i in 0..d.len() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    d[i] = self.values[k];
                    break;
                }
            }
        }
        d
    }

    /// The transpose `Aᵀ` (column indices within each row stay sorted).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let slot = next[c];
                col_idx[slot] = r;
                values[slot] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse matrix product `A·B` (used for Galerkin coarse-grid
    /// operators `Pᵀ·A·P` in the multigrid hierarchy).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if `self.ncols != other.nrows`.
    pub fn mul_csr(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.ncols != other.nrows {
            return Err(NumError::Dimension {
                detail: format!(
                    "CSR product needs inner dimensions to match: {}x{} times {}x{}",
                    self.nrows, self.ncols, other.nrows, other.ncols
                ),
            });
        }
        let n_out = other.ncols;
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // Dense accumulator + touched-column list per output row.
        let mut acc = vec![0.0; n_out];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.nrows {
            touched.clear();
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let a_ik = self.values[k];
                let r = self.col_idx[k];
                for kk in other.row_ptr[r]..other.row_ptr[r + 1] {
                    let c = other.col_idx[kk];
                    if acc[c] == 0.0 && !touched.contains(&c) {
                        touched.push(c);
                    }
                    acc[c] += a_ik * other.values[kk];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                values.push(acc[c]);
                acc[c] = 0.0;
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: n_out,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Returns `A + shift·I` (the transient stepper's `A + (C/Δt)·I`).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Dimension`] if the matrix is not square.
    pub fn with_shifted_diagonal(&self, shift: f64) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(NumError::Dimension {
                detail: format!(
                    "diagonal shift needs a square matrix, got {}x{}",
                    self.nrows, self.ncols
                ),
            });
        }
        let mut out = self.clone();
        let mut missing = false;
        for i in 0..out.nrows {
            let mut found = false;
            for k in out.row_ptr[i]..out.row_ptr[i + 1] {
                if out.col_idx[k] == i {
                    out.values[k] += shift;
                    found = true;
                    break;
                }
            }
            missing |= !found;
        }
        if !missing {
            return Ok(out);
        }
        // Some rows store no diagonal entry: rebuild through the triplet
        // accumulator, which inserts them.
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for i in 0..self.nrows {
            coo.push(i, i, shift);
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                coo.push(i, self.col_idx[k], self.values[k]);
            }
        }
        Ok(coo.to_csr())
    }

    /// Looks up entry `(row, col)`; zero if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.nrows || col >= self.ncols {
            return 0.0;
        }
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sum_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 1, -1.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 3.0);
        let csr = coo.to_csr();
        let y = csr.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![5.0, -2.0, 13.0]);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(3, 3, 7.0);
        let csr = coo.to_csr();
        let y = csr.mul_vec(&[1.0; 4]).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.5);
        coo.push(1, 2, 9.0);
        coo.push(2, 2, -2.0);
        let d = coo.to_csr().diagonal();
        assert_eq!(d, vec![1.5, 0.0, -2.0]);
    }

    #[test]
    fn zero_values_are_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 0.0);
        assert!(coo.entries.is_empty());
    }

    #[test]
    fn dimension_error_on_bad_vector() {
        let coo = CooMatrix::new(2, 3);
        let csr = coo.to_csr();
        assert!(csr.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!((t.nrows(), t.ncols()), (3, 2));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        let tt = t.transpose();
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(tt.get(i, j), a.get(i, j));
            }
        }
    }

    #[test]
    fn csr_product_matches_dense() {
        let mut a = CooMatrix::new(2, 3);
        a.push(0, 0, 1.0);
        a.push(0, 2, 2.0);
        a.push(1, 1, -1.0);
        let mut b = CooMatrix::new(3, 2);
        b.push(0, 0, 3.0);
        b.push(1, 1, 4.0);
        b.push(2, 0, 5.0);
        b.push(2, 1, 6.0);
        let c = a.to_csr().mul_csr(&b.to_csr()).unwrap();
        assert_eq!(c.get(0, 0), 13.0);
        assert_eq!(c.get(0, 1), 12.0);
        assert_eq!(c.get(1, 0), 0.0);
        assert_eq!(c.get(1, 1), -4.0);
        assert!(a.to_csr().mul_csr(&a.to_csr()).is_err());
    }

    #[test]
    fn diagonal_shift_with_and_without_stored_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        // Row 1 has no diagonal entry: the shift must insert one.
        coo.push(1, 0, 3.0);
        let shifted = coo.to_csr().with_shifted_diagonal(10.0).unwrap();
        assert_eq!(shifted.get(0, 0), 11.0);
        assert_eq!(shifted.get(0, 1), 2.0);
        assert_eq!(shifted.get(1, 0), 3.0);
        assert_eq!(shifted.get(1, 1), 10.0);
        assert!(CooMatrix::new(2, 3)
            .to_csr()
            .with_shifted_diagonal(1.0)
            .is_err());
    }
}
