//! Symmetric eigendecomposition, and the energy cut that keeps its
//! leading components.
//!
//! The spatial-correlation matrices used by the variation model are dense
//! and symmetric, with sizes ranging from a few dozen rows (coarse grids,
//! BLOD Gram matrices) to a few thousand (fine grids). [`SymmetricEigen`]
//! resolves the complete spectrum of each by Householder
//! tridiagonalization and implicit-shift QL ([`crate::tridiag`]). A
//! caller that keeps only the leading components cuts the spectrum with
//! [`filter_full_spectrum`], which never splits a degenerate eigenvalue
//! cluster ([`extend_over_cluster`]).

use crate::matrix::DMatrix;
use crate::tridiag::symmetric_eigen_ql;
use crate::{NumError, Result};

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
    /// Column `k` is the eigenvector for `eigenvalues[k]`.
    eigenvectors: DMatrix,
}

impl SymmetricEigen {
    /// Computes the full eigendecomposition of a symmetric matrix by
    /// tridiagonal QL.
    ///
    /// # Errors
    ///
    /// * [`NumError::Domain`] naming the first entry (in row-major order)
    ///   that is NaN or infinite,
    /// * [`NumError::NotSymmetric`] if `a` is not symmetric to `1e-8`
    ///   relative tolerance,
    /// * [`NumError::NoConvergence`] if the QL iteration fails (does not
    ///   occur for finite symmetric input in practice); the error carries
    ///   the matrix size, the iteration count and the remaining residual.
    pub fn new(a: &DMatrix) -> Result<Self> {
        // Checked first: the symmetry test's running `max` drops a NaN
        // difference and never reads the diagonal, and QL cannot
        // converge on a non-finite entry.
        if let Some(k) = a.as_slice().iter().position(|x| !x.is_finite()) {
            let (i, j) = (k / a.ncols(), k % a.ncols());
            return Err(NumError::Domain {
                detail: format!(
                    "matrix entry ({i}, {j}) is {}; an eigendecomposition needs finite entries",
                    a[(i, j)]
                ),
            });
        }
        let scale = a.frobenius_norm().max(1.0);
        if !a.is_symmetric(1e-8 * scale) {
            return Err(NumError::NotSymmetric);
        }
        let (eigenvalues, eigenvectors) = symmetric_eigen_ql(a)?;
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvector matrix (`n × n`); column `k` pairs with
    /// eigenvalue `k`.
    pub fn eigenvectors(&self) -> &DMatrix {
        &self.eigenvectors
    }

    /// Reconstructs `V · diag(λ) · Vᵀ` (used by tests and sanity checks).
    pub fn reconstruct(&self) -> DMatrix {
        let n = self.eigenvalues.len();
        DMatrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| {
                    self.eigenvalues[k] * self.eigenvectors[(i, k)] * self.eigenvectors[(j, k)]
                })
                .sum()
        })
    }
}

/// Truncates a fully resolved spectrum (descending eigenvalues, matching
/// eigenvector columns) once the retained positive eigenvalues reach
/// `energy_fraction` of its sum, returning the retained leading pairs.
///
/// The cut never stops inside a degenerate cluster
/// ([`extend_over_cluster`]) and never keeps a non-positive eigenvalue.
pub fn filter_full_spectrum(
    values: &[f64],
    vectors: &DMatrix,
    energy_fraction: f64,
) -> (Vec<f64>, DMatrix) {
    let n = values.len();
    let target = energy_fraction * values.iter().sum::<f64>();
    let mut energy = 0.0;
    let mut k = 0;
    while k < n {
        if energy >= target && target > 0.0 {
            break;
        }
        if values[k] <= 0.0 {
            break;
        }
        energy += values[k];
        k += 1;
    }
    let k = extend_over_cluster(values, k);
    let kept = DMatrix::from_fn(vectors.nrows(), k, |i, j| vectors[(i, j)]);
    (values[..k].to_vec(), kept)
}

/// Relative gap below which adjacent eigenvalues count as one degenerate
/// cluster for truncation purposes (see [`extend_over_cluster`]).
const CLUSTER_REL_GAP: f64 = 1e-8;

/// Extends a truncation point `k` so it never splits a numerically
/// degenerate eigenvalue cluster.
///
/// Symmetric grids produce exactly repeated eigenvalues; cutting inside
/// such a cluster would make the retained subspace depend on which
/// arbitrary basis of the eigenspace the solver happened to return. While
/// the next (positive) eigenvalue sits within `1e-8·|λ₀|` of the last
/// retained one, it is kept too. `values` must be sorted descending; the
/// result never exceeds `values.len()`.
pub fn extend_over_cluster(values: &[f64], mut k: usize) -> usize {
    if k == 0 {
        return 0;
    }
    let scale = values.first().map(|v| v.abs()).unwrap_or(0.0);
    while k < values.len()
        && values[k] > 0.0
        && (values[k - 1] - values[k]).abs() <= CLUSTER_REL_GAP * scale
    {
        k += 1;
    }
    k
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
    fn rejects_non_finite_entries_by_name() {
        // A NaN off the diagonal passed the symmetry check (its `max`
        // drops NaN) and ended in a NoConvergence with a NaN residual; a
        // diagonal ∞ was never read by that check at all.
        let cases = [
            ((0, 2), f64::NAN, "matrix entry (0, 2) is NaN"),
            ((1, 1), f64::INFINITY, "matrix entry (1, 1) is inf"),
            ((1, 2), f64::NEG_INFINITY, "matrix entry (1, 2) is -inf"),
        ];
        for ((i, j), bad, named) in cases {
            let mut a = DMatrix::from_fn(3, 3, |i, j| 1.0 / (1.0 + i.abs_diff(j) as f64));
            a[(i, j)] = bad;
            a[(j, i)] = bad;
            match SymmetricEigen::new(&a) {
                Err(NumError::Domain { detail }) => assert!(detail.contains(named), "{detail}"),
                other => panic!("{bad} at ({i}, {j}): {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_a_one_by_one_nan() {
        // QL has nothing to iterate on at n = 1: `[NaN]` came back as
        // its own eigenvalue.
        let a = DMatrix::from_rows(&[&[f64::NAN]]);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(NumError::Domain { detail }) if detail.contains("(0, 0) is NaN")
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
    fn truncated_decomposition_matches_leading_full_spectrum() {
        let a = grid_kernel(8, 2.0); // n = 64
        let full = SymmetricEigen::new(&a).unwrap();
        let (vals, vecs) = filter_full_spectrum(full.eigenvalues(), full.eigenvectors(), 0.9);
        let k = vals.len();
        assert!(k < 64);
        assert!(vals.iter().sum::<f64>() >= 0.9 * a.trace());
        assert_eq!(vals, full.eigenvalues()[..k]);
        assert_eq!((vecs.nrows(), vecs.ncols()), (64, k));
        for j in 0..k {
            assert_eq!(vecs.column(j), full.eigenvectors().column(j));
        }
    }

    #[test]
    fn filter_full_spectrum_rules() {
        let vals = vec![4.0, 3.0, 2.0, 1.0, -0.5];
        let vecs = DMatrix::identity(5);
        let (kept, m) = filter_full_spectrum(&vals, &vecs, 0.7);
        // trace = 9.5, target 6.65 → 4 + 3 = 7 ≥ 6.65 → 2 components.
        assert_eq!(kept, vec![4.0, 3.0]);
        assert_eq!(m.ncols(), 2);
        // The whole energy: every positive eigenvalue, never the negative.
        let (kept, _) = filter_full_spectrum(&vals, &vecs, 1.0);
        assert_eq!(kept, vec![4.0, 3.0, 2.0, 1.0]);
        // A cut never splits a cluster of equal eigenvalues.
        let (kept, _) = filter_full_spectrum(&[2.0, 2.0, 1.0], &DMatrix::identity(3), 0.3);
        assert_eq!(kept, vec![2.0, 2.0]);
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
