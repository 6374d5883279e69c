//! Householder tridiagonalization and the implicit-shift QL
//! eigensolver for symmetric matrices.
//!
//! This is the one eigensolver of the workspace, behind
//! [`crate::eigen::SymmetricEigen`]: a symmetric matrix is first reduced
//! to tridiagonal form `A = Q·T·Qᵀ` by `n − 2` Householder reflections
//! (`~4n³/3` flops), then the tridiagonal eigenproblem is solved by QL
//! iterations with implicit Wilkinson shifts, accumulating the rotations
//! into `Qᵀ` (transposed in place, so each rotation updates two
//! contiguous rows). The total cost is `O(n³)` with a small constant and
//! no sweep-count growth on large matrices.

use crate::matrix::DMatrix;
use crate::{NumError, Result};

/// Maximum implicit-shift QL iterations per eigenvalue. Convergence is
/// cubic once the shift locks on; well-posed inputs use 2–3. An
/// eigenvalue that uses them all up is deflated if its coupling is at the
/// rounding level of the whole matrix (see [`symmetric_eigen_ql`]).
pub const MAX_QL_ITERS: usize = 50;

/// Full eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix
/// via Householder tridiagonalization + implicit-shift QL.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted in
/// **descending** order and column `k` of the eigenvector matrix paired
/// with eigenvalue `k` (the same convention as
/// [`crate::eigen::SymmetricEigen`]). The caller is expected to have
/// checked symmetry; the strictly lower triangle is the one read.
///
/// # Errors
///
/// [`NumError::NoConvergence`] if any eigenvalue needs more than
/// [`MAX_QL_ITERS`] QL iterations and its coupling is still above
/// `ε·maxᵢ(|dᵢ| + |eᵢ|)`, the rounding level of the tridiagonal matrix
/// (does not occur for finite symmetric input in practice).
pub fn symmetric_eigen_ql(a: &DMatrix) -> Result<(Vec<f64>, DMatrix)> {
    if a.nrows() == 0 {
        return Ok((Vec::new(), DMatrix::zeros(0, 0)));
    }
    let (mut d, mut e, mut q) = tridiagonal_form(a);
    // Row k of Qᵀ is column k of Q: each rotation below then reads and
    // writes two contiguous rows instead of two strided columns. In
    // place, because a second n² buffer would raise the peak memory of
    // every model build.
    transpose_in_place(&mut q);
    ql_implicit_shift(&mut d, &mut e, |i, s, c| {
        let n = q.ncols();
        let (upper, lower) = q.as_mut_slice().split_at_mut((i + 1) * n);
        let (row, next) = (&mut upper[i * n..], &mut lower[..n]);
        for (zi, zn) in row.iter_mut().zip(next) {
            let f = *zn;
            *zn = s * *zi + c * f;
            *zi = c * *zi - s * f;
        }
    })?;
    Ok(sort_descending(d, q))
}

/// `A = Q·T·Qᵀ` of the exactly symmetrized `a`: the diagonal and
/// coupling of `T` (as [`householder_tridiagonalize`] returns them) and
/// `Q`.
fn tridiagonal_form(a: &DMatrix) -> (Vec<f64>, Vec<f64>, DMatrix) {
    let n = a.nrows();
    let mut q = a.clone();
    // Symmetrize exactly so rounding asymmetry cannot leak into the
    // reflections.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (q[(i, j)] + q[(j, i)]);
            q[(i, j)] = avg;
            q[(j, i)] = avg;
        }
    }
    let (d, e) = householder_tridiagonalize(&mut q);
    (d, e, q)
}

/// Transposes the square matrix `m` in place.
fn transpose_in_place(m: &mut DMatrix) {
    let n = m.nrows();
    let data = m.as_mut_slice();
    for i in 0..n {
        for j in (i + 1)..n {
            data.swap(i * n + j, j * n + i);
        }
    }
}

/// Reduces the symmetric matrix stored in `a` to tridiagonal form,
/// overwriting `a` with the accumulated orthogonal matrix `Q` such that
/// `A = Q·T·Qᵀ`. Returns `(d, e)` where `d` is the diagonal of `T` and
/// `e[i]` (for `i ≥ 1`) couples rows `i − 1` and `i` (`e[0] = 0`).
///
/// Classic symmetric Householder reduction (EISPACK `tred2` lineage):
/// reflections are built from the bottom row up, applied as rank-two
/// updates to the remaining leading block, and accumulated in a second
/// pass.
fn householder_tridiagonalize(a: &mut DMatrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            // Scale the row for overflow-safe norms.
            let scale: f64 = (0..=l).map(|k| a[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = a[(i, l)];
            } else {
                for k in 0..=l {
                    a[(i, k)] /= scale;
                    h += a[(i, k)] * a[(i, k)];
                }
                let f = a[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[(i, l)] = f - g;
                // p = A·u / h, accumulated in e[0..=l]; f = uᵀp.
                let mut f_acc = 0.0;
                for j in 0..=l {
                    a[(j, i)] = a[(i, j)] / h;
                    let mut g_acc = 0.0;
                    for k in 0..=j {
                        g_acc += a[(j, k)] * a[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g_acc += a[(k, j)] * a[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * a[(i, j)];
                }
                // Rank-two update A ← A − u·qᵀ − q·uᵀ with
                // q = p − (uᵀp / 2h)·u.
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = a[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        a[(j, k)] -= f * e[k] + g * a[(i, k)];
                    }
                }
            }
        } else {
            e[i] = a[(i, l)];
        }
        d[i] = h;
    }

    // Accumulate the reflections into Q (identity for the trivial ones).
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += a[(i, k)] * a[(k, j)];
                }
                for k in 0..i {
                    a[(k, j)] -= g * a[(k, i)];
                }
            }
        }
        d[i] = a[(i, i)];
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
    (d, e)
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (with `e[i]` coupling
/// rows `i − 1` and `i`). Each plane rotation of eigenvectors `i` and
/// `i + 1` by sine `s` and cosine `c` is handed to `rotate(i, s, c)`,
/// which applies `(zᵢ, zᵢ₊₁) ← (c·zᵢ − s·zᵢ₊₁, s·zᵢ + c·zᵢ₊₁)` to each
/// element of the accumulated basis. On success `d` holds the (unsorted)
/// eigenvalues, and eigenvector `k` of the basis belongs to `d[k]`.
fn ql_implicit_shift(
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<()> {
    let n = d.len();
    if n <= 1 {
        return Ok(());
    }
    // Shift the coupling convention down: e[i] now couples rows i, i+1.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    // Rounding level of the whole matrix. The split test below compares
    // a coupling with its two diagonal neighbours only, which never
    // passes when those are themselves at rounding level (the tail of a
    // smooth kernel's spectrum); such a stalled coupling is deflated
    // against this floor instead.
    let floor = f64::EPSILON
        * d.iter()
            .zip(e.iter())
            .map(|(d, e)| d.abs() + e.abs())
            .fold(0.0, f64::max);

    for l in 0..n {
        let mut iters = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] converged.
            }
            if iters >= MAX_QL_ITERS {
                if e[l].abs() <= floor {
                    e[l] = 0.0;
                    break; // d[l] converged to rounding level.
                }
                return Err(NumError::NoConvergence {
                    iterations: iters,
                    residual: e[l].abs(),
                    dimension: n,
                });
            }
            iters += 1;

            // Wilkinson shift from the leading 2×2 of the active block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflate by recovering from the underflow.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenpairs into descending-eigenvalue order (the
/// principal-component convention used across the workspace), with the
/// eigenvectors read from the rows of `zt` and returned as columns.
fn sort_descending(d: Vec<f64>, zt: DMatrix) -> (Vec<f64>, DMatrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("eigenvalues are finite"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let eigenvectors = DMatrix::from_fn(zt.ncols(), n, |i, k| zt[(order[k], i)]);
    (eigenvalues, eigenvectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    fn check_decomposition(a: &DMatrix, vals: &[f64], vecs: &DMatrix, tol: f64) {
        let n = a.nrows();
        assert_eq!(vals.len(), n);
        // Descending order.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // A·v = λ·v per pair.
        for k in 0..n {
            let v = vecs.column(k);
            let av = a.mul_vec(&v);
            for i in 0..n {
                assert_close(av[i], vals[k] * v[i], tol);
            }
        }
        // Orthonormality.
        let vtv = vecs.transpose().mul(vecs).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(vtv[(i, j)], expect, 1e-10);
            }
        }
    }

    #[test]
    fn two_by_two_known_values() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = symmetric_eigen_ql(&a).unwrap();
        assert_close(vals[0], 3.0, 1e-12);
        assert_close(vals[1], 1.0, 1e-12);
        check_decomposition(&a, &vals, &vecs, 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let (vals, _) = symmetric_eigen_ql(&a).unwrap();
        assert_eq!(vals, vec![3.0, 2.0, 1.0]);
    }

    /// The 2-D grid kernels the variation model assembles: the
    /// exponential one at 7×7 and the smooth Gaussian one (ρ = 0.25) at
    /// 18×18.
    fn grid_kernel_matrices() -> Vec<DMatrix> {
        let exponential = |d2: f64| (-d2.sqrt() / 3.0).exp();
        let gaussian = |d2: f64| (-d2 / 4.5f64.powi(2)).exp();
        let kernels: [(usize, &dyn Fn(f64) -> f64); 2] = [(7, &exponential), (18, &gaussian)];
        kernels
            .into_iter()
            .map(|(side, kernel)| {
                let n = side * side;
                let coord = |k: usize| ((k % side) as f64, (k / side) as f64);
                DMatrix::from_fn(n, n, |i, j| {
                    let (xi, yi) = coord(i);
                    let (xj, yj) = coord(j);
                    kernel((xi - xj).powi(2) + (yi - yj).powi(2))
                })
            })
            .collect()
    }

    /// Free-particle chain: known spectrum 2 − 2·cos(kπ/(n+1)).
    fn free_particle_chain(n: usize) -> DMatrix {
        DMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn grid_correlation_matrix_decomposes() {
        // The grid kernels' symmetry produces degenerate eigenvalue pairs,
        // which the QL deflation must handle, and the Gaussian one puts
        // most of its spectrum at rounding level, where the
        // neighbour-relative split test alone never deflates.
        for a in grid_kernel_matrices() {
            let (vals, vecs) = symmetric_eigen_ql(&a).unwrap();
            check_decomposition(&a, &vals, &vecs, 1e-9);
            let sum: f64 = vals.iter().sum();
            assert_close(sum, a.trace(), 1e-9);
            for &l in &vals {
                assert!(l > -1e-9, "correlation eigenvalue {l} should be >= 0");
            }
        }
    }

    #[test]
    fn free_particle_chain_matches_closed_form_spectrum() {
        let n = 12;
        let dense = free_particle_chain(n);
        let (vals, vecs) = symmetric_eigen_ql(&dense).unwrap();
        check_decomposition(&dense, &vals, &vecs, 1e-10);
        for (k, &v) in vals.iter().enumerate() {
            let expect =
                2.0 - 2.0 * ((n - k) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert_close(v, expect, 1e-10);
        }
    }

    #[test]
    fn row_rotations_match_the_column_oracle_bitwise() {
        // The solver accumulates its rotations into the rows of Qᵀ; the
        // textbook loop rotates two strided columns of Q with the same
        // arithmetic per element. Both must give the same eigenpairs bit
        // for bit on every test matrix.
        fn by_columns(a: &DMatrix) -> (Vec<f64>, DMatrix) {
            let (mut d, mut e, mut z) = tridiagonal_form(a);
            ql_implicit_shift(&mut d, &mut e, |i, s, c| {
                for k in 0..z.nrows() {
                    let f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            })
            .unwrap();
            sort_descending(d, z.transpose())
        }
        let mut matrices = grid_kernel_matrices();
        matrices.push(free_particle_chain(12));
        matrices.push(DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]));
        matrices.push(DMatrix::from_rows(&[
            &[3.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 2.0],
        ]));
        for a in &matrices {
            let (vals, vecs) = symmetric_eigen_ql(a).unwrap();
            let (oracle_vals, oracle_vecs) = by_columns(a);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&vals), bits(&oracle_vals), "n = {}", a.nrows());
            assert_eq!(
                bits(vecs.as_slice()),
                bits(oracle_vecs.as_slice()),
                "n = {}",
                a.nrows()
            );
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let (vals, vecs) = symmetric_eigen_ql(&DMatrix::zeros(0, 0)).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.nrows(), 0);
        let (vals, vecs) = symmetric_eigen_ql(&DMatrix::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(vals, vec![4.0]);
        assert_eq!(vecs[(0, 0)], 1.0);
    }
}
