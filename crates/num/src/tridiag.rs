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
//!
//! Every inner loop runs along a row of the row-major matrix: the
//! reduction's `A·u` product, its rank-two update and the accumulation
//! of `Q` as well as the rotations. Each element still adds the same
//! terms in the same order as the textbook column loops (EISPACK
//! `tred2`/`tql2`), which the unit tests keep as bitwise oracles, so the
//! row access changes speed, never bits. The reduction and the QL sweep
//! each run as one kernel through the [`crate::simd`] dispatcher,
//! compiled once per ISA tier; no tier contracts a multiply and an add,
//! so the tier does not move a bit either.

use crate::matrix::DMatrix;
use crate::simd::{dispatch, Isa, Kernel};
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
/// checked symmetry and finiteness; the strictly lower triangle is the
/// one read.
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
    let mut q = symmetrized(a);
    let (mut d, mut e) = dispatch(Reduction(&mut q));
    // Row k of Qᵀ is column k of Q: each rotation then reads and writes
    // two contiguous rows instead of two strided columns. In place,
    // because a second n² buffer would raise the peak memory of every
    // model build.
    transpose_in_place(&mut q);
    dispatch(QlSweep {
        d: &mut d,
        e: &mut e,
        zt: &mut q,
    })?;
    Ok(sort_descending(d, q))
}

/// A copy of `a` symmetrized exactly, so rounding asymmetry cannot leak
/// into the reflections.
fn symmetrized(a: &DMatrix) -> DMatrix {
    let n = a.nrows();
    let mut q = a.clone();
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (q[(i, j)] + q[(j, i)]);
            q[(i, j)] = avg;
            q[(j, i)] = avg;
        }
    }
    q
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

/// [`householder_tridiagonalize`] as one dispatched call.
pub(crate) struct Reduction<'a>(pub(crate) &'a mut DMatrix);

impl Kernel for Reduction<'_> {
    type Out = (Vec<f64>, Vec<f64>);

    #[inline(always)]
    fn run(self, _: Isa) -> Self::Out {
        householder_tridiagonalize(self.0)
    }
}

/// [`ql_implicit_shift`] as one dispatched call, each rotation applied
/// to two contiguous rows of the accumulated basis `zt` (`Qᵀ` on entry).
pub(crate) struct QlSweep<'a> {
    pub(crate) d: &'a mut [f64],
    pub(crate) e: &'a mut [f64],
    pub(crate) zt: &'a mut DMatrix,
}

impl Kernel for QlSweep<'_> {
    type Out = Result<()>;

    #[inline(always)]
    fn run(self, _: Isa) -> Result<()> {
        let QlSweep { d, e, zt } = self;
        let n = zt.ncols();
        let z = zt.as_mut_slice();
        ql_implicit_shift(d, e, |i, s, c| {
            let (upper, lower) = z.split_at_mut((i + 1) * n);
            let (row, next) = (&mut upper[i * n..], &mut lower[..n]);
            for (zi, zn) in row.iter_mut().zip(next) {
                let f = *zn;
                *zn = s * *zi + c * f;
                *zi = c * *zi - s * f;
            }
        })
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
/// pass. `tred2` walks columns in half of its `A·u` product and in all
/// of its accumulation; here every inner loop walks a row, and each
/// element still adds the same terms in the same order:
///
/// * `A·u` ([`lower_symv`]) reads the lower triangle by rows;
/// * the rank-two update first forms every `qⱼ = pⱼ − hh·uⱼ` (each reads
///   only `pⱼ` and `uⱼ`), then updates each row of the lower triangle;
/// * the accumulation forms `g = uᵀ·Q` of the leading block as row
///   axpys in ascending row order, then subtracts `g·(uₖ/h)` from each
///   row `k`. In `tred2` no column's `g` reads a column that an earlier
///   column's update wrote, so forming every `g` first changes nothing.
#[inline(always)]
fn householder_tridiagonalize(a: &mut DMatrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.nrows();
    let m = a.as_mut_slice();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        // Rows 0..i (the block still to reduce, with column i holding
        // u/h above the diagonal) and row i, whose first i entries become
        // the reflection vector u.
        let (lead, rest) = m.split_at_mut(i * n);
        let u = &mut rest[..i];
        let mut h = 0.0;
        if l > 0 {
            // Scale the row for overflow-safe norms.
            let scale: f64 = u.iter().map(|x| x.abs()).sum();
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for x in u.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                let u = &*u;
                for (j, &uj) in u.iter().enumerate() {
                    lead[j * n + i] = uj / h;
                }
                // p = A·u / h, in e[0..=l]; f = uᵀp.
                let p = &mut e[..i];
                lower_symv(lead, n, u, p);
                let mut f_acc = 0.0;
                for (pj, &uj) in p.iter_mut().zip(u) {
                    *pj /= h;
                    f_acc += *pj * uj;
                }
                // Rank-two update A ← A − u·qᵀ − q·uᵀ with
                // q = p − (uᵀp / 2h)·u.
                let hh = f_acc / (h + h);
                for (qj, &uj) in p.iter_mut().zip(u) {
                    *qj -= hh * uj;
                }
                let q = &*p;
                for (j, row) in lead.chunks_exact_mut(n).enumerate() {
                    let (f, g) = (u[j], q[j]);
                    for ((x, &qk), &uk) in row[..=j].iter_mut().zip(q).zip(u) {
                        *x -= f * qk + g * uk;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }

    // Accumulate the reflections into Q (identity for the trivial ones).
    // Before step i the leading i × i block holds Q of the reflections
    // below row i.
    d[0] = 0.0;
    e[0] = 0.0;
    let mut g = vec![0.0; n];
    for i in 0..n {
        let (lead, rest) = m.split_at_mut(i * n);
        let row_i = &mut rest[..n];
        if d[i] != 0.0 {
            let g = &mut g[..i];
            g.fill(0.0);
            for (&uk, q_row) in row_i[..i].iter().zip(lead.chunks_exact(n)) {
                for (gj, &qkj) in g.iter_mut().zip(&q_row[..i]) {
                    *gj += uk * qkj;
                }
            }
            for q_row in lead.chunks_exact_mut(n) {
                // Column i holds u/h above the diagonal.
                let w = q_row[i];
                for (qkj, &gj) in q_row[..i].iter_mut().zip(&*g) {
                    *qkj -= gj * w;
                }
            }
        }
        d[i] = row_i[i];
        row_i[i] = 1.0;
        row_i[..i].fill(0.0);
        for q_row in lead.chunks_exact_mut(n) {
            q_row[i] = 0.0;
        }
    }
    (d, e)
}

/// `p = A·u` for the symmetric leading `u.len()`-square block of the
/// row-major `a` (row stride `n`), reading only its lower triangle, by
/// rows: row `r` sets `p[r]` to its own dot `Σ_{k≤r} a[r][k]·u[k]`
/// (summed from 0 in ascending `k`), then adds `a[r][j]·u[r]` to every
/// `p[j]`, `j < r`. So each `p[j]` sums its row's terms, then those of
/// rows `j + 1, …` in ascending order — the order `tred2` sums them in,
/// reading the rest of row `j` from column `j`. Four rows run per pass,
/// their dots interleaved so four add chains are in flight; the
/// interleaving changes no sum's order.
#[inline(always)]
fn lower_symv(a: &[f64], n: usize, u: &[f64], p: &mut [f64]) {
    const R: usize = 4;
    let m = u.len();
    let mut r = 0;
    while r + R <= m {
        let rows: [&[f64]; R] = std::array::from_fn(|t| &a[(r + t) * n..][..=r + t]);
        let mut dots = [0.0; R];
        for (k, &uk) in u[..r].iter().enumerate() {
            for t in 0..R {
                dots[t] += rows[t][k] * uk;
            }
        }
        for t in 0..R {
            for k in r..=r + t {
                dots[t] += rows[t][k] * u[k];
            }
        }
        let ur: [f64; R] = std::array::from_fn(|t| u[r + t]);
        for (j, pj) in p[..r].iter_mut().enumerate() {
            for t in 0..R {
                *pj += rows[t][j] * ur[t];
            }
        }
        for t in 0..R {
            let mut x = dots[t];
            for s in (t + 1)..R {
                x += rows[s][r + t] * ur[s];
            }
            p[r + t] = x;
        }
        r += R;
    }
    for r in r..m {
        let row = &a[r * n..][..=r];
        let mut dot = 0.0;
        for (&ark, &uk) in row.iter().zip(u) {
            dot += ark * uk;
        }
        let ur = u[r];
        for (pj, &arj) in p[..r].iter_mut().zip(row) {
            *pj += arj * ur;
        }
        p[r] = dot;
    }
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (with `e[i]` coupling
/// rows `i − 1` and `i`). Each plane rotation of eigenvectors `i` and
/// `i + 1` by sine `s` and cosine `c` is handed to `rotate(i, s, c)`,
/// which applies `(zᵢ, zᵢ₊₁) ← (c·zᵢ − s·zᵢ₊₁, s·zᵢ + c·zᵢ₊₁)` to each
/// element of the accumulated basis. On success `d` holds the (unsorted)
/// eigenvalues, and eigenvector `k` of the basis belongs to `d[k]`.
/// Always inlined, so `rotate` compiles inside [`QlSweep`]'s trampoline.
#[inline(always)]
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

    /// `tred2`'s reduction as EISPACK writes it, with the column-strided
    /// half of `A·u` and the column-strided accumulation: the bitwise
    /// oracle of [`householder_tridiagonalize`].
    fn column_oracle_tridiagonalize(a: &mut DMatrix) -> (Vec<f64>, Vec<f64>) {
        let n = a.nrows();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        for i in (1..n).rev() {
            let l = i - 1;
            let mut h = 0.0;
            if l > 0 {
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

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every test matrix of the two oracle tests: the grid kernels, the
    /// chain and the small fixed ones, plus matrices that reach every
    /// branch of the reduction — sizes 1–3, dense sizes 5–9 (every
    /// remainder of [`lower_symv`]'s four-row passes), a block-diagonal
    /// matrix whose fourth row has a zero `scale` partway through and
    /// the `h = 0` rows the accumulation skips, and a diagonal one made
    /// only of such rows.
    fn oracle_matrices() -> Vec<DMatrix> {
        let mut matrices = grid_kernel_matrices();
        matrices.push(free_particle_chain(12));
        matrices.push(DMatrix::from_rows(&[&[4.0]]));
        matrices.push(DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]));
        matrices.push(DMatrix::from_rows(&[
            &[3.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 2.0],
        ]));
        matrices.push(DMatrix::from_rows(&[
            &[1.0, -0.5, 0.25],
            &[-0.5, 2.0, 0.75],
            &[0.25, 0.75, -3.0],
        ]));
        for n in 5..=9 {
            matrices.push(DMatrix::from_fn(n, n, |i, j| {
                let (i, j) = (i.min(j) as f64, i.max(j) as f64);
                (0.7 * i + 1.3 * j + 0.1 * i * j).sin() + if i == j { 2.0 } else { 0.0 }
            }));
        }
        matrices.push(DMatrix::from_fn(9, 9, |i, j| match (i < 3, j < 3) {
            (true, true) => 1.0 / (1.0 + i.abs_diff(j) as f64),
            (false, false) => (-(i.abs_diff(j) as f64) / 2.0).exp() - 0.1 * (i + j) as f64,
            _ => 0.0,
        }));
        matrices
    }

    #[test]
    fn row_reduction_matches_the_column_oracle_bitwise() {
        // The reduction reads and writes rows only; tred2 walks columns in
        // half of its A·u product and all of its accumulation. Both must
        // give the same d, e and Q bit for bit on every test matrix.
        for a in &oracle_matrices() {
            let n = a.nrows();
            let mut q = symmetrized(a);
            let (d, e) = dispatch(Reduction(&mut q));
            let mut oracle_q = symmetrized(a);
            let (oracle_d, oracle_e) = column_oracle_tridiagonalize(&mut oracle_q);
            assert_eq!(bits(&d), bits(&oracle_d), "d, n = {n}");
            assert_eq!(bits(&e), bits(&oracle_e), "e, n = {n}");
            assert_eq!(bits(q.as_slice()), bits(oracle_q.as_slice()), "Q, n = {n}");
        }
    }

    #[test]
    fn row_rotations_match_the_column_oracle_bitwise() {
        // The solver accumulates its rotations into the rows of Qᵀ; the
        // textbook loop rotates two strided columns of Q with the same
        // arithmetic per element. Both must give the same eigenpairs bit
        // for bit on every test matrix.
        fn by_columns(a: &DMatrix) -> (Vec<f64>, DMatrix) {
            let mut z = symmetrized(a);
            let (mut d, mut e) = column_oracle_tridiagonalize(&mut z);
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
        for a in &oracle_matrices() {
            let (vals, vecs) = symmetric_eigen_ql(a).unwrap();
            let (oracle_vals, oracle_vecs) = by_columns(a);
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
