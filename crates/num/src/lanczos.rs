//! Blocked Lanczos / Krylov subspace iteration for the **top of the
//! spectrum** of a symmetric matrix.
//!
//! The spatial-correlation covariances this workspace decomposes have
//! rapidly decaying spectra: a handful of Karhunen–Loève components carry
//! essentially all the variance, yet the full QL solver pays
//! `O(n³)` to resolve every one of the `n` eigenpairs before the consumer
//! throws most of them away. This module computes only the retained
//! leading eigenpairs by building a blocked Krylov basis with **full
//! reorthogonalization** and extracting Ritz pairs by explicit
//! Rayleigh–Ritz projection, stopping as soon as the converged leading
//! eigenvalues capture a target fraction of `trace(A)` (model truncation).
//!
//! Design notes:
//!
//! * **Blocked** (block size ≥ 2) rather than scalar Lanczos, with the
//!   projected problem solved densely at geometric checkpoints: the square
//!   process grids produce *degenerate* eigenvalue pairs (x/y symmetry)
//!   that single-vector Lanczos can only find through rounding noise.
//! * The start block is **seeded random**: a deterministic direction like
//!   all-ones is exactly orthogonal to every antisymmetric eigenvector of
//!   a symmetric grid kernel and would lock the iteration out of half the
//!   spectrum.
//! * Full two-pass (CGS2) reorthogonalization keeps the basis orthonormal
//!   to machine precision, so no ghost eigenvalues appear.
//! * Once the energy target is first met it must survive one further
//!   block expansion unchanged (same count, same eigenvalues within
//!   tolerance) before the result is accepted — insurance against Ritz
//!   values that interlace below a still-hidden eigenvalue.
//! * If the basis grows past `n/2` the asymptotic advantage is gone and
//!   the iteration falls back to the dense QL solver
//!   ([`crate::tridiag::symmetric_eigen_ql`]), truncated by the same rule,
//!   so the routine always terminates with a correct answer.
//!
//! All matrix products go through the deterministic parallel kernels in
//! [`crate::matrix`], so results are bit-identical at any thread count.

use crate::matrix::{axpy, dot, norm2, DMatrix};
use crate::rng::{NormalSampler, Xoshiro256pp};
use crate::tridiag::symmetric_eigen_ql;
use crate::{NumError, Result};

/// Options for [`top_eigenpairs`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Stop once the converged leading eigenvalues sum to at least this
    /// fraction of `trace(A)`, in `[0, 1]`. The trace is used as the total
    /// energy (for a PSD matrix they agree; for a slightly indefinite one
    /// the trace is what downstream truncation normalizes by, keeping the
    /// retained component count identical to a full-spectrum solve).
    pub energy_fraction: f64,
    /// Residual tolerance relative to the spectral scale: a Ritz pair
    /// `(θ, y)` counts as converged when `‖A·y − θ·y‖ ≤ tol·max|θ|`.
    pub tol: f64,
    /// Krylov block size (clamped to `[2, n]`); ≥ 2 so degenerate
    /// eigenvalue pairs are resolved.
    pub block_size: usize,
    /// Seed for the random orthonormal start block. Fixed default makes
    /// the decomposition deterministic; vary it only to probe robustness.
    pub seed: u64,
    /// Hard cap on the number of returned eigenpairs (`None` = no cap).
    pub max_components: Option<usize>,
    /// Worker threads for the blocked mat-vecs (1 = serial). Results are
    /// bit-identical regardless.
    pub threads: usize,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            energy_fraction: 1.0,
            tol: 1e-12,
            block_size: 4,
            seed: 0x5bd1_e995_9e37_79b9,
            max_components: None,
            threads: 1,
        }
    }
}

/// Outcome of scanning the current Ritz spectrum against the energy target.
enum Scan {
    /// Leading `k` pairs satisfy the rule.
    Satisfied(usize),
    /// Need a larger basis.
    NotYet,
}

/// Computes the leading eigenpairs of the symmetric matrix `a` until they
/// capture the energy fraction in `opts`.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues descending and
/// the `n × k` eigenvector matrix holding the matching unit vectors in
/// its columns — the same layout as the full-spectrum solvers, just with
/// `k ≤ n` columns.
///
/// # Errors
///
/// * [`NumError::Dimension`] if `a` is not square,
/// * [`NumError::Domain`] if the energy fraction or tolerance is out of
///   range,
/// * [`NumError::NoConvergence`] propagated from the dense fallback
///   (does not occur for finite symmetric input in practice).
pub fn top_eigenpairs(a: &DMatrix, opts: &LanczosOptions) -> Result<(Vec<f64>, DMatrix)> {
    let n = a.nrows();
    if !a.is_square() {
        return Err(NumError::Dimension {
            detail: format!(
                "eigendecomposition requires a square matrix, got {}x{}",
                a.nrows(),
                a.ncols()
            ),
        });
    }
    validate(opts)?;
    if n == 0 {
        return Ok((Vec::new(), DMatrix::zeros(0, 0)));
    }
    let fraction = opts.energy_fraction;
    let cap = opts.max_components.unwrap_or(n).min(n);
    if cap == 0 || a.frobenius_norm() == 0.0 {
        return Ok((Vec::new(), DMatrix::zeros(n, 0)));
    }

    let block = opts.block_size.clamp(2, n);
    // Past this basis size the dense solver is at least as cheap.
    let fallback_at = (n / 2).max(4 * block).min(n);
    if n <= 4 * block {
        // Too small for a Krylov basis to pay off.
        let (vals, vecs) = symmetric_eigen_ql(a)?;
        return Ok(filter_full_spectrum(&vals, &vecs, fraction, cap));
    }

    let trace = a.trace();
    let mut rng = Xoshiro256pp::seed_from_u64(opts.seed);
    let mut normal = NormalSampler::new();
    let mut random_vec =
        move |n: usize| -> Vec<f64> { (0..n).map(|_| normal.sample(&mut rng)).collect() };

    let mut q_cols: Vec<Vec<f64>> = Vec::new(); // orthonormal basis
    let mut aq_cols: Vec<Vec<f64>> = Vec::new(); // cached A·q
    let mut h_rows: Vec<Vec<f64>> = Vec::new(); // H = QᵀAQ, grown per block
    let mut next_check = block;
    // First satisfaction of the target, awaiting confirmation:
    // (k, eigenvalues of the leading k pairs at that checkpoint).
    let mut pending: Option<(usize, Vec<f64>)> = None;
    let mut exhausted = false;

    while q_cols.len() < fallback_at && !exhausted {
        // --- expand the basis by one block ---------------------------------
        let m0 = q_cols.len();
        let candidates: Vec<Vec<f64>> = if m0 == 0 {
            (0..block).map(|_| random_vec(n)).collect()
        } else {
            aq_cols[m0 - block.min(m0)..].to_vec()
        };
        for mut v in candidates {
            let mut accepted = false;
            for attempt in 0..5 {
                orthogonalize(&mut v, &q_cols);
                let nrm = norm2(&v);
                // The candidate must retain a meaningful component outside
                // the current span; otherwise it is numerically dependent.
                if nrm > 1e-8 {
                    let inv = 1.0 / nrm;
                    for x in &mut v {
                        *x *= inv;
                    }
                    accepted = true;
                    break;
                }
                if attempt == 4 {
                    break;
                }
                v = random_vec(n);
            }
            if !accepted {
                exhausted = true; // basis spans an invariant subspace
                break;
            }
            let aq = a.mul_vec_parallel(&v, opts.threads);
            // Grow H symmetrically: new row = qᵀ_new·(A·q_old) for the old
            // columns plus the new diagonal entry.
            let mut row: Vec<f64> = aq_cols.iter().map(|old_aq| dot(&v, old_aq)).collect();
            row.push(dot(&v, &aq));
            for (old_row, &hij) in h_rows.iter_mut().zip(&row) {
                old_row.push(hij);
            }
            h_rows.push(row);
            q_cols.push(v);
            aq_cols.push(aq);
            if q_cols.len() == n {
                break;
            }
        }

        let m = q_cols.len();
        let force_check = pending.is_some() || exhausted || m == n || m >= fallback_at;
        if m < next_check && !force_check {
            continue;
        }
        next_check = (m + block).max(m + m / 3);

        // --- Rayleigh–Ritz at this checkpoint ------------------------------
        let h = DMatrix::from_fn(m, m, |i, j| 0.5 * (h_rows[i][j] + h_rows[j][i]));
        let (theta, s) = symmetric_eigen_ql(&h)?;
        let scale = theta.iter().fold(0.0f64, |acc, t| acc.max(t.abs()));
        if scale == 0.0 {
            return Ok((Vec::new(), DMatrix::zeros(n, 0)));
        }
        let res_tol = opts.tol * scale;
        let converged = |i: usize| ritz_residual(&q_cols, &aq_cols, &s, i, theta[i]) <= res_tol;

        let complete = m == n || exhausted;
        let scan = {
            let target = fraction * trace;
            let scale = theta.first().map(|t| t.abs()).unwrap_or(0.0);
            let mut energy = 0.0;
            let mut k = 0;
            let mut verdict = Scan::NotYet;
            while k < m {
                let target_met = energy >= target && target > 0.0;
                // Never cut inside a numerically degenerate cluster:
                // the retained subspace would depend on the solver
                // (see `extend_over_cluster`). Keep absorbing cluster
                // members — which must also converge — before stopping.
                let in_cluster = target_met
                    && k > 0
                    && theta[k] > 0.0
                    && (theta[k - 1] - theta[k]).abs() <= CLUSTER_REL_GAP * scale;
                if (target_met && !in_cluster) || k == cap {
                    verdict = Scan::Satisfied(k);
                    break;
                }
                if theta[k] <= 0.0 {
                    // Positive spectrum exhausted; with a complete
                    // basis this is everything there is.
                    if complete {
                        verdict = Scan::Satisfied(k);
                    }
                    break;
                }
                if !converged(k) {
                    break;
                }
                energy += theta[k];
                k += 1;
            }
            if let Scan::NotYet = verdict {
                if k == m && (energy >= target || complete) {
                    verdict = Scan::Satisfied(k);
                }
            }
            verdict
        };

        match scan {
            Scan::NotYet => pending = None,
            Scan::Satisfied(k) => {
                let confirm_tol = (10.0 * res_tol).max(1e3 * f64::EPSILON * scale);
                let confirmed = complete
                    || match &pending {
                        Some((pk, pvals)) => {
                            *pk == k
                                && pvals
                                    .iter()
                                    .zip(&theta[..k])
                                    .all(|(p, t)| (p - t).abs() <= confirm_tol)
                        }
                        None => false,
                    };
                if confirmed {
                    return Ok(assemble(&q_cols, &s, &theta, k, n));
                }
                pending = Some((k, theta[..k].to_vec()));
            }
        }
    }

    // Krylov phase did not settle within budget: dense fallback.
    let (vals, vecs) = symmetric_eigen_ql(a)?;
    Ok(filter_full_spectrum(&vals, &vecs, fraction, cap))
}

/// Truncates a fully resolved spectrum (descending eigenvalues, matching
/// eigenvector columns) at the energy fraction `energy_fraction` of its
/// sum, returning the retained leading pairs capped at `max_components`.
///
/// This is the truncation the iterative path converges to; the dense
/// solvers use it so that "solve fully, then truncate" and "solve
/// partially" select the identical component set.
pub fn filter_full_spectrum(
    values: &[f64],
    vectors: &DMatrix,
    energy_fraction: f64,
    max_components: usize,
) -> (Vec<f64>, DMatrix) {
    let n = values.len();
    let target = energy_fraction * values.iter().sum::<f64>();
    let mut energy = 0.0;
    let mut k = 0;
    while k < n && k < max_components {
        if energy >= target && target > 0.0 {
            break;
        }
        if values[k] <= 0.0 {
            break;
        }
        energy += values[k];
        k += 1;
    }
    let k = extend_over_cluster(values, k, max_components);
    let kept = DMatrix::from_fn(vectors.nrows(), k, |i, j| vectors[(i, j)]);
    (values[..k].to_vec(), kept)
}

/// Relative gap below which adjacent eigenvalues count as one degenerate
/// cluster for truncation purposes (see [`extend_over_cluster`]).
pub const CLUSTER_REL_GAP: f64 = 1e-8;

/// Extends a truncation point `k` so it never splits a numerically
/// degenerate eigenvalue cluster.
///
/// Symmetric grids produce exactly repeated eigenvalues; cutting inside
/// such a cluster would make the retained subspace depend on which
/// arbitrary basis of the eigenspace the solver happened to return. While
/// the next (positive) eigenvalue sits within [`CLUSTER_REL_GAP`]`·|λ₀|`
/// of the last retained one, it is kept too. `values` must be sorted
/// descending; the result never exceeds `cap` or `values.len()`.
pub fn extend_over_cluster(values: &[f64], mut k: usize, cap: usize) -> usize {
    if k == 0 {
        return 0;
    }
    let scale = values.first().map(|v| v.abs()).unwrap_or(0.0);
    while k < values.len()
        && k < cap
        && values[k] > 0.0
        && (values[k - 1] - values[k]).abs() <= CLUSTER_REL_GAP * scale
    {
        k += 1;
    }
    k
}

fn validate(opts: &LanczosOptions) -> Result<()> {
    if !(0.0..=1.0).contains(&opts.energy_fraction) {
        return Err(NumError::Domain {
            detail: format!(
                "Lanczos energy fraction must be in [0, 1], got {}",
                opts.energy_fraction
            ),
        });
    }
    if !(opts.tol > 0.0 && opts.tol.is_finite()) {
        return Err(NumError::Domain {
            detail: format!(
                "Lanczos tolerance must be positive and finite, got {}",
                opts.tol
            ),
        });
    }
    Ok(())
}

/// Two-pass classical Gram–Schmidt (CGS2) of `v` against the orthonormal
/// columns in `basis`. Two passes bound the loss of orthogonality at
/// `O(ε)` regardless of how parallel `v` is to the span.
fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for _ in 0..2 {
        for q in basis {
            let c = dot(v, q);
            if c != 0.0 {
                axpy(-c, q, v);
            }
        }
    }
}

/// Residual `‖A·y − θ·y‖` of the Ritz pair `i`, where `y = Q·s_i` and
/// `A·y = (A·Q)·s_i` comes from the cached products.
fn ritz_residual(
    q_cols: &[Vec<f64>],
    aq_cols: &[Vec<f64>],
    s: &DMatrix,
    i: usize,
    theta: f64,
) -> f64 {
    let n = q_cols[0].len();
    let mut y = vec![0.0; n];
    let mut ay = vec![0.0; n];
    for (j, (q, aq)) in q_cols.iter().zip(aq_cols).enumerate() {
        let sji = s[(j, i)];
        if sji != 0.0 {
            axpy(sji, q, &mut y);
            axpy(sji, aq, &mut ay);
        }
    }
    axpy(-theta, &y, &mut ay);
    norm2(&ay)
}

/// Materializes the leading `k` Ritz vectors `y_i = Q·s_i` into an
/// `n × k` eigenvector matrix.
fn assemble(
    q_cols: &[Vec<f64>],
    s: &DMatrix,
    theta: &[f64],
    k: usize,
    n: usize,
) -> (Vec<f64>, DMatrix) {
    let mut vecs = DMatrix::zeros(n, k);
    for (j, q) in q_cols.iter().enumerate() {
        for i in 0..k {
            let sji = s[(j, i)];
            if sji != 0.0 {
                for (r, &qr) in q.iter().enumerate() {
                    vecs[(r, i)] += sji * qr;
                }
            }
        }
    }
    (theta[..k].to_vec(), vecs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential-decay grid kernel: the covariance shape the pipeline
    /// actually decomposes, with degenerate pairs from grid symmetry.
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
    fn energy_rule_matches_full_solver_on_grid_kernel() {
        let a = grid_kernel(9, 2.5); // n = 81, has degenerate pairs
        let opts = LanczosOptions {
            energy_fraction: 0.99,
            ..LanczosOptions::default()
        };
        let (vals, vecs) = top_eigenpairs(&a, &opts).unwrap();
        let (full_vals, full_vecs) = symmetric_eigen_ql(&a).unwrap();
        let (want_vals, _) =
            filter_full_spectrum(&full_vals, &full_vecs, opts.energy_fraction, a.nrows());
        assert_eq!(vals.len(), want_vals.len(), "component count");
        for (got, want) in vals.iter().zip(&want_vals) {
            assert!((got - want).abs() < 1e-9 * want_vals[0], "{got} vs {want}");
        }
        // Each returned vector is a unit eigenvector: ‖A·v − λ·v‖ small.
        for (i, &l) in vals.iter().enumerate() {
            let v = vecs.column(i);
            assert!((norm2(&v) - 1.0).abs() < 1e-10);
            let mut av = a.mul_vec(&v);
            axpy(-l, &v, &mut av);
            assert!(norm2(&av) < 1e-9 * vals[0], "pair {i} residual");
        }
    }

    #[test]
    fn full_energy_on_small_matrix_recovers_everything() {
        let a = grid_kernel(3, 1.0); // n = 9 → dense path internally
        let opts = LanczosOptions::default();
        let (vals, vecs) = top_eigenpairs(&a, &opts).unwrap();
        assert_eq!(vals.len(), 9);
        let recon = vecs
            .mul(&DMatrix::from_fn(
                9,
                9,
                |i, j| {
                    if i == j {
                        vals[i]
                    } else {
                        0.0
                    }
                },
            ))
            .unwrap()
            .mul(&vecs.transpose())
            .unwrap();
        for i in 0..9 {
            for j in 0..9 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let a = grid_kernel(9, 3.0);
        let base = LanczosOptions {
            energy_fraction: 0.95,
            ..LanczosOptions::default()
        };
        let (v1, m1) = top_eigenpairs(&a, &LanczosOptions { threads: 1, ..base }).unwrap();
        let (v4, m4) = top_eigenpairs(&a, &LanczosOptions { threads: 4, ..base }).unwrap();
        assert_eq!(v1.len(), v4.len());
        for (x, y) in v1.iter().zip(&v4) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in m1.as_slice().iter().zip(m4.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn max_components_caps_the_result() {
        let a = grid_kernel(8, 2.0);
        let opts = LanczosOptions {
            max_components: Some(3),
            ..LanczosOptions::default()
        };
        let (vals, vecs) = top_eigenpairs(&a, &opts).unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(vecs.ncols(), 3);
        let (full_vals, _) = symmetric_eigen_ql(&a).unwrap();
        for (got, want) in vals.iter().zip(&full_vals) {
            assert!((got - want).abs() < 1e-9 * full_vals[0]);
        }
    }

    #[test]
    fn filter_full_spectrum_rules() {
        let vals = vec![4.0, 3.0, 2.0, 1.0, -0.5];
        let vecs = DMatrix::identity(5);
        let (kept, m) = filter_full_spectrum(&vals, &vecs, 0.7, 5);
        // trace = 9.5, target 6.65 → 4 + 3 = 7 ≥ 6.65 → 2 components.
        assert_eq!(kept, vec![4.0, 3.0]);
        assert_eq!(m.ncols(), 2);
        let (kept, _) = filter_full_spectrum(&vals, &vecs, 1.0, 3);
        assert_eq!(kept.len(), 3);
    }

    #[test]
    fn rejects_invalid_options() {
        let a = DMatrix::identity(4);
        let bad_energy = LanczosOptions {
            energy_fraction: 1.5,
            ..LanczosOptions::default()
        };
        assert!(matches!(
            top_eigenpairs(&a, &bad_energy),
            Err(NumError::Domain { .. })
        ));
        let bad_tol = LanczosOptions {
            tol: 0.0,
            ..LanczosOptions::default()
        };
        assert!(matches!(
            top_eigenpairs(&a, &bad_tol),
            Err(NumError::Domain { .. })
        ));
    }

    #[test]
    fn zero_and_empty_matrices() {
        let (vals, vecs) =
            top_eigenpairs(&DMatrix::zeros(0, 0), &LanczosOptions::default()).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.ncols(), 0);
        let (vals, vecs) =
            top_eigenpairs(&DMatrix::zeros(6, 6), &LanczosOptions::default()).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.nrows(), 6);
        assert_eq!(vecs.ncols(), 0);
    }
}
