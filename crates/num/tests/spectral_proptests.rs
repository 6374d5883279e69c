//! Spectral backends against a planted oracle: the Householder+QL and
//! Lanczos solvers must recover the known eigenvalues and eigenvectors of
//! random SPD matrices with a well-separated spectrum (seeded, so failures
//! reproduce exactly).

use statobd_num::eigen::{SpectralOptions, SpectralSolver, SymmetricEigen};
use statobd_num::matrix::DMatrix;
use statobd_num::rng::{Rng, Xoshiro256pp};

/// The planted eigenvalue `k` of [`random_spd`]: `((n−k)/n)²`, descending.
fn planted(n: usize, k: usize) -> f64 {
    ((n - k) as f64 / n as f64).powi(2)
}

/// Random SPD matrix `A = Q·diag(λ)·Qᵀ` with the well-separated spectrum
/// [`planted`], returned with its eigenbasis `Q` (column `k` pairs with
/// `λ_k`): a diagonal conjugated by random Givens rotations, which preserve
/// the spectrum exactly, with the same rotations applied to an identity.
fn random_spd<R: Rng + ?Sized>(rng: &mut R, n: usize) -> (DMatrix, DMatrix) {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = planted(n, i);
    }
    let mut q = DMatrix::identity(n);
    for _ in 0..4 * n {
        let i = rng.gen_index(n);
        let mut j = rng.gen_index(n);
        if i == j {
            j = (j + 1) % n;
        }
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let (s, c) = theta.sin_cos();
        for m in [&mut a, &mut q] {
            for k in 0..n {
                let (mi, mj) = (m[(i, k)], m[(j, k)]);
                m[(i, k)] = c * mi - s * mj;
                m[(j, k)] = s * mi + c * mj;
            }
        }
        for k in 0..n {
            let (ai, aj) = (a[(k, i)], a[(k, j)]);
            a[(k, i)] = c * ai - s * aj;
            a[(k, j)] = s * ai + c * aj;
        }
    }
    // Rotation arithmetic drifts at ~ε; restore exact symmetry.
    for i in 0..n {
        for j in 0..i {
            let m = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = m;
            a[(j, i)] = m;
        }
    }
    (a, q)
}

fn solve(a: &DMatrix, opts: &SpectralOptions) -> SymmetricEigen {
    SymmetricEigen::with_options(a, opts).expect("decomposition")
}

/// Asserts column `k` of `v` matches column `k` of `reference` entrywise
/// after sign alignment (eigenvectors are unique only up to sign).
fn assert_column_matches(v: &DMatrix, reference: &DMatrix, k: usize, tol: f64) {
    let n = reference.nrows();
    // Align signs on the reference column's largest-magnitude entry.
    let pivot = (0..n)
        .max_by(|&a, &b| {
            reference[(a, k)]
                .abs()
                .partial_cmp(&reference[(b, k)].abs())
                .unwrap()
        })
        .unwrap();
    let sign = if v[(pivot, k)] * reference[(pivot, k)] < 0.0 {
        -1.0
    } else {
        1.0
    };
    for i in 0..n {
        let d = (sign * v[(i, k)] - reference[(i, k)]).abs();
        assert!(
            d < tol,
            "eigenvector {k} entry {i}: {} vs {} (|Δ| = {d:.3e})",
            v[(i, k)],
            reference[(i, k)]
        );
    }
}

/// Cases per size: the solvers are O(n³), so the large size runs once.
fn cases_for(n: usize) -> usize {
    match n {
        8 => 4,
        64 => 2,
        _ => 1,
    }
}

#[test]
fn ql_recovers_the_planted_eigenpairs() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x51EC);
    for &n in &[8usize, 64, 256] {
        for _ in 0..cases_for(n) {
            let (a, basis) = random_spd(&mut rng, n);
            let ql = solve(
                &a,
                &SpectralOptions::full().with_solver(SpectralSolver::TridiagonalQl),
            );
            assert_eq!(ql.n_components(), n);
            for (k, l_ql) in ql.eigenvalues().iter().enumerate() {
                let want = planted(n, k);
                assert!(
                    (l_ql - want).abs() < 1e-10,
                    "λ[{k}] n={n}: QL {l_ql} vs planted {want}"
                );
            }
            for k in 0..n {
                assert_column_matches(ql.eigenvectors(), &basis, k, 1e-8);
            }
            // Full-spectrum round trip.
            let recon = ql.reconstruct();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (recon[(i, j)] - a[(i, j)]).abs() < 1e-9,
                        "reconstruct n={n} at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn lanczos_recovers_the_planted_top_components() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x1A2C);
    let energy = 0.9;
    for &n in &[8usize, 64, 256] {
        for _ in 0..cases_for(n) {
            let (a, basis) = random_spd(&mut rng, n);
            let lan = solve(
                &a,
                &SpectralOptions::energy(energy)
                    .with_solver(SpectralSolver::Lanczos)
                    .with_tol(1e-13),
            );
            let k = lan.n_components();
            assert!(
                k > 0 && k < n,
                "partial solve must truncate (k = {k}, n = {n})"
            );
            // The retained energy must meet the target.
            let trace: f64 = (0..n).map(|i| planted(n, i)).sum();
            let kept: f64 = lan.eigenvalues().iter().sum();
            assert!(kept >= energy * trace * (1.0 - 1e-12));
            for (i, l_lan) in lan.eigenvalues().iter().enumerate() {
                let want = planted(n, i);
                assert!(
                    (l_lan - want).abs() < 1e-10,
                    "λ[{i}] n={n}: Lanczos {l_lan} vs planted {want}"
                );
            }
            for i in 0..k {
                assert_column_matches(lan.eigenvectors(), &basis, i, 1e-8);
            }
            // Rank-k round trip: the reconstruction error is exactly the
            // dropped spectral mass, ‖A − VΛVᵀ‖_F² = Σ_{i≥k} λᵢ².
            let recon = lan.reconstruct();
            let mut err2 = 0.0;
            for i in 0..n {
                for j in 0..n {
                    let d = recon[(i, j)] - a[(i, j)];
                    err2 += d * d;
                }
            }
            let dropped2: f64 = (k..n).map(|i| planted(n, i).powi(2)).sum();
            assert!(
                (err2 - dropped2).abs() < 1e-9 * (1.0 + dropped2),
                "rank-{k} round trip n={n}: ‖Δ‖² {err2:.6e} vs dropped {dropped2:.6e}"
            );
        }
    }
}
