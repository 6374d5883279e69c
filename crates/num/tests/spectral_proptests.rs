//! The eigensolver against a planted oracle: Householder+QL must recover
//! the known eigenvalues and eigenvectors of random SPD matrices with a
//! well-separated spectrum (seeded, so failures reproduce exactly).

use statobd_num::eigen::SymmetricEigen;
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

/// Cases per size: the solver is O(n³), so the large size runs once.
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
            let ql = SymmetricEigen::new(&a).expect("decomposition");
            assert_eq!(ql.eigenvalues().len(), n);
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
