//! Property-based tests of the numerical foundations: algebraic
//! identities and distribution laws checked over many deterministic
//! pseudo-random cases (seeded, so failures reproduce exactly).

use statobd_num::cholesky::Cholesky;
use statobd_num::dist::{ContinuousDistribution, Gamma, Normal};
use statobd_num::eigen::SymmetricEigen;
use statobd_num::hist::Histogram1d;
use statobd_num::matrix::DMatrix;
use statobd_num::quad::{integrate_1d, QuadRule};
use statobd_num::rng::{Rng, Xoshiro256pp};
use statobd_num::sparse::CooMatrix;
use statobd_num::special::{gamma_p, gamma_q, norm_cdf, norm_inv_cdf};

const CASES: usize = 64;

fn small_matrix<R: Rng + ?Sized>(rng: &mut R, n: usize) -> DMatrix {
    DMatrix::from_fn(n, n, |_, _| rng.gen_range(-10.0..10.0))
}

fn vector<R: Rng + ?Sized>(rng: &mut R, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn matrix_product_is_associative_on_vectors() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA11);
    for _ in 0..CASES {
        let a = small_matrix(&mut rng, 4);
        let b = small_matrix(&mut rng, 4);
        let x = vector(&mut rng, 4, -5.0, 5.0);
        let ab = a.mul(&b).unwrap();
        let lhs = ab.mul_vec(&x);
        let rhs = a.mul_vec(&b.mul_vec(&x));
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-9 * (1.0 + r.abs()));
        }
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA12);
    for _ in 0..CASES {
        let a = small_matrix(&mut rng, 5);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn quadratic_form_matches_mul_vec() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA13);
    for _ in 0..CASES {
        let a = small_matrix(&mut rng, 4);
        let x = vector(&mut rng, 4, -3.0, 3.0);
        let direct = a.quadratic_form(&x);
        let via_mul: f64 = a.mul_vec(&x).iter().zip(&x).map(|(ax, xi)| ax * xi).sum();
        assert!((direct - via_mul).abs() < 1e-9 * (1.0 + via_mul.abs()));
    }
}

#[test]
fn cholesky_reconstructs_spd() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA14);
    for _ in 0..CASES {
        let raw = small_matrix(&mut rng, 4);
        let ridge = rng.gen_range(0.5..5.0);
        // AᵀA + ridge·I is SPD.
        let ata = raw.transpose().mul(&raw).unwrap();
        let spd = DMatrix::from_fn(4, 4, |i, j| ata[(i, j)] + if i == j { ridge } else { 0.0 });
        let chol = Cholesky::new(&spd).unwrap();
        let llt = chol.l().mul(&chol.l().transpose()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((llt[(i, j)] - spd[(i, j)]).abs() < 1e-8);
            }
        }
        // Solve residual.
        let b = vec![1.0, -2.0, 0.5, 3.0];
        let x = chol.solve(&b).unwrap();
        let back = spd.mul_vec(&x);
        for (bi, bb) in b.iter().zip(&back) {
            assert!((bi - bb).abs() < 1e-7);
        }
    }
}

#[test]
fn eigen_reconstruction_and_orthonormality() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA16);
    for _ in 0..CASES {
        let raw = small_matrix(&mut rng, 5);
        let sym = DMatrix::from_fn(5, 5, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));
        let eig = SymmetricEigen::new(&sym).unwrap();
        let recon = eig.reconstruct();
        for i in 0..5 {
            for j in 0..5 {
                assert!((recon[(i, j)] - sym[(i, j)]).abs() < 1e-7);
            }
        }
        let v = eig.eigenvectors();
        let vtv = v.transpose().mul(v).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-8);
            }
        }
        // Eigenvalues sorted descending.
        for w in eig.eigenvalues().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}

#[test]
fn gauss_legendre_is_exact_for_polynomials() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA17);
    for _ in 0..CASES {
        let coeffs = vector(&mut rng, 6, -3.0, 3.0);
        let a = rng.gen_range(-2.0..0.0);
        let b = a + rng.gen_range(0.5..3.0);
        // Degree-5 polynomial, 3-point GL rule (exact to degree 5).
        let poly = |x: f64| {
            coeffs
                .iter()
                .enumerate()
                .map(|(k, c)| c * x.powi(k as i32))
                .sum::<f64>()
        };
        let exact: f64 = coeffs
            .iter()
            .enumerate()
            .map(|(k, c)| c * (b.powi(k as i32 + 1) - a.powi(k as i32 + 1)) / (k as f64 + 1.0))
            .sum();
        let quad = integrate_1d(QuadRule::GaussLegendre, 3, a, b, poly).unwrap();
        assert!((quad - exact).abs() < 1e-9 * (1.0 + exact.abs()));
    }
}

#[test]
fn gamma_p_q_complementary() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA18);
    for _ in 0..CASES {
        let a = rng.gen_range(0.1..50.0);
        let x = rng.gen_range(0.0..100.0);
        let p = gamma_p(a, x).unwrap();
        let q = gamma_q(a, x).unwrap();
        assert!((p + q - 1.0).abs() < 1e-10);
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn norm_cdf_inverse_round_trip() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA19);
    for _ in 0..CASES {
        // Log-uniform over (1e-8, ~1): exercises both tails.
        let p = 10f64.powf(rng.gen_range(-8.0..-1e-9));
        let x = norm_inv_cdf(p).unwrap();
        assert!((norm_cdf(x) - p).abs() < 1e-10);
        let x = norm_inv_cdf(1.0 - p).unwrap();
        assert!((norm_cdf(x) - (1.0 - p)).abs() < 1e-10);
    }
}

#[test]
fn normal_quantile_round_trip() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1A);
    for _ in 0..CASES {
        let mean = rng.gen_range(-10.0..10.0);
        let sd = rng.gen_range(0.01..10.0);
        let p = rng.gen_range(0.001..0.999);
        let n = Normal::new(mean, sd).unwrap();
        let q = n.quantile(p).unwrap();
        assert!((n.cdf(q) - p).abs() < 1e-9);
    }
}

#[test]
fn gamma_cdf_is_monotone() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1B);
    for _ in 0..CASES {
        let shape = rng.gen_range(0.2..20.0);
        let scale = rng.gen_range(0.1..10.0);
        let g = Gamma::new(shape, scale).unwrap();
        let mut prev = 0.0;
        for i in 1..20 {
            let x = i as f64 * scale;
            let c = g.cdf(x);
            assert!(c >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }
}

#[test]
fn histogram_conserves_counts() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1D);
    for _ in 0..CASES {
        let len = 10 + rng.gen_index(190);
        let data = vector(&mut rng, len, -100.0, 100.0);
        let bins = 1 + rng.gen_index(39);
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Uniform draws over a wide range cannot be degenerate (constant).
        assert!(hi > lo);
        let h = Histogram1d::from_data(&data, bins).unwrap();
        let total: u64 = h.counts().iter().sum();
        assert_eq!(total, data.len() as u64);
        assert_eq!(h.outliers(), (0, 0));
    }
}

#[test]
fn sparse_matvec_matches_dense() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1E);
    for _ in 0..CASES {
        let n_entries = rng.gen_index(30);
        let mut coo = CooMatrix::new(6, 6);
        let mut dense = DMatrix::zeros(6, 6);
        for _ in 0..n_entries {
            let r = rng.gen_index(6);
            let c = rng.gen_index(6);
            let v = rng.gen_range(-5.0..5.0);
            coo.push(r, c, v);
            dense[(r, c)] += v;
        }
        let x = vector(&mut rng, 6, -2.0, 2.0);
        let sparse_y = coo.to_csr().mul_vec(&x).unwrap();
        let dense_y = dense.mul_vec(&x);
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            assert!((s - d).abs() < 1e-10);
        }
    }
}
