//! Robust extraction of the spatial-correlation model from wafer
//! measurement data (the Xiong–Zolotov–He step the paper's Sec. II points
//! to: "the covariance matrix could be determined from measurement data
//! extracted from manufactured wafers").
//!
//! Given per-die thickness measurements at the grid locations, the raw
//! sample covariance is (a) noisy and (b) not guaranteed positive
//! semidefinite once measurement noise and missing data enter. The robust
//! extraction here:
//!
//! 1. computes the sample covariance across dies,
//! 2. optionally subtracts a known measurement-noise variance from the
//!    diagonal,
//! 3. projects to the nearest PSD matrix in Frobenius norm (eigenvalue
//!    clipping),
//!
//! producing a covariance directly usable by
//! [`crate::ThicknessModel::from_covariance`].
//!
//! The projection itself is tiered like the rest of the spectral pipeline:
//! small matrices clip the full spectrum, large ones extract only the
//! negative eigenpairs (Lanczos on `−A`) and add the rank-`m` repair
//! `A + Σ (−λᵢ)·vᵢvᵢᵀ` — the identical Frobenius-nearest projection
//! without ever resolving the (large, already valid) positive spectrum.

use crate::{Result, VariationError};
use statobd_num::eigen::{SpectralOptions, SpectralSolver, SymmetricEigen};
use statobd_num::lanczos::negative_eigenpairs;
use statobd_num::matrix::DMatrix;
use statobd_num::parallel::resolve_threads;

/// Relative floor for the partial repair: negative eigenvalues with
/// magnitude below `REPAIR_FLOOR · ‖A‖_F` are round-off, not structure,
/// and are left in place (the model builder tolerates them, as does the
/// full clipping path's `-1e-8` covariance check).
const REPAIR_FLOOR: f64 = 1e-12;

/// Result of a covariance extraction.
#[derive(Debug, Clone)]
pub struct ExtractedModel {
    /// Mean thickness per grid (the extracted nominal).
    pub mean: Vec<f64>,
    /// PSD-projected covariance of the correlated (grid-level) variation.
    pub covariance: DMatrix,
    /// Most negative raw eigenvalue before projection (a data-quality
    /// indicator: large magnitudes mean heavy noise or too few dies).
    pub min_raw_eigenvalue: f64,
}

/// Extracts the grid-level thickness covariance from per-die measurement
/// vectors (`samples[d][g]` = thickness of die `d` at grid `g`).
///
/// `noise_variance` is subtracted from the diagonal (set 0 for noiseless
/// data); after subtraction the matrix is projected to the nearest PSD
/// matrix by clipping negative eigenvalues to zero.
///
/// # Errors
///
/// Returns [`VariationError::InvalidParameter`] if fewer than 2 dies are
/// given, the dies have inconsistent lengths, or data is non-finite;
/// propagates eigendecomposition failures.
///
/// # Example
///
/// ```
/// use statobd_variation::extract_covariance;
///
/// // Three dies, two grids, perfectly correlated grids.
/// let samples = vec![
///     vec![2.18, 2.18],
///     vec![2.20, 2.20],
///     vec![2.22, 2.22],
/// ];
/// let ex = extract_covariance(&samples, 0.0)?;
/// assert!((ex.mean[0] - 2.20).abs() < 1e-12);
/// assert!((ex.covariance[(0, 1)] - ex.covariance[(0, 0)]).abs() < 1e-12);
/// # Ok::<(), statobd_variation::VariationError>(())
/// ```
pub fn extract_covariance(samples: &[Vec<f64>], noise_variance: f64) -> Result<ExtractedModel> {
    let n_dies = samples.len();
    if n_dies < 2 {
        return Err(VariationError::InvalidParameter {
            detail: format!("need at least 2 dies, got {n_dies}"),
        });
    }
    let n_grids = samples[0].len();
    if n_grids == 0 {
        return Err(VariationError::InvalidParameter {
            detail: "dies have no grid measurements".to_string(),
        });
    }
    for (d, die) in samples.iter().enumerate() {
        if die.len() != n_grids {
            return Err(VariationError::InvalidParameter {
                detail: format!("die {d} has {} measurements, expected {n_grids}", die.len()),
            });
        }
        if die.iter().any(|v| !v.is_finite()) {
            return Err(VariationError::InvalidParameter {
                detail: format!("die {d} contains non-finite measurements"),
            });
        }
    }
    if noise_variance < 0.0 || !noise_variance.is_finite() {
        return Err(VariationError::InvalidParameter {
            detail: format!("noise variance must be non-negative, got {noise_variance}"),
        });
    }

    // Per-grid means.
    let mut mean = vec![0.0; n_grids];
    for die in samples {
        for (m, &x) in mean.iter_mut().zip(die) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n_dies as f64;
    }

    // Sample covariance (unbiased), noise-corrected diagonal.
    let mut cov = DMatrix::zeros(n_grids, n_grids);
    for die in samples {
        for i in 0..n_grids {
            let di = die[i] - mean[i];
            for j in i..n_grids {
                let dj = die[j] - mean[j];
                cov[(i, j)] += di * dj;
            }
        }
    }
    let norm = 1.0 / (n_dies as f64 - 1.0);
    for i in 0..n_grids {
        for j in i..n_grids {
            let v = cov[(i, j)] * norm;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
        cov[(i, i)] -= noise_variance;
    }

    let (projected, min_raw) = nearest_psd(&cov)?;
    Ok(ExtractedModel {
        mean,
        covariance: projected,
        min_raw_eigenvalue: min_raw,
    })
}

/// Projects a symmetric matrix to the nearest (Frobenius) positive
/// semidefinite matrix by clipping negative eigenvalues, returning the
/// projection and the most negative raw eigenvalue.
///
/// The solver is chosen by size: large matrices take the partial
/// negative-spectrum repair (see [`nearest_psd_with`]), small ones clip
/// the full spectrum.
///
/// # Errors
///
/// Propagates eigendecomposition failures for non-symmetric input.
pub fn nearest_psd(m: &DMatrix) -> Result<(DMatrix, f64)> {
    nearest_psd_with(m, &SpectralOptions::full())
}

/// As [`nearest_psd`], with explicit control over the spectral stage.
///
/// With the Lanczos backend (forced, or chosen by the auto dispatch for
/// `n ≥` [`SymmetricEigen::LANCZOS_MIN_DIM`]) only the eigenpairs with
/// `λ < −1e-12·‖A‖_F` (the repair floor) are extracted and repaired in
/// place:
/// `A ← A + Σ (−λᵢ)·vᵢvᵢᵀ`. For a near-PSD measured covariance that is a
/// handful of pairs instead of a full `O(n³)` decomposition. On the
/// partial path the reported "most negative eigenvalue" is `0.0` when no
/// eigenvalue lies below the floor.
///
/// # Errors
///
/// Propagates eigendecomposition failures for non-symmetric input.
pub fn nearest_psd_with(m: &DMatrix, spectral: &SpectralOptions) -> Result<(DMatrix, f64)> {
    let n = m.nrows();
    let solver = match spectral.solver {
        // Negative-spectrum extraction is a top-k problem on −A, so size
        // alone decides — no energy fraction involved.
        SpectralSolver::Auto if n >= SymmetricEigen::LANCZOS_MIN_DIM => SpectralSolver::Lanczos,
        SpectralSolver::Auto => SpectralSolver::TridiagonalQl,
        s => s,
    };

    if solver == SpectralSolver::Lanczos {
        let threads = resolve_threads(spectral.threads);
        let threshold = REPAIR_FLOOR * m.frobenius_norm();
        let (neg_vals, neg_vecs) = negative_eigenpairs(m, threshold, threads)?;
        let min_raw = neg_vals.first().copied().unwrap_or(0.0);
        if neg_vals.is_empty() {
            return Ok((m.clone(), min_raw));
        }
        let mut out = m.clone();
        for (k, &l) in neg_vals.iter().enumerate() {
            let v = neg_vecs.column(k);
            let c = -l; // positive: lift the negative direction to zero
            for (i, &vi) in v.iter().enumerate() {
                let row = out.row_mut(i);
                for (entry, &vj) in row.iter_mut().zip(&v) {
                    *entry += c * vi * vj;
                }
            }
        }
        return Ok((out, min_raw));
    }

    // Full-spectrum clip; the projection needs every eigenpair, so any
    // truncation in `spectral` is overridden here.
    let full = SpectralOptions {
        energy_fraction: 1.0,
        max_components: None,
        solver,
        ..*spectral
    };
    let eig = SymmetricEigen::with_options(m, &full)?;
    let min_raw = eig
        .eigenvalues()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    if min_raw >= 0.0 {
        return Ok((m.clone(), min_raw));
    }
    let v = eig.eigenvectors();
    let clipped = DMatrix::from_fn(n, n, |i, j| {
        (0..n)
            .map(|k| eig.eigenvalues()[k].max(0.0) * v[(i, k)] * v[(j, k)])
            .sum()
    });
    Ok((clipped, min_raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CorrelationKernel, FieldSampler, GridSpec, ThicknessModel, ThicknessModelBuilder,
        VarianceBudget,
    };
    use statobd_num::rng::Xoshiro256pp;

    fn reference_model() -> ThicknessModel {
        ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(4).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap()
    }

    #[test]
    fn round_trips_a_known_model() {
        // Sample dies from a known model, extract, and compare the
        // covariance entries — the full extraction loop.
        let model = reference_model();
        let mut sampler = FieldSampler::new(&model);
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let samples: Vec<Vec<f64>> = (0..20_000)
            .map(|_| sampler.sample_die(&mut rng).base)
            .collect();
        let extracted = extract_covariance(&samples, 0.0).unwrap();
        for g in 0..model.n_grids() {
            assert!((extracted.mean[g] - model.nominal()[g]).abs() < 1e-3);
        }
        for i in 0..model.n_grids() {
            for j in 0..model.n_grids() {
                let truth = model.covariance(i, j);
                let got = extracted.covariance[(i, j)];
                assert!(
                    (got - truth).abs() < 0.05 * truth.abs().max(1e-5),
                    "cov({i},{j}): {got:.3e} vs {truth:.3e}"
                );
            }
        }
    }

    #[test]
    fn extracted_covariance_feeds_the_model_builder() {
        let model = reference_model();
        let mut sampler = FieldSampler::new(&model);
        let mut rng = Xoshiro256pp::seed_from_u64(78);
        let samples: Vec<Vec<f64>> = (0..10_000)
            .map(|_| sampler.sample_die(&mut rng).base)
            .collect();
        let extracted = extract_covariance(&samples, 0.0).unwrap();
        let rebuilt = ThicknessModel::from_covariance(
            *model.grid(),
            extracted.mean,
            &extracted.covariance,
            model.sigma_ind(),
            *model.budget(),
            *model.kernel(),
            1.0,
        )
        .unwrap();
        // Grid sigma of the rebuilt model matches the source within
        // sampling error.
        for g in 0..model.n_grids() {
            let rel = (rebuilt.grid_sigma(g) - model.grid_sigma(g)).abs() / model.grid_sigma(g);
            assert!(rel < 0.05, "grid {g}: rel {rel}");
        }
    }

    #[test]
    fn noise_subtraction_corrects_the_diagonal() {
        let model = reference_model();
        let mut sampler = FieldSampler::new(&model);
        let mut rng = Xoshiro256pp::seed_from_u64(79);
        let noise_sd = 0.01;
        let mut normal = statobd_num::rng::NormalSampler::new();
        let samples: Vec<Vec<f64>> = (0..20_000)
            .map(|_| {
                let mut base = sampler.sample_die(&mut rng).base;
                for b in &mut base {
                    *b += noise_sd * normal.sample(&mut rng);
                }
                base
            })
            .collect();
        let corrected = extract_covariance(&samples, noise_sd * noise_sd).unwrap();
        let truth = model.covariance(0, 0);
        assert!(
            (corrected.covariance[(0, 0)] - truth).abs() < 0.08 * truth,
            "{} vs {truth}",
            corrected.covariance[(0, 0)]
        );
    }

    #[test]
    fn psd_projection_clips_negative_eigenvalues() {
        let indefinite = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let (psd, min_raw) = nearest_psd(&indefinite).unwrap();
        assert!(min_raw < 0.0);
        let eig = SymmetricEigen::new(&psd).unwrap();
        for &l in eig.eigenvalues() {
            assert!(l >= -1e-12);
        }
        // Already-PSD input is untouched.
        let ok = DMatrix::from_rows(&[&[2.0, 0.5], &[0.5, 2.0]]);
        let (same, min2) = nearest_psd(&ok).unwrap();
        assert!(min2 > 0.0);
        assert_eq!(same, ok);
    }

    #[test]
    fn psd_repair_paths_agree_on_near_psd_measured_covariance() {
        // The measured-covariance failure mode: a valid model covariance
        // whose noise floor was over-subtracted, pushing the smallest few
        // eigenvalues slightly negative. Both projection paths — full
        // clip (QL) and partial negative-spectrum repair (Lanczos) — must
        // return the same Frobenius-nearest PSD matrix.
        let model = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(12).unwrap()) // n = 144 ≥ Lanczos floor
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        let n = model.n_grids();
        let cov = DMatrix::from_fn(n, n, |i, j| model.covariance(i, j));
        let spectrum = SymmetricEigen::new(&cov).unwrap();
        // Subtract the third-smallest eigenvalue from the diagonal: the
        // two smallest go slightly negative, everything else stays PSD.
        let over_subtraction = spectrum.eigenvalues()[n - 3] * (1.0 + 1e-9);
        let near_psd = DMatrix::from_fn(n, n, |i, j| {
            cov[(i, j)] - if i == j { over_subtraction } else { 0.0 }
        });
        let expected_min = spectrum.eigenvalues()[n - 1] - over_subtraction;

        let (full_clip, full_min) = nearest_psd_with(
            &near_psd,
            &SpectralOptions::full().with_solver(SpectralSolver::TridiagonalQl),
        )
        .unwrap();
        let (partial, partial_min) = nearest_psd_with(
            &near_psd,
            &SpectralOptions::full().with_solver(SpectralSolver::Lanczos),
        )
        .unwrap();
        // `nearest_psd` auto-dispatch takes the partial path at this size.
        let (auto, _) = nearest_psd(&near_psd).unwrap();

        let lambda_max = spectrum.eigenvalues()[0];
        assert!((full_min - expected_min).abs() < 1e-10 * lambda_max);
        assert!((partial_min - expected_min).abs() < 1e-8 * lambda_max);
        assert!(full_min < 0.0 && partial_min < 0.0);

        // Both projections are PSD.
        for m in [&full_clip, &partial] {
            let eig = SymmetricEigen::new(m).unwrap();
            assert!(*eig.eigenvalues().last().unwrap() > -1e-10 * lambda_max);
        }
        // Frobenius-closest: the projection distance equals the clipped
        // negative mass, √(Σ λ_neg²).
        let clipped_mass: f64 = spectrum
            .eigenvalues()
            .iter()
            .map(|&l| l - over_subtraction)
            .filter(|&l| l < 0.0)
            .map(|l| l * l)
            .sum::<f64>()
            .sqrt();
        for m in [&full_clip, &partial] {
            let mut diff = 0.0;
            for (x, y) in m.as_slice().iter().zip(near_psd.as_slice()) {
                diff += (x - y) * (x - y);
            }
            assert!((diff.sqrt() - clipped_mass).abs() < 1e-8 * lambda_max);
        }
        // The two paths (and the auto dispatch) agree entrywise.
        for (x, y) in full_clip.as_slice().iter().zip(partial.as_slice()) {
            assert!((x - y).abs() < 1e-8 * lambda_max, "{x} vs {y}");
        }
        for (x, y) in auto.as_slice().iter().zip(partial.as_slice()) {
            assert!((x - y).abs() < 1e-12 * lambda_max);
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(extract_covariance(&[vec![1.0]], 0.0).is_err());
        assert!(extract_covariance(&[vec![1.0], vec![1.0, 2.0]], 0.0).is_err());
        assert!(extract_covariance(&[vec![], vec![]], 0.0).is_err());
        assert!(extract_covariance(&[vec![1.0], vec![f64::NAN]], 0.0).is_err());
        assert!(extract_covariance(&[vec![1.0], vec![2.0]], -1.0).is_err());
    }
}
