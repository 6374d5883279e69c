//! Special functions: error function, log-gamma, regularized incomplete
//! gamma, and the inverse standard-normal CDF.
//!
//! These are the primitives behind the normal, χ²/gamma and Weibull
//! distributions used throughout the reliability analysis.

use crate::{NumError, Result};

/// The error function `erf(x)`.
///
/// Implemented via [`erfc`] for large `|x|` and a Maclaurin series for small
/// `|x|`; absolute error below `1e-14` over the real line.
///
/// # Example
///
/// ```
/// use statobd_num::special::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < 3.0 {
        // Maclaurin series: erf(x) = 2/√π Σ (−1)ⁿ x^(2n+1) / (n!(2n+1)).
        // Alternating-series cancellation costs at most ~3 digits at x = 3,
        // comfortably inside the 1e-13 budget.
        let two_over_sqrt_pi = std::f64::consts::FRAC_2_SQRT_PI;
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        for n in 1..200u32 {
            term *= -x2 / n as f64;
            let contrib = term / (2 * n + 1) as f64;
            sum += contrib;
            if contrib.abs() <= 1e-17 * sum.abs() {
                break;
            }
        }
        two_over_sqrt_pi * sum
    } else {
        1.0 - erfc(x)
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Uses a continued-fraction expansion for `x ≥ 0.5` which stays accurate
/// deep into the tail (needed for failure probabilities at the 10⁻⁶ level
/// and beyond).
pub fn erfc(x: f64) -> f64 {
    if x < 3.0 {
        return if x < -6.0 { 2.0 } else { 1.0 - erf(x) };
    }
    // erfc(x) = exp(−x²)/√π · 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...))))
    // Evaluate the continued fraction bottom-up with a fixed depth chosen
    // for f64 accuracy at x ≥ 3.
    let depth = 60;
    let mut f = 0.0;
    for k in (1..=depth).rev() {
        f = 0.5 * k as f64 / (x + f);
    }
    let sqrt_pi = 1.772_453_850_905_516_f64;
    (-x * x).exp() / (sqrt_pi * (x + f))
}

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients); relative error below
/// `1e-13` for the shapes the χ² approximation produces.
///
/// # Panics
///
/// Panics if `x ≤ 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let xm1 = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (xm1 + i as f64);
    }
    let t = xm1 + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (xm1 + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a,x)/Γ(a)`.
///
/// `P(k/2, x/2)` is the CDF of a χ² distribution with `k` degrees of
/// freedom — exactly what the Yuan–Bentler approximation of the BLOD sample
/// variance needs.
///
/// # Errors
///
/// Returns [`NumError::Domain`] if `a ≤ 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumError::Domain {
            detail: format!("gamma_p requires a > 0 and x >= 0, got a={a}, x={x}"),
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        Ok(gamma_p_series(a, x))
    } else {
        Ok(1.0 - gamma_q_cf(a, x))
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`,
/// computed directly for tail accuracy.
///
/// # Errors
///
/// Returns [`NumError::Domain`] if `a ≤ 0` or `x < 0`.
pub fn gamma_q(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(NumError::Domain {
            detail: format!("gamma_q requires a > 0 and x >= 0, got a={a}, x={x}"),
        });
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_p_series(a, x))
    } else {
        Ok(gamma_q_cf(a, x))
    }
}

/// Series expansion of P(a,x), converges fast for x < a+1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_prefix = a * x.ln() - x - ln_gamma(a);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (ln_prefix.exp() * sum).clamp(0.0, 1.0)
}

/// Lentz continued fraction for Q(a,x), converges fast for x ≥ a+1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let ln_prefix = a * x.ln() - x - ln_gamma(a);
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (ln_prefix.exp() * h).clamp(0.0, 1.0)
}

/// Inverse of the regularized lower incomplete gamma: solves `P(a, x) = p`.
///
/// Wilson–Hilferty starting guess refined by Newton iterations on `P`.
///
/// # Errors
///
/// Returns [`NumError::Domain`] if `a ≤ 0` or `p ∉ [0, 1)`.
pub fn gamma_p_inv(a: f64, p: f64) -> Result<f64> {
    if a <= 0.0 || !(0.0..1.0).contains(&p) {
        return Err(NumError::Domain {
            detail: format!("gamma_p_inv requires a > 0 and 0 <= p < 1, got a={a}, p={p}"),
        });
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    // Wilson–Hilferty starting guess: x ≈ a (1 − 1/(9a) + z √(1/(9a)))³.
    let z = norm_inv_cdf(p)?;
    let t = 1.0 - 1.0 / (9.0 * a) + z * (1.0 / (9.0 * a)).sqrt();
    let guess = (a * t * t * t).max(1e-280);

    // Bracket the root: P(a, ·) is strictly increasing on (0, ∞).
    let mut lo = guess;
    let mut hi = guess;
    while gamma_p(a, lo)? > p && lo > 1e-290 {
        lo *= 0.0625;
    }
    while gamma_p(a, hi)? < p && hi < 1e12 {
        hi *= 4.0;
    }

    // Bisection in log-space (robust across the huge dynamic range that a
    // small shape produces), then Newton polish for the last digits.
    let mut ln_lo = lo.ln();
    let mut ln_hi = hi.ln();
    for _ in 0..200 {
        let ln_mid = 0.5 * (ln_lo + ln_hi);
        if gamma_p(a, ln_mid.exp())? < p {
            ln_lo = ln_mid;
        } else {
            ln_hi = ln_mid;
        }
        if ln_hi - ln_lo < 1e-13 {
            break;
        }
    }
    let mut x = (0.5 * (ln_lo + ln_hi)).exp();
    for _ in 0..4 {
        let f = gamma_p(a, x)? - p;
        let ln_pdf = (a - 1.0) * x.ln() - x - ln_gamma(a);
        let pdf = ln_pdf.exp();
        if !(pdf > 0.0) {
            break;
        }
        let x_new = x - f / pdf;
        if x_new > 0.0 && x_new.is_finite() {
            x = x_new;
        } else {
            break;
        }
    }
    Ok(x)
}

/// How often [`scaled_exp_grid`] re-anchors the geometric recurrence with
/// an exact `exp` evaluation.
const EXP_GRID_RESYNC: usize = 32;

/// Fills `out[k·stride]` for `k in 0..n` with
/// `scale · exp(rate · (x0 + k·step))` using the geometric recurrence
/// `w[k+1] = w[k] · exp(rate·step)` — one `exp` per `EXP_GRID_RESYNC`
/// (32) grid points instead of one per point.
///
/// The recurrence is re-anchored against multiplicative drift every
/// 32 points, bounding the relative error at
/// `≈ EXP_GRID_RESYNC · ε ≈ 7e-15` — far below the discretization error
/// of any histogram the grid weights.
///
/// The `stride` parameter lets callers fill interleaved layouts (e.g.
/// `[bin][time]` weight tables) without a transpose; the same
/// `(scale, rate, x0, step)` always yields bit-identical values at every
/// `k` regardless of `stride`.
///
/// At lane widths > 1 (see [`crate::simd`]) the resync anchors are
/// batched through one vectorized [`crate::simd::exp_slice`] call per
/// fill instead of one scalar `exp` per resync block; at width 1 the
/// historical scalar recurrence runs verbatim (bit-identical to previous
/// releases). Both paths keep the stride-independence guarantee.
///
/// # Panics
///
/// Panics if `stride == 0` or `out` is too short for `n` strided writes.
///
/// # Example
///
/// ```
/// use statobd_num::special::scaled_exp_grid;
/// let mut w = vec![0.0; 4];
/// scaled_exp_grid(2.0, 0.5, 1.0, 0.25, 4, &mut w, 1);
/// assert!((w[0] - 2.0 * (0.5f64).exp()).abs() < 1e-14);
/// assert!((w[3] - 2.0 * (0.5f64 * 1.75).exp()).abs() < 1e-14);
/// ```
pub fn scaled_exp_grid(
    scale: f64,
    rate: f64,
    x0: f64,
    step: f64,
    n: usize,
    out: &mut [f64],
    stride: usize,
) {
    assert!(stride > 0, "stride must be positive");
    if n == 0 {
        return;
    }
    assert!(
        out.len() > (n - 1) * stride,
        "output too short: {} slots for {n} strided writes",
        out.len()
    );
    if crate::simd::active_width() == crate::simd::LaneWidth::W1 {
        let ratio = (rate * step).exp();
        let mut w = 0.0;
        for k in 0..n {
            if k % EXP_GRID_RESYNC == 0 {
                w = scale * (rate * (x0 + k as f64 * step)).exp();
            } else {
                w *= ratio;
            }
            out[k * stride] = w;
        }
        return;
    }

    // Lane path: evaluate every resync anchor with one vectorized exp
    // call, then run the geometric recurrence within each block. Values
    // are computed before the strided writes, preserving stride
    // independence.
    let ratio = (rate * step).exp();
    let n_anchor = n.div_ceil(EXP_GRID_RESYNC);
    let args: Vec<f64> = (0..n_anchor)
        .map(|m| rate * (x0 + (m * EXP_GRID_RESYNC) as f64 * step))
        .collect();
    let mut anchors = vec![0.0; n_anchor];
    crate::simd::exp_slice(&args, &mut anchors);
    for (m, &anchor) in anchors.iter().enumerate() {
        let k0 = m * EXP_GRID_RESYNC;
        let k_end = n.min(k0 + EXP_GRID_RESYNC);
        let mut w = scale * anchor;
        out[k0 * stride] = w;
        for k in k0 + 1..k_end {
            w *= ratio;
            out[k * stride] = w;
        }
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function `φ(x)`.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse standard normal CDF `Φ⁻¹(p)` (the probit function).
///
/// Acklam's rational approximation refined by one Halley step; absolute
/// error below `1e-13` across `(0, 1)`.
///
/// # Errors
///
/// Returns [`NumError::Domain`] unless `0 < p < 1`.
pub fn norm_inv_cdf(p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
        return Err(NumError::Domain {
            detail: format!("norm_inv_cdf requires 0 < p < 1, got {p}"),
        });
    }
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    Ok(x - u / (1.0 + x * u / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn scaled_exp_grid_matches_direct_exp() {
        // 400 points spanning many decades of weight: the recurrence must
        // stay within ~resync·ε of the direct evaluation everywhere.
        let (scale, rate, x0, step, n) = (3.7e-4, -5.1, 2.05, 7.3e-4, 400);
        let mut w = vec![0.0; n];
        scaled_exp_grid(scale, rate, x0, step, n, &mut w, 1);
        for (k, &got) in w.iter().enumerate() {
            let exact = scale * (rate * (x0 + k as f64 * step)).exp();
            assert!(
                ((got - exact) / exact).abs() < 1e-13,
                "k={k}: {got:e} vs {exact:e}"
            );
        }
    }

    #[test]
    fn scaled_exp_grid_stride_is_bit_identical_to_dense() {
        let (scale, rate, x0, step, n) = (1.25, 0.83, -1.0, 0.01, 100);
        let mut dense = vec![0.0; n];
        scaled_exp_grid(scale, rate, x0, step, n, &mut dense, 1);
        let stride = 7;
        let mut strided = vec![f64::NAN; (n - 1) * stride + 1];
        scaled_exp_grid(scale, rate, x0, step, n, &mut strided, stride);
        for k in 0..n {
            assert_eq!(dense[k].to_bits(), strided[k * stride].to_bits(), "k={k}");
        }
    }

    #[test]
    fn scaled_exp_grid_handles_empty_and_single() {
        let mut none: Vec<f64> = vec![];
        scaled_exp_grid(1.0, 1.0, 0.0, 1.0, 0, &mut none, 3);
        let mut one = vec![0.0];
        scaled_exp_grid(2.0, 0.0, 5.0, 1.0, 1, &mut one, 1);
        assert_eq!(one[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "output too short")]
    fn scaled_exp_grid_rejects_short_output() {
        let mut w = vec![0.0; 3];
        scaled_exp_grid(1.0, 1.0, 0.0, 1.0, 4, &mut w, 1);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun.
        assert_close(erf(0.5), 0.520_499_877_813_046_5, 1e-13);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-13);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-13);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-13);
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(3) = 2.209049699858544e-5, erfc(5) = 1.5374597944280351e-12.
        assert_close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-18);
        let rel = (erfc(5.0) - 1.537_459_794_428_035e-12).abs() / 1.54e-12;
        assert!(rel < 1e-10, "relative error {rel}");
    }

    #[test]
    fn erf_erfc_complementarity() {
        for &x in &[0.1, 0.7, 1.3, 2.4, 4.0] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-14);
        }
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-13);
        assert_close(ln_gamma(2.0), 0.0, 1e-13);
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-12);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-13);
        // Γ(10) = 362880
        assert_close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-11);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln x + ln Γ(x).
        for &x in &[0.3, 1.7, 4.2, 11.5, 60.0] {
            assert_close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11);
        }
    }

    #[test]
    fn gamma_p_chi2_reference() {
        // χ²(k=2) CDF at x: 1 − exp(−x/2).
        for &x in &[0.5, 1.0, 3.0, 8.0] {
            let p = gamma_p(1.0, x / 2.0).unwrap();
            assert_close(p, 1.0 - (-x / 2.0f64).exp(), 1e-13);
        }
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.1, 1.0, 5.0, 30.0, 100.0] {
                let p = gamma_p(a, x).unwrap();
                let q = gamma_q(a, x).unwrap();
                assert_close(p + q, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_domain_errors() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(1.0, -1.0).is_err());
        assert!(gamma_q(-2.0, 1.0).is_err());
    }

    #[test]
    fn gamma_p_inv_round_trip() {
        for &a in &[0.5, 1.0, 3.7, 20.0] {
            for &p in &[1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-9] {
                let x = gamma_p_inv(a, p).unwrap();
                let p_back = gamma_p(a, x).unwrap();
                assert_close(p_back, p, 1e-9);
            }
        }
    }

    #[test]
    fn norm_cdf_reference() {
        assert_close(norm_cdf(0.0), 0.5, 1e-15);
        assert_close(norm_cdf(1.0), 0.841_344_746_068_542_9, 1e-13);
        assert_close(norm_cdf(-1.959_963_984_540_054), 0.025, 1e-12);
    }

    #[test]
    fn norm_inv_cdf_round_trip() {
        for &p in &[1e-9, 1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6] {
            let x = norm_inv_cdf(p).unwrap();
            assert_close(norm_cdf(x), p, 1e-12 + 1e-9 * p);
        }
    }

    #[test]
    fn norm_inv_cdf_rejects_bounds() {
        assert!(norm_inv_cdf(0.0).is_err());
        assert!(norm_inv_cdf(1.0).is_err());
        assert!(norm_inv_cdf(-0.1).is_err());
    }

    #[test]
    fn norm_pdf_integrates_to_cdf_slope() {
        // Finite-difference check of d/dx norm_cdf = norm_pdf.
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let h = 1e-6;
            let slope = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h);
            assert_close(slope, norm_pdf(x), 1e-8);
        }
    }
}
