//! Property-based tests of the `num::simd` lane layer: seeded random
//! sweeps over the engines' argument ranges checking the vectorized
//! `exp`/`exp_m1`/`ln_1p`/`ln`/`logaddexp` kernels against `std` libm
//! (or the scalar definition) within the documented error budget,
//! width-1 bit-identity with the historical scalar expressions, and
//! bitwise agreement between lane widths 4 and 8.
//!
//! Width forcing is process-global, so every test that touches it
//! serializes on one mutex and restores the default before releasing —
//! the suite passes under any `STATOBD_LANES` setting.

use statobd_num::rng::{Rng, Xoshiro256pp};
use statobd_num::simd::{self, F64Lanes, LaneWidth};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that force the process-global lane width.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// RAII width override: restores the environment-derived default on
/// drop even if the test panics while holding the lock.
struct ForcedWidth(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForcedWidth {
    fn new(w: LaneWidth) -> Self {
        let guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        simd::force_width(Some(w));
        ForcedWidth(guard)
    }

    fn set(&self, w: LaneWidth) {
        simd::force_width(Some(w));
    }
}

impl Drop for ForcedWidth {
    fn drop(&mut self) {
        simd::force_width(None);
    }
}

fn rel_err(got: f64, want: f64) -> f64 {
    if got == want || (got.is_nan() && want.is_nan()) {
        return 0.0;
    }
    (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
}

/// Engine-typical argument draws: log-uniform magnitude across the
/// quadrature/table range, both signs, clamped inside `exp`'s domain.
fn engine_args(rng: &mut Xoshiro256pp, n: usize, mag_lo: f64, mag_hi: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let mag = 10f64.powf(rng.gen_range(mag_lo..mag_hi));
            if rng.gen_range(0.0..1.0) < 0.5 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

#[test]
fn exp_kernels_stay_inside_error_budget() {
    let _w = ForcedWidth::new(LaneWidth::W4);
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D0);
    for w in [LaneWidth::W4, LaneWidth::W8] {
        _w.set(w);
        // exp over the full engine range (quadrature args reach ±700).
        let xs = engine_args(&mut rng, 4000, -8.0, 2.84);
        let mut out = vec![0.0; xs.len()];
        simd::exp_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert!(
                rel_err(got, x.exp()) < 1e-14,
                "{w:?} exp({x}) = {got} vs {}",
                x.exp()
            );
        }
        // exp_m1 concentrates around 0 where cancellation lives.
        let xs = engine_args(&mut rng, 4000, -12.0, 2.6);
        simd::exp_m1_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert!(
                rel_err(got, x.exp_m1()) < 1e-14,
                "{w:?} exp_m1({x}) = {got} vs {}",
                x.exp_m1()
            );
        }
        // ln_1p on (−1, ∞): small magnitudes plus the singular side.
        let xs: Vec<f64> = engine_args(&mut rng, 4000, -12.0, 8.0)
            .into_iter()
            .map(|x| {
                if x <= -1.0 {
                    -1.0 + 10f64.powf(-x.abs().log10())
                } else {
                    x
                }
            })
            .map(|x| x.max(-1.0 + 1e-15))
            .collect();
        simd::ln_1p_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert!(
                rel_err(got, x.ln_1p()) < 1e-13,
                "{w:?} ln_1p({x}) = {got} vs {}",
                x.ln_1p()
            );
        }
    }
}

#[test]
fn width_one_is_bit_identical_to_libm() {
    let _w = ForcedWidth::new(LaneWidth::W1);
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D1);
    let xs = engine_args(&mut rng, 2000, -10.0, 2.84);
    let mut out = vec![0.0; xs.len()];
    simd::exp_slice(&xs, &mut out);
    for (&x, &got) in xs.iter().zip(&out) {
        assert_eq!(got.to_bits(), x.exp().to_bits(), "exp({x})");
    }
    simd::exp_m1_slice(&xs, &mut out);
    for (&x, &got) in xs.iter().zip(&out) {
        assert_eq!(got.to_bits(), x.exp_m1().to_bits(), "exp_m1({x})");
    }
    let scale = 2.7e-4;
    simd::failure_term_slice(&xs, scale, &mut out);
    for (&x, &got) in xs.iter().zip(&out) {
        let want = -(-scale * x.exp()).exp_m1();
        assert_eq!(got.to_bits(), want.to_bits(), "failure_term({x})");
    }
}

#[test]
fn widths_four_and_eight_agree_bitwise() {
    let _w = ForcedWidth::new(LaneWidth::W4);
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D2);
    // Prime-length slice so both widths see full chunks and ragged
    // tails at different element positions.
    let xs = engine_args(&mut rng, 2003, -10.0, 2.84);
    let scale = 1.3e-5;
    let mut via4 = vec![0.0; xs.len()];
    let mut via8 = vec![0.0; xs.len()];
    simd::exp_slice(&xs, &mut via4);
    simd::failure_term_slice(&xs, scale, &mut via8); // reuse as scratch
    _w.set(LaneWidth::W8);
    simd::exp_slice(&xs, &mut via8);
    for (i, (a, b)) in via4.iter().zip(&via8).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "exp idx {i}");
    }
    _w.set(LaneWidth::W4);
    simd::failure_term_slice(&xs, scale, &mut via4);
    _w.set(LaneWidth::W8);
    simd::failure_term_slice(&xs, scale, &mut via8);
    for (i, (a, b)) in via4.iter().zip(&via8).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "failure_term idx {i}");
    }
}

#[test]
fn lane_kernels_handle_edge_arguments() {
    let _w = ForcedWidth::new(LaneWidth::W8);
    let xs = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        709.9,  // past the overflow boundary
        -746.0, // past the underflow boundary
        -0.0,
        0.0,
        5e-324, // smallest subnormal
    ];
    let mut out = [0.0; 8];
    for w in [LaneWidth::W4, LaneWidth::W8] {
        _w.set(w);
        simd::exp_slice(&xs, &mut out);
        assert!(out[0].is_nan());
        assert_eq!(out[1], f64::INFINITY);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], f64::INFINITY);
        assert_eq!(out[4], 0.0);
        assert_eq!(out[5], 1.0);
        assert_eq!(out[6], 1.0);
        simd::exp_m1_slice(&xs, &mut out);
        assert!(out[0].is_nan());
        assert_eq!(out[1], f64::INFINITY);
        assert_eq!(out[2], -1.0);
        simd::ln_1p_slice(&[-1.0, -1.5, f64::INFINITY, f64::NAN], &mut out[..4]);
        assert_eq!(out[0], f64::NEG_INFINITY);
        assert!(out[1].is_nan(), "ln_1p below the domain is NaN");
        assert_eq!(out[2], f64::INFINITY);
        assert!(out[3].is_nan());
    }
}

/// Distance in units in the last place between two finite values of the
/// same sign (or both zero).
fn ulps(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
    a.to_bits().abs_diff(b.to_bits())
}

/// Evaluates a lane op over `xs` in `W`-wide chunks (`xs.len() % W == 0`).
fn lanes_map<const W: usize>(xs: &[f64], f: impl Fn(F64Lanes<W>) -> F64Lanes<W>) -> Vec<f64> {
    xs.chunks_exact(W)
        .flat_map(|c| f(F64Lanes::<W>::from_slice(c)).to_array())
        .collect()
}

/// Probabilities spread log-uniformly over every binade of `[2⁻¹⁰⁷⁴, 1]`,
/// subnormals included, plus the binade edges.
fn probabilities(rng: &mut Xoshiro256pp, n: usize) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..n)
        .map(|_| {
            let e = rng.gen_range(-1074.0..0.0f64);
            2f64.powf(e).max(f64::from_bits(1))
        })
        .collect();
    xs.extend([
        f64::from_bits(1),
        f64::from_bits(2),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        1e-300,
        0.5,
        std::f64::consts::FRAC_1_SQRT_2,
        1.0 - f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
    ]);
    xs.resize(xs.len().next_multiple_of(8), 1.0);
    xs
}

#[test]
fn lane_ln_stays_within_four_ulps_down_to_subnormals() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D4);
    let xs = probabilities(&mut rng, 8000);
    let w8 = lanes_map::<8>(&xs, F64Lanes::ln);
    let w4 = lanes_map::<4>(&xs, F64Lanes::ln);
    let w1 = lanes_map::<1>(&xs, F64Lanes::ln);
    for (i, &x) in xs.iter().enumerate() {
        let want = x.ln();
        assert!(
            ulps(w8[i], want) <= 4,
            "ln({x:e}) = {:e} vs {want:e}",
            w8[i]
        );
        assert_eq!(w4[i].to_bits(), w8[i].to_bits(), "w4 vs w8 at {x:e}");
        assert_eq!(w1[i].to_bits(), want.to_bits(), "w1 vs libm at {x:e}");
    }
}

#[test]
fn lane_ln_edges_are_exact() {
    let xs = [
        0.0,
        -0.0,
        1.0,
        f64::NAN,
        -1.0,
        -f64::from_bits(1),
        f64::INFINITY,
        2.0,
    ];
    for got in [
        F64Lanes::<8>::from_slice(&xs).ln().to_array().to_vec(),
        lanes_map::<4>(&xs, F64Lanes::ln),
    ] {
        assert_eq!(got[0], f64::NEG_INFINITY, "ln 0");
        assert_eq!(got[1], f64::NEG_INFINITY, "ln −0");
        assert_eq!(got[2].to_bits(), 0.0f64.to_bits(), "ln 1 is +0");
        assert!(
            got[3].is_nan() && got[4].is_nan() && got[5].is_nan(),
            "NaN / negative"
        );
        assert_eq!(got[6], f64::INFINITY, "ln ∞");
        assert!(ulps(got[7], std::f64::consts::LN_2) <= 4);
    }
}

/// The branching scalar `logaddexp` the redundancy-group DP was first
/// written with: `−∞` is the exact additive identity.
fn logaddexp_scalar(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

#[test]
fn lane_logaddexp_matches_the_scalar_definition() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D5);
    // Log-probabilities from the DP's range: near-certain mass down to
    // the deep tail, plus exact zero mass (−∞) on either side.
    let draw = |rng: &mut Xoshiro256pp| {
        let u = rng.gen_range(0.0..1.0);
        if u < 0.08 {
            f64::NEG_INFINITY
        } else if u < 0.16 {
            -rng.gen_range(0.0..1e-12)
        } else {
            -10f64.powf(rng.gen_range(-15.0..2.9))
        }
    };
    let a: Vec<f64> = (0..8000).map(|_| draw(&mut rng)).collect();
    let b: Vec<f64> = (0..8000).map(|_| draw(&mut rng)).collect();
    let lae = |w: usize| -> Vec<f64> {
        (0..a.len())
            .step_by(w)
            .flat_map(|i| match w {
                1 => F64Lanes::<1>::from_slice(&a[i..])
                    .logaddexp(F64Lanes::from_slice(&b[i..]))
                    .to_array()
                    .to_vec(),
                4 => F64Lanes::<4>::from_slice(&a[i..])
                    .logaddexp(F64Lanes::from_slice(&b[i..]))
                    .to_array()
                    .to_vec(),
                _ => F64Lanes::<8>::from_slice(&a[i..])
                    .logaddexp(F64Lanes::from_slice(&b[i..]))
                    .to_array()
                    .to_vec(),
            })
            .collect()
    };
    let (w1, w4, w8) = (lae(1), lae(4), lae(8));
    for i in 0..a.len() {
        let want = logaddexp_scalar(a[i], b[i]);
        assert_eq!(
            w1[i].to_bits(),
            want.to_bits(),
            "w1 at ({:e}, {:e})",
            a[i],
            b[i]
        );
        assert_eq!(
            w4[i].to_bits(),
            w8[i].to_bits(),
            "w4 vs w8 at ({:e}, {:e})",
            a[i],
            b[i]
        );
        if a[i] == f64::NEG_INFINITY || b[i] == f64::NEG_INFINITY {
            // The identity is exact, not approximate.
            assert_eq!(
                w8[i].to_bits(),
                want.to_bits(),
                "identity at ({:e}, {:e})",
                a[i],
                b[i]
            );
        } else {
            // Log-probabilities: the error budget is absolute near 0 and
            // relative in the tail.
            assert!(
                (w8[i] - want).abs() <= 4.0 * f64::EPSILON * want.abs().max(1.0),
                "logaddexp({:e}, {:e}) = {:e} vs {want:e}",
                a[i],
                b[i],
                w8[i]
            );
        }
    }
}

#[test]
fn failure_term_accuracy_over_scale_sweep() {
    // The quadrature kernels see scale = A·(table area) spanning many
    // decades; the 1e-12 relative gate must hold across all of them.
    let _w = ForcedWidth::new(LaneWidth::W8);
    let mut rng = Xoshiro256pp::seed_from_u64(0x51D3);
    for w in [LaneWidth::W4, LaneWidth::W8] {
        _w.set(w);
        for _ in 0..24 {
            let scale = 10f64.powf(rng.gen_range(-9.0..3.0));
            let xs = engine_args(&mut rng, 500, -6.0, 2.5);
            let mut out = vec![0.0; xs.len()];
            simd::failure_term_slice(&xs, scale, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                let want = -(-scale * x.exp()).exp_m1();
                assert!(
                    rel_err(got, want) < 1e-12,
                    "{w:?} scale={scale:e} x={x} got={got} want={want}"
                );
                assert!((0.0..=1.0).contains(&got) || got.is_nan());
            }
        }
    }
}
