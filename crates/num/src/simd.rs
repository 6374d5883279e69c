//! Runtime-dispatched, std-only SIMD-style lane layer for the hot
//! transcendental kernels.
//!
//! The reliability engines bottom out in three scalar loops: the StFast
//! `(u, v)` quadrature grids, the hybrid `(γ, b)` table fill and the MC
//! `[block][bin][t]` weight tables — all dominated by `exp`, `exp_m1`
//! and `ln_1p` calls. This module replaces those with *array-of-lanes*
//! kernels: plain `[f64; W]` chunks evaluated by branch-free
//! range-reduction + polynomial cores that LLVM auto-vectorizes. One
//! dispatcher runs every vector kernel inside an AVX2 or AVX-512F
//! `#[target_feature]` trampoline, or with baseline codegen, picked by
//! CPU feature detection once at startup, so one binary carries all
//! three code paths.
//!
//! # Lane widths and determinism
//!
//! The active width is picked once (default [`LaneWidth::W8`]) and can be
//! overridden with `STATOBD_LANES=1|4|8` for debugging, or
//! programmatically via [`force_width`] (benches, equivalence tests):
//!
//! * **Width 1** routes every call through the exact `std` libm
//!   expressions the engines used before this module existed — results
//!   are bit-identical to the historical scalar code.
//! * **Widths 4 and 8** use the polynomial cores. The cores are
//!   *elementwise deterministic*: they contain only IEEE-754 `+`/`*`/`/`
//!   and bit manipulation (no FMA contraction, no reductions), so a given
//!   input produces the same bits regardless of lane position, chunk
//!   boundary, vector width, or which ISA trampoline ran. Width 4 and
//!   width 8 therefore agree **bitwise**; they differ from width 1 by the
//!   polynomial-vs-libm rounding (≈2 ulp-class, see below).
//!
//! The dispatched slice kernels ([`exp_slice`] & co. and
//! [`failure_term_slice`]) walk eight-element chunks at both widths 4
//! and 8. The failure term screens each chunk into the cheapest route its
//! arguments allow — a saturated fill, a polynomial arm, the large arm,
//! or all three arms selected per element — and every route evaluates
//! the arms the general expression selects, so a screen changes cost,
//! never bits.
//!
//! Reductions are *not* performed here — callers keep their own
//! accumulation order, which is how the engines preserve cross-thread and
//! batched-vs-scalar bit-identity at any width.
//!
//! Kernels that take the lane count as a const generic `W` — [`F64Lanes`],
//! the composition folds and the fused fleet survival kernels — make the
//! same choice at compile time instead of reading the dispatch: `W = 1`
//! is the libm expression, wider tiles the polynomial cores.
//!
//! # Error budget
//!
//! Measured against `std` (`f64::exp` etc.) over the engines' argument
//! ranges (property-tested in `tests/simd_proptests.rs`):
//!
//! * [`exp`](F64Lanes::exp): ≤ 2 ulp-class (Cody–Waite reduction,
//!   degree-13 polynomial, exact power-of-two scaling; saturates to
//!   `0`/`+∞` outside the finite window like libm).
//! * [`exp_m1`](F64Lanes::exp_m1): ≤ 4 ulp-class (dedicated polynomial
//!   for `|x| ≤ ln2/2`, `exp(x) − 1` elsewhere where no cancellation
//!   occurs).
//! * [`ln_1p`](F64Lanes::ln_1p): ≤ 4 ulp-class (`2·atanh(x/(2+x))` odd
//!   polynomial for `x ∈ [−1/3, 1/2]`, exponent split of `1 + x`
//!   elsewhere).
//! * [`ln`](F64Lanes::ln): ≤ 4 ulp-class down to `2⁻¹⁰⁷⁴` (the same
//!   exponent split; subnormals are pre-scaled by `2⁵⁴`).
//! * [`logaddexp`](F64Lanes::logaddexp): `max + ln(1 + e^(min − max))`
//!   with the logarithm by exponent split of `1 + e^(min − max)`: within
//!   a few ulp of 1 *absolute* — for log-probabilities, the relative
//!   error of the probability — and `−∞` as the exact identity.
//!
//! The engine-level acceptance gate on derived probabilities is `1e-12`
//! relative — two orders looser than these kernels deliver.

use crate::root::Illinois;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Width selection and ISA dispatch
// ---------------------------------------------------------------------------

/// Number of f64 lanes processed per kernel chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// Scalar fallback: bit-identical to the historical `std` libm code.
    W1,
    /// Four lanes per chunk (one AVX2 register).
    W4,
    /// Eight lanes per chunk (one AVX-512 register, two AVX2 registers).
    W8,
}

impl LaneWidth {
    /// The width as a lane count (1, 4 or 8).
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::W1 => 1,
            LaneWidth::W4 => 4,
            LaneWidth::W8 => 8,
        }
    }

    /// Parses `"1"`, `"4"` or `"8"` (the accepted `STATOBD_LANES`
    /// values); anything else is `None`.
    pub fn parse(s: &str) -> Option<LaneWidth> {
        match s.trim() {
            "1" => Some(LaneWidth::W1),
            "4" => Some(LaneWidth::W4),
            "8" => Some(LaneWidth::W8),
            _ => None,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// `WIDTH` values: 0 = not yet initialized, otherwise the lane count.
static WIDTH: AtomicU8 = AtomicU8::new(0);
/// Where the active width came from: 0 unset, 1 default, 2 env, 3 forced.
static WIDTH_SOURCE: AtomicU8 = AtomicU8::new(0);

fn width_from_env() -> (LaneWidth, u8) {
    match std::env::var("STATOBD_LANES") {
        Ok(v) => match LaneWidth::parse(&v) {
            Some(w) => (w, 2),
            None => (LaneWidth::W8, 1),
        },
        Err(_) => (LaneWidth::W8, 1),
    }
}

/// The lane width every slice kernel currently dispatches to.
///
/// Resolved on first use from `STATOBD_LANES` (default 8) and cached;
/// [`force_width`] overrides it at runtime.
pub fn active_width() -> LaneWidth {
    match WIDTH.load(Ordering::Relaxed) {
        1 => LaneWidth::W1,
        4 => LaneWidth::W4,
        8 => LaneWidth::W8,
        _ => {
            let (w, src) = width_from_env();
            WIDTH_SOURCE.store(src, Ordering::Relaxed);
            WIDTH.store(w.lanes() as u8, Ordering::Relaxed);
            w
        }
    }
}

/// Overrides the dispatch width process-wide (`Some(w)`), or restores the
/// `STATOBD_LANES`/default selection (`None`).
///
/// Intended for benches and cross-width equivalence tests; production
/// code configures the width through the environment once at startup.
/// Tests that force widths must serialize on a lock — the setting is a
/// process-global.
pub fn force_width(w: Option<LaneWidth>) {
    match w {
        Some(w) => {
            WIDTH_SOURCE.store(3, Ordering::Relaxed);
            WIDTH.store(w.lanes() as u8, Ordering::Relaxed);
        }
        None => {
            let (w, src) = width_from_env();
            WIDTH_SOURCE.store(src, Ordering::Relaxed);
            WIDTH.store(w.lanes() as u8, Ordering::Relaxed);
        }
    }
}

/// Instruction-set tier the vector kernels were dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Baseline codegen (SSE2 on x86-64, NEON-ish elsewhere).
    Portable,
    /// AVX2 trampoline (256-bit lanes).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F trampoline (512-bit lanes).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// `ISA` values: 0 unset, 1 portable, 2 avx2, 3 avx512.
static ISA: AtomicU8 = AtomicU8::new(0);

fn isa() -> Isa {
    match ISA.load(Ordering::Relaxed) {
        1 => Isa::Portable,
        #[cfg(target_arch = "x86_64")]
        2 => Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        3 => Isa::Avx512,
        _ => {
            let detected = detect_isa();
            ISA.store(
                match detected {
                    Isa::Portable => 1,
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 => 2,
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 => 3,
                },
                Ordering::Relaxed,
            );
            detected
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> Isa {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        Isa::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_isa() -> Isa {
    Isa::Portable
}

fn isa_name(isa: Isa) -> &'static str {
    match isa {
        Isa::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512f",
    }
}

/// Human-readable dispatch decision, e.g. `"8 lanes (avx512f, default)"`
/// or `"1 lane (scalar libm, env)"` — surfaced by `analyze --timings` and
/// the serve `stats` op so bench runs are self-describing.
pub fn dispatch_label() -> String {
    let w = active_width();
    let source = match WIDTH_SOURCE.load(Ordering::Relaxed) {
        2 => "env",
        3 => "forced",
        _ => "default",
    };
    match w {
        LaneWidth::W1 => format!("1 lane (scalar libm, {source})"),
        _ => format!("{} lanes ({}, {source})", w.lanes(), isa_name(isa())),
    }
}

// ---------------------------------------------------------------------------
// Polynomial cores (elementwise deterministic: IEEE +/*// and bit ops only)
// ---------------------------------------------------------------------------

/// `1.5 · 2^52`: adding then subtracting rounds to the nearest integer
/// (branch-free, vectorizable) for |x| < 2^51.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// High part of ln 2 with 21 trailing zero bits, so `k · LN2_HI` is exact
/// for the |k| ≤ 1076 this module produces.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part: `LN2_HI + LN2_LO` is ln 2 to ~107 bits.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Taylor coefficients 1/k! for k = 2..=13: the tail polynomial
/// `P(r) = Σ r^(k-2)/k!` shared by `exp` (`e^r = 1 + r + r²·P(r)`) and
/// `exp_m1` (`e^x − 1 = x + x²·P(x)` for small x). The degree-13 cutoff
/// leaves a truncation error below 1e-17 relative on |r| ≤ ln2/2.
const EXP_TAIL: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Estrin evaluation of the shared tail polynomial `P(r)`.
///
/// Estrin rather than Horner because the hot consumers are
/// latency-bound: the fleet lifetime solve's serial probe chain runs
/// this on two-vector tiles where a 12-deep Horner chain (~8 cycles per
/// mul+add level) IS the critical path. Estrin's tree needs the same
/// multiply count at ~4 levels of depth. The reassociated rounding
/// stays in the kernels' ulp class (the truncation analysis on the
/// coefficients is unchanged); like any core edit it moves lane-path
/// bits, which the cross-path gates bound relatively, never bitwise.
#[inline(always)]
fn exp_tail(r: f64) -> f64 {
    let c = &EXP_TAIL;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = c[0] + c[1] * r;
    let p23 = c[2] + c[3] * r;
    let p45 = c[4] + c[5] * r;
    let p67 = c[6] + c[7] * r;
    let p89 = c[8] + c[9] * r;
    let pab = c[10] + c[11] * r;
    let q0 = p01 + p23 * r2;
    let q1 = p45 + p67 * r2;
    let q2 = p89 + pab * r2;
    (q0 + q1 * r4) + q2 * r8
}

/// Branch-free `exp(x)` core: clamp to the finite-result window,
/// Cody–Waite reduction `x = k·ln2 + r`, degree-13 polynomial on `r`,
/// exact two-step `2^k` scaling (split so boundary magnitudes near the
/// overflow/subnormal edges round correctly). NaN propagates; `±∞` and
/// out-of-window magnitudes saturate to `+∞`/`0` exactly like libm.
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    // Outside [-746, 710] the scaled result is exactly 0 or +inf anyway,
    // and the clamp keeps k·LN2_HI in its exact range. NaN survives clamp.
    let x = x.clamp(-746.0, 710.0);
    let y = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let kf = y - ROUND_MAGIC;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let poly = 1.0 + r + (r * r) * exp_tail(r);
    // `k` is read straight out of the round-magic sum: `y = 2^52 + 2^51
    // + k` stores `k` two's-complement in the low 32 mantissa bits (the
    // clamp bounds |k| ≤ 1076 ≪ 2^31). A `kf as i64` cast computes the
    // same integer but scalarizes every lane loop — packed f64→i64
    // needs AVX-512DQ, which neither dispatch tier enables — while the
    // bit extraction is plain integer ops on every tier. NaN input: `y`
    // is NaN, so `ki` is payload garbage, but `poly` (= NaN) still
    // propagates through the final scaling multiplies.
    let ki = (y.to_bits() as u32 as i32) as i64;
    let k1 = ki >> 1;
    let k2 = ki - k1;
    let s1 = f64::from_bits(((1023 + k1) as u64) << 52);
    let s2 = f64::from_bits(((1023 + k2) as u64) << 52);
    (poly * s1) * s2
}

/// Switch point for the dedicated small-|x| `exp_m1` polynomial (ln 2 / 2).
const EXPM1_SWITCH: f64 = 0.346_573_590_279_972_65;

/// Branchless bitwise select: `cond ? a : b`, bit-exact in either arm.
///
/// The cores pick between precomputed arms with this instead of `if` —
/// a data-dependent branch in the unrolled chunk bodies costs a
/// misprediction whenever neighbouring nodes straddle a switch point,
/// and quadrature argument sweeps cross them constantly.
#[inline(always)]
fn select(cond: bool, a: f64, b: f64) -> f64 {
    let mask = (cond as u64).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `exp(x) − 1` core. Small arguments use `x + x²·P(x)` (no cancellation);
/// elsewhere `exp(x) − 1` is safe because the result magnitude is ≥ 0.29.
/// Both sides are evaluated and combined with a branchless [`select`] so
/// the chunk loops vectorize without per-element branches.
///
/// The large-argument side floors `x` at −54: below that `exp(x)` is
/// under a quarter-ulp of the −1 result (2⁻⁷⁷), and the floor keeps
/// `exp_core`'s `2^k` scaling out of the subnormal range — saturated
/// hazards (`x` in the −100s) would otherwise trigger an FP assist on
/// every multiply, an order-of-magnitude per-element penalty.
#[inline(always)]
fn exp_m1_core(x: f64) -> f64 {
    let small = x + (x * x) * exp_tail(x);
    let big = exp_core(x.max(-54.0)) - 1.0;
    // NaN must take the small arm: `max` above would swallow it
    // (`NaN.max(-54.0)` is −54), while `x + …` propagates it.
    select(x.abs() > EXPM1_SWITCH, big, small)
}

/// Odd-series coefficients `1/(2k+1)` for `atanh(s) = s · Q(s²)`,
/// truncated after `s^21` — relative truncation below 2e-17 for the
/// |s| ≤ 0.2 the `ln_1p` reductions produce.
const ATANH_TAIL: [f64; 11] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
];

/// Estrin evaluation of `Q(w) = Σ w^k/(2k+1)` — same shallow-tree
/// rationale as [`exp_tail`]: the lifetime solve's serial probe chain
/// is bound by this polynomial's depth, not its multiply count.
#[inline(always)]
fn atanh_poly(w: f64) -> f64 {
    let c = &ATANH_TAIL;
    let w2 = w * w;
    let w4 = w2 * w2;
    let w8 = w4 * w4;
    let p01 = c[0] + c[1] * w;
    let p23 = c[2] + c[3] * w;
    let p45 = c[4] + c[5] * w;
    let p67 = c[6] + c[7] * w;
    let p89 = c[8] + c[9] * w;
    let q0 = p01 + p23 * w2;
    let q1 = p45 + p67 * w2;
    let q2 = p89 + c[10] * w2;
    (q0 + q1 * w4) + q2 * w8
}

/// `ln(1 + x)` core. `x ∈ [−1/3, 1/2]` uses `2·atanh(x/(2+x))` directly
/// on `x` (no `1 + x` rounding; the window is asymmetric so the reduced
/// argument stays at `|s| ≤ 0.2` on both sides). Other arguments split
/// `u = 1 + x` into exponent and mantissa (`u` is exact by Sterbenz for
/// `x ∈ [−1, −1/2]`, and elsewhere its half-ulp rounding is dwarfed by
/// `|ln u| ≥ 0.4`). Domain edges (`x < −1` → NaN, `x = −1` → −∞,
/// `+∞` → +∞, NaN → NaN) are fixed up with value-dependent selects,
/// keeping the core elementwise deterministic and if-convertible.
#[inline(always)]
fn ln_1p_core(x: f64) -> f64 {
    let s_small = x / (2.0 + x);
    let small = 2.0 * s_small * atanh_poly(s_small * s_small);
    let big = ln_split(1.0 + x, 0);

    let fast = select((-0.333_333_333_333_333_3..=0.5).contains(&x), small, big);
    let fixed = select(x == -1.0, f64::NEG_INFINITY, fast);
    let fixed = select(x == f64::INFINITY, f64::INFINITY, fixed);
    select(x.is_nan() || x < -1.0, f64::NAN, fixed)
}

/// `ln u` by exponent split, for a positive normal `u` whose true binary
/// exponent is `extra_e` above its stored one: `u = 2^e·m` with `m ∈
/// (√2/2, √2]`, then `ln u = e·ln2 + 2·atanh((m − 1)/(m + 1))`, the
/// reduced argument staying inside [`atanh_poly`]'s `|s| ≤ 0.2` window.
/// The large arm of [`ln_1p_core`] and the body of [`ln_core`].
#[inline(always)]
fn ln_split(u: f64, extra_e: i64) -> f64 {
    let bits = u.to_bits();
    let e_raw = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m_raw = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let shrink = m_raw > std::f64::consts::SQRT_2;
    let m = select(shrink, 0.5 * m_raw, m_raw);
    let e = (e_raw + shrink as i64 + extra_e) as f64;
    let s = (m - 1.0) / (m + 1.0);
    e * LN2_HI + (2.0 * s * atanh_poly(s * s) + e * LN2_LO)
}

/// `2⁵⁴`: lifts every subnormal into the normal range, exactly.
const TWO_54: f64 = 18_014_398_509_481_984.0;

/// `ln(x)` core. Subnormal arguments are scaled by `2⁵⁴` (exact) and the
/// exponent corrected, so all of `[2⁻¹⁰⁷⁴, ∞)` goes through the
/// normal-mantissa split of [`ln_split`]. Domain edges (`±0` → `−∞`,
/// `+∞` → `+∞`, negative or NaN → NaN) are value-dependent selects, as in
/// [`ln_1p_core`].
#[inline(always)]
fn ln_core(x: f64) -> f64 {
    let sub = x < f64::MIN_POSITIVE;
    let v = ln_split(select(sub, x * TWO_54, x), -54 * sub as i64);
    let v = select(x == 0.0, f64::NEG_INFINITY, v);
    let v = select(x == f64::INFINITY, f64::INFINITY, v);
    select(!(x >= 0.0), f64::NAN, v)
}

// ---------------------------------------------------------------------------
// Compile-time width selection (width 1 = libm, wider = the cores)
// ---------------------------------------------------------------------------

#[inline(always)]
fn exp_w<const W: usize>(x: f64) -> f64 {
    if W == 1 {
        x.exp()
    } else {
        exp_core(x)
    }
}

#[inline(always)]
fn exp_m1_w<const W: usize>(x: f64) -> f64 {
    if W == 1 {
        x.exp_m1()
    } else {
        exp_m1_core(x)
    }
}

#[inline(always)]
fn ln_1p_w<const W: usize>(x: f64) -> f64 {
    if W == 1 {
        x.ln_1p()
    } else {
        ln_1p_core(x)
    }
}

#[inline(always)]
fn ln_w<const W: usize>(x: f64) -> f64 {
    if W == 1 {
        x.ln()
    } else {
        ln_core(x)
    }
}

/// `ln(eᵃ + eᵇ)` without overflow, branch-free: the larger argument plus
/// `ln(1 + e^(lo − hi))`, then selects that return the other argument
/// exactly when either side is `−∞` (zero probability mass). Every
/// select reproduces the branching scalar definition (`if a == −∞ { b }
/// else if b == −∞ { a } else { hi + ln_1p(exp(lo − hi)) }`), so width 1
/// — libm `exp`/`ln_1p` — is bit-identical to it.
///
/// Wider tiles take `ln(1 + y)` straight from the exponent split of
/// `1 + y ∈ [1, 2]` ([`ln_split`]) rather than through both `ln_1p`
/// arms: rounding `1 + y` costs at most half an ulp of 1, *absolute*, in
/// the logarithm — and for log-probabilities absolute error is what
/// matters (it is the relative error of the probability), so the result
/// stays within a few ulp of 1 of the scalar definition.
#[inline(always)]
fn logaddexp_w<const W: usize>(a: f64, b: f64) -> f64 {
    let a_hi = a >= b;
    let hi = select(a_hi, a, b);
    let lo = select(a_hi, b, a);
    let r = if W == 1 {
        hi + (lo - hi).exp().ln_1p()
    } else {
        hi + ln_split(1.0 + exp_core(lo - hi), 0)
    };
    let r = select(a == f64::NEG_INFINITY, b, r);
    select(b == f64::NEG_INFINITY, a, r)
}

// ---------------------------------------------------------------------------
// F64Lanes: the array-of-lanes value type
// ---------------------------------------------------------------------------

/// A `W`-wide bundle of `f64` lanes evaluated elementwise.
///
/// This is the value-level view of the lane layer: `W` is a compile-time
/// constant and every operation maps lanes independently. `W = 1` runs
/// the libm expressions (bit-identical to `f64::exp` & co.); every wider
/// `W` runs the polynomial cores, so all widths above one agree bitwise
/// with each other and with the slice kernels at widths 4/8. The slice
/// drivers ([`exp_slice`] & co.) are the dispatched fast path engines
/// should prefer for bulk data; `F64Lanes` exists for composing custom
/// lane arithmetic and for testing the cores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F64Lanes<const W: usize>(pub [f64; W]);

impl<const W: usize> F64Lanes<W> {
    /// All lanes set to `v`.
    pub fn splat(v: f64) -> Self {
        F64Lanes([v; W])
    }

    /// Loads `W` lanes from the front of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < W`.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut lanes = [0.0; W];
        lanes.copy_from_slice(&xs[..W]);
        F64Lanes(lanes)
    }

    /// The lanes as a plain array.
    pub fn to_array(self) -> [f64; W] {
        self.0
    }

    /// Elementwise map over the lanes.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let mut lanes = self.0;
        for lane in &mut lanes {
            *lane = f(*lane);
        }
        F64Lanes(lanes)
    }

    /// Elementwise vectorized `exp` (≤ 2 ulp-class, see module docs).
    pub fn exp(self) -> Self {
        self.map(exp_w::<W>)
    }

    /// Elementwise vectorized `exp(x) − 1` (≤ 4 ulp-class).
    pub fn exp_m1(self) -> Self {
        self.map(exp_m1_w::<W>)
    }

    /// Elementwise vectorized `ln(1 + x)` (≤ 4 ulp-class).
    pub fn ln_1p(self) -> Self {
        self.map(ln_1p_w::<W>)
    }

    /// Elementwise vectorized `ln x` (≤ 4 ulp-class, subnormals
    /// included; `0 → −∞`, negative or NaN → NaN).
    pub fn ln(self) -> Self {
        self.map(ln_w::<W>)
    }

    /// Elementwise `ln(eᵃ + eᵇ)` against `other`, with `−∞` as the exact
    /// identity on either side.
    pub fn logaddexp(self, other: Self) -> Self {
        let mut lanes = self.0;
        for (lane, b) in lanes.iter_mut().zip(other.0) {
            *lane = logaddexp_w::<W>(*lane, b);
        }
        F64Lanes(lanes)
    }
}

impl<const W: usize> std::ops::Add for F64Lanes<W> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane += r;
        }
        F64Lanes(lanes)
    }
}

impl<const W: usize> std::ops::Sub for F64Lanes<W> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane -= r;
        }
        F64Lanes(lanes)
    }
}

impl<const W: usize> std::ops::Mul for F64Lanes<W> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane *= r;
        }
        F64Lanes(lanes)
    }
}

// ---------------------------------------------------------------------------
// One dispatcher: every vector kernel runs in the detected ISA's trampoline
// ---------------------------------------------------------------------------

/// One call of a dispatched lane kernel: a struct of the call's
/// arguments whose [`run`](Kernel::run), always `#[inline(always)]`, is
/// the kernel body. [`dispatch`] runs it inside the detected ISA's
/// `#[target_feature]` trampoline, so the body is compiled once per tier
/// with that tier's vector codegen. Every tier runs the same IEEE
/// arithmetic (rustc never contracts a multiply and an add into an FMA),
/// so the tier changes speed, never bits. `isa` is a constant inside each
/// trampoline, so a body may pick its blocking from it at no cost.
///
/// A new lane kernel is a new `Kernel` struct, never a clone of its own.
/// The trait is crate-visible so the eigensolver's sweeps
/// ([`crate::tridiag`]) run through the same trampolines.
pub(crate) trait Kernel {
    type Out;
    fn run(self, isa: Isa) -> Self::Out;
}

/// The AVX2 trampoline of [`dispatch`].
///
/// # Safety
///
/// The caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(k: K) -> K::Out {
    k.run(Isa::Avx2)
}

/// The AVX-512F trampoline of [`dispatch`].
///
/// # Safety
///
/// The caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(k: K) -> K::Out {
    k.run(Isa::Avx512)
}

/// Runs `k` in the trampoline of the detected ISA, or with baseline
/// codegen when neither AVX tier is present.
pub(crate) fn dispatch<K: Kernel>(k: K) -> K::Out {
    match isa() {
        Isa::Portable => k.run(Isa::Portable),
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { run_avx2(k) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { run_avx512(k) },
    }
}

// ---------------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------------

/// Elements per chunk of the dispatched slice kernels at widths 4 and 8:
/// one AVX-512 register, two AVX2 ones. Both widths walk the same chunks
/// (the cores agree bitwise at any width); four-element chunks would
/// double [`failure_term_slice`]'s per-chunk screens for no change in
/// bits.
const CHUNK: usize = 8;

/// An elementwise op of a [`MapSlice`] kernel (a trait rather than a
/// closure so monomorphization carries the op into each ISA's body).
trait Elem: Copy {
    fn eval(self, x: f64) -> f64;
}

#[derive(Clone, Copy)]
struct ExpOp;
impl Elem for ExpOp {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        exp_core(x)
    }
}

#[derive(Clone, Copy)]
struct ExpM1Op;
impl Elem for ExpM1Op {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        exp_m1_core(x)
    }
}

#[derive(Clone, Copy)]
struct Ln1pOp;
impl Elem for Ln1pOp {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        ln_1p_core(x)
    }
}

/// Chunked elementwise map of `op` over `xs`: full [`CHUNK`]-element
/// chunks through fixed-size arrays (the shape LLVM vectorizes), the
/// remainder through the same elementwise core — so results never depend
/// on where chunk boundaries fall. Each chunk is computed into a local
/// array and copied out: slices that arrive as struct fields carry no
/// no-alias facts, and a store straight into `out` would order every
/// later load of `xs` behind it.
struct MapSlice<'a, E> {
    op: E,
    xs: &'a [f64],
    out: &'a mut [f64],
}

impl<E: Elem> Kernel for MapSlice<'_, E> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let MapSlice { op, xs, out } = self;
        let (chunks, tail) = xs.as_chunks::<CHUNK>();
        let (out_chunks, out_tail) = out.as_chunks_mut::<CHUNK>();
        for (x, o) in chunks.iter().zip(out_chunks) {
            let mut lanes = *x;
            for lane in &mut lanes {
                *lane = op.eval(*lane);
            }
            *o = lanes;
        }
        for (o, &x) in out_tail.iter_mut().zip(tail) {
            *o = op.eval(x);
        }
    }
}

/// Dispatches one slice op: width 1 runs the caller-supplied exact `std`
/// expression; widths 4/8 run the polynomial kernel on the detected ISA.
#[inline]
fn run_op<E: Elem>(op: E, xs: &[f64], out: &mut [f64], scalar: impl Fn(f64) -> f64) {
    assert_eq!(
        xs.len(),
        out.len(),
        "lane kernel input/output length mismatch"
    );
    if active_width() == LaneWidth::W1 {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = scalar(x);
        }
    } else {
        dispatch(MapSlice { op, xs, out });
    }
}

/// Fills `out[i] = exp(xs[i])` through the active lane dispatch.
///
/// Width 1 is bit-identical to `f64::exp`; widths 4/8 are the ≤ 2
/// ulp-class polynomial kernel.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn exp_slice(xs: &[f64], out: &mut [f64]) {
    run_op(ExpOp, xs, out, f64::exp);
}

/// Fills `out[i] = exp(xs[i]) − 1` through the active lane dispatch.
///
/// Width 1 is bit-identical to `f64::exp_m1`; widths 4/8 are the ≤ 4
/// ulp-class polynomial kernel.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn exp_m1_slice(xs: &[f64], out: &mut [f64]) {
    run_op(ExpM1Op, xs, out, f64::exp_m1);
}

/// Fills `out[i] = ln(1 + xs[i])` through the active lane dispatch.
///
/// Width 1 is bit-identical to `f64::ln_1p`; widths 4/8 are the ≤ 4
/// ulp-class polynomial kernel.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn ln_1p_slice(xs: &[f64], out: &mut [f64]) {
    run_op(Ln1pOp, xs, out, f64::ln_1p);
}

// ---------------------------------------------------------------------------
// Quadrature support kernels: interleaved fills and plain reductions
// ---------------------------------------------------------------------------
//
// These are deliberately *not* dispatched: quadrature rows are often a
// few dozen nodes, so a real function call per segment (a trampoline
// cannot inline into its baseline caller) would cost more than the wider
// vectors save. Inlined at baseline codegen they still auto-vectorize
// (SSE2) and stay a small fraction of the transcendental kernel cost.

/// Fills the `W`-interleaved buffer `dst[i·W + w] = a[w] + b[w]·vs[i]`
/// — the argument fill of a `W`-item batched quadrature sweep (one `v`
/// node feeding `W` integrals at once).
///
/// # Panics
///
/// Panics if `dst.len() != vs.len() · W`.
#[inline(always)]
pub fn lane_affine_fill<const W: usize>(a: &[f64; W], b: &[f64; W], vs: &[f64], dst: &mut [f64]) {
    assert_eq!(dst.len(), vs.len() * W, "interleaved fill length mismatch");
    for (chunk, &v) in dst.chunks_exact_mut(W).zip(vs) {
        let chunk: &mut [f64; W] = chunk.try_into().expect("chunks_exact yields W");
        for w in 0..W {
            chunk[w] = a[w] + b[w] * v;
        }
    }
}

/// Accumulates `acc[w] += Σ_i terms[i·W + w]` — the unweighted segment
/// reduction of a batched quadrature sweep, for callers that factor a
/// segment-constant weight out of the sum. Each lane's partial sum is
/// sequential in `i` (vectorization runs *across* the `W` lanes), so it
/// reproduces a scalar left-to-right sum bit for bit.
///
/// # Panics
///
/// Panics if `terms.len()` is not a multiple of `W`.
#[inline(always)]
pub fn lane_sum_acc<const W: usize>(terms: &[f64], acc: &mut [f64; W]) {
    assert_eq!(terms.len() % W, 0, "lane sum length mismatch");
    for chunk in terms.chunks_exact(W) {
        let chunk: &[f64; W] = chunk.try_into().expect("chunks_exact yields W");
        for w in 0..W {
            acc[w] += chunk[w];
        }
    }
}

/// Per-lane comparison mask `xs[w] <= threshold` — the branch condition
/// of a lane-parallel bisection step. NaN lanes compare false, matching
/// the scalar `if x <= t` the mask replaces.
#[inline(always)]
pub fn lane_le<const W: usize>(xs: &[f64; W], threshold: f64) -> [bool; W] {
    let mut mask = [false; W];
    for w in 0..W {
        mask[w] = xs[w] <= threshold;
    }
    mask
}

/// Horizontal OR of a lane mask: `true` if any lane is set.
#[inline(always)]
pub fn lane_any<const W: usize>(mask: &[bool; W]) -> bool {
    mask.iter().any(|&m| m)
}

// ---------------------------------------------------------------------------
// Row-blocked lane matrix-vector product (the (u, v) projection)
// ---------------------------------------------------------------------------

/// Rows `r0..r0 + R` of [`lane_matvec_acc`] in one pass over the `n`
/// components: `out[r0 + i][w] += Σ_k a[(r0 + i)·n + k] · z_tile[k·W + w]`,
/// each output `k`-sequential with a separate multiply and add, and the
/// `R·W` sums held in registers for the whole pass.
#[inline(always)]
fn matvec_pass<const W: usize, const R: usize>(
    a: &[f64],
    n: usize,
    z_tile: &[f64],
    r0: usize,
    out: &mut [[f64; W]],
) {
    let acc: &mut [[f64; W]; R] = (&mut out[r0..r0 + R])
        .try_into()
        .expect("the caller passes R rows");
    let rows: [&[f64]; R] = std::array::from_fn(|i| &a[(r0 + i) * n..][..n]);
    let mut sums = *acc;
    for (k, z) in (0..n).zip(z_tile.chunks_exact(W)) {
        let z: &[f64; W] = z.try_into().expect("chunks_exact yields W");
        for i in 0..R {
            // SAFETY: every row is sliced to exactly `n` elements above
            // and `k < n` comes from the range. (A checked index costs a
            // compare and branch per row and component, which the
            // compiler does not hoist: ~1.6× on the whole pass.)
            let c = unsafe { *rows[i].get_unchecked(k) };
            for w in 0..W {
                sums[i][w] += c * z[w];
            }
        }
    }
    *acc = sums;
}

/// Shared body of [`lane_matvec_acc`]: `P`-row passes, then the rows
/// left over in 4-, 2- and 1-row passes. One row's `k`-sequential sum is
/// a serial chain of dependent adds, bound by the add latency; `P`
/// independent chains per lane keep the vector adders busy. No pass
/// changes the order of any output's sum.
#[inline(always)]
fn lane_matvec_body<const W: usize, const P: usize>(
    a: &[f64],
    n: usize,
    z_tile: &[f64],
    out: &mut [[f64; W]],
) {
    let rows = out.len();
    let mut r0 = 0;
    while rows - r0 >= P {
        matvec_pass::<W, P>(a, n, z_tile, r0, out);
        r0 += P;
    }
    if P > 4 && rows - r0 >= 4 {
        matvec_pass::<W, 4>(a, n, z_tile, r0, out);
        r0 += 4;
    }
    if P > 2 && rows - r0 >= 2 {
        matvec_pass::<W, 2>(a, n, z_tile, r0, out);
        r0 += 2;
    }
    if rows > r0 {
        matvec_pass::<W, 1>(a, n, z_tile, r0, out);
    }
}

/// [`lane_matvec_acc`]'s dispatched call.
struct LaneMatvec<'a, const W: usize> {
    a: &'a [f64],
    n: usize,
    z_tile: &'a [f64],
    out: &'a mut [[f64; W]],
}

impl<const W: usize> Kernel for LaneMatvec<'_, W> {
    type Out = ();

    #[inline(always)]
    fn run(self, isa: Isa) {
        let LaneMatvec { a, n, z_tile, out } = self;
        match isa {
            // Eight rows take eight of AVX-512F's 32 vector registers at
            // `W = 8`; on sixteen registers their sums alone would fill
            // the file, and the spills cost more than the extra chains
            // gain, so every other tier runs four.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => lane_matvec_body::<W, 8>(a, n, z_tile, out),
            _ => lane_matvec_body::<W, 4>(a, n, z_tile, out),
        }
    }
}

/// Accumulates `out[r][w] += Σ_k a[r·n + k] · z_tile[k·W + w]`: the
/// row-major `out.len() × n` matrix `a` applied to each lane of a
/// `W`-interleaved SoA tile (`z_tile[k·W + w]` is component `k` of item
/// `w`). Every output accumulates in `k` order with a plain multiply then
/// add, so `out[r][w]` reproduces the scalar left-to-right sum
/// `out[r][w] += a[r·n + k]·z_k` bit for bit at any width, row count and
/// ISA. Rows run several per pass (eight under AVX-512F, four
/// otherwise, then 4-, 2- and 1-row passes for the rows left over), so
/// each lane has independent add chains in flight instead of waiting on
/// one row's chain; the passes run in the detected ISA's trampoline.
///
/// # Panics
///
/// Panics if `a.len() != out.len() · n` or `z_tile.len() != n · W`.
pub fn lane_matvec_acc<const W: usize>(a: &[f64], n: usize, z_tile: &[f64], out: &mut [[f64; W]]) {
    assert_eq!(a.len(), out.len() * n, "matrix shape mismatch");
    assert_eq!(z_tile.len(), n * W, "lane tile length mismatch");
    dispatch(LaneMatvec { a, n, z_tile, out });
}

// ---------------------------------------------------------------------------
// The failure term `−expm1(−scale·eˣ)` (StFast, hybrid, fleet)
// ---------------------------------------------------------------------------

/// Small-|z| arm of the failure term: `−expm1(z) = −(z + z²·P(z))`.
#[inline(always)]
fn failure_small(z: f64) -> f64 {
    -(z + (z * z) * exp_tail(z))
}

/// `|z|` bound for the two-term arm: dropping the `z³/6` series term
/// costs a relative `z²/6 ≤ 6.7·10⁻¹⁵`, two orders inside the 1e-12
/// lane budget. Quadrature arguments are dominated by this regime —
/// hazards vanish at early times — so the cheap arm carries most nodes.
const FAILURE_TINY_Z: f64 = 2e-7;

/// Tiny-|z| arm of the failure term: `−expm1(z) ≈ −(z + z²/2)`.
#[inline(always)]
fn failure_tiny(z: f64) -> f64 {
    -(z + 0.5 * (z * z))
}

/// Large-|z| arm of the failure term: `1 − e^z` (`z ≤ 0` by
/// construction). The −54 floor keeps `exp_core` out of the subnormal
/// range (see [`exp_m1_core`]); the select preserves NaN, which `max`
/// would swallow.
#[inline(always)]
fn failure_big(z: f64) -> f64 {
    // `!(z <= -54)` keeps NaN on the `z` side (a `max` or `||` would
    // either swallow it or emit a short-circuit branch).
    let floored = select(!(z <= -54.0), z, -54.0);
    1.0 - exp_core(floored)
}

/// The failure term of argument `x` from its negated hazard
/// `z = −scale·eˣ`: all three arms evaluated and one picked by `x`
/// against the thresholds `x_tiny < x_small` derived from `scale`. This
/// is the definition every screened route of [`FailureTerm`] reproduces.
#[inline(always)]
fn failure_finish_elem(x: f64, z: f64, x_tiny: f64, x_small: f64) -> f64 {
    let r = select(x < x_small, failure_small(z), failure_big(z));
    select(x < x_tiny, failure_tiny(z), r)
}

/// `1 − e^z` rounds to exactly 1.0 for every `z ≤ −FAILURE_SAT`
/// (`e^{−37.5} ≈ 5.2·10⁻¹⁷` is under half the f64 spacing below 1.0), so
/// a saturated chunk can be filled with 1.0 **bit-identically** to
/// evaluating the large-argument arm — the fill is a work-skip, not an
/// approximation.
const FAILURE_SAT: f64 = 37.5;

/// The argument threshold above which [`failure_term_slice`] at lane
/// widths > 1 produces **exactly** 1.0: `x ≥ ln(FAILURE_SAT / scale)`
/// forces the large arm, whose `1 − e^z` rounds to 1.0 with two decimal
/// orders of magnitude to spare against threshold rounding (saturation
/// starts at `|z| ≈ 37.43`, the screen guarantees `|z| ≥ 37.5·(1 − ε)`).
/// Quadrature drivers use this to skip saturated node runs wholesale:
/// a run of exact ones sums to the (exactly representable) run length,
/// so the skip changes no bits. NaN for `scale ≤ 0` or non-finite, which
/// makes every `x ≥ …` screen compare false.
pub fn failure_sat_threshold(scale: f64) -> f64 {
    (FAILURE_SAT / scale).ln()
}

/// The argument threshold below which the failure term needs only the
/// polynomial arms (tiny/small — one `exp` per element, no second
/// transcendental): `x < ln(EXPM1_SWITCH / scale)` guarantees
/// `|z| < EXPM1_SWITCH` for `z = −scale·e^x`. The fleet's block
/// parameters carry it for the [`LaneFold`] screens. NaN for `scale ≤ 0`
/// or non-finite, which makes every `x < …` comparison false.
pub fn failure_poly_threshold(scale: f64) -> f64 {
    (EXPM1_SWITCH / scale).ln()
}

/// The failure-term regime a chunk of arguments shares (see
/// [`hazard_regime`]).
enum Regime {
    /// Every argument `≥ x_sat`: the term rounds to exactly 1.
    Saturated,
    /// Every argument `< x_tiny`: `|z| <` [`FAILURE_TINY_Z`], the
    /// two-term arm.
    Tiny,
    /// Every argument `< x_small`: `|z| <` [`EXPM1_SWITCH`], so `expm1`
    /// takes its small arm (or the tiny one).
    Polynomial,
    /// Every argument `≥ x_small`: the large arm `1 − e^z`.
    Big,
    /// Anything else, every width-1 chunk, and any chunk with a NaN.
    Mixed,
}

/// Screens a chunk of log-hazard arguments into a [`Regime`]. The one
/// classifier of the failure term: [`failure_term_slice`] screens each
/// chunk with it, and the [`LaneFold`]s each block's lanes (they pass
/// `x_tiny = −∞`, which never screens `Tiny`, and take `Big` down their
/// general route). Each test is a lane compare folded with `&`, not
/// `&&`, so it stays one vector compare and one mask test with no
/// short-circuit branch; a per-chunk min/max tree cost the hybrid build
/// ~12%. A NaN argument fails every compare, so its chunk screens
/// [`Regime::Mixed`], the general cores. Width 1 always screens `Mixed`:
/// its general route is the libm expression, which the polynomial
/// shortcuts would not reproduce.
#[inline(always)]
fn hazard_regime<const W: usize>(arg: &[f64; W], x_tiny: f64, x_small: f64, x_sat: f64) -> Regime {
    if W == 1 {
        return Regime::Mixed;
    }
    let (mut sat, mut tiny, mut poly, mut big) = (true, true, true, true);
    for &a in arg {
        sat &= a >= x_sat;
        tiny &= a < x_tiny;
        poly &= a < x_small;
        big &= a >= x_small;
    }
    if sat {
        Regime::Saturated
    } else if tiny {
        Regime::Tiny
    } else if poly {
        Regime::Polynomial
    } else if big {
        Regime::Big
    } else {
        Regime::Mixed
    }
}

/// The negated hazard `z = −scale·eˣ` of the failure term.
#[inline(always)]
fn neg_hazard(x: f64, scale: f64) -> f64 {
    -scale * exp_core(x)
}

/// [`failure_term_slice`]'s dispatched lane route: [`CHUNK`]-element
/// chunks, each screened by [`hazard_regime`] and evaluated on the
/// cheapest route its regime allows; the ragged tail takes the general
/// expression [`failure_finish_elem`]. Every route evaluates the arms
/// that expression selects for its arguments, so the routes change
/// cost, never bits.
struct FailureTerm<'a> {
    xs: &'a [f64],
    scale: f64,
    out: &'a mut [f64],
}

impl Kernel for FailureTerm<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let FailureTerm { xs, scale, out } = self;
        // NaN thresholds (scale ≤ 0 or non-finite) fail every screen,
        // so every chunk takes the mixed route.
        let x_tiny = (FAILURE_TINY_Z / scale).ln();
        let x_small = failure_poly_threshold(scale);
        let x_sat = failure_sat_threshold(scale);
        let (chunks, tail) = xs.as_chunks::<CHUNK>();
        let (out_chunks, out_tail) = out.as_chunks_mut::<CHUNK>();
        for (x, o) in chunks.iter().zip(out_chunks) {
            let mut lanes = [0.0; CHUNK];
            match hazard_regime(x, x_tiny, x_small, x_sat) {
                Regime::Saturated => lanes = [1.0; CHUNK],
                Regime::Tiny => {
                    for w in 0..CHUNK {
                        lanes[w] = failure_tiny(neg_hazard(x[w], scale));
                    }
                }
                // A chunk screen proves only `x < x_small`: the tiny arm
                // is still picked per element.
                Regime::Polynomial => {
                    for w in 0..CHUNK {
                        let z = neg_hazard(x[w], scale);
                        lanes[w] = select(x[w] < x_tiny, failure_tiny(z), failure_small(z));
                    }
                }
                Regime::Big => {
                    for w in 0..CHUNK {
                        lanes[w] = failure_big(neg_hazard(x[w], scale));
                    }
                }
                Regime::Mixed => {
                    for w in 0..CHUNK {
                        let z = neg_hazard(x[w], scale);
                        lanes[w] = failure_finish_elem(x[w], z, x_tiny, x_small);
                    }
                }
            }
            *o = lanes;
        }
        for (o, &x) in out_tail.iter_mut().zip(tail) {
            *o = failure_finish_elem(x, neg_hazard(x, scale), x_tiny, x_small);
        }
    }
}

/// Fills `out[i] = −expm1(−scale · exp(xs[i]))` — the per-node failure
/// term of the StFast/hybrid quadratures (`xs` holds the log-domain
/// arguments `s1·u + s2·v`, `scale` the device area) and of the fleet's
/// mission-end composition.
///
/// Width 1 reproduces the engines' historical scalar expression
/// `-(-scale * x.exp()).exp_m1()` bit for bit. Widths 4/8 run one
/// dispatched kernel over eight-element chunks. Each element's value
/// is its `−expm1(z)` arm for `z = −scale·exp(x)`, chosen **by `x`**
/// against thresholds derived once from `scale` (`x_tiny =
/// ln(FAILURE_TINY_Z/scale)`, `x_small = ln(EXPM1_SWITCH/scale)`,
/// `x_sat = ln(FAILURE_SAT/scale)`). Because the arm depends only on
/// `(x, scale)`, each chunk can be screened into the cheapest route
/// without changing any element's bits:
///
/// * all `x ≥ x_sat` → every element's large arm rounds to exactly 1.0
///   (see `FAILURE_SAT`), so the chunk is filled with 1.0 — zero
///   transcendentals;
/// * all `x < x_tiny` → the tiny arm `−(z + z²/2)`, three flops past
///   the hazard `exp` (see `FAILURE_TINY_Z`);
/// * all `x < x_small` → the small arm `−(z + z²·P(z))` (or the tiny
///   one, per element), no second `exp`;
/// * all `x ≥ x_small` → the large arm `1 − e^z` alone;
/// * anything else, a NaN, and the ragged tail → all three arms
///   evaluated branchlessly and one selected per element.
///
/// The screen is per chunk, so one hot node costs only its own chunk the
/// general route. Results are identical across lane position, chunk
/// boundary and caller slicing. In-situ quadrature arguments are
/// dominated by the saturated and vanishing regimes (saturated hazards at
/// late times and large defects, vanishing hazards at early times),
/// which is what lets the lane path beat libm's early-exit fast paths.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn failure_term_slice(xs: &[f64], scale: f64, out: &mut [f64]) {
    assert_eq!(
        xs.len(),
        out.len(),
        "lane kernel input/output length mismatch"
    );
    if active_width() == LaneWidth::W1 {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = -(-scale * x.exp()).exp_m1();
        }
    } else {
        dispatch(FailureTerm { xs, scale, out });
    }
}

// ---------------------------------------------------------------------------
// Composition folds (chip composition inside the lane kernels)
// ---------------------------------------------------------------------------

/// A block failure probability as the compositions absorb it: clamped to
/// `[0, 1]`, NaN read as certain failure (a poisoned block must never
/// raise the reported survival).
#[inline(always)]
fn absorbed_p(p: f64) -> f64 {
    select(p.is_nan(), 1.0, p.clamp(0.0, 1.0))
}

/// How a `W`-chip tile's per-block failure probabilities compose into
/// each lane's chip log-survival `ln S` — the per-block step of the fused
/// survival kernels ([`ln_surv_tile_fold`], [`ln_surv_solve_fold`]) and
/// of a caller's mission-end composition. The width-1 instances are
/// `statobd-core`'s `CompositionAccumulator`: a chip composes to the same
/// bits there and in a width-1 fleet tile.
///
/// A fold is [`clear`](LaneFold::clear)ed, absorbs every block once in
/// block order, and is then read through
/// [`ln_survival`](LaneFold::ln_survival). Lane `w`'s result depends only
/// on lane `w`'s inputs, and the transcendentals are picked at compile
/// time on `W` (libm at width 1, the polynomial cores wider), so a chip's
/// bits never depend on which tile or lane it occupies.
pub trait LaneFold<const W: usize> {
    /// Resets every lane to the empty chip (`ln S = 0`).
    fn clear(&mut self);

    /// Absorbs block `j`'s lane failure probabilities `p` (clamped to
    /// `[0, 1]`; NaN counts as certain failure).
    fn absorb(&mut self, j: usize, p: &[f64; W]);

    /// Absorbs block `j` from its lane log-hazards `arg`, whose failure
    /// probabilities are `p = −expm1(−area·exp(arg))`. `x_small` and
    /// `x_sat` are the block's [`failure_poly_threshold`] and
    /// [`failure_sat_threshold`]: a fold screens the block's lanes against
    /// them with the classifier of [`failure_term_slice`]'s chunk screens,
    /// to skip work, never to change bits.
    fn absorb_hazard(&mut self, j: usize, arg: &[f64; W], area: f64, x_small: f64, x_sat: f64);

    /// Each lane's chip log-survival `ln S ≤ 0`.
    fn ln_survival(&self) -> [f64; W];
}

/// The weakest-link fold `ln S = Σ_j ln_1p(−p_j)`, lane by lane: the
/// paper's chip, which dies with its first block. The sum stays in
/// log-survival space, so the `10⁻⁶` regime keeps full relative
/// precision where a product of `1 − p_j` terms would cancel.
///
/// [`absorb`](LaneFold::absorb) — the once-per-chip mission-end entry —
/// evaluates libm `ln_1p` at every width, the mission-end expression the
/// lane-tiled fleet has always used. Per lifetime-solve probe,
/// [`absorb_hazard`](LaneFold::absorb_hazard) at widths > 1 screens each
/// block's lane arguments into a regime with the classifier of
/// [`failure_term_slice`]'s chunk screens — each screened route evaluates
/// the same elementwise expressions the general route selects for those
/// arguments, so the screens change cost, never bits:
///
/// * all `arg ≥ x_sat` → `p` rounds to exactly 1.0 (see `FAILURE_SAT`)
///   and `ln_1p(−1)` is `−∞`, so the block contributes an exact `−∞`
///   fill — zero transcendentals. (A dead block at age `x` forces
///   `ln S = −∞`; the solve's residual is then `+∞` and it bisects.)
/// * all `arg < x_small` → `|z| < EXPM1_SWITCH` takes `expm1`'s
///   small arm, and the resulting `p ≤ 0.293` keeps `−p` inside
///   `ln_1p`'s small-arm window `[−1/3, 0.5]` — one `exp` plus two
///   short polynomials, no second `exp` and no exponent split. This is
///   the regime the lifetime solve converges in (per-block `p` near the
///   fleet budget), so it carries most of its probes.
/// * anything else (or any NaN lane) → the general both-arm cores. The
///   fold has no tiny route, and takes all-big blocks down this one too.
///
/// Width 1 runs the general libm expression unscreened; it is the
/// weakest-link `CompositionAccumulator` every analytic engine and the
/// reliability manager compose through.
#[derive(Clone, Copy, Debug)]
pub struct WeakestLinkFold<const W: usize> {
    s: [f64; W],
}

impl<const W: usize> Default for WeakestLinkFold<W> {
    fn default() -> Self {
        WeakestLinkFold { s: [0.0; W] }
    }
}

impl<const W: usize> LaneFold<W> for WeakestLinkFold<W> {
    #[inline(always)]
    fn clear(&mut self) {
        self.s = [0.0; W];
    }

    #[inline(always)]
    fn absorb(&mut self, _j: usize, p: &[f64; W]) {
        for w in 0..W {
            self.s[w] += (-absorbed_p(p[w])).ln_1p();
        }
    }

    #[inline(always)]
    fn absorb_hazard(&mut self, _j: usize, arg: &[f64; W], area: f64, x_small: f64, x_sat: f64) {
        match hazard_regime(arg, f64::NEG_INFINITY, x_small, x_sat) {
            Regime::Saturated => {
                for sv in &mut self.s {
                    *sv += f64::NEG_INFINITY;
                }
            }
            Regime::Polynomial => {
                for w in 0..W {
                    let z = exp_core(arg[w]) * -area;
                    // expm1's small arm (|z| < EXPM1_SWITCH is certified)
                    // and ln_1p's small arm (−p ∈ [−0.293, 0] ⊂
                    // [−1/3, 0.5]) — the expressions the general cores
                    // select here.
                    let e = z + (z * z) * exp_tail(z);
                    let neg_p = -((-e).clamp(0.0, 1.0));
                    let t = neg_p / (2.0 + neg_p);
                    self.s[w] += 2.0 * t * atanh_poly(t * t);
                }
            }
            Regime::Tiny | Regime::Big | Regime::Mixed => {
                for w in 0..W {
                    // e = expm1(−A·g) = −p.
                    let e = exp_m1_w::<W>(exp_w::<W>(arg[w]) * -area);
                    self.s[w] += ln_1p_w::<W>(-absorbed_p(-e));
                }
            }
        }
    }

    #[inline(always)]
    fn ln_survival(&self) -> [f64; W] {
        self.s
    }
}

/// One block's update of a redundancy group's log-space Poisson-binomial
/// DP, `W` lanes at once — the recurrence of [`GroupFold`].
/// `ln_at[m][w]` is lane `w`'s `ln P(exactly m absorbed
/// blocks failed)` for `m ≤ spares = ln_at.len() − 1`, `ln_fail[w]` its
/// `ln P(more than spares failed)`; `p` holds the block's clamped failure
/// probabilities and `ln1mp` their `ln(1 − p)`, which callers often hold
/// more exactly than `ln_1p(−p)` would rebuild it. Only positive masses
/// are added, in log space, so nothing cancels even when `Q` sits at the
/// `p^(s+1)` scale:
///
/// ```text
/// ln_fail  ← logaddexp(ln_fail, ln_at[s] + ln p)
/// ln_at[m] ← logaddexp(ln_at[m] + ln(1 − p), ln_at[m − 1] + ln p),  m = s, …, 1
/// ln_at[0] ← ln_at[0] + ln(1 − p)
/// ```
///
/// A spare-less group is weakest-link over its blocks: only the last line
/// runs, and `ln_at[0]` is the running `Σ ln(1 − p)`.
///
/// # Panics
///
/// Panics if `ln_at` is empty.
#[inline(always)]
pub fn group_absorb<const W: usize>(
    ln_at: &mut [[f64; W]],
    ln_fail: &mut [f64; W],
    p: &[f64; W],
    ln1mp: &[f64; W],
) {
    // Plain lane loops throughout: `array::map` closures do not inline
    // into the `#[target_feature]` trampolines and would run per lane.
    let spares = ln_at.len() - 1;
    if spares > 0 {
        let mut lnp = [0.0; W];
        for w in 0..W {
            lnp[w] = ln_w::<W>(p[w]);
        }
        // Mass leaving the tracked window never comes back: fold it into
        // the tail before the in-window shift overwrites `ln_at[spares]`.
        for w in 0..W {
            ln_fail[w] = logaddexp_w::<W>(ln_fail[w], ln_at[spares][w] + lnp[w]);
        }
        for m in (1..=spares).rev() {
            for w in 0..W {
                ln_at[m][w] = logaddexp_w::<W>(ln_at[m][w] + ln1mp[w], ln_at[m - 1][w] + lnp[w]);
            }
        }
    }
    for w in 0..W {
        ln_at[0][w] += ln1mp[w];
    }
}

/// A redundancy group's log-survival `ln(1 − Q)` per lane, read from its
/// [`group_absorb`] state: `ln_at[0]` itself for a spare-less group (the
/// weakest-link sum, at full log-scale precision), `ln_1p(−exp(ln_fail))`
/// otherwise.
///
/// # Panics
///
/// Panics if `ln_at` is empty.
#[inline(always)]
pub fn group_ln_survival<const W: usize>(ln_at: &[[f64; W]], ln_fail: &[f64; W]) -> [f64; W] {
    if ln_at.len() == 1 {
        return ln_at[0];
    }
    let mut s = [0.0; W];
    for w in 0..W {
        s[w] = ln_1p_w::<W>(-exp_w::<W>(ln_fail[w]));
    }
    s
}

/// The lane-independent shape of a [`GroupFold`]: the redundancy group
/// of each block, and where each group's state sits in the fold's row
/// buffer — `spares + 1` rows of `ln_at[m]`, then one `ln_fail` row (see
/// [`group_absorb`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupLayout {
    /// Block → group index.
    group_of: Vec<usize>,
    /// Per group, its state rows.
    rows: Vec<std::ops::Range<usize>>,
}

impl GroupLayout {
    /// The layout of groups tolerating `spares[g]` block failures each,
    /// block `j` belonging to group `group_of[j]`.
    ///
    /// # Panics
    ///
    /// Panics if a block names a group outside `spares`.
    pub fn new(group_of: Vec<usize>, spares: &[usize]) -> Self {
        assert!(
            group_of.iter().all(|&g| g < spares.len()),
            "block assigned to an unknown redundancy group"
        );
        let mut next = 0;
        let rows = spares
            .iter()
            .map(|&s| {
                let r = next..next + s + 2;
                next = r.end;
                r
            })
            .collect();
        GroupLayout { group_of, rows }
    }

    /// The `[f64; W]` state rows one fold of this layout holds: the row
    /// buffer handed to [`GroupFold::new`] has `rows() · W` values.
    pub fn rows(&self) -> usize {
        self.rows.last().map_or(0, |r| r.end)
    }

    /// Each lane's chip log-survival, read from a fold's state `rows`
    /// (the buffer a [`GroupFold`] of this layout keeps its state in)
    /// without borrowing them mutably: the value of that fold's
    /// [`ln_survival`](LaneFold::ln_survival).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != self.rows() · W`.
    pub fn ln_survival<const W: usize>(&self, rows: &[f64]) -> [f64; W] {
        let (rows, rest) = rows.as_chunks::<W>();
        assert!(
            rest.is_empty() && rows.len() == self.rows(),
            "a group fold holds layout.rows() · W state values"
        );
        self.sum_groups(rows)
    }

    /// The chip log-survival: the groups' [`group_ln_survival`] summed in
    /// group order.
    #[inline(always)]
    fn sum_groups<const W: usize>(&self, rows: &[[f64; W]]) -> [f64; W] {
        let mut total = [0.0; W];
        for r in &self.rows {
            let (ln_fail, ln_at) = rows[r.clone()]
                .split_last()
                .expect("a group has state rows");
            let s = group_ln_survival::<W>(ln_at, ln_fail);
            for w in 0..W {
                total[w] += s[w];
            }
        }
        total
    }
}

/// The redundancy-group fold: every group runs the log-space
/// Poisson-binomial DP of [`group_absorb`] across the lanes, and the chip
/// log-survival sums the groups' [`group_ln_survival`] in group order.
/// A group with zero spares is weakest-link over its blocks, so
/// 1-out-of-1 groups reproduce the [`WeakestLinkFold`] bit for bit.
///
/// The state lives in a caller-owned row buffer sized once from the
/// layout, so folding a chip allocates nothing, for any number of groups
/// and spares.
#[derive(Debug)]
pub struct GroupFold<'a, const W: usize> {
    layout: &'a GroupLayout,
    rows: &'a mut [[f64; W]],
}

impl<'a, const W: usize> GroupFold<'a, W> {
    /// A fold of `layout` keeping its state in `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != layout.rows() · W`.
    pub fn new(layout: &'a GroupLayout, rows: &'a mut [f64]) -> Self {
        let (rows, rest) = rows.as_chunks_mut::<W>();
        assert!(
            rest.is_empty() && rows.len() == layout.rows(),
            "a group fold holds layout.rows() · W state values"
        );
        GroupFold { layout, rows }
    }

    /// Runs [`group_absorb`] on block `j`'s group.
    #[inline(always)]
    fn absorb_into_group(&mut self, j: usize, p: &[f64; W], ln1mp: &[f64; W]) {
        let rows = self.layout.rows[self.layout.group_of[j]].clone();
        let (ln_fail, ln_at) = self.rows[rows]
            .split_last_mut()
            .expect("a group has state rows");
        group_absorb::<W>(ln_at, ln_fail, p, ln1mp);
    }
}

impl<const W: usize> LaneFold<W> for GroupFold<'_, W> {
    #[inline(always)]
    fn clear(&mut self) {
        for r in &self.layout.rows {
            let group = &mut self.rows[r.clone()];
            group.fill([f64::NEG_INFINITY; W]);
            group[0] = [0.0; W];
        }
    }

    #[inline(always)]
    fn absorb(&mut self, j: usize, p: &[f64; W]) {
        let mut clamped = [0.0; W];
        let mut ln1mp = [0.0; W];
        for w in 0..W {
            clamped[w] = absorbed_p(p[w]);
            ln1mp[w] = ln_1p_w::<W>(-clamped[w]);
        }
        self.absorb_into_group(j, &clamped, &ln1mp);
    }

    #[inline(always)]
    fn absorb_hazard(&mut self, j: usize, arg: &[f64; W], area: f64, x_small: f64, x_sat: f64) {
        let mut z = [0.0; W];
        for w in 0..W {
            z[w] = exp_w::<W>(arg[w]) * -area;
        }
        // e = expm1(z) = −p. The screened regimes take the arm the
        // general core selects there: exactly −1 when saturated (see
        // [`FAILURE_SAT`]), the small polynomial when `|z|` is certified
        // below [`EXPM1_SWITCH`]; every other regime takes the general core.
        let mut e = [0.0; W];
        match hazard_regime(arg, f64::NEG_INFINITY, x_small, x_sat) {
            Regime::Saturated => e = [-1.0; W],
            Regime::Polynomial => {
                for w in 0..W {
                    e[w] = z[w] + (z[w] * z[w]) * exp_tail(z[w]);
                }
            }
            Regime::Tiny | Regime::Big | Regime::Mixed => {
                for w in 0..W {
                    e[w] = exp_m1_w::<W>(z[w]);
                }
            }
        }
        let mut p = [0.0; W];
        let mut ln1mp = [0.0; W];
        for w in 0..W {
            p[w] = absorbed_p(-e[w]);
            // `1 − p = e^z`, so `ln(1 − p)` is `z` itself — exact, and one
            // core cheaper than `ln_1p(−p)`, which width 1 keeps for the
            // scalar bits. (A NaN hazard is certain failure: `−∞`.)
            ln1mp[w] = if W == 1 {
                (-p[w]).ln_1p()
            } else {
                select(z[w].is_nan(), f64::NEG_INFINITY, z[w])
            };
        }
        self.absorb_into_group(j, &p, &ln1mp);
    }

    #[inline(always)]
    fn ln_survival(&self) -> [f64; W] {
        self.layout.sum_groups(self.rows)
    }
}

// ---------------------------------------------------------------------------
// Fused lane-tile survival kernels (fleet lifetime solve)
// ---------------------------------------------------------------------------

/// Body of [`ln_surv_tile_fold`]: per lane `w`, the chip log-survival
/// at log-age `x[w]`,
///
/// ```text
/// s[w] = fold over blocks j of p_jw = −expm1(−area_j·exp(arg_jw))
/// arg_jw = γ·bu[jW+w] + ½γ²·bbv[jW+w],   γ = ln_rate_j + x[w]
/// ```
///
/// absorbing the blocks in order through `fold`'s
/// [`absorb_hazard`](LaneFold::absorb_hazard). Under the
/// [`WeakestLinkFold`] every step is the exact expression the three-pass
/// `exp_slice` → scale → `exp_m1_slice` → clamp → `ln_1p_slice`
/// composition evaluates per element, summed block-sequentially per lane
/// (the scalar accumulation order, matching [`lane_sum_acc`]), so the
/// fusion changes no bits — it removes the per-pass dispatch overhead and
/// intermediate stores, which matter on the few-block tiles the fleet
/// produces (`n_blocks·W` is typically 8–32 elements).
#[inline(always)]
fn ln_surv_tile_body<const W: usize, F: LaneFold<W>>(
    x: &[f64; W],
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
    out: &mut [f64; W],
) {
    fold.clear();
    for (j, ((bp, bu_j), bbv_j)) in block_params
        .chunks_exact(4)
        .zip(bu.chunks_exact(W))
        .zip(bbv.chunks_exact(W))
        .enumerate()
    {
        let mut arg = [0.0; W];
        for w in 0..W {
            let gamma = bp[0] + x[w];
            arg[w] = gamma * bu_j[w] + 0.5 * gamma * gamma * bbv_j[w];
        }
        fold.absorb_hazard(j, &arg, bp[1], bp[2], bp[3]);
    }
    *out = fold.ln_survival();
}

/// [`ln_surv_tile_fold`]'s dispatched call.
struct TileFold<'a, const W: usize, F> {
    x: &'a [f64; W],
    block_params: &'a [f64],
    bu: &'a [f64],
    bbv: &'a [f64],
    fold: &'a mut F,
    out: &'a mut [f64; W],
}

impl<const W: usize, F: LaneFold<W>> Kernel for TileFold<'_, W, F> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let TileFold {
            x,
            block_params,
            bu,
            bbv,
            fold,
            out,
        } = self;
        ln_surv_tile_body::<W, F>(x, block_params, bu, bbv, fold, out);
    }
}

/// Checks the shape contract shared by the fused survival kernels.
fn assert_tile_shape<const W: usize>(block_params: &[f64], bu: &[f64], bbv: &[f64]) {
    assert_eq!(
        block_params.len() % 4,
        0,
        "block params are (ln_rate, area, x_small, x_sat) quads"
    );
    let n = block_params.len() / 4 * W;
    assert_eq!(bu.len(), n, "bu tile length mismatch");
    assert_eq!(bbv.len(), n, "bbv tile length mismatch");
}

/// One probe of the fleet's lane-parallel lifetime solve, fused:
/// fills `out[w]` with the `W`-chip tile's chip log-survivals at per-lane
/// log-ages `x[w]`, the blocks composed through `fold`.
/// `block_params` holds one `(ln_rate, area, x_small, x_sat)` quad per
/// block, where `x_small =` [`failure_poly_threshold`]`(area)` and
/// `x_sat =` [`failure_sat_threshold`]`(area)` are the precomputed
/// regime screens (see [`WeakestLinkFold`]); `bu`/`bbv` are the
/// `[block][lane]` SoA scratch (`bu[j·W + w]` is lane `w`'s `b_eff·u`
/// for block `j`).
///
/// The transcendentals are the fold's (libm at `W = 1`, the polynomial
/// cores wider); callers choose the fused kernel for the dispatch
/// economics, not different math: the fleet evaluates ~7 of these per
/// tile (the two bracket edges and ~5 solve probes) on slices of
/// `n_blocks·W` elements, where dispatched passes plus fixup loops per
/// probe would cost more than the transcendental work itself. Dispatch
/// is by detected ISA alone — the caller has already committed to the
/// lane width `W`.
///
/// # Panics
///
/// Panics if `block_params.len()` is not a multiple of 4 or `bu`/`bbv`
/// are not exactly `(block_params.len() / 4) · W` long.
pub fn ln_surv_tile_fold<const W: usize, F: LaneFold<W>>(
    x: &[f64; W],
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
    out: &mut [f64; W],
) {
    assert_tile_shape::<W>(block_params, bu, bbv);
    dispatch(TileFold {
        x,
        block_params,
        bu,
        bbv,
        fold,
        out,
    });
}

/// [`ln_surv_tile_fold`] under the [`WeakestLinkFold`]: the tile
/// log-survival sums `Σ_j ln_1p(−p_j)`.
///
/// # Panics
///
/// As [`ln_surv_tile_fold`].
pub fn ln_surv_tile_sum<const W: usize>(
    x: &[f64; W],
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    out: &mut [f64; W],
) {
    let mut fold = WeakestLinkFold::default();
    ln_surv_tile_fold::<W, _>(x, block_params, bu, bbv, &mut fold, out);
}

/// A lane-parallel masked lifetime bisection under the
/// [`WeakestLinkFold`] (the fleet's solve before [`ln_surv_solve_fold`],
/// kept for stage-by-stage replays): runs `steps` rounds of per-lane
/// bracket halving on `lo`/`hi` in place, against the log-survival
/// threshold `target`. Each round is one [`ln_surv_tile_sum`] call at
/// the per-lane midpoints, then a branchless select per lane: `hi`
/// moves to the midpoint where `s ≤ target`, `lo` elsewhere. The fold
/// reads a NaN hazard as certain failure, so a lane with a NaN input
/// has `s = −∞` at every midpoint and its bracket closes on its lower
/// edge.
///
/// # Panics
///
/// As [`ln_surv_tile_fold`].
pub fn ln_surv_bisect<const W: usize>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
) {
    for _ in 0..steps {
        let mut mid = [0.0; W];
        for w in 0..W {
            mid[w] = 0.5 * (lo[w] + hi[w]);
        }
        let mut s = [0.0; W];
        ln_surv_tile_sum::<W>(&mid, block_params, bu, bbv, &mut s);
        for w in 0..W {
            let le = s[w] <= target;
            hi[w] = select(le, mid[w], hi[w]);
            lo[w] = select(le, lo[w], mid[w]);
        }
    }
}

/// The Weibull-plot residual of lane log-survivals `s` against a target
/// survival `S*`: `f = ln(−s) − ln_neg_target`, with
/// `ln_neg_target = ln(−ln S*)` (see [`crate::root`]) and the lane
/// logarithm picked on `W` (libm at width 1).
#[inline(always)]
pub fn weibull_residual<const W: usize>(s: &[f64; W], ln_neg_target: f64) -> [f64; W] {
    let mut f = [0.0; W];
    for w in 0..W {
        f[w] = ln_w::<W>(-s[w]) - ln_neg_target;
    }
    f
}

/// [`ln_surv_solve_fold`]'s dispatched call: the whole solve, each probe
/// one [`ln_surv_tile_body`] pass.
struct Solve<'a, const W: usize, F> {
    solver: &'a mut Illinois<W>,
    ln_neg_target: f64,
    block_params: &'a [f64],
    bu: &'a [f64],
    bbv: &'a [f64],
    fold: &'a mut F,
}

impl<const W: usize, F: LaneFold<W>> Kernel for Solve<'_, W, F> {
    type Out = ();

    #[inline(always)]
    fn run(self, _: Isa) {
        let Solve {
            solver,
            ln_neg_target,
            block_params,
            bu,
            bbv,
            fold,
        } = self;
        let mut s = [0.0; W];
        while !solver.done() {
            let x = solver.probe();
            ln_surv_tile_body::<W, F>(&x, block_params, bu, bbv, fold, &mut s);
            solver.update(&weibull_residual::<W>(&s, ln_neg_target));
        }
    }
}

/// The fleet's lane-parallel lifetime solve, whole-loop fused: runs
/// `solver` — an [`Illinois`] solve per lane on the Weibull-plot
/// residual, seeded by the caller from the lanes' bracket-edge
/// log-survivals through [`weibull_residual`] — to completion, and
/// returns its probe count. Each probe is one [`ln_surv_tile_fold`]
/// pass at the lanes' probe ages, its log-survivals turned into
/// residuals against `ln_neg_target = ln(−ln S*)`. A stopped lane rides
/// along without moving, so its root depends on its own inputs and `W`
/// alone. Parameters and per-element math are [`ln_surv_tile_fold`]'s,
/// and one dispatched call runs the whole solve so its state stays in
/// registers.
///
/// # Panics
///
/// Panics if `block_params.len()` is not a multiple of 4 or `bu`/`bbv`
/// are not exactly `(block_params.len() / 4) · W` long.
pub fn ln_surv_solve_fold<const W: usize, F: LaneFold<W>>(
    solver: &mut Illinois<W>,
    ln_neg_target: f64,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) -> u32 {
    assert_tile_shape::<W>(block_params, bu, bbv);
    dispatch(Solve {
        solver: &mut *solver,
        ln_neg_target,
        block_params,
        bu,
        bbv,
        fold,
    });
    solver.steps()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(got: f64, want: f64) -> f64 {
        if got == want {
            return 0.0;
        }
        (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn exp_core_matches_std_across_ranges() {
        // Log-spaced magnitudes both signs plus engine-typical arguments.
        let mut worst = 0.0f64;
        for i in 0..8000 {
            let mag = 10f64.powf(-8.0 + 11.0 * i as f64 / 7999.0).min(709.0);
            for x in [mag, -mag] {
                let e = rel_err(exp_core(x), x.exp());
                worst = worst.max(e);
            }
        }
        assert!(worst < 2e-15, "worst exp rel err {worst:e}");
    }

    #[test]
    fn exp_core_edges() {
        assert_eq!(exp_core(0.0), 1.0);
        assert_eq!(exp_core(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_core(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_core(-800.0), 0.0);
        assert_eq!(exp_core(800.0), f64::INFINITY);
        assert_eq!(exp_core(710.0), f64::INFINITY);
        assert!(exp_core(f64::NAN).is_nan());
        // Near-overflow boundary stays finite where libm is finite.
        let x = 709.78;
        assert!(exp_core(x).is_finite(), "exp({x}) overflowed");
        assert!(rel_err(exp_core(x), x.exp()) < 2e-15);
        // Subnormal window underflows gradually, not abruptly.
        assert!(exp_core(-745.0) > 0.0);
    }

    #[test]
    fn exp_m1_core_matches_std() {
        let mut worst = 0.0f64;
        for i in 0..8000 {
            let mag = 10f64.powf(-10.0 + 12.7 * i as f64 / 7999.0);
            for x in [mag, -mag] {
                let e = rel_err(exp_m1_core(x), x.exp_m1());
                worst = worst.max(e);
            }
        }
        assert!(worst < 4e-15, "worst exp_m1 rel err {worst:e}");
        assert_eq!(exp_m1_core(0.0), 0.0);
        assert_eq!(exp_m1_core(f64::NEG_INFINITY), -1.0);
        assert_eq!(exp_m1_core(f64::INFINITY), f64::INFINITY);
        assert!(exp_m1_core(f64::NAN).is_nan());
        // Deeply negative arguments saturate to exactly -1.
        assert_eq!(exp_m1_core(-1e6), -1.0);
    }

    #[test]
    fn ln_1p_core_matches_std() {
        let mut worst = 0.0f64;
        for i in 0..8000 {
            let mag = 10f64.powf(-12.0 + 24.0 * i as f64 / 7999.0);
            let e = rel_err(ln_1p_core(mag), mag.ln_1p());
            worst = worst.max(e);
            if mag < 1.0 {
                let e = rel_err(ln_1p_core(-mag), (-mag).ln_1p());
                worst = worst.max(e);
            }
        }
        // Near −1 from above (large negative logs).
        for &x in &[-0.999, -1.0 + 1e-9, -1.0 + 1e-15] {
            worst = worst.max(rel_err(ln_1p_core(x), x.ln_1p()));
        }
        assert!(worst < 4e-15, "worst ln_1p rel err {worst:e}");
        assert_eq!(ln_1p_core(0.0), 0.0);
        assert_eq!(ln_1p_core(-1.0), f64::NEG_INFINITY);
        assert!(ln_1p_core(-1.5).is_nan());
        assert_eq!(ln_1p_core(f64::INFINITY), f64::INFINITY);
        assert!(ln_1p_core(f64::NAN).is_nan());
    }

    #[test]
    fn lanes_agree_with_cores_any_width() {
        let xs = [-700.0, -5.25, -0.3, 0.0, 0.17, 3.9, 42.0, 300.0];
        let via4a = F64Lanes::<4>::from_slice(&xs[..4]).exp().to_array();
        let via4b = F64Lanes::<4>::from_slice(&xs[4..]).exp().to_array();
        let via8 = F64Lanes::<8>::from_slice(&xs).exp().to_array();
        for (i, &x) in xs.iter().enumerate() {
            let want = exp_core(x);
            let got4 = if i < 4 { via4a[i] } else { via4b[i - 4] };
            assert_eq!(got4.to_bits(), want.to_bits(), "w4 lane {i}");
            assert_eq!(via8[i].to_bits(), want.to_bits(), "w8 lane {i}");
        }
    }

    #[test]
    fn lanes_arithmetic() {
        let a = F64Lanes::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = F64Lanes::<4>::splat(0.5);
        assert_eq!((a + b).to_array(), [1.5, 2.5, 3.5, 4.5]);
        assert_eq!((a - b).to_array(), [0.5, 1.5, 2.5, 3.5]);
        assert_eq!((a * b).to_array(), [0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.map(|x| x * x).to_array(), [1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn slice_kernels_are_chunk_invariant() {
        // Results must not depend on where the chunk boundaries fall:
        // evaluate every suffix of a 21-element slice (full chunks plus
        // each remainder) and compare against the core one by one.
        let xs: Vec<f64> = (0..21).map(|i| -60.0 + 6.5 * i as f64).collect();
        for start in 0..=CHUNK {
            let xs = &xs[start..];
            let mut out = vec![0.0; xs.len()];
            dispatch(MapSlice {
                op: ExpOp,
                xs,
                out: &mut out,
            });
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    exp_core(x).to_bits(),
                    "start {start} idx {i}"
                );
            }
        }
    }

    /// The elementwise definition `failure_term_slice` promises at lane
    /// widths: arm choice by `x` against thresholds derived from `scale`.
    fn failure_term_reference(x: f64, scale: f64) -> f64 {
        let x_tiny = (FAILURE_TINY_Z / scale).ln();
        let x_small = (EXPM1_SWITCH / scale).ln();
        let z = -scale * exp_core(x);
        let r = select(x < x_small, failure_small(z), failure_big(z));
        select(x < x_tiny, failure_tiny(z), r)
    }

    #[test]
    fn failure_term_matches_composition() {
        // A cyclic argument spread puts most chunks in the mixed regime
        // (vanishing to saturated within one chunk); homogeneous
        // stretches after it make the saturated-fill and tiny screens
        // fire, and the total leaves a ragged tail.
        let mut xs: Vec<f64> = (0..521).map(|i| -20.0 + 4.0 * (i % 11) as f64).collect();
        xs.extend(std::iter::repeat_n(30.0, 515));
        xs.extend(std::iter::repeat_n(-40.0, 515));
        let scale = 3.2e-3;
        let mut out = vec![0.0; xs.len()];
        for w in [LaneWidth::W4, LaneWidth::W8] {
            force_width(Some(w));
            failure_term_slice(&xs, scale, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                let want = failure_term_reference(x, scale);
                assert_eq!(got.to_bits(), want.to_bits(), "{w:?} x={x}");
                assert!((0.0..=1.0).contains(&got));
                // The x-routed arms stay within the lane error budget of
                // the historical scalar expression.
                let scalar = -(-scale * x.exp()).exp_m1();
                assert!(
                    rel_err(got, scalar) < 1e-12,
                    "{w:?} x={x} got={got} scalar={scalar}"
                );
            }
        }
        force_width(None);
    }

    #[test]
    fn failure_term_saturated_fill_is_exact() {
        // For z ≤ −FAILURE_SAT the large arm rounds to exactly 1.0, so
        // the chunk fill must be bit-identical to evaluating the arm.
        for z in [-FAILURE_SAT, -38.0, -54.0, -60.0, -700.0] {
            assert_eq!(failure_big(z).to_bits(), 1.0f64.to_bits(), "z={z}");
        }
        // NaN still propagates, through a whole chunk and the tail.
        force_width(Some(LaneWidth::W8));
        let xs = [f64::NAN; 12];
        let mut out = [0.0; 12];
        failure_term_slice(&xs, 1.0, &mut out);
        assert!(out.iter().all(|o| o.is_nan()));
        force_width(None);
    }

    #[test]
    fn small_screen_keeps_tiny_arm_per_element() {
        // A slice wholly below `x_small` takes the polynomial route, but
        // elements below `x_tiny` must still get the tiny arm — the arm
        // choice is a function of `(x, scale)` alone, or results would
        // depend on how callers slice the input.
        let scale = 1e-3;
        let x_tiny = (FAILURE_TINY_Z / scale).ln();
        let x_small = (EXPM1_SWITCH / scale).ln();
        let xs: Vec<f64> = (0..257)
            .map(|i| x_tiny - 2.0 + 4.0 * i as f64 / 256.0)
            .collect();
        assert!(xs.iter().all(|&x| x < x_small), "stays below the screen");
        assert!(
            xs.iter().any(|&x| x < x_tiny) && xs.iter().any(|&x| x >= x_tiny),
            "straddles the tiny threshold"
        );
        let mut out = vec![0.0; xs.len()];
        for w in [LaneWidth::W4, LaneWidth::W8] {
            force_width(Some(w));
            failure_term_slice(&xs, scale, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                let want = failure_term_reference(x, scale);
                assert_eq!(got.to_bits(), want.to_bits(), "{w:?} x={x}");
            }
        }
        force_width(None);
    }

    /// Whether `got` carries `want`'s bits, or is a NaN where `want` is
    /// one (LLVM keeps neither a NaN's sign nor its payload across its
    /// rewrites).
    fn same_term(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    #[test]
    fn failure_term_chunks_match_the_elementwise_reference() {
        // Every chunk route (saturated fill, tiny, polynomial, big and
        // mixed) and the ragged tail must give the elementwise
        // reference's bits, at any slice length and start offset, so
        // that where the chunk boundaries fall never matters.
        let scale = 1e-3;
        let x_tiny = (FAILURE_TINY_Z / scale).ln();
        let x_small = failure_poly_threshold(scale);
        let x_sat = failure_sat_threshold(scale);
        let ramp = |lo: f64, hi: f64| -> [f64; CHUNK] {
            std::array::from_fn(|i| lo + (hi - lo) * i as f64 / (CHUNK - 1) as f64)
        };
        let with = |mut c: [f64; CHUNK], at: &[(usize, f64)]| {
            for &(i, x) in at {
                c[i] = x;
            }
            c
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // Each chunk with the route its screen must pick.
        let chunks = [
            (ramp(x_sat, x_sat + 30.0), "saturated"),
            ([inf; CHUNK], "saturated"),
            (ramp(x_tiny - 30.0, x_tiny - 1e-9), "tiny"),
            (
                with(ramp(x_tiny - 30.0, x_tiny - 1.0), &[(2, -inf)]),
                "tiny",
            ),
            (ramp(x_tiny - 1.0, x_small - 1e-9), "polynomial"),
            (ramp(x_small, x_sat + 1.0), "big"),
            (ramp(x_small - 0.5, x_small + 0.5), "mixed"),
            (ramp(x_tiny - 5.0, x_sat + 5.0), "mixed"),
            (with(ramp(x_sat, x_sat + 3.0), &[(5, nan)]), "mixed"),
            (with(ramp(x_tiny - 9.0, x_tiny - 2.0), &[(0, nan)]), "mixed"),
            (
                with(ramp(x_tiny - 9.0, x_small + 2.0), &[(3, inf), (6, -inf)]),
                "mixed",
            ),
        ];
        for (c, want) in &chunks {
            let got = match hazard_regime(c, x_tiny, x_small, x_sat) {
                Regime::Saturated => "saturated",
                Regime::Tiny => "tiny",
                Regime::Polynomial => "polynomial",
                Regime::Big => "big",
                Regime::Mixed => "mixed",
            };
            assert_eq!(got, *want, "{c:?}");
        }
        let xs: Vec<f64> = chunks.iter().flat_map(|(c, _)| *c).collect();
        let check = |xs: &[f64], what: &str| {
            let mut out = vec![0.0; xs.len()];
            failure_term_slice(xs, scale, &mut out);
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let want = failure_term_reference(x, scale);
                assert!(
                    same_term(got, want),
                    "{what} idx {i} x={x}: {got:e} vs {want:e}"
                );
            }
        };
        for w in [LaneWidth::W4, LaneWidth::W8] {
            force_width(Some(w));
            check(&xs, &format!("{w:?} whole"));
            for at in (0..xs.len()).step_by(CHUNK) {
                for start in 0..CHUNK {
                    for len in 0..=17 {
                        let from = at + start;
                        if from + len <= xs.len() {
                            let what = format!("{w:?} xs[{from}..][..{len}]");
                            check(&xs[from..from + len], &what);
                        }
                    }
                }
            }
        }
        force_width(None);
    }

    #[test]
    fn lane_matvec_acc_matches_scalar_bitwise() {
        // Every output must reproduce the scalar k-sequential
        // multiply-then-add sum from its seed bit for bit — the property
        // the (u, v) tile projection rests on — at every row count (whole
        // 8- and 4-row passes and every 4/2/1-row tail), through the
        // dispatched kernel and the body at both pass heights. (Each ISA's
        // trampoline is checked against the portable run in
        // `every_kernel_runs_alike_in_every_trampoline`.)
        fn check<const W: usize>() {
            let n = 37;
            let z_tile: Vec<f64> = (0..n * W).map(|i| (i as f64 * 0.831).sin()).collect();
            for rows in (0..=20).chain([71, 72, 73]) {
                let a: Vec<f64> = (0..rows * n)
                    .map(|i| (i as f64 * 0.377).cos() * 0.7)
                    .collect();
                let seed: Vec<[f64; W]> = (0..rows)
                    .map(|r| std::array::from_fn(|w| 0.01 * (r * W + w) as f64 - 0.3))
                    .collect();
                let mut expect = seed.clone();
                for (r, e) in expect.iter_mut().enumerate() {
                    for w in 0..W {
                        for k in 0..n {
                            e[w] += a[r * n + k] * z_tile[k * W + w];
                        }
                    }
                }
                let same = |got: &[[f64; W]], path: &str| {
                    for (r, (g, e)) in got.iter().zip(&expect).enumerate() {
                        for w in 0..W {
                            assert_eq!(
                                g[w].to_bits(),
                                e[w].to_bits(),
                                "{path}: W={W} rows={rows} row {r} lane {w}"
                            );
                        }
                    }
                };
                let mut out = seed.clone();
                lane_matvec_acc::<W>(&a, n, &z_tile, &mut out);
                same(&out, "dispatched");
                let mut out = seed.clone();
                lane_matvec_body::<W, 4>(&a, n, &z_tile, &mut out);
                same(&out, "4-row body");
                let mut out = seed.clone();
                lane_matvec_body::<W, 8>(&a, n, &z_tile, &mut out);
                same(&out, "8-row body");
            }
        }
        check::<1>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn lane_masks_and_selects() {
        let xs = [1.0, 2.0, f64::NAN, -3.0];
        let mask = lane_le::<4>(&xs, 1.5);
        assert_eq!(mask, [true, false, false, true]);
        // Selects are bit-exact: -0.0 and NaN payloads survive.
        assert_eq!(select(true, -0.0, f64::NAN).to_bits(), (-0.0f64).to_bits());
        assert!(select(false, -0.0, f64::NAN).is_nan());
        assert!(lane_any::<4>(&mask));
        assert!(!lane_any::<2>(&[false, false]));
    }

    #[test]
    fn ln_surv_tile_sum_matches_three_pass_composition_bitwise() {
        // The fused kernel must evaluate exactly what the dispatched
        // exp → scale → exp_m1 → clamp → ln_1p pipeline evaluates — the
        // bisection's cross-width agreement bound is derived from that
        // composition's error budget, and the fusion is a dispatch
        // economization, not a re-derivation.
        const W: usize = 8;
        let mut block_params = Vec::new();
        for (ln_rate, area) in [(2.1, 60_000.0), (1.7, 140_000.0), (-0.4, 5.0)] {
            block_params.extend([
                ln_rate,
                area,
                failure_poly_threshold(area),
                failure_sat_threshold(area),
            ]);
        }
        let n_blocks = block_params.len() / 4;
        let bu: Vec<f64> = (0..n_blocks * W)
            .map(|i| -9.0 - (i as f64 * 0.37).sin())
            .collect();
        let bbv: Vec<f64> = (0..n_blocks * W)
            .map(|i| 1e-4 * (1.0 + (i as f64 * 0.61).cos()))
            .collect();
        // The x sweep crosses all three screened regimes (saturated
        // early ages, mixed, and the small-arm convergence zone).
        for x0 in [5.0, 10.0, 14.0, 18.0, 22.5, 26.0, 30.0] {
            let mut x = [0.0; W];
            for (w, xv) in x.iter_mut().enumerate() {
                *xv = x0 + 0.25 * w as f64;
            }
            let mut fused = [0.0; W];
            ln_surv_tile_sum::<W>(&x, &block_params, &bu, &bbv, &mut fused);

            // Reference: the three-pass composition over the same tile,
            // through the same cores.
            let mut a = vec![0.0; n_blocks * W];
            let mut b = vec![0.0; n_blocks * W];
            for j in 0..n_blocks {
                let ln_rate = block_params[4 * j];
                for w in 0..W {
                    let gamma = ln_rate + x[w];
                    a[j * W + w] = gamma * bu[j * W + w] + 0.5 * gamma * gamma * bbv[j * W + w];
                }
            }
            for (bi, &ai) in b.iter_mut().zip(&a) {
                *bi = exp_core(ai);
            }
            for j in 0..n_blocks {
                let area = block_params[4 * j + 1];
                for g in &mut b[j * W..(j + 1) * W] {
                    *g *= -area;
                }
            }
            for (ai, &bi) in a.iter_mut().zip(&b) {
                *ai = exp_m1_core(bi);
            }
            for e in a.iter_mut() {
                *e = -((-*e).clamp(0.0, 1.0));
            }
            for (bi, &ai) in b.iter_mut().zip(&a) {
                *bi = ln_1p_core(ai);
            }
            let mut want = [0.0; W];
            lane_sum_acc::<W>(&b, &mut want);
            for w in 0..W {
                assert_eq!(fused[w].to_bits(), want[w].to_bits(), "lane {w} at x0 {x0}");
            }
        }
    }

    #[test]
    fn group_fold_lanes_match_their_width_1_instance() {
        // Two groups — blocks 0 and 2 share one spare, block 1 has none —
        // through the fused tile kernel over ages spanning the saturated,
        // mixed and polynomial regimes: each lane of the 8-wide fold sits
        // within the lane cores' budget of the libm width-1 fold on that
        // lane's inputs, and the 4-wide fold matches it bitwise.
        let layout = GroupLayout::new(vec![0, 1, 0], &[1, 0]);
        let mut block_params = Vec::new();
        for (ln_rate, area) in [(2.1, 60_000.0), (1.7, 140_000.0), (-0.4, 5.0)] {
            block_params.extend([
                ln_rate,
                area,
                failure_poly_threshold(area),
                failure_sat_threshold(area),
            ]);
        }
        let bu: Vec<f64> = (0..24).map(|i| -9.0 - (i as f64 * 0.37).sin()).collect();
        let bbv: Vec<f64> = (0..24)
            .map(|i| 1e-4 * (1.0 + (i as f64 * 0.61).cos()))
            .collect();
        let lane = |w: usize, x: f64| -> f64 {
            let pick = |v: &[f64]| -> Vec<f64> { (0..3).map(|j| v[j * 8 + w]).collect() };
            let mut rows = vec![0.0; layout.rows()];
            let mut s = [0.0];
            let mut fold = GroupFold::<1>::new(&layout, &mut rows);
            ln_surv_tile_fold::<1, _>(
                &[x],
                &block_params,
                &pick(&bu),
                &pick(&bbv),
                &mut fold,
                &mut s,
            );
            s[0]
        };
        for x0 in [5.0, 10.0, 14.0, 18.0, 22.5, 26.0, 30.0] {
            let x: [f64; 8] = std::array::from_fn(|w| x0 + 0.25 * w as f64);
            let mut rows = vec![0.0; layout.rows() * 8];
            let mut s8 = [0.0; 8];
            let mut fold = GroupFold::<8>::new(&layout, &mut rows);
            ln_surv_tile_fold::<8, _>(&x, &block_params, &bu, &bbv, &mut fold, &mut s8);
            for half in 0..2 {
                let lanes = |v: &[f64]| -> Vec<f64> {
                    (0..3)
                        .flat_map(|j| v[j * 8 + 4 * half..j * 8 + 4 * half + 4].to_vec())
                        .collect()
                };
                let x4: [f64; 4] = std::array::from_fn(|w| x[4 * half + w]);
                let mut rows = vec![0.0; layout.rows() * 4];
                let mut s4 = [0.0; 4];
                let mut fold = GroupFold::<4>::new(&layout, &mut rows);
                ln_surv_tile_fold::<4, _>(
                    &x4,
                    &block_params,
                    &lanes(&bu),
                    &lanes(&bbv),
                    &mut fold,
                    &mut s4,
                );
                for w in 0..4 {
                    assert_eq!(
                        s4[w].to_bits(),
                        s8[4 * half + w].to_bits(),
                        "w4 vs w8 at {x0}"
                    );
                }
            }
            for w in 0..8 {
                let want = lane(w, x[w]);
                assert!(
                    rel_err(s8[w], want) < 1e-12,
                    "lane {w} at x0 {x0}: {:e} vs {want:e}",
                    s8[w]
                );
            }
        }
    }

    #[test]
    fn lane_width_parse_and_display() {
        assert_eq!(LaneWidth::parse("1"), Some(LaneWidth::W1));
        assert_eq!(LaneWidth::parse(" 4 "), Some(LaneWidth::W4));
        assert_eq!(LaneWidth::parse("8"), Some(LaneWidth::W8));
        assert_eq!(LaneWidth::parse("2"), None);
        assert_eq!(LaneWidth::parse("fast"), None);
        assert_eq!(LaneWidth::W8.to_string(), "8");
        assert_eq!(LaneWidth::W4.lanes(), 4);
    }

    /// Runs [`ln_surv_solve_fold`] on a `W`-chip tile and checks each
    /// active lane's root, bit for bit, against a one-lane Illinois loop
    /// over that lane's own log-survivals; inactive lanes never move.
    /// Returns the kernel's probe count.
    fn check_solve_against_lane_loops<const W: usize, F: LaneFold<W>>(
        block_params: &[f64],
        bu: &[f64],
        bbv: &[f64],
        target: f64,
        masked: &[bool; W],
        fold: &mut F,
    ) -> u32 {
        let (lo, hi) = (1e2f64.ln(), 1e16f64.ln());
        let (tol, c) = (1e-13, (-target).ln());
        let mut s_lo = [0.0; W];
        let mut s_hi = [0.0; W];
        ln_surv_tile_fold::<W, F>(&[lo; W], block_params, bu, bbv, fold, &mut s_lo);
        ln_surv_tile_fold::<W, F>(&[hi; W], block_params, bu, bbv, fold, &mut s_hi);
        let mut active = [false; W];
        let mut censored = 0;
        for w in 0..W {
            let in_range = s_lo[w] > target && s_hi[w] <= target;
            censored += usize::from(!in_range);
            active[w] = in_range && !masked[w];
        }
        assert!(censored >= 2, "the tile must carry censored lanes");
        let (f_lo, f_hi) = (weibull_residual(&s_lo, c), weibull_residual(&s_hi, c));
        let mut solver = Illinois::<W>::new([lo; W], f_lo, [hi; W], f_hi, active, tol);
        let steps = ln_surv_solve_fold::<W, F>(&mut solver, c, block_params, bu, bbv, fold);
        let root = solver.roots();
        let mut most = 0;
        for w in 0..W {
            if !active[w] {
                assert_eq!(root[w], 0.5 * (lo + hi), "inactive lane {w}");
                continue;
            }
            // Lane w alone: each probe broadcast to the tile, lane w read
            // back (a lane's value depends on its own age only).
            let mut lane = Illinois::<1>::new([lo], [f_lo[w]], [hi], [f_hi[w]], [true], tol);
            let mut s = [0.0; W];
            while !lane.done() {
                let [x] = lane.probe();
                ln_surv_tile_fold::<W, F>(&[x; W], block_params, bu, bbv, fold, &mut s);
                lane.update(&[weibull_residual(&s, c)[w]]);
            }
            assert_eq!(root[w].to_bits(), lane.roots()[0].to_bits(), "lane {w}");
            assert!(!lane.nan()[0] && !solver.nan()[w]);
            most = most.max(lane.steps());
        }
        assert_eq!(steps, most, "the tile runs until its slowest lane stops");
        steps
    }

    /// A physical tile: three blocks whose hazards grow with age, lane
    /// slopes spread so that lane 1 has failed at the lower bracket edge
    /// and lane 2 never reaches the budget (both censored).
    fn solve_tile<const W: usize>() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut block_params = Vec::new();
        for (ln_rate, area) in [(-40.0, 5e4), (-38.5, 9e4), (-41.0, 3e4)] {
            block_params.extend([
                ln_rate,
                area,
                failure_poly_threshold(area),
                failure_sat_threshold(area),
            ]);
        }
        let n_blocks = block_params.len() / 4;
        let mut bu = vec![0.0; n_blocks * W];
        let mut bbv = vec![0.0; n_blocks * W];
        for j in 0..n_blocks {
            for w in 0..W {
                bu[j * W + w] = match w {
                    1 => 0.2,
                    2 => 30.0,
                    _ => 1.3 + 0.11 * w as f64 + 0.05 * j as f64,
                };
                bbv[j * W + w] = 0.004 + 0.001 * ((w + j) % 3) as f64;
            }
        }
        (block_params, bu, bbv)
    }

    #[test]
    fn fused_lifetime_solve_matches_per_lane_root_finder_loops() {
        let target = (-1e-6f64).ln_1p();
        fn run<const W: usize>(target: f64) {
            let (block_params, bu, bbv) = solve_tile::<W>();
            // The last lane is masked like a ragged tail's spare lane.
            let mut masked = [false; W];
            masked[W - 1] = true;
            let steps = check_solve_against_lane_loops::<W, _>(
                &block_params,
                &bu,
                &bbv,
                target,
                &masked,
                &mut WeakestLinkFold::<W>::default(),
            );
            assert!(
                (1..=8).contains(&steps),
                "weakest-link W={W}: {steps} probes"
            );
            let layout = GroupLayout::new(vec![0, 0, 0], &[1]);
            let mut rows = vec![0.0; layout.rows() * W];
            let steps = check_solve_against_lane_loops::<W, _>(
                &block_params,
                &bu,
                &bbv,
                target,
                &masked,
                &mut GroupFold::<W>::new(&layout, &mut rows),
            );
            assert!((1..=8).contains(&steps), "one spare W={W}: {steps} probes");
        }
        run::<4>(target);
        run::<8>(target);
    }

    #[test]
    fn ln_surv_bisect_lands_on_the_solve_roots_and_closes_censored_lanes_on_their_edges() {
        const W: usize = 8;
        let (block_params, bu, mut bbv) = solve_tile::<W>();
        // A NaN hazard in lane 5's first block: certain failure.
        let nan_lane = 5;
        bbv[nan_lane] = f64::NAN;
        let target = (-1e-6f64).ln_1p();
        let (lo0, hi0) = (1e2f64.ln(), 1e16f64.ln());
        let mut s_lo = [0.0; W];
        let mut s_hi = [0.0; W];
        ln_surv_tile_sum::<W>(&[lo0; W], &block_params, &bu, &bbv, &mut s_lo);
        ln_surv_tile_sum::<W>(&[hi0; W], &block_params, &bu, &bbv, &mut s_hi);
        let low: [bool; W] = std::array::from_fn(|w| s_lo[w] <= target);
        let high: [bool; W] = std::array::from_fn(|w| s_hi[w] > target);
        assert!(
            low[1] && low[nan_lane] && high[2],
            "the fixture's censored lanes"
        );
        let active: [bool; W] = std::array::from_fn(|w| !low[w] && !high[w]);
        assert_eq!(active.iter().filter(|&&a| a).count(), W - 3);

        let c = (-target).ln();
        let (f_lo, f_hi) = (weibull_residual(&s_lo, c), weibull_residual(&s_hi, c));
        let mut solver = Illinois::<W>::new([lo0; W], f_lo, [hi0; W], f_hi, active, 1e-13);
        let mut fold = WeakestLinkFold::<W>::default();
        ln_surv_solve_fold::<W, _>(&mut solver, c, &block_params, &bu, &bbv, &mut fold);
        let roots = solver.roots();

        let (mut lo, mut hi) = ([lo0; W], [hi0; W]);
        ln_surv_bisect::<W>(&mut lo, &mut hi, target, 52, &block_params, &bu, &bbv);
        for w in 0..W {
            if active[w] {
                let mid = 0.5 * (lo[w] + hi[w]);
                let gap = (mid - roots[w]).abs();
                assert!(
                    gap <= 1e-12,
                    "lane {w}: midpoint {mid} is {gap:e} off its root"
                );
            } else if low[w] {
                assert_eq!(lo[w], lo0, "lane {w} keeps its lower edge");
                assert!(hi[w] - lo0 <= 1e-12, "lane {w} closes on its lower edge");
            } else {
                assert_eq!(hi[w], hi0, "lane {w} keeps its upper edge");
                assert!(hi0 - lo[w] <= 1e-12, "lane {w} closes on its upper edge");
            }
        }
    }

    /// Runs `k` with one tier's codegen: `run` itself on the portable
    /// tier, that tier's trampoline otherwise.
    fn run_on<K: Kernel>(k: K, isa: Isa) -> K::Out {
        match isa {
            Isa::Portable => k.run(Isa::Portable),
            // SAFETY: `hosted_isas` lists only tiers the CPU reports.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { run_avx2(k) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { run_avx512(k) },
        }
    }

    /// The portable tier, then every trampoline this CPU can run.
    fn hosted_isas() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    /// Asserts that `run` — which builds a kernel with fresh outputs,
    /// runs it on the given tier and returns the output bits — gives the
    /// portable tier's bits on every tier the CPU runs.
    fn same_bits_on_every_isa(what: &str, run: impl Fn(Isa) -> Vec<u64>) {
        let want = run(Isa::Portable);
        assert!(!want.is_empty(), "{what}: no outputs");
        for isa in hosted_isas() {
            assert_eq!(run(isa), want, "{what} on {isa:?}");
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn map_alike<E: Elem>(what: &str, op: E, xs: &[f64]) {
        same_bits_on_every_isa(what, |isa| {
            let mut out = vec![0.0; xs.len()];
            run_on(
                MapSlice {
                    op,
                    xs,
                    out: &mut out,
                },
                isa,
            );
            bits(&out)
        });
    }

    fn slice_kernels_alike(xs: &[f64], scale: f64) {
        map_alike("exp", ExpOp, xs);
        map_alike("exp_m1", ExpM1Op, xs);
        map_alike("ln_1p", Ln1pOp, xs);
        same_bits_on_every_isa("failure term", |isa| {
            let mut out = vec![0.0; xs.len()];
            let term = FailureTerm {
                xs,
                scale,
                out: &mut out,
            };
            run_on(term, isa);
            bits(&out)
        });
    }

    fn matvec_alike<const W: usize>() {
        let n = 37;
        let z_tile: Vec<f64> = (0..n * W).map(|i| (i as f64 * 0.831).sin()).collect();
        // Whole 8- and 4-row passes and every 4/2/1-row tail.
        for rows in [1, 3, 7, 8, 13, 23] {
            let a: Vec<f64> = (0..rows * n)
                .map(|i| (i as f64 * 0.377).cos() * 0.7)
                .collect();
            same_bits_on_every_isa(&format!("matvec W={W} rows={rows}"), |isa| {
                let mut out = vec![[0.25; W]; rows];
                let matvec = LaneMatvec::<W> {
                    a: &a,
                    n,
                    z_tile: &z_tile,
                    out: &mut out,
                };
                run_on(matvec, isa);
                bits(out.as_flattened())
            });
        }
    }

    fn survival_kernels_alike<const W: usize>() {
        let (block_params, bu, mut bbv) = solve_tile::<W>();
        // A NaN hazard takes the folds' NaN route in its lane (a wider
        // tile's last; a one-lane tile keeps its lane to solve).
        if W > 1 {
            bbv[W - 1] = f64::NAN;
        }
        let layout = GroupLayout::new(vec![0, 1, 0], &[1, 0]);
        let (lo, hi) = (1e2f64.ln(), 1e16f64.ln());
        // Ages across the saturated, mixed and polynomial regimes.
        for x0 in [lo, 10.0, 16.0, 22.0, 28.0, hi] {
            let x: [f64; W] = std::array::from_fn(|w| x0 + 0.3 * w as f64);
            same_bits_on_every_isa(&format!("weakest-link tile W={W} x0={x0}"), |isa| {
                let mut out = [0.0; W];
                let tile = TileFold {
                    x: &x,
                    block_params: &block_params,
                    bu: &bu,
                    bbv: &bbv,
                    fold: &mut WeakestLinkFold::<W>::default(),
                    out: &mut out,
                };
                run_on(tile, isa);
                bits(&out)
            });
            same_bits_on_every_isa(&format!("group tile W={W} x0={x0}"), |isa| {
                let mut rows = vec![0.0; layout.rows() * W];
                let mut out = [0.0; W];
                let tile = TileFold {
                    x: &x,
                    block_params: &block_params,
                    bu: &bu,
                    bbv: &bbv,
                    fold: &mut GroupFold::<W>::new(&layout, &mut rows),
                    out: &mut out,
                };
                run_on(tile, isa);
                bits(&out)
            });
        }
        let target = (-1e-6f64).ln_1p();
        let c = (-target).ln();
        let mut s_lo = [0.0; W];
        let mut s_hi = [0.0; W];
        ln_surv_tile_sum::<W>(&[lo; W], &block_params, &bu, &bbv, &mut s_lo);
        ln_surv_tile_sum::<W>(&[hi; W], &block_params, &bu, &bbv, &mut s_hi);
        let active: [bool; W] = std::array::from_fn(|w| s_lo[w] > target && s_hi[w] <= target);
        assert!(
            active.contains(&true),
            "W={W}: the solve has a lane to solve"
        );
        let (f_lo, f_hi) = (weibull_residual(&s_lo, c), weibull_residual(&s_hi, c));
        let seed = Illinois::<W>::new([lo; W], f_lo, [hi; W], f_hi, active, 1e-13);
        let tile = (&block_params[..], &bu[..], &bbv[..]);
        same_bits_on_every_isa(&format!("weakest-link solve W={W}"), |isa| {
            solve_bits(isa, seed, tile, c, &mut WeakestLinkFold::<W>::default())
        });
        same_bits_on_every_isa(&format!("group solve W={W}"), |isa| {
            let mut rows = vec![0.0; layout.rows() * W];
            let mut fold = GroupFold::<W>::new(&layout, &mut rows);
            solve_bits(isa, seed, tile, c, &mut fold)
        });
    }

    /// Runs `solver` to completion as a [`Solve`] kernel on `isa` and
    /// returns the bits of its roots and its probe count.
    fn solve_bits<const W: usize, F: LaneFold<W>>(
        isa: Isa,
        mut solver: Illinois<W>,
        (block_params, bu, bbv): (&[f64], &[f64], &[f64]),
        ln_neg_target: f64,
        fold: &mut F,
    ) -> Vec<u64> {
        let kernel = Solve {
            solver: &mut solver,
            ln_neg_target,
            block_params,
            bu,
            bbv,
            fold,
        };
        run_on(kernel, isa);
        let mut out = bits(&solver.roots());
        out.push(u64::from(solver.steps()));
        out
    }

    /// The eigensolver's two sweeps on a 7 × 7 exponential kernel and a
    /// 12 × 12 matrix with a zero-`scale` row: the reduction's `d`, `e`
    /// and `Q`, then the QL sweep's eigenvalues and rotated basis.
    fn eigensolver_kernels_alike() {
        use crate::matrix::DMatrix;
        use crate::tridiag::{QlSweep, Reduction};
        let kernel = DMatrix::from_fn(49, 49, |i, j| {
            let (dx, dy) = ((i % 7).abs_diff(j % 7), (i / 7).abs_diff(j / 7));
            (-((dx * dx + dy * dy) as f64).sqrt() / 3.0).exp()
        });
        let split = DMatrix::from_fn(12, 12, |i, j| match (i < 5, j < 5) {
            (true, true) | (false, false) => (0.3 * (i + j) as f64).cos() + (i == j) as u8 as f64,
            _ => 0.0,
        });
        for a in [kernel, split] {
            let n = a.nrows();
            let reduce = |isa| {
                let mut q = a.clone();
                let (d, e) = run_on(Reduction(&mut q), isa);
                (d, e, q)
            };
            same_bits_on_every_isa(&format!("reduction n={n}"), |isa| {
                let (d, e, q) = reduce(isa);
                [bits(&d), bits(&e), bits(q.as_slice())].concat()
            });
            let (d, e, mut zt) = reduce(Isa::Portable);
            zt = zt.transpose();
            same_bits_on_every_isa(&format!("QL sweep n={n}"), |isa| {
                let (mut d, mut e, mut zt) = (d.clone(), e.clone(), zt.clone());
                let sweep = QlSweep {
                    d: &mut d,
                    e: &mut e,
                    zt: &mut zt,
                };
                run_on(sweep, isa).expect("QL converges");
                [bits(&d), bits(zt.as_slice())].concat()
            });
        }
    }

    #[test]
    fn every_kernel_runs_alike_in_every_trampoline() {
        // Every `Kernel` run through `run` (the portable tier) and through
        // each `#[target_feature]` trampoline this CPU supports must give
        // the same bits: the trampolines change codegen, never
        // arithmetic. The arguments put failure-term chunks in every
        // regime (tiny, polynomial, big, saturated and mixed), carry a
        // NaN, and leave a ragged tail after the last full chunk.
        let scale = 3.2e-3;
        let mut xs: Vec<f64> = (0..203).map(|i| -30.0 + 0.37 * i as f64).collect();
        xs[17] = f64::NAN;
        slice_kernels_alike(&xs, scale);
        matvec_alike::<1>();
        matvec_alike::<4>();
        matvec_alike::<8>();
        survival_kernels_alike::<1>();
        survival_kernels_alike::<4>();
        survival_kernels_alike::<8>();
        eigensolver_kernels_alike();
    }
}
