//! Runtime-dispatched, std-only SIMD-style lane layer for the hot
//! transcendental kernels.
//!
//! The reliability engines bottom out in three scalar loops: the StFast
//! `(u, v)` quadrature grids, the hybrid `(γ, b)` table fill and the MC
//! `[block][bin][t]` weight tables — all dominated by `exp`, `exp_m1`
//! and `ln_1p` calls. This module replaces those with *array-of-lanes*
//! kernels: plain `[f64; W]` chunks evaluated by branch-free
//! range-reduction + polynomial cores that LLVM auto-vectorizes, wrapped
//! in `#[target_feature]` clones so one binary carries portable, AVX2 and
//! AVX-512F code paths selected once at startup.
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
//!   boundary, vector width, or which ISA clone ran. Width 4 and width 8
//!   therefore agree **bitwise**; they differ from width 1 by the
//!   polynomial-vs-libm rounding (≈2 ulp-class, see below).
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
enum Isa {
    /// Baseline codegen (SSE2 on x86-64, NEON-ish elsewhere).
    Portable,
    /// AVX2 clone (256-bit lanes).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F clone (512-bit lanes).
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

fn isa_name() -> &'static str {
    match isa() {
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
        _ => format!("{} lanes ({}, {source})", w.lanes(), isa_name()),
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
// Slice kernels with per-ISA clones
// ---------------------------------------------------------------------------

/// An elementwise kernel instantiable inside the `#[target_feature]`
/// clones (a trait rather than a closure so monomorphization carries the
/// captured state — e.g. the fused kernel's scale — into each ISA body).
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

/// First pass of the StFast/hybrid node term: `−scale·exp(x)` (the
/// negated hazard). The term is evaluated in two lane passes rather
/// than one fused op — a single op would inline `exp_core` twice (once
/// directly, once inside the finish arm's large-argument side), and the
/// resulting register pressure in the unrolled chunk bodies costs more
/// than the intermediate's L1 round-trip saves.
#[derive(Clone, Copy)]
struct NegHazardOp {
    scale: f64,
}
impl Elem for NegHazardOp {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        -self.scale * exp_core(x)
    }
}

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

/// Single-pass failure term for a tile wholly below the small-|z|
/// threshold: `x ↦ −expm1(−scale·e^x)` via the small arm, with the tiny
/// arm still selected **per element** for `x < x_tiny` — a tile screen
/// only proves `x < x_small` for every element, and the arm choice must
/// stay a function of `(x, scale)` alone or results would depend on how
/// callers slice the input into tiles. Only one `exp_core` is inlined
/// (both arms are polynomial), so unlike the general fused term this op
/// fits the vector register budget — and it skips the intermediate-`z`
/// store/reload that the two-pass evaluation pays. Bits are identical
/// to the two-pass composition: `z` is computed by the same expression
/// and the arms by the same polynomials and select.
#[derive(Clone, Copy)]
struct SmallFusedOp {
    scale: f64,
    x_tiny: f64,
}
impl Elem for SmallFusedOp {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        let z = -self.scale * exp_core(x);
        select(x < self.x_tiny, failure_tiny(z), failure_small(z))
    }
}

/// Single-pass failure term for a tile wholly in the tiny-|z| regime:
/// one `exp_core` plus the two-term arm.
#[derive(Clone, Copy)]
struct TinyFusedOp {
    scale: f64,
}
impl Elem for TinyFusedOp {
    #[inline(always)]
    fn eval(self, x: f64) -> f64 {
        failure_tiny(-self.scale * exp_core(x))
    }
}

/// Second pass of the big-arm-only failure route: `z ↦ 1 − e^z` via
/// [`failure_big`]. Reachable only through
/// [`failure_term_slice_bounded`] with a caller-certified `lo ≥
/// x_small`, which proves every element takes the big arm of
/// [`failure_finish_elem`] — so this op is bit-identical to the 3-arm
/// finish while inlining one `exp_core` and no small/tiny polynomials.
#[derive(Clone, Copy)]
struct BigZOp;
impl Elem for BigZOp {
    #[inline(always)]
    fn eval(self, z: f64) -> f64 {
        failure_big(z)
    }
}

#[inline(always)]
fn failure_finish_elem(x: f64, z: f64, x_tiny: f64, x_small: f64) -> f64 {
    let r = select(x < x_small, failure_small(z), failure_big(z));
    select(x < x_tiny, failure_tiny(z), r)
}

#[inline(always)]
fn failure_finish_body<const W: usize>(
    xs: &[f64],
    zs: &[f64],
    x_tiny: f64,
    x_small: f64,
    out: &mut [f64],
) {
    let n = xs.len();
    let rem = n - n % W;
    for ((xc, zc), oc) in xs[..rem]
        .chunks_exact(W)
        .zip(zs[..rem].chunks_exact(W))
        .zip(out[..rem].chunks_exact_mut(W))
    {
        let xc: &[f64; W] = xc.try_into().expect("chunks_exact yields W");
        let zc: &[f64; W] = zc.try_into().expect("chunks_exact yields W");
        let oc: &mut [f64; W] = oc.try_into().expect("chunks_exact yields W");
        for w in 0..W {
            oc[w] = failure_finish_elem(xc[w], zc[w], x_tiny, x_small);
        }
    }
    for j in rem..n {
        out[j] = failure_finish_elem(xs[j], zs[j], x_tiny, x_small);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn failure_finish_avx2<const W: usize>(
    xs: &[f64],
    zs: &[f64],
    x_tiny: f64,
    x_small: f64,
    out: &mut [f64],
) {
    failure_finish_body::<W>(xs, zs, x_tiny, x_small, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn failure_finish_avx512<const W: usize>(
    xs: &[f64],
    zs: &[f64],
    x_tiny: f64,
    x_small: f64,
    out: &mut [f64],
) {
    failure_finish_body::<W>(xs, zs, x_tiny, x_small, out);
}

fn failure_finish<const W: usize>(
    xs: &[f64],
    zs: &[f64],
    x_tiny: f64,
    x_small: f64,
    out: &mut [f64],
) {
    match isa() {
        Isa::Portable => failure_finish_body::<W>(xs, zs, x_tiny, x_small, out),
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { failure_finish_avx2::<W>(xs, zs, x_tiny, x_small, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { failure_finish_avx512::<W>(xs, zs, x_tiny, x_small, out) },
    }
}

/// Chunked elementwise map: full `W`-lane chunks through fixed-size
/// arrays (the shape LLVM vectorizes), remainder through the same
/// elementwise core — so results never depend on where chunk boundaries
/// fall.
#[inline(always)]
fn map_slice<const W: usize, K: Elem>(k: K, xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let mut i = 0;
    while i + W <= n {
        let mut lanes = [0.0; W];
        lanes.copy_from_slice(&xs[i..i + W]);
        for lane in &mut lanes {
            *lane = k.eval(*lane);
        }
        out[i..i + W].copy_from_slice(&lanes);
        i += W;
    }
    for j in i..n {
        out[j] = k.eval(xs[j]);
    }
}

fn run_portable<const W: usize, K: Elem>(k: K, xs: &[f64], out: &mut [f64]) {
    map_slice::<W, K>(k, xs, out);
}

/// AVX2 clone of [`map_slice`]: same IEEE arithmetic (rustc does not
/// contract mul+add without explicit FMA calls), recompiled with 256-bit
/// vector codegen.
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<const W: usize, K: Elem>(k: K, xs: &[f64], out: &mut [f64]) {
    map_slice::<W, K>(k, xs, out);
}

/// AVX-512F clone of [`map_slice`].
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<const W: usize, K: Elem>(k: K, xs: &[f64], out: &mut [f64]) {
    map_slice::<W, K>(k, xs, out);
}

fn run_isa<const W: usize, K: Elem>(k: K, xs: &[f64], out: &mut [f64]) {
    match isa() {
        Isa::Portable => run_portable::<W, K>(k, xs, out),
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { run_avx2::<W, K>(k, xs, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { run_avx512::<W, K>(k, xs, out) },
    }
}

/// Dispatches one slice op: width 1 runs the caller-supplied exact `std`
/// expression; widths 4/8 run the polynomial kernel on the detected ISA.
#[inline]
fn run_op<K: Elem>(k: K, xs: &[f64], out: &mut [f64], scalar: impl Fn(f64) -> f64) {
    assert_eq!(
        xs.len(),
        out.len(),
        "lane kernel input/output length mismatch"
    );
    match active_width() {
        LaneWidth::W1 => {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = scalar(x);
            }
        }
        LaneWidth::W4 => run_isa::<4, K>(k, xs, out),
        LaneWidth::W8 => run_isa::<8, K>(k, xs, out),
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
// These are deliberately *not* ISA-dispatched: quadrature rows are often
// a few dozen nodes, so a real function call per segment (target_feature
// clones cannot inline into baseline callers) would cost more than the
// wider vectors save. Inlined at baseline codegen they still
// auto-vectorize (SSE2) and stay a small fraction of the transcendental
// kernel cost.

/// Fills `dst[i] = a + b·vs[i]` — the argument fill of a single
/// quadrature row (`s1·u + s2·v` over the `v` nodes).
///
/// # Panics
///
/// Panics if `vs.len() != dst.len()`.
#[inline(always)]
pub fn affine_slice(a: f64, b: f64, vs: &[f64], dst: &mut [f64]) {
    assert_eq!(vs.len(), dst.len(), "affine fill length mismatch");
    for (d, &v) in dst.iter_mut().zip(vs) {
        *d = a + b * v;
    }
}

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

/// AVX2 clone of [`lane_matvec_body`], four rows per pass: eight rows of
/// a `W = 8` tile would need all sixteen vector registers for their
/// sums alone, and the spills cost more than the extra chains gain.
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_matvec_avx2<const W: usize>(
    a: &[f64],
    n: usize,
    z_tile: &[f64],
    out: &mut [[f64; W]],
) {
    lane_matvec_body::<W, 4>(a, n, z_tile, out);
}

/// AVX-512F clone of [`lane_matvec_body`], eight rows per pass (eight of
/// the 32 vector registers at `W = 8`).
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_matvec_avx512<const W: usize>(
    a: &[f64],
    n: usize,
    z_tile: &[f64],
    out: &mut [[f64; W]],
) {
    lane_matvec_body::<W, 8>(a, n, z_tile, out);
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
/// one row's chain; the passes run in the detected ISA's clone.
///
/// # Panics
///
/// Panics if `a.len() != out.len() · n` or `z_tile.len() != n · W`.
pub fn lane_matvec_acc<const W: usize>(a: &[f64], n: usize, z_tile: &[f64], out: &mut [[f64; W]]) {
    assert_eq!(a.len(), out.len() * n, "matrix shape mismatch");
    assert_eq!(z_tile.len(), n * W, "lane tile length mismatch");
    match isa() {
        Isa::Portable => lane_matvec_body::<W, 4>(a, n, z_tile, out),
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { lane_matvec_avx2::<W>(a, n, z_tile, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { lane_matvec_avx512::<W>(a, n, z_tile, out) },
    }
}

/// Intermediate tile length for [`failure_term_slice`]'s two-pass
/// evaluation: 4 KiB of stack, small enough to stay L1-resident next to
/// the caller's argument and output buffers.
const FAILURE_TILE: usize = 512;

/// `1 − e^z` rounds to exactly 1.0 for every `z ≤ −FAILURE_SAT`
/// (`e^{−37.5} ≈ 5.2·10⁻¹⁷` is under half the f64 spacing below 1.0), so
/// a saturated tile can be filled with 1.0 **bit-identically** to
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
/// `|z| < EXPM1_SWITCH` for `z = −scale·e^x`. Quadrature drivers use
/// this to group node runs by regime before calling
/// [`failure_term_slice_bounded`] — the grouping affects only which
/// screened route runs, never any element's bits. NaN for `scale ≤ 0`
/// or non-finite, which makes every `x < …` comparison false.
pub fn failure_poly_threshold(scale: f64) -> f64 {
    (EXPM1_SWITCH / scale).ln()
}

/// Fills `out[i] = −expm1(−scale · exp(xs[i]))` — the per-node failure
/// term of the StFast/hybrid quadratures (`xs` holds the log-domain
/// arguments `s1·u + s2·v`, `scale` the device area).
///
/// Width 1 reproduces the engines' historical scalar expression
/// `-(-scale * x.exp()).exp_m1()` bit for bit. Widths 4/8 evaluate the
/// term in tiled lane passes: `z = −scale·exp(x)` first, then the
/// `−expm1(z)` arm chosen **per element by `x`** against thresholds
/// derived once from `scale` (`x_tiny = ln(FAILURE_TINY_Z/scale)`,
/// `x_small = ln(EXPM1_SWITCH/scale)`, `x_sat = ln(FAILURE_SAT/scale)`).
/// Because the arm choice depends only on `(x, scale)`, a tile-level
/// screen can skip work without changing any element's bits:
///
/// * all `x ≥ x_sat` → every element's large arm rounds to exactly 1.0
///   (see `FAILURE_SAT`), so the tile is filled with 1.0 — zero
///   transcendentals;
/// * all `x < x_tiny` → the tiny arm `−(z + z²/2)` is three flops past
///   the hazard `exp` (see `FAILURE_TINY_Z`);
/// * all `x < x_small` → the small arm `−(z + z²·P(z))` needs no second
///   `exp`, so the tile costs one transcendental pass;
/// * mixed tiles evaluate all arms branchlessly per element.
///
/// The intermediate `z` is an ordinary `f64` store and every decision is
/// elementwise in `(x, scale)`, so results are identical across lane
/// position, tile boundary and caller slicing. In-situ quadrature args
/// are dominated by the first two regimes (saturated hazards at late
/// times and large defects, vanishing hazards at early times), which is
/// what lets the lane path beat libm's early-exit fast paths.
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
        return;
    }
    // NaN thresholds (scale ≤ 0 or non-finite) make every screen below
    // compare false, routing everything through the general path.
    let x_tiny = (FAILURE_TINY_Z / scale).ln();
    let x_small = (EXPM1_SWITCH / scale).ln();
    let x_sat = failure_sat_threshold(scale);
    failure_term_tiles(xs, scale, x_tiny, x_small, x_sat, out);
}

/// Lane-path tile walker behind [`failure_term_slice`]: per-tile regime
/// screens over precomputed thresholds. Every screened route evaluates
/// the same elementwise `(x, scale)` arms, so the screens change cost,
/// never bits.
fn failure_term_tiles(
    xs: &[f64],
    scale: f64,
    x_tiny: f64,
    x_small: f64,
    x_sat: f64,
    out: &mut [f64],
) {
    let mut tmp = [0.0; FAILURE_TILE];
    let mut i = 0;
    while i < xs.len() {
        let n = (xs.len() - i).min(FAILURE_TILE);
        let tile = &xs[i..i + n];
        if tile.iter().all(|&x| x >= x_sat) {
            out[i..i + n].fill(1.0);
            i += n;
            continue;
        }
        // NaN-ignoring max is safe here: a NaN argument that sneaks a
        // tile into the tiny/small path still propagates through that
        // arm's polynomial.
        let hi = tile.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
        if hi < x_tiny {
            run_op(TinyFusedOp { scale }, tile, &mut out[i..i + n], |x| {
                -(-scale * x.exp()).exp_m1()
            });
        } else if hi < x_small {
            let op = SmallFusedOp { scale, x_tiny };
            run_op(op, tile, &mut out[i..i + n], |x| {
                -(-scale * x.exp()).exp_m1()
            });
        } else {
            run_op(NegHazardOp { scale }, tile, &mut tmp[..n], |x| {
                -scale * x.exp()
            });
            match active_width() {
                LaneWidth::W1 => unreachable!("width 1 handled above"),
                LaneWidth::W4 => {
                    failure_finish::<4>(tile, &tmp[..n], x_tiny, x_small, &mut out[i..i + n])
                }
                LaneWidth::W8 => {
                    failure_finish::<8>(tile, &tmp[..n], x_tiny, x_small, &mut out[i..i + n])
                }
            }
        }
        i += n;
    }
}

/// Big-arm-only tile walker: every element is caller-certified `≥
/// x_small`, so the 3-arm finish reduces elementwise to
/// [`failure_big`] and the per-tile max fold is unnecessary. The
/// all-saturated screen is kept — big runs reach deep into the
/// saturated tail, where the screen skips both passes (`1 − e^z`
/// rounds to exactly 1.0 for `z ≤` [`FAILURE_SAT`], so the fill is
/// bit-identical to evaluating the arm).
fn failure_term_tiles_big(xs: &[f64], scale: f64, x_sat: f64, out: &mut [f64]) {
    let mut tmp = [0.0; FAILURE_TILE];
    let mut i = 0;
    while i < xs.len() {
        let n = (xs.len() - i).min(FAILURE_TILE);
        let tile = &xs[i..i + n];
        if tile.iter().all(|&x| x >= x_sat) {
            out[i..i + n].fill(1.0);
            i += n;
            continue;
        }
        run_op(NegHazardOp { scale }, tile, &mut tmp[..n], |x| {
            -scale * x.exp()
        });
        run_op(BigZOp, &tmp[..n], &mut out[i..i + n], failure_big);
        i += n;
    }
}

/// [`failure_term_slice`] with **caller-certified bounds**: every
/// element of `xs` satisfies `lo ≤ x ≤ hi` (the quadrature engines know
/// this for free — their arguments are affine in a sorted node axis, so
/// slice bounds come from row endpoints at O(1) per row instead of the
/// O(n) folds the unbounded screens pay). Elementwise results are
/// bit-identical to [`failure_term_slice`]; the bounds only let the
/// whole slice be classified into one regime up front:
///
/// * `lo ≥ x_sat` → saturated fill (exact 1.0, see `FAILURE_SAT`);
/// * `hi < x_tiny` → single tiny-arm pass;
/// * `hi < x_small` → single small-arm pass (tiny still selected per
///   element);
/// * `lo ≥ x_small` → big-arm-only two-pass route (the light
///   `failure_big` finish instead of the 3-arm select);
/// * otherwise → the tiled screens of the unbounded path.
///
/// NaN bounds (e.g. from NaN coefficients) fail every comparison and
/// fall through to the general path, which propagates elementwise NaN.
/// Callers must therefore derive bounds such that a NaN element forces
/// NaN bounds — never clip a NaN away with `f64::min`/`max`.
///
/// # Panics
///
/// Panics if `xs.len() != out.len()`.
pub fn failure_term_slice_bounded(xs: &[f64], scale: f64, lo: f64, hi: f64, out: &mut [f64]) {
    assert_eq!(
        xs.len(),
        out.len(),
        "lane kernel input/output length mismatch"
    );
    if active_width() == LaneWidth::W1 {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = -(-scale * x.exp()).exp_m1();
        }
        return;
    }
    let x_tiny = (FAILURE_TINY_Z / scale).ln();
    let x_small = (EXPM1_SWITCH / scale).ln();
    let x_sat = failure_sat_threshold(scale);
    if lo >= x_sat {
        out.fill(1.0);
    } else if hi < x_tiny {
        run_op(TinyFusedOp { scale }, xs, out, |x| {
            -(-scale * x.exp()).exp_m1()
        });
    } else if hi < x_small {
        run_op(SmallFusedOp { scale, x_tiny }, xs, out, |x| {
            -(-scale * x.exp()).exp_m1()
        });
    } else if lo >= x_small {
        failure_term_tiles_big(xs, scale, x_sat, out);
    } else {
        failure_term_tiles(xs, scale, x_tiny, x_small, x_sat, out);
    }
}

// ---------------------------------------------------------------------------
// Composition folds (chip composition inside the lane kernels)
// ---------------------------------------------------------------------------

/// A block failure probability as the compositions absorb it: clamped to
/// `[0, 1]`, NaN read as certain failure — the rule of `statobd-core`'s
/// `WeakestLink::absorb` and `CompositionAccumulator::absorb` (a poisoned
/// block must never raise the reported survival).
#[inline(always)]
fn absorbed_p(p: f64) -> f64 {
    select(p.is_nan(), 1.0, p.clamp(0.0, 1.0))
}

/// How a `W`-chip tile's per-block failure probabilities compose into
/// each lane's chip log-survival `ln S` — the per-block step of the fused
/// survival kernels ([`ln_surv_tile_fold`], [`ln_surv_bisect_fold`]) and
/// of a caller's mission-end composition.
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
    /// [`failure_sat_threshold`]: regime screens a fold may use to skip
    /// work, never to change bits.
    fn absorb_hazard(&mut self, j: usize, arg: &[f64; W], area: f64, x_small: f64, x_sat: f64);

    /// Each lane's chip log-survival `ln S ≤ 0`.
    fn ln_survival(&self) -> [f64; W];
}

/// The failure-term regime a block's lane log-hazards share (see
/// [`hazard_regime`]).
enum Regime {
    /// Every lane `arg ≥ x_sat`: `p` rounds to exactly 1.
    Saturated,
    /// Every lane `arg < x_small`: `|z| <` [`EXPM1_SWITCH`], so `expm1`
    /// takes its small arm.
    Polynomial,
    /// Anything else, every width-1 block, and any block with a NaN lane.
    Mixed,
}

/// Screens a block's lane log-hazards into a [`Regime`] from their
/// bounds, taken by pairwise tree (log₂W select depth, not a serial
/// W-long chain; each round folds the upper lanes onto the lower ones).
/// A NaN argument makes the tree results arbitrary, so NaN presence is
/// folded separately and forces [`Regime::Mixed`], the general cores.
/// Width 1 always screens `Mixed`: its general route is the libm
/// expression, which the polynomial shortcuts would not reproduce.
#[inline(always)]
fn hazard_regime<const W: usize>(arg: &[f64; W], x_small: f64, x_sat: f64) -> Regime {
    if W == 1 {
        return Regime::Mixed;
    }
    let mut nan = false;
    for &a in arg {
        nan |= a.is_nan();
    }
    let mut mn = *arg;
    let mut mx = *arg;
    let mut n = W;
    while n > 1 {
        let half = n / 2;
        for i in 0..half {
            let k = i + n - half;
            mn[i] = select(mn[k] < mn[i], mn[k], mn[i]);
            mx[i] = select(mx[k] > mx[i], mx[k], mx[i]);
        }
        n -= half;
    }
    if nan {
        Regime::Mixed
    } else if mn[0] >= x_sat {
        Regime::Saturated
    } else if mx[0] < x_small {
        Regime::Polynomial
    } else {
        Regime::Mixed
    }
}

/// The weakest-link fold `ln S = Σ_j ln_1p(−p_j)`: the running sum of
/// `WeakestLink::absorb`, lane by lane.
///
/// [`absorb`](LaneFold::absorb) — the once-per-chip mission-end entry —
/// evaluates libm `ln_1p` at every width, the mission-end expression the
/// lane-tiled fleet has always used. Per lifetime-solve probe,
/// [`absorb_hazard`](LaneFold::absorb_hazard) at widths > 1 screens each
/// block's lane arguments into a regime, exactly like
/// [`failure_term_slice`]'s tile screens — each screened route evaluates
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
/// * mixed (or any NaN lane) → the general both-arm cores.
///
/// Width 1 runs the general libm expression unscreened: the scalar
/// `WeakestLink` bits.
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
        match hazard_regime(arg, x_small, x_sat) {
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
            Regime::Mixed => {
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
/// DP, `W` lanes at once — the recurrence of `statobd-core`'s
/// `CompositionAccumulator` (which runs it at width 1) and of the lane
/// [`GroupFold`]. `ln_at[m][w]` is lane `w`'s `ln P(exactly m absorbed
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
    // into the `#[target_feature]` clones and would run per lane.
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
}

/// The redundancy-group fold: every group runs the log-space
/// Poisson-binomial DP of [`group_absorb`] across the lanes, and the chip
/// log-survival sums the groups' [`group_ln_survival`] in group order —
/// lane for lane the operation sequence of `CompositionAccumulator`,
/// whose bits the width-1 instance reproduces.
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
        // below [`EXPM1_SWITCH`].
        let mut e = [0.0; W];
        match hazard_regime(arg, x_small, x_sat) {
            Regime::Saturated => e = [-1.0; W],
            Regime::Polynomial => {
                for w in 0..W {
                    e[w] = z[w] + (z[w] * z[w]) * exp_tail(z[w]);
                }
            }
            Regime::Mixed => {
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
        let mut total = [0.0; W];
        for r in &self.layout.rows {
            let (ln_fail, ln_at) = self.rows[r.clone()]
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

// ---------------------------------------------------------------------------
// Fused lane-tile survival kernels (fleet lifetime solve)
// ---------------------------------------------------------------------------

/// Shared body of [`ln_surv_tile_fold`]: per lane `w`, the chip
/// log-survival at log-age `x[w]`,
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

/// AVX2 clone of [`ln_surv_tile_body`] (same IEEE arithmetic, 256-bit
/// codegen).
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ln_surv_tile_avx2<const W: usize, F: LaneFold<W>>(
    x: &[f64; W],
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
    out: &mut [f64; W],
) {
    ln_surv_tile_body::<W, F>(x, block_params, bu, bbv, fold, out);
}

/// AVX-512F clone of [`ln_surv_tile_body`].
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ln_surv_tile_avx512<const W: usize, F: LaneFold<W>>(
    x: &[f64; W],
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
    out: &mut [f64; W],
) {
    ln_surv_tile_body::<W, F>(x, block_params, bu, bbv, fold, out);
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
    match isa() {
        Isa::Portable => ln_surv_tile_body::<W, F>(x, block_params, bu, bbv, fold, out),
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { ln_surv_tile_avx2::<W, F>(x, block_params, bu, bbv, fold, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { ln_surv_tile_avx512::<W, F>(x, block_params, bu, bbv, fold, out) },
    }
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

/// Shared body of [`ln_surv_bisect_fold`]: `steps` rounds of per-lane
/// bracket halving. Each round evaluates the tile log-survival at the
/// per-lane midpoints through [`ln_surv_tile_body`], then moves each
/// lane's own bracket with branchless bitwise selects on `s ≤ target`
/// (NaN compares false, freezing that lane's bracket — the caller's
/// mask semantics). Bit-identical, round for round, to a caller loop of
/// [`ln_surv_tile_fold`] + [`lane_le`] + a per-lane select; hoisting the
/// loop inside the dispatched clone exists purely so the bracket state
/// stays in registers across all `steps` rounds instead of paying a
/// non-inlinable dispatch per round.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn ln_surv_bisect_body<const W: usize, F: LaneFold<W>>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    for _ in 0..steps {
        let mut mid = [0.0; W];
        for w in 0..W {
            mid[w] = 0.5 * (lo[w] + hi[w]);
        }
        let mut s = [0.0; W];
        ln_surv_tile_body::<W, F>(&mid, block_params, bu, bbv, fold, &mut s);
        for w in 0..W {
            let le = s[w] <= target;
            hi[w] = select(le, mid[w], hi[w]);
            lo[w] = select(le, lo[w], mid[w]);
        }
    }
}

/// AVX2 clone of [`ln_surv_bisect_body`].
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn ln_surv_bisect_avx2<const W: usize, F: LaneFold<W>>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    ln_surv_bisect_body::<W, F>(lo, hi, target, steps, block_params, bu, bbv, fold);
}

/// AVX-512F clone of [`ln_surv_bisect_body`].
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn ln_surv_bisect_avx512<const W: usize, F: LaneFold<W>>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    ln_surv_bisect_body::<W, F>(lo, hi, target, steps, block_params, bu, bbv, fold);
}

/// A lane-parallel masked lifetime bisection, whole-loop fused (the
/// fleet's solve before [`ln_surv_solve_fold`], kept as its reference
/// and for stage-by-stage replays): runs `steps` rounds of per-lane
/// bracket halving on `lo`/`hi` in place, against the log-survival
/// threshold `target`, the blocks composed through `fold`. Parameters
/// and per-element math are exactly [`ln_surv_tile_fold`]'s; see
/// `ln_surv_bisect_body` for the bit-identity contract with the unfused
/// caller loop and the NaN/mask semantics. One dispatched call replaces
/// `steps` of them — the bracket arrays live in registers for the whole
/// solve.
///
/// # Panics
///
/// Panics if `block_params.len()` is not a multiple of 4 or `bu`/`bbv`
/// are not exactly `(block_params.len() / 4) · W` long.
#[allow(clippy::too_many_arguments)]
pub fn ln_surv_bisect_fold<const W: usize, F: LaneFold<W>>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    assert_tile_shape::<W>(block_params, bu, bbv);
    match isa() {
        Isa::Portable => {
            ln_surv_bisect_body::<W, F>(lo, hi, target, steps, block_params, bu, bbv, fold)
        }
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            ln_surv_bisect_avx2::<W, F>(lo, hi, target, steps, block_params, bu, bbv, fold)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            ln_surv_bisect_avx512::<W, F>(lo, hi, target, steps, block_params, bu, bbv, fold)
        },
    }
}

/// [`ln_surv_bisect_fold`] under the [`WeakestLinkFold`].
///
/// # Panics
///
/// As [`ln_surv_bisect_fold`].
pub fn ln_surv_bisect<const W: usize>(
    lo: &mut [f64; W],
    hi: &mut [f64; W],
    target: f64,
    steps: u32,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
) {
    let mut fold = WeakestLinkFold::default();
    ln_surv_bisect_fold::<W, _>(lo, hi, target, steps, block_params, bu, bbv, &mut fold);
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

/// Shared body of [`ln_surv_solve_fold`]: runs `solver` to completion,
/// each probe one [`ln_surv_tile_body`] pass.
#[inline(always)]
fn ln_surv_solve_body<const W: usize, F: LaneFold<W>>(
    solver: &mut Illinois<W>,
    ln_neg_target: f64,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    let mut s = [0.0; W];
    while !solver.done() {
        let x = solver.probe();
        ln_surv_tile_body::<W, F>(&x, block_params, bu, bbv, fold, &mut s);
        solver.update(&weibull_residual::<W>(&s, ln_neg_target));
    }
}

/// AVX2 clone of [`ln_surv_solve_body`].
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ln_surv_solve_avx2<const W: usize, F: LaneFold<W>>(
    solver: &mut Illinois<W>,
    ln_neg_target: f64,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    ln_surv_solve_body::<W, F>(solver, ln_neg_target, block_params, bu, bbv, fold);
}

/// AVX-512F clone of [`ln_surv_solve_body`].
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ln_surv_solve_avx512<const W: usize, F: LaneFold<W>>(
    solver: &mut Illinois<W>,
    ln_neg_target: f64,
    block_params: &[f64],
    bu: &[f64],
    bbv: &[f64],
    fold: &mut F,
) {
    ln_surv_solve_body::<W, F>(solver, ln_neg_target, block_params, bu, bbv, fold);
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
    match isa() {
        Isa::Portable => {
            ln_surv_solve_body::<W, F>(solver, ln_neg_target, block_params, bu, bbv, fold)
        }
        // SAFETY: `isa()` only reports tiers confirmed by runtime CPUID
        // feature detection on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            ln_surv_solve_avx2::<W, F>(solver, ln_neg_target, block_params, bu, bbv, fold)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            ln_surv_solve_avx512::<W, F>(solver, ln_neg_target, block_params, bu, bbv, fold)
        },
    }
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
        // Results must not depend on where the W-lane chunk boundaries
        // fall: evaluate a 13-element slice (full chunks + remainder) and
        // compare against the cores one by one, at both vector widths.
        let xs: Vec<f64> = (0..13).map(|i| -60.0 + 9.5 * i as f64).collect();
        for w in [LaneWidth::W4, LaneWidth::W8] {
            let mut out = vec![0.0; xs.len()];
            match w {
                LaneWidth::W4 => run_isa::<4, ExpOp>(ExpOp, &xs, &mut out),
                _ => run_isa::<8, ExpOp>(ExpOp, &xs, &mut out),
            }
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                assert_eq!(got.to_bits(), exp_core(x).to_bits(), "{w:?} idx {i}");
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
        // Long enough to cross a FAILURE_TILE boundary, so the tiled
        // two-pass path is exercised end to end; the argument spread
        // covers all three tile regimes (vanishing, mixed, saturated).
        let mut xs: Vec<f64> = (0..(FAILURE_TILE + 9))
            .map(|i| -20.0 + 4.0 * (i % 11) as f64)
            .collect();
        // Homogeneous stretches so the saturated-fill and small-only
        // tile screens actually fire.
        xs.extend(std::iter::repeat_n(30.0, FAILURE_TILE + 3));
        xs.extend(std::iter::repeat_n(-40.0, FAILURE_TILE + 3));
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
        // the tile fill must be bit-identical to evaluating the arm.
        for z in [-FAILURE_SAT, -38.0, -54.0, -60.0, -700.0] {
            assert_eq!(failure_big(z).to_bits(), 1.0f64.to_bits(), "z={z}");
        }
        // NaN still propagates through a saturated-looking tile.
        force_width(Some(LaneWidth::W8));
        let xs = [f64::NAN; 4];
        let mut out = [0.0; 4];
        failure_term_slice(&xs, 1.0, &mut out);
        assert!(out.iter().all(|o| o.is_nan()));
        force_width(None);
    }

    #[test]
    fn small_screen_keeps_tiny_arm_per_element() {
        // A slice wholly below `x_small` takes the single-pass small
        // screen, but elements below `x_tiny` must still get the tiny
        // arm — the arm choice is a function of `(x, scale)` alone, or
        // results would depend on how callers tile the input.
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

    #[test]
    fn bounded_certifications_match_unbounded_bits() {
        // Every certification class of `failure_term_slice_bounded`
        // (saturated, tiny, small, big-only, mixed/unbounded, NaN
        // bounds) must reproduce the unbounded walker bit for bit —
        // the bounds pick a route, never an answer.
        let scale = 1e-3;
        let x_tiny = (FAILURE_TINY_Z / scale).ln();
        let x_small = (EXPM1_SWITCH / scale).ln();
        let x_sat = failure_sat_threshold(scale);
        let ramp = |lo: f64, hi: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
                .collect()
        };
        let cases = [
            ramp(x_sat + 0.5, x_sat + 40.0, 600),    // saturated
            ramp(x_tiny - 30.0, x_tiny - 0.1, 600),  // tiny
            ramp(x_tiny - 1.0, x_small - 0.1, 600),  // small (straddles tiny)
            ramp(x_small + 0.01, x_sat + 5.0, 600),  // big-only, crosses saturation
            ramp(x_tiny - 10.0, x_sat + 10.0, 1200), // mixed, crosses a tile
        ];
        for w in [LaneWidth::W4, LaneWidth::W8] {
            force_width(Some(w));
            for (case, xs) in cases.iter().enumerate() {
                let lo = xs.iter().fold(f64::INFINITY, |m, &x| m.min(x));
                let hi = xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
                let mut bounded = vec![0.0; xs.len()];
                let mut unbounded = vec![0.0; xs.len()];
                failure_term_slice_bounded(xs, scale, lo, hi, &mut bounded);
                failure_term_slice(xs, scale, &mut unbounded);
                for (i, (&b, &u)) in bounded.iter().zip(&unbounded).enumerate() {
                    assert_eq!(b.to_bits(), u.to_bits(), "{w:?} case {case} idx {i}");
                }
            }
            // NaN bounds (NaN coefficients upstream) fail every screen
            // comparison and still propagate elementwise NaN.
            let xs = [x_small + 1.0, f64::NAN, x_tiny - 1.0];
            let mut out = [0.0; 3];
            failure_term_slice_bounded(&xs, scale, f64::NAN, f64::NAN, &mut out);
            assert!(!out[0].is_nan() && out[1].is_nan() && !out[2].is_nan());
            assert_eq!(
                out[0].to_bits(),
                failure_term_reference(xs[0], scale).to_bits()
            );
        }
        force_width(None);
    }

    #[test]
    fn lane_matvec_acc_matches_scalar_bitwise() {
        // Every output must reproduce the scalar k-sequential
        // multiply-then-add sum from its seed bit for bit — the property
        // the (u, v) tile projection rests on — at every row count (whole
        // 8- and 4-row passes and every 4/2/1-row tail), through the
        // dispatched kernel, the shared body at both pass heights and
        // each ISA clone the host can run.
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
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut out = seed.clone();
                        // SAFETY: avx2 was detected on this host.
                        unsafe { lane_matvec_avx2::<W>(&a, n, &z_tile, &mut out) };
                        same(&out, "avx2");
                    }
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        let mut out = seed.clone();
                        // SAFETY: avx512f was detected on this host.
                        unsafe { lane_matvec_avx512::<W>(&a, n, &z_tile, &mut out) };
                        same(&out, "avx512f");
                    }
                }
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
}
