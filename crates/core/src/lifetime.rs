//! Lifetime solving (paper eq. 32): inverting the ensemble failure
//! probability for the n-faults-per-million-parts criteria, with the
//! Weibull-plot root-finder of [`statobd_num::root`].

use crate::engines::ReliabilityEngine;
use crate::{CoreError, Result};
use statobd_num::root::Illinois;

/// Bracket tolerance of [`solve_lifetime`] on `ln t`: a solve that has
/// not met the residual test stops once the bracket is this narrow.
const LN_T_TOL: f64 = 1e-10;

/// Solves `P(t) = p_target` for `t`: bracket expansion, then an Illinois
/// (regula falsi) solve on the Weibull plot of `P`.
///
/// `bracket = (t_lo, t_hi)` is the initial search interval (seconds). The
/// solver probes `P` at both edges; if the root lies outside, it steps the
/// edge ×4 outward, one probe at a time (up to 60 steps each way). It then
/// runs [`Illinois`] at one lane on `x = ln t` with the residual
/// `ln(−ln(1 − P)) − ln(−ln(1 − p_target))`, on which the paper's Weibull
/// device law (eq. 4) and the log-quadratic kernel of eq. 17 make the
/// curve nearly straight, so a few secant steps land on the root. Every
/// probe is a one-point [`ReliabilityEngine::failure_probability`] call;
/// the paper's designs take at most 8 per solve.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a non-positive bracket or a
///   target outside `(0, 1)`,
/// * [`CoreError::SolveFailed`] if no bracket contains the root (e.g. the
///   engine's probability saturates below the target), or if the engine
///   returns NaN at a probe,
/// * any engine evaluation error.
///
/// # Example
///
/// ```
/// use statobd_core::{solve_lifetime, ReliabilityEngine, Result};
///
/// // A toy engine: P(t) = 1 − exp(−(t/1e9)²).
/// #[derive(Debug)]
/// struct Toy;
/// impl ReliabilityEngine for Toy {
///     fn name(&self) -> &str { "toy" }
///     fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
///         Ok(ts.iter().map(|&t| -(-(t / 1e9_f64).powi(2)).exp_m1()).collect())
///     }
/// }
/// let t = solve_lifetime(&mut Toy, 1e-6, (1.0, 1e12))?;
/// assert!((t - 1e6).abs() / 1e6 < 1e-6); // analytic root: 1e9·sqrt(1e-6)
/// # Ok::<(), statobd_core::CoreError>(())
/// ```
pub fn solve_lifetime<E: ReliabilityEngine + ?Sized>(
    engine: &mut E,
    p_target: f64,
    bracket: (f64, f64),
) -> Result<f64> {
    let (mut t_lo, mut t_hi) = bracket;
    if !(0.0 < p_target && p_target < 1.0) {
        return Err(CoreError::InvalidParameter {
            detail: format!("target probability must be in (0,1), got {p_target}"),
        });
    }
    if !(t_lo > 0.0) || !(t_hi > t_lo) {
        return Err(CoreError::InvalidParameter {
            detail: format!("invalid bracket ({t_lo}, {t_hi})"),
        });
    }
    let weibull = |p: f64| (-(-p).ln_1p()).ln();
    let f_target = weibull(p_target);
    // One probe: P(t) and its residual, a NaN refused rather than read
    // as either side of the target.
    let mut probe = |t: f64| -> Result<(f64, f64)> {
        let p = engine.failure_probability(t)?;
        if p.is_nan() {
            return Err(CoreError::SolveFailed {
                detail: format!("failure probability is NaN at t={t:.3e}"),
            });
        }
        Ok((p, weibull(p) - f_target))
    };

    // Expand until the bracket straddles the target: ×4 steps outward
    // from each edge, up to 60 each way. The edge a step leaves becomes
    // the opposite bound, probe and all.
    const EXPANSIONS: u32 = 60;
    let (mut p_lo, mut f_lo) = probe(t_lo)?;
    let mut upper = None;
    let mut steps = 0;
    while p_lo > p_target {
        if steps == EXPANSIONS {
            return Err(CoreError::SolveFailed {
                detail: format!(
                    "failure probability still {p_lo:.3e} > target {p_target:.3e} at t={t_lo:.3e}"
                ),
            });
        }
        (t_hi, upper) = (t_lo, Some((p_lo, f_lo)));
        t_lo /= 4.0;
        (p_lo, f_lo) = probe(t_lo)?;
        steps += 1;
    }
    let (mut p_hi, mut f_hi) = match upper {
        Some(known) => known,
        None => probe(t_hi)?,
    };
    let mut steps = 0;
    while p_hi < p_target {
        if steps == EXPANSIONS {
            return Err(CoreError::SolveFailed {
                detail: format!(
                    "failure probability only {p_hi:.3e} < target {p_target:.3e} at t={t_hi:.3e}"
                ),
            });
        }
        (t_lo, f_lo) = (t_hi, f_hi);
        t_hi *= 4.0;
        (p_hi, f_hi) = probe(t_hi)?;
        steps += 1;
    }

    let mut solver = Illinois::<1>::new([t_lo.ln()], [f_lo], [t_hi.ln()], [f_hi], [true], LN_T_TOL);
    while !solver.done() {
        let [x] = solver.probe();
        let (_, f) = probe(x.exp())?;
        solver.update(&[f]);
    }
    Ok(solver.roots()[0].exp())
}

/// Evaluates the failure-rate curve `P(t)` at `n` log-spaced times over
/// `[t_lo, t_hi]` — the raw material for the paper's Fig. 10.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a degenerate range or `n < 2`,
/// * any engine evaluation error.
pub fn failure_rate_curve<E: ReliabilityEngine + ?Sized>(
    engine: &mut E,
    t_lo: f64,
    t_hi: f64,
    n: usize,
) -> Result<Vec<(f64, f64)>> {
    if !(t_lo > 0.0) || !(t_hi > t_lo) || n < 2 {
        return Err(CoreError::InvalidParameter {
            detail: format!("invalid curve request: [{t_lo}, {t_hi}] with {n} points"),
        });
    }
    let ratio = (t_hi / t_lo).ln();
    let ts: Vec<f64> = (0..n)
        .map(|i| t_lo * (ratio * i as f64 / (n - 1) as f64).exp())
        .collect();
    // One batched call: engines amortize their per-sweep state (weight
    // tables, node sets) over the whole curve.
    let ps = engine.failure_probabilities(&ts)?;
    Ok(ts.into_iter().zip(ps).collect())
}

/// Post-burn-in failure probability: the probability a chip that survived
/// a burn-in of duration `t_burn_s` fails within the following
/// `t_service_s` of service,
///
/// ```text
/// P(T ≤ t_b + t_s | T > t_b) = (P(t_b + t_s) − P(t_b)) / (1 − P(t_b)).
/// ```
///
/// Because the ensemble mixes over process variation, the population
/// hazard at early times is dominated by thin-oxide outlier dies;
/// burn-in screens those out, which is why this conditional probability
/// can be lower than the fresh-chip `P(t_s)` even though each individual
/// die has an increasing (β > 1) hazard.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for non-positive durations,
/// * any engine evaluation error.
pub fn burn_in_failure_probability<E: ReliabilityEngine + ?Sized>(
    engine: &mut E,
    t_burn_s: f64,
    t_service_s: f64,
) -> Result<f64> {
    if !(t_burn_s > 0.0) || !(t_service_s > 0.0) {
        return Err(CoreError::InvalidParameter {
            detail: format!("durations must be positive, got ({t_burn_s}, {t_service_s})"),
        });
    }
    let ps = engine.failure_probabilities(&[t_burn_s, t_burn_s + t_service_s])?;
    let (p_burn, p_total) = (ps[0], ps[1]);
    Ok(((p_total - p_burn) / (1.0 - p_burn)).clamp(0.0, 1.0))
}

/// Service lifetime after burn-in: the largest `t_service` such that a
/// burn-in survivor's failure probability over `t_service` stays at or
/// below `p_target` (the burn-in-aware version of [`solve_lifetime`]).
///
/// # Errors
///
/// Same conditions as [`solve_lifetime`].
pub fn solve_lifetime_after_burn_in<E: ReliabilityEngine + ?Sized>(
    engine: &mut E,
    p_target: f64,
    t_burn_s: f64,
    bracket: (f64, f64),
) -> Result<f64> {
    if !(t_burn_s > 0.0) {
        return Err(CoreError::InvalidParameter {
            detail: format!("burn-in duration must be positive, got {t_burn_s}"),
        });
    }
    // Wrap the engine in the conditional transform and reuse the solver.
    struct BurnIn<'e, E: ?Sized> {
        inner: &'e mut E,
        t_burn: f64,
        p_burn: f64,
    }
    impl<E: ReliabilityEngine + ?Sized> ReliabilityEngine for BurnIn<'_, E> {
        fn name(&self) -> &str {
            "burn_in"
        }
        fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
            let shifted: Vec<f64> = ts.iter().map(|&t| self.t_burn + t).collect();
            Ok(self
                .inner
                .failure_probabilities(&shifted)?
                .into_iter()
                .map(|p_total| ((p_total - self.p_burn) / (1.0 - self.p_burn)).clamp(0.0, 1.0))
                .collect())
        }
    }
    let p_burn = engine.failure_probability(t_burn_s)?;
    let mut wrapped = BurnIn {
        inner: engine,
        t_burn: t_burn_s,
        p_burn,
    };
    solve_lifetime(&mut wrapped, p_target, bracket)
}

/// Instantaneous FIT rate at time `t`: expected failures per 10⁹
/// device-hours of the *chip* population,
/// `FIT(t) = h(t)·3600·10⁹` with the hazard `h(t) = P'(t)/(1 − P(t))`
/// estimated by a centered log-spaced finite difference.
///
/// FIT is the unit qualification teams quote; a 1-ppm-at-10-years part is
/// roughly in the single-digit-FIT regime.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a non-positive time,
/// * any engine evaluation error.
pub fn fit_rate<E: ReliabilityEngine + ?Sized>(engine: &mut E, t_s: f64) -> Result<f64> {
    if !(t_s > 0.0) {
        return Err(CoreError::InvalidParameter {
            detail: format!("time must be positive, got {t_s}"),
        });
    }
    let h = 0.01;
    let ps = engine.failure_probabilities(&[t_s * (1.0 - h), t_s * (1.0 + h), t_s])?;
    let (p_lo, p_hi, p_mid) = (ps[0], ps[1], ps[2]);
    let dp_dt = (p_hi - p_lo) / (2.0 * h * t_s);
    let hazard_per_s = dp_dt / (1.0 - p_mid).max(f64::MIN_POSITIVE);
    Ok(hazard_per_s * 3600.0 * 1e9)
}

/// Effective chip-level Weibull slope at time `t`:
/// `β_eff(t) = d ln(−ln(1−P)) / d ln t` (the slope on a Weibull
/// probability plot), estimated by a centered log-spaced finite
/// difference.
///
/// For a chip whose blocks share one `β = b·x` this equals that β; with
/// per-block temperatures (different `b_j`) and process variation the
/// population slope deviates — a compact summary of how "Weibull-like"
/// the chip-level failure law still is.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a non-positive time,
/// * [`CoreError::SolveFailed`] if `P(t)` is zero at the probe points
///   (too early to estimate a slope),
/// * any engine evaluation error.
pub fn effective_weibull_slope<E: ReliabilityEngine + ?Sized>(
    engine: &mut E,
    t_s: f64,
) -> Result<f64> {
    if !(t_s > 0.0) {
        return Err(CoreError::InvalidParameter {
            detail: format!("time must be positive, got {t_s}"),
        });
    }
    let ratio = 1.05;
    let ps = engine.failure_probabilities(&[t_s / ratio, t_s * ratio])?;
    let (p_lo, p_hi) = (ps[0], ps[1]);
    if !(p_lo > 0.0) || !(p_hi > 0.0) || p_hi >= 1.0 {
        return Err(CoreError::SolveFailed {
            detail: format!("failure probability out of range near t = {t_s:e}"),
        });
    }
    // Weibull-plot ordinate: ln(−ln(1−P)), computed via ln1p for accuracy
    // at the ppm scale.
    let w_lo = (-(-p_lo).ln_1p()).ln();
    let w_hi = (-(-p_hi).ln_1p()).ln();
    Ok((w_hi - w_lo) / (2.0 * ratio.ln()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P(t) = 1 − exp(−(t/τ)^β) with closed-form quantiles.
    #[derive(Debug)]
    struct Weib {
        tau: f64,
        beta: f64,
    }

    impl ReliabilityEngine for Weib {
        fn name(&self) -> &str {
            "weib"
        }
        fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
            Ok(ts
                .iter()
                .map(|&t| -(-(t / self.tau).powf(self.beta)).exp_m1())
                .collect())
        }
    }

    #[test]
    fn recovers_analytic_quantiles() {
        let mut e = Weib {
            tau: 3e9,
            beta: 1.43,
        };
        for &p in &[1e-6, 1e-5, 1e-3] {
            let t = solve_lifetime(&mut e, p, (1.0, 1e12)).unwrap();
            let expected = 3e9 * (-(-p).ln_1p()).powf(1.0 / 1.43);
            assert!(
                ((t - expected) / expected).abs() < 1e-8,
                "p={p}: {t:.6e} vs {expected:.6e}"
            );
        }
    }

    #[test]
    fn bracket_expansion_works_both_ways() {
        let mut e = Weib {
            tau: 3e9,
            beta: 1.43,
        };
        // Bracket far above the root.
        let t = solve_lifetime(&mut e, 1e-6, (1e11, 1e12)).unwrap();
        let expected = 3e9 * (-(1.0f64 - 1e-6).ln()).powf(1.0 / 1.43);
        assert!(((t - expected) / expected).abs() < 1e-8);
        // Bracket far below the root.
        let t2 = solve_lifetime(&mut e, 1e-6, (1e-3, 1e-2)).unwrap();
        assert!(((t2 - expected) / expected).abs() < 1e-8);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut e = Weib {
            tau: 1e9,
            beta: 1.0,
        };
        assert!(solve_lifetime(&mut e, 0.0, (1.0, 1e12)).is_err());
        assert!(solve_lifetime(&mut e, 1.0, (1.0, 1e12)).is_err());
        assert!(solve_lifetime(&mut e, 0.5, (0.0, 1e12)).is_err());
        assert!(solve_lifetime(&mut e, 0.5, (1e12, 1.0)).is_err());
    }

    #[test]
    fn saturating_engine_reports_failure() {
        // An engine that never reaches the target.
        #[derive(Debug)]
        struct Flat;
        impl ReliabilityEngine for Flat {
            fn name(&self) -> &str {
                "flat"
            }
            fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
                Ok(vec![1e-9; ts.len()])
            }
        }
        assert!(matches!(
            solve_lifetime(&mut Flat, 1e-3, (1.0, 10.0)),
            Err(CoreError::SolveFailed { .. })
        ));
    }

    #[test]
    fn zero_and_saturated_edges_fall_back_to_the_midpoint() {
        // P rounds to exactly 0 at the lower edge ((t/τ)² underflows) and
        // to 1 at the upper one, so the residual is −∞ and +∞ there and
        // the first probes bisect until both ends are finite.
        let mut e = Weib {
            tau: 1e9,
            beta: 2.0,
        };
        let bracket = (1e-191, 1e12);
        let ps = e.failure_probabilities(&[bracket.0, bracket.1]).unwrap();
        assert_eq!(ps, [0.0, 1.0]);
        let t = solve_lifetime(&mut e, 1e-6, bracket).unwrap();
        let expected = 1e9 * (-(-1e-6f64).ln_1p()).sqrt();
        assert!(((t - expected) / expected).abs() < 1e-10, "{t:e}");
    }

    /// The Weibull law `P = 1 − exp(−(t/1e10)^1.5)`, NaN on an open
    /// window of ages.
    #[derive(Debug)]
    struct NanWindow(f64, f64);

    impl ReliabilityEngine for NanWindow {
        fn name(&self) -> &str {
            "nan_window"
        }
        fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
            Ok(ts
                .iter()
                .map(|&t| {
                    if self.0 < t && t < self.1 {
                        f64::NAN
                    } else {
                        -(-(t / 1e10_f64).powf(1.5)).exp_m1()
                    }
                })
                .collect())
        }
    }

    #[test]
    fn an_engine_nan_is_an_error_never_a_lifetime() {
        // The 1 ppm root is 1e6 s. A NaN read as "below target" once
        // turned this NaN window above the root into a lifetime of
        // 1.0000000000209461e9 s. P saturates at the upper edge, so the
        // first probe is the bracket midpoint, inside the window: it is
        // refused, naming its time.
        match solve_lifetime(&mut NanWindow(1e7, 1e9), 1e-6, (1e4, 1e13)) {
            Err(CoreError::SolveFailed { detail }) => {
                assert!(detail.contains("NaN at t=3.162e8"), "{detail}")
            }
            other => panic!("expected SolveFailed, got {other:?}"),
        }
        // A NaN at a bracket edge is refused too.
        assert!(matches!(
            solve_lifetime(&mut NanWindow(1e3, 1e5), 1e-6, (1e4, 1e13)),
            Err(CoreError::SolveFailed { .. })
        ));
        // A window the solve never probes leaves the root untouched.
        let root = 1e10 * (-(-1e-6f64).ln_1p()).powf(1.0 / 1.5);
        let t = solve_lifetime(&mut NanWindow(1e11, 1e12), 1e-6, (1e4, 1e13)).unwrap();
        assert!(((t - root) / root).abs() < 1e-10, "{t:e} vs {root:e}");
    }

    #[test]
    fn a_kinked_weibull_plot_converges_on_the_bracket_width() {
        // Two Weibull slopes joined at t_k, the target placed on the kink:
        // no secant is exact, so the solve ends on the 1e-10 bracket width.
        #[derive(Debug)]
        struct Kinked;
        const T_K: f64 = 3e7;
        fn hazard(t: f64) -> f64 {
            let h_k = (T_K / 1e10_f64).powf(1.2);
            if t < T_K {
                (t / 1e10_f64).powf(1.2)
            } else {
                h_k * (t / T_K).powf(3.5)
            }
        }
        impl ReliabilityEngine for Kinked {
            fn name(&self) -> &str {
                "kinked"
            }
            fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
                Ok(ts.iter().map(|&t| -(-hazard(t)).exp_m1()).collect())
            }
        }
        let target = -(-hazard(T_K)).exp_m1();
        let t = solve_lifetime(&mut Kinked, target, (1e4, 1e13)).unwrap();
        assert!(((t - T_K) / T_K).abs() < 1e-9, "{t:e} vs {T_K:e}");
    }

    #[test]
    fn curve_is_log_spaced_and_monotone() {
        let mut e = Weib {
            tau: 1e9,
            beta: 2.0,
        };
        let curve = failure_rate_curve(&mut e, 1e6, 1e10, 9).unwrap();
        assert_eq!(curve.len(), 9);
        assert!((curve[0].0 - 1e6).abs() < 1.0);
        assert!((curve[8].0 - 1e10).abs() < 1e4);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            // Log spacing: constant ratio.
            let r = w[1].0 / w[0].0;
            assert!((r - 10f64.powf(0.5)).abs() < 1e-6);
        }
        assert!(failure_rate_curve(&mut e, 1e6, 1e5, 4).is_err());
        assert!(failure_rate_curve(&mut e, 1e6, 1e10, 1).is_err());
    }

    #[test]
    fn fit_rate_matches_weibull_hazard() {
        // Weibull hazard: h(t) = (β/τ)(t/τ)^{β−1}.
        let mut e = Weib {
            tau: 1e9,
            beta: 1.76,
        };
        let t = 2e8;
        let fit = fit_rate(&mut e, t).unwrap();
        let hazard = (1.76 / 1e9) * (t / 1e9_f64).powf(0.76);
        let expected = hazard * 3600.0 * 1e9;
        assert!(
            ((fit - expected) / expected).abs() < 1e-3,
            "fit {fit:e} vs {expected:e}"
        );
        assert!(fit_rate(&mut e, 0.0).is_err());
    }

    #[test]
    fn effective_slope_recovers_weibull_beta() {
        let mut e = Weib {
            tau: 3e9,
            beta: 1.76,
        };
        for &t in &[1e7, 1e8, 1e9] {
            let slope = effective_weibull_slope(&mut e, t).unwrap();
            assert!((slope - 1.76).abs() < 1e-6, "slope {slope} at t={t:e}");
        }
        assert!(effective_weibull_slope(&mut e, -1.0).is_err());
    }

    #[test]
    fn burn_in_conditional_probability_matches_formula() {
        let mut e = Weib {
            tau: 1e9,
            beta: 1.5,
        };
        let (tb, ts) = (1e7, 1e8);
        let p = burn_in_failure_probability(&mut e, tb, ts).unwrap();
        let p_b = e.failure_probability(tb).unwrap();
        let p_t = e.failure_probability(tb + ts).unwrap();
        let expected = (p_t - p_b) / (1.0 - p_b);
        assert!((p - expected).abs() < 1e-15);
        assert!(burn_in_failure_probability(&mut e, 0.0, 1e8).is_err());
        assert!(burn_in_failure_probability(&mut e, 1e7, 0.0).is_err());
    }

    #[test]
    fn burn_in_hurts_increasing_hazard_weibull() {
        // For a pure Weibull with β > 1 (no population mixture), burn-in
        // consumes life: the post-burn-in service lifetime is shorter.
        let mut e = Weib {
            tau: 1e10,
            beta: 1.76,
        };
        let fresh = solve_lifetime(&mut e, 1e-6, (1.0, 1e12)).unwrap();
        let after = solve_lifetime_after_burn_in(&mut e, 1e-6, fresh / 2.0, (1.0, 1e12)).unwrap();
        assert!(after < fresh);
    }

    #[test]
    fn burn_in_helps_mixture_population() {
        // A 2-component mixture: 0.1% weak parts (tau 1e6) in a strong
        // population (tau 1e10). Burning in past the weak parts' lives
        // extends the certified ppm service lifetime.
        #[derive(Debug)]
        struct Mixture;
        impl ReliabilityEngine for Mixture {
            fn name(&self) -> &str {
                "mixture"
            }
            fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
                Ok(ts
                    .iter()
                    .map(|&t| {
                        let weak = -(-(t / 1e6_f64).powf(1.76)).exp_m1();
                        let strong = -(-(t / 1e10_f64).powf(1.76)).exp_m1();
                        1e-3 * weak + (1.0 - 1e-3) * strong
                    })
                    .collect())
            }
        }
        let fresh = solve_lifetime(&mut Mixture, 1e-5, (1.0, 1e12)).unwrap();
        let after = solve_lifetime_after_burn_in(&mut Mixture, 1e-5, 5e6, (1.0, 1e12)).unwrap();
        assert!(
            after > 2.0 * fresh,
            "burn-in should screen the weak parts: fresh {fresh:e}, after {after:e}"
        );
    }
}
