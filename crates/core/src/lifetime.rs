//! Lifetime solving (paper eq. 32): inverting the ensemble failure
//! probability for the n-faults-per-million-parts criteria.

use crate::engines::ReliabilityEngine;
use crate::{CoreError, Result};

/// Solves `P(t) = p_target` for `t` by bracket expansion plus a
/// multi-section search on `ln t`.
///
/// `bracket = (t_lo, t_hi)` is the initial search interval (seconds); it
/// is expanded geometrically (up to 60 ×4 steps each way) if the root
/// lies outside. All probes go through
/// [`ReliabilityEngine::failure_probabilities`] in batches sized by the
/// engine's [`ReliabilityEngine::sweep_batch_hint`], so engines with a
/// large per-call fixed cost (Monte-Carlo histogram sweeps) or an internal
/// thread fan-out answer several probes per round trip; for hint-1 engines
/// this degenerates to classic bisection.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for a non-positive bracket or a
///   target outside `(0, 1)`,
/// * [`CoreError::SolveFailed`] if no bracket contains the root (e.g. the
///   engine's probability saturates below the target),
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

    // All probes go through the batched API; the engine's hint says how
    // many points per call it can absorb at little extra cost (1 = plain
    // bisection, which minimizes total evaluations for scalar engines).
    let k = engine.sweep_batch_hint().clamp(1, 32);

    // Expand until the bracket straddles the target, probing a geometric
    // ladder of up-to-`k` candidates per call (÷4 rungs downward, ×4
    // upward — the same ×4 steps and 60-expansion cap as the scalar
    // search). Every failing rung is itself a valid bound, so the
    // opposite side tightens for free.
    let mut probes_left = 61usize; // the original bound + 60 expansions
    let mut t = t_lo;
    loop {
        let rungs: Vec<f64> = (0..k.min(probes_left))
            .map(|i| t / 4f64.powi(i as i32))
            .collect();
        let ps = engine.failure_probabilities(&rungs)?;
        if let Some(i) = ps.iter().position(|&p| p <= p_target) {
            t_lo = rungs[i];
            if i > 0 {
                t_hi = t_hi.min(rungs[i - 1]);
            }
            break;
        }
        probes_left -= rungs.len();
        if probes_left == 0 {
            return Err(CoreError::SolveFailed {
                detail: format!(
                    "failure probability still {:.3e} > target {p_target:.3e} at t={:.3e}",
                    ps[ps.len() - 1],
                    rungs[rungs.len() - 1]
                ),
            });
        }
        t_hi = t_hi.min(rungs[rungs.len() - 1]);
        t = rungs[rungs.len() - 1] / 4.0;
    }
    let mut probes_left = 61usize;
    let mut t = t_hi;
    loop {
        let rungs: Vec<f64> = (0..k.min(probes_left))
            .map(|i| t * 4f64.powi(i as i32))
            .collect();
        let ps = engine.failure_probabilities(&rungs)?;
        if let Some(i) = ps.iter().position(|&p| p >= p_target) {
            t_hi = rungs[i];
            if i > 0 {
                t_lo = t_lo.max(rungs[i - 1]);
            }
            break;
        }
        probes_left -= rungs.len();
        if probes_left == 0 {
            return Err(CoreError::SolveFailed {
                detail: format!(
                    "failure probability only {:.3e} < target {p_target:.3e} at t={:.3e}",
                    ps[ps.len() - 1],
                    rungs[rungs.len() - 1]
                ),
            });
        }
        t_lo = t_lo.max(rungs[rungs.len() - 1]);
        t = rungs[rungs.len() - 1] * 4.0;
    }

    // Multi-section search on ln t: `k` equispaced interior points per
    // call shrink the bracket by (k+1)× per round (k = 1 is classic
    // bisection).
    let mut ln_lo = t_lo.ln();
    let mut ln_hi = t_hi.ln();
    for _ in 0..200 {
        if ln_hi - ln_lo < 1e-10 {
            break;
        }
        let step = (ln_hi - ln_lo) / (k as f64 + 1.0);
        let mids: Vec<f64> = (1..=k).map(|i| (ln_lo + step * i as f64).exp()).collect();
        let ps = engine.failure_probabilities(&mids)?;
        let idx = ps.iter().position(|&p| p >= p_target).unwrap_or(k);
        let new_hi = if idx == k {
            ln_hi
        } else {
            ln_lo + step * (idx + 1) as f64
        };
        ln_lo += step * idx as f64;
        ln_hi = new_hi;
    }
    Ok((0.5 * (ln_lo + ln_hi)).exp())
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
        fn sweep_batch_hint(&self) -> usize {
            self.inner.sweep_batch_hint()
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
