//! Bracketed root finding on the Weibull scale, `W` lanes at once.
//!
//! Every lifetime the workspace reports inverts a failure probability
//! `P(t)` for the age at which it reaches a target. Oxide breakdown is
//! Weibull per device, and the ensemble laws built on it stay close to a
//! straight line on the Weibull plot: `ln(−ln(1 − P))` against `ln t`.
//! So the solvers work on that plot, with
//!
//! ```text
//! x = ln t,   f(x) = ln(−ln S(x)) − ln(−ln S*),   S = 1 − P,
//! ```
//!
//! where `S*` is the target survival: `f` is increasing, nearly linear,
//! and its root is the lifetime. [`Illinois`] runs the Illinois variant
//! of regula falsi on it, independently in each of `W` lanes:
//!
//! * **Probe.** The secant point of the lane's bracket when it lies
//!   strictly inside the bracket, else the midpoint. The midpoint covers
//!   `f = −∞` (the probability rounds to 0) and `f = +∞` (a block
//!   saturates), where the secant point is an edge or NaN.
//! * **Illinois rule.** When the same end of the bracket moves twice in
//!   a row, the other end's `f` is halved, so a retained end cannot stall
//!   the secant.
//! * **Stop.** At `|f| ≤` [`RESIDUAL_TOL`] the probe is the root; once
//!   the bracket is narrower than the caller's tolerance, its midpoint
//!   is. A lane that has not stopped after [`MAX_STEPS`] probes takes
//!   its midpoint too (no continuous residual gets there).
//! * **NaN.** A NaN `f` stops the lane and is reported
//!   ([`Illinois::nan`]), never read as either sign.
//!
//! Each lane's trajectory depends only on its own residuals, and a lane
//! that has stopped never moves again, so a lane's root is the same
//! whichever lanes share its tile. The methods are `#[inline(always)]`
//! with plain lane loops, so a caller's `#[target_feature]` clone
//! compiles the whole solve with its own instruction set.
//!
//! # Example
//!
//! ```
//! use statobd_num::root::Illinois;
//!
//! // The Weibull plot of P(t) = 1 − exp(−(t/1e9)^1.5) at the 1 ppm
//! // target: f(x) = 1.5·(x − ln 1e9) − ln(−ln(1 − 1e-6)).
//! let c = (-(-1e-6f64).ln_1p()).ln();
//! let f = |x: f64| 1.5 * (x - 1e9f64.ln()) - c;
//! let (lo, hi) = (1e4f64.ln(), 1e13f64.ln());
//! let mut solver = Illinois::<1>::new([lo], [f(lo)], [hi], [f(hi)], [true], 1e-10);
//! while !solver.done() {
//!     let x = solver.probe();
//!     solver.update(&[f(x[0])]);
//! }
//! let t = solver.roots()[0].exp();
//! let exact = 1e9 * (-(-1e-6f64).ln_1p()).powf(1.0 / 1.5);
//! assert!((t - exact).abs() / exact < 1e-12);
//! assert!(solver.steps() <= 2); // a straight Weibull plot: one secant
//! ```

/// `|f|` at or below which a probe is taken as the root: about fifteen
/// ulp of a Weibull-plot ordinate of 40 (`|ln(−ln S)| ≲ 40` for every
/// physical target).
pub const RESIDUAL_TOL: f64 = 1e-13;

/// Probes after which a lane stops at its bracket midpoint. A continuous
/// residual stops long before: bisection alone would halve a 50-wide
/// bracket below 1e-13 in 49 probes.
pub const MAX_STEPS: u32 = 200;

/// Which end of a lane's bracket the last probe replaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    None,
    Lo,
    Hi,
}

/// `W` independent Illinois (regula falsi) solves of an increasing
/// residual `f(x)`, each on its own bracket `[lo, hi]` with
/// `f(lo) ≤ 0 ≤ f(hi)` (see the [module docs](self)).
///
/// The caller owns the residual. It asks for the next per-lane points
/// with [`probe`](Illinois::probe), evaluates `f` there (all `W` lanes;
/// a stopped lane repeats its last point, whose value is ignored), and
/// hands the values back through [`update`](Illinois::update) until
/// [`done`](Illinois::done).
#[derive(Clone, Copy, Debug)]
pub struct Illinois<const W: usize> {
    lo: [f64; W],
    hi: [f64; W],
    f_lo: [f64; W],
    f_hi: [f64; W],
    /// The last probe; a stopped lane's root.
    x: [f64; W],
    last: [End; W],
    stopped: [bool; W],
    nan: [bool; W],
    tol: f64,
    steps: u32,
}

impl<const W: usize> Illinois<W> {
    /// Starts a solve per lane from its bracket `[lo, hi]` and the
    /// residuals at its ends. A lane stops at once when it is not
    /// `active`, when an edge residual is NaN (reported) or within
    /// [`RESIDUAL_TOL`] (that edge is the root), or when the bracket is
    /// already narrower than `tol` (its midpoint is the root).
    #[inline(always)]
    pub fn new(
        lo: [f64; W],
        f_lo: [f64; W],
        hi: [f64; W],
        f_hi: [f64; W],
        active: [bool; W],
        tol: f64,
    ) -> Self {
        let mut solver = Illinois {
            lo,
            hi,
            f_lo,
            f_hi,
            x: [0.0; W],
            last: [End::None; W],
            stopped: [false; W],
            nan: [false; W],
            tol,
            steps: 0,
        };
        for w in 0..W {
            solver.x[w] = 0.5 * (lo[w] + hi[w]);
            if !active[w] {
                solver.stopped[w] = true;
            } else if f_lo[w].is_nan() || f_hi[w].is_nan() {
                solver.x[w] = if f_lo[w].is_nan() { lo[w] } else { hi[w] };
                solver.nan[w] = true;
                solver.stopped[w] = true;
            } else if f_lo[w].abs() <= RESIDUAL_TOL {
                solver.x[w] = lo[w];
                solver.stopped[w] = true;
            } else if f_hi[w].abs() <= RESIDUAL_TOL {
                solver.x[w] = hi[w];
                solver.stopped[w] = true;
            } else if hi[w] - lo[w] < tol {
                solver.stopped[w] = true;
            }
        }
        solver
    }

    /// `true` once every lane has stopped.
    #[inline(always)]
    pub fn done(&self) -> bool {
        let mut all = true;
        for w in 0..W {
            all &= self.stopped[w];
        }
        all
    }

    /// The next point of every running lane (the secant point when it
    /// lies strictly inside the bracket, else the midpoint); a stopped
    /// lane repeats its root.
    #[inline(always)]
    pub fn probe(&mut self) -> [f64; W] {
        for w in 0..W {
            let (lo, hi) = (self.lo[w], self.hi[w]);
            let secant = hi - self.f_hi[w] * (hi - lo) / (self.f_hi[w] - self.f_lo[w]);
            // An infinite end makes the secant NaN (`+∞` above) or lands
            // it on an edge (`−∞` below): either fails the test and
            // bisects.
            let inside = lo < secant && secant < hi;
            let next = if inside { secant } else { 0.5 * (lo + hi) };
            if !self.stopped[w] {
                self.x[w] = next;
            }
        }
        self.x
    }

    /// Absorbs the residuals `f` at the last [`probe`](Illinois::probe):
    /// each running lane stops on a NaN or a root, or moves the end on
    /// `f`'s side to the probe, and stops once its bracket is narrower
    /// than the tolerance. Values of stopped lanes are ignored.
    #[inline(always)]
    pub fn update(&mut self, f: &[f64; W]) {
        self.steps += 1;
        for w in 0..W {
            if self.stopped[w] {
                continue;
            }
            let (x, fx) = (self.x[w], f[w]);
            if fx.is_nan() {
                self.nan[w] = true;
                self.stopped[w] = true;
                continue;
            }
            if fx.abs() <= RESIDUAL_TOL {
                self.stopped[w] = true;
                continue;
            }
            if fx > 0.0 {
                if self.last[w] == End::Hi {
                    self.f_lo[w] *= 0.5;
                }
                self.hi[w] = x;
                self.f_hi[w] = fx;
                self.last[w] = End::Hi;
            } else {
                if self.last[w] == End::Lo {
                    self.f_hi[w] *= 0.5;
                }
                self.lo[w] = x;
                self.f_lo[w] = fx;
                self.last[w] = End::Lo;
            }
            if self.hi[w] - self.lo[w] < self.tol || self.steps >= MAX_STEPS {
                self.x[w] = 0.5 * (self.lo[w] + self.hi[w]);
                self.stopped[w] = true;
            }
        }
    }

    /// Each lane's root: its last probe when it stopped on the residual
    /// (or on a NaN, which [`nan`](Illinois::nan) flags), its bracket
    /// midpoint when it stopped on the width. Meaningful once
    /// [`done`](Illinois::done).
    #[inline(always)]
    pub fn roots(&self) -> [f64; W] {
        self.x
    }

    /// Lanes that stopped on a NaN residual; their
    /// [`roots`](Illinois::roots) entry is the point that produced it.
    #[inline(always)]
    pub fn nan(&self) -> [bool; W] {
        self.nan
    }

    /// Probes taken so far (the same for every lane: a stopped lane rides
    /// along).
    #[inline(always)]
    pub fn steps(&self) -> u32 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` lane by lane to completion, returning roots and steps.
    fn solve<const W: usize>(
        f: impl Fn(usize, f64) -> f64,
        lo: f64,
        hi: f64,
        tol: f64,
    ) -> ([f64; W], u32, [bool; W]) {
        let mut f_lo = [0.0; W];
        let mut f_hi = [0.0; W];
        for w in 0..W {
            f_lo[w] = f(w, lo);
            f_hi[w] = f(w, hi);
        }
        let mut s = Illinois::<W>::new([lo; W], f_lo, [hi; W], f_hi, [true; W], tol);
        while !s.done() {
            let x = s.probe();
            let mut fx = [0.0; W];
            for w in 0..W {
                fx[w] = f(w, x[w]);
            }
            s.update(&fx);
        }
        (s.roots(), s.steps(), s.nan())
    }

    #[test]
    fn straight_weibull_plot_is_one_secant() {
        let (roots, steps, nan) = solve::<1>(|_, x| 2.0 * (x - 3.0), -10.0, 30.0, 1e-13);
        assert_eq!(roots[0], 3.0);
        assert!(steps <= 2, "{steps} steps");
        assert!(!nan[0]);
    }

    #[test]
    fn curved_residual_converges_superlinearly() {
        // A Weibull plot bent like eq. 17's log-quadratic kernel: the
        // secant keeps landing on one side, which is what the Illinois
        // halving is for.
        let f = |_: usize, x: f64| 1.5 * (x - 20.0) + 0.05 * (x - 20.0) * (x - 20.0);
        let (roots, steps, _) = solve::<1>(f, 9.2, 30.0, 1e-13);
        assert!((roots[0] - 20.0).abs() < 1e-13, "{}", roots[0]);
        assert!(steps <= 8, "{steps} steps");
    }

    #[test]
    fn infinite_residuals_fall_back_to_the_midpoint() {
        // f = −∞ below 5 (P rounds to 0) and +∞ above 15 (saturated).
        let f = |_: usize, x: f64| {
            if x < 5.0 {
                f64::NEG_INFINITY
            } else if x > 15.0 {
                f64::INFINITY
            } else {
                x - 8.0
            }
        };
        let (roots, _, nan) = solve::<1>(f, 0.0, 40.0, 1e-12);
        assert!((roots[0] - 8.0).abs() < 1e-12, "{}", roots[0]);
        assert!(!nan[0]);
    }

    #[test]
    fn a_kink_stops_on_the_bracket_width() {
        // Two Weibull slopes meeting at the root: no secant is exact, so
        // the solve ends on the width with the root inside the bracket.
        let f = |_: usize, x: f64| {
            if x < 7.0 {
                0.5 * (x - 7.0)
            } else {
                4.0 * (x - 7.0)
            }
        };
        let (roots, steps, _) = solve::<1>(f, 0.0, 30.0, 1e-10);
        assert!((roots[0] - 7.0).abs() < 1e-10, "{}", roots[0]);
        assert!(steps < MAX_STEPS);
    }

    #[test]
    fn nan_is_reported_not_absorbed() {
        // The first secant point, 5, lies in the NaN window.
        let f = |_: usize, x: f64| {
            if (4.0..6.0).contains(&x) {
                f64::NAN
            } else {
                x - 5.0
            }
        };
        let (roots, _, nan) = solve::<1>(f, 0.0, 10.0, 1e-12);
        assert!(nan[0]);
        assert!((4.0..6.0).contains(&roots[0]));
        let (_, _, nan) = solve::<1>(|_, x| if x == 0.0 { f64::NAN } else { x }, 0.0, 1.0, 1e-12);
        assert!(nan[0], "a NaN edge is reported too");
    }

    #[test]
    fn lanes_are_independent_of_their_neighbours() {
        // Lane w solves its own line; each root is bit-identical to the
        // same solve at width 1, and a stopped lane never moves.
        let f = |w: usize, x: f64| (1.0 + w as f64 * 0.7) * (x - 2.0 * w as f64) + 0.01 * x * x;
        let (wide, _, _) = solve::<8>(f, -5.0, 30.0, 1e-13);
        for (w, &root) in wide.iter().enumerate() {
            let (one, _, _) = solve::<1>(|_, x| f(w, x), -5.0, 30.0, 1e-13);
            assert_eq!(root.to_bits(), one[0].to_bits(), "lane {w}");
        }
        let inactive = Illinois::<4>::new(
            [0.0; 4],
            [-1.0; 4],
            [2.0; 4],
            [1.0; 4],
            [false, true, false, false],
            1e-13,
        );
        assert!(!inactive.done());
        assert_eq!(inactive.roots()[0], 1.0);
    }
}
