//! The harness the bench binaries run on: one command line ([`Cli`]:
//! `--quick` and `--out` on top of the binary's own [`Flags`]), one gate
//! collector that writes the JSON report ([`Gates`]), one interleaved
//! re-measure ([`remeasure`]), one NaN-aware relative divergence
//! ([`rel_divergence`]) and one log-spaced time grid ([`log_times`]).
//! The `paper` binary uses the command line only: it ends the parse with
//! [`Cli::finish`] and writes no report.
//!
//! Exit codes: 0 when every gate passed; 1 when a gate failed (the
//! report is still written); 2 on bad arguments, before any work is done
//! and without writing a report.

use crate::BRACKET;
use statobd_circuits::Benchmark;
use statobd_num::flags::{at_least, path, Flags};
use statobd_num::json::{self, ToJson};

/// A bench binary's command line: `--quick` plus its [`Flags`], in any
/// order. An explicit value always beats the `--quick` default.
#[derive(Debug)]
pub struct Cli {
    /// `--quick`: smoke-sized defaults; speed bars are recorded, not
    /// enforced.
    pub quick: bool,
    flags: Flags,
}

impl Cli {
    /// Reads the process arguments.
    pub fn from_env() -> Cli {
        Cli::new(Flags::new(std::env::args().skip(1)))
    }

    fn new(mut flags: Flags) -> Cli {
        Cli {
            quick: flags.switch("--quick"),
            flags,
        }
    }

    /// The value of `name` read by `parse`, else the full-run or the
    /// `--quick` default. A bad or missing value makes [`Cli::gates`]
    /// exit 2.
    pub fn flag<T>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
        full: T,
        quick: T,
    ) -> T {
        let default = if self.quick { quick } else { full };
        self.flags.value(name, parse, default)
    }

    /// `--threads` (0 = all cores).
    pub fn threads(&mut self, default: usize) -> usize {
        self.flag("--threads", at_least(0), default, default)
    }

    /// Reads `--out` (default `out`) and ends the parse (see
    /// [`Cli::finish`]), then opens the gate collector for the report.
    pub fn gates(mut self, out: &str) -> Gates {
        let out = self.flags.value("--out", path, out.to_string());
        Gates {
            quick: self.finish(),
            out,
            failures: Vec::new(),
        }
    }

    /// Ends the parse without opening a report: exits 2 listing every
    /// bad, missing or unknown argument, else returns `--quick`.
    pub fn finish(self) -> bool {
        if let Err(problems) = self.flags.finish() {
            eprintln!("{problems}");
            std::process::exit(2);
        }
        self.quick
    }
}

/// Parses a benchmark design name (`C1` … `MC16`).
pub fn design(s: &str) -> Result<Benchmark, String> {
    Benchmark::parse(s).map_err(|e| e.to_string())
}

/// Collects gate failures, then writes the report.
#[derive(Debug)]
pub struct Gates {
    quick: bool,
    out: String,
    failures: Vec<String>,
}

impl Gates {
    /// A gate: records `failure` unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(failure());
        }
        ok
    }

    /// A speed bar: a [`Gates::check`] that `--quick` runs skip, since
    /// timings of smoke-sized inputs are not trustworthy.
    pub fn bar(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.check(ok || self.quick, failure);
    }

    /// Writes `report` as pretty JSON to `--out` and prints `wrote
    /// <path>`; then prints every failure as `ERROR:` and exits 1 if
    /// there was any.
    pub fn finish(self, report: &impl ToJson) {
        std::fs::write(&self.out, json::to_string_pretty(report))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out));
        println!("wrote {}", self.out);
        for failure in &self.failures {
            eprintln!("ERROR: {failure}");
        }
        if !self.failures.is_empty() {
            std::process::exit(1);
        }
    }
}

/// Re-measure rounds [`remeasure`] may add after the first pair.
pub const MAX_REMEASURES: usize = 12;

/// Times a baseline (`run(false)`) and a faster path (`run(true)`), then
/// re-runs both alternately, keeping each side's fastest run by `secs`,
/// until the fast side is `bar`× faster or [`MAX_REMEASURES`] rounds are
/// spent: noise converges out, a real regression stays. Returns
/// `(baseline, fast)`.
pub fn remeasure<T>(bar: f64, secs: impl Fn(&T) -> f64, mut run: impl FnMut(bool) -> T) -> (T, T) {
    let (mut base, mut fast) = (run(false), run(true));
    for _ in 0..MAX_REMEASURES {
        if secs(&base) >= bar * secs(&fast) {
            break;
        }
        let b = run(false);
        if secs(&b) < secs(&base) {
            base = b;
        }
        let f = run(true);
        if secs(&f) < secs(&fast) {
            fast = f;
        }
    }
    (base, fast)
}

/// Max relative difference of `got` from `reference` (the denominator
/// floored at the smallest positive normal, so exact zeros compare
/// exactly). +∞ on a length mismatch, a NaN on either side or an
/// infinite reference the value misses: a plain `max` fold would drop
/// the NaN (`0.0f64.max(NaN) == 0.0`) and pass the gate.
pub fn rel_divergence(got: &[f64], reference: &[f64]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(reference)
        .map(|(&g, &r)| {
            if g == r {
                return 0.0;
            }
            let rel = (g - r).abs() / r.abs().max(f64::MIN_POSITIVE);
            if rel.is_nan() {
                f64::INFINITY
            } else {
                rel
            }
        })
        .fold(0.0, f64::max)
}

/// Whether two runs produced the same values bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `n >= 2` log-spaced times across [`BRACKET`].
pub fn log_times(n: usize) -> Vec<f64> {
    let (t_lo, t_hi) = BRACKET;
    let ratio = (t_hi / t_lo).ln();
    (0..n)
        .map(|i| t_lo * (ratio * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use statobd_num::flags::list;

    fn cli(args: &[&str]) -> Cli {
        Cli::new(Flags::new(args))
    }

    fn sweeps(args: &[&str]) -> (Vec<usize>, Result<(), String>) {
        let mut cli = cli(args);
        let sweeps = cli.flag("--sweeps", list(at_least(2)), vec![20, 200], vec![8, 40]);
        (sweeps, cli.flags.finish())
    }

    #[test]
    fn explicit_flags_beat_quick_in_any_order() {
        assert_eq!(sweeps(&["--sweeps", "4,8", "--quick"]).0, vec![4, 8]);
        assert_eq!(sweeps(&["--quick", "--sweeps", "4,8"]).0, vec![4, 8]);
        assert_eq!(sweeps(&["--quick"]).0, vec![8, 40]);
        assert_eq!(sweeps(&[]).0, vec![20, 200]);
        let mut c = cli(&["--threads", "3", "--quick", "--out", "r.json"]);
        assert_eq!(c.threads(1), 3);
        assert!(c.quick);
    }

    #[test]
    fn degenerate_values_fail_at_parse_time() {
        // The generic parser cases live with `statobd_num::flags`; these
        // are the harness's own flags.
        for bad in [
            &["--sweeps", "--quick"][..],
            &["--quick", "--quick"],
            &["--quick", "yes"],
        ] {
            assert!(sweeps(bad).1.is_err(), "{bad:?} accepted");
        }
        let fails = |args: &[&str], read: &dyn Fn(&mut Cli)| {
            let mut c = cli(args);
            read(&mut c);
            c.flags.finish().is_err()
        };
        let threads = |c: &mut Cli| {
            c.threads(1);
        };
        assert!(fails(&["--threads", "x"], &threads));
        assert!(fails(&["--threads", "-1"], &threads));
        assert!(!fails(&["--threads", "0"], &threads));
        assert!(fails(&["--design", "C9"], &|c: &mut Cli| {
            c.flag("--design", design, Benchmark::C3, Benchmark::C1);
        }));
    }

    #[test]
    fn rel_divergence_never_lets_nan_or_short_slices_pass() {
        assert_eq!(rel_divergence(&[f64::NAN, 1.0], &[0.5, 1.0]), f64::INFINITY);
        assert_eq!(rel_divergence(&[0.5, 1.0], &[0.5, f64::NAN]), f64::INFINITY);
        assert_eq!(rel_divergence(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(rel_divergence(&[1.0, 2.0], &[1.0]), f64::INFINITY);
        assert_eq!(rel_divergence(&[1.0], &[f64::INFINITY]), f64::INFINITY);
        assert_eq!(rel_divergence(&[f64::INFINITY], &[f64::INFINITY]), 0.0);
        assert_eq!(rel_divergence(&[0.0, 2.0], &[0.0, 2.0]), 0.0);
        assert!((rel_divergence(&[1.1, 2.0], &[1.0, 2.0]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn remeasure_stops_at_the_bar_or_the_cap() {
        let mut calls = 0;
        let (base, fast) = remeasure(
            2.0,
            |s: &f64| *s,
            |fast| {
                calls += 1;
                if fast {
                    1.0
                } else {
                    3.0
                }
            },
        );
        assert_eq!((base, fast, calls), (3.0, 1.0, 2));
        calls = 0;
        remeasure(
            2.0,
            |s: &f64| *s,
            |_| {
                calls += 1;
                1.0
            },
        );
        assert_eq!(calls, 2 + 2 * MAX_REMEASURES);
    }

    #[test]
    fn log_times_span_the_bracket() {
        let ts = log_times(7);
        assert_eq!((ts[0], ts.len()), (BRACKET.0, 7));
        assert!((ts[6] / BRACKET.1 - 1.0).abs() < 1e-12);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }
}
