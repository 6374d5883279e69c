//! Order-independent command-line flags: the workspace's std-only
//! stand-in for `clap`.
//!
//! A command line is a list of `--flag value` pairs and bare `--switch`es
//! in any order. [`Flags::new`] splits it once; each getter claims one
//! flag and reads its value with a typed parser ([`at_least`],
//! [`positive`], [`probability`], [`fraction`], [`list`], [`path`], or any
//! `Fn(&str) -> Result<T, String>`). Every problem is collected — a bad or
//! missing value, a repeated flag, a switch given a value, an unknown flag
//! or a stray positional — and [`Flags::finish`] reports them all at once,
//! so a caller can reject its command line before doing any work.
//!
//! ```
//! use statobd_num::flags::{at_least, probability, Flags};
//!
//! let mut flags = Flags::new(["--json", "--budget", "1e-5", "--grid", "12"]);
//! assert_eq!(flags.value("--grid", at_least(1), 25), 12);
//! assert_eq!(flags.value("--budget", probability, 1e-6), 1e-5);
//! assert_eq!(flags.opt("--chips", at_least(1u64)), None);
//! assert!(flags.switch("--json"));
//! assert!(flags.finish().is_ok());
//!
//! let mut flags = Flags::new(["--grid", "0", "--grid", "6", "--bogus"]);
//! flags.value("--grid", at_least(1), 25);
//! let problems = flags.finish().unwrap_err();
//! assert!(problems.contains("--grid given twice"));
//! assert!(problems.contains("unknown option --bogus"));
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// A command line split into `--flag [value]` entries, plus the problems
/// found so far.
#[derive(Debug, Default)]
pub struct Flags {
    /// Entries no getter has claimed yet (`None`: no value followed).
    given: Vec<(String, Option<String>)>,
    errors: Vec<String>,
}

impl Flags {
    /// Splits `args`: an argument starting with `--` takes the next one as
    /// its value unless that one starts with `--` too. A repeated flag is
    /// recorded as a problem.
    pub fn new(args: impl IntoIterator<Item = impl ToString>) -> Flags {
        let mut flags = Flags::default();
        let mut args = args.into_iter().map(|a| a.to_string()).peekable();
        while let Some(arg) = args.next() {
            let value = arg
                .starts_with("--")
                .then(|| args.next_if(|v| !v.starts_with("--")))
                .flatten();
            if flags.given.iter().any(|(flag, _)| *flag == arg) {
                flags.errors.push(format!("{arg} given twice"));
            } else {
                flags.given.push((arg, value));
            }
        }
        flags
    }

    /// Claims `name`: `None` when it was not given.
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.given.iter().position(|(flag, _)| flag == name)?;
        Some(self.given.remove(i).1)
    }

    /// The value of `name` read by `parse`, or `None` when the flag is
    /// absent. A bad or missing value is recorded for [`Flags::finish`].
    pub fn opt<T>(&mut self, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Option<T> {
        let parsed = match self.take(name)? {
            Some(value) => parse(&value).map_err(|e| format!("{name}: {e}")),
            None => Err(format!("{name} needs a value")),
        };
        match parsed {
            Ok(value) => Some(value),
            Err(e) => {
                self.errors.push(e);
                None
            }
        }
    }

    /// The value of `name` read by `parse`, else `default`.
    pub fn value<T>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
        default: T,
    ) -> T {
        self.opt(name, parse).unwrap_or(default)
    }

    /// Whether the value-less switch `name` was given; a value after it is
    /// recorded as a problem.
    pub fn switch(&mut self, name: &str) -> bool {
        match self.take(name) {
            None => false,
            Some(None) => true,
            Some(Some(value)) => {
                self.errors
                    .push(format!("{name} takes no value, got {value:?}"));
                true
            }
        }
    }

    /// Ends the parse: every problem recorded, then every argument no
    /// getter claimed, one per line.
    ///
    /// # Errors
    ///
    /// Returns the problem list when there is any.
    pub fn finish(self) -> Result<(), String> {
        let unclaimed = self.given.into_iter().map(|(arg, _)| {
            if arg.starts_with("--") {
                format!("unknown option {arg}")
            } else {
                format!("unexpected argument {arg:?}")
            }
        });
        let problems: Vec<String> = self.errors.into_iter().chain(unclaimed).collect();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

/// Parses a finite number no smaller than `min` (infinities and NaN are
/// rejected for float `T` too).
pub fn at_least<T: FromStr + PartialOrd + Display + Copy>(
    min: T,
) -> impl Fn(&str) -> Result<T, String> {
    move |s| match (s.trim().parse::<T>(), s.trim().parse::<f64>()) {
        (Ok(v), Ok(x)) if v >= min && x.is_finite() => Ok(v),
        _ => Err(format!("expected a number >= {min}, got {s:?}")),
    }
}

/// Parses an `f64` that `ok` accepts; `expected` names the range.
fn real(s: &str, ok: impl Fn(f64) -> bool, expected: &str) -> Result<f64, String> {
    match s.trim().parse() {
        Ok(v) if ok(v) => Ok(v),
        _ => Err(format!("expected {expected}, got {s:?}")),
    }
}

/// Parses a positive, finite number.
pub fn positive(s: &str) -> Result<f64, String> {
    real(s, |v| v > 0.0 && v.is_finite(), "a positive finite number")
}

/// Parses a probability in the open interval (0, 1).
pub fn probability(s: &str) -> Result<f64, String> {
    real(s, |v| v > 0.0 && v < 1.0, "a probability in (0, 1)")
}

/// Parses a fraction in (0, 1].
pub fn fraction(s: &str) -> Result<f64, String> {
    real(s, |v| v > 0.0 && v <= 1.0, "a fraction in (0, 1]")
}

/// Parses a comma-separated list with `item`.
pub fn list<T>(
    item: impl Fn(&str) -> Result<T, String>,
) -> impl Fn(&str) -> Result<Vec<T>, String> {
    move |s| s.split(',').map(|x| item(x.trim())).collect()
}

/// Parses a non-empty path.
pub fn path(s: &str) -> Result<String, String> {
    match s {
        "" => Err("empty path".to_string()),
        s => Ok(s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `--grid` (at least 1, default 25) and the `--json` switch from
    /// `args`, then finishes the parse.
    fn parse(args: &[&str]) -> Result<(usize, bool), String> {
        let mut flags = Flags::new(args);
        let grid = flags.value("--grid", at_least(1), 25);
        let json = flags.switch("--json");
        flags.finish().map(|()| (grid, json))
    }

    #[test]
    fn flags_are_order_independent() {
        assert_eq!(parse(&["--grid", "6", "--json"]), Ok((6, true)));
        assert_eq!(parse(&["--json", "--grid", "6"]), Ok((6, true)));
        assert_eq!(parse(&[]), Ok((25, false)));
        // A negative number is a value, not a flag.
        let mut flags = Flags::new(["--rho", "-0.5"]);
        assert_eq!(
            flags.opt("--rho", |s| s.parse::<f64>().map_err(|e| e.to_string())),
            Some(-0.5)
        );
        assert!(flags.finish().is_ok());
    }

    #[test]
    fn malformed_command_lines_are_all_reported() {
        for (bad, needle) in [
            (&["--grid"][..], "--grid needs a value"),
            (&["--grid", "--json"], "--grid needs a value"),
            (&["--grid", "0"], "--grid: expected a number >= 1"),
            (&["--grid", "x"], "--grid: expected a number >= 1"),
            (&["--grid", "4", "--grid", "8"], "--grid given twice"),
            (&["--json", "--json"], "--json given twice"),
            (&["--json", "yes"], "--json takes no value"),
            (&["--bogus", "1"], "unknown option --bogus"),
            (&["stray"], "unexpected argument \"stray\""),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
        // Every problem is reported, not just the first.
        let err = parse(&["stray", "--grid", "0", "--bogus"]).unwrap_err();
        assert_eq!(err.lines().count(), 3, "{err}");
    }

    #[test]
    fn typed_parsers_reject_out_of_range_values() {
        assert_eq!(at_least(0usize)("0"), Ok(0));
        assert_eq!(at_least(2usize)(" 7 "), Ok(7));
        for bad in ["1", "-1", "x", "", "2.5"] {
            assert!(at_least(2usize)(bad).is_err(), "at_least(2) {bad:?}");
        }
        assert_eq!(at_least(0.0)("0"), Ok(0.0));
        for bad in ["-1", "inf", "NaN"] {
            assert!(at_least(0.0)(bad).is_err(), "at_least(0.0) {bad:?}");
        }
        assert_eq!(positive("0.4"), Ok(0.4));
        for bad in ["0", "-0.5", "nan", "inf", "x"] {
            assert!(positive(bad).is_err(), "positive {bad:?}");
        }
        assert_eq!(probability("1e-6"), Ok(1e-6));
        for bad in ["0", "1", "1.5", "-1e-6", "NaN"] {
            assert!(probability(bad).is_err(), "probability {bad:?}");
        }
        assert_eq!(fraction("1"), Ok(1.0));
        for bad in ["0", "-0.5", "1.5", "NaN", "x"] {
            assert!(fraction(bad).is_err(), "fraction {bad:?}");
        }
        assert_eq!(list(at_least(2usize))("16, 2"), Ok(vec![16, 2]));
        for bad in ["0", "16,1", "4,x", ""] {
            assert!(list(at_least(2usize))(bad).is_err(), "list {bad:?}");
        }
        assert_eq!(path("out.json"), Ok("out.json".to_string()));
        assert!(path("").is_err());
    }
}
