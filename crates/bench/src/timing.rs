//! The one calibrate-then-time loop (`sample`), behind both
//! [`measure_min`](crate::measure_min) in the gated bench binaries and
//! [`Group::bench`] in the `[[bench]]` targets.
//!
//! The `[[bench]]` targets are plain `fn main` binaries (`harness =
//! false`): each row warms the closure up, calibrates an iteration count
//! that keeps the timed region around a third of a second, then reports
//! the mean and best per-iteration wall time (the best over the warm-up
//! call and the batch averages). The output is meant for eyeball
//! comparison of the paper's runtime claims, not statistical rigor.

use std::hint::black_box;
use std::time::Instant;

/// Target wall time for one [`Group::bench`] row, split over up to
/// three timed batches; a closure slower than this runs twice (probe plus
/// one call).
const TARGET_WINDOW_S: f64 = 0.3;
/// Upper bound on the calls in one batch.
const MAX_ITERS: u64 = 100_000;

/// Per-call wall times of one measured closure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Calls inside the timed batches (the probe call excluded).
    calls: u64,
    /// Mean seconds per call over the timed batches.
    mean_s: f64,
    /// Fewest seconds per call: the probe or the best batch average.
    pub(crate) best_s: f64,
}

/// Times `f`: one probe call, which doubles as the warm-up, sizes a batch
/// to last at least `window_s`; then `batches` batches are timed, fewer
/// (but at least one) when the probe says they would overrun `budget_s`.
pub(crate) fn sample<T>(
    window_s: f64,
    batches: usize,
    budget_s: f64,
    mut f: impl FnMut() -> T,
) -> Sample {
    let start = Instant::now();
    black_box(f());
    let probe = start.elapsed().as_secs_f64();
    let batches = batches.min((budget_s / probe) as usize).max(1);
    let iters = if probe < window_s {
        ((window_s / probe.max(1e-9)).ceil() as u64).clamp(2, MAX_ITERS)
    } else {
        1
    };
    let (mut best_s, mut total_s) = (probe, 0.0);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let batch_s = start.elapsed().as_secs_f64();
        total_s += batch_s;
        best_s = best_s.min(batch_s / iters as f64);
    }
    let calls = iters * batches as u64;
    Sample {
        calls,
        mean_s: total_s / calls as f64,
        best_s,
    }
}

/// A named group of measurements, mirroring criterion's `benchmark_group`.
#[derive(Debug)]
pub struct Group {
    name: &'static str,
}

impl Group {
    /// Starts a new group, printing its header.
    pub fn new(name: &'static str) -> Self {
        println!("\n== {name} ==");
        Group { name }
    }

    /// Times `f` and prints one result row.
    pub fn bench<T>(&self, name: &str, f: impl FnMut() -> T) {
        let s = sample(TARGET_WINDOW_S / 3.0, 3, TARGET_WINDOW_S, f);
        println!(
            "{}/{name:<32} {:>7} iters  mean {}  best {}",
            self.name,
            s.calls,
            fmt_duration(s.mean_s),
            fmt_duration(s.best_s)
        );
    }
}

/// Formats a per-iteration duration with an adaptive unit.
pub fn fmt_duration(s: f64) -> String {
    if s < 1e-6 {
        format!("{:8.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:8.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:8.2} ms", s * 1e3)
    } else {
        format!("{s:8.3} s ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_units() {
        assert!(fmt_duration(5e-9).contains("ns"));
        assert!(fmt_duration(5e-6).contains("µs"));
        assert!(fmt_duration(5e-3).contains("ms"));
        assert!(fmt_duration(5.0).trim_end().ends_with('s'));
    }

    #[test]
    fn bench_runs_closure() {
        let group = Group::new("test");
        let mut calls = 0u64;
        group.bench("noop", || calls += 1);
        assert!(calls >= 2); // warm-up + at least one timed iteration
    }

    #[test]
    fn sample_counts_every_timed_call() {
        let mut calls = 0u64;
        let s = sample(1e-4, 3, f64::INFINITY, || calls += 1);
        assert_eq!(calls, 1 + s.calls);
        assert!(s.calls >= 6);
        // A probe slower than the budget leaves one timed batch.
        let slow = sample(0.0, 3, 0.0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(slow.calls, 1);
    }
}
