//! The one calibrate-then-time loop (`sample`), behind
//! [`measure_min`](crate::measure_min) in the gated bench binaries.

use std::hint::black_box;
use std::time::Instant;

/// Upper bound on the calls in one batch.
const MAX_ITERS: u64 = 100_000;

/// Times `f` and returns its fewest seconds per call: the probe or the
/// best batch average. One probe call, which doubles as the warm-up,
/// sizes a batch to last at least `window_s`; then `batches` batches
/// (at least one) are timed.
pub(crate) fn sample<T>(window_s: f64, batches: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let probe = start.elapsed().as_secs_f64();
    let iters = if probe < window_s {
        ((window_s / probe.max(1e-9)).ceil() as u64).clamp(2, MAX_ITERS)
    } else {
        1
    };
    let mut best_s = probe;
    for _ in 0..batches.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best_s = best_s.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_counts_every_timed_call() {
        // The probe, then three batches of at least two calls.
        let mut calls = 0u64;
        let best = sample(1e-4, 3, || calls += 1);
        assert!(calls >= 7, "{calls} calls");
        assert!(best >= 0.0);
        // A probe slower than the window leaves one call per batch.
        let mut calls = 0u64;
        sample(0.0, 3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(calls, 4);
    }
}
