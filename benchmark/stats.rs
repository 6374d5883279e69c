//! Order statistics, seeded shuffling and process measurements shared by
//! the workloads and the `compare` mode.

use statobd::num::rng::{Rng, Xoshiro256pp};

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_index(i + 1));
    }
}

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The smallest of `xs` (NaN when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method). A
/// single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Latencies in nanoseconds: exact 1 ns bins below [`Self::EXACT_NS`] and
/// an exact list above, so memory stays constant however many requests a
/// run completes.
#[derive(Debug)]
pub struct LatencyHist {
    bins: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

impl LatencyHist {
    const EXACT_NS: u64 = 200_000;

    pub fn new() -> Self {
        LatencyHist {
            bins: vec![0; Self::EXACT_NS as usize],
            over: Vec::new(),
            count: 0,
        }
    }

    pub fn add(&mut self, ns: u64) {
        self.count += 1;
        match self.bins.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile `q ∈ (0, 1]` in nanoseconds.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.bins.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        self.over.sort_unstable();
        self.over[(rank - seen - 1) as usize] as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_quantiles_span_both_ranges() {
        let mut h = LatencyHist::new();
        for ns in [5, 5, 7, 9, 300_000, 250_000] {
            h.add(ns);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile_ns(0.5), 7.0);
        assert_eq!(h.quantile_ns(5.0 / 6.0), 250_000.0);
        assert_eq!(h.quantile_ns(1.0), 300_000.0);
    }
}
