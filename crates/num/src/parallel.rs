//! Chunked parallel map/reduce on scoped threads.
//!
//! All fan-out in the workspace funnels through this module: per-chip
//! Monte-Carlo sampling, per-block quadrature construction, hybrid table
//! builds and the thermal solver's per-cell sweeps. Two properties are
//! deliberate:
//!
//! * **Deterministic results at any thread count.** Work items are
//!   identified by their index; outputs are gathered back into index order
//!   before any reduction, so sums are evaluated in the same order whether
//!   the work ran on one thread or sixteen.
//! * **No spawn below the crossover.** With one resolved thread (or one
//!   work item) everything degrades to a plain serial loop with zero
//!   threading overhead.
//!
//! Thread counts resolve as: explicit request → `STATOBD_THREADS`
//! environment variable → `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves an optional thread-count request against the environment.
///
/// Precedence: `requested` (clamped to ≥ 1), then the `STATOBD_THREADS`
/// environment variable, then the machine's available parallelism.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(text) = std::env::var("STATOBD_THREADS") {
        if let Ok(n) = text.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluates `f(0..n)` across `threads` workers, returning results in
/// index order.
///
/// Workers pull indices from a shared counter (dynamic load balancing), so
/// the schedule varies run to run — but the returned `Vec` is always
/// `[f(0), f(1), …, f(n-1)]`, making any subsequent fold deterministic.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            pairs.extend(handle.join().expect("parallel worker panicked"));
        }
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Runs `f(chunk_index, chunk)` over `chunk_len`-sized chunks of `data`
/// across `threads` workers.
///
/// Chunk boundaries depend only on `chunk_len`, never on the thread count;
/// callers seed any randomness from the chunk (or derived item) index so
/// the chunk contents are schedule-independent.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = threads.max(1).min(data.len().div_ceil(chunk_len).max(1));
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let item = queue.lock().expect("chunk queue poisoned").next();
                match item {
                    Some((i, chunk)) => f(i, chunk),
                    None => break,
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(100, threads, |i| i * i);
            assert_eq!(out.len(), 100);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i * i, "threads={threads}");
            }
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn chunked_mutation_touches_every_element_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u64; 103];
            for_each_chunk_mut(&mut data, 10, threads, |chunk_idx, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += (chunk_idx * 10 + j) as u64 + 1;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u64 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
