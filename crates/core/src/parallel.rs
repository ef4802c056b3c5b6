//! Shared worker-pool machinery: worker-count resolution and deterministic
//! work-stealing over rank ranges.
//!
//! Two independent engines need the same two ingredients — the timeliness
//! matrix sweep ([`crate::timeliness::sweep_matrix`]) and the scenario
//! campaign engine (`st-campaign`):
//!
//! 1. **Worker resolution** ([`resolve_workers`]): turn a caller's thread
//!    request into a concrete worker count, with `usize::MAX` meaning "one
//!    per hardware thread".
//! 2. **Deterministic stealing** ([`steal_chunks`]): split a `0..total` rank
//!    space into fixed-size chunks handed out by a shared atomic counter, so
//!    a worker that drew cheap items loops back for more while a slow worker
//!    is still grinding. Results come back **sorted by first rank**, so any
//!    merge that folds them in that order reproduces the sequential
//!    enumeration exactly — the output is identical for every worker count,
//!    including oversubscribed ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Resolves the caller's thread request: `usize::MAX` means "one worker per
/// hardware thread"; any other value is honored as given (oversubscribing
/// the hardware is allowed — it is how the stealing machinery is exercised
/// on small hosts), bounded only by a sanity cap.
pub fn resolve_workers(threads: usize) -> usize {
    if threads == usize::MAX {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads.clamp(1, 64)
    }
}

/// Runs `run_chunk` over the rank space `0..total` in chunks of `chunk`
/// ranks, stolen off a shared atomic counter by `workers` OS threads, and
/// returns the per-chunk results **sorted by the chunk's first rank**.
///
/// `init` builds one per-worker scratch state (an analyzer, a simulator
/// pool, `()` if none is needed); `run_chunk(state, first, last)` processes
/// the half-open rank interval `[first, last)`.
///
/// Chunks are disjoint intervals covering `0..total`, so folding the
/// returned parts in order is exactly the sequential left-to-right fold —
/// deterministic in `workers`, which only affects wall-clock. With
/// `workers <= 1` (or nothing to do) no thread is spawned: the chunks run
/// inline, in order, on one scratch state.
///
/// # Panics
///
/// Panics if `chunk == 0`, or if a worker thread panics (with that
/// worker's own panic payload, as the single-worker path would).
pub fn steal_chunks<W, T, FInit, FChunk>(
    total: u64,
    workers: usize,
    chunk: u64,
    init: FInit,
    run_chunk: FChunk,
) -> Vec<(u64, T)>
where
    T: Send,
    FInit: Fn() -> W + Sync,
    FChunk: Fn(&mut W, u64, u64) -> T + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if total == 0 {
        return Vec::new();
    }
    let n_chunks = total.div_ceil(chunk);
    let workers = workers.clamp(1, n_chunks.min(usize::MAX as u64) as usize);
    if workers == 1 {
        let mut state = init();
        let mut parts = Vec::with_capacity(n_chunks as usize);
        let mut first = 0u64;
        while first < total {
            let last = (first + chunk).min(total);
            parts.push((first, run_chunk(&mut state, first, last)));
            first = last;
        }
        return parts;
    }
    let next_rank = AtomicU64::new(0);
    let parts: Mutex<Vec<(u64, T)>> = Mutex::new(Vec::with_capacity(n_chunks as usize));
    std::thread::scope(|scope| {
        let (next_rank, parts, init, run_chunk) = (&next_rank, &parts, &init, &run_chunk);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let first = next_rank.fetch_add(chunk, Ordering::Relaxed);
                        if first >= total {
                            break;
                        }
                        let last = (first + chunk).min(total);
                        let out = run_chunk(&mut state, first, last);
                        parts.lock().expect("worker panicked").push((first, out));
                    }
                })
            })
            .collect();
        // Joined by hand so that a worker's panic reaches the caller as
        // itself; left to the scope it becomes "a scoped thread panicked".
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut parts = parts.into_inner().expect("worker panicked");
    parts.sort_unstable_by_key(|&(first, _)| first);
    parts
}

/// The steal granularity [`crate::timeliness::sweep_matrix`] uses: several
/// grabs per worker so the tail imbalance is one chunk rather than one
/// static share, floored so the shared counter is not contended for trivial
/// work items.
pub fn sweep_chunk_size(total: u64, workers: usize) -> u64 {
    (total / (workers as u64 * 8)).max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_honors_explicit_counts() {
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
        assert_eq!(resolve_workers(0), 1);
        assert_eq!(resolve_workers(1000), 64);
        assert!(resolve_workers(usize::MAX) >= 1);
    }

    #[test]
    fn chunks_cover_and_sort() {
        for workers in [1usize, 2, 5, 16] {
            let parts = steal_chunks(103, workers, 10, || 0u64, |_, first, last| (first, last));
            let firsts: Vec<u64> = parts.iter().map(|&(f, _)| f).collect();
            assert_eq!(firsts, (0..11).map(|c| c * 10).collect::<Vec<_>>());
            assert!(parts
                .iter()
                .all(|&(f, (a, b))| a == f && b == (f + 10).min(103)));
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let run = |workers| {
            steal_chunks(
                1000,
                workers,
                7,
                || (),
                |_, first, last| (first..last).map(|r| r * r % 97).sum::<u64>(),
            )
        };
        let seq = run(1);
        for workers in [2usize, 4, 33] {
            assert_eq!(run(workers), seq, "workers = {workers}");
        }
    }

    #[test]
    fn empty_total_yields_nothing() {
        let parts = steal_chunks(0, 4, 16, || (), |_, _, _| 0u8);
        assert!(parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        let _ = steal_chunks(10, 2, 0, || (), |_, _, _| ());
    }

    #[test]
    #[should_panic(expected = "rank 5 is cursed")]
    fn a_workers_panic_reaches_the_caller_with_its_message() {
        let _ = steal_chunks(
            10,
            2,
            1,
            || (),
            |_, first, _| assert!(first != 5, "rank 5 is cursed"),
        );
    }
}
