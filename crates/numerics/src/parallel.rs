//! Deterministic fork-join parallelism on scoped OS threads.
//!
//! This is the substrate under `eirs_core::sweep` (figure-grid fan-out) and
//! `eirs_sim::replicate` (replication fan-out). It is intentionally tiny:
//! a work queue over an index counter, scoped `std::thread` workers (so
//! closures may borrow locals), and slot-addressed result storage so output
//! order always equals input order no matter how the OS schedules workers.
//! Determinism therefore reduces to the mapped function being a pure
//! function of its input — which every sweep point and seeded replication
//! in this workspace is.
//!
//! No work-stealing, no rayon: the workloads here are hundreds of
//! independent solves. Workers claim **chunks** of consecutive items from
//! a shared atomic counter (several chunks per worker, so stragglers still
//! balance) and buffer results locally; the caller reassembles them into
//! input order after the join. Compared to the original per-item counter +
//! mutexed result vector, this amortizes all cross-thread synchronization
//! over a chunk — the difference between 0.94× and real speedup when the
//! per-item cost is tens of microseconds (dense figure-4 sweep cells).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "EIRS_THREADS";

/// Process-wide programmatic override (0 = unset). Takes precedence over
/// [`THREADS_ENV`] so a command-line flag can win over the environment.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide worker-thread count, overriding both the
/// `EIRS_THREADS` environment variable and the detected core count.
/// `None` clears the override. Used by the `eirs --threads N` flag.
pub fn set_num_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// Worker threads to use by default: the [`set_num_threads`] override if
/// set, else `EIRS_THREADS` if set and positive, otherwise the machine's
/// available parallelism.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced >= 1 {
        return forced;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many chunks each worker should see on average. More chunks → finer
/// load balancing; fewer → less counter traffic. Four is enough that one
/// straggler chunk costs at most ~1/4 of a worker's share of the sweep.
const CHUNKS_PER_WORKER: usize = 4;

/// Maps `f` over `items` on `threads` scoped worker threads, returning
/// results in input order. With `threads <= 1` (or fewer than two items)
/// the map runs inline on the caller's thread with no synchronization —
/// the serial reference path.
///
/// Work is claimed in chunks of consecutive items (a few chunks per
/// worker — see `CHUNKS_PER_WORKER`) from one atomic counter;
/// each worker buffers its `(chunk start, results)` pairs locally and the
/// caller stitches them back into input order, so there is no shared
/// result lock and the per-item overhead is a plain function call.
/// Items remain evaluated exactly once, in-chunk order, by a pure `f` —
/// output is bit-identical to the serial path regardless of scheduling.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn par_map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    let chunk = chunk_len(items.len(), workers);
    let nchunks = items.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);

    let pieces: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(items.len());
                        mine.push((start, items[start..end].iter().map(&f).collect()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (start, rs) in pieces {
        for (offset, r) in rs.into_iter().enumerate() {
            slots[start + offset] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every chunk claimed exactly once"))
        .collect()
}

/// Items per claimed chunk when `workers` workers share `items` items.
fn chunk_len(items: usize, workers: usize) -> usize {
    items.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

/// The most items one worker maps when [`par_map_ordered`] spreads
/// `items` items of equal cost over `threads` workers and the chunks are
/// claimed in even rounds. A caller that chooses how to cut its work into
/// items can weigh each cut by it.
pub fn busiest_worker_items(items: usize, threads: usize) -> usize {
    if threads <= 1 || items <= 1 {
        return items;
    }
    let workers = threads.min(items);
    let chunk = chunk_len(items, workers);
    items.div_ceil(chunk).div_ceil(workers) * chunk
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_ordered(&items, 4, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_is_inline() {
        let items = vec![1, 2, 3];
        let out = par_map_ordered(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e6).to_bits();
        let serial = par_map_ordered(&items, 1, f);
        let parallel = par_map_ordered(&items, 8, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_ordered(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map_ordered(&[7], 4, |&x| x * 2), vec![14]);
    }

    #[test]
    fn closures_may_borrow_locals() {
        let offset = 10;
        let items = vec![1, 2, 3];
        let out = par_map_ordered(&items, 2, |&x| x + offset);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn chunked_claiming_covers_ragged_lengths() {
        // Lengths that don't divide evenly into chunks, plus more workers
        // than items: every slot must still be filled exactly once.
        for len in [2usize, 3, 7, 17, 63, 100, 257] {
            for threads in [2usize, 3, 8, 300] {
                let items: Vec<usize> = (0..len).collect();
                let out = par_map_ordered(&items, threads, |&x| x * 3);
                assert_eq!(out.len(), len);
                for (i, v) in out.iter().enumerate() {
                    assert_eq!(*v, i * 3, "len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn busiest_worker_counts_whole_chunks() {
        // (items, threads, busiest worker's items): 5 items on 2 workers
        // are 5 one-item chunks, 3 for the busier worker; 10 items are
        // 5 two-item chunks, so cutting 5 items in half saves nothing.
        for (items, threads, want) in [
            (0, 4, 0),
            (1, 4, 1),
            (7, 1, 7),
            (3, 8, 1),
            (5, 2, 3),
            (10, 2, 6),
            (40, 2, 20),
            (12, 8, 2),
            (48, 8, 6),
        ] {
            assert_eq!(
                busiest_worker_items(items, threads),
                want,
                "{items} on {threads}"
            );
        }
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u32> = (0..64).collect();
            par_map_ordered(&items, 4, |&x| {
                assert!(x != 33, "injected failure");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn programmatic_override_wins_and_clears() {
        // Note: other tests in this module do not touch the override, so
        // setting and clearing it here is race-free in practice (and the
        // assertion with the override set is exact either way).
        set_num_threads(Some(3));
        assert_eq!(num_threads(), 3);
        set_num_threads(None);
        assert!(num_threads() >= 1);
    }
}
