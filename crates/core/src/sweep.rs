//! Deterministic parallel sweep engine for parameter-grid experiments.
//!
//! Every headline artifact of the paper is an embarrassingly parallel map
//! over a parameter grid: Figure 4 solves 196 QBD pairs per heat map,
//! Figure 5 one pair per `µ_I` value, Figure 6 one pair per server count,
//! and the robustness/open-regime studies multiply those by simulation
//! replications. This module gives all of them one fan-out primitive with
//! two guarantees:
//!
//! 1. **Ordered results** — `sweep(points, f)[i]` is `f(&points[i])`,
//!    regardless of worker scheduling.
//! 2. **Bit-determinism** — because each point is evaluated by a pure
//!    function of the point alone (the QBD solver is deterministic, and
//!    simulation replications carry their own seeded RNG streams), the
//!    parallel result vector is bit-identical to the serial one. The
//!    workspace's property tests assert this for the Figure 4 grid.
//!
//! Thread count comes from [`threads()`]: the [`set_threads`] override
//! when one was installed (the `eirs --threads N` flag uses this), else
//! the `EIRS_THREADS` environment variable when set, otherwise all
//! available cores. A count of 1 forces the inline serial path (no worker
//! threads at all): `sweep_with_threads(points, 1, f)` is the serial
//! reference for differential testing.

use eirs_numerics::parallel;

pub use parallel::busiest_worker_items;

/// Default worker-thread count for sweeps ([`set_threads`] override,
/// `EIRS_THREADS`, or all cores — in that order).
pub fn threads() -> usize {
    parallel::num_threads()
}

/// Installs a process-wide worker-thread count for all subsequent sweeps,
/// overriding `EIRS_THREADS` and core detection; `None` clears it.
pub fn set_threads(threads: Option<usize>) {
    parallel::set_num_threads(threads);
}

/// Maps `f` over `points` in parallel on [`threads()`] workers, returning
/// results in input order.
pub fn sweep<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    sweep_with_threads(points, threads(), f)
}

/// Like [`sweep`] with an explicit worker count. `threads <= 1` runs
/// inline on the caller's thread.
///
/// When the `eirs_obs` layer is enabled, the sweep emits one enclosing
/// span plus a per-point `sweep.point` span (telemetry only: the mapped
/// function's results are untouched, so parallel output stays
/// bit-identical to serial with instrumentation on or off).
pub fn sweep_with_threads<T, R, F>(points: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut sweep_span = eirs_obs::span("sweep", "sweep");
    sweep_span.arg("points", points.len());
    sweep_span.arg("threads", threads.max(1));
    parallel::par_map_ordered(points, threads, |p| {
        let _point = eirs_obs::span("sweep.point", "sweep");
        f(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_results_are_ordered() {
        let points: Vec<u32> = (0..100).collect();
        let out = sweep_with_threads(&points, 4, |&x| x * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3 * i as u32);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // A numerically nontrivial pure function: parallel evaluation must
        // not perturb a single bit.
        let points: Vec<f64> = (1..200).map(|i| i as f64 * 0.013).collect();
        let f = |x: &f64| (x.ln() * x.exp() / (1.0 + x * x)).to_bits();
        let serial = sweep_with_threads(&points, 1, f);
        let parallel = sweep_with_threads(&points, 8, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_propagates_result_types() {
        let points = [1.0f64, -1.0, 4.0];
        let out: Vec<Result<f64, String>> = sweep_with_threads(&points, 2, |&x| {
            if x >= 0.0 {
                Ok(x.sqrt())
            } else {
                Err(format!("negative point {x}"))
            }
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn threads_respects_minimum() {
        assert!(threads() >= 1);
    }
}
