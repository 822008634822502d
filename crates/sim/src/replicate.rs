//! Parallel simulation replications with per-replication seed streams.
//!
//! Robustness and open-regime experiments average many independent
//! replications of the same configuration. Replications only interact
//! through their *seeds*, so they parallelize perfectly — provided each
//! replication owns its entire RNG stream. This module derives one
//! decorrelated seed per replication from a base seed with SplitMix64
//! ([`replication_seeds`]) and fans the replications out over scoped
//! worker threads through the same ordered-result primitive as the figure
//! sweeps.
//!
//! Because replication `r` is a pure function of `seeds[r]`, the parallel
//! result vector is **bit-identical** to running the replications
//! serially — asserted by the workspace's determinism tests.

use crate::des::{run_markovian, SimReport};
use crate::policy::AllocationPolicy;
use eirs_numerics::parallel;
use rand::SplitMix64;

/// Derives `n` decorrelated replication seeds from `base_seed` via the
/// SplitMix64 stream (the scheme the xoshiro authors recommend for
/// seeding independent generators).
pub fn replication_seeds(base_seed: u64, n: usize) -> Vec<u64> {
    let mut sm = SplitMix64 { state: base_seed };
    (0..n).map(|_| sm.next_u64()).collect()
}

/// Runs `f` once per seed in parallel (all cores), returning results in
/// seed order. `f` must be a pure function of the seed — every simulation
/// entry point in this crate is, because all randomness flows through the
/// seed's RNG stream.
pub fn run_replications<R, F>(base_seed: u64, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    run_replications_with_threads(base_seed, n, parallel::num_threads(), f)
}

/// [`run_replications`] with an explicit worker-thread count
/// (`threads <= 1` runs inline — the serial reference path). With
/// `eirs_obs` enabled each replication runs inside a `sim.replication`
/// span (arg: its seed) on the thread that runs it.
pub fn run_replications_with_threads<R, F>(base_seed: u64, n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seeds = replication_seeds(base_seed, n);
    parallel::par_map_ordered(&seeds, threads, |&seed| {
        let mut span = eirs_obs::span("sim.replication", "sim");
        span.arg("seed", seed);
        f(seed)
    })
}

/// Parallel steady-state replications of the Markovian model under
/// `policy`: `n` independent [`run_markovian`] runs with seeds derived
/// from `base_seed`, in seed order.
#[allow(clippy::too_many_arguments)]
pub fn run_markovian_replications(
    policy: &dyn AllocationPolicy,
    k: u32,
    lambda_i: f64,
    lambda_e: f64,
    mu_i: f64,
    mu_e: f64,
    base_seed: u64,
    n: usize,
    warmup: u64,
    departures: u64,
) -> Vec<SimReport> {
    run_replications(base_seed, n, |seed| {
        run_markovian(
            policy, k, lambda_i, lambda_e, mu_i, mu_e, seed, warmup, departures,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InelasticFirst;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a = replication_seeds(42, 64);
        let b = replication_seeds(42, 64);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "seed collision in stream");
        assert_ne!(a, replication_seeds(43, 64));
    }

    #[test]
    fn parallel_replications_are_bit_identical_to_serial() {
        let run = |threads: usize| {
            run_replications_with_threads(7, 6, threads, |seed| {
                run_markovian(&InelasticFirst, 2, 0.6, 0.4, 1.0, 0.8, seed, 200, 4_000)
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.mean_response.to_bits(), p.mean_response.to_bits());
            assert_eq!(s.end_time.to_bits(), p.end_time.to_bits());
            assert_eq!(s.completed, p.completed);
            assert_eq!(s.mean_work.to_bits(), p.mean_work.to_bits());
        }
    }

    #[test]
    fn replications_vary_across_seeds_but_agree_in_distribution() {
        let reports = run_markovian_replications(
            &InelasticFirst,
            1,
            0.5,
            0.0,
            1.0,
            1.0,
            11,
            8,
            2_000,
            30_000,
        );
        assert_eq!(reports.len(), 8);
        // Different seeds → different sample paths.
        assert!(reports
            .windows(2)
            .any(|w| w[0].mean_response != w[1].mean_response));
        // But all near the M/M/1 truth E[T] = 2.
        let mean: f64 = reports.iter().map(|r| r.mean_response).sum::<f64>() / reports.len() as f64;
        assert!((mean - 2.0).abs() / 2.0 < 0.05, "replication mean {mean}");
    }
}
