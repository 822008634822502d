//! Fast state-level CTMC simulation.
//!
//! In the Markovian model (Poisson arrivals, exponential sizes) the process
//! `(N_I(t), N_E(t))` is itself a CTMC whose transition rates depend only on
//! the policy's class-level allocation (paper Figure 1) — exactly the
//! observation behind Theorem 2. Simulating this jump chain avoids tracking
//! individual jobs and is an order of magnitude faster than the job-level
//! DES; mean response times follow from Little's law. Used for the tight
//! validation columns of the Section 5 experiments.

use crate::policy::AllocationPolicy;
use crate::stats::TimeAverage;
use eirs_queueing::distributions::exp_inverse_cdf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a state-level run.
#[derive(Debug, Clone, Copy)]
pub struct CtmcSimConfig {
    /// Servers.
    pub k: u32,
    /// Inelastic arrival rate λ_I.
    pub lambda_i: f64,
    /// Elastic arrival rate λ_E.
    pub lambda_e: f64,
    /// Inelastic size rate µ_I.
    pub mu_i: f64,
    /// Elastic size rate µ_E.
    pub mu_e: f64,
    /// Jumps to simulate after warm-up.
    pub jumps: u64,
    /// Jumps to discard as warm-up.
    pub warmup_jumps: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Mean-value estimates from a state-level run.
#[derive(Debug, Clone, Copy)]
pub struct CtmcSimReport {
    /// Time-average number of inelastic jobs `E[N_I]`.
    pub mean_n_i: f64,
    /// Time-average number of elastic jobs `E[N_E]`.
    pub mean_n_e: f64,
    /// Mean response time over both classes (Little's law).
    pub mean_response: f64,
    /// Mean inelastic response time `E[N_I]/λ_I` (`NaN` when `λ_I = 0`).
    pub mean_response_i: f64,
    /// Mean elastic response time `E[N_E]/λ_E` (`NaN` when `λ_E = 0`).
    pub mean_response_e: f64,
    /// Simulated (post-warm-up) time span.
    pub elapsed: f64,
}

/// Simulates the `(N_I, N_E)` jump chain under `policy`.
pub fn simulate_state_level(policy: &dyn AllocationPolicy, cfg: CtmcSimConfig) -> CtmcSimReport {
    assert!(cfg.lambda_i >= 0.0 && cfg.lambda_e >= 0.0);
    assert!(cfg.mu_i > 0.0 && cfg.mu_e > 0.0);
    assert!(cfg.lambda_i + cfg.lambda_e > 0.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut i: usize = 0;
    let mut j: usize = 0;
    let mut n_i = TimeAverage::new();
    let mut n_e = TimeAverage::new();

    let total_jumps = cfg.warmup_jumps + cfg.jumps;
    for step in 0..total_jumps {
        let alloc = policy.allocate(i, j, cfg.k);
        let d_i = alloc.inelastic * cfg.mu_i;
        let d_e = alloc.elastic * cfg.mu_e;
        let total = cfg.lambda_i + cfg.lambda_e + d_i + d_e;
        let u: f64 = rng.random();
        let dt = exp_inverse_cdf(1.0 - u, total);
        if step >= cfg.warmup_jumps {
            n_i.add(i as f64, dt);
            n_e.add(j as f64, dt);
        }
        let pick: f64 = rng.random::<f64>() * total;
        if pick < cfg.lambda_i {
            i += 1;
        } else if pick < cfg.lambda_i + cfg.lambda_e {
            j += 1;
        } else if pick < cfg.lambda_i + cfg.lambda_e + d_i {
            debug_assert!(i > 0, "inelastic departure from empty class");
            i -= 1;
        } else {
            debug_assert!(j > 0, "elastic departure from empty class");
            j -= 1;
        }
    }

    let lambda = cfg.lambda_i + cfg.lambda_e;
    let mean_n_i = n_i.average();
    let mean_n_e = n_e.average();
    CtmcSimReport {
        mean_n_i,
        mean_n_e,
        mean_response: (mean_n_i + mean_n_e) / lambda,
        mean_response_i: if cfg.lambda_i > 0.0 {
            mean_n_i / cfg.lambda_i
        } else {
            f64::NAN
        },
        mean_response_e: if cfg.lambda_e > 0.0 {
            mean_n_e / cfg.lambda_e
        } else {
            f64::NAN
        },
        elapsed: n_i.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ElasticFirst, InelasticFirst};

    fn cfg(k: u32, li: f64, le: f64, mi: f64, me: f64, seed: u64) -> CtmcSimConfig {
        CtmcSimConfig {
            k,
            lambda_i: li,
            lambda_e: le,
            mu_i: mi,
            mu_e: me,
            jumps: 2_000_000,
            warmup_jumps: 100_000,
            seed,
        }
    }

    #[test]
    fn mm1_mean_number_matches() {
        let r = simulate_state_level(&InelasticFirst, cfg(1, 0.5, 0.0, 1.0, 1.0, 1));
        assert!((r.mean_n_i - 1.0).abs() < 0.03, "E[N] {}", r.mean_n_i);
        assert!((r.mean_response_i - 2.0).abs() < 0.06);
    }

    #[test]
    fn mmk_mean_number_matches_erlang_c() {
        let r = simulate_state_level(&InelasticFirst, cfg(4, 3.0, 0.0, 1.0, 1.0, 2));
        let want = eirs_queueing::MMk::new(3.0, 1.0, 4).mean_number_in_system();
        assert!(
            (r.mean_n_i - want).abs() / want < 0.02,
            "{} vs {want}",
            r.mean_n_i
        );
    }

    #[test]
    fn ef_elastic_is_mm1_at_rate_k_mu() {
        let r = simulate_state_level(&ElasticFirst, cfg(4, 0.0, 2.0, 1.0, 1.0, 3));
        let want = eirs_queueing::MM1::new(2.0, 4.0).mean_number_in_system();
        assert!(
            (r.mean_n_e - want).abs() / want < 0.03,
            "{} vs {want}",
            r.mean_n_e
        );
    }

    #[test]
    fn state_level_and_job_level_simulators_agree() {
        // Same model through both engines; they share no code path beyond
        // the policy, so agreement is a strong mutual check.
        let (k, li, le, mi, me) = (4u32, 1.2, 0.9, 1.0, 0.7);
        let state = simulate_state_level(&InelasticFirst, cfg(k, li, le, mi, me, 4));
        let job = crate::des::run_markovian(&InelasticFirst, k, li, le, mi, me, 5, 30_000, 400_000);
        let rel = (state.mean_response - job.mean_response).abs() / job.mean_response;
        assert!(
            rel < 0.03,
            "state {} vs job {}",
            state.mean_response,
            job.mean_response
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_state_level(&InelasticFirst, cfg(2, 0.5, 0.5, 1.0, 1.0, 9));
        let b = simulate_state_level(&InelasticFirst, cfg(2, 0.5, 0.5, 1.0, 1.0, 9));
        assert_eq!(a.mean_response, b.mean_response);
    }
}
