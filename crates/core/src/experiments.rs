//! Experiment parameterizations for every figure in the paper.
//!
//! All three figures fix the load `ρ` and set `λ_I = λ_E` (see the captions
//! of Figures 4–6), which [`SystemParams::with_equal_lambdas`] implements.
//! The sweep functions here return plain data that the bench harnesses in
//! `eirs-bench` format into the paper's rows/series.
//!
//! Every grid driver fans its points out through [`crate::sweep`], so the
//! hundreds of independent QBD solves behind a figure run on all cores;
//! each driver also keeps a `*_serial` twin (same code, one thread) whose
//! output the workspace tests require to be **bit-identical** to the
//! parallel path.

use crate::analysis::{analyze_elastic_first, analyze_inelastic_first, AnalysisError};
use crate::params::SystemParams;
use crate::sweep;

/// Which policy wins a head-to-head mean-response-time comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// Inelastic-First has strictly smaller `E[T]`.
    InelasticFirst,
    /// Elastic-First has strictly smaller `E[T]`.
    ElasticFirst,
    /// Within tie tolerance.
    Tie,
}

impl Winner {
    /// Single-character cell used in the heat-map rendering
    /// (`o` = IF, `+` = EF, `=` = tie), matching the paper's red-circle /
    /// blue-plus convention in Figure 4.
    pub fn cell(&self) -> char {
        match self {
            Winner::InelasticFirst => 'o',
            Winner::ElasticFirst => '+',
            Winner::Tie => '=',
        }
    }
}

/// One comparison point: both analyses plus the winner.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Parameters of the comparison.
    pub params: SystemParams,
    /// Mean response time under Inelastic-First.
    pub mrt_if: f64,
    /// Mean response time under Elastic-First.
    pub mrt_ef: f64,
    /// The winner at `tol = 1e-9` relative.
    pub winner: Winner,
}

/// Compares IF and EF analytically at `params`.
pub fn compare(params: &SystemParams) -> Result<Comparison, AnalysisError> {
    let a_if = analyze_inelastic_first(params)?;
    let a_ef = analyze_elastic_first(params)?;
    let (mrt_if, mrt_ef) = (a_if.mean_response, a_ef.mean_response);
    let winner = if (mrt_if - mrt_ef).abs() <= 1e-9 * mrt_if.max(mrt_ef) {
        Winner::Tie
    } else if mrt_if < mrt_ef {
        Winner::InelasticFirst
    } else {
        Winner::ElasticFirst
    };
    Ok(Comparison {
        params: *params,
        mrt_if,
        mrt_ef,
        winner,
    })
}

/// The µ grid of Figure 4: `0.25, 0.50, …, 3.50`.
pub fn figure4_mu_grid() -> Vec<f64> {
    (1..=14).map(|i| i as f64 * 0.25).collect()
}

/// One cell of a Figure 4 heat map.
#[derive(Debug, Clone, Copy)]
pub struct HeatMapCell {
    /// Inelastic size rate.
    pub mu_i: f64,
    /// Elastic size rate.
    pub mu_e: f64,
    /// Comparison outcome.
    pub comparison: Comparison,
}

/// Computes one Figure 4 heat map: winner over the `(µ_I, µ_E)` grid at
/// fixed `k` and load `ρ` with `λ_I = λ_E`. The `grid.len()²` independent
/// QBD solves fan out over all cores.
pub fn figure4_heatmap(k: u32, rho: f64) -> Result<Vec<HeatMapCell>, AnalysisError> {
    figure4_heatmap_with_threads(k, rho, sweep::threads())
}

/// [`figure4_heatmap`] with an explicit worker-thread count; one thread
/// is the serial reference path (same cell order), which the bit-identity
/// property tests and the `sweep_speedup` benchmark baseline run.
pub fn figure4_heatmap_with_threads(
    k: u32,
    rho: f64,
    threads: usize,
) -> Result<Vec<HeatMapCell>, AnalysisError> {
    let grid = figure4_mu_grid();
    let points: Vec<(f64, f64)> = grid
        .iter()
        .flat_map(|&mu_e| grid.iter().map(move |&mu_i| (mu_i, mu_e)))
        .collect();
    sweep::sweep_with_threads(&points, threads, |&(mu_i, mu_e)| {
        let mut cell_span = eirs_obs::span("figure4.cell", "sweep");
        cell_span.arg("mu_i", mu_i);
        cell_span.arg("mu_e", mu_e);
        let params = SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho)
            .expect("grid parameters are stable by construction");
        Ok(HeatMapCell {
            mu_i,
            mu_e,
            comparison: compare(&params)?,
        })
    })
    .into_iter()
    .collect()
}

/// One point of a Figure 5 curve.
#[derive(Debug, Clone, Copy)]
pub struct ResponseCurvePoint {
    /// Swept inelastic size rate.
    pub mu_i: f64,
    /// `E[T]` under IF.
    pub mrt_if: f64,
    /// `E[T]` under EF.
    pub mrt_ef: f64,
}

/// Computes one Figure 5 panel: `E[T]` under IF and EF as `µ_I` sweeps with
/// `µ_E = 1`, fixed `k` and `ρ`, `λ_I = λ_E`. Points fan out over all
/// cores.
pub fn figure5_response_curve(
    k: u32,
    rho: f64,
    mu_i_values: &[f64],
) -> Result<Vec<ResponseCurvePoint>, AnalysisError> {
    sweep::sweep(mu_i_values, |&mu_i| {
        let params =
            SystemParams::with_equal_lambdas(k, mu_i, 1.0, rho).expect("stable by construction");
        let c = compare(&params)?;
        Ok(ResponseCurvePoint {
            mu_i,
            mrt_if: c.mrt_if,
            mrt_ef: c.mrt_ef,
        })
    })
    .into_iter()
    .collect()
}

/// The default µ_I sweep of Figure 5: `0.1` to `3.5`.
pub fn figure5_mu_i_values() -> Vec<f64> {
    let mut v = vec![0.1, 0.15, 0.2];
    v.extend((1..=14).map(|i| i as f64 * 0.25));
    v
}

/// One point of a Figure 6 curve.
#[derive(Debug, Clone, Copy)]
pub struct ServerScalingPoint {
    /// Number of servers.
    pub k: u32,
    /// `E[T]` under IF.
    pub mrt_if: f64,
    /// `E[T]` under EF.
    pub mrt_ef: f64,
}

/// Computes one Figure 6 panel: `E[T]` under IF and EF as `k` grows at
/// constant load `ρ` and fixed `(µ_I, µ_E)`, `λ_I = λ_E`. Points fan out
/// over all cores.
pub fn figure6_server_scaling(
    ks: &[u32],
    rho: f64,
    mu_i: f64,
    mu_e: f64,
) -> Result<Vec<ServerScalingPoint>, AnalysisError> {
    sweep::sweep(ks, |&k| {
        let params =
            SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).expect("stable by construction");
        let c = compare(&params)?;
        Ok(ServerScalingPoint {
            k,
            mrt_if: c.mrt_if,
            mrt_ef: c.mrt_ef,
        })
    })
    .into_iter()
    .collect()
}

/// One point of a policy-family sweep: a policy evaluated analytically at
/// one parameter point.
#[derive(Debug, Clone, Copy)]
pub struct PolicySweepPoint {
    /// Parameters of the point.
    pub params: SystemParams,
    /// The policy's analytic evaluation at those parameters.
    pub analysis: crate::analysis::PolicyAnalysis,
}

/// Evaluates `policy` analytically over a parameter grid, fanning the
/// independent QBD solves out through the parallel sweep engine exactly
/// like the figure drivers. This is the substrate the `eirs policy`
/// subcommand and the `policy_families` bench share.
pub fn policy_sweep(
    policy: &dyn eirs_sim::policy::AllocationPolicy,
    points: &[SystemParams],
    opts: &crate::analysis::AnalyzeOptions,
) -> Result<Vec<PolicySweepPoint>, AnalysisError> {
    policy_sweep_with_threads(policy, points, opts, sweep::threads())
}

/// [`policy_sweep`] with an explicit worker-thread count (`threads = 1`
/// is the serial reference path, bit-identical to the parallel one).
pub fn policy_sweep_with_threads(
    policy: &dyn eirs_sim::policy::AllocationPolicy,
    points: &[SystemParams],
    opts: &crate::analysis::AnalyzeOptions,
    threads: usize,
) -> Result<Vec<PolicySweepPoint>, AnalysisError> {
    sweep::sweep_with_threads(points, threads, |params| {
        Ok(PolicySweepPoint {
            params: *params,
            analysis: crate::analysis::analyze_policy_with(policy, params, opts)?,
        })
    })
    .into_iter()
    .collect()
}

/// One point of a scenario sweep: a `(workload, policy)` pair evaluated
/// by DES replications and — when tractable — by the matching analytic
/// chain.
#[derive(Debug, Clone)]
pub struct ScenarioSweepPoint {
    /// Workload name.
    pub workload: String,
    /// Policy display name.
    pub policy: String,
    /// Parameters of the point.
    pub params: SystemParams,
    /// Which analytic route applied.
    pub tractability: crate::scenario::Tractability,
    /// Analytic mean response time, when tractable.
    pub analysis_mean_response: Option<f64>,
    /// Replication mean of the DES mean response time.
    pub des_mean_response: f64,
    /// 95% CI half-width across replications (`0.0` for deterministic
    /// trace-replay workloads, which run a single exact replication).
    pub des_ci_half_width: f64,
    /// How many DES replications actually ran (`1` for deterministic
    /// trace replay, `cfg.replications` otherwise).
    pub des_replications: usize,
    /// Whether the analysis landed inside the DES replication CI
    /// (`None` when intractable).
    pub analysis_inside_ci: Option<bool>,
}

/// Configuration of a [`scenario_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSweepConfig {
    /// DES replications per `(workload, policy)` pair (`≥ 2` for a CI).
    pub replications: usize,
    /// Measured departures per replication.
    pub departures: u64,
    /// Warm-up departures per replication.
    pub warmup: u64,
    /// Base seed; each pair derives decorrelated replication streams.
    pub base_seed: u64,
}

impl Default for ScenarioSweepConfig {
    fn default() -> Self {
        Self {
            replications: 8,
            departures: 100_000,
            warmup: 10_000,
            base_seed: 42,
        }
    }
}

/// Evaluates every `(workload, policy)` pair on the DES (replications with
/// a 95% CI) and, where tractable, on the matching analytic chain —
/// fanning the pairs out through the parallel sweep engine. This is the
/// substrate the `eirs scenario` subcommand and the `workload_scenarios`
/// bench share.
pub fn scenario_sweep(
    workloads: &[crate::scenario::Workload],
    policies: &[Box<dyn eirs_sim::policy::AllocationPolicy>],
    params: &SystemParams,
    opts: &crate::analysis::AnalyzeOptions,
    cfg: &ScenarioSweepConfig,
) -> Result<Vec<ScenarioSweepPoint>, String> {
    scenario_sweep_with_threads(workloads, policies, params, opts, cfg, sweep::threads())
}

/// [`scenario_sweep`] with an explicit worker-thread count (`threads = 1`
/// is the serial reference path, bit-identical to the parallel one).
pub fn scenario_sweep_with_threads(
    workloads: &[crate::scenario::Workload],
    policies: &[Box<dyn eirs_sim::policy::AllocationPolicy>],
    params: &SystemParams,
    opts: &crate::analysis::AnalyzeOptions,
    cfg: &ScenarioSweepConfig,
    threads: usize,
) -> Result<Vec<ScenarioSweepPoint>, String> {
    assert!(cfg.replications >= 2, "confidence intervals need >= 2 reps");
    let pairs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..policies.len()).map(move |p| (w, p)))
        .collect();
    sweep::sweep_with_threads(&pairs, threads, |&(wi, pi)| {
        let workload = &workloads[wi];
        let policy = policies[pi].as_ref();
        // Decorrelate pairs without coupling their replication streams.
        let pair_seed = cfg.base_seed.wrapping_add(
            0x9e37_79b9_7f4a_7c15u64.wrapping_mul((wi * policies.len() + pi) as u64 + 1),
        );
        let reports = workload.replications(
            policy,
            params,
            pair_seed,
            cfg.replications,
            cfg.warmup,
            cfg.departures,
        )?;
        // Deterministic workloads (external trace replay) return a single
        // report: its value is exact for that trace, so the "interval" is
        // the point itself rather than a fabricated spread.
        let ci = if reports.len() >= 2 {
            let stats: eirs_sim::stats::ReplicationStats =
                reports.iter().map(|r| r.mean_response).collect();
            stats.confidence_interval()
        } else {
            eirs_sim::stats::ConfidenceInterval {
                mean: reports[0].mean_response,
                half_width: 0.0,
            }
        };
        let tractability = workload.tractability(policy, params);
        let analysis = workload
            .analyze(policy, params, opts)
            .map_err(|e| format!("{}/{}: {e}", workload.name, policy.name()))?;
        let analysis_mean_response = analysis.map(|a| a.mean_response);
        let analysis_inside_ci =
            analysis_mean_response.map(|m| (m - ci.mean).abs() <= ci.half_width);
        Ok(ScenarioSweepPoint {
            workload: workload.name.clone(),
            policy: policy.name(),
            params: *params,
            tractability,
            analysis_mean_response,
            des_mean_response: ci.mean,
            des_ci_half_width: ci.half_width,
            des_replications: reports.len(),
            analysis_inside_ci,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_figure4_axes() {
        let g = figure4_mu_grid();
        assert_eq!(g.len(), 14);
        assert!((g[0] - 0.25).abs() < 1e-12);
        assert!((g[13] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn comparison_agrees_with_theorem5_on_the_diagonal_and_right() {
        // µ_I ≥ µ_E ⇒ IF wins (or ties) — Theorem 5.
        for (mu_i, mu_e) in [(1.0, 1.0), (2.0, 1.0), (3.0, 0.5)] {
            let p = SystemParams::with_equal_lambdas(4, mu_i, mu_e, 0.7).unwrap();
            let c = compare(&p).unwrap();
            assert_ne!(c.winner, Winner::ElasticFirst, "({mu_i},{mu_e}): {c:?}");
        }
    }

    #[test]
    fn ef_region_exists_at_high_load() {
        // Figure 4c: for µ_I ≪ µ_E and ρ = 0.9, EF wins.
        let p = SystemParams::with_equal_lambdas(4, 0.25, 2.0, 0.9).unwrap();
        let c = compare(&p).unwrap();
        assert_eq!(c.winner, Winner::ElasticFirst);
    }

    #[test]
    fn figure5_points_are_monotone_decreasing_in_mu_i_for_if() {
        // Larger µ_I (smaller inelastic jobs) reduces E[T] under IF.
        let pts = figure5_response_curve(4, 0.5, &[0.5, 1.0, 2.0, 3.0]).unwrap();
        for w in pts.windows(2) {
            assert!(w[1].mrt_if < w[0].mrt_if + 1e-9);
        }
    }

    #[test]
    fn figure6_curves_cover_all_k() {
        let ks: Vec<u32> = (2..=16).step_by(2).collect();
        let pts = figure6_server_scaling(&ks, 0.9, 3.25, 1.0).unwrap();
        assert_eq!(pts.len(), ks.len());
        for p in &pts {
            assert!(
                p.mrt_if <= p.mrt_ef,
                "IF should win at µ_I=3.25 (k={})",
                p.k
            );
        }
    }

    #[test]
    fn policy_sweep_matches_pointwise_analysis_and_is_deterministic() {
        use crate::analysis::{analyze_policy_with, AnalyzeOptions};
        use eirs_sim::policy::ElasticThresholdPolicy;

        let policy = ElasticThresholdPolicy { threshold: 3 };
        let opts = AnalyzeOptions {
            phase_cap: 24,
            ..AnalyzeOptions::default()
        };
        let points: Vec<SystemParams> = [0.3, 0.5, 0.6]
            .iter()
            .map(|&rho| SystemParams::with_equal_lambdas(3, 0.5, 1.0, rho).unwrap())
            .collect();
        let parallel = policy_sweep_with_threads(&policy, &points, &opts, 4).unwrap();
        let serial = policy_sweep_with_threads(&policy, &points, &opts, 1).unwrap();
        assert_eq!(parallel.len(), points.len());
        for ((par, ser), params) in parallel.iter().zip(&serial).zip(&points) {
            let direct = analyze_policy_with(&policy, params, &opts).unwrap();
            assert_eq!(
                par.analysis.mean_response.to_bits(),
                direct.mean_response.to_bits()
            );
            assert_eq!(
                par.analysis.mean_response.to_bits(),
                ser.analysis.mean_response.to_bits()
            );
        }
    }

    #[test]
    fn scenario_sweep_is_deterministic_and_covers_the_grid() {
        use crate::policy::parse_policy;
        use crate::scenario::{registry, Tractability};

        let params = SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.5).unwrap();
        let workloads: Vec<_> = registry()
            .into_iter()
            .filter(|w| ["poisson", "bursty"].contains(&w.name.as_str()))
            .collect();
        let policies: Vec<_> = ["if", "fairshare"]
            .iter()
            .map(|s| parse_policy(s).unwrap())
            .collect();
        let opts = crate::analysis::AnalyzeOptions {
            phase_cap: 24,
            ..Default::default()
        };
        let cfg = ScenarioSweepConfig {
            replications: 3,
            departures: 3_000,
            warmup: 300,
            base_seed: 7,
        };
        let run = |threads| {
            scenario_sweep_with_threads(&workloads, &policies, &params, &opts, &cfg, threads)
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.policy, p.policy);
            assert_eq!(
                s.des_mean_response.to_bits(),
                p.des_mean_response.to_bits(),
                "{}/{} diverged across thread counts",
                s.workload,
                s.policy
            );
        }
        for pt in &serial {
            match pt.workload.as_str() {
                "poisson" => {
                    assert_eq!(pt.tractability, Tractability::PoissonExp);
                    assert!(pt.analysis_mean_response.is_some());
                }
                "bursty" => {
                    assert_eq!(pt.tractability, Tractability::Intractable);
                    assert!(pt.analysis_mean_response.is_none());
                    assert!(pt.analysis_inside_ci.is_none());
                }
                other => panic!("unexpected workload {other}"),
            }
            assert!(pt.des_mean_response.is_finite() && pt.des_ci_half_width >= 0.0);
        }
    }

    #[test]
    fn winner_cells_render() {
        assert_eq!(Winner::InelasticFirst.cell(), 'o');
        assert_eq!(Winner::ElasticFirst.cell(), '+');
        assert_eq!(Winner::Tie.cell(), '=');
    }
}
