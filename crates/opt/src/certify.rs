//! Certification of search results: how good is "best found"?
//!
//! Two notions, matching what is provable per workload:
//!
//! * **Poisson×exponential** — the truncated-grid MDP
//!   (`eirs_mdp::solve_optimal`) computes the optimal mean response time
//!   over *all* stationary policies, so [`certify_against_mdp`] reports
//!   the exact optimality gap of the search result, plus whether the MDP
//!   optimum has the paper's Inelastic-First structure on the grid
//!   interior (Theorem 5's regime).
//! * **Everything else** (bursty, trace-driven, non-exponential service,
//!   capacity churn) — no computable optimum exists, so
//!   [`improvement_over_baselines`] reports the improvement over the
//!   strongest fixed baseline (EF and IF), with a common-random-numbers
//!   **paired** confidence interval, as in
//!   [`eirs_sim::coupling::paired_comparison`]: the difference CI sheds
//!   the shared arrival and fault noise, so far fewer replications
//!   resolve whether the found policy is genuinely better.

use eirs_core::scenario::Workload;
use eirs_core::SystemParams;
use eirs_mdp::{solve_optimal, MdpConfig};
use eirs_sim::des::SimReport;
use eirs_sim::policy::{AllocationPolicy, ElasticFirst, InelasticFirst};
use eirs_sim::replicate::run_replications;
use eirs_sim::stats::ReplicationStats;

/// Optimality certificate for a Poisson×exponential instance.
#[derive(Debug, Clone)]
pub struct MdpCertificate {
    /// Mean response time of the best-found policy (as scored by the
    /// search objective).
    pub best_found_mean_response: f64,
    /// The MDP optimum's mean response time (`E[N*] / λ`, Little's law).
    pub mdp_mean_response: f64,
    /// Relative optimality gap `max(0, (found − opt) / opt)`. Clamped at
    /// zero: the truncated grid rejects boundary arrivals, so its optimum
    /// can sit a hair *below* the true infinite-space value.
    pub optimality_gap: f64,
    /// Whether the MDP-optimal policy allocates like Inelastic-First on
    /// the interior window `(i, j) ≤ (window, window)`.
    pub mdp_matches_inelastic_first: bool,
    /// Interior window used for the structure check.
    pub window: usize,
    /// Truncation grid (`i, j ≤ grid`).
    pub grid: usize,
    /// Value-iteration sweeps the solver needed.
    pub iterations: usize,
}

/// Solves the truncated MDP at `params` and certifies
/// `best_found_mean_response` against its optimum. `grid` is the
/// truncation bound in both coordinates; the structure check uses the
/// interior window `min(12, grid / 3)` (boundary actions react to the
/// truncation and deep states carry no probability mass — see
/// [`eirs_mdp::MdpSolution::matches_inelastic_first`]).
pub fn certify_against_mdp(
    params: &SystemParams,
    best_found_mean_response: f64,
    grid: usize,
) -> Result<MdpCertificate, String> {
    if grid < 6 {
        return Err(format!(
            "certification grid {grid} is too coarse (need at least 6)"
        ));
    }
    let cfg = MdpConfig {
        k: params.k,
        lambda_i: params.lambda_i,
        lambda_e: params.lambda_e,
        mu_i: params.mu_i,
        mu_e: params.mu_e,
        max_i: grid,
        max_j: grid,
        allow_idling: false,
    };
    let solution = solve_optimal(&cfg, 1e-9, 1_000_000).map_err(|e| e.to_string())?;
    let mdp_mean_response = solution.mean_response(params.total_lambda());
    let window = (grid / 3).min(12);
    let gap = ((best_found_mean_response - mdp_mean_response) / mdp_mean_response).max(0.0);
    Ok(MdpCertificate {
        best_found_mean_response,
        mdp_mean_response,
        optimality_gap: gap,
        mdp_matches_inelastic_first: solution.matches_inelastic_first(params.k, window, window),
        window,
        grid,
        iterations: solution.iterations,
    })
}

/// One baseline's paired comparison against the found policy.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Baseline display name.
    pub name: String,
    /// Baseline mean response time over the paired replications.
    pub mean_response: f64,
    /// Paired difference `found − baseline` (negative = improvement).
    pub diff_mean: f64,
    /// 95% half-width of the paired difference.
    pub diff_ci_half_width: f64,
    /// `true` when the whole 95% interval sits below zero.
    pub improves: bool,
}

/// Improvement certificate for workloads with no computable optimum.
#[derive(Debug, Clone)]
pub struct ImprovementCertificate {
    /// Mean response time of the found policy over the paired runs.
    pub best_found_mean_response: f64,
    /// Per-baseline paired comparisons (EF and IF).
    pub baselines: Vec<BaselineReport>,
    /// `true` when the found policy beats even the *best* baseline with
    /// 95% confidence (the acceptance bar for intractable workloads).
    pub beats_best_baseline: bool,
}

/// Runs CRN-paired comparisons of `found` against EF and IF on
/// `workload` (`replications` paired runs of `departures` measured
/// departures each, warm-up `departures / 10`) and reports whether the
/// found policy improves on the strongest baseline at 95% confidence.
///
/// The pairing follows `eirs_sim::coupling::paired_comparison`: each
/// replication runs the found policy and both baselines through one
/// [`Workload::simulate_each`] call, so all three see the same arrivals
/// and, on a churned workload, the same fault schedule. The found policy
/// runs **once** per seed and is paired against both baselines, rather
/// than re-simulated per comparison.
pub fn improvement_over_baselines(
    workload: &Workload,
    params: &SystemParams,
    found: &dyn AllocationPolicy,
    base_seed: u64,
    replications: usize,
    departures: u64,
) -> Result<ImprovementCertificate, String> {
    assert!(replications >= 2, "paired CIs need >= 2 replications");
    let baselines: [(&str, &dyn AllocationPolicy); 2] = [
        ("Elastic-First", &ElasticFirst),
        ("Inelastic-First", &InelasticFirst),
    ];
    let policies = [found, baselines[0].1, baselines[1].1];
    // runs[r] = [found, EF, IF] on replication r's shared sample path.
    let runs = run_replications(base_seed, replications, |seed| {
        workload.simulate_each(&policies, params, seed, departures / 10, departures)
    })
    .into_iter()
    .map(|triple| triple.into_iter().collect())
    .collect::<Result<Vec<Vec<SimReport>>, String>>()?;
    let mean_of =
        |slot: usize| runs.iter().map(|t| t[slot].mean_response).sum::<f64>() / runs.len() as f64;
    let found_mean = mean_of(0);
    let mut reports = Vec::with_capacity(baselines.len());
    for (slot, (name, _)) in baselines.iter().enumerate() {
        let diff: ReplicationStats = runs
            .iter()
            .map(|t| t[0].mean_response - t[slot + 1].mean_response)
            .collect();
        let ci = diff.confidence_interval();
        reports.push(BaselineReport {
            name: name.to_string(),
            mean_response: mean_of(slot + 1),
            diff_mean: ci.mean,
            diff_ci_half_width: ci.half_width,
            improves: ci.mean + ci.half_width < 0.0,
        });
    }
    let best_baseline = reports
        .iter()
        .min_by(|a, b| {
            a.mean_response
                .partial_cmp(&b.mean_response)
                .expect("finite means")
        })
        .expect("two baselines");
    let beats_best_baseline = best_baseline.improves;
    Ok(ImprovementCertificate {
        best_found_mean_response: found_mean,
        baselines: reports,
        beats_best_baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_core::analysis::{analyze_policy_with, AnalyzeOptions};
    use eirs_core::scenario::{ArrivalSpec, ServiceSpec};

    #[test]
    fn certificate_is_tight_for_if_in_the_provably_optimal_regime() {
        // µ_I ≥ µ_E: Theorem 5 says IF is optimal, so certifying IF's own
        // analytic mean response must produce a (near-)zero gap and an
        // IF-structured MDP optimum.
        let p = SystemParams::with_equal_lambdas(2, 1.5, 1.0, 0.5).unwrap();
        let analytic = analyze_policy_with(&InelasticFirst, &p, &AnalyzeOptions::default())
            .unwrap()
            .mean_response;
        let cert = certify_against_mdp(&p, analytic, 48).unwrap();
        assert!(
            cert.optimality_gap < 5e-3,
            "gap {} (found {}, mdp {})",
            cert.optimality_gap,
            cert.best_found_mean_response,
            cert.mdp_mean_response
        );
        assert!(cert.mdp_matches_inelastic_first);
    }

    #[test]
    fn certificate_flags_a_genuinely_bad_policy() {
        // EF in the IF-optimal regime has a visible gap.
        let p = SystemParams::with_equal_lambdas(2, 2.0, 1.0, 0.6).unwrap();
        let ef = analyze_policy_with(&ElasticFirst, &p, &AnalyzeOptions::default())
            .unwrap()
            .mean_response;
        let cert = certify_against_mdp(&p, ef, 48).unwrap();
        assert!(cert.optimality_gap > 0.01, "gap {}", cert.optimality_gap);
    }

    #[test]
    fn improvement_certificate_resolves_ef_against_the_baselines() {
        // In the open µ_I < µ_E regime EF beats IF at this operating
        // point; certifying EF itself must report a significant win over
        // IF and a (trivially) non-significant "win" over EF.
        let p = SystemParams::with_equal_lambdas(4, 0.5, 1.0, 0.6).unwrap();
        let w = Workload::new(
            ArrivalSpec::Bursty { mean_burst: 3.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let cert = improvement_over_baselines(&w, &p, &ElasticFirst, 11, 6, 20_000).unwrap();
        assert_eq!(cert.baselines.len(), 2);
        let vs_if = cert
            .baselines
            .iter()
            .find(|b| b.name == "Inelastic-First")
            .unwrap();
        let vs_ef = cert
            .baselines
            .iter()
            .find(|b| b.name == "Elastic-First")
            .unwrap();
        assert!(vs_if.diff_mean < 0.0, "{vs_if:?}");
        // Against itself the paired difference is exactly zero.
        assert_eq!(vs_ef.diff_mean, 0.0, "{vs_ef:?}");
        assert!(!vs_ef.improves);
        assert!(!cert.beats_best_baseline);
    }

    #[test]
    fn improvement_certificate_runs_the_churned_workload() {
        use eirs_sim::availability::FaultSpec;
        use eirs_sim::policy::FairShare;
        use eirs_sim::replicate::replication_seeds;
        // Every row is the mean of that policy's own `Workload::simulate`
        // runs over the replication seeds, so each run sees the
        // workload's fault schedule, and the churn moves every row.
        let p = SystemParams::with_equal_lambdas(4, 1.0, 1.0, 0.6).unwrap();
        let plain = Workload::new(
            ArrivalSpec::Bursty { mean_burst: 4.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let churned = plain
            .clone()
            .churned(FaultSpec::parse("crash:mtbf=40,mttr=4").unwrap());
        let (base_seed, replications, departures) = (5, 3, 3_000);
        let cert = |w: &Workload| {
            improvement_over_baselines(w, &p, &FairShare, base_seed, replications, departures)
                .unwrap()
        };
        let mean_of = |policy: &dyn AllocationPolicy| {
            let seeds = replication_seeds(base_seed, replications);
            seeds
                .iter()
                .map(|&seed| {
                    churned
                        .simulate(policy, &p, seed, departures / 10, departures)
                        .unwrap()
                        .mean_response
                })
                .sum::<f64>()
                / replications as f64
        };
        let (churned_cert, plain_cert) = (cert(&churned), cert(&plain));
        let rows = |c: &ImprovementCertificate| {
            let means = c.baselines.iter().map(|b| b.mean_response);
            [c.best_found_mean_response]
                .into_iter()
                .chain(means)
                .collect::<Vec<_>>()
        };
        let want = [
            mean_of(&FairShare),
            mean_of(&ElasticFirst),
            mean_of(&InelasticFirst),
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows(&churned_cert)), bits(&want));
        for (with, without) in rows(&churned_cert).iter().zip(rows(&plain_cert)) {
            assert_ne!(with.to_bits(), without.to_bits());
        }
    }
}
