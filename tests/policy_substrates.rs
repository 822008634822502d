//! Cross-substrate agreement for the policy-generic pipeline (PR 2
//! acceptance): for each shipped policy family the analytical mean
//! response time must agree with DES within the replication confidence
//! interval, and the MDP-optimal `TabularPolicy` must be analyzable like
//! any other policy — closing the loop `MDP solver → shared policy layer
//! → QBD analysis → DES`.

use eirs_repro::core::analysis::{analyze_policy_with, AnalyzeOptions};
use eirs_repro::core::policy::{parse_policy, AllocationPolicy};
use eirs_repro::core::SystemParams;
use eirs_repro::mdp::{evaluate_policy, solve_optimal, MdpConfig};
use eirs_repro::sim::replicate::run_markovian_replications;
use eirs_repro::sim::stats::{ConfidenceInterval, ReplicationStats};

/// 10 replications of 150k departures each, on decorrelated seed streams.
fn des_ci(policy: &dyn AllocationPolicy, p: &SystemParams, seed: u64) -> ConfidenceInterval {
    let reports = run_markovian_replications(
        policy, p.k, p.lambda_i, p.lambda_e, p.mu_i, p.mu_e, seed, 10, 15_000, 150_000,
    );
    let stats: ReplicationStats = reports.iter().map(|r| r.mean_response).collect();
    stats.confidence_interval()
}

/// CI widened by a hair of slack: the replication CI covers Monte-Carlo
/// noise, and the analytical side carries its own ~0.1% modeling error
/// (busy-period Coxian fit / phase truncation), so demand agreement
/// within `max(CI, 0.5%)`.
fn assert_agrees(analytic: f64, ci: &ConfidenceInterval, label: &str) {
    let tol = ci.half_width.max(0.005 * ci.mean);
    assert!(
        (analytic - ci.mean).abs() <= tol,
        "{label}: analysis {analytic} vs DES {} +- {} (tol {tol})",
        ci.mean,
        ci.half_width
    );
}

#[test]
fn every_policy_family_agrees_with_des_within_replication_ci() {
    // The open µ_I < µ_E regime at moderate load, where families differ.
    let p = SystemParams::with_equal_lambdas(4, 0.5, 1.0, 0.6).unwrap();
    let opts = AnalyzeOptions {
        phase_cap: 48,
        ..AnalyzeOptions::default()
    };
    for (idx, spec) in [
        "if",
        "ef",
        "fairshare",
        "threshold:3",
        "curve:2+1i",
        "waterfill:0.5",
        "waterfill:2",
        "reserve:2",
        "random:5",
    ]
    .iter()
    .enumerate()
    {
        let policy = parse_policy(spec).unwrap();
        let analytic = analyze_policy_with(policy.as_ref(), &p, &opts)
            .unwrap()
            .mean_response;
        let ci = des_ci(policy.as_ref(), &p, 900 + idx as u64);
        assert_agrees(analytic, &ci, &policy.name());
    }
}

#[test]
fn threshold_family_agrees_across_loads() {
    // The same family checked where the EF-mode actually engages.
    let opts = AnalyzeOptions {
        phase_cap: 48,
        ..AnalyzeOptions::default()
    };
    for (idx, rho) in [0.4, 0.7].into_iter().enumerate() {
        let p = SystemParams::with_equal_lambdas(4, 0.5, 1.0, rho).unwrap();
        let policy = parse_policy("threshold:2").unwrap();
        let analytic = analyze_policy_with(policy.as_ref(), &p, &opts)
            .unwrap()
            .mean_response;
        let ci = des_ci(policy.as_ref(), &p, 1700 + idx as u64);
        assert_agrees(analytic, &ci, &format!("threshold:2 at rho={rho}"));
    }
}

#[test]
fn mdp_optimal_policy_is_analyzable_and_agrees_with_des() {
    // Solve the MDP in the open regime, bridge to a TabularPolicy, then
    // evaluate that same policy analytically, on the MDP grid, and by DES.
    let p = SystemParams::with_equal_lambdas(2, 0.25, 1.0, 0.6).unwrap();
    let cfg = MdpConfig {
        k: p.k,
        lambda_i: p.lambda_i,
        lambda_e: p.lambda_e,
        mu_i: p.mu_i,
        mu_e: p.mu_e,
        max_i: 60,
        max_j: 60,
        allow_idling: false,
    };
    let opt = solve_optimal(&cfg, 1e-9, 400_000).unwrap();
    let policy = opt.tabular_policy();

    let opts = AnalyzeOptions {
        phase_cap: 48,
        max_level_cut: 60,
        ..AnalyzeOptions::default()
    };
    let analytic = analyze_policy_with(&policy, &p, &opts)
        .unwrap()
        .mean_response;

    // Against the MDP's own evaluation of the same policy (independent
    // numerics: truncated-grid value iteration vs QBD matrix analytics).
    let grid = evaluate_policy(&cfg, &policy, 1e-9, 400_000).unwrap() / p.total_lambda();
    let rel = (analytic - grid).abs() / grid;
    assert!(rel < 5e-3, "analysis {analytic} vs MDP grid {grid}");

    // Against DES of the same policy.
    let ci = des_ci(&policy, &p, 4242);
    assert_agrees(analytic, &ci, "MdpOptimal(k=2)");

    // And the optimal policy must not lose to EF or IF analytically.
    let ef = analyze_policy_with(parse_policy("ef").unwrap().as_ref(), &p, &opts)
        .unwrap()
        .mean_response;
    let if_ = analyze_policy_with(parse_policy("if").unwrap().as_ref(), &p, &opts)
        .unwrap()
        .mean_response;
    assert!(
        analytic <= ef.min(if_) + 0.01 * analytic,
        "optimal {analytic} vs EF {ef} / IF {if_}"
    );
}
