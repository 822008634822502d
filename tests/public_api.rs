//! Smoke test of the façade crate's public API: the README quick-start
//! must keep compiling and producing the paper's qualitative results.

use eirs_repro::prelude::*;

#[test]
fn quickstart_flow_works() {
    // Build a system, analyze both policies, confirm the Theorem 5 ordering.
    let params = SystemParams::with_equal_lambdas(4, 2.0, 1.0, 0.7).unwrap();
    assert!((params.load() - 0.7).abs() < 1e-12);
    let mrt_if = analyze_inelastic_first(&params).unwrap();
    let mrt_ef = analyze_elastic_first(&params).unwrap();
    assert!(mrt_if.mean_response < mrt_ef.mean_response);

    // Simulate the same system and confirm the analysis is in range.
    let report = eirs_repro::sim::des::run_markovian(
        &InelasticFirst,
        params.k,
        params.lambda_i,
        params.lambda_e,
        params.mu_i,
        params.mu_e,
        1,
        20_000,
        200_000,
    );
    let rel = (report.mean_response - mrt_if.mean_response).abs() / report.mean_response;
    assert!(
        rel < 0.05,
        "sim {} vs analysis {}",
        report.mean_response,
        mrt_if.mean_response
    );
}

#[test]
fn all_subcrates_are_reachable() {
    // Numerics.
    let m = eirs_repro::numerics::Matrix::identity(3);
    assert_eq!(m.rows(), 3);
    // Queueing.
    let q = eirs_repro::queueing::MM1::new(0.5, 1.0);
    assert!((q.mean_response_time() - 2.0).abs() < 1e-12);
    // Markov.
    let mut c = eirs_repro::markov::FiniteCtmc::new(2);
    c.add_rate(0, 1, 1.0);
    c.add_rate(1, 0, 1.0);
    assert!((c.stationary_distribution().unwrap()[0] - 0.5).abs() < 1e-12);
    // MDP.
    let cfg = eirs_repro::mdp::MdpConfig {
        k: 1,
        lambda_i: 0.5,
        lambda_e: 0.0,
        mu_i: 1.0,
        mu_e: 1.0,
        max_i: 40,
        max_j: 1,
        allow_idling: false,
    };
    let g = eirs_repro::mdp::evaluate_policy(&cfg, &InelasticFirst, 1e-9, 100_000).unwrap();
    assert!((g - 1.0).abs() < 1e-4);
    // SRPT.
    let inst = eirs_repro::srpt::BatchInstance::random_uniform(10, 2, 5.0, 1);
    let lb = eirs_repro::srpt::lp_lower_bound(&inst);
    assert!(lb > 0.0);
}

#[test]
fn counterexample_is_exported_at_top_level() {
    let (v_if, v_ef) = eirs_repro::core::theorem6_values(1.0);
    assert!(v_ef < v_if);
}
