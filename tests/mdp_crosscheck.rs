//! Cross-checks between three independent solution methods:
//!
//! * matrix-analytic QBD analysis (`eirs-core`, infinite state space,
//!   busy-period approximation),
//! * truncated-MDP policy evaluation (`eirs-mdp`, exact on the truncated
//!   chain),
//! * truncated-MDP optimization (Theorems 1/5 numerically).

use eirs_core::prelude::*;
use eirs_mdp::{evaluate_policy, solve_optimal, MdpConfig};

fn mdp_cfg(p: &SystemParams, n: usize) -> MdpConfig {
    MdpConfig {
        k: p.k,
        lambda_i: p.lambda_i,
        lambda_e: p.lambda_e,
        mu_i: p.mu_i,
        mu_e: p.mu_e,
        max_i: n,
        max_j: n,
        allow_idling: false,
    }
}

#[test]
fn truncated_if_evaluation_matches_matrix_analytic() {
    let p = SystemParams::with_equal_lambdas(2, 1.0, 1.0, 0.6).unwrap();
    let analytic = analyze_inelastic_first(&p).unwrap().mean_num_in_system();
    let cfg = mdp_cfg(&p, 70);
    let truncated = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 400_000).unwrap();
    let rel = (analytic - truncated).abs() / truncated;
    assert!(
        rel < 0.01,
        "QBD {analytic} vs MDP {truncated} (rel {rel:.4})"
    );
}

#[test]
fn truncated_ef_evaluation_matches_matrix_analytic() {
    let p = SystemParams::with_equal_lambdas(2, 1.0, 1.0, 0.6).unwrap();
    let analytic = analyze_elastic_first(&p).unwrap().mean_num_in_system();
    let cfg = mdp_cfg(&p, 70);
    let truncated = evaluate_policy(&cfg, &ElasticFirst, 1e-9, 400_000).unwrap();
    let rel = (analytic - truncated).abs() / truncated;
    assert!(
        rel < 0.01,
        "QBD {analytic} vs MDP {truncated} (rel {rel:.4})"
    );
}

#[test]
fn optimal_equals_if_in_the_proved_regime() {
    // µ_I ≥ µ_E (Theorems 1 and 5): the MDP optimum is IF's cost.
    for (mu_i, mu_e) in [(1.0, 1.0), (2.0, 1.0)] {
        let p = SystemParams::with_equal_lambdas(2, mu_i, mu_e, 0.6).unwrap();
        let cfg = mdp_cfg(&p, 50);
        let opt = solve_optimal(&cfg, 1e-9, 500_000).unwrap();
        let g_if = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 500_000).unwrap();
        assert!(
            (opt.average_cost - g_if).abs() < 1e-5,
            "(µI={mu_i}): optimal {} vs IF {g_if}",
            opt.average_cost
        );
        // Interior region only: boundary states react to rejected arrivals
        // and deep states are tie-degenerate when µ_I = µ_E.
        assert!(opt.matches_inelastic_first(p.k, 10, 10));
    }
}

#[test]
fn optimal_strictly_beats_if_in_the_open_regime() {
    // µ_I < µ_E at high load: Theorem 6's message in steady state. The
    // optimal policy also weakly beats EF (EF need not be optimal either).
    let p = SystemParams::with_equal_lambdas(2, 0.25, 1.0, 0.8).unwrap();
    let cfg = mdp_cfg(&p, 60);
    let opt = solve_optimal(&cfg, 1e-9, 500_000).unwrap();
    let g_if = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 500_000).unwrap();
    let g_ef = evaluate_policy(&cfg, &ElasticFirst, 1e-9, 500_000).unwrap();
    assert!(
        opt.average_cost < g_if - 1e-3,
        "optimal {} should strictly beat IF {g_if}",
        opt.average_cost
    );
    assert!(opt.average_cost <= g_ef + 1e-6);
}

#[test]
fn ef_beats_if_in_mdp_where_figure4_says_so() {
    // Figure 4(c) region: µ_I ≪ µ_E at ρ = 0.8 — EF < IF on the truncated
    // chain too, independently of the QBD pipeline.
    let p = SystemParams::with_equal_lambdas(2, 0.25, 1.0, 0.8).unwrap();
    let cfg = mdp_cfg(&p, 60);
    let g_if = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 500_000).unwrap();
    let g_ef = evaluate_policy(&cfg, &ElasticFirst, 1e-9, 500_000).unwrap();
    assert!(g_ef < g_if, "EF {g_ef} vs IF {g_if}");
}
