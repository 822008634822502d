//! OPT1 — numerical optimality maps (Theorems 1/5 + the Section 6 open
//! question).
//!
//! Solves the truncated average-cost MDP across the (µ_I, µ_E) plane and
//! reports, per point: the optimal E[T], IF's and EF's E[T], whether IF is
//! optimal (it must be for µ_I ≥ µ_E), and how much is left on the table
//! in the open µ_I < µ_E regime where neither IF nor EF is optimal.
//!
//! Run: `cargo bench -p eirs-bench --bench mdp_optimality`

use eirs_bench::section;
use eirs_core::params::SystemParams;
use eirs_core::sweep::{sweep_with_threads, threads};
use eirs_mdp::{evaluate_policy, solve_optimal, MdpConfig};
use eirs_sim::policy::{ElasticFirst, InelasticFirst};

fn main() {
    let k = 2u32;
    let rho = 0.7;
    let grid: Vec<(f64, f64)> = [0.25, 0.5, 1.0, 2.0]
        .iter()
        .flat_map(|&mu_i| [0.5, 1.0, 2.0].iter().map(move |&mu_e| (mu_i, mu_e)))
        .collect();

    section(&format!(
        "MDP optimality map (k = {k}, rho = {rho}, λ_I = λ_E, truncation 60x60)"
    ));
    println!("  µ_I   µ_E   | E[T] opt   E[T] IF    E[T] EF   | IF gap%  EF gap%  IF optimal?");

    let rows = sweep_with_threads(&grid, threads(), |&(mu_i, mu_e)| {
        let p = SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).expect("stable");
        let cfg = MdpConfig {
            k,
            lambda_i: p.lambda_i,
            lambda_e: p.lambda_e,
            mu_i,
            mu_e,
            max_i: 60,
            max_j: 60,
            allow_idling: false,
        };
        let opt = solve_optimal(&cfg, 1e-9, 600_000).expect("VI converges");
        let g_if = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 600_000).expect("eval IF");
        let g_ef = evaluate_policy(&cfg, &ElasticFirst, 1e-9, 600_000).expect("eval EF");
        let lambda = p.total_lambda();
        (
            mu_i,
            mu_e,
            opt.average_cost / lambda,
            g_if / lambda,
            g_ef / lambda,
        )
    });

    for (mu_i, mu_e, t_opt, t_if, t_ef) in &rows {
        let if_gap = 100.0 * (t_if / t_opt - 1.0);
        let ef_gap = 100.0 * (t_ef / t_opt - 1.0);
        let if_optimal = if_gap < 0.05;
        println!(
            "  {mu_i:<5.2} {mu_e:<5.2} | {t_opt:<10.4} {t_if:<10.4} {t_ef:<9.4} | {if_gap:<8.2} {ef_gap:<8.2} {if_optimal}"
        );
        if mu_i >= mu_e {
            assert!(
                if_gap < 0.1,
                "Theorem 5 violated numerically at (µI={mu_i}, µE={mu_e})"
            );
        }
    }

    println!(
        "\n  µ_I ≥ µ_E rows: IF gap ≈ 0 — Theorems 1 and 5, numerically.\n\
         µ_I < µ_E rows: IF leaves up to tens of percent on the table, and\n\
         EF does not close the gap either — the optimal policy in that\n\
         regime is the paper's open question (our `hpc_malleable` example\n\
         prints its state-dependent structure)."
    );
}
