//! HPC scheduling with malleable jobs — the regime where Inelastic-First
//! fails (paper Sections 1.3 and 4.3).
//!
//! ```text
//! cargo run --release --example hpc_malleable
//! ```
//!
//! In HPC workloads, malleable (elastic) jobs coexist with rigid
//! single-node (inelastic) jobs, and unlike the datacenter examples it is
//! *not* clear which class is bigger. When the rigid jobs are larger on
//! average (µ_I < µ_E), Theorem 6 shows Inelastic-First loses its
//! optimality. This example maps the policy landscape in that regime:
//! analytic IF vs EF curves, the Theorem 6 closed system, and the
//! numerically-optimal MDP policy that neither matches.

use eirs_repro::core::counterexample::expected_total_response_closed;
use eirs_repro::mdp::{evaluate_policy, solve_optimal, MdpConfig};
use eirs_repro::prelude::*;

fn main() {
    // Part 1: the Theorem 6 closed system, exactly.
    println!("Theorem 6 counterexample (k = 2, start: 2 rigid + 1 malleable, no arrivals)");
    println!("  µ_E/µ_I   E[ΣT] IF     E[ΣT] EF     better");
    for ratio in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let g_if = expected_total_response_closed(&InelasticFirst, 2, 2, 1, 1.0, ratio)
            .expect("closed system solves");
        let g_ef = expected_total_response_closed(&ElasticFirst, 2, 2, 1, 1.0, ratio)
            .expect("closed system solves");
        let better = if g_ef < g_if - 1e-12 {
            "EF"
        } else {
            "IF (or tie)"
        };
        println!("  {ratio:<10.1}{g_if:<13.6}{g_ef:<13.6}{better}");
    }
    println!("  (at µ_E = 2µ_I these are the paper's 35/12 and 33/12)\n");

    // Part 2: steady state — where does EF overtake IF as rigid jobs grow?
    let k = 4;
    println!("Steady state, k = {k}, ρ = 0.9, µ_E = 1 (paper Figure 5c slice):");
    println!("  µ_I      E[T] IF     E[T] EF     winner");
    for mu_i in [0.15, 0.25, 0.5, 0.75, 1.0, 1.5] {
        let params = SystemParams::with_equal_lambdas(k, mu_i, 1.0, 0.9).expect("stable");
        let c = eirs_repro::core::experiments::compare(&params).expect("analysis");
        println!(
            "  {mu_i:<9.2}{:<12.4}{:<12.4}{:?}",
            c.mrt_if, c.mrt_ef, c.winner
        );
    }

    // Part 3: the open question — what does the *optimal* policy look like
    // when rigid jobs are larger? Solve the truncated MDP and compare.
    println!("\nNumerically optimal policy (truncated MDP, k = 2, µ_I = 0.25, µ_E = 1, ρ = 0.8):");
    let params = SystemParams::with_equal_lambdas(2, 0.25, 1.0, 0.8).expect("stable");
    let cfg = MdpConfig {
        k: params.k,
        lambda_i: params.lambda_i,
        lambda_e: params.lambda_e,
        mu_i: params.mu_i,
        mu_e: params.mu_e,
        max_i: 60,
        max_j: 60,
        allow_idling: false,
    };
    let opt = solve_optimal(&cfg, 1e-9, 500_000).expect("value iteration converges");
    let g_if = evaluate_policy(&cfg, &InelasticFirst, 1e-9, 500_000).unwrap();
    let g_ef = evaluate_policy(&cfg, &ElasticFirst, 1e-9, 500_000).unwrap();
    let lambda = params.total_lambda();
    println!("  E[T] optimal = {:.4}", opt.mean_response(lambda));
    println!("  E[T] IF      = {:.4}", g_if / lambda);
    println!("  E[T] EF      = {:.4}", g_ef / lambda);

    // Show the optimal allocation in the low corner of the state space.
    println!("\n  Optimal servers-to-rigid in state (i rigid, j malleable):");
    print!("       ");
    for j in 0..=6 {
        print!("j={j:<3}");
    }
    println!();
    for i in 0..=6usize {
        print!("  i={i:<3}");
        for j in 0..=6usize {
            let (a, _) = opt.action(i, j);
            print!("  {a:<3}");
        }
        println!();
    }
    println!(
        "\n  With big rigid jobs the optimal policy stops matching IF\n\
         (which would always show min(i, 2)): in mixed states it diverts\n\
         servers to malleable jobs. The exact structure of the optimal\n\
         policy in this regime is the paper's open question (Section 6)."
    );
}
