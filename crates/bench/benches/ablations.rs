//! ABL1 — ablations of the design choices behind the reproduction:
//!
//! 1. **Coxian busy-period fit accuracy** — how well the two-phase Coxian
//!    matches M/M/1 busy-period moments across loads (it is exact on the
//!    first three by construction; we report the induced response-time
//!    error against simulation, the quantity the paper bounds at ~1%).
//! 2. **Idling ablation (Appendix B)** — enlarging the MDP action space
//!    with idling actions never lowers the optimal cost.
//! 3. **R-solver ablation** — logarithmic reduction vs fixed-point
//!    iteration on the paper's own QBD blocks: identical R, very different
//!    convergence behavior.
//!
//! Run: `cargo bench -p eirs-bench --bench ablations`

use eirs_bench::harness::{arm, pretty_seconds, rounds};
use eirs_bench::section;
use eirs_core::params::SystemParams;
use eirs_core::validation::validate_point;
use eirs_mdp::{solve_optimal, MdpConfig};
use eirs_queueing::coxian::fit_busy_period;
use eirs_queueing::MM1;

fn main() {
    section("Ablation 1: Coxian-2 busy-period fit across loads");
    println!("  rho    E[B] fit err   E[B²] fit err   E[B³] fit err   q       CV²(B)");
    for rho in [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99] {
        let q = MM1::new(rho, 1.0);
        let target = q.busy_period_moments();
        let cox = fit_busy_period(&q).expect("busy periods are Coxian-2 representable");
        let got = cox.moments();
        println!(
            "  {rho:<6.2} {:<14.2e} {:<15.2e} {:<15.2e} {:<7.4} {:.2}",
            (got.m1 - target.m1).abs() / target.m1,
            (got.m2 - target.m2).abs() / target.m2,
            (got.m3 - target.m3).abs() / target.m3,
            cox.q(),
            target.cv2(),
        );
    }
    println!("  (moment errors are at machine precision: the fit is exact by construction)");

    println!("\n  End-to-end effect on E[T] (analysis vs long simulation):");
    println!("  rho    IF err%   EF err%");
    for rho in [0.5, 0.7, 0.8] {
        let p = SystemParams::with_equal_lambdas(4, 0.5, 1.0, rho).expect("stable");
        let row = validate_point(&p, 20_000_000, 99).expect("validates");
        println!(
            "  {rho:<6.2} {:<9.3} {:<9.3}",
            100.0 * row.rel_err_if(),
            100.0 * row.rel_err_ef()
        );
    }

    section("Ablation 2: idling actions never help (Appendix B)");
    println!("  µ_I   µ_E   | E[N] non-idling  E[N] with idling  difference");
    for (mu_i, mu_e) in [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (0.25, 1.0)] {
        let p = SystemParams::with_equal_lambdas(2, mu_i, mu_e, 0.6).expect("stable");
        let base = MdpConfig {
            k: 2,
            lambda_i: p.lambda_i,
            lambda_e: p.lambda_e,
            mu_i,
            mu_e,
            max_i: 40,
            max_j: 40,
            allow_idling: false,
        };
        let idling = MdpConfig {
            allow_idling: true,
            ..base
        };
        let g0 = solve_optimal(&base, 1e-9, 600_000)
            .expect("VI converges")
            .average_cost;
        let g1 = solve_optimal(&idling, 1e-9, 600_000)
            .expect("VI converges")
            .average_cost;
        println!(
            "  {mu_i:<5.2} {mu_e:<5.2} | {g0:<16.6} {g1:<17.6} {:+.2e}",
            g1 - g0
        );
        assert!((g0 - g1).abs() < 1e-5, "idling changed the optimum");
    }

    section("Ablation 3: R-matrix solvers on the paper's IF chain blocks");
    println!("  rho    max|R_LR - R_FP|   t(log-reduction)   t(fixed-point)");
    for rho in [0.5, 0.8, 0.95] {
        let p = SystemParams::with_equal_lambdas(8, 1.0, 1.0, rho).expect("stable");
        // Rebuild the IF elastic-chain blocks via the public analysis path:
        // time the two solvers through a representative M/Cox-style QBD.
        let cox = fit_busy_period(&MM1::new(p.lambda_i, 8.0 * p.mu_i)).expect("fit");
        let (g1, g2, g3) = cox.gamma_rates();
        let k = 8usize;
        let phases = k + 2;
        let mut local = eirs_numerics::Matrix::zeros(phases, phases);
        for i in 0..k {
            if i + 1 < k {
                local[(i, i + 1)] = p.lambda_i;
            } else {
                local[(i, k)] = p.lambda_i;
            }
            if i >= 1 {
                local[(i, i - 1)] = i as f64 * p.mu_i;
            }
        }
        local[(k, k - 1)] = g1;
        local[(k, k + 1)] = g2;
        local[(k + 1, k - 1)] = g3;
        let up = eirs_numerics::Matrix::diag(&vec![p.lambda_e; phases]);
        let mut a2 = eirs_numerics::Matrix::zeros(phases, phases);
        for i in 0..k {
            a2[(i, i)] = (k - i) as f64 * p.mu_e;
        }
        let qbd =
            eirs_markov::Qbd::new(vec![up.clone()], vec![local.clone()], vec![], up, local, a2)
                .expect("valid QBD");
        let solve = |solver| qbd.solve_r(solver).expect("R solves");
        let r_lr = solve(eirs_markov::RSolver::LogarithmicReduction);
        let r_fp = solve(eirs_markov::RSolver::FixedPoint);
        let m = rounds(
            7,
            vec![
                arm(format!("log_reduction_rho{rho}"), || {
                    solve(eirs_markov::RSolver::LogarithmicReduction)
                }),
                arm(format!("fixed_point_rho{rho}"), || {
                    solve(eirs_markov::RSolver::FixedPoint)
                }),
            ],
        );
        println!(
            "  {rho:<6.2} {:<18.2e} {:<18} {}",
            r_lr.max_abs_diff(&r_fp),
            pretty_seconds(m.timing(0).median_s),
            pretty_seconds(m.timing(1).median_s)
        );
    }
    println!(
        "\n  The solvers agree to ~1e-10; logarithmic reduction converges\n\
         quadratically and stays fast as rho → 1 while the fixed point slows\n\
         with spectral radius — why it is the default."
    );
}
