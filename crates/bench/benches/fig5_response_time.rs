//! FIG5 — Figure 5(a–c): absolute mean response time under IF and EF as a
//! function of µ_I, with µ_E = 1, k = 4, λ_I = λ_E, for ρ ∈ {0.5, 0.7, 0.9}.
//!
//! Expected shape (paper): both curves fall as µ_I grows (inelastic jobs
//! shrink); EF is flat-ish in the far-left region at low µ_I where it wins;
//! the curves cross exactly once, left of µ_I = 1, and IF dominates to the
//! right of the dotted µ_I = µ_E line. The gap is largest at the extremes.
//!
//! Run: `cargo bench -p eirs-bench --bench fig5_response_time`

use eirs_bench::section;
use eirs_core::experiments::{figure5_mu_i_values, figure5_response_curve};
use eirs_core::sweep::{sweep_with_threads, threads};

fn main() {
    let k = 4;
    let mu_values = figure5_mu_i_values();
    let rhos = [0.5, 0.7, 0.9];

    let curves = sweep_with_threads(&rhos, threads().min(3), |&rho| {
        (
            rho,
            figure5_response_curve(k, rho, &mu_values).expect("analysis succeeds"),
        )
    });

    for (rho, curve) in &curves {
        section(&format!(
            "Figure 5: E[T] vs µ_I (µ_E = 1, k = {k}, rho = {rho}, λ_I = λ_E)"
        ));
        println!("  µ_I       E[T] IF      E[T] EF      winner");
        let mut crossover: Option<f64> = None;
        let mut last_sign = None;
        for p in curve {
            let winner = if p.mrt_if < p.mrt_ef { "IF" } else { "EF" };
            let sign = p.mrt_if < p.mrt_ef;
            if let Some(prev) = last_sign {
                if prev != sign {
                    crossover = Some(p.mu_i);
                }
            }
            last_sign = Some(sign);
            let marker = if (p.mu_i - 1.0).abs() < 1e-9 {
                "  <- µ_I = µ_E"
            } else {
                ""
            };
            println!(
                "  {:<9.2} {:<12.4} {:<12.4} {winner}{marker}",
                p.mu_i, p.mrt_if, p.mrt_ef
            );
        }
        match crossover {
            Some(x) => println!("  crossover at µ_I ≈ {x:.2} (paper: left of µ_I = 1)"),
            None => println!("  no crossover in range (IF dominates throughout)"),
        }
    }
}
