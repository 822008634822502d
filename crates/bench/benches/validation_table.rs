//! VAL1 — the Section 5 validation claim: "We compared our analysis with
//! simulation, and all numbers agree within 1%."
//!
//! For a spread of parameter points covering every regime of Figure 4 this
//! harness prints analytic vs simulated mean response time for both
//! policies and the relative errors. Simulation is the state-level CTMC
//! simulator (exact dynamics, Monte-Carlo noise only).
//!
//! Run: `cargo bench -p eirs-bench --bench validation_table`

use eirs_bench::section;
use eirs_core::params::SystemParams;
use eirs_core::sweep::{sweep_with_threads, threads};
use eirs_core::validation::validate_point;

fn main() {
    // (k, µ_I, µ_E, ρ): spans µ_I >/=/< µ_E, three loads, three cluster sizes.
    let points = vec![
        (4u32, 2.0, 1.0, 0.5),
        (4, 2.0, 1.0, 0.7),
        (4, 1.0, 1.0, 0.5),
        (4, 1.0, 1.0, 0.7),
        (4, 1.0, 1.0, 0.9),
        (4, 0.5, 1.5, 0.5),
        (4, 0.5, 1.5, 0.7),
        (4, 0.25, 1.0, 0.7),
        (2, 3.0, 1.0, 0.7),
        (8, 1.0, 2.0, 0.7),
        (16, 0.5, 1.0, 0.5),
    ];
    // Longer runs at higher load (autocorrelation ~ 1/(1-rho)^2).
    let jumps_for = |rho: f64| if rho >= 0.85 { 40_000_000 } else { 10_000_000 };

    section("Validation: analysis vs state-level simulation (mean response time)");
    println!(
        "  k   µ_I   µ_E   rho   | E[T]IF ana  E[T]IF sim  err%  | E[T]EF ana  E[T]EF sim  err%"
    );

    let rows = sweep_with_threads(&points, threads(), |&(k, mu_i, mu_e, rho)| {
        let p = SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).expect("stable");
        let seed = (k as u64) * 1000 + (mu_i * 100.0) as u64 + (rho * 10.0) as u64;
        (
            k,
            mu_i,
            mu_e,
            rho,
            validate_point(&p, jumps_for(rho), seed).expect("validates"),
        )
    });

    let mut worst: f64 = 0.0;
    for (k, mu_i, mu_e, rho, row) in &rows {
        let (ei, ee) = (100.0 * row.rel_err_if(), 100.0 * row.rel_err_ef());
        worst = worst.max(row.rel_err_if()).max(row.rel_err_ef());
        println!(
            "  {k:<3} {mu_i:<5.2} {mu_e:<5.2} {rho:<5.2} | {:<11.4} {:<11.4} {ei:<5.2} | {:<11.4} {:<11.4} {ee:<5.2}",
            row.analytic_if, row.simulated_if, row.analytic_ef, row.simulated_ef
        );
    }
    println!(
        "\n  worst relative error: {:.2}% (paper claim: within 1%; residual here\n\
         includes Monte-Carlo noise of the simulator itself)",
        100.0 * worst
    );
    assert!(worst < 0.02, "validation drifted beyond 2%");
}
