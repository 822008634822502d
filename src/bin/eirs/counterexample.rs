//! `eirs counterexample`: the Theorem 6 closed system, where EF beats
//! IF once `mu_e / mu_i` is large enough.

use eirs_repro::cli::CliArgs;
use eirs_repro::core::counterexample::expected_total_response_closed;
use eirs_repro::core::prelude::*;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[&["ratio"]];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let ratio = args.get_parsed_or("ratio", 2.0)?;
    let g_if = expected_total_response_closed(&InelasticFirst, 2, 2, 1, 1.0, ratio)
        .map_err(|e| e.to_string())?;
    let g_ef = expected_total_response_closed(&ElasticFirst, 2, 2, 1, 1.0, ratio)
        .map_err(|e| e.to_string())?;
    println!("Theorem 6 closed system (k=2, start 2 inelastic + 1 elastic, mu_i=1, mu_e={ratio}):");
    println!("E[sum T] IF = {g_if:.6}");
    println!("E[sum T] EF = {g_ef:.6}");
    println!(
        "better: {}",
        if g_ef < g_if {
            "Elastic-First"
        } else {
            "Inelastic-First (or tie)"
        }
    );
    Ok(())
}
