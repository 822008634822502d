//! `eirs compare`: IF vs EF at a target load, with the Theorem 5
//! verdict.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::experiments;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[flags::PARAMS];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let c = experiments::compare(&p).map_err(|e| e.to_string())?;
    println!(
        "E[T] IF = {:.4}   E[T] EF = {:.4}   winner: {:?}",
        c.mrt_if, c.mrt_ef, c.winner
    );
    if p.inelastic_first_provably_optimal() {
        println!("mu_i >= mu_e: Theorem 5 guarantees Inelastic-First is optimal.");
    } else {
        println!("mu_i < mu_e: outside the proved-optimal regime (see Theorem 6).");
    }
    Ok(())
}
