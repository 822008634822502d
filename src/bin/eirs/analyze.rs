//! `eirs analyze`: exact mean response times under IF and EF for
//! explicit rates.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::prelude::*;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[flags::PARAMS];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let a_if = analyze_inelastic_first(&p).map_err(|e| e.to_string())?;
    let a_ef = analyze_elastic_first(&p).map_err(|e| e.to_string())?;
    println!("{}", flags::params_line(&p));
    println!("policy           E[T]      E[T_I]    E[T_E]");
    for (name, a) in [("Inelastic-First", a_if), ("Elastic-First", a_ef)] {
        println!(
            "{name:<16} {:<9.4} {:<9.4} {:<9.4}",
            a.mean_response, a.mean_response_inelastic, a.mean_response_elastic
        );
    }
    Ok(())
}
