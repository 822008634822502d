//! `eirs simulate`: one DES run of a policy spec.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::sim::des::run_markovian;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[flags::PARAMS, &["policy", "departures", "seed"]];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let departures = flags::departures(args, 200_000)?;
    let seed = args.get_parsed_or("seed", 1u64)?;
    let policy = flags::policy(args)?;
    let r = run_markovian(
        policy.as_ref(),
        p.k,
        p.lambda_i,
        p.lambda_e,
        p.mu_i,
        p.mu_e,
        seed,
        departures / 10,
        departures,
    );
    println!("policy: {}", policy.name());
    println!(
        "E[T] = {:.4} (inelastic {:.4}, elastic {:.4})",
        r.mean_response, r.mean_response_inelastic, r.mean_response_elastic
    );
    let (p50, p95, p99) = r.tail_response;
    println!("tails: P50 = {p50:.4}  P95 = {p95:.4}  P99 = {p99:.4}");
    println!(
        "E[N] = {:.4}   utilization = {:.3}",
        r.mean_num_in_system, r.utilization
    );
    Ok(())
}
