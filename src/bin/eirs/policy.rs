//! `eirs policy`: analytic and DES evaluation of any policy spec, with
//! the analysis checked against the replication confidence interval.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::prelude::*;
use eirs_repro::obs::Json;
use eirs_repro::sim::replicate::run_markovian_replications;
use eirs_repro::sim::stats::ReplicationStats;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[
    flags::PARAMS,
    &[
        "policy",
        "reps",
        "departures",
        "seed",
        "phase-cap",
        "level-cut",
        "force-general",
        "json",
    ],
];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let policy = flags::policy(args)?;
    let reps = flags::reps(args)?;
    let departures = flags::departures(args, 200_000)?;
    let seed = args.get_parsed_or("seed", 1u64)?;
    let mut opts = flags::analyze_options(args, AnalyzeOptions::default().phase_cap)?;
    opts.max_level_cut = args.get_parsed_or("level-cut", opts.max_level_cut)?;
    // Escape hatch for policies that only look like strict priority
    // inside the probed window (e.g. a threshold beyond --phase-cap):
    // skip detection entirely.
    opts.force_general = args.get_parsed_or("force-general", opts.force_general)?;
    let json = flags::json_mode(args)?;
    let a = analyze_policy_with(policy.as_ref(), &p, &opts).map_err(|e| e.to_string())?;
    // DES replications on decorrelated seed streams, fanned out over the
    // sweep workers.
    let reports = run_markovian_replications(
        policy.as_ref(),
        p.k,
        p.lambda_i,
        p.lambda_e,
        p.mu_i,
        p.mu_e,
        seed,
        reps,
        departures / 10,
        departures,
    );
    let stats: ReplicationStats = reports.iter().map(|r| r.mean_response).collect();
    let ci = stats.confidence_interval();
    let inside = ci.contains(a.mean_response);
    if json {
        let mut analysis = Json::object();
        analysis
            .set("mean_response", a.mean_response)
            .set("mean_response_inelastic", a.mean_response_inelastic)
            .set("mean_response_elastic", a.mean_response_elastic);
        let mut simulation = Json::object();
        simulation
            .set("mean_response", stats.mean())
            .set("ci_half_width", ci.half_width)
            .set("replications", reps)
            .set("departures_each", departures)
            .set("seed", seed);
        let mut doc = Json::object();
        doc.set("schema", "eirs-policy/v1")
            .set("params", flags::params_json(&p))
            .set("policy", policy.name())
            .set("analysis", analysis)
            .set("simulation", simulation)
            .set("analysis_inside_des_ci", inside);
        print!("{}", doc.pretty());
        return Ok(());
    }
    println!("policy: {}   ({})", policy.name(), flags::params_line(&p));
    println!(
        "analysis:   E[T] = {:.4} (inelastic {:.4}, elastic {:.4})",
        a.mean_response, a.mean_response_inelastic, a.mean_response_elastic
    );
    println!(
        "simulation: E[T] = {:.4} +- {:.4}  ({} reps x {} departures, 95% CI)",
        stats.mean(),
        ci.half_width,
        reps,
        departures
    );
    println!(
        "agreement:  analysis {} the replication confidence interval",
        if inside { "inside" } else { "OUTSIDE" }
    );
    Ok(())
}
