//! `eirs scenario`: a workload × policy grid, each cell scored by DES
//! replications and, where tractable, by exact analysis.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::experiments::{scenario_sweep, ScenarioSweepConfig, ScenarioSweepPoint};
use eirs_repro::core::scenario::{self, Workload};
use eirs_repro::obs::Json;

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[
    flags::PARAMS,
    flags::WORKLOAD,
    &["policy", "reps", "departures", "seed", "phase-cap", "json"],
];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    // Comma-separated workload and policy lists; `all` expands to the
    // registries. Either way each workload spec goes through the
    // `--workload` parser, so the --service-i/--service-e overrides and
    // --churn apply uniformly.
    let workload_specs = args.get_or("workload", "poisson");
    let specs: Vec<String> = if workload_specs == "all" {
        scenario::registry().into_iter().map(|w| w.name).collect()
    } else {
        workload_specs
            .split(',')
            .map(|s| s.trim().to_string())
            .collect()
    };
    let workloads: Vec<Workload> = specs
        .iter()
        .map(|spec| flags::workload_spec(args, spec))
        .collect::<Result<_, _>>()?;
    let policies = flags::policy_list(args, p.k)?;
    let reps = flags::reps(args)?;
    let departures = flags::departures(args, 100_000)?;
    let cfg = ScenarioSweepConfig {
        replications: reps,
        departures,
        warmup: departures / 10,
        base_seed: args.get_parsed_or("seed", 42u64)?,
    };
    let opts = flags::analyze_options(args, 48)?;
    let json = flags::json_mode(args)?;
    if !json {
        println!(
            "scenario grid: {} workload(s) x {} policy(ies)   ({}, {} reps x {} departures)",
            workloads.len(),
            policies.len(),
            flags::params_line(&p),
            reps,
            departures
        );
    }
    let points = scenario_sweep(&workloads, &policies, &p, &opts, &cfg)?;
    if json {
        let mut rows = Vec::with_capacity(points.len());
        for pt in &points {
            let mut r = Json::object();
            r.set("workload", pt.workload.clone())
                .set("policy", pt.policy.clone())
                .set("tractability", format!("{:?}", pt.tractability))
                .set("des_mean_response", pt.des_mean_response)
                .set("des_ci_half_width", pt.des_ci_half_width)
                .set("des_replications", pt.des_replications)
                .set("analysis_mean_response", pt.analysis_mean_response)
                .set("analysis_inside_des_ci", pt.analysis_inside_ci);
            rows.push(r);
        }
        let mut doc = Json::object();
        doc.set("schema", "eirs-scenario/v1")
            .set("params", flags::params_json(&p))
            .set("des_replications", reps)
            .set("des_departures_each", departures)
            .set("seed", cfg.base_seed)
            .set("rows", rows);
        print!("{}", doc.pretty());
        return Ok(());
    }
    let widths = [28, 26, 10, 18, 12];
    let cell = |s: String, w: usize| format!("{s:<width$}", width = w + 2);
    let header: String = ["workload", "policy", "analysis", "des (95% CI)", "in CI"]
        .iter()
        .zip(&widths)
        .map(|(s, &w)| cell(s.to_string(), w))
        .collect();
    println!("{}", header.trim_end());
    for ScenarioSweepPoint {
        workload,
        policy,
        analysis_mean_response,
        des_mean_response,
        des_ci_half_width,
        des_replications,
        analysis_inside_ci,
        ..
    } in &points
    {
        let analysis = analysis_mean_response
            .map(|m| format!("{m:.4}"))
            .unwrap_or_else(|| "-".into());
        let in_ci = analysis_inside_ci
            .map(|b| if b { "yes".into() } else { "NO".to_string() })
            .unwrap_or_else(|| "-".into());
        // A deterministic trace replay runs once and is exact for that
        // trace — no interval to report.
        let des = if *des_replications == 1 {
            format!("{des_mean_response:.4} (exact replay)")
        } else {
            format!("{des_mean_response:.4} +- {des_ci_half_width:.4}")
        };
        let row: String = [workload.clone(), policy.clone(), analysis, des, in_ci]
            .iter()
            .zip(&widths)
            .map(|(s, &w)| cell(s.clone(), w))
            .collect();
        println!("{}", row.trim_end());
    }
    let checked = points.iter().filter(|pt| pt.analysis_inside_ci.is_some());
    let misses: Vec<&ScenarioSweepPoint> = checked
        .clone()
        .filter(|pt| pt.analysis_inside_ci == Some(false))
        .collect();
    println!(
        "tractable pairs: {} of {}   analysis inside CI: {}",
        checked.clone().count(),
        points.len(),
        checked.count() - misses.len()
    );
    for miss in misses {
        println!(
            "  OUTSIDE CI: {}/{} (analysis {:.4}, DES {:.4} +- {:.4})",
            miss.workload,
            miss.policy,
            miss.analysis_mean_response.unwrap_or(f64::NAN),
            miss.des_mean_response,
            miss.des_ci_half_width
        );
    }
    Ok(())
}
