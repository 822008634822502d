//! Flag helpers shared by the command modules. Each parses one flag or
//! flag group, applies its default, and reports a bad value through
//! `run`'s single error path: a malformed `--policy`, `--workload`,
//! `--family` or `--churn` spec always surfaces as
//! `--<flag> '<spec>': <reason>`, printed to stderr with exit code 2,
//! never a panic.

use eirs_repro::cli::CliArgs;
use eirs_repro::core::policy::{parse_policy, registry};
use eirs_repro::core::prelude::*;
use eirs_repro::obs::Json;
use eirs_repro::opt;
use eirs_repro::sim::FaultSpec;

/// The flags [`params`] reads.
pub const PARAMS: &[&str] = &["k", "mu-i", "mu-e", "rho", "lambda-i", "lambda-e"];

/// The flags [`workload`] and [`workload_spec`] read.
pub const WORKLOAD: &[&str] = &["workload", "service-i", "service-e", "churn"];

/// The model parameters: `--k --mu-i --mu-e`, plus either `--rho` (equal
/// arrival rates at that load) or `--lambda-i --lambda-e`.
pub fn params(args: &CliArgs) -> Result<SystemParams, String> {
    let k = args.get_parsed_or("k", 4u32)?;
    let mu_i = args.get_parsed_or("mu-i", 1.0)?;
    let mu_e = args.get_parsed_or("mu-e", 1.0)?;
    let params = match args.get("rho") {
        Some(raw) => {
            let rho: f64 = raw.parse().map_err(|_| format!("bad --rho '{raw}'"))?;
            SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho)
        }
        None => {
            let lambda_i = args.get_parsed_or("lambda-i", 0.5)?;
            let lambda_e = args.get_parsed_or("lambda-e", 0.5)?;
            SystemParams::new(k, lambda_i, lambda_e, mu_i, mu_e)
        }
    };
    params.map_err(|e| e.to_string())
}

/// The `k=… lambda_i=… rho=…` parameter line of the human reports.
pub fn params_line(p: &SystemParams) -> String {
    format!(
        "k={} lambda_i={:.4} lambda_e={:.4} mu_i={} mu_e={} rho={:.3}",
        p.k,
        p.lambda_i,
        p.lambda_e,
        p.mu_i,
        p.mu_e,
        p.load()
    )
}

/// The parameter block embedded in every JSON document.
pub fn params_json(p: &SystemParams) -> Json {
    let mut o = Json::object();
    o.set("k", p.k as u64)
        .set("lambda_i", p.lambda_i)
        .set("lambda_e", p.lambda_e)
        .set("mu_i", p.mu_i)
        .set("mu_e", p.mu_e)
        .set("rho", p.load());
    o
}

/// A malformed spec, as `--<flag> '<spec>': <reason>`.
pub fn spec_error(flag: &str, spec: &str, err: &str) -> String {
    format!("--{flag} '{spec}': {err}")
}

/// The `--policy` flag as a single policy spec.
pub fn policy(args: &CliArgs) -> Result<Box<dyn AllocationPolicy>, String> {
    let spec = args.get_or("policy", "if");
    parse_policy(&spec).map_err(|e| spec_error("policy", &spec, &e))
}

/// The `--policy` flag as a comma-separated list (`all` expands to the
/// registry for `k` servers).
pub fn policy_list(args: &CliArgs, k: u32) -> Result<Vec<Box<dyn AllocationPolicy>>, String> {
    let specs = args.get_or("policy", "if");
    if specs == "all" {
        return Ok(registry(k));
    }
    specs
        .split(',')
        .map(|raw| {
            let spec = raw.trim();
            parse_policy(spec).map_err(|e| spec_error("policy", spec, &e))
        })
        .collect()
}

/// The `--workload` flag as a single spec.
pub fn workload(args: &CliArgs) -> Result<Workload, String> {
    workload_spec(args, &args.get_or("workload", "poisson"))
}

/// One workload spec with the `--service-i`/`--service-e` overrides and
/// the `--churn` capacity-fault axis applied.
pub fn workload_spec(args: &CliArgs, spec: &str) -> Result<Workload, String> {
    if let Some(churn) = args.get("churn") {
        // Surface a malformed churn spec under its own flag, not as a
        // workload error.
        FaultSpec::parse(churn).map_err(|e| spec_error("churn", churn, &e))?;
    }
    scenario::parse_workload(
        spec,
        args.get("service-i"),
        args.get("service-e"),
        args.get("churn"),
    )
    .map_err(|e| spec_error("workload", spec, &e))
}

/// The `--duration` horizon of `serve` and `client`. A trace-file
/// workload defaults to the whole trace: truncating it at an arbitrary
/// horizon and reporting complete-looking totals would silently
/// misrepresent the replay. Live generators never exhaust, so they
/// default to 500 and an explicit horizon must be finite.
pub fn duration(args: &CliArgs, workload: &Workload) -> Result<f64, String> {
    let explicit = args.get_parsed::<f64>("duration")?;
    let duration = match explicit {
        Some(duration) => duration,
        None if matches!(workload.arrivals, ArrivalSpec::TraceFile { .. }) => f64::INFINITY,
        None => 500.0,
    };
    if duration.is_nan() || duration <= 0.0 || (explicit.is_some() && !duration.is_finite()) {
        return Err(format!(
            "--duration must be a positive time, got {duration}"
        ));
    }
    Ok(duration)
}

/// The `--departures` count of the DES-backed commands. A run that
/// measures no departure has no response time to report, so 0 is
/// refused rather than scored.
pub fn departures(args: &CliArgs, default: u64) -> Result<u64, String> {
    let departures = args.get_parsed_or("departures", default)?;
    if departures == 0 {
        return Err("--departures must be at least 1, got 0".into());
    }
    Ok(departures)
}

/// The `--reps` replication count of `policy` and `scenario` (default
/// 8): a confidence interval needs at least 2.
pub fn reps(args: &CliArgs) -> Result<usize, String> {
    let reps = args.get_parsed_or("reps", 8usize)?;
    if reps < 2 {
        return Err(format!(
            "--reps {reps} is too few: confidence intervals need at least 2 replications"
        ));
    }
    Ok(reps)
}

/// The default analysis options with `--phase-cap` applied.
pub fn analyze_options(args: &CliArgs, phase_cap: usize) -> Result<AnalyzeOptions, String> {
    Ok(AnalyzeOptions {
        phase_cap: args.get_parsed_or("phase-cap", phase_cap)?,
        ..AnalyzeOptions::default()
    })
}

/// The `--family` flag (optimizer parameter spaces).
pub fn family(args: &CliArgs, k: u32) -> Result<Box<dyn opt::ParamSpace>, String> {
    let spec = args.get_or("family", "curve");
    opt::parse_family(&spec, k).map_err(|e| spec_error("family", &spec, &e))
}

/// The `--json true` flag.
pub fn json_mode(args: &CliArgs) -> Result<bool, String> {
    Ok(args.get_parsed_or("json", false)?)
}
