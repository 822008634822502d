//! `eirs` — command-line front end for the reproduction.
//!
//! ```text
//! eirs analyze   --k 4 --lambda-i 1 --lambda-e 1 --mu-i 2 --mu-e 1
//! eirs compare   --k 4 --rho 0.7 --mu-i 0.5 --mu-e 1
//! eirs policy    --policy threshold:3 --k 4 --rho 0.7 --mu-i 0.5 --mu-e 1
//! eirs scenario  --workload map --policy if,ef,fairshare --k 4 --rho 0.7
//! eirs optimize  --family curve --workload poisson --k 4 --rho 0.6 \
//!                --mu-i 0.5 --mu-e 1 --budget 120
//! eirs simulate  --policy if --k 4 --rho 0.7 --mu-i 1 --mu-e 1 \
//!                --departures 500000 --seed 1
//! eirs serve     --policy curve:2+0.5i --workload poisson --k 4 --rho 0.7 \
//!                --shards 4 --batch 1024 --duration 500
//! eirs serve     --policy curve:2+0.5i --listen 127.0.0.1:7070 --journal run.wal \
//!                --swap-policy optimize:threshold --swap-at 100000
//! eirs client    --connect 127.0.0.1:7070 --workload poisson --clients 4
//! eirs counterexample --ratio 2
//! ```
//!
//! All commands accept a global `--threads N` to pin the sweep worker
//! count (otherwise `EIRS_THREADS` or all cores); `policy`, `scenario`,
//! `optimize`, and `serve` accept `--json true` to emit one
//! machine-consumable JSON document instead of the human tables. Every
//! command is a thin wrapper over the library; see `README.md`.

use eirs_repro::bench::json::Json;
use eirs_repro::cli::{CliArgs, CliError};
use eirs_repro::core::counterexample::expected_total_response_closed;
use eirs_repro::core::policy::parse_policy;
use eirs_repro::core::prelude::*;
use eirs_repro::core::sweep;
use eirs_repro::opt;
use eirs_repro::sim::des::run_markovian;
use eirs_repro::sim::replicate::run_markovian_replications;
use eirs_repro::sim::stats::ReplicationStats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!("usage: eirs <command> [--flag value]... [--threads N]");
    eprintln!("commands:");
    eprintln!("  analyze         exact E[T] under IF and EF for explicit rates");
    eprintln!("                  --k --lambda-i --lambda-e --mu-i --mu-e");
    eprintln!("  compare         IF vs EF at a target load (lambda_i = lambda_e)");
    eprintln!("                  --k --rho --mu-i --mu-e");
    eprintln!("  policy          analytic + DES evaluation of any policy spec");
    eprintln!("                  --policy --k --rho --mu-i --mu-e [--reps --departures");
    eprintln!("                  --seed --phase-cap --level-cut --force-general true]");
    eprintln!("  scenario        workload x policy grid: DES CI + analysis if tractable");
    eprintln!("                  --workload <spec[,spec...]|all> --policy <spec[,spec...]|all>");
    eprintln!("                  [--service-i --service-e --churn <fault spec> --k --rho");
    eprintln!("                  --mu-i --mu-e --reps --departures --seed --phase-cap]");
    eprintln!("  optimize        search a policy family for the best allocation");
    eprintln!("                  --family --workload [--method auto|golden|nelder-mead");
    eprintln!("                  |coordinate|cross-entropy --budget --objective auto|analysis");
    eprintln!("                  |des --k --rho --mu-i --mu-e --reps --departures --seed");
    eprintln!("                  --certify auto|mdp|none --grid --phase-cap]");
    eprintln!("  simulate        DES run of one policy spec");
    eprintln!("                  --policy --k --rho --mu-i --mu-e --departures --seed");
    eprintln!("  serve           online decision server: compiled table + sharded engine");
    eprintln!("                  --policy --workload --shards --batch --duration [--route-shards");
    eprintln!("                  --grid --seed --snapshot <path> --k --rho --mu-i --mu-e]");
    eprintln!("                  faults:   [--churn <fault spec> --fault-seed --fault-horizon");
    eprintln!("                  --shed-limit <jobs>]");
    eprintln!("                  recovery: [--journal <path> --snapshot-at <n> --kill-after <n>");
    eprintln!("                  --recover true]");
    eprintln!("                  network:  [--listen <addr> --addr-file <path> --queue-cap <n>");
    eprintln!("                  (bound of the one ingest queue, default 8192) --shed true]");
    eprintln!("                  hot-swap: [--swap-policy <spec|optimize:<family>>");
    eprintln!("                  --swap-at <n>] replay: [--replay-journal <path> --drain true]");
    eprintln!("  client          load generator for a networked serve (--listen) front end");
    eprintln!("                  --connect <host:port> [--clients <n> --workload --duration");
    eprintln!("                  --seed --swap <spec> --swap-after <n> --k --rho --mu-i --mu-e]");
    eprintln!("  fuzz            seeded scenario fuzzer: random (workload, policy) cells");
    eprintln!("                  through every differential oracle (analysis vs DES,");
    eprintln!("                  accounting, digests, optimizer vs baselines)");
    eprintln!("                  --budget --seed [--shrink false --reps --departures");
    eprintln!("                  --warmup] | --replay <token>");
    eprintln!("  counterexample  Theorem 6 closed system --ratio (mu_e/mu_i)");
    eprintln!();
    eprintln!("policy specs:   if | ef | fairshare | reserve:<r> | threshold:<t>");
    eprintln!("                | curve:<a>+<b>i | waterfill:<w> | random:<seed>");
    eprintln!("workload specs: poisson | map[:<r01>x<r10>x<a0>x<a1>] | bursty[:<mean>]");
    eprintln!("                | trace[:<path>] | smooth-service | heavytail-service");
    eprintln!("service specs:  exp | erlang:<stages> | hyper:<cv2> | det");
    eprintln!("fault specs:    crash:mtbf=<t>,mttr=<t> | drain:period=<t>,down=<t>[,servers=<n>]");
    eprintln!("                | mmpp:r01=<r>,r10=<r>,a0=<r>,a1=<r>[,mttr=<t>]");
    eprintln!("family specs:   threshold[:<max>] | curve[:<max_intercept>] | waterfill");
    eprintln!("                | reserve | tabular[:<I>x<J>]");
    eprintln!();
    eprintln!("policy, scenario, optimize, serve, client, and fuzz accept --json true for machine");
    eprintln!("output.");
    eprintln!("all commands accept --metrics-out <path> (Prometheus text) and --trace-out <path>");
    eprintln!("(Chrome trace-event JSON; .jsonl for line-delimited events) to export telemetry;");
    eprintln!("either flag enables the eirs_obs layer for the run (outputs are unchanged).");
}

fn parse_params(args: &CliArgs) -> Result<SystemParams, String> {
    let k = args.get_parsed_or("k", 4u32).map_err(stringify)?;
    let mu_i = args.get_parsed_or("mu-i", 1.0).map_err(stringify)?;
    let mu_e = args.get_parsed_or("mu-e", 1.0).map_err(stringify)?;
    if let Some(rho_raw) = args.get("rho") {
        let rho: f64 = rho_raw
            .parse()
            .map_err(|_| format!("bad --rho '{rho_raw}'"))?;
        SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).map_err(|e| e.to_string())
    } else {
        let lambda_i = args.get_parsed_or("lambda-i", 0.5).map_err(stringify)?;
        let lambda_e = args.get_parsed_or("lambda-e", 0.5).map_err(stringify)?;
        SystemParams::new(k, lambda_i, lambda_e, mu_i, mu_e).map_err(|e| e.to_string())
    }
}

fn stringify(e: CliError) -> String {
    e.to_string()
}

/// Shared spec-error reporting for `policy`/`scenario`/`optimize`/`serve`:
/// a malformed `--policy`, `--workload`, or `--family` spec always surfaces
/// as `--<flag> '<spec>': <reason>` through `run`'s single error path —
/// printed to stderr with a non-zero exit, never a panic or unwrap.
fn spec_error(flag: &str, spec: &str, err: &str) -> String {
    format!("--{flag} '{spec}': {err}")
}

/// The `--policy` flag as a single policy spec.
fn policy_flag(args: &CliArgs) -> Result<Box<dyn AllocationPolicy>, String> {
    let spec = args.get_or("policy", "if");
    parse_policy(&spec).map_err(|e| spec_error("policy", &spec, &e))
}

/// The `--policy` flag as a comma-separated list (`all` expands to the
/// registry for `k` servers).
fn policy_list_flag(args: &CliArgs, k: u32) -> Result<Vec<Box<dyn AllocationPolicy>>, String> {
    let specs = args.get_or("policy", "if");
    if specs == "all" {
        return Ok(eirs_repro::core::policy::registry(k));
    }
    specs
        .split(',')
        .map(|raw| {
            let spec = raw.trim();
            parse_policy(spec).map_err(|e| spec_error("policy", spec, &e))
        })
        .collect()
}

/// The `--workload` flag (with `--service-i`/`--service-e` overrides and
/// the `--churn` capacity-fault axis).
fn workload_flag(args: &CliArgs) -> Result<eirs_repro::core::scenario::Workload, String> {
    let spec = args.get_or("workload", "poisson");
    if let Some(churn) = args.get("churn") {
        // Surface a malformed churn spec under its own flag, not as a
        // workload error.
        eirs_repro::sim::FaultSpec::parse(churn).map_err(|e| spec_error("churn", churn, &e))?;
    }
    eirs_repro::core::scenario::parse_workload(
        &spec,
        args.get("service-i"),
        args.get("service-e"),
        args.get("churn"),
    )
    .map_err(|e| spec_error("workload", &spec, &e))
}

/// The `--duration` horizon of `serve` and `client`. A trace-file
/// workload defaults to the whole trace: truncating it at an arbitrary
/// horizon and reporting complete-looking totals would silently
/// misrepresent the replay. Live generators never exhaust, so they
/// default to 500 and an explicit horizon must be finite.
fn duration_flag(
    args: &CliArgs,
    workload: &eirs_repro::core::scenario::Workload,
) -> Result<f64, String> {
    let whole_trace = matches!(
        workload.arrivals,
        eirs_repro::core::scenario::ArrivalSpec::TraceFile { .. }
    );
    let duration = match args.get("duration") {
        Some(_) => args.get_parsed_or("duration", 0.0f64).map_err(stringify)?,
        None if whole_trace => f64::INFINITY,
        None => 500.0,
    };
    if duration.is_nan()
        || duration <= 0.0
        || (args.get("duration").is_some() && !duration.is_finite())
    {
        return Err(format!(
            "--duration must be a positive time, got {duration}"
        ));
    }
    Ok(duration)
}

/// The `--departures` count of the DES-backed commands. A run that
/// measures no departure has no response time to report, so 0 is
/// refused rather than scored.
fn departures_flag(args: &CliArgs, default: u64) -> Result<u64, String> {
    let departures = args
        .get_parsed_or("departures", default)
        .map_err(stringify)?;
    if departures == 0 {
        return Err("--departures must be at least 1, got 0".into());
    }
    Ok(departures)
}

/// The `--family` flag (optimizer parameter spaces).
fn family_flag(args: &CliArgs, k: u32) -> Result<Box<dyn opt::ParamSpace>, String> {
    let spec = args.get_or("family", "curve");
    opt::parse_family(&spec, k).map_err(|e| spec_error("family", &spec, &e))
}

/// One baseline row of the `optimize` report: display name, mean
/// response, and — on the DES backend — the paired comparison
/// `(diff_mean, diff_ci_half_width, improves)`.
type BaselineRow = (String, f64, Option<(f64, f64, bool)>);

/// The `--json true` flag shared by `policy`, `scenario`, and `optimize`.
fn json_mode(args: &CliArgs) -> Result<bool, String> {
    args.get_parsed_or("json", false).map_err(stringify)
}

/// The hot-swap generation schedule as JSON rows (shared by every serve
/// mode: offline, networked, and journal replay).
fn swap_rows(swaps: &[eirs_repro::serve::SwapRecord]) -> Vec<Json> {
    swaps
        .iter()
        .map(|s| {
            let mut r = Json::object();
            r.set("seq", s.seq)
                .set("generation", s.generation as u64)
                .set("table_hash", format!("0x{:016x}", s.hash))
                .set("spec", s.spec.as_str());
            r
        })
        .collect()
}

/// One human-readable line per hot-swap.
fn print_swap_log(swaps: &[eirs_repro::serve::SwapRecord]) {
    for s in swaps {
        println!(
            "swap:  generation {} at seq {} -> '{}' (table 0x{:016x})",
            s.generation, s.seq, s.spec, s.hash
        );
    }
}

/// Standard parameter block embedded in every JSON document.
fn params_json(p: &SystemParams) -> Json {
    let mut o = Json::object();
    o.set("k", p.k as u64)
        .set("lambda_i", p.lambda_i)
        .set("lambda_e", p.lambda_e)
        .set("mu_i", p.mu_i)
        .set("mu_e", p.mu_e)
        .set("rho", p.load());
    o
}

/// The `eirs_opt` oracle the fuzz command injects above `eirs_core::fuzz`.
/// On tractable cells it runs a small analytic search over the threshold
/// family and checks two things: (a) **search correctness** — the search
/// result must match a brute-force scan of the family's own integer grid
/// (the sharp check: there is no expressiveness excuse against your own
/// family); and (b) **baselines** — EF/IF must not beat the winner by
/// more than 2% (the threshold family only reaches IF as the threshold
/// → ∞, so a small expressiveness gap is legitimate; a real optimizer
/// regression loses far more).
struct OptimizerOracle;

impl eirs_repro::core::fuzz::CellOracle for OptimizerOracle {
    fn name(&self) -> &str {
        "optimizer-vs-baseline"
    }

    fn check(&self, cell: &eirs_repro::core::fuzz::CellSpec) -> Result<(), String> {
        let Ok((workload, policy, params)) = cell.build() else {
            return Ok(()); // spec-parse oracle owns build failures
        };
        if workload.tractability(policy.as_ref(), &params)
            == eirs_repro::core::Tractability::Intractable
        {
            return Ok(());
        }
        let objective: Box<dyn opt::Objective> = Box::new(opt::AnalyticObjective::new(
            workload.clone(),
            params,
            AnalyzeOptions::default(),
        ));
        let Ok(family) = opt::parse_family("threshold", params.k) else {
            return Ok(());
        };
        let budget = opt::Budget {
            max_evals: 16,
            seed: cell.seed,
        };
        let Ok(report) = opt::optimize_refined(
            family.as_ref(),
            objective.as_ref(),
            opt::Method::Auto,
            &budget,
            4,
        ) else {
            return Ok(()); // analysis failures are the analysis oracle's job
        };

        // (a) Search correctness: brute-force the integer threshold grid
        // through the same objective; the search must match its best.
        let grid: Vec<Box<dyn AllocationPolicy>> = (1..=16usize)
            .filter_map(|t| parse_policy(&format!("threshold:{t}")).ok())
            .collect();
        let mut grid_best = f64::INFINITY;
        for v in objective.evaluate_batch(&grid) {
            let Ok(val) = v else { return Ok(()) };
            if val.is_finite() {
                grid_best = grid_best.min(val);
            }
        }
        if grid_best.is_finite() && report.best_value > grid_best * (1.0 + 1e-9) {
            return Err(format!(
                "optimizer missed its own family's grid optimum: brute-force threshold scan \
                 E[T]={grid_best:.9} vs optimized {:.9} ({})",
                report.best_value, report.best_params
            ));
        }

        // (b) Baselines: EF/IF must not beat the winner beyond the
        // family's expressiveness gap.
        let baselines: Vec<Box<dyn AllocationPolicy>> =
            vec![Box::new(ElasticFirst), Box::new(InelasticFirst)];
        let mut best_baseline = f64::INFINITY;
        let mut best_name = "";
        for (b, v) in baselines.iter().zip(objective.evaluate_batch(&baselines)) {
            let Ok(val) = v else { return Ok(()) };
            if val.is_finite() && val < best_baseline {
                best_baseline = val;
                best_name = if b.name().starts_with('E') {
                    "EF"
                } else {
                    "IF"
                };
            }
        }
        if best_baseline.is_finite() && report.best_value > best_baseline * (1.0 + 0.02) {
            return Err(format!(
                "baseline {best_name} beats the optimizer: E[T]={best_baseline:.6} vs \
                 optimized {:.6} ({})",
                report.best_value, report.best_params
            ));
        }
        Ok(())
    }
}

/// Renders fuzz oracle flags as a JSON array.
fn flags_json(flags: &[eirs_repro::core::fuzz::Flag]) -> Vec<Json> {
    flags
        .iter()
        .map(|f| {
            let mut o = Json::object();
            o.set("oracle", f.oracle.clone())
                .set("detail", f.detail.clone());
            o
        })
        .collect()
}

/// Human-readable analysis/DES numbers of one fuzz cell.
fn print_cell_numbers(report: &eirs_repro::core::fuzz::CellReport) {
    println!(
        "tractable: {}   analysis E[T]: {}   DES E[T]: {:.6} +- {:.6}",
        report.tractable,
        report
            .analysis_mean
            .map_or("n/a".to_string(), |a| format!("{a:.6}")),
        report.des_mean,
        report.ci_half_width
    );
}

/// Writes the run's collected telemetry after the command finishes:
/// `--metrics-out` gets Prometheus text, `--trace-out` gets a Chrome
/// trace-event JSON (load it at `ui.perfetto.dev`) or JSONL when the
/// path ends in `.jsonl`.
fn export_telemetry(metrics_out: Option<&str>, trace_out: Option<&str>) -> Result<(), String> {
    use eirs_repro::obs;
    if metrics_out.is_none() && trace_out.is_none() {
        return Ok(());
    }
    let events = obs::take_events();
    let snap = obs::snapshot();
    if let Some(path) = trace_out {
        let text = if path.ends_with(".jsonl") {
            obs::export::jsonl(&events)
        } else {
            obs::export::chrome_trace_json(&events, &snap)
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!("trace: {} events -> {path}", events.len());
    }
    if let Some(path) = metrics_out {
        let text = obs::export::prometheus_text(&snap);
        std::fs::write(path, text).map_err(|e| format!("cannot write metrics {path}: {e}"))?;
        eprintln!(
            "metrics: {} counters, {} gauges, {} histograms -> {path}",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }
    Ok(())
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = CliArgs::parse(raw).map_err(stringify)?;
    if let Some(n) = args.threads().map_err(stringify)? {
        sweep::set_threads(Some(n));
    }
    // The observability layer stays a no-op (one relaxed load per probe)
    // unless an export path asks for it. Telemetry is write-only, so
    // enabling it never changes any command's output — the CI
    // observability-invariance gate replays `serve` both ways and
    // compares decision digests.
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let trace_out = args.get("trace-out").map(str::to_string);
    if metrics_out.is_some() || trace_out.is_some() {
        eirs_repro::obs::set_enabled(true);
    }
    dispatch(args)?;
    export_telemetry(metrics_out.as_deref(), trace_out.as_deref())
}

fn dispatch(args: CliArgs) -> Result<(), String> {
    match args.command.as_str() {
        "analyze" => {
            let p = parse_params(&args)?;
            let a_if = analyze_inelastic_first(&p).map_err(|e| e.to_string())?;
            let a_ef = analyze_elastic_first(&p).map_err(|e| e.to_string())?;
            println!(
                "k={} lambda_i={:.4} lambda_e={:.4} mu_i={} mu_e={} rho={:.3}",
                p.k,
                p.lambda_i,
                p.lambda_e,
                p.mu_i,
                p.mu_e,
                p.load()
            );
            println!("policy           E[T]      E[T_I]    E[T_E]");
            for (name, a) in [("Inelastic-First", a_if), ("Elastic-First", a_ef)] {
                println!(
                    "{name:<16} {:<9.4} {:<9.4} {:<9.4}",
                    a.mean_response, a.mean_response_inelastic, a.mean_response_elastic
                );
            }
            Ok(())
        }
        "compare" => {
            let p = parse_params(&args)?;
            let c = eirs_repro::core::experiments::compare(&p).map_err(|e| e.to_string())?;
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
        "policy" => {
            let p = parse_params(&args)?;
            let policy = policy_flag(&args)?;
            let reps = args.get_parsed_or("reps", 8usize).map_err(stringify)?;
            if reps < 2 {
                return Err(format!(
                    "--reps {reps} is too few: confidence intervals need at least 2 replications"
                ));
            }
            let departures = departures_flag(&args, 200_000)?;
            let seed = args.get_parsed_or("seed", 1u64).map_err(stringify)?;
            let defaults = AnalyzeOptions::default();
            let opts = AnalyzeOptions {
                phase_cap: args
                    .get_parsed_or("phase-cap", defaults.phase_cap)
                    .map_err(stringify)?,
                max_level_cut: args
                    .get_parsed_or("level-cut", defaults.max_level_cut)
                    .map_err(stringify)?,
                // Escape hatch for policies that only look like strict
                // priority inside the probed window (e.g. a threshold
                // beyond --phase-cap): skip detection entirely.
                force_general: args
                    .get_parsed_or("force-general", defaults.force_general)
                    .map_err(stringify)?,
                ..defaults
            };
            let a = analyze_policy_with(policy.as_ref(), &p, &opts).map_err(|e| e.to_string())?;
            // DES replications on decorrelated seed streams, fanned out
            // over the sweep workers.
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
            if json_mode(&args)? {
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
                    .set("params", params_json(&p))
                    .set("policy", policy.name())
                    .set("analysis", analysis)
                    .set("simulation", simulation)
                    .set("analysis_inside_des_ci", inside);
                print!("{}", doc.pretty());
                return Ok(());
            }
            println!(
                "policy: {}   (k={} lambda_i={:.4} lambda_e={:.4} mu_i={} mu_e={} rho={:.3})",
                policy.name(),
                p.k,
                p.lambda_i,
                p.lambda_e,
                p.mu_i,
                p.mu_e,
                p.load()
            );
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
        "scenario" => {
            use eirs_repro::core::experiments::{
                scenario_sweep, ScenarioSweepConfig, ScenarioSweepPoint,
            };
            use eirs_repro::core::scenario::{self, Workload};

            let p = parse_params(&args)?;
            // Comma-separated workload and policy lists; `all` expands to
            // the registries.
            let workload_specs = args.get_or("workload", "poisson");
            // `all` expands to the registry names; either way each spec
            // goes through parse_workload so --service-i/--service-e
            // overrides apply uniformly.
            let specs: Vec<String> = if workload_specs == "all" {
                scenario::registry().into_iter().map(|w| w.name).collect()
            } else {
                workload_specs
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            };
            if let Some(churn) = args.get("churn") {
                eirs_repro::sim::FaultSpec::parse(churn)
                    .map_err(|e| spec_error("churn", churn, &e))?;
            }
            let workloads: Vec<Workload> = specs
                .iter()
                .map(|spec| {
                    scenario::parse_workload(
                        spec,
                        args.get("service-i"),
                        args.get("service-e"),
                        args.get("churn"),
                    )
                    .map_err(|e| spec_error("workload", spec, &e))
                })
                .collect::<Result<_, _>>()?;
            let policies = policy_list_flag(&args, p.k)?;
            let reps = args.get_parsed_or("reps", 8usize).map_err(stringify)?;
            if reps < 2 {
                return Err(format!(
                    "--reps {reps} is too few: confidence intervals need at least 2 replications"
                ));
            }
            let departures = departures_flag(&args, 100_000)?;
            let cfg = ScenarioSweepConfig {
                replications: reps,
                departures,
                warmup: departures / 10,
                base_seed: args.get_parsed_or("seed", 42u64).map_err(stringify)?,
            };
            let opts = AnalyzeOptions {
                phase_cap: args
                    .get_parsed_or("phase-cap", 48usize)
                    .map_err(stringify)?,
                ..AnalyzeOptions::default()
            };
            let json = json_mode(&args)?;
            if !json {
                println!(
                    "scenario grid: {} workload(s) x {} policy(ies)   (k={} lambda_i={:.4} \
                     lambda_e={:.4} mu_i={} mu_e={} rho={:.3}, {} reps x {} departures)",
                    workloads.len(),
                    policies.len(),
                    p.k,
                    p.lambda_i,
                    p.lambda_e,
                    p.mu_i,
                    p.mu_e,
                    p.load(),
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
                        .set(
                            "analysis_mean_response",
                            pt.analysis_mean_response.map_or(Json::Null, Json::from),
                        )
                        .set(
                            "analysis_inside_des_ci",
                            pt.analysis_inside_ci.map_or(Json::Null, Json::from),
                        );
                    rows.push(r);
                }
                let mut doc = Json::object();
                doc.set("schema", "eirs-scenario/v1")
                    .set("params", params_json(&p))
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
                // A deterministic trace replay runs once and is exact for
                // that trace — no interval to report.
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
        "optimize" => {
            let p = parse_params(&args)?;
            let json = json_mode(&args)?;
            let workload = workload_flag(&args)?;
            let family = family_flag(&args, p.k)?;
            let method = opt::parse_method(&args.get_or("method", "auto"))?;
            let budget = opt::Budget {
                max_evals: args.get_parsed_or("budget", 120usize).map_err(stringify)?,
                seed: args.get_parsed_or("seed", 42u64).map_err(stringify)?,
            };
            let opts = AnalyzeOptions {
                phase_cap: args
                    .get_parsed_or("phase-cap", 48usize)
                    .map_err(stringify)?,
                ..AnalyzeOptions::default()
            };
            let reps = args.get_parsed_or("reps", 6usize).map_err(stringify)?;
            let departures = departures_flag(&args, 50_000)?;
            let des = opt::DesBudget {
                base_seed: budget.seed,
                replications: reps,
                departures,
            };
            let probe = family.decode(&family.clamp(&family.initial()));
            let objective: Box<dyn opt::Objective> = match args.get_or("objective", "auto").as_str()
            {
                "auto" => opt::objective_for(&workload, &p, probe.as_ref(), &opts, &des),
                "analysis" => Box::new(opt::AnalyticObjective::new(workload.clone(), p, opts)),
                "des" => Box::new(opt::DesObjective::new(
                    workload.clone(),
                    p,
                    des.base_seed,
                    des.replications,
                    des.departures,
                )),
                other => {
                    return Err(format!(
                        "unknown --objective '{other}' (expected auto, analysis, des)"
                    ))
                }
            };
            // `--refine N` chains a coordinate-pattern polish after the
            // main method on N extra evaluations.
            let refine = args.get_parsed_or("refine", 0usize).map_err(stringify)?;
            let report = opt::optimize_refined(
                family.as_ref(),
                objective.as_ref(),
                method,
                &budget,
                refine,
            )?;
            let best_policy = family.decode(&report.best_x);

            // Baselines: exact through the same objective when it is
            // analytic, CRN-paired DES otherwise.
            let analytic_backend = report.objective == "analysis";
            let mut improvement = None;
            let (baseline_rows, beats_best): (Vec<BaselineRow>, bool) = if analytic_backend {
                let baselines: Vec<Box<dyn AllocationPolicy>> =
                    vec![Box::new(ElasticFirst), Box::new(InelasticFirst)];
                let scored = objective.evaluate_batch(&baselines);
                let mut rows = Vec::new();
                for (b, v) in baselines.iter().zip(scored) {
                    rows.push((b.name(), v?, None));
                }
                let best_baseline = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
                improvement = Some((best_baseline - report.best_value) / best_baseline);
                // Families only approach EF/IF asymptotically (a
                // finite threshold vs IF), so "beats" tolerates
                // matching the strongest baseline to within 0.1%; the
                // signed improvement is reported alongside.
                (rows, report.best_value <= best_baseline * (1.0 + 1e-3))
            } else {
                let cert = opt::improvement_over_baselines(
                    &workload,
                    &p,
                    best_policy.as_ref(),
                    budget.seed,
                    reps.max(2),
                    departures,
                )?;
                let rows = cert
                    .baselines
                    .iter()
                    .map(|b| {
                        (
                            b.name.clone(),
                            b.mean_response,
                            Some((b.diff_mean, b.diff_ci_half_width, b.improves)),
                        )
                    })
                    .collect();
                (rows, cert.beats_best_baseline)
            };

            // Optimality certification against the MDP grid: meaningful
            // exactly when the workload is the paper's Poisson×exp model.
            let certify_mode = args.get_or("certify", "auto");
            let poisson_exp = workload.tractability(best_policy.as_ref(), &p)
                == eirs_repro::core::Tractability::PoissonExp;
            let grid = args.get_parsed_or("grid", 48usize).map_err(stringify)?;
            let certificate = match certify_mode.as_str() {
                "none" => None,
                "mdp" => Some(opt::certify_against_mdp(&p, report.best_value, grid)?),
                "auto" => {
                    if poisson_exp {
                        Some(opt::certify_against_mdp(&p, report.best_value, grid)?)
                    } else {
                        None
                    }
                }
                other => {
                    return Err(format!(
                        "unknown --certify '{other}' (expected auto, mdp, none)"
                    ))
                }
            };

            if json {
                let mut best = Json::object();
                best.set("policy", report.best_policy.clone())
                    .set("params", report.best_params.clone())
                    .set(
                        "x",
                        report
                            .best_x
                            .iter()
                            .map(|&v| Json::Num(v))
                            .collect::<Vec<_>>(),
                    )
                    .set("mean_response", report.best_value);
                let mut baselines = Vec::new();
                for (name, mean, paired) in &baseline_rows {
                    let mut row = Json::object();
                    row.set("policy", name.clone()).set("mean_response", *mean);
                    if let Some((diff, hw, improves)) = paired {
                        row.set("paired_diff_mean", *diff)
                            .set("paired_diff_ci_half_width", *hw)
                            .set("improves", *improves);
                    }
                    baselines.push(row);
                }
                let mut doc = Json::object();
                doc.set("schema", "eirs-optimize/v1")
                    .set("params", params_json(&p))
                    .set("workload", workload.name.clone())
                    .set("family", report.family.clone())
                    .set("optimizer", report.optimizer.clone())
                    .set("objective", report.objective.clone())
                    .set("budget", budget.max_evals)
                    .set("seed", budget.seed)
                    .set("evaluations", report.evaluations)
                    .set("best", best)
                    .set("baselines", baselines)
                    .set(
                        "improvement_over_best_baseline",
                        improvement.map_or(Json::Null, Json::from),
                    )
                    .set("beats_best_baseline", beats_best);
                doc.set(
                    "mdp_certificate",
                    certificate.as_ref().map_or(Json::Null, |c| {
                        let mut o = Json::object();
                        o.set("mdp_mean_response", c.mdp_mean_response)
                            .set("optimality_gap", c.optimality_gap)
                            .set("mdp_matches_inelastic_first", c.mdp_matches_inelastic_first)
                            .set("grid", c.grid)
                            .set("window", c.window);
                        o
                    }),
                );
                print!("{}", doc.pretty());
                return Ok(());
            }

            println!(
                "optimize: family={} workload={} objective={} optimizer={}",
                report.family, workload.name, report.objective, report.optimizer
            );
            println!(
                "          (k={} lambda_i={:.4} lambda_e={:.4} mu_i={} mu_e={} rho={:.3})",
                p.k,
                p.lambda_i,
                p.lambda_e,
                p.mu_i,
                p.mu_e,
                p.load()
            );
            println!(
                "search:   {} evaluations (budget {}{}, seed {})",
                report.evaluations,
                budget.max_evals,
                if refine > 0 {
                    format!(" + {refine} refine")
                } else {
                    String::new()
                },
                budget.seed
            );
            println!(
                "best:     {}   [{}]   E[T] = {:.4}",
                report.best_policy, report.best_params, report.best_value
            );
            for (name, mean, paired) in &baseline_rows {
                match paired {
                    None => println!("baseline: {name:<16} E[T] = {mean:.4}"),
                    Some((diff, hw, improves)) => println!(
                        "baseline: {name:<16} E[T] = {mean:.4}   paired diff {diff:+.4} +- {hw:.4}{}",
                        if *improves { "  (improves)" } else { "" }
                    ),
                }
            }
            match improvement {
                Some(impr) => println!(
                    "verdict:  {:+.3}% vs the strongest fixed baseline ({})",
                    100.0 * impr,
                    if beats_best {
                        "beats or matches within 0.1%"
                    } else {
                        "does NOT beat"
                    }
                ),
                None => println!(
                    "verdict:  best-found {} the strongest fixed baseline (95% paired CI)",
                    if beats_best { "beats" } else { "does NOT beat" }
                ),
            }
            if let Some(c) = &certificate {
                println!(
                    "certificate: MDP optimum E[T] = {:.4} (grid {})   optimality gap = {:.3}%   \
                     MDP matches IF: {}",
                    c.mdp_mean_response,
                    c.grid,
                    100.0 * c.optimality_gap,
                    if c.mdp_matches_inelastic_first {
                        "yes"
                    } else {
                        "no"
                    }
                );
            }
            Ok(())
        }
        "simulate" => {
            let p = parse_params(&args)?;
            let departures = departures_flag(&args, 200_000)?;
            let seed = args.get_parsed_or("seed", 1u64).map_err(stringify)?;
            let policy = policy_flag(&args)?;
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
        "fuzz" => {
            use eirs_repro::core::fuzz::{self, CellSpec, FuzzConfig};
            let json = json_mode(&args)?;
            let cfg = FuzzConfig {
                budget: args.get_parsed_or("budget", 100usize).map_err(stringify)?,
                seed: args.get_parsed_or("seed", 1u64).map_err(stringify)?,
                shrink: args.get_parsed_or("shrink", true).map_err(stringify)?,
                threads: sweep::threads(),
                replications: args.get_parsed_or("reps", 4usize).map_err(stringify)?,
                departures: departures_flag(&args, 8000)?,
                warmup: args.get_parsed_or("warmup", 800u64).map_err(stringify)?,
                ..FuzzConfig::default()
            };
            let oracle = OptimizerOracle;
            let extra: [&dyn fuzz::CellOracle; 1] = [&oracle];

            // `--replay <token>` re-derives one flagged cell from its
            // printed token and re-runs every oracle on it —
            // bit-identical across runs, hosts, and thread counts.
            if let Some(token) = args.get("replay") {
                let seed = fuzz::parse_replay_token(token)?;
                let report = fuzz::check_cell(0, &CellSpec::from_seed(seed), &cfg, &extra);
                if json {
                    let mut doc = Json::object();
                    doc.set("schema", "eirs-fuzz-replay/v1")
                        .set("token", report.token.clone())
                        .set("spec", report.cell.render())
                        .set("tractable", report.tractable)
                        .set(
                            "analysis_mean",
                            report.analysis_mean.map_or(Json::Null, Json::from),
                        )
                        .set("des_mean", report.des_mean)
                        .set("ci_half_width", report.ci_half_width)
                        .set("flags", flags_json(&report.flags));
                    print!("{}", doc.pretty());
                } else {
                    println!("replay {}", report.token);
                    println!("spec: {}", report.cell.render());
                    print_cell_numbers(&report);
                    if report.flags.is_empty() {
                        println!("verdict: clean (every oracle passed)");
                    } else {
                        for f in &report.flags {
                            println!("FLAGGED [{}]: {}", f.oracle, f.detail);
                        }
                    }
                }
                if report.flags.is_empty() {
                    return Ok(());
                }
                return Err(format!(
                    "replayed cell {} still fails {} oracle(s)",
                    report.token,
                    report.flags.len()
                ));
            }

            if cfg.budget == 0 {
                return Err("--budget must be >= 1 (cells to fuzz)".into());
            }
            let report = fuzz::fuzz_run(&cfg, &extra);
            if json {
                let mut failures = Vec::new();
                for cell in report.cells.iter().filter(|c| !c.flags.is_empty()) {
                    let mut f = Json::object();
                    f.set("token", cell.token.clone())
                        .set("spec", cell.cell.render())
                        .set("flags", flags_json(&cell.flags))
                        .set(
                            "minimized_spec",
                            cell.minimized
                                .as_ref()
                                .map_or(Json::Null, |(m, _)| Json::from(m.render())),
                        )
                        .set("replay", format!("eirs fuzz --replay {}", cell.token));
                    failures.push(f);
                }
                let mut doc = Json::object();
                doc.set("schema", "eirs-fuzz/v1")
                    .set("seed", report.seed)
                    .set("budget", cfg.budget)
                    .set("replications", cfg.replications)
                    .set("departures", cfg.departures)
                    .set("tractable_cells", report.tractable)
                    .set("flagged_cells", report.flagged)
                    .set("shrink_evals", report.shrink_evals)
                    .set("failures", failures);
                print!("{}", doc.pretty());
            } else {
                println!(
                    "fuzz: seed={} budget={} reps={} departures={}",
                    report.seed, cfg.budget, cfg.replications, cfg.departures
                );
                println!(
                    "cells: {}   tractable: {}   flagged: {}   shrink evals: {}",
                    report.cells.len(),
                    report.tractable,
                    report.flagged,
                    report.shrink_evals
                );
                for cell in report.cells.iter().filter(|c| !c.flags.is_empty()) {
                    println!("FLAGGED {}", cell.token);
                    println!("  spec: {}", cell.cell.render());
                    for f in &cell.flags {
                        println!("  [{}] {}", f.oracle, f.detail);
                    }
                    if let Some((m, evals)) = &cell.minimized {
                        println!("  minimized ({evals} evals): {}", m.render());
                    }
                    println!("  replay: eirs fuzz --replay {}", cell.token);
                }
                if report.flagged == 0 {
                    println!("all cells clean: every oracle passed on every generated cell");
                }
            }
            if report.flagged > 0 {
                return Err(format!(
                    "{} of {} fuzz cells flagged (replay with the printed tokens)",
                    report.flagged, cfg.budget
                ));
            }
            Ok(())
        }
        "serve" => {
            use eirs_repro::serve::{
                recover, run_journaled, ChurnConfig, CompiledTable, EngineConfig, EngineSnapshot,
                Journal, JournalWriter, RunControls, ServeEngine,
            };
            use eirs_repro::sim::FaultSpec;

            let p = parse_params(&args)?;
            let policy = policy_flag(&args)?;
            let workload = workload_flag(&args)?;
            let workers = args.get_parsed_or("shards", 1usize).map_err(stringify)?;
            let route = args
                .get_parsed_or("route-shards", 4usize)
                .map_err(stringify)?;
            let batch = args.get_parsed_or("batch", 1024usize).map_err(stringify)?;
            // Trace replays default to the whole file even under --churn
            // (engine-side churn changes decisions, not which arrivals
            // exist) — which is why churned traces then *require* an
            // explicit --fault-horizon below.
            let duration = duration_flag(&args, &workload)?;
            let seed = args.get_parsed_or("seed", 1u64).map_err(stringify)?;
            let grid = args.get_parsed_or("grid", 64usize).map_err(stringify)?;
            if workers < 1 || route < 1 || batch < 1 {
                return Err("--shards, --route-shards, and --batch must be at least 1".into());
            }
            // Capacity churn: the fault model is engine identity, seeded
            // separately from the workload so the same traffic can be
            // replayed under different availability sample paths.
            let churn_cfg = match args.get("churn") {
                Some(spec) => {
                    let horizon = match args.get("fault-horizon") {
                        Some(_) => args
                            .get_parsed_or("fault-horizon", 0.0f64)
                            .map_err(stringify)?,
                        // Fault schedules are generated to a finite
                        // horizon; default to the run's own.
                        None if duration.is_finite() => duration,
                        None => {
                            return Err("--churn with an unbounded --duration needs an explicit \
                                 --fault-horizon (fault schedules are generated to a finite \
                                 horizon)"
                                .into())
                        }
                    };
                    if !(horizon > 0.0 && horizon.is_finite()) {
                        return Err(format!(
                            "--fault-horizon must be a positive finite time, got {horizon}"
                        ));
                    }
                    let parsed =
                        FaultSpec::parse(spec).map_err(|e| spec_error("churn", spec, &e))?;
                    Some(ChurnConfig {
                        spec: parsed,
                        seed: args.get_parsed_or("fault-seed", 1u64).map_err(stringify)?,
                        horizon,
                    })
                }
                None => None,
            };
            let shed_limit = match args.get("shed-limit") {
                Some(_) => {
                    let limit = args
                        .get_parsed_or("shed-limit", 0usize)
                        .map_err(stringify)?;
                    if limit == 0 {
                        return Err(
                            "--shed-limit must be at least 1 (0 would reject every arrival \
                             while degraded)"
                                .into(),
                        );
                    }
                    if churn_cfg.is_none() {
                        return Err("--shed-limit only applies under --churn (shedding is a \
                             degraded-mode policy)"
                            .into());
                    }
                    Some(limit)
                }
                None => None,
            };
            // Crash-recovery controls: a write-ahead journal plus the
            // snapshot-at / kill-after boundaries, and --recover true to
            // come back from them.
            let journal_path = args.get("journal");
            let snapshot_path = args.get("snapshot");
            let snapshot_at = match args.get("snapshot-at") {
                Some(_) => Some(args.get_parsed_or("snapshot-at", 0u64).map_err(stringify)?),
                None => None,
            };
            let kill_after = match args.get("kill-after") {
                Some(_) => Some(args.get_parsed_or("kill-after", 0u64).map_err(stringify)?),
                None => None,
            };
            let recover_mode = args.get_parsed_or("recover", false).map_err(stringify)?;
            if recover_mode {
                if snapshot_path.is_none() || journal_path.is_none() {
                    return Err(
                        "--recover true needs both --snapshot <path> (to restore) and \
                         --journal <path> (to replay)"
                            .into(),
                    );
                }
                if snapshot_at.is_some() || kill_after.is_some() {
                    return Err(
                        "--recover true cannot be combined with --snapshot-at/--kill-after \
                         (those control the crashing run, not the recovery)"
                            .into(),
                    );
                }
            } else {
                if (snapshot_at.is_some() || kill_after.is_some()) && journal_path.is_none() {
                    return Err(
                        "--snapshot-at/--kill-after need --journal <path>: killing without a \
                         write-ahead journal would lose arrivals irrecoverably"
                            .into(),
                    );
                }
                if snapshot_at.is_some() && snapshot_path.is_none() {
                    return Err("--snapshot-at needs --snapshot <path> to write to".into());
                }
            }
            // Networked serving, offline hot-swap, and journal replay
            // (the front end in crates/net): three further serve modes.
            let listen = args.get("listen").map(str::to_string);
            let replay_path = args.get("replay-journal").map(str::to_string);
            let swap_policy = args.get("swap-policy").map(str::to_string);
            let swap_at = match args.get("swap-at") {
                Some(_) => Some(args.get_parsed_or("swap-at", 0u64).map_err(stringify)?),
                None => None,
            };
            if swap_policy.is_some() != swap_at.is_some() {
                return Err(
                    "--swap-policy and --swap-at go together: the policy spec to \
                     install and the arrival-sequence barrier to install it at"
                        .into(),
                );
            }
            if let Some(spec) = &swap_policy {
                // Validate the swap spec up front: a bad spec should fail
                // the command, not the barrier halfway through a run.
                match spec.strip_prefix("optimize:") {
                    Some(family) => {
                        opt::parse_family(family, p.k)
                            .map_err(|e| spec_error("swap-policy", spec, &e))?;
                    }
                    None => {
                        parse_policy(spec).map_err(|e| spec_error("swap-policy", spec, &e))?;
                    }
                }
            }
            if replay_path.is_some()
                && (listen.is_some()
                    || recover_mode
                    || journal_path.is_some()
                    || snapshot_path.is_some()
                    || swap_policy.is_some())
            {
                return Err(
                    "--replay-journal is a standalone mode: it rebuilds a run from \
                     the journal alone and cannot be combined with --listen, --journal, \
                     --snapshot, --recover, or --swap-policy"
                        .into(),
                );
            }
            if listen.is_some()
                && (recover_mode
                    || snapshot_path.is_some()
                    || snapshot_at.is_some()
                    || kill_after.is_some())
            {
                return Err("--listen serves live connections; the snapshot/recovery \
                     controls (--snapshot, --snapshot-at, --kill-after, --recover) apply \
                     to offline runs — journal a networked run with --journal and rebuild \
                     it with --replay-journal"
                    .into());
            }
            if listen.is_none()
                && (args.get("queue-cap").is_some()
                    || args.get("shed").is_some()
                    || args.get("addr-file").is_some())
            {
                return Err(
                    "--queue-cap, --shed, and --addr-file only apply with --listen <addr>".into(),
                );
            }
            if args.get("drain").is_some() && replay_path.is_none() {
                return Err("--drain only applies with --replay-journal <path>".into());
            }
            if recover_mode && swap_policy.is_some() {
                return Err("--swap-policy cannot be combined with --recover true (the \
                     journal being replayed already records the generation schedule)"
                    .into());
            }
            if swap_policy.is_some()
                && listen.is_none()
                && (snapshot_at.is_some() || kill_after.is_some())
            {
                return Err(
                    "--swap-policy cannot be combined with --snapshot-at/--kill-after".into(),
                );
            }
            let policy_spec = args.get_or("policy", "if");
            let policy_name = policy.name();
            let table = CompiledTable::compile(policy, p.k, grid, grid);
            let table_shape = (table.max_i() + 1, table.max_j() + 1, table.table_bytes());
            let mut config = EngineConfig::new(p.k)
                .route_shards(route)
                .workers(workers)
                .batch(batch);
            if let Some(c) = churn_cfg {
                config = config.churn(c);
            }
            if let Some(s) = shed_limit {
                config = config.shed_limit(s);
            }
            // --replay-journal: rebuild an entire run — boot policy,
            // arrivals, and hot-swaps — from the write-ahead journal
            // alone, and report the reproduced digest.
            if let Some(jpath) = &replay_path {
                let k = p.k;
                // A finished run, offline or networked, drains before it
                // reports, so `--drain true` reproduces it; without
                // `--drain`, replay reproduces a run killed with
                // `--kill-after`.
                let drain = args.get_parsed_or("drain", false).map_err(stringify)?;
                let journal = Journal::load(std::path::Path::new(jpath.as_str()))
                    .map_err(|e| format!("cannot replay journal {jpath}: {e}"))?;
                let compile = move |spec: &str| -> Result<CompiledTable, String> {
                    Ok(CompiledTable::compile(parse_policy(spec)?, k, grid, grid))
                };
                let mut engine = eirs_repro::serve::replay_journal(config, &journal, &compile)
                    .map_err(|e| format!("cannot replay journal {jpath}: {e}"))?;
                let replayed = engine.ingested();
                if drain {
                    engine.drain();
                }
                let totals = engine.metrics_total();
                let digest = format!("0x{:016x}", engine.decision_digest());
                if json_mode(&args)? {
                    let mut doc = Json::object();
                    doc.set("schema", "eirs-serve-replay/v1")
                        .set("journal", jpath.as_str())
                        .set("replayed", replayed)
                        .set("completions", totals.completions)
                        .set("decisions", totals.decisions)
                        .set("decision_digest", digest)
                        .set("generation", engine.generation() as u64)
                        .set("swaps", swap_rows(engine.swap_log()));
                    print!("{}", doc.pretty());
                    return Ok(());
                }
                println!(
                    "replay: {jpath} -> {replayed} arrivals, {} completions, {} decisions",
                    totals.completions, totals.decisions
                );
                print_swap_log(engine.swap_log());
                println!("digest: {digest} (generation {})", engine.generation());
                return Ok(());
            }
            // --listen: put the engine behind a socket. Clients drive the
            // arrival stream (the workload flags are unused); the accept
            // loop, the one ingest queue (bounded by --queue-cap) in front
            // of the engine loop, and the atomic hot-swap barrier live in
            // crates/net.
            if let Some(addr) = &listen {
                use eirs_repro::net::{NetConfig, ReoptSettings, SwapTrigger};
                let queue_cap = args
                    .get_parsed_or("queue-cap", NetConfig::default().queue_cap)
                    .map_err(stringify)?;
                if queue_cap < 1 {
                    return Err("--queue-cap must be at least 1".into());
                }
                let shed = args.get_parsed_or("shed", false).map_err(stringify)?;
                let listener = std::net::TcpListener::bind(addr.as_str())
                    .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                let local = listener.local_addr().map_err(|e| e.to_string())?;
                // With `--listen 127.0.0.1:0` the OS picks the port; the
                // addr file is how a harness learns it.
                if let Some(path) = args.get("addr-file") {
                    std::fs::write(path, local.to_string())
                        .map_err(|e| format!("cannot write addr file {path}: {e}"))?;
                }
                let engine = ServeEngine::new(table, config);
                let journal = match journal_path {
                    Some(jpath) => {
                        let file = std::fs::File::create(jpath)
                            .map_err(|e| format!("cannot create journal {jpath}: {e}"))?;
                        let w: Box<dyn std::io::Write + Send> =
                            Box::new(std::io::BufWriter::new(file));
                        Some(
                            JournalWriter::create_with_spec(w, &engine, Some(&policy_spec))
                                .map_err(|e| format!("cannot write journal {jpath}: {e}"))?,
                        )
                    }
                    None => None,
                };
                let swaps = match (&swap_policy, swap_at) {
                    (Some(spec), Some(at)) => vec![SwapTrigger {
                        at_seq: at,
                        spec: spec.clone(),
                    }],
                    _ => Vec::new(),
                };
                let net_cfg = NetConfig {
                    queue_cap,
                    batch,
                    shed,
                    reopt: ReoptSettings {
                        mu_inelastic: p.mu_i,
                        mu_elastic: p.mu_e,
                        max_evals: args.get_parsed_or("budget", 60usize).map_err(stringify)?,
                        seed,
                    },
                };
                let k = p.k;
                let compile = move |spec: &str| -> Result<CompiledTable, String> {
                    Ok(CompiledTable::compile(parse_policy(spec)?, k, grid, grid))
                };
                // Stderr so --json true keeps stdout machine-clean.
                eprintln!("listening on {local} (policy={policy_name} k={k} route_shards={route})");
                let start = std::time::Instant::now();
                let report =
                    eirs_repro::net::serve(listener, engine, journal, swaps, net_cfg, &compile)?;
                let wall = start.elapsed().as_secs_f64();
                if json_mode(&args)? {
                    let mut cfg = Json::object();
                    cfg.set("route_shards", route)
                        .set("shard_workers", workers)
                        .set("batch", batch)
                        .set("queue_cap", queue_cap)
                        .set("shed", shed)
                        .set("grid", grid)
                        .set("seed", seed);
                    let mut doc = Json::object();
                    doc.set("schema", "eirs-serve-net/v1")
                        .set("params", params_json(&p))
                        .set("policy", policy_name)
                        .set("listen", local.to_string())
                        .set("config", cfg)
                        .set("connections", report.connections)
                        .set("client_arrivals", report.client_arrivals)
                        .set("ingested", report.ingested)
                        .set("net_sheds", report.net_sheds)
                        .set("engine_rejections", report.engine_rejections)
                        .set("completions", report.completions)
                        .set("accounting_balanced", report.accounting_balanced())
                        .set("decision_digest", format!("0x{:016x}", report.digest))
                        .set("generation", report.generation as u64)
                        .set("swaps", swap_rows(&report.swaps))
                        .set(
                            "swap_pause_seconds",
                            report
                                .swap_pause_seconds
                                .iter()
                                .map(|&s| Json::from(s))
                                .collect::<Vec<_>>(),
                        )
                        .set(
                            "swap_errors",
                            report
                                .swap_errors
                                .iter()
                                .map(|e| Json::from(e.as_str()))
                                .collect::<Vec<_>>(),
                        )
                        .set("protocol_errors", report.protocol_errors)
                        .set(
                            "journal_errors",
                            report
                                .journal_errors
                                .iter()
                                .map(|e| Json::from(e.as_str()))
                                .collect::<Vec<_>>(),
                        )
                        .set("wall_s", wall);
                    print!("{}", doc.pretty());
                    return Ok(());
                }
                println!(
                    "serve: policy={policy_name} listened on {local} (k={k} route_shards={route} \
                     workers={workers} batch={batch} queue_cap={queue_cap} shed={shed})"
                );
                println!(
                    "net:   {} connections, {} arrivals -> {} ingested, {} shed, {} rejected, \
                     {} completions in {wall:.3} s (accounting {})",
                    report.connections,
                    report.client_arrivals,
                    report.ingested,
                    report.net_sheds,
                    report.engine_rejections,
                    report.completions,
                    if report.accounting_balanced() {
                        "exact"
                    } else {
                        "VIOLATED"
                    }
                );
                print_swap_log(&report.swaps);
                for e in &report.swap_errors {
                    println!("swap:  FAILED: {e}");
                }
                for e in &report.journal_errors {
                    println!("journal: FAILED: {e}");
                }
                if report.protocol_errors > 0 {
                    println!(
                        "net:   {} protocol errors tore down connections",
                        report.protocol_errors
                    );
                }
                println!(
                    "digest: 0x{:016x} (generation {})",
                    report.digest, report.generation
                );
                return Ok(());
            }
            // The engine serves `route` independent k-server shards, so the
            // offered stream carries route x the single-cluster rate; the
            // load of every shard is then exactly the configured rho.
            // (Trace-file workloads replay the file verbatim instead.)
            let scaled = SystemParams::new(
                p.k * route as u32,
                p.lambda_i * route as f64,
                p.lambda_e * route as f64,
                p.mu_i,
                p.mu_e,
            )
            .map_err(|e| e.to_string())?;
            let mut source = workload.build_source(&scaled, seed, duration)?;
            let start = std::time::Instant::now();
            let (engine, ingested, killed, replayed) = if recover_mode {
                let spath = snapshot_path.expect("validated above");
                let snap = EngineSnapshot::load(std::path::Path::new(spath))
                    .map_err(|e| format!("cannot restore snapshot {spath}: {e}"))?;
                let jpath = journal_path.expect("validated above");
                let file = std::fs::File::open(jpath)
                    .map_err(|e| format!("cannot open journal {jpath}: {e}"))?;
                let journal = Journal::load_prefix(&mut std::io::BufReader::new(file))
                    .map_err(|e| format!("cannot replay journal {jpath}: {e}"))?;
                let mut engine = recover(table, config, &snap, &journal)
                    .map_err(|e| format!("cannot recover from {spath} + {jpath}: {e}"))?;
                let replayed = engine.ingested();
                // The journal already covers the first `replayed` arrivals;
                // skip past them in the regenerated source (same workload,
                // same seed) and continue the interrupted run.
                for _ in 0..replayed {
                    if source.next_arrival().is_none() {
                        break;
                    }
                }
                let continued = engine.run(source.as_mut(), duration);
                (engine, replayed + continued, false, Some(replayed))
            } else if let Some(swap_spec) = &swap_policy {
                // Offline hot-swap: a hand-rolled batched loop that splits
                // exactly at the --swap-at barrier. The trailing partial
                // batch is journaled and ingested before the swap and
                // before shutdown — never dropped at a batch boundary.
                let barrier = swap_at.expect("validated: --swap-policy needs --swap-at");
                let mut engine = ServeEngine::new(table, config);
                let mut wal = match journal_path {
                    Some(jpath) => {
                        let file = std::fs::File::create(jpath)
                            .map_err(|e| format!("cannot create journal {jpath}: {e}"))?;
                        Some(
                            JournalWriter::create_with_spec(
                                std::io::BufWriter::new(file),
                                &engine,
                                Some(&policy_spec),
                            )
                            .map_err(|e| format!("cannot write journal {jpath}: {e}"))?,
                        )
                    }
                    None => None,
                };
                let install =
                    |engine: &mut ServeEngine,
                     wal: &mut Option<JournalWriter<std::io::BufWriter<std::fs::File>>>|
                     -> Result<(), String> {
                        let resolved = match swap_spec.strip_prefix("optimize:") {
                            Some(family) => {
                                // Re-optimize against the traffic observed so
                                // far: per-class arrival counts over the
                                // engine's summed stream clock.
                                let seen = engine.metrics_total();
                                let stream_time: f64 =
                                    engine.metrics_per_shard().iter().map(|m| m.sim_time).sum();
                                let load = opt::ObservedLoad::from_counts(
                                    seen.arrivals_inelastic,
                                    seen.arrivals_elastic,
                                    stream_time,
                                )
                                .map_err(|e| format!("--swap-policy '{swap_spec}': {e}"))?;
                                opt::reoptimize(
                                    family,
                                    p.k,
                                    &load,
                                    p.mu_i,
                                    p.mu_e,
                                    &opt::Budget {
                                        max_evals: 60,
                                        seed,
                                    },
                                )
                                .map_err(|e| format!("--swap-policy '{swap_spec}': {e}"))?
                                .spec
                            }
                            None => swap_spec.clone(),
                        };
                        let swap_table = CompiledTable::compile(
                            parse_policy(&resolved)
                                .map_err(|e| spec_error("swap-policy", &resolved, &e))?,
                            p.k,
                            grid,
                            grid,
                        );
                        // Write-ahead: journal the generation record before
                        // any arrival is served under it.
                        let record = eirs_repro::serve::SwapRecord {
                            seq: engine.ingested(),
                            generation: engine.generation() + 1,
                            hash: swap_table.identity_hash(),
                            spec: resolved.clone(),
                        };
                        if let Some(w) = wal.as_mut() {
                            w.append_swap(&record)
                                .map_err(|e| format!("cannot write journal: {e}"))?;
                        }
                        let installed = engine.install_table(swap_table, &resolved);
                        debug_assert_eq!(installed, record);
                        Ok(())
                    };
                let mut swapped = false;
                let mut buffer: Vec<eirs_repro::sim::Arrival> = Vec::with_capacity(batch);
                loop {
                    if !swapped && engine.ingested() == barrier {
                        install(&mut engine, &mut wal)?;
                        swapped = true;
                    }
                    // Never fill past the barrier: the swap happens
                    // between batches, so a batch boundary must land on
                    // it exactly.
                    let limit = if swapped {
                        batch
                    } else {
                        batch.min((barrier - engine.ingested()) as usize)
                    };
                    buffer.clear();
                    let mut ended = false;
                    while buffer.len() < limit {
                        match source.next_arrival() {
                            Some(a) if a.time <= duration => buffer.push(a),
                            _ => {
                                ended = true;
                                break;
                            }
                        }
                    }
                    if !buffer.is_empty() {
                        if let Some(w) = wal.as_mut() {
                            w.append_batch(engine.ingested(), &buffer)
                                .map_err(|e| format!("cannot write journal: {e}"))?;
                        }
                        engine.ingest_batch(&buffer);
                    }
                    if ended {
                        // The stream ended before the barrier: the swap
                        // still takes effect, journaled at the actual
                        // end-of-stream barrier.
                        if !swapped {
                            install(&mut engine, &mut wal)?;
                        }
                        break;
                    }
                }
                engine.drain();
                let n = engine.ingested();
                (engine, n, false, None)
            } else {
                let mut engine = ServeEngine::new(table, config);
                match journal_path {
                    Some(jpath) => {
                        let file = std::fs::File::create(jpath)
                            .map_err(|e| format!("cannot create journal {jpath}: {e}"))?;
                        // Record the boot-policy spec in the header so
                        // --replay-journal can rebuild the run from the
                        // journal alone.
                        let mut wal = JournalWriter::create_with_spec(
                            std::io::BufWriter::new(file),
                            &engine,
                            Some(&policy_spec),
                        )
                        .map_err(|e| format!("cannot write journal {jpath}: {e}"))?;
                        let outcome = run_journaled(
                            &mut engine,
                            source.as_mut(),
                            duration,
                            &mut wal,
                            RunControls {
                                snapshot_at,
                                kill_after,
                            },
                        )
                        .map_err(|e| format!("cannot write journal {jpath}: {e}"))?;
                        if let Some(snap) = &outcome.snapshot {
                            let spath = snapshot_path.expect("validated above");
                            snap.save(std::path::Path::new(spath))
                                .map_err(|e| format!("cannot write snapshot {spath}: {e}"))?;
                        }
                        (engine, outcome.ingested, outcome.killed, None)
                    }
                    None => {
                        let n = engine.run(source.as_mut(), duration);
                        (engine, n, false, None)
                    }
                }
            };
            let wall = start.elapsed().as_secs_f64();
            let totals = engine.metrics_total();
            let per_shard = engine.metrics_per_shard();
            let response_hist = engine.response_histogram();
            if eirs_repro::obs::enabled() {
                eirs_repro::obs::publish_histogram(
                    "serve.decision_latency",
                    &engine.decision_latency(),
                );
                eirs_repro::obs::publish_histogram("serve.response_time", &response_hist);
            }
            let digest = format!("0x{:016x}", engine.decision_digest());
            let decisions_per_sec = totals.decisions as f64 / wall;
            // A plain `--snapshot` (no boundary flags) keeps its original
            // meaning: save the final engine state. A killed run saves
            // nothing extra (the crash state lives in the WAL), and a
            // recovery run treats the snapshot path as input only.
            if !recover_mode && !killed && snapshot_at.is_none() {
                if let Some(path) = snapshot_path {
                    engine
                        .snapshot()
                        .save(std::path::Path::new(path))
                        .map_err(|e| format!("cannot write snapshot {path}: {e}"))?;
                }
            }
            let churn_identity = engine.config().churn.map(|c| c.identity());
            if json_mode(&args)? {
                let mut cfg = Json::object();
                cfg.set("route_shards", route)
                    .set("shard_workers", workers)
                    .set("batch", batch)
                    .set("duration", duration)
                    .set("seed", seed)
                    .set("grid", grid)
                    .set(
                        "churn",
                        match &churn_identity {
                            Some(id) => Json::from(id.as_str()),
                            None => Json::Null,
                        },
                    )
                    .set(
                        "shed_limit",
                        match shed_limit {
                            Some(s) => Json::from(s as u64),
                            None => Json::Null,
                        },
                    );
                let mut tbl = Json::object();
                tbl.set("rows", table_shape.0)
                    .set("cols", table_shape.1)
                    .set("bytes", table_shape.2);
                let mut tot = Json::object();
                tot.set("arrivals", totals.arrivals)
                    .set("completions", totals.completions)
                    .set("decisions", totals.decisions)
                    .set("overflow_lookups", totals.overflow_lookups)
                    .set("degraded_decisions", totals.degraded_decisions)
                    .set("rejections", totals.rejections)
                    .set("preemptions", totals.preemptions)
                    .set("wall_s", wall)
                    .set("decisions_per_sec", decisions_per_sec);
                let merged_tails = if response_hist.is_empty() {
                    Json::Null
                } else {
                    let mut q = Json::object();
                    q.set("p50", response_hist.quantile_seconds(0.5))
                        .set("p95", response_hist.quantile_seconds(0.95))
                        .set("p99", response_hist.quantile_seconds(0.99))
                        .set("p999", response_hist.quantile_seconds(0.999));
                    q
                };
                tot.set("response_quantiles", merged_tails);
                let mut rows = Vec::with_capacity(per_shard.len());
                for (idx, m) in per_shard.iter().enumerate() {
                    let mut r = Json::object();
                    r.set("shard", idx)
                        .set("arrivals", m.arrivals)
                        .set("completions", m.completions)
                        .set("decisions", m.decisions)
                        .set("overflow_lookups", m.overflow_lookups)
                        .set("degraded_decisions", m.degraded_decisions)
                        .set("rejections", m.rejections)
                        .set("preemptions", m.preemptions)
                        .set("peak_inelastic", m.peak_inelastic)
                        .set("peak_elastic", m.peak_elastic)
                        .set(
                            "mean_response",
                            if m.completions > 0 {
                                Json::from(m.mean_response())
                            } else {
                                Json::Null
                            },
                        )
                        .set("sim_time", m.sim_time);
                    let (p50, p95, p99) = m.response_quantiles();
                    for (key, value) in [
                        ("response_p50", p50),
                        ("response_p95", p95),
                        ("response_p99", p99),
                    ] {
                        r.set(
                            key,
                            if m.completions > 0 {
                                Json::from(value)
                            } else {
                                Json::Null
                            },
                        );
                    }
                    rows.push(r);
                }
                let mut doc = Json::object();
                doc.set("schema", "eirs-serve/v1")
                    .set("params", params_json(&p))
                    .set("policy", policy_name)
                    .set("workload", workload.name.clone())
                    .set("config", cfg)
                    .set("table", tbl)
                    .set("totals", tot)
                    .set("decision_digest", digest)
                    .set("killed", killed)
                    .set("recovered", recover_mode)
                    .set(
                        "replayed",
                        match replayed {
                            Some(n) => Json::from(n),
                            None => Json::Null,
                        },
                    )
                    .set("generation", engine.generation() as u64)
                    .set("swaps", swap_rows(engine.swap_log()))
                    .set("shards", rows);
                print!("{}", doc.pretty());
                return Ok(());
            }
            println!(
                "serve: policy={policy_name} workload={} (k={} rho={:.3} per shard)",
                workload.name,
                p.k,
                p.load()
            );
            println!(
                "       route_shards={route} workers={workers} batch={batch} duration={duration} seed={seed}"
            );
            if let Some(id) = &churn_identity {
                println!(
                    "churn: {id}{}",
                    match shed_limit {
                        Some(s) => format!(" shed_limit={s}"),
                        None => String::new(),
                    }
                );
            }
            println!(
                "table: {}x{} grid ({} bytes); clamp region delegates to the policy",
                table_shape.0, table_shape.1, table_shape.2
            );
            if let Some(n) = replayed {
                println!("recovery: restored snapshot and replayed {n} journaled arrivals");
            }
            println!(
                "run:   {ingested} arrivals, {} completions, {} decisions in {wall:.3} s  \
                 ({:.2}M decisions/sec, {} overflow lookups)",
                totals.completions,
                totals.decisions,
                decisions_per_sec / 1e6,
                totals.overflow_lookups
            );
            if totals.degraded_decisions > 0 || totals.rejections > 0 || totals.preemptions > 0 {
                println!(
                    "faults: {} degraded decisions, {} rejections (shed), {} preempt-restarts",
                    totals.degraded_decisions, totals.rejections, totals.preemptions
                );
            }
            if killed {
                println!(
                    "killed: after {ingested} arrivals (no drain; recover with \
                     --recover true --snapshot ... --journal ...)"
                );
            }
            print_swap_log(engine.swap_log());
            println!("digest: {digest}");
            if !response_hist.is_empty() {
                println!(
                    "tails: response p50={:.4} p95={:.4} p99={:.4} p999={:.4} (merged across shards)",
                    response_hist.quantile_seconds(0.5),
                    response_hist.quantile_seconds(0.95),
                    response_hist.quantile_seconds(0.99),
                    response_hist.quantile_seconds(0.999)
                );
            }
            println!("shard  arrivals  completions  decisions  degraded  rejected  peak(i,j)  mean T    now");
            for (idx, m) in per_shard.iter().enumerate() {
                println!(
                    "{idx:>5}  {:>8}  {:>11}  {:>9}  {:>8}  {:>8}  ({:>3},{:>3})  {:<8.4}  {:.2}",
                    m.arrivals,
                    m.completions,
                    m.decisions,
                    m.degraded_decisions,
                    m.rejections,
                    m.peak_inelastic,
                    m.peak_elastic,
                    m.mean_response(),
                    m.sim_time
                );
            }
            Ok(())
        }
        "client" => {
            use eirs_repro::net::{run_client, ClientConfig};

            let Some(addr) = args.get("connect") else {
                return Err(
                    "client needs --connect <host:port> (a `serve --listen` address)".into(),
                );
            };
            let p = parse_params(&args)?;
            let workload = workload_flag(&args)?;
            let clients = args.get_parsed_or("clients", 1usize).map_err(stringify)?;
            if clients < 1 {
                return Err("--clients must be at least 1".into());
            }
            let seed = args.get_parsed_or("seed", 1u64).map_err(stringify)?;
            let duration = duration_flag(&args, &workload)?;
            let swap_spec = args.get("swap").map(str::to_string);
            let swap_after = match args.get("swap-after") {
                Some(_) => Some(args.get_parsed_or("swap-after", 0u64).map_err(stringify)?),
                None => None,
            };
            if swap_after.is_some() && swap_spec.is_none() {
                return Err("--swap-after needs --swap <spec> (the policy to request)".into());
            }
            // The whole workload is materialized up front so request ids
            // (global arrival indices) are assigned before the lanes
            // split across connections.
            let mut source = workload.build_source(&p, seed, duration)?;
            let mut arrivals = Vec::new();
            while let Some(a) = source.next_arrival() {
                if a.time > duration {
                    break;
                }
                arrivals.push(a);
            }
            if arrivals.is_empty() {
                return Err("the workload produced no arrivals to send".into());
            }
            let swap = swap_spec.map(|spec| {
                // Default barrier: mid-stream.
                (swap_after.unwrap_or(arrivals.len() as u64 / 2), spec)
            });
            let start = std::time::Instant::now();
            let report = run_client(addr, &arrivals, &ClientConfig { clients, swap })?;
            let wall = start.elapsed().as_secs_f64();
            if json_mode(&args)? {
                let lat = if report.latency.is_empty() {
                    Json::Null
                } else {
                    let mut q = Json::object();
                    q.set("count", report.latency.count())
                        .set("mean_s", report.latency.mean_seconds())
                        .set("p50_s", report.latency.quantile_seconds(0.5))
                        .set("p95_s", report.latency.quantile_seconds(0.95))
                        .set("p99_s", report.latency.quantile_seconds(0.99));
                    q
                };
                let mut doc = Json::object();
                doc.set("schema", "eirs-client/v1")
                    .set("connect", addr)
                    .set("clients", clients)
                    .set("workload", workload.name.clone())
                    .set("arrivals", report.arrivals)
                    .set("decisions", report.decisions)
                    .set("admitted", report.admitted)
                    .set("net_sheds", report.net_sheds)
                    .set("engine_rejections", report.engine_rejections)
                    .set("max_generation", report.max_generation as u64)
                    .set(
                        "control_replies",
                        report
                            .control_replies
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .set(
                        "server_errors",
                        report
                            .server_errors
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect::<Vec<_>>(),
                    )
                    .set("wall_s", wall)
                    .set("requests_per_sec", report.decisions as f64 / wall)
                    .set("latency", lat);
                print!("{}", doc.pretty());
                return Ok(());
            }
            println!(
                "client: {clients} connections -> {addr}, workload={} ({} arrivals)",
                workload.name, report.arrivals
            );
            println!(
                "decisions: {} ({} admitted, {} shed, {} rejected) in {wall:.3} s ({:.0} req/s)",
                report.decisions,
                report.admitted,
                report.net_sheds,
                report.engine_rejections,
                report.decisions as f64 / wall
            );
            if !report.latency.is_empty() {
                println!(
                    "latency: mean={:.2}ms p50={:.2}ms p95={:.2}ms p99={:.2}ms",
                    report.latency.mean_seconds() * 1e3,
                    report.latency.quantile_seconds(0.5) * 1e3,
                    report.latency.quantile_seconds(0.95) * 1e3,
                    report.latency.quantile_seconds(0.99) * 1e3
                );
            }
            for reply in &report.control_replies {
                println!("control: {reply}");
            }
            for e in &report.server_errors {
                println!("server error: {e}");
            }
            println!(
                "generation: {} (highest seen in any decision)",
                report.max_generation
            );
            Ok(())
        }
        "counterexample" => {
            let ratio = args.get_parsed_or("ratio", 2.0).map_err(stringify)?;
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
        other => Err(format!("unknown command '{other}'")),
    }
}
