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
//! `optimize`, `serve`, `client`, and `fuzz` accept `--json true` to emit
//! one machine-consumable JSON document instead of the human tables. Every
//! command is a thin wrapper over the library, in a module of its own
//! whose `run` takes the parsed flags and whose `FLAGS` lists the flags
//! it reads (any other flag is refused before the command runs); the
//! modules share the flag helpers of [`flags`]. See `README.md`.

mod analyze;
mod client;
mod compare;
mod counterexample;
mod flags;
mod fuzz;
mod optimize;
mod policy;
mod scenario;
mod serve;
mod simulate;

use eirs_repro::cli::CliArgs;
use eirs_repro::core::sweep;
use eirs_repro::obs;

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
    eprintln!("                  hot-swap: [--swap-policy <spec|optimize:<family>> --budget <n>");
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
    eprintln!("a command refuses any flag it does not read.");
}

/// Writes the run's collected telemetry after the command finishes:
/// `--metrics-out` gets Prometheus text, `--trace-out` gets a Chrome
/// trace-event JSON (load it at `ui.perfetto.dev`) or JSONL when the
/// path ends in `.jsonl`.
fn export_telemetry(metrics_out: Option<&str>, trace_out: Option<&str>) -> Result<(), String> {
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

/// The flags every command accepts: `--threads` and the telemetry exports.
const GLOBAL: &[&str] = &["threads", "metrics-out", "trace-out"];

/// A command's `run`.
type Command = fn(&CliArgs) -> Result<(), String>;

fn run(raw: Vec<String>) -> Result<(), String> {
    let mut args = CliArgs::parse(raw)?;
    let (command, flags): (Command, &[&[&str]]) = match args.command.as_str() {
        "analyze" => (analyze::run, analyze::FLAGS),
        "compare" => (compare::run, compare::FLAGS),
        "policy" => (policy::run, policy::FLAGS),
        "scenario" => (scenario::run, scenario::FLAGS),
        "optimize" => (optimize::run, optimize::FLAGS),
        "simulate" => (simulate::run, simulate::FLAGS),
        "fuzz" => (fuzz::run, fuzz::FLAGS),
        "serve" => (serve::run, serve::FLAGS),
        "client" => (client::run, client::FLAGS),
        "counterexample" => (counterexample::run, counterexample::FLAGS),
        other => return Err(format!("unknown command '{other}'")),
    };
    args.accept(
        GLOBAL
            .iter()
            .chain(flags.iter().copied().flatten())
            .copied(),
    )?;
    if let Some(n) = args.threads()? {
        sweep::set_threads(Some(n));
    }
    // The observability layer stays a no-op (one relaxed load per probe)
    // unless an export path asks for it. Telemetry is write-only, so
    // enabling it never changes any command's output — the CI
    // observability-invariance gate replays `serve` both ways and
    // compares decision digests.
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    if metrics_out.is_some() || trace_out.is_some() {
        obs::set_enabled(true);
    }
    command(&args)?;
    export_telemetry(metrics_out, trace_out)
}
