//! The repository benchmark.
//!
//! ```text
//! perfbench --eirs <path-to-eirs> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run executes three parts, each in its own process so that each
//! part's peak memory is its own:
//!
//! * `net-open` — a real `eirs serve --listen` child driven over loopback
//!   by an open-loop Poisson generator at a fixed ladder of offered rates
//!   ([`net`]);
//! * `engine-replay` — an in-process `ServeEngine` replay under crash
//!   churn, then a journaled replay killed mid-stream and recovered from
//!   snapshot + journal ([`replay`]);
//! * `des-search` — an `eirs_opt` search of the `curve` family scored by
//!   the CRN-paired DES ([`search`]).
//!
//! The three part processes start together and take turns: the run is cut
//! into [`ROUNDS`] rounds, and in each round every part measures for its
//! slice while the other two wait idle on their standard input. Each
//! part's repetitions are therefore spread over the whole run, so a slow
//! stretch of a shared host cannot cover all of them. The workload named
//! by `--workload` is the run's focus: its part gets the larger slice and
//! supplies the shared metrics (`setup_s`, `ok_frac`, `peak_rss_mb`,
//! `trace_overhead_frac`), so every run prints every metric. With
//! `--trace 0` the result line holds the end-to-end metrics, with
//! `--trace 1` the per-layer ones. A failed correctness gate exits nonzero
//! without printing a result.

mod net;
mod replay;
mod search;
mod util;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use util::PartReport;

/// The parts, in the order each round runs them.
const PARTS: [&str; 3] = ["net-open", "engine-replay", "des-search"];

/// Share of the run budget the focus part gets; the other two split the
/// rest evenly.
const FOCUS_SHARE: f64 = 0.5;

/// Rounds a run is cut into; each part measures once per round.
const ROUNDS: u32 = 3;

/// Metrics the focus part supplies for the whole run.
const SHARED: [&str; 4] = ["setup_s", "ok_frac", "peak_rss_mb", "trace_overhead_frac"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("net.p50_us", "us"),
    ("net.max_rps", "req/s"),
    ("replay.decisions_per_s", "1/s"),
    ("replay.wal_decisions_per_s", "1/s"),
    ("replay.recover_s", "s"),
    ("search.evals_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 51] = [
    ("gen.sent", "count"),
    ("gen.late_p99_us", "us"),
    ("net.samples", "count"),
    ("net.p90_us", "us"),
    ("net.p99_us", "us"),
    ("net.server_cpu_us_per_req", "us"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.bytes_out_per_req", "bytes"),
    ("net.sheds", "count"),
    ("net.protocol_errors", "count"),
    ("net.time_clamped", "count"),
    ("net.residual_frac", "ratio"),
    ("net.protocol.decode_ns", "ns"),
    ("net.protocol.encode_ns", "ns"),
    ("net.queue.handoff_ns", "ns"),
    ("net.stage.engine_ns", "ns"),
    ("serve.journal.append_ns", "ns"),
    ("serve.journal.bytes_per_arrival", "bytes"),
    ("serve.journal.load_ms", "ms"),
    ("serve.journal.recover_ms", "ms"),
    ("serve.snapshot.save_ms", "ms"),
    ("serve.snapshot.load_ms", "ms"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.table.compile_ms", "ms"),
    ("serve.table.lookup_ns", "ns"),
    ("serve.table.overflow_frac", "ratio"),
    ("serve.engine.ingest_ns", "ns"),
    ("serve.engine.non_lookup_ns", "ns"),
    ("serve.engine.drain_ms", "ms"),
    ("serve.engine.degraded_frac", "ratio"),
    ("serve.engine.preemptions", "count"),
    ("serve.engine.rejections", "count"),
    ("serve.engine.worker_speedup", "ratio"),
    ("sim.faults.capacity_events", "count"),
    ("sim.faults.expand_ms", "ms"),
    ("opt.evaluations", "count"),
    ("opt.batches", "count"),
    ("opt.batch_ms", "ms"),
    ("opt.objective_busy_frac", "ratio"),
    ("sweep.parallel_eff", "ratio"),
    ("sim.des.ns_per_departure", "ns"),
    ("sim.des.preemptions", "count"),
    ("trace_overhead_frac", "ratio"),
    ("trace_overhead_frac.net-open", "ratio"),
    ("trace_overhead_frac.engine-replay", "ratio"),
    ("trace_overhead_frac.des-search", "ratio"),
    ("hw.nproc", "count"),
    ("net.max_rps_offered", "req/s"),
    ("replay.host_speed", "1/s"),
    ("search.host_speed", "1/s"),
];

/// Settings every part receives from the orchestrator.
#[derive(Debug, Clone)]
pub struct PartArgs {
    /// Workload seed.
    pub seed: u64,
    /// Traced run: collect per-layer metrics.
    pub trace: bool,
    /// The release `eirs` binary.
    pub eirs: PathBuf,
    /// Scratch directory inside the checkout (removed by the orchestrator).
    pub tmp: PathBuf,
}

/// One part of a run, measured in slices spread over the run.
pub trait Part {
    /// Measures for about `budget`, and for at least one repetition.
    fn slice(&mut self, budget: Duration) -> Result<(), String>;
    /// Runs the closing gates and probes and reports the part's metrics.
    fn finish(self: Box<Self>) -> Result<PartReport, String>;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reads `--key value` pairs.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    flag(args, key).ok_or_else(|| format!("missing {key} <value>"))
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let raw = required(args, key)?;
    raw.parse()
        .map_err(|_| format!("cannot parse {key} '{raw}'"))
}

fn run(args: &[String]) -> Result<(), String> {
    let eirs = PathBuf::from(required(args, "--eirs")?);
    if !eirs.is_file() {
        return Err(format!("no eirs binary at {}", eirs.display()));
    }
    let seed: u64 = parsed(args, "--seed")?;
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if let Some(part) = flag(args, "--part") {
        let part_args = PartArgs {
            seed,
            trace,
            eirs,
            tmp: PathBuf::from(required(args, "--tmp")?),
        };
        return part_process(part, part_args);
    }

    let workload = required(args, "--workload")?;
    if !PARTS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {PARTS:?})"
        ));
    }
    let seconds: f64 = parsed(args, "--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let tmp = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let outcome = orchestrate(workload, seed, seconds, trace, &eirs, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    outcome
}

/// The body of a part process: builds the part, then obeys one command
/// per line of standard input. `slice <ms>` measures for that long and
/// answers `done`; `finish` prints the part's report and ends the process.
fn part_process(name: &str, args: PartArgs) -> Result<(), String> {
    let mut part: Box<dyn Part> = match name {
        "net-open" => Box::new(net::NetOpen::new(args)?),
        "engine-replay" => Box::new(replay::EngineReplay::new(args)?),
        "des-search" => Box::new(search::DesSearch::new(args)?),
        other => return Err(format!("unknown part '{other}'")),
    };
    let mut stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading commands: {e}"))?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["slice", ms] => {
                let ms: u64 = ms.parse().map_err(|_| format!("bad slice '{line}'"))?;
                part.slice(Duration::from_millis(ms))?;
                writeln!(stdout, "done")
                    .and_then(|()| stdout.flush())
                    .map_err(|e| format!("answering the orchestrator: {e}"))?;
            }
            ["finish"] => {
                part.finish()?.print();
                return Ok(());
            }
            _ => return Err(format!("unknown command '{line}'")),
        }
    }
    Err("the orchestrator closed the command stream".into())
}

/// A running part process; killed and reaped on drop if still running.
struct PartProcess {
    name: &'static str,
    child: Child,
    commands: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
    busy: Duration,
}

impl Drop for PartProcess {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl PartProcess {
    fn spawn(name: &'static str, base: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--part", name])
            .args(base)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start part {name}: {e}"))?;
        let commands = child.stdin.take();
        let answers = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            name,
            child,
            commands,
            answers,
            busy: Duration::ZERO,
        })
    }

    fn send(&mut self, command: &str) -> Result<(), String> {
        let stdin = self
            .commands
            .as_mut()
            .expect("commands stay open until finish");
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("part {} stopped taking commands: {e}", self.name))
    }

    /// The part's exit status once it has ended, for error messages.
    fn ended(&mut self) -> String {
        match self.child.wait() {
            Ok(status) => format!("part {} failed ({status})", self.name),
            Err(e) => format!("part {}: {e}", self.name),
        }
    }

    fn slice(&mut self, budget_ms: u64) -> Result<(), String> {
        let t0 = Instant::now();
        self.send(&format!("slice {budget_ms}"))?;
        let mut answer = String::new();
        let read = self
            .answers
            .read_line(&mut answer)
            .map_err(|e| e.to_string())?;
        self.busy += t0.elapsed();
        match answer.trim() {
            "done" => Ok(()),
            _ if read == 0 => Err(self.ended()),
            other => Err(format!("part {} answered '{other}'", self.name)),
        }
    }

    fn finish(&mut self) -> Result<PartReport, String> {
        let t0 = Instant::now();
        self.send("finish")?;
        self.commands = None;
        let mut text = String::new();
        std::io::Read::read_to_string(&mut self.answers, &mut text).map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.busy += t0.elapsed();
        if !status.success() {
            return Err(format!("part {} failed ({status})", self.name));
        }
        PartReport::parse(&text)
    }
}

fn orchestrate(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    eirs: &Path,
    tmp: &Path,
) -> Result<(), String> {
    let mut parts = Vec::with_capacity(PARTS.len());
    for part in PARTS {
        let base = [
            "--seed".to_string(),
            seed.to_string(),
            "--trace".to_string(),
            if trace { "1" } else { "0" }.to_string(),
            "--eirs".to_string(),
            eirs.display().to_string(),
            "--tmp".to_string(),
            tmp.join(part).display().to_string(),
        ];
        parts.push(PartProcess::spawn(part, &base)?);
    }
    for _ in 0..ROUNDS {
        for p in &mut parts {
            let share = if p.name == workload {
                FOCUS_SHARE
            } else {
                (1.0 - FOCUS_SHARE) / (PARTS.len() - 1) as f64
            };
            p.slice((seconds * share * 1000.0 / f64::from(ROUNDS)).round() as u64)?;
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut values: std::collections::BTreeMap<String, f64> = Default::default();
    for p in &mut parts {
        let report = p.finish()?;
        eprintln!(
            "perfbench: part {} done in {:.1} s ({} ops, {} failed)",
            p.name,
            p.busy.as_secs_f64(),
            report.attempted,
            report.failed
        );
        attempted += report.attempted;
        failed += report.failed;
        for (name, value) in report.metrics {
            let shared = SHARED.iter().any(|s| name == *s);
            if shared {
                values.insert(format!("{name}.{}", p.name), value);
                if p.name == workload {
                    values.insert(name, value);
                }
            } else {
                values.insert(name, value);
            }
        }
    }
    drop(parts);
    values.insert(
        "hw.nproc".into(),
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = *values
            .get(*name)
            .ok_or_else(|| format!("no value measured for metric {name}"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        eprintln!("perfbench: {name:<36} {value:>18.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
