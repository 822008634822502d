//! `eirs serve`: the online decision server, a compiled policy table in
//! front of the sharded engine. Its modes share the flag parsing here:
//!
//! * offline (the default): run a workload through the engine, optionally
//!   journaled and killed (`--journal --snapshot-at --kill-after`),
//!   recovered (`--recover true`), or hot-swapped at a barrier
//!   (`--swap-policy --swap-at`);
//! * `--listen <addr>`: serve live connections through `eirs_net`;
//! * `--replay-journal <path>`: rebuild a run from its journal alone.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::policy::parse_policy;
use eirs_repro::core::prelude::*;
use eirs_repro::net::{self, install_swap, NetConfig, ReoptSettings, SwapError, SwapTrigger};
use eirs_repro::obs::{self, Json};
use eirs_repro::opt;
use eirs_repro::serve::{
    feed, recover, replay_journal, ChurnConfig, CompiledTable, EngineConfig, EngineSnapshot,
    Journal, JournalWriter, RunControls, ServeEngine, SwapRecord,
};
use eirs_repro::sim::{record, ArrivalSource, FaultSpec};
use std::io::{BufReader, BufWriter, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::Instant;

/// The write-ahead journal of every serve mode.
type Wal = JournalWriter<Box<dyn Write + Send>>;

/// Why an offline run failed: its journal could not be written, or its
/// hot-swap could not be resolved (the message names the flag).
enum RunError {
    Journal(std::io::Error),
    Swap(String),
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Journal(e)
    }
}

/// One `serve` invocation's flags, parsed and cross-checked.
struct Serve<'a> {
    args: &'a CliArgs,
    p: SystemParams,
    workload: Workload,
    duration: f64,
    policy_name: String,
    policy_spec: String,
    workers: usize,
    route: usize,
    batch: usize,
    seed: u64,
    grid: usize,
    shed_limit: Option<usize>,
    journal: Option<&'a str>,
    snapshot: Option<&'a str>,
    snapshot_at: Option<u64>,
    kill_after: Option<u64>,
    recover: bool,
    swap: Option<SwapTrigger>,
    json: bool,
}

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[
    flags::PARAMS,
    flags::WORKLOAD,
    &[
        "policy",
        "shards",
        "batch",
        "duration",
        "route-shards",
        "grid",
        "seed",
        "json",
        "snapshot",
        "fault-seed",
        "fault-horizon",
        "shed-limit",
        "journal",
        "snapshot-at",
        "kill-after",
        "recover",
        "listen",
        "addr-file",
        "queue-cap",
        "shed",
        "swap-policy",
        "budget",
        "swap-at",
        "replay-journal",
        "drain",
    ],
];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let policy = flags::policy(args)?;
    let workload = flags::workload(args)?;
    let workers = args.get_parsed_or("shards", 1usize)?;
    let route = args.get_parsed_or("route-shards", 4usize)?;
    let batch = args.get_parsed_or("batch", 1024usize)?;
    // Trace replays default to the whole file even under --churn
    // (engine-side churn changes decisions, not which arrivals exist) —
    // which is why churned traces then *require* an explicit
    // --fault-horizon.
    let duration = flags::duration(args, &workload)?;
    let seed = args.get_parsed_or("seed", 1u64)?;
    let grid = args.get_parsed_or("grid", 64usize)?;
    if workers < 1 || route < 1 || batch < 1 {
        return Err("--shards, --route-shards, and --batch must be at least 1".into());
    }
    let churn = churn_flag(args, duration)?;
    let shed_limit = args.get_parsed::<usize>("shed-limit")?;
    if shed_limit == Some(0) {
        return Err(
            "--shed-limit must be at least 1 (0 would reject every arrival \
             while degraded)"
                .into(),
        );
    }
    if shed_limit.is_some() && churn.is_none() {
        return Err("--shed-limit only applies under --churn (shedding is a \
                    degraded-mode policy)"
            .into());
    }
    // Crash-recovery controls: a write-ahead journal plus the
    // snapshot-at / kill-after boundaries, and --recover true to come
    // back from them.
    let journal = args.get("journal");
    let snapshot = args.get("snapshot");
    let snapshot_at = args.get_parsed::<u64>("snapshot-at")?;
    let kill_after = args.get_parsed::<u64>("kill-after")?;
    let boundaries = snapshot_at.is_some() || kill_after.is_some();
    let recover = args.get_parsed_or("recover", false)?;
    if recover {
        if snapshot.is_none() || journal.is_none() {
            return Err(
                "--recover true needs both --snapshot <path> (to restore) and \
                 --journal <path> (to replay)"
                    .into(),
            );
        }
        if boundaries {
            return Err(
                "--recover true cannot be combined with --snapshot-at/--kill-after \
                 (those control the crashing run, not the recovery)"
                    .into(),
            );
        }
    } else {
        if boundaries && journal.is_none() {
            return Err(
                "--snapshot-at/--kill-after need --journal <path>: killing without a \
                 write-ahead journal would lose arrivals irrecoverably"
                    .into(),
            );
        }
        if snapshot_at.is_some() && snapshot.is_none() {
            return Err("--snapshot-at needs --snapshot <path> to write to".into());
        }
    }
    // Networked serving, offline hot-swap, and journal replay (the front
    // end in crates/net): three further serve modes.
    let listen = args.get("listen");
    let replay_path = args.get("replay-journal");
    let swap_policy = args.get("swap-policy");
    let swap_at = args.get_parsed::<u64>("swap-at")?;
    if swap_policy.is_some() != swap_at.is_some() {
        return Err(
            "--swap-policy and --swap-at go together: the policy spec to \
             install and the arrival-sequence barrier to install it at"
                .into(),
        );
    }
    if let Some(spec) = swap_policy {
        // Validate the swap spec up front: a bad spec should fail the
        // command, not the barrier halfway through a run.
        match spec.strip_prefix("optimize:") {
            Some(family) => opt::parse_family(family, p.k).map(drop),
            None => parse_policy(spec).map(drop),
        }
        .map_err(|e| flags::spec_error("swap-policy", spec, &e))?;
    }
    if replay_path.is_some()
        && (listen.is_some()
            || recover
            || journal.is_some()
            || snapshot.is_some()
            || swap_policy.is_some())
    {
        return Err(
            "--replay-journal is a standalone mode: it rebuilds a run from \
             the journal alone and cannot be combined with --listen, --journal, \
             --snapshot, --recover, or --swap-policy"
                .into(),
        );
    }
    if listen.is_some() && (recover || snapshot.is_some() || boundaries) {
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
        return Err("--queue-cap, --shed, and --addr-file only apply with --listen <addr>".into());
    }
    if args.get("drain").is_some() && replay_path.is_none() {
        return Err("--drain only applies with --replay-journal <path>".into());
    }
    if recover && swap_policy.is_some() {
        return Err("--swap-policy cannot be combined with --recover true (the \
                    journal being replayed already records the generation schedule)"
            .into());
    }
    if swap_policy.is_some() && listen.is_none() && boundaries {
        return Err("--swap-policy cannot be combined with --snapshot-at/--kill-after".into());
    }
    let json = flags::json_mode(args)?;

    let serve = Serve {
        args,
        p,
        workload,
        duration,
        policy_name: policy.name(),
        policy_spec: args.get_or("policy", "if"),
        workers,
        route,
        batch,
        seed,
        grid,
        shed_limit,
        journal,
        snapshot,
        snapshot_at,
        kill_after,
        recover,
        swap: swap_policy.zip(swap_at).map(|(spec, at_seq)| SwapTrigger {
            at_seq,
            spec: spec.to_string(),
        }),
        json,
    };
    let table = CompiledTable::compile(policy, p.k, grid, grid);
    let mut config = EngineConfig::new(p.k)
        .route_shards(route)
        .workers(workers)
        .batch(batch);
    if let Some(c) = churn {
        config = config.churn(c);
    }
    if let Some(s) = shed_limit {
        config = config.shed_limit(s);
    }
    match (replay_path, listen) {
        (Some(path), _) => serve.replay(path, config),
        (None, Some(addr)) => serve.listen(addr, table, config),
        (None, None) => serve.offline(table, config),
    }
}

/// Capacity churn: the fault model is engine identity, seeded separately
/// from the workload so the same traffic can be replayed under different
/// availability sample paths.
fn churn_flag(args: &CliArgs, duration: f64) -> Result<Option<ChurnConfig>, String> {
    let Some(spec) = args.get("churn") else {
        return Ok(None);
    };
    let horizon = match args.get_parsed::<f64>("fault-horizon")? {
        Some(horizon) => horizon,
        // Fault schedules are generated to a finite horizon; default to
        // the run's own.
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
    Ok(Some(ChurnConfig {
        spec: FaultSpec::parse(spec).map_err(|e| flags::spec_error("churn", spec, &e))?,
        seed: args.get_parsed_or("fault-seed", 1u64)?,
        horizon,
    }))
}

/// Creates the write-ahead journal at `path`. Its header records the
/// boot-policy `spec`, so `--replay-journal` can rebuild the run from the
/// journal alone.
fn open_journal(path: &str, engine: &ServeEngine, spec: &str) -> Result<Wal, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot create journal {path}: {e}"))?;
    let writer: Box<dyn Write + Send> = Box::new(BufWriter::new(file));
    JournalWriter::create_with_spec(writer, engine, Some(spec))
        .map_err(|e| format!("cannot write journal {path}: {e}"))
}

/// The hot-swap generation schedule as JSON rows.
fn swap_rows(swaps: &[SwapRecord]) -> Vec<Json> {
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
fn print_swap_log(swaps: &[SwapRecord]) {
    for s in swaps {
        println!(
            "swap:  generation {} at seq {} -> '{}' (table 0x{:016x})",
            s.generation, s.seq, s.spec, s.hash
        );
    }
}

impl Serve<'_> {
    /// Compiles a policy spec on the boot table's grid: the one compiler
    /// of hot-swaps and journal replay.
    fn compiler(&self) -> impl Fn(&str) -> Result<CompiledTable, String> + Send + Sync {
        let (k, grid) = (self.p.k, self.grid);
        move |spec| Ok(CompiledTable::compile(parse_policy(spec)?, k, grid, grid))
    }

    /// The model and search budget (`--budget`, default 60) of an
    /// `optimize:<family>` hot-swap.
    fn reopt(&self) -> Result<ReoptSettings, String> {
        Ok(ReoptSettings {
            mu_inelastic: self.p.mu_i,
            mu_elastic: self.p.mu_e,
            max_evals: self.args.get_parsed_or("budget", 60usize)?,
            seed: self.seed,
        })
    }

    /// `--replay-journal`: rebuild an entire run — boot policy, arrivals,
    /// and hot-swaps — from the write-ahead journal alone, and report the
    /// reproduced digest.
    fn replay(&self, path: &str, config: EngineConfig) -> Result<(), String> {
        // A finished run, offline or networked, drains before it
        // reports, so `--drain true` reproduces it; without `--drain`,
        // replay reproduces a run killed with `--kill-after`.
        let drain = self.args.get_parsed_or("drain", false)?;
        let journal = Journal::load(Path::new(path))
            .map_err(|e| format!("cannot replay journal {path}: {e}"))?;
        let mut engine = replay_journal(config, &journal, &self.compiler())
            .map_err(|e| format!("cannot replay journal {path}: {e}"))?;
        let replayed = engine.ingested();
        if drain {
            engine.drain();
        }
        let totals = engine.metrics_total();
        let digest = format!("0x{:016x}", engine.decision_digest());
        if self.json {
            let mut doc = Json::object();
            doc.set("schema", "eirs-serve-replay/v1")
                .set("journal", path)
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
            "replay: {path} -> {replayed} arrivals, {} completions, {} decisions",
            totals.completions, totals.decisions
        );
        print_swap_log(engine.swap_log());
        println!("digest: {digest} (generation {})", engine.generation());
        Ok(())
    }

    /// `--listen`: put the engine behind a socket. Clients drive the
    /// arrival stream (the workload flags are unused); the accept loop,
    /// the one ingest queue (bounded by --queue-cap) in front of the
    /// engine loop, and the atomic hot-swap barrier live in `eirs_net`.
    fn listen(&self, addr: &str, table: CompiledTable, config: EngineConfig) -> Result<(), String> {
        let queue_cap = self
            .args
            .get_parsed_or("queue-cap", NetConfig::default().queue_cap)?;
        if queue_cap < 1 {
            return Err("--queue-cap must be at least 1".into());
        }
        let shed = self.args.get_parsed_or("shed", false)?;
        let net_cfg = NetConfig {
            queue_cap,
            shed,
            reopt: self.reopt()?,
        };
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // With `--listen 127.0.0.1:0` the OS picks the port; the addr
        // file is how a harness learns it.
        if let Some(path) = self.args.get("addr-file") {
            std::fs::write(path, local.to_string())
                .map_err(|e| format!("cannot write addr file {path}: {e}"))?;
        }
        let engine = ServeEngine::new(table, config);
        let journal = self
            .journal
            .map(|path| open_journal(path, &engine, &self.policy_spec))
            .transpose()?;
        let (k, route, workers, batch) = (self.p.k, self.route, self.workers, self.batch);
        let policy_name = &self.policy_name;
        // Stderr so --json true keeps stdout machine-clean.
        eprintln!("listening on {local} (policy={policy_name} k={k} route_shards={route})");
        let start = Instant::now();
        let swaps = self.swap.iter().cloned().collect();
        let report = net::serve(listener, engine, journal, swaps, net_cfg, &self.compiler())?;
        let wall = start.elapsed().as_secs_f64();
        if self.json {
            let mut cfg = Json::object();
            cfg.set("route_shards", route)
                .set("shard_workers", workers)
                .set("batch", batch)
                .set("queue_cap", queue_cap)
                .set("shed", shed)
                .set("grid", self.grid)
                .set("seed", self.seed);
            let mut doc = Json::object();
            doc.set("schema", "eirs-serve-net/v1")
                .set("params", flags::params_json(&self.p))
                .set("policy", policy_name.as_str())
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
                .set("swap_pause_seconds", report.swap_pause_seconds.as_slice())
                .set("swap_errors", report.swap_errors.as_slice())
                .set("protocol_errors", report.protocol_errors)
                .set("journal_errors", report.journal_errors.as_slice())
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
        Ok(())
    }

    /// Runs the workload through the engine in one [`feed`] pass: fresh
    /// or recovered, journaled or not, with the `--snapshot-at` and
    /// `--kill-after` barriers or the `--swap-at` barrier. The run drains
    /// unless `--kill-after` stopped it. Returns the engine, whether it
    /// was killed, and how many journaled arrivals a recovery replayed.
    fn drive(
        &self,
        table: CompiledTable,
        config: EngineConfig,
        source: &mut dyn ArrivalSource,
    ) -> Result<(ServeEngine, bool, Option<u64>), String> {
        let (mut engine, replayed) = if self.recover {
            let spath = self
                .snapshot
                .expect("validated: --recover needs --snapshot");
            let snap = EngineSnapshot::load(Path::new(spath))
                .map_err(|e| format!("cannot restore snapshot {spath}: {e}"))?;
            let jpath = self.journal.expect("validated: --recover needs --journal");
            let file = std::fs::File::open(jpath)
                .map_err(|e| format!("cannot open journal {jpath}: {e}"))?;
            let mut file = BufReader::with_capacity(record::BUF_CAPACITY, file);
            let journal = Journal::load_prefix(&mut file)
                .map_err(|e| format!("cannot replay journal {jpath}: {e}"))?;
            let engine = recover(table, config, &snap, &journal)
                .map_err(|e| format!("cannot recover from {spath} + {jpath}: {e}"))?;
            // The journal already covers the first `replayed` arrivals;
            // skip past them in the regenerated source (same workload,
            // same seed) and continue the interrupted run.
            let replayed = engine.ingested();
            for _ in 0..replayed {
                if source.next_arrival().is_none() {
                    break;
                }
            }
            (engine, Some(replayed))
        } else {
            (ServeEngine::new(table, config), None)
        };
        // A recovery reads --journal; every other run writes it.
        let mut wal = match self.journal {
            Some(path) if !self.recover => Some(open_journal(path, &engine, &self.policy_spec)?),
            _ => None,
        };
        let controls = RunControls {
            snapshot_at: self.snapshot_at,
            kill_after: self.kill_after,
        };
        let swap = match &self.swap {
            Some(trigger) => Some((trigger, self.reopt()?, self.compiler())),
            None => None,
        };
        let barriers = match &swap {
            Some((trigger, ..)) => vec![trigger.at_seq],
            None => controls.barriers(),
        };
        let (start, mut snapshot) = (engine.ingested(), None);
        // A swap barrier past the end of the stream installs there, so
        // the new policy decides the drain.
        let killed = feed(
            &mut engine,
            source,
            self.duration,
            wal.as_mut(),
            &barriers,
            |engine, wal, _| match &swap {
                Some((trigger, reopt, compile)) => {
                    install_swap(engine, wal, &trigger.spec, None, reopt, compile).map_err(
                        |e| match e {
                            SwapError::Resolve(e) => {
                                RunError::Swap(flags::spec_error("swap-policy", &trigger.spec, &e))
                            }
                            SwapError::Journal(e) => RunError::Journal(e),
                        },
                    )?;
                    Ok(ControlFlow::Continue(()))
                }
                None => Ok(controls.act(engine, start, &mut snapshot)),
            },
        )
        .map_err(|e| match e {
            RunError::Journal(e) => {
                format!("cannot write journal {}: {e}", self.journal.unwrap_or(""))
            }
            RunError::Swap(message) => message,
        })?;
        // A snapshot barrier the run never reached leaves nothing for
        // `--recover true` to restore.
        if let (Some(at), None) = (self.snapshot_at, &snapshot) {
            let stop = match self.kill_after {
                Some(n) if killed => format!("--kill-after {n}"),
                _ => "end of stream".to_string(),
            };
            return Err(format!(
                "--snapshot-at {at} was never reached: the run stopped after {} arrivals \
                 ({stop}), so no snapshot was written",
                engine.ingested()
            ));
        }
        if !killed {
            engine.drain();
        }
        if let Some(snap) = snapshot {
            let spath = self
                .snapshot
                .expect("validated: --snapshot-at needs --snapshot");
            snap.save(Path::new(spath))
                .map_err(|e| format!("cannot write snapshot {spath}: {e}"))?;
        }
        Ok((engine, killed, replayed))
    }

    /// The default mode: run the workload, then report the engine's
    /// totals, tails, and per-shard metrics.
    fn offline(&self, table: CompiledTable, config: EngineConfig) -> Result<(), String> {
        // The engine serves `route` independent k-server shards, so the
        // offered stream carries route x the single-cluster rate; the
        // load of every shard is then exactly the configured rho.
        // (Trace-file workloads replay the file verbatim instead.)
        let (p, route) = (&self.p, self.route);
        let scaled = SystemParams::new(
            p.k * route as u32,
            p.lambda_i * route as f64,
            p.lambda_e * route as f64,
            p.mu_i,
            p.mu_e,
        )
        .map_err(|e| e.to_string())?;
        let mut source = self
            .workload
            .build_source(&scaled, self.seed, self.duration)?;
        let table_shape = (table.max_i() + 1, table.max_j() + 1, table.table_bytes());
        let start = Instant::now();
        let (engine, killed, replayed) = self.drive(table, config, source.as_mut())?;
        let wall = start.elapsed().as_secs_f64();
        let ingested = engine.ingested();
        let totals = engine.metrics_total();
        let per_shard = engine.metrics_per_shard();
        let response_hist = engine.response_histogram();
        if obs::enabled() {
            obs::publish_histogram("serve.decision_latency", &engine.decision_latency());
            obs::publish_histogram("serve.response_time", &response_hist);
        }
        let digest = format!("0x{:016x}", engine.decision_digest());
        let decisions_per_sec = totals.decisions as f64 / wall;
        // A plain `--snapshot` (no boundary flags) keeps its original
        // meaning: save the final engine state. A killed run saves
        // nothing extra (the crash state lives in the WAL), and a
        // recovery run treats the snapshot path as input only.
        if !self.recover && !killed && self.snapshot_at.is_none() {
            if let Some(path) = self.snapshot {
                engine
                    .snapshot()
                    .save(Path::new(path))
                    .map_err(|e| format!("cannot write snapshot {path}: {e}"))?;
            }
        }
        let churn_identity = engine.config().churn.map(|c| c.identity());
        let (workers, batch, duration, seed) = (self.workers, self.batch, self.duration, self.seed);
        let policy_name = &self.policy_name;
        if self.json {
            let mut cfg = Json::object();
            cfg.set("route_shards", route)
                .set("shard_workers", workers)
                .set("batch", batch)
                .set("duration", duration)
                .set("seed", seed)
                .set("grid", self.grid)
                .set("churn", churn_identity)
                .set("shed_limit", self.shed_limit);
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
            let merged_tails = (!response_hist.is_empty()).then(|| {
                let mut q = Json::object();
                q.set("p50", response_hist.quantile_seconds(0.5))
                    .set("p95", response_hist.quantile_seconds(0.95))
                    .set("p99", response_hist.quantile_seconds(0.99))
                    .set("p999", response_hist.quantile_seconds(0.999));
                q
            });
            tot.set("response_quantiles", merged_tails);
            let mut rows = Vec::with_capacity(per_shard.len());
            for (idx, m) in per_shard.iter().enumerate() {
                let measured = m.completions > 0;
                let (p50, p95, p99) = m.response_quantiles();
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
                    .set("mean_response", measured.then(|| m.mean_response()))
                    .set("sim_time", m.sim_time)
                    .set("response_p50", measured.then_some(p50))
                    .set("response_p95", measured.then_some(p95))
                    .set("response_p99", measured.then_some(p99));
                rows.push(r);
            }
            let mut doc = Json::object();
            doc.set("schema", "eirs-serve/v1")
                .set("params", flags::params_json(p))
                .set("policy", policy_name.as_str())
                .set("workload", self.workload.name.clone())
                .set("config", cfg)
                .set("table", tbl)
                .set("totals", tot)
                .set("decision_digest", digest)
                .set("killed", killed)
                .set("recovered", self.recover)
                .set("replayed", replayed)
                .set("generation", engine.generation() as u64)
                .set("swaps", swap_rows(engine.swap_log()))
                .set("shards", rows);
            print!("{}", doc.pretty());
            return Ok(());
        }
        println!(
            "serve: policy={policy_name} workload={} (k={} rho={:.3} per shard)",
            self.workload.name,
            p.k,
            p.load()
        );
        println!(
            "       route_shards={route} workers={workers} batch={batch} duration={duration} seed={seed}"
        );
        if let Some(id) = &churn_identity {
            let shed = self
                .shed_limit
                .map_or(String::new(), |s| format!(" shed_limit={s}"));
            println!("churn: {id}{shed}");
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
        println!(
            "shard  arrivals  completions  decisions  degraded  rejected  peak(i,j)  mean T    now"
        );
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
}
