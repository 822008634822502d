//! `engine-replay`: the serving engine in-process, no sockets.
//!
//! One seeded Poisson arrival stream runs through a 2-worker
//! `ServeEngine` under crash churn and degraded-mode admission shedding.
//! Each cycle has three phases:
//!
//! 1. a plain replay, drained (`replay.decisions_per_s`);
//! 2. a journaled replay (`JournalWriter` write-ahead log, an
//!    `EngineSnapshot` at half the stream, a kill at three quarters), the
//!    snapshot saved to disk (`replay.wal_decisions_per_s`);
//! 3. `EngineSnapshot::load` + `Journal::load` + `recover` up to the kill
//!    point (`replay.recover_s`), then the rest of the stream.
//!
//! Cycles repeat until each slice is spent; each figure is the best
//! cycle's ([`util::best_rate`]), read at the reference host speed
//! ([`HostSpeed`]).
//!
//! Gates: completions + rejections = arrivals after each drain, and the
//! killed-recovered-finished digest equals the plain replay's.

use crate::util::{self, gate, median, median_secs, Budget, HostSpeed, PartReport};
use crate::{Part, PartArgs};
use eirs_repro::core::policy::parse_policy;
use eirs_repro::queueing::Exponential;
use eirs_repro::serve::{
    recover, run_journaled, ChurnConfig, CompiledTable, EngineConfig, EngineSnapshot, Journal,
    JournalWriter, RunControls, ServeEngine,
};
use eirs_repro::sim::{Arrival, ArrivalSource, FaultSpec, PoissonStream};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Policy served (the CLI `--policy` grammar).
pub const POLICY: &str = "curve:2+0.5i";
/// Servers per route shard.
pub const K: u32 = 4;
/// Route shards (workload semantics: which shard serves which job).
pub const ROUTE_SHARDS: usize = 8;
/// Shard workers.
pub const WORKERS: usize = 2;
/// Arrivals per ingestion round.
pub const BATCH: usize = 1024;
/// Compiled grid bound in each class.
pub const GRID: usize = 64;
/// Per-class arrival rate: per-shard load 0.7 at unit service rates.
pub const LAMBDA_PER_CLASS: f64 = 0.7 * K as f64 * ROUTE_SHARDS as f64 / 2.0;
/// Capacity churn.
pub const CHURN: &str = "crash:mtbf=40,mttr=4";
/// Degraded-mode admission shedding bound.
pub const SHED_LIMIT: usize = 12;
/// Arrivals per cycle.
pub const ARRIVALS: usize = 100_000;
/// Engine set-ups timed before every cycle; `setup_s` is the median of
/// all of them, spread over the run like the cycles they precede.
const SETUP_REPS_PER_CYCLE: usize = 4;
/// Repetitions of each traced set-up probe.
const PROBE_REPS: usize = 31;

/// A borrowed arrival slice as an [`ArrivalSource`].
struct SliceSource<'a>(std::slice::Iter<'a, Arrival>);

impl ArrivalSource for SliceSource<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.0.next().copied()
    }
}

/// Everything one part run shares across cycles.
struct Setup {
    arrivals: Vec<Arrival>,
    churn: ChurnConfig,
}

impl Setup {
    fn new(seed: u64) -> Result<Self, String> {
        let mut source = PoissonStream::new(
            LAMBDA_PER_CLASS,
            LAMBDA_PER_CLASS,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            seed,
        );
        let arrivals: Vec<Arrival> = (0..ARRIVALS)
            .map(|_| source.next_arrival().expect("Poisson streams never end"))
            .collect();
        let horizon = arrivals.last().map_or(1.0, |a| a.time) + 1.0;
        let churn = ChurnConfig {
            spec: FaultSpec::parse(CHURN)?,
            seed: seed ^ 0x5eed_fa17,
            horizon,
        };
        Ok(Self { arrivals, churn })
    }

    fn table(&self) -> Result<CompiledTable, String> {
        Ok(CompiledTable::compile(parse_policy(POLICY)?, K, GRID, GRID))
    }

    fn config(&self, workers: usize) -> EngineConfig {
        EngineConfig::new(K)
            .route_shards(ROUTE_SHARDS)
            .workers(workers)
            .batch(BATCH)
            .churn(self.churn)
            .shed_limit(SHED_LIMIT)
    }

    fn engine(&self, workers: usize) -> Result<ServeEngine, String> {
        Ok(ServeEngine::new(self.table()?, self.config(workers)))
    }
}

/// Wall times and counts of one plain replay.
struct Plain {
    ingest_s: f64,
    drain_s: f64,
    decisions: u64,
    digest: u64,
    engine: ServeEngine,
}

/// Plain replay of the whole stream, timing ingest and drain separately.
/// `traced` wraps each ingestion round in its own timer, as a per-batch
/// span would.
fn plain_replay(setup: &Setup, workers: usize, traced: bool) -> Result<Plain, String> {
    let mut engine = setup.engine(workers)?;
    let t0 = Instant::now();
    let mut span_ns = 0u128;
    for chunk in setup.arrivals.chunks(BATCH) {
        if traced {
            let s = Instant::now();
            engine.ingest_batch(chunk);
            span_ns += s.elapsed().as_nanos();
        } else {
            engine.ingest_batch(chunk);
        }
    }
    black_box(span_ns);
    let ingest_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    engine.drain();
    let drain_s = t1.elapsed().as_secs_f64();
    let totals = engine.metrics_total();
    gate(
        totals.completions + totals.rejections == setup.arrivals.len() as u64,
        || {
            format!(
                "plain replay: completions {} + rejections {} != arrivals {}",
                totals.completions,
                totals.rejections,
                setup.arrivals.len()
            )
        },
    )?;
    Ok(Plain {
        ingest_s,
        drain_s,
        decisions: totals.decisions,
        digest: engine.decision_digest(),
        engine,
    })
}

/// Timings of one journaled + recovered cycle.
struct Recovery {
    wal_rate: f64,
    recover_s: f64,
    snapshot_save_s: f64,
    snapshot_load_s: f64,
    journal_load_s: f64,
    recover_call_s: f64,
    snapshot_bytes: u64,
}

/// Phases 2 and 3: journaled replay to the kill, then recovery and the
/// rest of the stream. Returns the timings, or the failed call's error.
fn journaled_cycle(
    setup: &Setup,
    args: &PartArgs,
    digest: u64,
    ops: &mut u64,
) -> Result<Recovery, String> {
    let n = setup.arrivals.len() as u64;
    let (snapshot_at, kill_after) = (n / 2, 3 * n / 4);
    let wal = args.tmp.join("replay.wal");
    let snap_path = args.tmp.join("replay.snap");
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    let mut engine = setup.engine(WORKERS)?;
    let file = std::fs::File::create(&wal).map_err(|e| io("create journal", &e))?;
    let t0 = Instant::now();
    *ops += 1;
    let mut writer = JournalWriter::create(std::io::BufWriter::new(file), &engine)
        .map_err(|e| io("journal header", &e))?;
    let outcome = run_journaled(
        &mut engine,
        &mut SliceSource(setup.arrivals.iter()),
        f64::INFINITY,
        &mut writer,
        RunControls {
            snapshot_at: Some(snapshot_at),
            kill_after: Some(kill_after),
        },
    )
    .map_err(|e| io("journaled replay", &e))?;
    writer.into_inner().map_err(|e| io("journal close", &e))?;
    let t_save = Instant::now();
    *ops += 1;
    let snapshot = outcome
        .snapshot
        .ok_or("journaled replay took no snapshot")?;
    snapshot
        .save(&snap_path)
        .map_err(|e| io("snapshot save", &e))?;
    let snapshot_save_s = t_save.elapsed().as_secs_f64();
    let wal_s = t0.elapsed().as_secs_f64();
    gate(outcome.killed && engine.ingested() == kill_after, || {
        format!(
            "journaled replay stopped at {} (killed: {}), expected a kill at {kill_after}",
            engine.ingested(),
            outcome.killed
        )
    })?;
    let wal_rate = engine.metrics_total().decisions as f64 / wal_s;
    drop(engine);

    let table = setup.table()?;
    let t1 = Instant::now();
    *ops += 1;
    let snap = EngineSnapshot::load(&snap_path).map_err(|e| io("snapshot load", &e))?;
    let snapshot_load_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    *ops += 1;
    let journal = Journal::load(&wal).map_err(|e| io("journal load", &e))?;
    let journal_load_s = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    *ops += 1;
    let mut engine =
        recover(table, setup.config(WORKERS), &snap, &journal).map_err(|e| io("recover", &e))?;
    let recover_call_s = t3.elapsed().as_secs_f64();
    let recover_s = t1.elapsed().as_secs_f64();
    drop(journal);
    gate(engine.ingested() == kill_after, || {
        format!(
            "recovered engine resumes at {}, expected {kill_after}",
            engine.ingested()
        )
    })?;
    for chunk in setup.arrivals[kill_after as usize..].chunks(BATCH) {
        engine.ingest_batch(chunk);
    }
    engine.drain();
    let totals = engine.metrics_total();
    gate(totals.completions + totals.rejections == n, || {
        format!(
            "recovered run: completions {} + rejections {} != arrivals {n}",
            totals.completions, totals.rejections
        )
    })?;
    gate(engine.decision_digest() == digest, || {
        format!(
            "killed-recovered-finished digest {:#018x} != plain replay digest {digest:#018x}",
            engine.decision_digest()
        )
    })?;
    Ok(Recovery {
        wal_rate,
        recover_s,
        snapshot_save_s,
        snapshot_load_s,
        journal_load_s,
        recover_call_s,
        snapshot_bytes: util::file_bytes(&snap_path),
    })
}

/// The end-to-end measures of every budgeted cycle.
#[derive(Default)]
struct Cycles {
    setup_s: Vec<f64>,
    decisions_per_s: Vec<f64>,
    wal_decisions_per_s: Vec<f64>,
    recover_s: Vec<f64>,
    recoveries: Vec<Recovery>,
    last_plain: Option<Plain>,
    speed: HostSpeed,
}

/// Runs cycles into `out` until `budget` is spent (at least one).
fn cycles(
    setup: &Setup,
    args: &PartArgs,
    budget: Duration,
    traced: bool,
    report: &mut PartReport,
    out: &mut Cycles,
) -> Result<(), String> {
    let clock = Budget::new(budget);
    let mut ran = false;
    while !ran || !clock.spent() {
        ran = true;
        for _ in 0..SETUP_REPS_PER_CYCLE {
            let t0 = Instant::now();
            black_box(setup.engine(WORKERS)?);
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        report.attempted += 1;
        out.speed.sample();
        let plain = plain_replay(setup, WORKERS, traced)?;
        out.decisions_per_s
            .push(plain.decisions as f64 / (plain.ingest_s + plain.drain_s));
        let mut ops = 0;
        match journaled_cycle(setup, args, plain.digest, &mut ops) {
            Ok(r) => {
                report.attempted += ops;
                out.wal_decisions_per_s.push(r.wal_rate);
                out.recover_s.push(r.recover_s);
                out.recoveries.push(r);
            }
            Err(e) if e.starts_with("correctness gate") => return Err(e),
            Err(e) => {
                eprintln!("engine-replay: {e}");
                report.attempted += ops;
                report.failed += 1;
            }
        }
        out.last_plain = Some(plain);
    }
    Ok(())
}

/// Per-layer probes of the traced run.
fn layer_probes(setup: &Setup, plain: &Plain, report: &mut PartReport) -> Result<(), String> {
    let compile_s = median_secs(PROBE_REPS, || {
        black_box(setup.table().expect("policy spec parsed above"));
    });
    report.set("serve.table.compile_ms", compile_s * 1e3);

    let mut events = 0usize;
    let expand_s = median_secs(PROBE_REPS, || {
        events = (0..ROUTE_SHARDS)
            .map(|s| {
                setup
                    .churn
                    .spec
                    .schedule_for_shard(K, setup.churn.seed, s, setup.churn.horizon)
                    .events()
                    .len()
            })
            .sum();
    });
    report.set("sim.faults.capacity_events", events as f64);
    report.set("sim.faults.expand_ms", expand_s * 1e3);

    // Table lookups over the occupancy states a replay actually visits.
    let prefix = &setup.arrivals[..setup.arrivals.len().min(100_000)];
    let mut recorded = ServeEngine::new(setup.table()?, setup.config(1).record_decisions(true));
    recorded.ingest_batch(prefix);
    let states: Vec<(usize, usize)> = recorded.decision_log().iter().map(|d| (d.i, d.j)).collect();
    drop(recorded);
    let table = setup.table()?;
    let mut lookups = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(50) {
        for &(i, j) in &states {
            black_box(table.lookup(black_box(i), black_box(j)));
        }
        lookups += states.len() as u64;
    }
    let lookup_ns = t0.elapsed().as_nanos() as f64 / lookups as f64;
    report.set("serve.table.lookup_ns", lookup_ns);

    let totals = plain.engine.metrics_total();
    let decisions = totals.decisions as f64;
    report.set(
        "serve.table.overflow_frac",
        totals.overflow_lookups as f64 / decisions,
    );
    report.set(
        "serve.engine.degraded_frac",
        totals.degraded_decisions as f64 / decisions,
    );
    report.set("serve.engine.preemptions", totals.preemptions as f64);
    report.set("serve.engine.rejections", totals.rejections as f64);
    report.set("serve.engine.drain_ms", plain.drain_s * 1e3);

    // One worker against two: ingest cost per decision and scaling.
    let single = plain_replay(setup, 1, false)?;
    gate(single.digest == plain.digest, || {
        "1-worker replay digest differs from the 2-worker digest".into()
    })?;
    let ingest_decisions = single.decisions as f64;
    let ingest_ns = single.ingest_s * 1e9 / ingest_decisions;
    report.set("serve.engine.ingest_ns", ingest_ns);
    report.set("serve.engine.non_lookup_ns", ingest_ns - lookup_ns);
    report.set(
        "serve.engine.worker_speedup",
        (single.ingest_s + single.drain_s) / (plain.ingest_s + plain.drain_s),
    );
    Ok(())
}

/// The part's state across its slices.
pub struct EngineReplay {
    args: PartArgs,
    setup: Setup,
    report: PartReport,
    plain: Cycles,
    traced: Cycles,
}

impl EngineReplay {
    /// Generates the arrival stream and churn schedule from the seed.
    pub fn new(args: PartArgs) -> Result<Self, String> {
        std::fs::create_dir_all(&args.tmp).map_err(|e| format!("{}: {e}", args.tmp.display()))?;
        let setup = Setup::new(args.seed)?;
        Ok(Self {
            args,
            setup,
            report: PartReport::default(),
            plain: Cycles::default(),
            traced: Cycles::default(),
        })
    }
}

impl Part for EngineReplay {
    fn slice(&mut self, budget: Duration) -> Result<(), String> {
        let (setup, args, report) = (&self.setup, &self.args, &mut self.report);
        if args.trace {
            cycles(setup, args, budget / 2, false, report, &mut self.plain)?;
            cycles(setup, args, budget / 2, true, report, &mut self.traced)
        } else {
            cycles(setup, args, budget, false, report, &mut self.plain)
        }
    }

    fn finish(self: Box<Self>) -> Result<PartReport, String> {
        let Self {
            args,
            setup,
            mut report,
            plain,
            traced,
        } = *self;
        if plain.recover_s.is_empty() {
            return Err("no journaled cycle completed".into());
        }
        // Every figure read at the reference host speed (`HostSpeed`).
        let scale = plain.speed.scale();
        // Table compile + fault-schedule expansion + engine build.
        report.set("setup_s", median(&plain.setup_s) / scale);
        let decisions_per_s = util::best_rate(&plain.decisions_per_s) * scale;
        report.set("replay.decisions_per_s", decisions_per_s);
        report.set(
            "replay.wal_decisions_per_s",
            util::best_rate(&plain.wal_decisions_per_s) * scale,
        );
        report.set(
            "replay.recover_s",
            util::best_time(&plain.recover_s) / scale,
        );
        report.set("replay.host_speed", plain.speed.median());
        eprintln!(
            "engine-replay: {} cycles of {ARRIVALS} arrivals, decisions/s min {:.0} median {:.0} \
             max {:.0} (scaled x{scale:.3} to {decisions_per_s:.0})",
            plain.decisions_per_s.len(),
            util::best_time(&plain.decisions_per_s),
            median(&plain.decisions_per_s),
            util::best_rate(&plain.decisions_per_s),
        );

        if args.trace {
            let r = &traced.recoveries;
            if r.is_empty() {
                return Err("no traced journaled cycle completed".into());
            }
            report.set(
                "trace_overhead_frac",
                decisions_per_s / (util::best_rate(&traced.decisions_per_s) * traced.speed.scale())
                    - 1.0,
            );
            let pick = |f: fn(&Recovery) -> f64| median(&r.iter().map(f).collect::<Vec<_>>());
            report.set("serve.journal.load_ms", pick(|r| r.journal_load_s) * 1e3);
            report.set("serve.journal.recover_ms", pick(|r| r.recover_call_s) * 1e3);
            report.set("serve.snapshot.save_ms", pick(|r| r.snapshot_save_s) * 1e3);
            report.set("serve.snapshot.load_ms", pick(|r| r.snapshot_load_s) * 1e3);
            report.set("serve.snapshot.bytes", r[0].snapshot_bytes as f64);
            let last = traced.last_plain.as_ref().expect("at least one cycle ran");
            layer_probes(&setup, last, &mut report)?;
        }
        let ok = report.attempted - report.failed;
        report.set("ok_frac", ok as f64 / report.attempted as f64);
        report.set(
            "peak_rss_mb",
            util::peak_rss_mb(None).ok_or("cannot read VmHWM")?,
        );
        let _ = std::fs::remove_dir_all(&args.tmp);
        Ok(report)
    }
}
