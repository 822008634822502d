//! FAULTS — the fault-tolerance record: graceful degradation under
//! capacity loss and crash-recovery replay cost.
//!
//! Measures, on the current machine:
//!
//! 1. the **degradation curve**: the same offered stream served under
//!    maintenance-drain schedules taking 0, 1, … k−1 servers out per
//!    cycle — mean response time, shed (rejection) rate, and the share
//!    of degraded decisions as a function of the capacity lost, with
//!    the digest asserted worker-count invariant at every point;
//! 2. **crash-recovery replay**: a journaled run snapshotted at ⅓ and
//!    killed at ⅔ of the workload, then recovered from snapshot +
//!    write-ahead journal — recovery wall time vs replaying the whole
//!    stream from scratch, with the recovered digest asserted equal to
//!    the uninterrupted run's.
//!
//! The recovery comparison runs its two arms in interleaved rounds
//! (`eirs_bench::harness`); its speedup is the median and quartiles of
//! the per-round ratios. Results print as text and are written to
//! `BENCH_faults.json` at the workspace root. Under `EIRS_BENCH_SMOKE=1`
//! (CI) the comparison runs one round, every gate still asserts, and the
//! artifact is not written.
//!
//! Run: `cargo bench -p eirs-bench --bench fault_tolerance`

use eirs_bench::harness::{arm, pretty_seconds, rounds};
use eirs_bench::section;
use eirs_bench::serving::{policy, record_stream, K, RHO_PER_SHARD};
use eirs_obs::Json;
use eirs_serve::{
    recover, run_journaled, ChurnConfig, CompiledTable, EngineConfig, Journal, JournalWriter,
    RunControls, ServeEngine,
};
use eirs_sim::arrivals::{Arrival, ArrivalTrace};
use eirs_sim::availability::FaultSpec;

const ROUTE_SHARDS: usize = 4;
const GRID: usize = 48;
/// Simulated horizon of the prerecorded stream.
const HORIZON: f64 = 4_000.0;
/// Fault schedules are generated past the stream so late drains count.
const FAULT_HORIZON: f64 = 5_000.0;
/// Timed rounds of the recovery comparison in a full run.
const ROUNDS: usize = 9;

fn table() -> CompiledTable {
    CompiledTable::compile(policy(), K, GRID, GRID)
}

fn engine_config(churn: Option<ChurnConfig>) -> EngineConfig {
    let mut config = EngineConfig::new(K).route_shards(ROUTE_SHARDS).batch(1024);
    if let Some(c) = churn {
        // Tight enough that deep drains actually shed load; the curve
        // should show the admission controller working, not just queues.
        config = config.churn(c).shed_limit(16);
    }
    config
}

fn replay(arrivals: &[Arrival], config: EngineConfig) -> ServeEngine {
    let mut engine = ServeEngine::new(table(), config);
    engine.ingest_batch(arrivals);
    engine.drain();
    engine
}

fn main() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(2, ROUTE_SHARDS);
    let mut report = Json::object();
    report.set("schema", "eirs-bench-faults/v2");
    report.set("hardware", eirs_bench::json::run_metadata());

    let arrivals = record_stream(ROUTE_SHARDS, HORIZON);

    // ---- 1. Degradation curve over capacity loss ----------------------
    section(&format!(
        "degradation curve (k = {K}, {ROUTE_SHARDS} route shards, rho {RHO_PER_SHARD} per shard, \
         drain period 50 / down 10)"
    ));
    println!(
        "  prerecorded stream: {} arrivals over {HORIZON} time units",
        arrivals.len()
    );
    let baseline = replay(&arrivals, engine_config(None));
    let base_t = baseline.metrics_total().mean_response();
    let mut curve = Vec::new();
    for down in 0..K {
        let churn = if down == 0 {
            None
        } else {
            Some(ChurnConfig {
                spec: FaultSpec::parse(&format!("drain:period=50,down=10,servers={down}"))
                    .expect("valid drain spec"),
                seed: 11,
                horizon: FAULT_HORIZON,
            })
        };
        let config = engine_config(churn);
        let engine = replay(&arrivals, config);
        // The curve is only meaningful if degraded operation keeps the
        // determinism contract: workers must not change the digest.
        let parallel = replay(&arrivals, config.workers(workers));
        assert_eq!(
            parallel.decision_digest(),
            engine.decision_digest(),
            "parallel replay diverged at {down} servers down"
        );
        let m = engine.metrics_total();
        let loss = down as f64 / K as f64;
        let shed_rate = m.rejections as f64 / m.arrivals as f64;
        let degraded_share = m.degraded_decisions as f64 / m.decisions as f64;
        let stretch = m.mean_response() / base_t;
        println!(
            "  {down}/{K} servers draining: mean T {:.4} ({stretch:.3}x), shed {:.4}, \
             degraded {:.3}, {} preempt-restarts",
            m.mean_response(),
            shed_rate,
            degraded_share,
            m.preemptions
        );
        assert_eq!(
            m.completions + m.rejections,
            m.arrivals,
            "every arrival is served or accounted as shed at {down} down"
        );
        let mut row = Json::object();
        row.set("servers_down", down as u64)
            .set("capacity_loss", loss)
            .set("mean_response", m.mean_response())
            .set("response_stretch", stretch)
            .set("shed_rate", shed_rate)
            .set("degraded_share", degraded_share)
            .set("preemptions", m.preemptions)
            .set("rejections", m.rejections)
            .set("completions", m.completions)
            .set("worker_invariant", true);
        curve.push(row);
    }
    report.set("degradation_curve", curve);

    // ---- 2. Crash-recovery replay cost --------------------------------
    section("crash recovery (snapshot at 1/3, kill at 2/3, WAL replay)");
    let churn = Some(ChurnConfig {
        spec: FaultSpec::parse("crash:mtbf=120,mttr=15").expect("valid crash spec"),
        seed: 13,
        horizon: FAULT_HORIZON,
    });
    let config = engine_config(churn);
    let reference = replay(&arrivals, config);
    let n = arrivals.len() as u64;
    let (snapshot_at, kill_after) = (n / 3, 2 * n / 3);

    // One journaled, killed run; its WAL + snapshot feed every timed
    // recovery below (recovery is read-only over both).
    let mut crashed = ServeEngine::new(table(), config);
    let trace = ArrivalTrace::new(arrivals.clone());
    let mut source = trace.stream();
    let mut wal = JournalWriter::create(Vec::new(), &crashed).expect("journal to memory");
    let outcome = run_journaled(
        &mut crashed,
        &mut source,
        f64::INFINITY,
        &mut wal,
        RunControls {
            snapshot_at: Some(snapshot_at),
            kill_after: Some(kill_after),
        },
    )
    .expect("journal to memory");
    assert!(outcome.killed, "the controlled run must be killed");
    let snap = outcome.snapshot.expect("snapshot precedes the kill");
    drop(crashed);
    let bytes = wal.into_inner().expect("flush memory journal");
    let journal =
        Journal::load_prefix(&mut std::io::Cursor::new(&bytes)).expect("WAL parses after kill");
    println!(
        "  journal: {} entries ({} bytes); snapshot at {snapshot_at}, killed at {kill_after}",
        journal.entries.len(),
        bytes.len()
    );

    let m = rounds(
        if eirs_bench::smoke() { 1 } else { ROUNDS },
        vec![
            arm("replay_from_scratch", || replay(&arrivals, config)),
            arm("recover_snapshot_plus_wal", || {
                let mut engine =
                    recover(table(), config, &snap, &journal).expect("recovery succeeds");
                let resume = engine.ingested() as usize;
                engine.ingest_batch(&arrivals[resume..]);
                engine.drain();
                engine
            }),
        ],
    );
    let (scratch, recovery) = (m.timing(0), m.timing(1));
    let speedup = m.ratio(0, 1);
    // Correctness of the timed path: recover once more and compare.
    let mut recovered = recover(table(), config, &snap, &journal).expect("recovery succeeds");
    let resume = recovered.ingested() as usize;
    recovered.ingest_batch(&arrivals[resume..]);
    recovered.drain();
    assert_eq!(
        recovered.decision_digest(),
        reference.decision_digest(),
        "recovered digest diverged from the uninterrupted run"
    );
    assert_eq!(recovered.metrics_total(), reference.metrics_total());
    println!(
        "  from scratch: {}   recover + finish: {}  ({speedup})",
        pretty_seconds(scratch.median_s),
        pretty_seconds(recovery.median_s),
    );
    println!("  recovered digest bit-identical to uninterrupted run: true");

    let mut rec = Json::object();
    rec.set("arrivals", n)
        .set("snapshot_at", snapshot_at)
        .set("kill_after", kill_after)
        .set("journal_entries", journal.entries.len())
        .set("journal_bytes", bytes.len())
        .set("replay_from_scratch", &scratch)
        .set("recover_and_finish", &recovery)
        .set("speedup_vs_scratch", speedup)
        .set("recovered_bit_identical", true);
    report.set("recovery", rec);

    eirs_bench::json::write_artifact("BENCH_faults.json", report)
}
