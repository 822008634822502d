//! The chaos harness: one call that proves the three fault-tolerance
//! contracts on a concrete workload.
//!
//! Given a policy, an engine shape, and an arrival trace, [`run_chaos`]
//! executes three runs:
//!
//! 1. **serial** — one worker, full run to drain;
//! 2. **parallel** — several workers over the same routing partition;
//! 3. **kill + recover** — a write-ahead-journaled run snapshotted at
//!    one arrival index and killed (no drain, simulating a crash) at a
//!    later one, then recovered via [`recover`] and resumed on the rest
//!    of the workload.
//!
//! and asserts all three shard-ordered decision digests are equal. Under
//! capacity churn this is the strongest determinism statement the layer
//! makes: worker parallelism, crashing, and restoring are all invisible
//! to the decision stream. The CI chaos gate checks the same triple
//! through the CLI (`eirs serve`) on the bundled smoke trace; the
//! property tests in `tests/fault_tolerance.rs` call this harness.

use crate::engine::{EngineConfig, ServeEngine};
use crate::journal::{recover, run_journaled, Journal, JournalWriter, RunControls};
use crate::metrics::ShardMetrics;
use crate::table::CompiledTable;
use eirs_sim::arrivals::ArrivalTrace;

/// What one chaos run observed. All three digests are asserted equal by
/// [`run_chaos`] before this is returned, so the report is for display
/// and accounting, not verdicts.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Digest of the serial (one-worker) run.
    pub serial_digest: u64,
    /// Digest of the parallel run.
    pub parallel_digest: u64,
    /// Digest of the killed-and-recovered run.
    pub recovered_digest: u64,
    /// Arrival index the snapshot was taken at.
    pub snapshot_at: u64,
    /// Arrival index the journaled run was killed at.
    pub killed_at: u64,
    /// Merged metrics of the serial run (equal to the recovered run's —
    /// also asserted).
    pub metrics: ShardMetrics,
}

/// Runs the serial / parallel / kill-and-recover triple described in the
/// [module docs](self) and asserts digest equality. `make_table` is
/// called once per run (compiled tables are not `Clone` — they own their
/// source policy); `config` carries the shape, churn, and shedding knobs
/// (its `workers` field is overridden per run: 1 for serial, `workers`
/// for parallel). `snapshot_at < kill_after ≤ trace.len()` is required —
/// the harness must actually crash mid-workload to test anything.
///
/// # Panics
///
/// Panics if any digest or metrics total differs — that is the point.
pub fn run_chaos(
    make_table: &dyn Fn() -> CompiledTable,
    config: EngineConfig,
    trace: &ArrivalTrace,
    snapshot_at: u64,
    kill_after: u64,
) -> ChaosReport {
    assert!(
        snapshot_at < kill_after && kill_after <= trace.len() as u64,
        "need snapshot_at < kill_after <= {} arrivals, got {snapshot_at} / {kill_after}",
        trace.len()
    );
    let workers = config.workers.max(2);

    // 1. Serial reference.
    let mut serial = ServeEngine::new(make_table(), config.workers(1));
    let mut src = trace.stream();
    serial.run(&mut src, f64::INFINITY);
    let serial_digest = serial.decision_digest();

    // 2. Parallel over the same partition.
    let mut parallel = ServeEngine::new(make_table(), config.workers(workers));
    let mut src = trace.stream();
    parallel.run(&mut src, f64::INFINITY);
    let parallel_digest = parallel.decision_digest();
    assert_eq!(
        parallel_digest, serial_digest,
        "parallel run diverged from serial under churn"
    );

    // 3. Journaled run, snapshotted, killed, recovered, resumed.
    let mut crashed = ServeEngine::new(make_table(), config.workers(1));
    let mut src = trace.stream();
    let mut journal =
        JournalWriter::create(Vec::new(), &crashed).expect("journaling to memory cannot fail");
    let outcome = run_journaled(
        &mut crashed,
        &mut src,
        f64::INFINITY,
        &mut journal,
        RunControls {
            snapshot_at: Some(snapshot_at),
            kill_after: Some(kill_after),
        },
    )
    .expect("journaling to memory cannot fail");
    assert!(outcome.killed, "the controlled run must actually be killed");
    let snap = outcome
        .snapshot
        .expect("snapshot boundary precedes the kill");
    drop(crashed); // the crashed engine's state is dead — only the WAL survives
    let bytes = journal.into_inner().expect("flushing memory cannot fail");
    let journal = Journal::load_prefix(&mut std::io::Cursor::new(bytes))
        .expect("the WAL must parse after a kill");
    let mut recovered = recover(make_table(), config.workers(workers), &snap, &journal)
        .expect("recovery from a clean WAL must succeed");
    let resume_from = recovered.ingested() as usize;
    recovered.ingest_batch(&trace.arrivals()[resume_from..]);
    recovered.drain();
    let recovered_digest = recovered.decision_digest();
    assert_eq!(
        recovered_digest, serial_digest,
        "kill-and-recover run diverged from the unfaulted run"
    );
    assert_eq!(
        recovered.metrics_total(),
        serial.metrics_total(),
        "recovered metrics diverged from the unfaulted run"
    );

    ChaosReport {
        serial_digest,
        parallel_digest,
        recovered_digest,
        snapshot_at,
        killed_at: kill_after,
        metrics: serial.metrics_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ChurnConfig;
    use eirs_queueing::Exponential;
    use eirs_sim::availability::FaultSpec;
    use eirs_sim::policy::{FairShare, InelasticFirst};

    fn trace() -> ArrivalTrace {
        ArrivalTrace::record_poisson(
            1.0,
            0.7,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            13,
            140.0,
        )
    }

    #[test]
    fn chaos_triple_agrees_under_crash_churn_and_shedding() {
        let config = EngineConfig::new(3)
            .route_shards(4)
            .batch(16)
            .workers(4)
            .churn(ChurnConfig {
                spec: FaultSpec::parse("crash:mtbf=30,mttr=6").unwrap(),
                seed: 3,
                horizon: 220.0,
            })
            .shed_limit(6);
        let t = trace();
        let n = t.len() as u64;
        let report = run_chaos(
            &|| CompiledTable::compile(Box::new(FairShare), 3, 24, 24),
            config,
            &t,
            n / 3,
            2 * n / 3,
        );
        assert_eq!(report.serial_digest, report.recovered_digest);
        assert!(
            report.metrics.degraded_decisions > 0,
            "mtbf=30 over a 140-epoch trace must degrade some decisions"
        );
        assert_eq!(
            report.metrics.completions + report.metrics.rejections,
            report.metrics.arrivals,
            "every arrival is either served or accounted as rejected"
        );
    }

    #[test]
    fn chaos_triple_agrees_without_churn_too() {
        let t = trace();
        let report = run_chaos(
            &|| CompiledTable::compile(Box::new(InelasticFirst), 3, 24, 24),
            EngineConfig::new(3).route_shards(2).workers(3),
            &t,
            5,
            (t.len() as u64).min(60),
        );
        assert_eq!(report.parallel_digest, report.serial_digest);
    }
}
