//! Golden values of the cluster event loop, compared bit for bit.
//!
//! The DES (`sim::des`), the Theorem 3 coupling (`sim::coupling`) and the
//! serving shards (`serve::engine`) all run one job-level event loop. The
//! differential tests compare those drivers with each other, so they
//! cannot see a change that moves all of them at once. These tests pin
//! the loop's output on fixed workloads — a plain DES run, a DES run
//! under crash churn, a bursty DES run with hyperexponential elastic
//! sizes under crash churn, two coupled work trajectories, an engine run
//! under churn with admission shedding, and the same engine and a DES
//! decision log on a bursty trace whose arrivals come several at one
//! instant — as `f64::to_bits` values, so any change to float-operation
//! order, tie-breaking, preempt-restart, shedding or the steps taken at
//! an arrival that is already due shows up here. The three DES runs also
//! pin their response-time tails (histogram quantiles), so a change to
//! how departures reach the class histograms shows up too.

use eirs_core::policy::parse_policy;
use eirs_core::scenario::parse_workload;
use eirs_core::SystemParams;
use eirs_queueing::Exponential;
use eirs_serve::engine::digest_decisions;
use eirs_serve::replay::des_decision_log;
use eirs_serve::{ChurnConfig, CompiledTable, EngineConfig, ServeEngine};
use eirs_sim::arrivals::{ArrivalTrace, BurstyStream, PoissonStream};
use eirs_sim::availability::FaultSpec;
use eirs_sim::coupling::WorkTrajectory;
use eirs_sim::des::{self, DesConfig, SimReport, Simulation, StopRule};
use eirs_sim::policy::{ElasticFirst, FairShare, InelasticFirst};

fn exp(rate: f64) -> Box<Exponential> {
    Box::new(Exponential::new(rate))
}

/// The `(P50, P95, P99)` of all jobs, then inelastic, then elastic jobs.
fn tail_bits(r: &SimReport) -> [[u64; 3]; 3] {
    [
        r.tail_response,
        r.tail_response_inelastic,
        r.tail_response_elastic,
    ]
    .map(|(p50, p95, p99)| [p50, p95, p99].map(f64::to_bits))
}

#[test]
fn plain_des_run_is_pinned() {
    let r = des::run_markovian(&InelasticFirst, 4, 1.5, 1.0, 1.0, 0.8, 3, 2_000, 20_000);
    assert_eq!(r.completed, [12024, 7976]);
    assert_eq!(r.total_response.to_bits(), 0x40d737902c028836);
    assert_eq!(r.mean_work.to_bits(), 0x400a7620729aa618);
    assert_eq!(r.mean_work_inelastic.to_bits(), 0x3ff8873084edeaa0);
    assert_eq!(r.utilization.to_bits(), 0x3fe5f419629240d0);
    assert_eq!(r.end_time.to_bits(), 0x40c141950dddfc0c);
    assert_eq!(
        tail_bits(&r),
        [
            [0x3fe86d78ee17391b, 0x400dcbdca6a35c2a, 0x4018f6e94d586fd0],
            [0x3fe75a982f94cbb2, 0x40086d78ee17391b, 0x401285a4d649df58],
            [0x3fea933a6b1c13ee, 0x4013988594cc4cc2, 0x401e554d05e492df],
        ]
    );
}

#[test]
fn des_under_churn_is_pinned() {
    let config = DesConfig {
        k: 4,
        stop: StopRule::SimTime(3_000.0),
        warmup_departures: 0,
    };
    let faults = FaultSpec::parse("crash:mtbf=30,mttr=10")
        .unwrap()
        .schedule(4, 9, 3_000.0);
    let mut source = PoissonStream::new(1.2, 0.8, exp(1.0), exp(1.0), 21);
    let r = Simulation::new(config)
        .with_faults(&faults)
        .run(&FairShare, &mut source);
    assert_eq!(r.completed, [3588, 2441]);
    assert_eq!(r.preemptions, 63);
    assert_eq!(r.total_response.to_bits(), 0x40cdf79a86673706);
    assert_eq!(r.mean_work.to_bits(), 0x4014b3eb67c744f2);
    assert_eq!(r.mean_work_inelastic.to_bits(), 0x400927ead58509e7);
    assert_eq!(r.utilization.to_bits(), 0x3fe010374ba55e6e);
    assert_eq!(
        tail_bits(&r),
        [
            [0x3ff421f5f40d8376, 0x402421f5f40d8376, 0x40310bafd05688e8],
            [0x3ff647b771125e49, 0x4023988594cc4cc2, 0x40310bafd05688e8],
            [0x3feff19e23a836fc, 0x402534d6b28ff0e0, 0x4031fc347708a8a4],
        ]
    );
}

/// The DES behind a curve-family search: bursty arrivals, `hyper:4`
/// elastic sizes and crash churn on k = 4 servers at load 0.6, where a
/// step sees several inelastic jobs queued behind the served ones.
#[test]
fn bursty_des_under_churn_is_pinned() {
    let workload = parse_workload(
        "bursty",
        None,
        Some("hyper:4"),
        Some("crash:mtbf=40,mttr=4"),
    )
    .unwrap();
    let params = SystemParams::with_equal_lambdas(4, 1.0, 1.0, 0.6).unwrap();
    let policy = parse_policy("curve:2+0.5i").unwrap();
    let r = workload
        .simulate(policy.as_ref(), &params, 5, 2_000, 20_000)
        .unwrap();
    assert_eq!(r.completed, [9954, 10046]);
    assert_eq!(r.preemptions, 218);
    assert_eq!(r.total_response.to_bits(), 0x40f3af3cdca2979f);
    assert_eq!(r.mean_work.to_bits(), 0x40252b5703d25f48);
    assert_eq!(r.mean_work_inelastic.to_bits(), 0x40176584f6a936e1);
    assert_eq!(r.utilization.to_bits(), 0x3fe3a9f1a1531a00);
    assert_eq!(r.end_time.to_bits(), 0x40c1e7f28e3f7c71);
    assert_eq!(
        tail_bits(&r),
        [
            [0x4004ab66534eba2b, 0x402a09ca0bdadd39, 0x4034ab66534eba2b],
            [0x4007e4088ed60267, 0x402f682dc4670048, 0x4037e4088ed60267],
            [0x4001fc347708a8a4, 0x4024ab66534eba2b, 0x402f682dc4670048],
        ]
    );
}

/// FNV-1a-style fold of every sample's `[time, total, inelastic]` bits.
fn fold(w: &WorkTrajectory) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in w.samples() {
        for v in [s.time, s.total, s.inelastic] {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn coupled_work_trajectories_are_pinned() {
    let trace = ArrivalTrace::record_poisson(1.0, 0.8, exp(1.0), exp(0.5), 1, 60.0);
    let wif = WorkTrajectory::record(&InelasticFirst, &trace, 4);
    let wef = WorkTrajectory::record(&ElasticFirst, &trace, 4);
    assert_eq!(wif.samples().len(), 334);
    assert_eq!(fold(&wif), 0xa55c28bd479add59);
    assert_eq!(wef.samples().len(), 334);
    assert_eq!(fold(&wef), 0xe6a738ce74252a87);
}

#[test]
fn engine_with_churn_and_shedding_is_pinned() {
    let churn = ChurnConfig {
        spec: FaultSpec::parse("mmpp:r01=0.2,r10=0.3,a0=0.05,a1=0.8,mttr=8").unwrap(),
        seed: 17,
        horizon: 600.0,
    };
    let table = CompiledTable::compile(Box::new(FairShare), 2, 24, 24);
    let config = EngineConfig::new(2)
        .route_shards(6)
        .batch(32)
        .shed_limit(4)
        .churn(churn);
    let mut engine = ServeEngine::new(table, config);
    let trace = ArrivalTrace::record_poisson(0.9, 0.6, exp(1.0), exp(0.8), 29, 150.0);
    engine.run(&mut trace.stream(), f64::INFINITY);
    let m = engine.metrics_total();
    assert_eq!(engine.decision_digest(), 0x4b4f19fca7786244);
    assert_eq!(m.arrivals, 206);
    assert_eq!(m.rejections, 59);
    assert_eq!(m.preemptions, 17);
    assert_eq!(m.decisions, 523);
    assert_eq!(m.total_response.to_bits(), 0x409f5f019f8ee997);
}

/// Bursts at rate 0.3 of geometric size (mean 10/3), half of the jobs
/// inelastic: 150 time units of arrivals that mostly share their epoch
/// with another one.
fn bursty_trace() -> ArrivalTrace {
    let mut source = BurstyStream::new(0.3, 0.7, 0.5, exp(1.0), exp(0.8), 31);
    ArrivalTrace::record(&mut source, 150.0)
}

#[test]
fn engine_on_simultaneous_arrivals_is_pinned() {
    let trace = bursty_trace();
    let mut epochs: Vec<f64> = trace.arrivals().iter().map(|a| a.time).collect();
    epochs.dedup();
    assert_eq!(trace.arrivals().len(), 100);
    assert_eq!(epochs.len(), 35);
    let churn = ChurnConfig {
        spec: FaultSpec::parse("mmpp:r01=0.2,r10=0.3,a0=0.05,a1=0.8,mttr=8").unwrap(),
        seed: 17,
        horizon: 600.0,
    };
    let table = CompiledTable::compile(Box::new(FairShare), 2, 24, 24);
    // Two route shards, so that a burst often puts several arrivals due
    // at one instant on one shard.
    let config = EngineConfig::new(2)
        .route_shards(2)
        .batch(32)
        .shed_limit(4)
        .churn(churn);
    let mut engine = ServeEngine::new(table, config);
    engine.run(&mut trace.stream(), f64::INFINITY);
    let m = engine.metrics_total();
    assert_eq!(engine.decision_digest(), 0x302de2a1c25c5aa0);
    assert_eq!(m.arrivals, 100);
    assert_eq!(m.rejections, 32);
    assert_eq!(m.preemptions, 8);
    assert_eq!(m.decisions, 228);
    assert_eq!(m.total_response.to_bits(), 0x408619897dbfc545);
}

#[test]
fn des_decision_log_on_simultaneous_arrivals_is_pinned() {
    let log = des_decision_log(&InelasticFirst, 2, &bursty_trace());
    assert_eq!(log.len(), 200);
    assert_eq!(digest_decisions(&log), 0x05bb8ca2cbf45a68);
}
