//! Cross-layer tests of the online serving subsystem (PR 5 tentpole):
//!
//! 1. **Table bit-identity** (property test): a compiled table's decisions
//!    equal direct `AllocationPolicy::allocate` calls bit for bit across
//!    the full compiled grid *and* in the clamp region beyond it, for
//!    every registered policy family (threshold, switching-curve,
//!    water-filling, reserve, tabular) over randomized grid shapes;
//! 2. **DES exactness**: the compiled-table server replaying a recorded
//!    trace reproduces the simulator's allocation sequence exactly, for
//!    every registry policy;
//! 3. **Sharding determinism**: the decision digest is invariant to the
//!    worker count (the `sweep`/`replicate` discipline), and snapshots
//!    restore to bit-identical continuations;
//! 4. **Serving searched policies**: optimizer output — both
//!    `MdpSolution::tabular_policy()` and an `eirs_opt` family decode —
//!    compiles and serves like any hand-written policy.

use eirs_repro::core::policy::registry;
use eirs_repro::mdp::{solve_optimal, MdpConfig};
use eirs_repro::opt::space::TabularFamily;
use eirs_repro::opt::ParamSpace;
use eirs_repro::queueing::Exponential;
use eirs_repro::serve::engine::digest_decisions;
use eirs_repro::serve::{CompiledTable, EngineConfig, ServeEngine};
use eirs_repro::sim::arrivals::ArrivalTrace;
use eirs_repro::sim::policy::{AllocationPolicy, TabularPolicy};
use proptest::prelude::*;

/// Every registered family plus an explicit dense `TabularPolicy` (the
/// MDP-bridge family), boxed for compilation.
fn all_families(k: u32) -> Vec<Box<dyn AllocationPolicy>> {
    let mut policies = registry(k);
    let kf = k as f64;
    policies.push(Box::new(TabularPolicy::from_fn(
        "tabular-mixed",
        k,
        6,
        6,
        move |i, j| {
            let inelastic = (0.5 * i as f64).min(kf);
            (inelastic, if j > 0 { kf - inelastic } else { 0.0 })
        },
    )));
    policies
}

fn poisson_trace(seed: u64, horizon: f64) -> ArrivalTrace {
    ArrivalTrace::record_poisson(
        0.9,
        0.7,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(0.8)),
        seed,
        horizon,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 1: compiled decisions are bit-identical to the policy,
    /// on-grid and in the clamp region, for every family.
    #[test]
    fn compiled_tables_are_bit_identical_to_their_policies(
        k in 1u32..7,
        max_i in 2usize..24,
        max_j in 2usize..24,
    ) {
        for policy in all_families(k) {
            let table = CompiledTable::compile(policy, k, max_i, max_j);
            // The compiled grid, its edges, and a clamp region probing
            // more than twice the grid depth in both coordinates.
            for i in 0..=(2 * max_i + 5) {
                for j in 0..=(2 * max_j + 5) {
                    let served = table.lookup(i, j);
                    let direct = table.source().allocate(i, j, k);
                    prop_assert_eq!(
                        served.inelastic.to_bits(),
                        direct.inelastic.to_bits(),
                        "{}: inelastic at ({},{}) grid {}x{}",
                        table.source().name(), i, j, max_i, max_j
                    );
                    prop_assert_eq!(
                        served.elastic.to_bits(),
                        direct.elastic.to_bits(),
                        "{}: elastic at ({},{}) grid {}x{}",
                        table.source().name(), i, j, max_i, max_j
                    );
                }
            }
        }
    }
}

/// The compiled-table server replays a DES-generated trace to the exact
/// DES allocation sequence, for every registered family.
#[test]
fn single_shard_server_reproduces_des_decisions_for_every_family() {
    let k = 3;
    let trace = poisson_trace(17, 60.0);
    for policy in all_families(k) {
        let name = policy.name();
        let reference = eirs_repro::serve::replay::des_decision_log(policy.as_ref(), k, &trace);
        let table = CompiledTable::compile(policy, k, 32, 32);
        let config = EngineConfig::new(k).route_shards(1).record_decisions(true);
        let mut engine = ServeEngine::new(table, config);
        let mut source = trace.stream();
        engine.run(&mut source, f64::INFINITY);
        let served = engine.decision_log();
        assert_eq!(served.len(), reference.len(), "{name}: decision count");
        for (n, (a, b)) in served.iter().zip(&reference).enumerate() {
            assert_eq!((a.i, a.j), (b.i, b.j), "{name}: state at decision {n}");
            assert_eq!(
                a.allocation.inelastic.to_bits(),
                b.allocation.inelastic.to_bits(),
                "{name}: pi_I at decision {n}"
            );
            assert_eq!(
                a.allocation.elastic.to_bits(),
                b.allocation.elastic.to_bits(),
                "{name}: pi_E at decision {n}"
            );
        }
        assert_eq!(
            digest_decisions(&served),
            digest_decisions(&reference),
            "{name}"
        );
    }
}

/// Worker parallelism never changes what is served: same digests, same
/// metrics, shard by shard (the sweep/replicate determinism discipline).
#[test]
fn sharded_processing_is_bit_identical_to_serial() {
    let trace = poisson_trace(23, 150.0);
    let run_with = |workers: usize| {
        let table = CompiledTable::compile(Box::new(eirs_repro::sim::policy::FairShare), 2, 24, 24);
        let config = EngineConfig::new(2)
            .route_shards(8)
            .workers(workers)
            .batch(64);
        let mut engine = ServeEngine::new(table, config);
        let mut source = trace.stream();
        engine.run(&mut source, f64::INFINITY);
        (
            engine.decision_digest(),
            engine.shard_digests(),
            engine.metrics_per_shard(),
        )
    };
    let serial = run_with(1);
    for workers in [2, 4, 8] {
        let parallel = run_with(workers);
        assert_eq!(parallel.0, serial.0, "{workers} workers: combined digest");
        assert_eq!(parallel.1, serial.1, "{workers} workers: shard digests");
        assert_eq!(parallel.2, serial.2, "{workers} workers: shard metrics");
    }
}

/// A snapshot taken mid-stream restores into an engine whose
/// continuation is bit-identical — including through the record format.
#[test]
fn snapshot_restores_to_a_bit_identical_continuation() {
    let trace = poisson_trace(31, 200.0);
    let table =
        || CompiledTable::compile(Box::new(eirs_repro::sim::policy::InelasticFirst), 2, 24, 24);
    let config = EngineConfig::new(2).route_shards(4).batch(32);
    let mut original = ServeEngine::new(table(), config);
    let half = trace.len() / 2;
    original.ingest_batch(&trace.arrivals()[..half]);

    // Round-trip the snapshot through its serialized form.
    let snap = original.snapshot();
    let mut buf = Vec::new();
    snap.to_writer(&mut buf).unwrap();
    let parsed =
        eirs_repro::serve::EngineSnapshot::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
    assert_eq!(parsed, snap);

    let mut restored = ServeEngine::from_snapshot(table(), config, &parsed).unwrap();
    original.ingest_batch(&trace.arrivals()[half..]);
    original.drain();
    restored.ingest_batch(&trace.arrivals()[half..]);
    restored.drain();
    assert_eq!(restored.decision_digest(), original.decision_digest());
    assert_eq!(restored.metrics_total(), original.metrics_total());
}

/// Optimizer output serves online: the MDP-optimal tabular policy and an
/// `eirs_opt` tabular-family decode both compile into tables whose
/// decisions stay bit-identical to the source policy, and both run
/// through the sharded engine.
#[test]
fn searched_policies_compile_and_serve() {
    let k = 2;
    let cfg = MdpConfig {
        k,
        lambda_i: 0.5,
        lambda_e: 0.5,
        mu_i: 0.8,
        mu_e: 1.0,
        max_i: 20,
        max_j: 20,
        allow_idling: false,
    };
    let mdp = solve_optimal(&cfg, 1e-8, 200_000).expect("MDP converges");
    let family = TabularFamily {
        k,
        grid_i: 3,
        grid_j: 3,
    };
    let searched = family.decode(&family.clamp(&family.initial()));
    for policy in [
        Box::new(mdp.tabular_policy()) as Box<dyn AllocationPolicy>,
        searched,
    ] {
        let table = CompiledTable::compile(policy, k, 32, 32);
        for i in 0..48 {
            for j in 0..48 {
                let a = table.lookup(i, j);
                let b = table.source().allocate(i, j, k);
                assert_eq!(a.inelastic.to_bits(), b.inelastic.to_bits());
                assert_eq!(a.elastic.to_bits(), b.elastic.to_bits());
            }
        }
        let mut engine = ServeEngine::new(table, EngineConfig::new(k).route_shards(2));
        let trace = poisson_trace(41, 50.0);
        let mut source = trace.stream();
        let ingested = engine.run(&mut source, f64::INFINITY);
        assert_eq!(ingested, trace.len() as u64);
        let totals = engine.metrics_total();
        assert_eq!(totals.completions, totals.arrivals);
        assert!(totals.decisions >= totals.events());
    }
}
