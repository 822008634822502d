//! Contracts of the `eirs_obs` observability layer (PR 9 tentpole):
//!
//! 1. **Histogram algebra** — the log-linear latency histogram's merge is
//!    exact and associative, shard-order invariant, and merging per-shard
//!    histograms equals recording the whole stream into one histogram;
//!    quantiles stay within the bucket-precision bound of a sorted
//!    reference.
//! 2. **Invariance** — turning telemetry on never perturbs an output:
//!    serve decision digests, figure-4 sweep cells, and fuzz verdicts are
//!    bit-identical with the layer enabled and disabled. Telemetry is
//!    write-only by construction; these tests pin the construction.
//!
//! The enable flag is process-global, so every test that toggles it (or
//! reads the collected events) serializes on [`obs_lock`].

use eirs_repro::obs::LatencyHistogram;
use eirs_repro::{core, obs};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the global enable flag / event buffers.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn hist_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Arbitrary latency-like values spanning the histogram's full range:
/// sub-microsecond to minutes in nanoseconds.
fn values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..200_000_000_000, 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Satellite 3a: merge is associative (and the fold is exact, so the
    // comparison is full struct equality — buckets, count, sum, min, max).
    #[test]
    fn histogram_merge_is_associative(a in values(), b in values(), c in values()) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    // Satellite 3b: shard order never matters — any permutation of the
    // per-shard histograms merges to the same aggregate.
    #[test]
    fn histogram_merge_is_shard_order_invariant(
        shards in prop::collection::vec(values(), 1..6),
        seed in 0u64..1000,
    ) {
        let hists: Vec<LatencyHistogram> = shards.iter().map(|s| hist_of(s)).collect();
        let mut forward = LatencyHistogram::new();
        for h in &hists {
            forward.merge(h);
        }
        // A seeded Fisher–Yates shuffle of the merge order.
        let mut order: Vec<usize> = (0..hists.len()).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut shuffled = LatencyHistogram::new();
        for &i in &order {
            shuffled.merge(&hists[i]);
        }
        prop_assert_eq!(forward, shuffled);
    }

    // Satellite 3c: merging shards equals recording the whole stream,
    // and the merged quantiles track a sorted reference within the
    // log-linear bucket precision (2^-5 relative, with slack).
    #[test]
    fn merged_histogram_equals_whole_and_tracks_sorted_reference(
        shards in prop::collection::vec(
            prop::collection::vec(1u64..100_000_000, 1..200),
            1..5,
        ),
        q_idx in 0usize..4,
    ) {
        let mut merged = LatencyHistogram::new();
        for s in &shards {
            merged.merge(&hist_of(s));
        }
        let mut all: Vec<u64> = shards.iter().flatten().copied().collect();
        let whole = hist_of(&all);
        prop_assert_eq!(&merged, &whole, "merged-of-shards must equal whole-stream");

        all.sort_unstable();
        let q = [0.5, 0.9, 0.99, 1.0][q_idx];
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        let exact = all[rank - 1] as f64;
        let est = merged.quantile(q).expect("nonempty") as f64;
        // Bucket midpoints are within 2^-5 ≈ 3.1% of any member value;
        // 5% covers rank rounding at tiny counts.
        let tol = (exact * 0.05).max(2.0);
        prop_assert!(
            (est - exact).abs() <= tol,
            "q{q}: histogram {est} vs sorted reference {exact}"
        );
    }
}

/// Serve: enabling telemetry must not move a single decision bit, and
/// the deterministic per-shard metrics (including the response-time
/// histograms) must be identical too. Only the wall-clock latency
/// histogram — which is not part of the metrics — may differ.
#[test]
fn serve_decisions_and_metrics_are_invariant_under_telemetry() {
    use eirs_repro::queueing::Exponential;
    use eirs_repro::serve::{CompiledTable, EngineConfig, ServeEngine};
    use eirs_repro::sim::arrivals::ArrivalTrace;
    use eirs_repro::sim::policy::FairShare;

    let _guard = obs_lock();
    let trace = ArrivalTrace::record_poisson(
        0.9,
        0.6,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(0.8)),
        23,
        150.0,
    );
    let run = || {
        let table = CompiledTable::compile(Box::new(FairShare), 3, 24, 24);
        let mut engine = ServeEngine::new(table, EngineConfig::new(3).route_shards(4).batch(32));
        let mut source = trace.stream();
        engine.run(&mut source, f64::INFINITY);
        engine
    };
    obs::set_enabled(false);
    let off = run();
    obs::set_enabled(true);
    let on = run();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(on.decision_digest(), off.decision_digest());
    assert_eq!(on.shard_digests(), off.shard_digests());
    assert_eq!(on.metrics_per_shard(), off.metrics_per_shard());
    assert_eq!(
        on.response_histogram(),
        off.response_histogram(),
        "sim-time response histogram is deterministic, not telemetry"
    );
    // The wall-clock histogram is the only on/off difference.
    assert!(on.decision_latency().count() > 0);
    assert_eq!(off.decision_latency().count(), 0);
}

/// Figure-4 sweep: spans and solver counters on, every cell bit
/// equals the telemetry-off run, and the trace actually collected spans.
#[test]
fn figure4_sweep_output_is_invariant_under_telemetry() {
    use core::experiments::figure4_heatmap_with_threads;

    let _guard = obs_lock();
    obs::set_enabled(false);
    let off = figure4_heatmap_with_threads(3, 0.7, 2).expect("grid solves");
    obs::reset();
    obs::set_enabled(true);
    let on = figure4_heatmap_with_threads(3, 0.7, 2).expect("grid solves");
    obs::set_enabled(false);
    let events = obs::take_events();
    let snap = obs::snapshot();
    obs::reset();

    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.comparison.mrt_if.to_bits(), b.comparison.mrt_if.to_bits());
        assert_eq!(a.comparison.mrt_ef.to_bits(), b.comparison.mrt_ef.to_bits());
        assert_eq!(a.comparison.winner, b.comparison.winner);
    }
    assert!(
        events.iter().any(|e| e.name == "figure4.cell"),
        "sweep must emit per-cell spans when enabled"
    );
    assert!(
        snap.counter("markov.solve.cold") > 0,
        "sweep must count its R solves"
    );
    // The exported trace is well-formed JSON end to end.
    obs::export::validate_json(&obs::export::chrome_trace_json(&events, &snap))
        .expect("chrome trace must validate");
}

/// Fuzz: per-cell verdicts (replay token, flags, means — everything the
/// CI would act on) are bit-identical with telemetry on and off.
#[test]
fn fuzz_verdicts_are_invariant_under_telemetry() {
    use core::fuzz::{fuzz_run, FuzzConfig};

    let _guard = obs_lock();
    let cfg = FuzzConfig {
        budget: 6,
        seed: 0x0B5_CAFE,
        shrink: false,
        threads: 2,
        replications: 2,
        departures: 300,
        warmup: 30,
        accounting_arrivals: 50,
        ..FuzzConfig::default()
    };
    obs::set_enabled(false);
    let off = fuzz_run(&cfg, &[]);
    obs::set_enabled(true);
    let on = fuzz_run(&cfg, &[]);
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(on.flagged, off.flagged);
    assert_eq!(on.tractable, off.tractable);
    assert_eq!(on.cells.len(), off.cells.len());
    for (a, b) in on.cells.iter().zip(&off.cells) {
        assert_eq!(a.token, b.token);
        assert_eq!(a.cell.render(), b.cell.render());
        assert_eq!(a.tractable, b.tractable);
        assert_eq!(
            a.analysis_mean.map(f64::to_bits),
            b.analysis_mean.map(f64::to_bits)
        );
        assert_eq!(a.des_mean.to_bits(), b.des_mean.to_bits());
        assert_eq!(a.ci_half_width.to_bits(), b.ci_half_width.to_bits());
        assert_eq!(a.flags.len(), b.flags.len());
    }
}

/// The disabled layer is inert end to end: no events, no counters, and
/// `LatencyHistogram`'s encode/decode (used by serve snapshots) is
/// lossless either way.
#[test]
fn disabled_layer_collects_nothing_and_codecs_round_trip() {
    let _guard = obs_lock();
    obs::set_enabled(false);
    obs::reset();
    {
        let mut s = obs::span("never", "test");
        s.arg("x", 1u64);
    }
    obs::event("never-either", "test");
    assert!(obs::take_events().is_empty());

    let h = hist_of(&[3, 70, 4096, 123_456_789]);
    let restored = LatencyHistogram::decode(&h.encode()).expect("round trip");
    assert_eq!(restored, h);
    assert_eq!(restored.quantile(0.5), h.quantile(0.5));
}
