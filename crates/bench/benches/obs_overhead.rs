//! PERF — the observability tax: what `eirs_obs` costs when it is off
//! (the shipped default) and when it is on, plus the invariance gates.
//!
//! Measures, on the current machine, over the serving fixture's stream
//! (`eirs_bench::serving`, the one `serve_throughput` replays):
//!
//! 1. serve replay with telemetry off vs on, with the decision digests
//!    asserted **bit-identical** both ways (the observability-invariance
//!    contract);
//! 2. one three-arm measurement in interleaved rounds: the
//!    **disabled-path** probe (one relaxed atomic load per
//!    instrumentation site, in a loop), the telemetry-off replay and the
//!    telemetry-on replay. The serve hot path has one probe per
//!    decision, so the probe-to-replay ratio of each round, per probe
//!    and per decision, is the disabled path's share of a decision: the
//!    "≤ 2% of serve throughput" budget, asserted on its median. The
//!    on/off times price the enabled path per decision;
//! 3. a figure-4 sweep with telemetry on: the exported Chrome trace must
//!    be well-formed JSON carrying the solver's `R`-solve counter, and the
//!    sweep's cells must be bit-identical to the telemetry-off run.
//!
//! Results print as text and are written to `BENCH_obs.json` at the
//! workspace root. Under `EIRS_BENCH_SMOKE=1` (CI) the measurement runs
//! one round of a shorter probe loop, every invariance gate still runs
//! (the 2% budget is asserted in full runs only), and the artifact is
//! not written.
//!
//! Run: `cargo bench -p eirs-bench --bench obs_overhead`

use eirs_bench::harness::{arm, pretty_seconds, rounds};
use eirs_bench::section;
use eirs_bench::serving::{record_stream, replay, HORIZON, K, ROUTE_SHARDS};
use eirs_core::experiments::{figure4_heatmap_with_threads, HeatMapCell};
use eirs_obs::Json;
use std::hint::black_box;

/// Timed rounds in a full run.
const ROUNDS: usize = 21;
/// Replay batch: the one of `serve_throughput`'s single-worker replay.
const BATCH: usize = 4096;
/// Load of the traced figure-4 sweep.
const SWEEP_RHO: f64 = 0.7;

/// Compares two heat maps bit for bit (both float fields of every cell).
fn cells_identical(a: &[HeatMapCell], b: &[HeatMapCell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.mu_i.to_bits() == y.mu_i.to_bits()
                && x.mu_e.to_bits() == y.mu_e.to_bits()
                && x.comparison.mrt_if.to_bits() == y.comparison.mrt_if.to_bits()
                && x.comparison.mrt_ef.to_bits() == y.comparison.mrt_ef.to_bits()
                && x.comparison.winner == y.comparison.winner
        })
}

fn main() -> Result<(), String> {
    eirs_obs::set_enabled(false);
    eirs_obs::reset();
    let smoke = eirs_bench::smoke();
    let mut report = Json::object();
    report.set("schema", "eirs-bench-obs/v3");
    report.set("hardware", eirs_bench::json::run_metadata());

    // ---- 1. Serve replay: telemetry off vs on --------------------------
    section("serve replay, telemetry off vs on (digests must agree)");
    let arrivals = record_stream(ROUTE_SHARDS, HORIZON);
    println!("  prerecorded stream: {} arrivals", arrivals.len());
    let off_engine = replay(&arrivals, 1, BATCH);
    eirs_obs::set_enabled(true);
    let on_engine = replay(&arrivals, 1, BATCH);
    eirs_obs::set_enabled(false);
    let digests_equal = on_engine.decision_digest() == off_engine.decision_digest()
        && on_engine.shard_digests() == off_engine.shard_digests();
    println!("  decision digests identical with telemetry on: {digests_equal}");
    assert!(digests_equal, "telemetry perturbed the decision stream");
    let latency = on_engine.decision_latency();
    assert!(
        latency.count() > 0,
        "enabled run must populate the decision-latency histogram"
    );
    assert_eq!(
        off_engine.decision_latency().count(),
        0,
        "disabled run must not time decisions"
    );
    let decisions = off_engine.metrics_total().decisions as f64;

    // ---- 2. Probe, telemetry-off and telemetry-on replays --------------
    section("disabled-path probe vs serve decisions, telemetry off vs on");
    let probes: u64 = if smoke { 1_000_000 } else { 50_000_000 };
    let m = rounds(
        if smoke { 1 } else { ROUNDS },
        vec![
            arm("enabled_probe", || {
                let mut hits = 0u64;
                for _ in 0..probes {
                    if black_box(eirs_obs::enabled()) {
                        hits += 1;
                    }
                }
                hits
            }),
            arm("replay_obs_off", || replay(&arrivals, 1, BATCH)),
            arm("replay_obs_on", || {
                eirs_obs::set_enabled(true);
                let engine = replay(&arrivals, 1, BATCH);
                eirs_obs::set_enabled(false);
                engine
            }),
        ],
    );
    let (probe, off, on) = (m.timing(0), m.timing(1), m.timing(2));
    let probe_ns = probe.median_s / probes as f64 * 1e9;
    let decision_ns = off.median_s / decisions * 1e9;
    let enabled_cost_ns = (on.median_s - off.median_s) / decisions * 1e9;
    // One probe per decision: probe time per probe over replay time per
    // decision, in percent, round by round.
    let disabled_pct = m.ratio(0, 1).scaled(100.0 * decisions / probes as f64);
    println!("  probe: {probe_ns:.3} ns per enabled() check");
    println!(
        "  off: {:.2}M decisions/sec ({decision_ns:.1} ns/decision)",
        decisions / off.median_s / 1e6
    );
    println!(
        "  on:  {:.2}M decisions/sec ({enabled_cost_ns:+.1} ns/decision enabled cost, \
         p50 recorded latency {})",
        decisions / on.median_s / 1e6,
        pretty_seconds(latency.quantile(0.5).unwrap_or(0) as f64 * 1e-9)
    );
    println!(
        "  disabled-path overhead: {:.3}% of a decision (q1 {:.3}%, q3 {:.3}%; budget 2%)",
        disabled_pct.median, disabled_pct.q1, disabled_pct.q3
    );
    if !smoke {
        assert!(
            disabled_pct.median <= 2.0,
            "disabled-path probe costs {:.2}% of a serve decision",
            disabled_pct.median
        );
    }
    let mut serve_json = Json::object();
    serve_json
        .set("arrivals", arrivals.len())
        .set("decisions", decisions as u64)
        .set("digests_identical_on_vs_off", digests_equal)
        .set("probes_per_run", probes)
        .set("probe", &probe)
        .set("probe_ns", probe_ns)
        .set("decision_ns_obs_off", decision_ns)
        .set("disabled_overhead_pct", disabled_pct)
        .set("disabled_overhead_within_2pct", disabled_pct.median <= 2.0)
        .set("obs_off", &off)
        .set("obs_on", &on)
        .set("obs_off_decisions_per_sec", decisions / off.median_s)
        .set("obs_on_decisions_per_sec", decisions / on.median_s)
        .set("enabled_cost_ns_per_decision", enabled_cost_ns)
        .set("enabled_latency_p50_ns", latency.quantile(0.5).unwrap_or(0))
        .set(
            "enabled_latency_p99_ns",
            latency.quantile(0.99).unwrap_or(0),
        );
    report.set("serve", serve_json);

    // ---- 3. Figure-4 sweep: trace export + bit-identity ----------------
    section("figure-4 sweep: exported trace validates, output is invariant");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = figure4_heatmap_with_threads(K, SWEEP_RHO, threads).expect("analysis succeeds");
    eirs_obs::reset();
    eirs_obs::set_enabled(true);
    let traced = figure4_heatmap_with_threads(K, SWEEP_RHO, threads).expect("analysis succeeds");
    eirs_obs::set_enabled(false);
    let events = eirs_obs::take_events();
    let snap = eirs_obs::snapshot();
    let identical = cells_identical(&reference, &traced);
    println!("  sweep output bit-identical with telemetry on: {identical}");
    assert!(identical, "telemetry perturbed the sweep");

    let trace_json = eirs_obs::export::chrome_trace_json(&events, &snap);
    eirs_obs::export::validate_json(&trace_json)
        .expect("exported Chrome trace must be well-formed JSON");
    let solves = snap.counter("markov.solve.cold");
    assert!(solves > 0, "sweep must count its R solves");
    assert!(
        trace_json.contains("markov.solve.cold"),
        "trace must carry the R-solve counter"
    );
    println!(
        "  trace: {} events, {} bytes, valid JSON; {solves} R solves",
        events.len(),
        trace_json.len()
    );
    let mut sweep_json = Json::object();
    sweep_json
        .set("cells", traced.len())
        .set("output_bit_identical", identical)
        .set("trace_events", events.len())
        .set("trace_bytes", trace_json.len())
        .set("trace_valid_json", true)
        .set("r_solves", solves);
    report.set("figure4_sweep", sweep_json);

    eirs_bench::json::write_artifact("BENCH_obs.json", report)
}
