//! PERF — the observability tax: what `eirs_obs` costs when it is off
//! (the shipped default) and when it is on, plus the invariance gates.
//!
//! Measures, on the current machine:
//!
//! 1. the **disabled-path** probe: one relaxed atomic load per
//!    instrumentation site, timed directly and expressed as a share of
//!    a serve decision — the "≤ 2% of serve throughput" budget;
//! 2. serve replay throughput with telemetry off vs on, with the
//!    decision digests asserted **bit-identical** both ways (the
//!    observability-invariance contract), and the enabled-path cost
//!    per decision;
//! 3. a figure-4 sweep with telemetry on: the exported Chrome trace must
//!    be well-formed JSON carrying the solver's `R`-solve counter, and the
//!    sweep's cells must be bit-identical to the telemetry-off run.
//!
//! Results print as text and are written to `BENCH_obs.json` at the
//! workspace root. Set `EIRS_BENCH_SMOKE=1` for a tiny smoke pass (CI):
//! every gate still runs, the artifact is not rewritten.
//!
//! Run: `cargo bench -p eirs-bench --bench obs_overhead`

use eirs_bench::harness::{pretty_seconds, Bench};
use eirs_bench::section;
use eirs_core::experiments::{figure4_heatmap_with_threads, HeatMapCell};
use eirs_core::SystemParams;
use eirs_obs::Json;
use eirs_queueing::Exponential;
use eirs_serve::{CompiledTable, EngineConfig, ServeEngine};
use eirs_sim::arrivals::{Arrival, ArrivalTrace};
use eirs_sim::policy::{AllocationPolicy, SwitchingCurvePolicy};
use std::hint::black_box;

const K: u32 = 4;
const ROUTE_SHARDS: usize = 8;
const RHO: f64 = 0.7;

fn smoke() -> bool {
    std::env::var_os("EIRS_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

fn policy() -> Box<dyn AllocationPolicy> {
    Box::new(SwitchingCurvePolicy {
        intercept: 2,
        slope: 0.5,
    })
}

fn record_stream(horizon: f64) -> Vec<Arrival> {
    let p = SystemParams::with_equal_lambdas(K, 1.0, 1.0, RHO).expect("stable params");
    let scale = ROUTE_SHARDS as f64;
    let mut stream = eirs_sim::PoissonStream::new(
        p.lambda_i * scale,
        p.lambda_e * scale,
        Box::new(Exponential::new(p.mu_i)),
        Box::new(Exponential::new(p.mu_e)),
        7,
    );
    ArrivalTrace::record(&mut stream, horizon)
        .arrivals()
        .to_vec()
}

fn replay(arrivals: &[Arrival]) -> ServeEngine {
    let config = EngineConfig::new(K).route_shards(ROUTE_SHARDS).batch(4096);
    let mut engine = ServeEngine::new(CompiledTable::compile(policy(), K, 64, 64), config);
    for chunk in arrivals.chunks(4096) {
        engine.ingest_batch(chunk);
    }
    engine.drain();
    engine
}

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

fn main() {
    eirs_obs::set_enabled(false);
    eirs_obs::reset();
    let smoke = smoke();
    let mut report = Json::object();
    report.set("schema", "eirs-bench-obs/v2");
    report.set("hardware", eirs_bench::json::run_metadata());

    // ---- 1. The disabled-path probe -----------------------------------
    // Every instrumentation site compiles down to one relaxed load of
    // the global enable flag when telemetry is off. Time that probe
    // directly, then express it against the measured per-decision time:
    // the serve hot path has exactly one probe per decision.
    section("disabled-path probe cost (one relaxed load per site)");
    let mut bench = Bench::with_samples(if smoke { 2 } else { 5 });
    let probes: u64 = if smoke { 1_000_000 } else { 50_000_000 };
    let probe = bench
        .time("enabled_probe", 1, || {
            let mut hits = 0u64;
            for _ in 0..probes {
                if black_box(eirs_obs::enabled()) {
                    hits += 1;
                }
            }
            hits
        })
        .clone();
    let probe_ns = probe.median_s / probes as f64 * 1e9;
    println!("  probe: {probe_ns:.3} ns per enabled() check");

    // ---- 2. Serve replay: telemetry off vs on --------------------------
    section("serve replay, telemetry off vs on (digests must agree)");
    let arrivals = record_stream(if smoke { 400.0 } else { 8_000.0 });
    println!("  prerecorded stream: {} arrivals", arrivals.len());
    let off_engine = replay(&arrivals);
    eirs_obs::set_enabled(true);
    let on_engine = replay(&arrivals);
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
    let off = bench
        .time("replay_obs_off", 1, || replay(&arrivals))
        .clone();
    eirs_obs::set_enabled(true);
    let on = bench.time("replay_obs_on", 1, || replay(&arrivals)).clone();
    eirs_obs::set_enabled(false);
    let off_dps = decisions / off.median_s;
    let on_dps = decisions / on.median_s;
    let decision_ns = off.median_s / decisions * 1e9;
    let enabled_cost_ns = (on.median_s - off.median_s) / decisions * 1e9;
    // One probe per decision: the disabled-path tax on serve throughput.
    let disabled_overhead_pct = 100.0 * probe_ns / decision_ns;
    println!(
        "  off: {:.2}M decisions/sec ({decision_ns:.1} ns/decision)",
        off_dps / 1e6
    );
    println!(
        "  on:  {:.2}M decisions/sec ({enabled_cost_ns:+.1} ns/decision enabled cost, \
         p50 recorded latency {})",
        on_dps / 1e6,
        pretty_seconds(latency.quantile(0.5).unwrap_or(0) as f64 * 1e-9)
    );
    println!("  disabled-path overhead: {disabled_overhead_pct:.3}% of a decision (budget 2%)");
    if !smoke {
        assert!(
            disabled_overhead_pct <= 2.0,
            "disabled-path probe costs {disabled_overhead_pct:.2}% of a serve decision"
        );
    }
    let mut serve_json = Json::object();
    serve_json
        .set("arrivals", arrivals.len())
        .set("decisions", decisions as u64)
        .set("digests_identical_on_vs_off", digests_equal)
        .set("probe_ns", probe_ns)
        .set("decision_ns_obs_off", decision_ns)
        .set("disabled_overhead_pct", disabled_overhead_pct)
        .set(
            "disabled_overhead_within_2pct",
            disabled_overhead_pct <= 2.0,
        )
        .set("obs_off", &off)
        .set("obs_on", &on)
        .set("obs_off_decisions_per_sec", off_dps)
        .set("obs_on_decisions_per_sec", on_dps)
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
    let reference = figure4_heatmap_with_threads(K, RHO, threads).expect("analysis succeeds");
    eirs_obs::reset();
    eirs_obs::set_enabled(true);
    let traced = figure4_heatmap_with_threads(K, RHO, threads).expect("analysis succeeds");
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

    if smoke {
        section("EIRS_BENCH_SMOKE: tiny smoke pass, artifact will not be rewritten");
        return;
    }
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(out_path, report.pretty()).expect("write BENCH_obs.json");
    println!("\nwrote {out_path}");
}
