//! PERF — the online serving record: compiled-table decision throughput
//! and latency, single-worker vs sharded, plus the exactness gates.
//!
//! Measures, on the current machine:
//!
//! 1. full replay of a prerecorded Poisson stream through the sharded
//!    engine, single worker vs all-core workers — events/sec and
//!    decisions/sec, with the sharded digest asserted **bit-identical**
//!    to the single-worker digest; then 1 vs 2 workers at batches of 64,
//!    256 and 1,024, every run's digest asserted equal;
//! 2. amortized per-decision latency percentiles (p50/p99 over
//!    1024-event batch means — see the inline note on why decisions are
//!    not timed individually);
//! 3. compiled-table lookups vs direct policy dispatch on the same
//!    state sequence;
//! 4. the DES exactness gate: the compiled-table server replaying a
//!    recorded trace reproduces the simulator's allocation sequence
//!    exactly (asserted, recorded as a boolean);
//! 5. the networked front end over loopback TCP: concurrent-client
//!    round-trip throughput, request-latency tails (p50/p95/p99), and
//!    the wall-clock pause of a mid-stream atomic policy hot-swap.
//!
//! Every comparison runs its arms in interleaved rounds
//! (`eirs_bench::harness`), and every speedup is the median and quartiles
//! of the per-round ratios. Results print as text and are written to
//! `BENCH_serve.json` at the workspace root. Under `EIRS_BENCH_SMOKE=1`
//! (CI) each comparison runs one round, every gate still asserts, and
//! the artifact is not written.
//!
//! Run: `cargo bench -p eirs-bench --bench serve_throughput`

use eirs_bench::harness::{arm, pretty_seconds, rounds};
use eirs_bench::section;
use eirs_bench::serving::{
    policy, record_stream, replay, table, GRID, HORIZON, K, RHO_PER_SHARD, ROUTE_SHARDS,
};
use eirs_core::SystemParams;
use eirs_obs::{Json, LatencyHistogram};
use eirs_queueing::Exponential;
use eirs_serve::engine::digest_decisions;
use eirs_serve::replay::des_decision_log;
use eirs_serve::{CompiledTable, EngineConfig, ServeEngine};
use eirs_sim::arrivals::{Arrival, ArrivalTrace};
use eirs_sim::policy::{AllocationPolicy, TablePolicy};
use std::hint::black_box;

/// Batch sizes of the worker-scaling rows: small, mid, and the engine
/// default (1,024), which is also the networked engine loop's batch
/// under `serve --listen`.
const SCALING_BATCHES: [usize; 3] = [64, 256, 1024];
/// Timed rounds per comparison in a full run.
const ROUNDS: usize = 9;

fn main() -> Result<(), String> {
    let n = if eirs_bench::smoke() { 1 } else { ROUNDS };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(1, ROUTE_SHARDS);
    let mut report = Json::object();
    report.set("schema", "eirs-bench-serve/v2");
    report.set("hardware", eirs_bench::json::run_metadata());

    // ---- 1. Full-replay throughput: single worker vs sharded ----------
    section(&format!(
        "serve replay (k = {K}, {ROUTE_SHARDS} route shards, rho {RHO_PER_SHARD} per shard)"
    ));
    let arrivals = record_stream(ROUTE_SHARDS, HORIZON);
    println!(
        "  prerecorded stream: {} arrivals over {HORIZON} time units",
        arrivals.len()
    );

    let reference = replay(&arrivals, 1, 4096);
    let totals = reference.metrics_total();
    // Every timed run below checks its digests against the reference:
    // reading them is a fold over the shards, noise beside a replay.
    let replay_checked = |workers: usize, batch: usize| {
        let engine = replay(&arrivals, workers, batch);
        assert!(
            engine.decision_digest() == reference.decision_digest()
                && engine.shard_digests() == reference.shard_digests(),
            "{workers}-worker replay at batch {batch} diverged from the single-worker replay"
        );
        engine
    };
    let m = rounds(
        n,
        vec![
            arm("replay_single_worker", || replay_checked(1, 4096)),
            arm(format!("replay_sharded_t{workers}"), || {
                replay_checked(workers, 4096)
            }),
        ],
    );
    println!("  sharded replay bit-identical to single-worker: true");
    let (single, multi) = (m.timing(0), m.timing(1));
    let sharded_speedup = m.ratio(0, 1);
    let decisions = totals.decisions as f64;
    let events = totals.events() as f64;
    let single_dps = decisions / single.median_s;
    let multi_dps = decisions / multi.median_s;
    println!(
        "  single worker: {:.2}M decisions/sec ({:.2}M events/sec)",
        single_dps / 1e6,
        events / single.median_s / 1e6
    );
    println!(
        "  {workers} workers:     {:.2}M decisions/sec ({:.2}M events/sec), {sharded_speedup}",
        multi_dps / 1e6,
        events / multi.median_s / 1e6,
    );
    let sustained = single_dps.max(multi_dps);
    assert!(
        sustained >= 1e6,
        "engine sustains only {sustained:.0} decisions/sec (target 1M)"
    );

    let mut replay_json = Json::object();
    replay_json
        .set("arrivals", totals.arrivals)
        .set("events", totals.events())
        .set("decisions", totals.decisions)
        .set("route_shards", ROUTE_SHARDS)
        .set("sharded_bit_identical", true)
        .set("single_worker", &single)
        .set("sharded", &multi)
        .set("sharded_workers", workers)
        .set("sharded_speedup", sharded_speedup)
        .set("single_worker_decisions_per_sec", single_dps)
        .set("sharded_decisions_per_sec", multi_dps)
        .set("single_worker_events_per_sec", events / single.median_s)
        .set("sharded_events_per_sec", events / multi.median_s)
        .set("sustains_1m_decisions_per_sec", sustained >= 1e6);
    report.set("replay", replay_json);

    // ---- 1b. One worker vs two by batch size ---------------------------
    // Each run covers the engine's build, every batch and the drop,
    // which joins the pool thread.
    section("worker scaling: 1 vs 2 workers by batch");
    let mut scaling_rows = Vec::new();
    for batch in SCALING_BATCHES {
        let m = rounds(
            n,
            vec![
                arm(format!("batch_{batch}_one_worker"), || {
                    replay_checked(1, batch)
                }),
                arm(format!("batch_{batch}_two_workers"), || {
                    replay_checked(2, batch)
                }),
            ],
        );
        let (one, two) = (m.timing(0), m.timing(1));
        let speedup = m.ratio(0, 1);
        println!(
            "  batch {batch:>5}: 1 worker {:.2}M, 2 workers {:.2}M decisions/sec, {speedup}",
            decisions / one.median_s / 1e6,
            decisions / two.median_s / 1e6,
        );
        let mut row = Json::object();
        row.set("batch", batch)
            .set("one_worker", &one)
            .set("two_workers", &two)
            .set("one_worker_decisions_per_sec", decisions / one.median_s)
            .set("two_worker_decisions_per_sec", decisions / two.median_s)
            .set("two_worker_speedup", speedup)
            .set("digests_equal", true);
        scaling_rows.push(row);
    }
    report.set("worker_scaling", scaling_rows);

    // ---- 2. Per-decision latency over batch ingestion -----------------
    // Timed at batch granularity: each sample is one 1024-event batch's
    // elapsed time divided by the decisions it made, so the percentiles
    // are over batch *means* — a single slow decision inside a batch is
    // averaged away. (Timing every decision individually would put the
    // ~20ns Instant overhead on a ~60ns operation and measure the clock.)
    section("amortized decision latency (percentiles over 1024-event batch means)");
    let config = EngineConfig::new(K).route_shards(ROUTE_SHARDS).batch(1024);
    let mut engine = ServeEngine::new(table(), config);
    let mut batch_means = LatencyHistogram::new();
    let mut last_decisions = 0u64;
    for chunk in arrivals.chunks(1024) {
        let start = std::time::Instant::now();
        engine.ingest_batch(chunk);
        let elapsed = start.elapsed().as_secs_f64();
        let now = engine.metrics_total().decisions;
        if now > last_decisions {
            batch_means.record_seconds(elapsed / (now - last_decisions) as f64);
        }
        last_decisions = now;
    }
    engine.drain();
    let (p50, p99) = (
        batch_means.quantile_seconds(0.50),
        batch_means.quantile_seconds(0.99),
    );
    println!(
        "  amortized per-decision latency: p50 {} / p99 {}  ({} batch means)",
        pretty_seconds(p50),
        pretty_seconds(p99),
        batch_means.count()
    );
    let mut latency = Json::object();
    latency
        .set(
            "definition",
            "percentiles over per-batch mean decision latency (not per-decision tails)",
        )
        .set("batch", 1024u64)
        .set("batches", batch_means.count())
        .set("p50_batch_mean_s", p50)
        .set("p99_batch_mean_s", p99);
    report.set("decision_latency", latency);

    // ---- 3. Compiled lookup vs dispatching into the policy -------------
    // The baseline is what a server without a compiler would do: call the
    // boxed policy through the trait object on every decision. The
    // hash-based class-P family stands in for "a policy that computes".
    section("table lookup vs boxed policy dispatch (hash-based class-P)");
    let states: Vec<(usize, usize)> = (0..40_000)
        .map(|n| ((n * 7) % (GRID + 1), (n * 13) % (GRID + 1)))
        .collect();
    let boxed: Box<dyn AllocationPolicy> = Box::new(TablePolicy::random_class_p(7));
    let compiled = CompiledTable::compile(Box::new(TablePolicy::random_class_p(7)), K, GRID, GRID);
    let m = rounds(
        n,
        vec![
            arm("compiled_lookup_40k_states", || {
                states
                    .iter()
                    .map(|&(i, j)| black_box(compiled.lookup(i, j)).total())
                    .sum::<f64>()
            }),
            arm("boxed_allocate_40k_states", || {
                states
                    .iter()
                    .map(|&(i, j)| black_box(boxed.allocate(i, j, K)).total())
                    .sum::<f64>()
            }),
        ],
    );
    let speedup = m.ratio(1, 0);
    println!("  speedup from compilation: {speedup}");
    let mut lk = Json::object();
    lk.set("states", states.len())
        .set("compiled", &m.timing(0))
        .set("direct", &m.timing(1))
        .set("speedup", speedup);
    report.set("lookup", lk);

    // ---- 4. DES exactness gate -----------------------------------------
    section("DES replay exactness gate");
    let p = SystemParams::with_equal_lambdas(K, 1.0, 1.0, RHO_PER_SHARD).expect("stable params");
    let trace = ArrivalTrace::record_poisson(
        p.lambda_i,
        p.lambda_e,
        Box::new(Exponential::new(p.mu_i)),
        Box::new(Exponential::new(p.mu_e)),
        99,
        500.0,
    );
    let raw = policy();
    let des_log = des_decision_log(raw.as_ref(), K, &trace);
    let cfg = EngineConfig::new(K).route_shards(1).record_decisions(true);
    let mut server = ServeEngine::new(table(), cfg);
    let mut source = trace.stream();
    server.run(&mut source, f64::INFINITY);
    let served = server.decision_log();
    let exact = served.len() == des_log.len()
        && digest_decisions(&served) == digest_decisions(&des_log)
        && served == des_log;
    println!(
        "  compiled-table server reproduces the DES allocation sequence: {exact} \
         ({} decisions)",
        des_log.len()
    );
    assert!(exact, "server decision sequence diverged from the DES");
    let mut gate = Json::object();
    gate.set("trace_arrivals", trace.len())
        .set("decisions", des_log.len())
        .set("des_replay_exact", exact);
    report.set("des_exactness", gate);

    // ---- 5. Networked front end: concurrent clients over loopback ------
    // Round-trip numbers (frame encode, TCP, queue hand-off, batched
    // engine, decision frame back), not engine-only throughput — which is
    // why they sit orders of magnitude under section 1.
    section("networked serving (loopback TCP, concurrent clients, hot-swap pause)");
    let net_arrivals: Vec<Arrival> = arrivals.iter().take(120_000).copied().collect();
    let clients = workers.clamp(1, 4);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net_engine = ServeEngine::new(
        table(),
        EngineConfig::new(K).route_shards(ROUTE_SHARDS).batch(1024),
    );
    let swap_at = net_arrivals.len() as u64 / 2;
    let compile = |spec: &str| -> Result<CompiledTable, String> {
        Ok(CompiledTable::compile(
            eirs_core::policy::parse_policy(spec)?,
            K,
            GRID,
            GRID,
        ))
    };
    let net_start = std::time::Instant::now();
    let (net_report, client_report) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            eirs_net::serve(
                listener,
                net_engine,
                None,
                vec![eirs_net::SwapTrigger {
                    at_seq: swap_at,
                    spec: "threshold:3".into(),
                }],
                eirs_net::NetConfig::default(),
                &compile,
            )
            .expect("networked serve")
        });
        let client = eirs_net::run_client(
            &addr,
            &net_arrivals,
            &eirs_net::ClientConfig {
                clients,
                swap: None,
            },
        )
        .expect("client");
        (server.join().expect("server thread"), client)
    });
    let net_wall = net_start.elapsed().as_secs_f64();
    assert!(
        net_report.accounting_balanced(),
        "exact accounting violated: {net_report:?}"
    );
    assert_eq!(net_report.generation, 1, "hot-swap did not install");
    let rps = client_report.decisions as f64 / net_wall;
    let lat = &client_report.latency;
    println!(
        "  {clients} clients: {} requests in {:.2} s ({:.0}k round-trips/sec)",
        client_report.decisions,
        net_wall,
        rps / 1e3
    );
    println!(
        "  request latency: p50 {} / p95 {} / p99 {}",
        pretty_seconds(lat.quantile_seconds(0.5)),
        pretty_seconds(lat.quantile_seconds(0.95)),
        pretty_seconds(lat.quantile_seconds(0.99)),
    );
    let pause = net_report
        .swap_pause_seconds
        .first()
        .copied()
        .unwrap_or(0.0);
    println!(
        "  hot-swap pause at seq {swap_at}: {}",
        pretty_seconds(pause)
    );
    let mut netj = Json::object();
    netj.set("clients", clients as u64)
        .set("requests", client_report.decisions)
        .set("wall_s", net_wall)
        .set("requests_per_sec", rps)
        .set("latency_p50_s", lat.quantile_seconds(0.5))
        .set("latency_p95_s", lat.quantile_seconds(0.95))
        .set("latency_p99_s", lat.quantile_seconds(0.99))
        .set("swap_pause_s", pause)
        .set("swap_generation", net_report.generation as u64)
        .set("accounting_balanced", net_report.accounting_balanced());
    report.set("networked", netj);

    eirs_bench::json::write_artifact("BENCH_serve.json", report)
}
