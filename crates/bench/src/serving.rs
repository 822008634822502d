//! The serving fixture the serve-engine benches share: one policy, its
//! compiled table, one prerecorded Poisson stream and one replay, so
//! `serve_throughput`'s single-worker rate and `obs_overhead`'s
//! telemetry-off decision cost describe the same work.

use eirs_core::SystemParams;
use eirs_queueing::Exponential;
use eirs_serve::{CompiledTable, EngineConfig, ServeEngine};
use eirs_sim::arrivals::{Arrival, ArrivalTrace};
use eirs_sim::policy::{AllocationPolicy, SwitchingCurvePolicy};

/// Servers per route shard.
pub const K: u32 = 4;
/// Route shards of the replayed cluster.
pub const ROUTE_SHARDS: usize = 8;
/// Load of each shard after hash routing.
pub const RHO_PER_SHARD: f64 = 0.7;
/// Side of the compiled table's `(i, j)` grid.
pub const GRID: usize = 64;
/// Simulated horizon of the prerecorded stream (~450k arrivals over
/// [`ROUTE_SHARDS`] shards).
pub const HORIZON: f64 = 20_000.0;

/// The served policy: the switching curve `2 + 0.5i`.
pub fn policy() -> Box<dyn AllocationPolicy> {
    Box::new(SwitchingCurvePolicy {
        intercept: 2,
        slope: 0.5,
    })
}

/// [`policy`] compiled on the [`GRID`] table.
pub fn table() -> CompiledTable {
    CompiledTable::compile(policy(), K, GRID, GRID)
}

/// Prerecords `route_shards` x the single-cluster Poisson stream (seed
/// 7) over `horizon`, so every shard runs at load [`RHO_PER_SHARD`]
/// after hash routing.
pub fn record_stream(route_shards: usize, horizon: f64) -> Vec<Arrival> {
    let p = SystemParams::with_equal_lambdas(K, 1.0, 1.0, RHO_PER_SHARD).expect("stable params");
    let scale = route_shards as f64;
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

/// Builds an engine on [`table`] over [`ROUTE_SHARDS`] shards, ingests
/// `arrivals` in batches of `batch` with `workers` workers, and drains it.
pub fn replay(arrivals: &[Arrival], workers: usize, batch: usize) -> ServeEngine {
    let config = EngineConfig::new(K)
        .route_shards(ROUTE_SHARDS)
        .workers(workers)
        .batch(batch);
    let mut engine = ServeEngine::new(table(), config);
    for chunk in arrivals.chunks(batch) {
        engine.ingest_batch(chunk);
    }
    engine.drain();
    engine
}
