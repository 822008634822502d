//! Online allocation-decision serving: the deployment surface of the
//! policy layer.
//!
//! Every other substrate in this workspace (analysis, DES, MDP, optimizer)
//! evaluates policies *offline*. A real cluster consumes the same
//! `(i, j) → (π_I, π_E)` map **online**: arrival and completion events
//! stream in, and every event needs an allocation decision *now*. This
//! crate turns any [`AllocationPolicy`] into that service:
//!
//! * [`table::CompiledTable`] — bakes a policy into a dense, cache-friendly
//!   O(1) lookup table over the `(i, j)` occupancy grid, with an explicit
//!   clamp region for overflow states that delegates to the source policy
//!   so decisions stay **bit-identical** to direct `allocate` calls
//!   everywhere (not just on the grid);
//! * [`engine::ServeEngine`] — a sharded cluster engine: the traffic is
//!   hash-routed over [`EngineConfig::route_shards`] independent cluster
//!   shards, each advancing its own occupancy state in the simulator's
//!   own event loop ([`eirs_sim::kernel::Cluster`]), so replaying a
//!   recorded trace through the server reproduces the DES allocation
//!   sequence exactly. `--shards`-style worker parallelism follows the
//!   `sweep`/`replicate` discipline: parallel runs are bit-identical to
//!   serial, and the [decision digest](engine::ServeEngine::decision_digest)
//!   is invariant to the worker count;
//! * an **ops surface** — per-shard [`metrics::ShardMetrics`]
//!   (decision counts, queue depths, allocation histogram, overflow rate),
//!   [`snapshot::EngineSnapshot`] save/restore of live engine state, and
//!   [`replay::RecordingPolicy`] for differential testing against the DES;
//! * a **fault-tolerance layer** — seeded capacity churn
//!   ([`engine::ChurnConfig`]) with graceful degradation (capped lookups,
//!   preempt-restart, bounded admission shedding), a write-ahead decision
//!   [`journal`] composing with snapshots for crash recovery, and the
//!   [`chaos`] harness proving serial, parallel, and kill-and-recover
//!   runs produce the same decision digest. The journal and snapshots
//!   frame through [`eirs_sim::record`], the workspace's one checksummed
//!   record codec, as do binary traces and the `eirsnp01` wire protocol.
//!
//! The `eirs serve` CLI subcommand and the `serve_throughput` bench
//! (`BENCH_serve.json`) are thin wrappers over these types.
//!
//! # Example
//!
//! Serve Inelastic-First decisions for a short recorded trace:
//!
//! ```
//! use eirs_serve::engine::{EngineConfig, ServeEngine};
//! use eirs_serve::table::CompiledTable;
//! use eirs_sim::policy::InelasticFirst;
//! use eirs_sim::{Arrival, ArrivalTrace, JobClass};
//!
//! let table = CompiledTable::compile(Box::new(InelasticFirst), 4, 32, 32);
//! let mut engine = ServeEngine::new(table, EngineConfig::new(4));
//! let trace = ArrivalTrace::new(vec![
//!     Arrival { time: 0.0, class: JobClass::Inelastic, size: 1.0 },
//!     Arrival { time: 0.5, class: JobClass::Elastic, size: 2.0 },
//! ]);
//! let mut source = trace.stream();
//! engine.run(&mut source, f64::INFINITY);
//! let totals = engine.metrics_total();
//! assert_eq!(totals.arrivals, 2);
//! assert_eq!(totals.completions, 2);
//! assert!(engine.decision_digest() != 0);
//! ```

pub mod chaos;
pub mod engine;
pub mod journal;
pub mod metrics;
pub mod replay;
pub mod snapshot;
pub mod table;

pub use chaos::{run_chaos, ChaosReport};
pub use eirs_sim::policy::AllocationPolicy;
pub use engine::{
    route_for, Admission, ChurnConfig, Decision, EngineConfig, ServeEngine, SwapRecord,
};
pub use journal::{
    feed, recover, recover_with, replay_journal, run_journaled, Journal, JournalWriter,
    RunControls, RunOutcome,
};
pub use metrics::ShardMetrics;
pub use replay::RecordingPolicy;
pub use snapshot::EngineSnapshot;
pub use table::CompiledTable;
