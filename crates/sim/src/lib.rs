//! Discrete-event simulation of multiserver allocation policies for elastic
//! and inelastic jobs.
//!
//! This crate is the experimental testbed of the reproduction. It implements
//! the model of Berg et al. (SPAA 2020) Section 2 — `k` unit-speed servers,
//! two Poisson job classes, preemptible jobs, fractional server allocations —
//! without baking in any particular policy:
//!
//! * [`policy`] — the [`policy::AllocationPolicy`] trait: a stationary
//!   state-dependent allocation `(i, j) ↦ (π_I, π_E)` exactly as in the
//!   paper, with Inelastic-First, Elastic-First, class-P table policies, and
//!   fair-share baselines.
//! * [`kernel`] — the cluster kernel: the one job-level event loop (FCFS
//!   service, exact event times, capacity churn with preempt-restart,
//!   departures, admission) that tracks every job's remaining work. The
//!   DES, the coupling experiments and the `eirs_serve` shards are
//!   drivers of it that observe it through hooks, so they agree by
//!   construction.
//! * [`des`] — a job-level discrete-event simulator over the kernel,
//!   measuring response times, occupancy and work. Sizes may come from
//!   *any* distribution, which lets the tests exercise the
//!   distribution-free sample-path results (Theorem 3).
//! * [`availability`] — seeded server-fault processes (per-server
//!   crash/repair, scheduled maintenance drains, MMPP-modulated
//!   reclamation bursts) expanded into deterministic capacity-change
//!   schedules that the kernel consumes as first-class events.
//! * [`coupling`] — runs several policies through the kernel against one
//!   frozen arrival trace and records total-work trajectories, the
//!   experimental twin of the paper's coupling argument.
//! * [`ctmc`] — a fast state-level simulator exploiting memorylessness for
//!   mean-value validation of the analytic solver.
//! * [`stats`] — time averages, replication confidence intervals.
//! * [`record`] — the one length-prefixed, checksummed record codec:
//!   binary traces here, and the journal, snapshots and `eirsnp01` wire
//!   frames of the serving stack, all frame through it.
//! * [`trace`] — streaming binary traces on the record codec
//!   (bounded-memory replay, bit-exact with the text format, every cut
//!   or flipped bit refused at open) and a standard-workload-format
//!   importer for real cluster logs.
//!
//! Reproducibility: every stochastic component takes an explicit seed, and
//! all randomness flows through [`rand::rngs::StdRng`].
//!
//! # Example: a deterministic trace through the simulator
//!
//! Freeze three jobs into an [`ArrivalTrace`], drain the system under
//! Inelastic-First on two servers, and read off the hand-computable total
//! response time (the worked example from the `des` module tests):
//!
//! ```
//! use eirs_sim::arrivals::{Arrival, ArrivalTrace};
//! use eirs_sim::des::{DesConfig, Simulation};
//! use eirs_sim::policy::InelasticFirst;
//! use eirs_sim::JobClass;
//!
//! let trace = ArrivalTrace::new(vec![
//!     Arrival { time: 0.0, class: JobClass::Inelastic, size: 2.0 },
//!     Arrival { time: 0.0, class: JobClass::Inelastic, size: 1.0 },
//!     Arrival { time: 0.0, class: JobClass::Elastic, size: 1.0 },
//! ]);
//! let mut stream = trace.stream();
//! let report = Simulation::new(DesConfig::drain(2)).run(&InelasticFirst, &mut stream);
//! // IF: inelastic done at t = 1 and 2; elastic (1 unit on 1 server from
//! // t = 1) done at t = 2. Sum of response times = 1 + 2 + 2 = 5.
//! assert!((report.total_response - 5.0).abs() < 1e-9);
//! assert_eq!(report.completed, [2, 1]);
//! ```

pub mod arrivals;
pub mod availability;
pub mod coupling;
pub mod ctmc;
pub mod des;
pub mod job;
pub mod kernel;
pub mod policy;
pub mod record;
pub mod replicate;
pub mod stats;
pub mod trace;

pub use arrivals::{
    Arrival, ArrivalSource, ArrivalTrace, BurstyStream, MapStream, OwnedTraceStream, PoissonStream,
    TraceError, TraceStream,
};
pub use availability::{CapacityEvent, FaultSchedule, FaultSpec};
pub use coupling::{dominates_throughout, WorkTrajectory};
pub use des::{DesConfig, SimReport, Simulation, StopRule};
pub use job::{Job, JobClass};
pub use policy::{
    AllocationPolicy, ClassAllocation, ElasticFirst, ElasticThresholdPolicy, FairShare,
    InelasticFirst, ReservePolicy, SwitchingCurvePolicy, TablePolicy, TabularPolicy,
    WeightedWaterFilling,
};
pub use replicate::{replication_seeds, run_markovian_replications, run_replications};
pub use stats::{BatchMeans, ConfidenceInterval, ReplicationStats, TimeAverage};
pub use trace::{
    import_swf, load_binary, open_trace_source, save_binary, sniff_binary, BinaryTraceReader,
    BinaryTraceWriter, SwfOptions,
};
