//! # eirs — Elastic/Inelastic Resource Scheduling
//!
//! Workspace façade for the reproduction of Berg, Harchol-Balter, Moseley,
//! Wang & Whitehouse, *"Optimal Resource Allocation for Elastic and
//! Inelastic Jobs"* (SPAA 2020). Re-exports every library crate under one
//! roof so examples and downstream users can depend on a single package:
//!
//! * [`core`] (`eirs-core`) — model parameters, the shared policy layer
//!   (`core::policy`), the policy-generic response-time analysis
//!   (`core::analysis::analyze_policy`), the Theorem 6 counterexample,
//!   experiment parameterizations;
//! * [`sim`] (`eirs-sim`) — allocation policies and the discrete-event /
//!   state-level simulators;
//! * [`markov`] (`eirs-markov`) — CTMC and QBD matrix-analytic solvers;
//! * [`queueing`] (`eirs-queueing`) — M/M/1, M/M/k, phase-type
//!   distributions, Coxian busy-period fitting;
//! * [`mdp`] (`eirs-mdp`) — truncated average-cost MDP (numerical
//!   optimality), bridged into the policy layer via
//!   `MdpSolution::tabular_policy`;
//! * [`opt`] (`eirs-opt`) — derivative-free policy optimization over the
//!   shared families (parameter spaces, analytic/CRN-DES objectives,
//!   golden-section / Nelder–Mead / pattern-search / cross-entropy),
//!   certified against the MDP optimum;
//! * [`serve`] (`eirs-serve`) — the online allocation-decision server:
//!   policies compiled to O(1) lookup tables, a sharded cluster engine
//!   replaying live event streams bit-identically to the DES, per-shard
//!   ops metrics, and snapshot/restore;
//! * [`net`] (`eirs-net`) — the networked serving front end: the
//!   `eirsnp01` framed TCP protocol, one bounded ingest queue in front
//!   of the engine loop, the load-generating client, and atomic
//!   journaled policy hot-swap (observe → re-optimize → redeploy);
//! * [`obs`] (`eirs-obs`) — deterministic, write-only telemetry (metrics,
//!   latency histograms, span traces, exporters) and [`obs::Json`], the
//!   one JSON writer behind every `eirs --json true` document;
//! * [`srpt`] (`eirs-srpt`) — Appendix A batch scheduling and dual fitting;
//! * [`multiclass`] (`eirs-multiclass`) — the Section 6 extension: many
//!   classes with bounded elasticity;
//! * [`numerics`] (`eirs-numerics`) — the dense linear-algebra substrate.
//!
//! The `eirs` binary (`src/bin/eirs/`, one module per command) is a thin
//! wiring layer over these crates. The figure harnesses and the
//! `BENCH_*.json` writers live in `eirs-bench` (`cargo bench -p
//! eirs-bench`); this package does not depend on it.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for paper-vs-measured
//! results of every figure.

pub mod cli;

pub use eirs_core as core;
pub use eirs_markov as markov;
pub use eirs_mdp as mdp;
pub use eirs_multiclass as multiclass;
pub use eirs_net as net;
pub use eirs_numerics as numerics;
pub use eirs_obs as obs;
pub use eirs_opt as opt;
pub use eirs_queueing as queueing;
pub use eirs_serve as serve;
pub use eirs_sim as sim;
pub use eirs_srpt as srpt;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use eirs_core::prelude::*;
    pub use eirs_queueing::{Exponential, MMk, MM1};
    pub use eirs_sim::des::{run_markovian, DesConfig, Simulation, StopRule};
    pub use eirs_sim::{Arrival, ArrivalTrace, JobClass, PoissonStream, WorkTrajectory};
}
