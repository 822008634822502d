//! # eirs-core — Optimal Resource Allocation for Elastic and Inelastic Jobs
//!
//! A faithful, from-scratch implementation of the system studied by
//! Berg, Harchol-Balter, Moseley, Wang & Whitehouse,
//! *"Optimal Resource Allocation for Elastic and Inelastic Jobs"*
//! (SPAA 2020, arXiv:2005.09745).
//!
//! The model: `k` identical unit-speed servers shared by two Poisson job
//! classes with exponentially distributed, unknown sizes. *Elastic* jobs
//! (rate `λ_E`, sizes `Exp(µ_E)`) parallelize linearly across any fractional
//! number of servers; *inelastic* jobs (rate `λ_I`, sizes `Exp(µ_I)`) use at
//! most one server. An allocation policy maps each state `(i, j)` to server
//! shares; the goal is minimal mean response time `E[T]`.
//!
//! What this crate provides:
//!
//! * [`params::SystemParams`] — the five model parameters with load and
//!   stability accounting (`ρ = λ_I/(kµ_I) + λ_E/(kµ_E) < 1`, Appendix C).
//! * [`policy`] — the shared policy layer: the [`AllocationPolicy`]
//!   trait (absorbed from `eirs_sim::policy`), every shipped family, the
//!   registry, and the CLI policy parser. Every substrate — analysis,
//!   simulation, MDP grid — is generic over this one abstraction.
//! * [`analysis`] — the paper's Section 5 / Appendix D response-time
//!   analysis, generalized: [`analysis::analyze_policy`] evaluates *any*
//!   allocation policy (strict-priority policies get the exact
//!   busy-period transformation — Coxian matched to three M/M/1
//!   busy-period moments, solved by matrix-analytic methods; everything
//!   else a truncated-phase QBD built from the allocation map). Accuracy
//!   vs simulation is ~1% or better (validated in the workspace
//!   integration tests and the `validation_table` / `policy_families`
//!   benches).
//! * [`counterexample`] — exact transient analysis behind Theorem 6:
//!   with `µ_I < µ_E`, EF can beat IF (35/12 vs 33/12 when `µ_E = 2µ_I`,
//!   `k = 2`, starting from two inelastic and one elastic job).
//! * [`experiments`] — parameterizations used by every figure of the paper
//!   (`λ_I = λ_E` chosen to pin the load ρ).
//! * [`sweep`] — the deterministic parallel sweep engine the experiment
//!   drivers fan out through (ordered, bit-identical to serial).
//! * [`validation`] — analytic-vs-simulation comparison harness.
//!
//! ## Quick start
//!
//! ```
//! use eirs_core::prelude::*;
//!
//! // k = 4 servers at load 0.5, inelastic jobs 4x smaller than elastic.
//! let params = SystemParams::with_equal_lambdas(4, 2.0, 0.5, 0.5).unwrap();
//! let mrt_if = analysis::analyze_inelastic_first(&params).unwrap();
//! let mrt_ef = analysis::analyze_elastic_first(&params).unwrap();
//! // µ_I ≥ µ_E: Theorem 5 says IF is optimal, so it beats EF.
//! assert!(mrt_if.mean_response < mrt_ef.mean_response);
//! ```

pub mod analysis;
pub mod counterexample;
pub mod experiments;
pub mod fuzz;
pub mod params;
pub mod policy;
pub mod scenario;
pub mod sweep;
pub mod validation;

pub use analysis::{
    analyze_elastic_first, analyze_inelastic_first, analyze_policy, analyze_policy_map,
    analyze_policy_with, AnalysisError, AnalyzeOptions, PolicyAnalysis,
};
pub use counterexample::{expected_total_response_closed, theorem6_values};
pub use fuzz::{CellOracle, CellReport, CellSpec, FuzzConfig, FuzzReport};
pub use params::SystemParams;
pub use policy::AllocationPolicy;
pub use scenario::{ArrivalSpec, ServiceSpec, Tractability, Workload};

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::analysis::{
        self, analyze_elastic_first, analyze_inelastic_first, analyze_policy, analyze_policy_with,
        AnalyzeOptions, PolicyAnalysis,
    };
    pub use crate::counterexample;
    pub use crate::experiments;
    pub use crate::params::SystemParams;
    pub use crate::policy::{
        AllocationPolicy, ClassAllocation, ElasticFirst, ElasticThresholdPolicy, FairShare,
        InelasticFirst, ReservePolicy, SwitchingCurvePolicy, TablePolicy, TabularPolicy,
        WeightedWaterFilling,
    };
    pub use crate::scenario::{self, ArrivalSpec, ServiceSpec, Tractability, Workload};
    pub use crate::validation;
}
