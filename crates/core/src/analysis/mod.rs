//! Policy-generic response-time analysis (paper Section 5 and Appendix D,
//! generalized to arbitrary allocation policies).
//!
//! The entry point is [`analyze_policy`]: hand it **any**
//! [`AllocationPolicy`] — EF, IF, a
//! threshold or switching-curve policy, a fractional water-filling policy,
//! or the MDP-optimal `TabularPolicy` — and it returns the stationary mean
//! response times. One policy-generic pipeline replaces what used to be
//! two hardcoded EF/IF constructions:
//!
//! 1. The policy's allocation map is **probed** and classified
//!    ([`PolicyStructure`]). Strict-priority policies get the paper's
//!    exact chains; everything else gets a truncated-phase QBD built
//!    directly from the allocation map (see [`generator`] for the three
//!    chain shapes and their accuracy contracts).
//! 2. The chain is assembled through [`eirs_markov::qbd::Qbd::from_rate_fns`],
//!    which turns per-`(level, phase)` rate closures — here, allocation
//!    shares times service rates — into QBD blocks.
//! 3. The QBD is solved with matrix-analytic methods and mean response
//!    times follow from the mean level / phase marginals via Little's law.
//!
//! For the two priority policies the pipeline reproduces the paper
//! exactly: the high-priority class is a classical queue in isolation
//! (**EF**: elastic M/M/1 at rate `kµ_E`, Observation 1; **IF**: inelastic
//! M/M/k, Appendix D), and the low-priority class's 2D-infinite chain is
//! collapsed to a 1D-infinite QBD by the **busy-period transformation**:
//! the region where the low-priority class receives no service is replaced
//! by phase states whose sojourn is a two-phase Coxian matched to the
//! first three moments of the relevant M/M/1 busy period (Observations
//! 2–3; the Coxian fit lives in [`eirs_queueing::coxian`]). The
//! transformation is an approximation only in the busy-period shape; the
//! paper reports <1% error against simulation, which the workspace
//! integration tests reproduce. [`analyze_elastic_first`] and
//! [`analyze_inelastic_first`] are thin wrappers over [`analyze_policy`]
//! and are **bit-identical** to the pre-refactor hardcoded
//! implementations (asserted by the workspace differential tests against
//! `analysis::reference`).
//!
//! For general policies the truncated-phase chain trades the busy-period
//! trick for an explicit elastic-phase cap (the same kind of truncation
//! the MDP grid uses); [`AnalyzeOptions`] controls the cap and the
//! level-homogenization probe, and the `policy_families` bench records
//! cross-substrate agreement (analysis vs DES vs MDP grid) for every
//! shipped family.

mod ef;
pub mod generator;
mod if_policy;
pub mod reference;

pub use ef::analyze_elastic_first;
pub use generator::{detect_structure, PolicyStructure};
pub use if_policy::analyze_inelastic_first;

use crate::params::SystemParams;
use eirs_markov::qbd::QbdError;
use eirs_queueing::coxian::CoxianFitError;
use eirs_sim::policy::AllocationPolicy;

/// Tuning knobs for [`analyze_policy`]'s general (non-priority) path.
///
/// The defaults are sized for loads up to ~0.8 on small clusters; raise
/// [`AnalyzeOptions::phase_cap`] (and, for slowly-varying fractional
/// policies, [`AnalyzeOptions::max_level_cut`]) for heavier traffic, at
/// cubically growing solve cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Elastic-phase truncation `j ≤ phase_cap` for the general chain
    /// (elastic arrivals at the cap are rejected).
    pub phase_cap: usize,
    /// Saturation level for allocation maps that never become
    /// `i`-homogeneous (e.g. water-filling): levels beyond the cut reuse
    /// the cut level's allocation.
    pub max_level_cut: usize,
    /// How many consecutive levels must agree before the map counts as
    /// homogeneous from a level.
    pub homogeneity_window: usize,
    /// Skip structure detection and always use the general truncated
    /// chain — for policies that only look like strict priority inside
    /// the probed window.
    pub force_general: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            phase_cap: 64,
            max_level_cut: 32,
            homogeneity_window: 8,
            force_general: false,
        }
    }
}

/// Analytic mean response times of an arbitrary allocation policy, with
/// default [`AnalyzeOptions`].
pub fn analyze_policy(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
) -> Result<PolicyAnalysis, AnalysisError> {
    analyze_policy_with(policy, params, &AnalyzeOptions::default())
}

/// [`analyze_policy`] with explicit options.
pub fn analyze_policy_with(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
    opts: &AnalyzeOptions,
) -> Result<PolicyAnalysis, AnalysisError> {
    let structure = if opts.force_general {
        PolicyStructure::General
    } else {
        detect_structure(policy, params.k, opts)
    };
    // The route's chain: the busy-period QBDs have 3 (EF-shaped) or
    // k + 2 (IF-shaped) phases, the general chain one per elastic count.
    let (route, phases) = match structure {
        PolicyStructure::ElasticPriority => ("busy-period", 3),
        PolicyStructure::InelasticPriority => ("busy-period", params.k as usize + 2),
        PolicyStructure::General if params.lambda_e > 0.0 => ("general", opts.phase_cap.max(1) + 1),
        PolicyStructure::General => ("general", 1),
    };
    let mut span = eirs_obs::span("analysis.policy", "analysis");
    span.arg("route", route);
    span.arg("phases", phases);
    match structure {
        PolicyStructure::ElasticPriority => generator::analyze_elastic_priority(policy, params),
        PolicyStructure::InelasticPriority => generator::analyze_inelastic_priority(policy, params),
        PolicyStructure::General => generator::analyze_general(policy, params, opts),
    }
}

/// Analytic evaluation of an arbitrary policy under **MAP arrivals** with
/// exponential service — the workload-scenario counterpart of
/// [`analyze_policy`].
///
/// `map` must be normalized to the stationary rate `λ_I + λ_E` of
/// `params` (see `eirs_queueing::MapProcess::scaled_to_rate`); arrivals
/// are marked inelastic with probability `λ_I / (λ_I + λ_E)`. The chain
/// is the truncated-phase QBD of the general path with the phase extended
/// by the MAP phase; a one-phase MAP reproduces [`analyze_policy_with`]'s
/// general chain bit for bit.
pub fn analyze_policy_map(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
    map: &eirs_queueing::MapProcess,
    opts: &AnalyzeOptions,
) -> Result<PolicyAnalysis, AnalysisError> {
    generator::analyze_general_map(policy, params, map, opts)
}

/// Mean-value results of an analytic policy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyAnalysis {
    /// Overall mean response time
    /// `E[T] = (λ_I E[T_I] + λ_E E[T_E]) / (λ_I + λ_E)`.
    pub mean_response: f64,
    /// Mean inelastic response time `E[T_I]` (`NaN` when `λ_I = 0`).
    pub mean_response_inelastic: f64,
    /// Mean elastic response time `E[T_E]` (`NaN` when `λ_E = 0`).
    pub mean_response_elastic: f64,
    /// Mean number of inelastic jobs in system `E[N_I]`.
    pub mean_num_inelastic: f64,
    /// Mean number of elastic jobs in system `E[N_E]`.
    pub mean_num_elastic: f64,
}

impl PolicyAnalysis {
    /// Mean total number in system `E[N] = E[N_I] + E[N_E]`.
    pub fn mean_num_in_system(&self) -> f64 {
        self.mean_num_inelastic + self.mean_num_elastic
    }

    pub(crate) fn from_class_means(params: &SystemParams, n_i: f64, n_e: f64) -> Self {
        let t_i = if params.lambda_i > 0.0 {
            n_i / params.lambda_i
        } else {
            f64::NAN
        };
        let t_e = if params.lambda_e > 0.0 {
            n_e / params.lambda_e
        } else {
            f64::NAN
        };
        let mean_response = (n_i + n_e) / params.total_lambda();
        PolicyAnalysis {
            mean_response,
            mean_response_inelastic: t_i,
            mean_response_elastic: t_e,
            mean_num_inelastic: n_i,
            mean_num_elastic: n_e,
        }
    }
}

/// Failures of the analytic pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The Coxian busy-period fit failed (should not happen for stable
    /// parameters; surfaced for diagnosis).
    Coxian(CoxianFitError),
    /// The QBD solve failed (instability or numerical breakdown).
    Qbd(QbdError),
    /// A caller-supplied input violated a documented precondition (e.g. a
    /// MAP not normalized to the model's arrival rate).
    BadInput(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Coxian(e) => write!(f, "busy-period fit failed: {e}"),
            AnalysisError::Qbd(e) => write!(f, "QBD solve failed: {e}"),
            AnalysisError::BadInput(msg) => write!(f, "bad analysis input: {msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<CoxianFitError> for AnalysisError {
    fn from(e: CoxianFitError) -> Self {
        AnalysisError::Coxian(e)
    }
}

impl From<QbdError> for AnalysisError {
    fn from(e: QbdError) -> Self {
        AnalysisError::Qbd(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SystemParams;

    #[test]
    fn class_mean_aggregation_weights_by_arrival_rate() {
        let p = SystemParams::new(4, 1.0, 3.0, 1.0, 2.0).unwrap();
        let a = PolicyAnalysis::from_class_means(&p, 2.0, 6.0);
        // E[T_I] = 2/1, E[T_E] = 6/3 = 2; overall (2+6)/4 = 2.
        assert!((a.mean_response_inelastic - 2.0).abs() < 1e-12);
        assert!((a.mean_response_elastic - 2.0).abs() < 1e-12);
        assert!((a.mean_response - 2.0).abs() < 1e-12);
        assert!((a.mean_num_in_system() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_class_reports_nan_response() {
        let p = SystemParams::new(4, 0.0, 1.0, 1.0, 1.0).unwrap();
        let a = PolicyAnalysis::from_class_means(&p, 0.0, 1.5);
        assert!(a.mean_response_inelastic.is_nan());
        assert!((a.mean_response_elastic - 1.5).abs() < 1e-12);
    }
}
