//! The policy-generic QBD generator: one builder that turns any
//! [`AllocationPolicy`]'s allocation map into a solvable chain.
//!
//! Three chain shapes cover the policies this workspace ships:
//!
//! * **Elastic-priority** (the paper's Figure 3c): when the policy gives
//!   elastic jobs strict preemptive priority — `(π_I, π_E) = (0, k)`
//!   whenever `j > 0`, `(min(i,k), 0)` at `j = 0` — the elastic class is an
//!   exact M/M/1 and the inelastic class a 3-phase QBD whose elastic-busy
//!   excursions are the Coxian busy-period fit. This reproduces the old
//!   hardcoded EF analysis **bit for bit**, with every service rate now
//!   sampled from `policy.allocate` instead of written out by hand.
//! * **Inelastic-priority** (Figure 7c): the mirror image — inelastic jobs
//!   always get `min(i, k)` servers and elastic jobs the remainder. The
//!   inelastic class is an exact M/M/k, the elastic class a `k+2`-phase
//!   QBD. Bit-identical to the old hardcoded IF analysis.
//! * **General**: any other policy is analyzed on a QBD whose level is the
//!   inelastic count `i` and whose phases are the elastic count `j`
//!   truncated at [`AnalyzeOptions::phase_cap`] (elastic arrivals beyond
//!   the cap are rejected — the same truncation the MDP grid uses). The
//!   repeating blocks start at the first level where the allocation map
//!   stops depending on `i` (probed with
//!   [`AnalyzeOptions::homogeneity_window`]); maps that never homogenize
//!   (e.g. water-filling) are *saturated* at
//!   [`AnalyzeOptions::max_level_cut`]: deeper levels reuse the cut
//!   level's allocation, a controlled approximation whose error decays
//!   with the geometric tail of the level distribution.
//!
//! Structure is **detected by probing** the allocation map on a grid
//! (`i ≤ max(2k, 8) + 2`, `j ≤ phase_cap`), not declared by the policy, so
//! a policy that *is* EF in disguise (e.g. `Reserve(k)`,
//! `ElasticThreshold(1)`) automatically gets the exact busy-period chain.
//! A policy that deviates only outside the probed window is analyzed with
//! the wrong (exact-priority) chain; set [`AnalyzeOptions::force_general`]
//! to opt out of detection in that case.

use super::{AnalysisError, AnalyzeOptions, PolicyAnalysis};
use crate::params::SystemParams;
use eirs_markov::qbd::Qbd;
use eirs_queueing::coxian::fit_busy_period;
use eirs_queueing::{MMk, MM1};
use eirs_sim::policy::AllocationPolicy;

/// The chain shape [`super::analyze_policy`] selected for a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyStructure {
    /// Elastic jobs strictly preempt (EF-shaped exact chain).
    ElasticPriority,
    /// Inelastic jobs strictly preempt (IF-shaped exact chain).
    InelasticPriority,
    /// Anything else: truncated-phase QBD over the allocation map.
    General,
}

/// Probes `policy` on a state grid and classifies its chain shape.
pub fn detect_structure(
    policy: &dyn AllocationPolicy,
    k: u32,
    opts: &AnalyzeOptions,
) -> PolicyStructure {
    let kf = k as f64;
    let max_i = (2 * k as usize).max(8) + 2;
    let max_j = opts.phase_cap.max(8);
    let mut elastic_priority = true;
    let mut inelastic_priority = true;
    for i in 0..=max_i {
        let cap = (i as f64).min(kf);
        for j in 0..=max_j {
            let a = policy.allocate(i, j, k);
            if j == 0 {
                // Both exact shapes serve all of min(i, k) when no elastic
                // job is present (and may give the idle class nothing).
                if a.inelastic != cap || a.elastic != 0.0 {
                    return PolicyStructure::General;
                }
                continue;
            }
            if a.inelastic != 0.0 || a.elastic != kf {
                elastic_priority = false;
            }
            if a.inelastic != cap || a.elastic != kf - cap {
                inelastic_priority = false;
            }
            if !elastic_priority && !inelastic_priority {
                return PolicyStructure::General;
            }
        }
    }
    if elastic_priority {
        PolicyStructure::ElasticPriority
    } else {
        PolicyStructure::InelasticPriority
    }
}

/// Exact analysis of an elastic-priority policy (EF-shaped chain).
///
/// The elastic class is an M/M/1 at rate `kµ_E`; the inelastic class is a
/// QBD over levels `i` with three phases (`0` = no elastic jobs, `b1`/`b2`
/// = Coxian stages of an elastic busy period). Inelastic service rates are
/// sampled from `policy.allocate(i, 0, k)`.
pub(crate) fn analyze_elastic_priority(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
) -> Result<PolicyAnalysis, AnalysisError> {
    let kf = params.k as f64;

    // Elastic class: exact M/M/1 at service rate kµ_E.
    let elastic_queue = MM1::new(params.lambda_e, kf * params.mu_e);
    let n_e = if params.lambda_e > 0.0 {
        elastic_queue.mean_number_in_system()
    } else {
        0.0
    };

    // Degenerate cases avoid the QBD entirely.
    if params.lambda_i == 0.0 {
        return Ok(PolicyAnalysis::from_class_means(params, 0.0, n_e));
    }
    if params.lambda_e == 0.0 {
        // No elastic jobs ever: inelastic class is an exact M/M/k.
        let mmk = MMk::new(params.lambda_i, params.mu_i, params.k);
        return Ok(PolicyAnalysis::from_class_means(
            params,
            mmk.mean_number_in_system(),
            0.0,
        ));
    }

    let k = params.k as usize;
    let cox = fit_busy_period(&MM1::new(params.lambda_e, kf * params.mu_e))?;
    let (g1, g2, g3) = cox.gamma_rates();
    let lambda_e = params.lambda_e;
    let mu_i = params.mu_i;

    // Phase layout (Figure 3c): 0 = no elastic jobs, 1/2 = Coxian stages.
    let qbd = Qbd::from_rate_fns(
        3,
        k,
        |_, a, b| if a == b { params.lambda_i } else { 0.0 },
        |_, a, b| match (a, b) {
            (0, 1) => lambda_e,
            (1, 0) => g1,
            (1, 2) => g2,
            (2, 0) => g3,
            _ => 0.0,
        },
        |level, a, b| {
            if a == 0 && b == 0 {
                policy.allocate(level, 0, params.k).inelastic * mu_i
            } else {
                0.0
            }
        },
    )?;
    let sol = qbd.solve()?;
    debug_assert!((sol.total_probability() - 1.0).abs() < 1e-8);
    Ok(PolicyAnalysis::from_class_means(
        params,
        sol.mean_level(),
        n_e,
    ))
}

/// Exact analysis of an inelastic-priority policy (IF-shaped chain).
///
/// The inelastic class is an exact M/M/k; the elastic class is a QBD over
/// levels `j` with `k + 2` phases (`0..k-1` = inelastic count below `k`,
/// then the two Coxian stages of an inelastic busy-at-`k` period). Service
/// rates are sampled from `policy.allocate(i, 1, k)`.
pub(crate) fn analyze_inelastic_priority(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
) -> Result<PolicyAnalysis, AnalysisError> {
    let kf = params.k as f64;

    // Inelastic class: exact M/M/k.
    let n_i = if params.lambda_i > 0.0 {
        MMk::new(params.lambda_i, params.mu_i, params.k).mean_number_in_system()
    } else {
        0.0
    };

    if params.lambda_e == 0.0 {
        return Ok(PolicyAnalysis::from_class_means(params, n_i, 0.0));
    }
    if params.lambda_i == 0.0 {
        // Elastic jobs alone: M/M/1 at rate kµ_E.
        let n_e = MM1::new(params.lambda_e, kf * params.mu_e).mean_number_in_system();
        return Ok(PolicyAnalysis::from_class_means(params, 0.0, n_e));
    }

    let k = params.k as usize;
    let phases = k + 2; // 0..k-1 inelastic counts, then b1, b2.
    let b1 = k;
    let b2 = k + 1;
    let cox = fit_busy_period(&MM1::new(params.lambda_i, kf * params.mu_i))?;
    let (g1, g2, g3) = cox.gamma_rates();
    let lambda_i = params.lambda_i;
    let (mu_i, mu_e) = (params.mu_i, params.mu_e);

    let qbd = Qbd::from_rate_fns(
        phases,
        1,
        |_, a, b| if a == b { params.lambda_e } else { 0.0 },
        // Phase process (Figure 7c): inelastic births up into the busy
        // period, deaths back down at the policy's inelastic service rate.
        |_, a, b| {
            if a < k && b == if a + 1 < k { a + 1 } else { b1 } {
                lambda_i
            } else if a < k && a >= 1 && b == a - 1 {
                policy.allocate(a, 1, params.k).inelastic * mu_i
            } else if (a, b) == (b1, k - 1) {
                g1
            } else if (a, b) == (b1, b2) {
                g2
            } else if (a, b) == (b2, k - 1) {
                g3
            } else {
                0.0
            }
        },
        // Elastic service: whatever the policy leaves for the head-of-line
        // elastic job; nothing during an inelastic busy period.
        |_, a, b| {
            if a < k && a == b {
                policy.allocate(a, 1, params.k).elastic * mu_e
            } else {
                0.0
            }
        },
    )?;
    let sol = qbd.solve()?;
    debug_assert!((sol.total_probability() - 1.0).abs() < 1e-8);
    Ok(PolicyAnalysis::from_class_means(
        params,
        n_i,
        sol.mean_level(),
    ))
}

/// Smallest level `m ≥ max(k, 1)` from which the allocation map is
/// `i`-independent over the probed window, or `opts.max_level_cut` if it
/// never homogenizes (the saturation fallback).
fn find_level_cut(
    policy: &dyn AllocationPolicy,
    k: u32,
    phase_cap: usize,
    opts: &AnalyzeOptions,
) -> usize {
    let start = (k as usize).max(1);
    let cut_cap = opts.max_level_cut.max(start);
    let window = opts.homogeneity_window.max(1);
    'levels: for m in start..=cut_cap {
        for j in 0..=phase_cap {
            let here = policy.allocate(m, j, k);
            for d in 1..=window {
                if policy.allocate(m + d, j, k) != here {
                    continue 'levels;
                }
            }
        }
        return m;
    }
    cut_cap
}

/// Truncated-phase analysis of an arbitrary policy.
///
/// Level = inelastic count `i`, phase = elastic count `j ≤ phase_cap`
/// (elastic arrivals at the cap are rejected). Levels at or beyond the
/// homogenization cut reuse the cut level's allocation.
pub(crate) fn analyze_general(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
    opts: &AnalyzeOptions,
) -> Result<PolicyAnalysis, AnalysisError> {
    let k = params.k;
    let jmax = if params.lambda_e > 0.0 {
        opts.phase_cap.max(1)
    } else {
        0
    };
    let m = if params.lambda_i > 0.0 {
        find_level_cut(policy, k, jmax, opts)
    } else {
        1
    };
    let (lambda_i, lambda_e) = (params.lambda_i, params.lambda_e);
    let (mu_i, mu_e) = (params.mu_i, params.mu_e);

    let qbd = Qbd::from_rate_fns(
        jmax + 1,
        m,
        |_, a, b| if a == b { lambda_i } else { 0.0 },
        |level, a, b| {
            if b == a + 1 {
                // Elastic arrival; rejected at the phase cap (b > jmax
                // never reaches here because phases are 0..=jmax).
                lambda_e
            } else if a >= 1 && b == a - 1 {
                policy.allocate(level.min(m), a, k).elastic * mu_e
            } else {
                0.0
            }
        },
        |level, a, b| {
            if a == b {
                policy.allocate(level.min(m), a, k).inelastic * mu_i
            } else {
                0.0
            }
        },
    )?;
    let sol = qbd.solve()?;
    debug_assert!((sol.total_probability() - 1.0).abs() < 1e-8);
    let n_i = sol.mean_level();
    let n_e: f64 = sol
        .marginal_phases()
        .iter()
        .enumerate()
        .map(|(j, p)| j as f64 * p)
        .sum();
    Ok(PolicyAnalysis::from_class_means(params, n_i, n_e))
}

/// Truncated-phase analysis of an arbitrary policy under **MAP arrivals**
/// (exponential service): the workload-scenario generalization of
/// [`analyze_general`].
///
/// The arriving stream is a Markovian arrival process `map` whose
/// stationary rate must equal `λ_I + λ_E`; each arrival is inelastic with
/// probability `λ_I / (λ_I + λ_E)` (independent marking). The QBD level is
/// the inelastic count `i`; the phase is the pair (elastic count
/// `j ≤ phase_cap`, MAP phase `m`), indexed `m·(phase_cap+1) + j`:
///
/// * **up** — a marked-inelastic arrival transition `f·D1[m][m']`;
/// * **local** — a marked-elastic arrival `(1−f)·D1[m][m']` (`j → j+1`;
///   at the cap the job is rejected but the phase still moves), a silent
///   phase change `D0[m][m']`, or an elastic service completion at the
///   policy's allocation rate;
/// * **down** — an inelastic completion at the policy's allocation rate.
///
/// With a one-phase MAP this chain is *identical* to the one
/// [`analyze_general`] builds (the scenario property tests assert the
/// results agree bit for bit).
pub(crate) fn analyze_general_map(
    policy: &dyn AllocationPolicy,
    params: &SystemParams,
    map: &eirs_queueing::MapProcess,
    opts: &AnalyzeOptions,
) -> Result<PolicyAnalysis, AnalysisError> {
    let total = params.total_lambda();
    let map_rate = map.arrival_rate();
    if (map_rate - total).abs() > 1e-6 * total.max(1.0) {
        return Err(AnalysisError::BadInput(format!(
            "MAP stationary rate {map_rate} != lambda_I + lambda_E = {total}; \
             normalize with MapProcess::scaled_to_rate first"
        )));
    }
    let f = params.lambda_i / total;
    let k = params.k;
    let jmax = if params.lambda_e > 0.0 {
        opts.phase_cap.max(1)
    } else {
        0
    };
    let cut = if params.lambda_i > 0.0 {
        find_level_cut(policy, k, jmax, opts)
    } else {
        1
    };
    let p_m = map.phases();
    let width = jmax + 1;
    let (d0, d1) = (map.d0(), map.d1());
    let (mu_i, mu_e) = (params.mu_i, params.mu_e);
    let split = |idx: usize| (idx / width, idx % width);

    let qbd = Qbd::from_rate_fns(
        p_m * width,
        cut,
        |_, a, b| {
            let ((m, j), (m2, j2)) = (split(a), split(b));
            if j == j2 {
                f * d1[(m, m2)]
            } else {
                0.0
            }
        },
        |level, a, b| {
            if a == b {
                return 0.0;
            }
            let ((m, j), (m2, j2)) = (split(a), split(b));
            let mut rate = 0.0;
            if j2 == j + 1 {
                // Accepted elastic arrival (any accompanying phase move).
                rate += (1.0 - f) * d1[(m, m2)];
            }
            if j == j2 && m != m2 {
                // Silent phase change, plus elastic arrivals rejected
                // at the cap (the phase still moves).
                rate += d0[(m, m2)];
                if j == jmax {
                    rate += (1.0 - f) * d1[(m, m2)];
                }
            }
            if m == m2 && j >= 1 && j2 + 1 == j {
                rate += policy.allocate(level.min(cut), j, k).elastic * mu_e;
            }
            rate
        },
        |level, a, b| {
            let ((m, j), (m2, j2)) = (split(a), split(b));
            if m == m2 && j == j2 {
                policy.allocate(level.min(cut), j, k).inelastic * mu_i
            } else {
                0.0
            }
        },
    )?;
    let sol = qbd.solve()?;
    debug_assert!((sol.total_probability() - 1.0).abs() < 1e-8);
    let n_i = sol.mean_level();
    let n_e: f64 = sol
        .marginal_phases()
        .iter()
        .enumerate()
        .map(|(idx, p)| (idx % width) as f64 * p)
        .sum();
    Ok(PolicyAnalysis::from_class_means(params, n_i, n_e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::policy::{
        ElasticFirst, ElasticThresholdPolicy, FairShare, InelasticFirst, ReservePolicy,
        SwitchingCurvePolicy, WeightedWaterFilling,
    };

    fn opts() -> AnalyzeOptions {
        AnalyzeOptions::default()
    }

    #[test]
    fn detection_classifies_the_builtin_families() {
        let o = opts();
        assert_eq!(
            detect_structure(&ElasticFirst, 4, &o),
            PolicyStructure::ElasticPriority
        );
        assert_eq!(
            detect_structure(&InelasticFirst, 4, &o),
            PolicyStructure::InelasticPriority
        );
        // Priority policies in disguise route to the exact chains.
        assert_eq!(
            detect_structure(&ReservePolicy { reserve: 4 }, 4, &o),
            PolicyStructure::ElasticPriority
        );
        assert_eq!(
            detect_structure(&ReservePolicy { reserve: 0 }, 4, &o),
            PolicyStructure::InelasticPriority
        );
        assert_eq!(
            detect_structure(&ElasticThresholdPolicy { threshold: 1 }, 4, &o),
            PolicyStructure::ElasticPriority
        );
        // Genuinely mixed policies go general.
        assert_eq!(
            detect_structure(&ElasticThresholdPolicy { threshold: 3 }, 4, &o),
            PolicyStructure::General
        );
        assert_eq!(
            detect_structure(&FairShare, 4, &o),
            PolicyStructure::General
        );
        assert_eq!(
            detect_structure(
                &SwitchingCurvePolicy {
                    intercept: 2,
                    slope: 1.0
                },
                4,
                &o
            ),
            PolicyStructure::General
        );
    }

    #[test]
    fn level_cut_finds_threshold_homogenization_at_k() {
        let p = ElasticThresholdPolicy { threshold: 5 };
        assert_eq!(find_level_cut(&p, 4, 16, &opts()), 4);
    }

    #[test]
    fn level_cut_saturates_for_water_filling() {
        let p = WeightedWaterFilling {
            elastic_weight: 1.0,
        };
        let o = opts();
        assert_eq!(find_level_cut(&p, 4, 16, &o), o.max_level_cut);
    }

    #[test]
    fn general_path_reproduces_mmk_without_elastic_traffic() {
        let params = SystemParams::new(4, 3.0, 0.0, 1.0, 1.0).unwrap();
        let a = analyze_general(&InelasticFirst, &params, &opts()).unwrap();
        let want = MMk::new(3.0, 1.0, 4).mean_number_in_system();
        assert!(
            (a.mean_num_inelastic - want).abs() < 1e-9,
            "{} vs {want}",
            a.mean_num_inelastic
        );
    }

    #[test]
    fn map_chain_with_one_phase_is_bit_identical_to_the_general_chain() {
        use eirs_queueing::MapProcess;
        let params = SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.6).unwrap();
        let map = MapProcess::poisson(params.total_lambda());
        let o = AnalyzeOptions {
            phase_cap: 24,
            ..opts()
        };
        for policy in [&FairShare as &dyn AllocationPolicy, &InelasticFirst] {
            let general = analyze_general(policy, &params, &o).unwrap();
            let via_map = analyze_general_map(policy, &params, &map, &o).unwrap();
            assert_eq!(
                general.mean_response.to_bits(),
                via_map.mean_response.to_bits(),
                "{}: {} vs {}",
                policy.name(),
                general.mean_response,
                via_map.mean_response
            );
            assert_eq!(
                general.mean_num_elastic.to_bits(),
                via_map.mean_num_elastic.to_bits()
            );
        }
    }

    #[test]
    fn map_chain_burstiness_increases_mean_response() {
        use eirs_queueing::MapProcess;
        let params = SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.6).unwrap();
        let o = AnalyzeOptions {
            phase_cap: 32,
            ..opts()
        };
        let poisson = analyze_general(&FairShare, &params, &o).unwrap();
        let bursty = MapProcess::mmpp2(1.0, 1.0, 9.0, 1.0).scaled_to_rate(params.total_lambda());
        let modulated = analyze_general_map(&FairShare, &params, &bursty, &o).unwrap();
        assert!(
            modulated.mean_response > poisson.mean_response * 1.05,
            "MMPP {} vs Poisson {}",
            modulated.mean_response,
            poisson.mean_response
        );
    }

    #[test]
    fn general_path_agrees_with_exact_if_chain() {
        // IF through the truncated general chain vs the exact busy-period
        // chain: truncation error at this load is far below 0.1%.
        let params = SystemParams::with_equal_lambdas(4, 2.0, 1.0, 0.6).unwrap();
        let exact = analyze_inelastic_priority(&InelasticFirst, &params).unwrap();
        let general = analyze_general(&InelasticFirst, &params, &opts()).unwrap();
        let rel = (general.mean_response - exact.mean_response).abs() / exact.mean_response;
        assert!(
            rel < 1e-3,
            "general {} vs exact {}",
            general.mean_response,
            exact.mean_response
        );
    }
}
