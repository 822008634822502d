//! Elastic-First analysis (paper Section 5.1–5.3, Figure 3).
//!
//! Under EF, elastic jobs preempt everything, so:
//!
//! * elastic class = M/M/1(λ_E, kµ_E) — exact;
//! * inelastic class = QBD over levels `i` (number of inelastic jobs) with
//!   three phases: `0` = no elastic jobs in system (inelastic jobs being
//!   served, `min(i,k)` of them), `b1`/`b2` = the two Coxian stages of an
//!   elastic busy period (inelastic service suspended).
//!
//! The Coxian `(γ1, γ2, γ3)` matches the first three moments of the
//! M/M/1(λ_E, kµ_E) busy period, exactly as in Figure 3(c).
//!
//! Since the policy-layer refactor this is a thin wrapper: the chain is
//! assembled by the policy-generic generator from [`ElasticFirst`]'s
//! allocation map, bit-identically to the old hand-built construction
//! (kept in [`super::reference`] for the differential tests).

use super::{AnalysisError, PolicyAnalysis};
use crate::params::SystemParams;
use eirs_sim::policy::ElasticFirst;

/// Mean response time (and class means) under **Elastic-First**.
pub fn analyze_elastic_first(params: &SystemParams) -> Result<PolicyAnalysis, AnalysisError> {
    super::generator::analyze_elastic_priority(&ElasticFirst, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::{MMk, MM1};

    #[test]
    fn elastic_class_is_exact_mm1() {
        let p = SystemParams::new(4, 0.5, 1.0, 1.0, 1.0).unwrap();
        let a = analyze_elastic_first(&p).unwrap();
        let want = MM1::new(1.0, 4.0).mean_response_time();
        assert!((a.mean_response_elastic - want).abs() < 1e-12);
    }

    #[test]
    fn no_elastic_traffic_reduces_to_mmk() {
        let p = SystemParams::new(4, 3.0, 0.0, 1.0, 1.0).unwrap();
        let a = analyze_elastic_first(&p).unwrap();
        let want = MMk::new(3.0, 1.0, 4).mean_response_time();
        assert!((a.mean_response_inelastic - want).abs() < 1e-10);
    }

    #[test]
    fn no_inelastic_traffic_is_pure_elastic_mm1() {
        let p = SystemParams::new(4, 0.0, 2.0, 1.0, 1.0).unwrap();
        let a = analyze_elastic_first(&p).unwrap();
        assert!(a.mean_response_inelastic.is_nan());
        let want = MM1::new(2.0, 4.0).mean_response_time();
        assert!((a.mean_response - want).abs() < 1e-12);
    }

    #[test]
    fn k1_with_identical_classes_is_priority_mm1() {
        // k=1, µ_I = µ_E = 1: EF is a two-class preemptive-priority M/M/1.
        // Classical result: E[N_high] = ρ_E/(1-ρ_E),
        // E[N_low] = ρ_I(1-ρ_E ρ_I -…); use the standard formula
        // E[T_low] = (1/µ)/((1-ρ_E)(1-ρ_E-ρ_I)).
        let (li, le, mu) = (0.3, 0.4, 1.0);
        let p = SystemParams::new(1, li, le, mu, mu).unwrap();
        let a = analyze_elastic_first(&p).unwrap();
        let t_low = (1.0 / mu) / ((1.0 - le / mu) * (1.0 - le / mu - li / mu));
        // The busy-period transformation matches three moments of the busy
        // period, not its full law; the paper reports <1% error and this
        // exact classical case is where we can measure it directly.
        assert!(
            (a.mean_response_inelastic - t_low).abs() / t_low < 0.01,
            "QBD {} vs priority formula {t_low}",
            a.mean_response_inelastic
        );
        let t_high = 1.0 / (mu - le);
        assert!((a.mean_response_elastic - t_high).abs() < 1e-12);
    }

    #[test]
    fn mean_numbers_satisfy_littles_law() {
        let p = SystemParams::with_equal_lambdas(4, 1.0, 1.0, 0.7).unwrap();
        let a = analyze_elastic_first(&p).unwrap();
        assert!((a.mean_num_inelastic - p.lambda_i * a.mean_response_inelastic).abs() < 1e-9);
        assert!((a.mean_num_elastic - p.lambda_e * a.mean_response_elastic).abs() < 1e-9);
    }

    #[test]
    fn wrapper_is_bit_identical_to_the_reference_implementation() {
        for (k, mu_i, mu_e, rho) in [
            (4, 2.0, 1.0, 0.5),
            (4, 0.25, 1.0, 0.9),
            (1, 1.0, 1.0, 0.7),
            (16, 0.25, 1.0, 0.9),
        ] {
            let p = SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).unwrap();
            let new = analyze_elastic_first(&p).unwrap();
            let old = super::super::reference::analyze_elastic_first_reference(&p).unwrap();
            assert_eq!(new, old, "k={k} µI={mu_i} µE={mu_e} ρ={rho}");
        }
    }
}
