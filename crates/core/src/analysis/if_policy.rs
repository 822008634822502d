//! Inelastic-First analysis (paper Appendix D, Figure 7).
//!
//! Under IF, inelastic jobs preempt everything, so:
//!
//! * inelastic class = M/M/k(λ_I, µ_I) — exact (Erlang-C);
//! * elastic class = QBD over levels `j` (number of elastic jobs) with
//!   `k + 2` phases: phases `0..k-1` track the number of inelastic jobs
//!   while it is below `k` (the head-of-line elastic job then runs on the
//!   remaining `k − i` servers), and phases `b1`/`b2` are the two Coxian
//!   stages of an *inelastic* busy-at-`k` period, during which elastic jobs
//!   receive no service.
//!
//! The Coxian `(γ1, γ2, γ3)` matches the first three moments of the
//! M/M/1(λ_I, kµ_I) busy period: once all `k` servers hold inelastic jobs,
//! further inelastic arrivals queue and the excursion back down to `k − 1`
//! inelastic jobs is exactly such a busy period (Figure 7b → 7c).
//!
//! Since the policy-layer refactor this is a thin wrapper: the chain is
//! assembled by the policy-generic generator from [`InelasticFirst`]'s
//! allocation map, bit-identically to the old hand-built construction
//! (kept in [`super::reference`] for the differential tests).

use super::{AnalysisError, PolicyAnalysis};
use crate::params::SystemParams;
use eirs_sim::policy::InelasticFirst;

/// Mean response time (and class means) under **Inelastic-First**.
pub fn analyze_inelastic_first(params: &SystemParams) -> Result<PolicyAnalysis, AnalysisError> {
    super::generator::analyze_inelastic_priority(&InelasticFirst, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::{MMk, MM1};

    #[test]
    fn inelastic_class_is_exact_mmk() {
        let p = SystemParams::new(4, 2.0, 0.5, 1.0, 1.0).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        let want = MMk::new(2.0, 1.0, 4).mean_response_time();
        assert!((a.mean_response_inelastic - want).abs() < 1e-10);
    }

    #[test]
    fn no_inelastic_traffic_reduces_to_elastic_mm1() {
        let p = SystemParams::new(4, 0.0, 2.0, 1.0, 1.0).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        let want = MM1::new(2.0, 4.0).mean_response_time();
        assert!((a.mean_response_elastic - want).abs() < 1e-12);
    }

    #[test]
    fn no_elastic_traffic_reduces_to_mmk_only() {
        let p = SystemParams::new(4, 3.0, 0.0, 1.0, 1.0).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        assert!(a.mean_response_elastic.is_nan());
        let want = MMk::new(3.0, 1.0, 4).mean_response_time();
        assert!((a.mean_response - want).abs() < 1e-10);
    }

    #[test]
    fn k1_with_identical_classes_is_priority_mm1() {
        // k=1, µ_I = µ_E = µ: IF is preemptive-priority M/M/1 with the
        // inelastic class on top; the low class has the classical mean
        // E[T_low] = (1/µ)/((1-ρ_I)(1-ρ_I-ρ_E)).
        let (li, le, mu) = (0.4, 0.3, 1.0);
        let p = SystemParams::new(1, li, le, mu, mu).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        let t_low = (1.0 / mu) / ((1.0 - li / mu) * (1.0 - li / mu - le / mu));
        assert!(
            (a.mean_response_elastic - t_low).abs() / t_low < 0.01,
            "QBD {} vs priority formula {t_low}",
            a.mean_response_elastic
        );
        let t_high = 1.0 / (mu - li);
        assert!((a.mean_response_inelastic - t_high).abs() < 1e-10);
    }

    #[test]
    fn littles_law_holds() {
        let p = SystemParams::with_equal_lambdas(4, 2.0, 1.0, 0.7).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        assert!((a.mean_num_elastic - p.lambda_e * a.mean_response_elastic).abs() < 1e-9);
        assert!((a.mean_num_inelastic - p.lambda_i * a.mean_response_inelastic).abs() < 1e-9);
    }

    #[test]
    fn if_beats_ef_when_mu_i_geq_mu_e() {
        // Theorem 5 regime across loads and a few shape ratios.
        for rho in [0.5, 0.7, 0.9] {
            for (mu_i, mu_e) in [(1.0, 1.0), (2.0, 1.0), (3.25, 1.0)] {
                let p = SystemParams::with_equal_lambdas(4, mu_i, mu_e, rho).unwrap();
                let a_if = analyze_inelastic_first(&p).unwrap();
                let a_ef = super::super::analyze_elastic_first(&p).unwrap();
                assert!(
                    a_if.mean_response <= a_ef.mean_response + 1e-9,
                    "rho={rho} mu_i={mu_i}: IF {} vs EF {}",
                    a_if.mean_response,
                    a_ef.mean_response
                );
            }
        }
    }

    #[test]
    fn ef_beats_if_for_small_mu_i_high_load() {
        // The µ_I < µ_E regime where Figure 4c shows EF superior.
        let p = SystemParams::with_equal_lambdas(4, 0.25, 1.0, 0.9).unwrap();
        let a_if = analyze_inelastic_first(&p).unwrap();
        let a_ef = super::super::analyze_elastic_first(&p).unwrap();
        assert!(
            a_ef.mean_response < a_if.mean_response,
            "EF {} vs IF {}",
            a_ef.mean_response,
            a_if.mean_response
        );
    }

    #[test]
    fn scales_to_many_servers() {
        let p = SystemParams::with_equal_lambdas(16, 0.25, 1.0, 0.9).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        assert!(a.mean_response.is_finite() && a.mean_response > 0.0);
        let p = SystemParams::with_equal_lambdas(64, 2.0, 1.0, 0.8).unwrap();
        let a = analyze_inelastic_first(&p).unwrap();
        assert!(a.mean_response.is_finite() && a.mean_response > 0.0);
    }

    #[test]
    fn wrapper_is_bit_identical_to_the_reference_implementation() {
        for (k, mu_i, mu_e, rho) in [
            (4, 2.0, 1.0, 0.5),
            (4, 0.25, 1.0, 0.9),
            (1, 1.0, 1.0, 0.7),
            (16, 2.0, 1.0, 0.8),
        ] {
            let p = SystemParams::with_equal_lambdas(k, mu_i, mu_e, rho).unwrap();
            let new = analyze_inelastic_first(&p).unwrap();
            let old = super::super::reference::analyze_inelastic_first_reference(&p).unwrap();
            assert_eq!(new, old, "k={k} µI={mu_i} µE={mu_e} ρ={rho}");
        }
    }
}
