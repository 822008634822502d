//! The shared policy layer: one place where every substrate meets every
//! policy.
//!
//! The [`AllocationPolicy`] trait (defined in [`eirs_sim::policy`],
//! absorbed and re-exported here so analytical and simulation code share
//! one vocabulary) is the repo-wide currency for the paper's central
//! object — a stationary map `(i, j) → (π_I, π_E)`. This module adds what
//! the trait itself does not carry:
//!
//! * a **registry** ([`registry`]) of every shipped policy family at
//!   representative parameters, used by the feasibility property tests,
//!   the `policy_families` bench, and anything that wants to sweep "all
//!   policies";
//! * a **parser** ([`parse_policy`]) for the `eirs` CLI's policy specs
//!   (`if`, `ef`, `fairshare`, `reserve:2`, `threshold:3`, `curve:2+1i`,
//!   `waterfill:1.5`, `random:7`);
//! * the re-exported [`TabularPolicy`], which
//!   `eirs_mdp::MdpSolution::tabular_policy` produces — the bridge that
//!   lets the MDP-optimal policy run on every substrate.
//!
//! # Defining your own policy
//!
//! Implement [`AllocationPolicy`] (a pure map plus a display name), and
//! every substrate accepts it unchanged:
//!
//! ```
//! use eirs_core::policy::{AllocationPolicy, ClassAllocation};
//! use eirs_core::{analysis, SystemParams};
//!
//! /// Give inelastic jobs one server each, but never more than half the
//! /// cluster while elastic work is waiting.
//! struct HalfAndHalf;
//!
//! impl AllocationPolicy for HalfAndHalf {
//!     fn allocate(&self, i: usize, j: usize, k: u32) -> ClassAllocation {
//!         let kf = k as f64;
//!         let cap = if j > 0 { kf / 2.0 } else { kf };
//!         let inelastic = (i as f64).min(cap);
//!         let elastic = if j > 0 { kf - inelastic } else { 0.0 };
//!         ClassAllocation { inelastic, elastic }
//!     }
//!     fn name(&self) -> String {
//!         "Half-and-Half".into()
//!     }
//! }
//!
//! let params = SystemParams::with_equal_lambdas(4, 0.5, 1.0, 0.6).unwrap();
//! // Analytical evaluation — no EF/IF special-casing required.
//! let a = analysis::analyze_policy(&HalfAndHalf, &params).unwrap();
//! assert!(a.mean_response.is_finite() && a.mean_response > 0.0);
//! ```
//!
//! The same value plugs into [`eirs_sim::des::run_markovian`],
//! [`eirs_sim::ctmc::simulate_state_level`], and
//! `eirs_mdp::evaluate_policy` (the MDP grid takes `&dyn AllocationPolicy`
//! directly: IF and EF are [`InelasticFirst`] and [`ElasticFirst`]). Keep
//! allocations inside the feasible polytope `π_I ≤ min(i,k)`, `π_E = 0`
//! when `j = 0`, `π_I + π_E ≤ k` — the simulators assert it on every
//! decision, and the registry property tests enforce it for everything
//! shipped here.

pub use eirs_sim::policy::{
    assert_feasible, AllocationPolicy, ClassAllocation, ElasticFirst, ElasticThresholdPolicy,
    FairShare, InelasticFirst, ReservePolicy, SwitchingCurvePolicy, TablePolicy, TabularPolicy,
    WeightedWaterFilling,
};

/// Every shipped policy family at representative parameters for `k`
/// servers. The list intentionally spans all three analysis structures:
/// strict priority (EF/IF and their disguises), thresholds and switching
/// curves (general, exactly level-homogeneous), and fractional
/// water-filling (general, saturated).
pub fn registry(k: u32) -> Vec<Box<dyn AllocationPolicy>> {
    vec![
        Box::new(InelasticFirst),
        Box::new(ElasticFirst),
        Box::new(FairShare),
        Box::new(ReservePolicy { reserve: 1 }),
        Box::new(ReservePolicy {
            reserve: k.div_ceil(2),
        }),
        Box::new(ElasticThresholdPolicy { threshold: 1 }),
        Box::new(ElasticThresholdPolicy { threshold: 3 }),
        Box::new(SwitchingCurvePolicy {
            intercept: 2,
            slope: 1.0,
        }),
        Box::new(SwitchingCurvePolicy {
            intercept: 4,
            slope: 0.5,
        }),
        Box::new(WeightedWaterFilling {
            elastic_weight: 0.5,
        }),
        Box::new(WeightedWaterFilling {
            elastic_weight: 1.0,
        }),
        Box::new(WeightedWaterFilling {
            elastic_weight: 2.0,
        }),
        Box::new(TablePolicy::random_class_p(1)),
        Box::new(TablePolicy::random_class_p(2)),
    ]
}

/// Parses a CLI policy spec into a boxed policy.
///
/// Accepted forms: `if`, `ef`, `fairshare`, `reserve:<servers>`,
/// `threshold:<jobs>`, `curve:<intercept>+<slope>i` (e.g. `curve:2+0.5i`),
/// `waterfill:<weight>`, `random:<seed>`.
pub fn parse_policy(spec: &str) -> Result<Box<dyn AllocationPolicy>, String> {
    match spec {
        "if" => return Ok(Box::new(InelasticFirst)),
        "ef" => return Ok(Box::new(ElasticFirst)),
        "fairshare" => return Ok(Box::new(FairShare)),
        _ => {}
    }
    if let Some(raw) = spec.strip_prefix("reserve:") {
        let reserve: u32 = raw.parse().map_err(|_| bad(spec, "reserve:<servers>"))?;
        return Ok(Box::new(ReservePolicy { reserve }));
    }
    if let Some(raw) = spec.strip_prefix("threshold:") {
        let threshold: usize = raw.parse().map_err(|_| bad(spec, "threshold:<jobs>"))?;
        return Ok(Box::new(ElasticThresholdPolicy { threshold }));
    }
    if let Some(raw) = spec.strip_prefix("curve:") {
        let form = "curve:<intercept>+<slope>i";
        let body = raw.strip_suffix('i').ok_or_else(|| bad(spec, form))?;
        let (a, b) = body.split_once('+').ok_or_else(|| bad(spec, form))?;
        let intercept: usize = a.parse().map_err(|_| bad(spec, form))?;
        let slope: f64 = b.parse().map_err(|_| bad(spec, form))?;
        if !(slope >= 0.0 && slope.is_finite()) {
            return Err(bad(spec, form));
        }
        return Ok(Box::new(SwitchingCurvePolicy { intercept, slope }));
    }
    if let Some(raw) = spec.strip_prefix("waterfill:") {
        let weight: f64 = raw.parse().map_err(|_| bad(spec, "waterfill:<weight>"))?;
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(bad(spec, "waterfill:<weight> (weight > 0)"));
        }
        return Ok(Box::new(WeightedWaterFilling {
            elastic_weight: weight,
        }));
    }
    if let Some(raw) = spec.strip_prefix("random:") {
        let seed: u64 = raw.parse().map_err(|_| bad(spec, "random:<seed>"))?;
        return Ok(Box::new(TablePolicy::random_class_p(seed)));
    }
    Err(format!(
        "unknown policy '{spec}' (expected if, ef, fairshare, reserve:<r>, threshold:<t>, \
         curve:<a>+<b>i, waterfill:<w>, or random:<seed>)"
    ))
}

fn bad(spec: &str, form: &str) -> String {
    format!("cannot parse policy '{spec}' (expected {form})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_spans_every_family_with_unique_names() {
        let policies = registry(4);
        assert!(policies.len() >= 10);
        let mut names: Vec<String> = policies.iter().map(|p| p.name()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate policy names in registry");
    }

    #[test]
    fn registry_members_are_feasible_on_a_grid() {
        for policy in registry(4) {
            for i in 0..=12usize {
                for j in 0..=12usize {
                    assert_feasible(policy.allocate(i, j, 4), i, j, 4, &policy.name());
                }
            }
        }
    }

    #[test]
    fn parser_round_trips_every_spec_form() {
        for (spec, name) in [
            ("if", "Inelastic-First"),
            ("ef", "Elastic-First"),
            ("fairshare", "Fair-Share"),
            ("reserve:2", "Reserve(2)"),
            ("threshold:3", "ElasticThreshold(3)"),
            ("curve:2+0.5i", "SwitchingCurve(2+0.5i)"),
            ("waterfill:1.5", "WaterFilling(w=1.5)"),
            ("random:7", "RandomP(seed=7)"),
        ] {
            let p = parse_policy(spec).unwrap();
            assert_eq!(p.name(), name, "spec '{spec}'");
        }
    }

    #[test]
    fn parser_rejects_malformed_specs() {
        for spec in [
            "nope",
            "reserve:x",
            "threshold:",
            "curve:2",
            "curve:2+xi",
            "waterfill:-1",
            "waterfill:0",
            "random:abc",
        ] {
            assert!(parse_policy(spec).is_err(), "spec '{spec}' should fail");
        }
    }
}
