//! Integration tests of the policy-optimization subsystem (PR 4
//! tentpole): the search loop `family → objective → optimizer` must
//! recover the paper's structural results and certify against the MDP.
//!
//! 1. **Structure recovery** (property test): on Poisson×exp instances in
//!    the provably-optimal regime `µ_I ≥ µ_E` (Theorems 1 and 5), the MDP
//!    optimum is Inelastic-First-structured
//!    (`MdpSolution::matches_inelastic_first`) — and the optimizer over
//!    the threshold and switching-curve families must land on a policy
//!    with that same IF structure on the state-space interior, at an
//!    IF-matching mean response time.
//! 2. **Certification**: in the open `µ_I < µ_E` regime the searched
//!    tabular family must close to within 1% of `solve_optimal`'s exact
//!    optimum while strictly beating both fixed baselines.
//! 3. **DES objective**: searches on intractable workloads are
//!    deterministic end to end under a fixed seed, a batch scores each
//!    candidate exactly as averaging its own `Workload::simulate` runs
//!    over the shared seeds would, at any thread count, and a small
//!    search in the `des-search` benchmark's setting is pinned bit for
//!    bit.

use eirs_repro::core::analysis::{analyze_policy_with, AnalyzeOptions};
use eirs_repro::core::policy::{AllocationPolicy, ElasticFirst, InelasticFirst};
use eirs_repro::core::scenario::{parse_workload, ArrivalSpec, ServiceSpec, Workload};
use eirs_repro::core::{sweep, SystemParams};
use eirs_repro::mdp::{solve_optimal, MdpConfig};
use eirs_repro::opt::certify_against_mdp;
use eirs_repro::opt::objective::{AnalyticObjective, DesObjective, Objective};
use eirs_repro::opt::optim::{optimize, optimize_with_start, Budget, Method};
use eirs_repro::opt::space::{
    parse_family, ParamSpace, SwitchingCurveFamily, TabularFamily, ThresholdFamily,
    WaterFillingFamily,
};
use eirs_repro::queueing::Exponential;
use eirs_repro::sim::ArrivalTrace;
use proptest::prelude::*;

fn analyze_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        phase_cap: 32,
        ..AnalyzeOptions::default()
    }
}

/// `true` when `policy` allocates exactly like Inelastic-First on the
/// interior window `(i, j) ∈ [0, w]²`.
fn matches_if_structure(policy: &dyn AllocationPolicy, k: u32, w: usize) -> bool {
    (0..=w).all(|i| {
        (0..=w).all(|j| {
            let a = policy.allocate(i, j, k);
            let b = InelasticFirst.allocate(i, j, k);
            (a.inelastic - b.inelastic).abs() < 1e-12 && (a.elastic - b.elastic).abs() < 1e-12
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: the optimizer over the threshold and switching-curve
    /// families recovers the paper's structural result on a randomized
    /// `(k, ρ)` grid in the `µ_I ≥ µ_E` regime — best-found matches the
    /// MDP optimum's Inelastic-First structure.
    #[test]
    fn optimizer_recovers_if_structure_where_mdp_is_if(
        k in 2u32..5,
        rho_pct in 30u32..75,
    ) {
        let rho = rho_pct as f64 / 100.0;
        let params = SystemParams::with_equal_lambdas(k, 1.5, 1.0, rho).unwrap();

        // The MDP optimum itself is IF-structured here (Theorem 5).
        let cfg = MdpConfig {
            k,
            lambda_i: params.lambda_i,
            lambda_e: params.lambda_e,
            mu_i: params.mu_i,
            mu_e: params.mu_e,
            max_i: 36,
            max_j: 36,
            allow_idling: false,
        };
        let mdp = solve_optimal(&cfg, 1e-8, 500_000).unwrap();
        prop_assert!(mdp.matches_inelastic_first(k, 10, 10));

        let objective = AnalyticObjective::poisson_exp(params, analyze_opts());
        let if_response = analyze_policy_with(&InelasticFirst, &params, &analyze_opts())
            .unwrap()
            .mean_response;

        // Threshold family: the exhaustive scan's larger-parameter
        // tie-break must resolve the flat tail to the IF-most member.
        let threshold = ThresholdFamily { max_threshold: 12 };
        let r = optimize(&threshold, &objective, Method::Auto, &Budget::default()).unwrap();
        let best = threshold.decode(&r.best_x);
        prop_assert!(
            matches_if_structure(best.as_ref(), k, 2),
            "threshold best {} is not IF-structured (k={k}, rho={rho})",
            r.best_params
        );
        prop_assert!(
            r.best_value <= if_response * 1.01,
            "threshold best {} vs IF {if_response}",
            r.best_value
        );

        // Switching-curve family via pattern search.
        let curve = SwitchingCurveFamily { max_intercept: 12, max_slope: 2.0 };
        let budget = Budget { max_evals: 60, seed: 7 };
        let r = optimize(&curve, &objective, Method::Coordinate, &budget).unwrap();
        let best = curve.decode(&r.best_x);
        prop_assert!(
            matches_if_structure(best.as_ref(), k, 2),
            "curve best {} is not IF-structured (k={k}, rho={rho})",
            r.best_params
        );
        prop_assert!(
            r.best_value <= if_response * 1.01,
            "curve best {} vs IF {if_response}",
            r.best_value
        );
    }
}

#[test]
fn tabular_search_certifies_within_one_percent_in_the_open_regime() {
    // µ_I < µ_E at moderate load: IF is strictly suboptimal and neither
    // fixed baseline is optimal; the searched tabular family must close
    // to within 1% of the exact MDP optimum (the acceptance criterion)
    // and strictly beat both baselines.
    let params = SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.6).unwrap();
    let objective = AnalyticObjective::poisson_exp(params, analyze_opts());
    let family = TabularFamily {
        k: 3,
        grid_i: 3,
        grid_j: 3,
    };
    let budget = Budget {
        max_evals: 250,
        seed: 42,
    };
    let coarse = optimize(&family, &objective, Method::CrossEntropy, &budget).unwrap();
    let polished = optimize_with_start(
        &family,
        &objective,
        Method::Coordinate,
        &budget,
        Some(&coarse.best_x),
    )
    .unwrap();
    let best_value = polished.best_value.min(coarse.best_value);

    let cert = certify_against_mdp(&params, best_value, 48).unwrap();
    assert!(
        cert.optimality_gap <= 0.01,
        "gap {:.4}% (found {}, mdp {})",
        100.0 * cert.optimality_gap,
        cert.best_found_mean_response,
        cert.mdp_mean_response
    );
    // Open regime: the MDP optimum is NOT Inelastic-First here.
    assert!(!cert.mdp_matches_inelastic_first);

    for baseline in [
        analyze_policy_with(&InelasticFirst, &params, &analyze_opts()).unwrap(),
        analyze_policy_with(&ElasticFirst, &params, &analyze_opts()).unwrap(),
    ] {
        assert!(
            best_value < baseline.mean_response,
            "found {best_value} should beat baseline {}",
            baseline.mean_response
        );
    }
}

#[test]
fn golden_section_tunes_the_waterfill_weight_against_the_exact_chain() {
    // 1-D continuous family end-to-end: the tuned weight must beat both
    // the fair-share point (w = 1) and the family's box edges.
    let params = SystemParams::with_equal_lambdas(4, 0.5, 1.0, 0.6).unwrap();
    let objective = AnalyticObjective::poisson_exp(params, analyze_opts());
    let family = WaterFillingFamily {
        max_log2_weight: 5.0,
    };
    let r = optimize(&family, &objective, Method::Auto, &Budget::default()).unwrap();
    assert_eq!(r.optimizer, "golden-section");
    let mut edges = Vec::new();
    for x in [-5.0, 0.0, 5.0] {
        let p = family.decode(&[x]);
        edges.push(
            analyze_policy_with(p.as_ref(), &params, &analyze_opts())
                .unwrap()
                .mean_response,
        );
    }
    for (edge, label) in edges.iter().zip(["w=1/32", "w=1 (fair share)", "w=32"]) {
        assert!(
            r.best_value <= edge + 1e-9,
            "tuned {} should be no worse than {label} ({edge})",
            r.best_value
        );
    }
}

#[test]
fn des_backed_search_is_deterministic_under_a_fixed_seed() {
    // Intractable workload (bursty batches) → CRN-paired DES objective;
    // the whole search must reproduce bit-identically.
    let params = SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.5).unwrap();
    let bursty = Workload::new(
        ArrivalSpec::Bursty { mean_burst: 4.0 },
        ServiceSpec::Exponential,
        ServiceSpec::Exponential,
    );
    let family = ThresholdFamily { max_threshold: 6 };
    let budget = Budget {
        max_evals: 6,
        seed: 11,
    };
    let run = || {
        let objective = DesObjective::new(bursty.clone(), params, 11, 3, 4_000);
        optimize(&family, &objective, Method::Auto, &budget).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_x, b.best_x);
    assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
    assert_eq!(a.trace.len(), b.trace.len());
    assert!(a.best_value.is_finite() && a.best_value > 0.0);
}

/// The `des-search` benchmark's setting: bursty arrivals, `hyper:4`
/// elastic sizes and crash churn on k = 4 servers at ρ = 0.6.
fn des_search_setting() -> (Workload, SystemParams) {
    let workload = parse_workload(
        "bursty",
        None,
        Some("hyper:4"),
        Some("crash:mtbf=40,mttr=4"),
    )
    .unwrap();
    let params = SystemParams::with_equal_lambdas(4, 1.0, 1.0, 0.6).unwrap();
    (workload, params)
}

#[test]
fn des_batches_equal_the_per_candidate_simulate_means_at_any_thread_count() {
    let (churned, params) = des_search_setting();
    // A one-seed workload: replaying a recorded trace of ~1,500 arrivals.
    let dir = std::env::temp_dir().join(format!("eirs-des-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("recorded.trace");
    let trace = ArrivalTrace::record_poisson(
        params.lambda_i,
        params.lambda_e,
        Box::new(Exponential::new(params.mu_i)),
        Box::new(Exponential::new(params.mu_e)),
        5,
        1_500.0 / params.total_lambda(),
    );
    trace
        .to_writer(&mut std::fs::File::create(&path).unwrap())
        .unwrap();
    let traced = Workload::new(
        ArrivalSpec::TraceFile { path },
        ServiceSpec::Exponential,
        ServiceSpec::Exponential,
    );
    // Five candidates, so that no thread count splits them evenly.
    let curve = SwitchingCurveFamily {
        max_intercept: 12,
        max_slope: 2.0,
    };
    let policies: Vec<Box<dyn AllocationPolicy>> =
        [[0.0, 0.0], [2.0, 0.5], [5.0, 1.0], [8.0, 1.5], [12.0, 2.0]]
            .iter()
            .map(|x| curve.decode(x))
            .collect();
    // The last case runs the trace dry: every candidate fails alike.
    for (workload, departures) in [(&churned, 1_500), (&traced, 1_000), (&traced, 2_000)] {
        for replications in 1..=3 {
            let objective =
                DesObjective::new(workload.clone(), params, 9, replications, departures);
            let seeds = objective.seeds();
            let want: Vec<Result<u64, String>> = policies
                .iter()
                .map(|p| {
                    let mut sum = 0.0;
                    for &seed in seeds {
                        match workload.simulate(
                            p.as_ref(),
                            &params,
                            seed,
                            departures / 10,
                            departures,
                        ) {
                            Ok(r) => sum += r.mean_response,
                            Err(e) => return Err(format!("{}: {e}", p.name())),
                        }
                    }
                    Ok((sum / seeds.len() as f64).to_bits())
                })
                .collect();
            for threads in 1..=3 {
                sweep::set_threads(Some(threads));
                let got: Vec<Result<u64, String>> = objective
                    .evaluate_batch(&policies)
                    .into_iter()
                    .map(|v| v.map(f64::to_bits))
                    .collect();
                assert_eq!(
                    got, want,
                    "{} with {replications} replications on {threads} threads",
                    workload.name
                );
            }
        }
    }
    sweep::set_threads(None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_search_in_the_des_search_setting_is_pinned() {
    let (workload, params) = des_search_setting();
    let objective = DesObjective::new(workload, params, 3, 2, 2_000);
    let family = parse_family("curve", 4).unwrap();
    let budget = Budget {
        max_evals: 12,
        seed: 3,
    };
    let r = optimize(family.as_ref(), &objective, Method::Auto, &budget).unwrap();
    let bits: Vec<u64> = r.best_x.iter().map(|x| x.to_bits()).collect();
    assert_eq!(bits, [7.0f64.to_bits(), 4.0f64.to_bits()], "{:?}", r.best_x);
    // 4.341462550533258
    assert_eq!(
        r.best_value.to_bits(),
        4616574070708594040,
        "{}",
        r.best_value
    );
}
