//! Bit pins for the two exact evaluators behind the paper's numbers: the
//! truncated-phase QBD chain of the general analysis route (Poisson and
//! MAP arrivals, Section 5 / Appendix D generalized) and the truncated-MDP
//! relative value iteration (policy evaluation and `solve_optimal`, the
//! Theorem 5 and Appendix B checks).
//!
//! Every pinned number is an `f64::to_bits`, taken at unequal arrival
//! rates (`λ_I = 0.7`, `λ_E = 0.6`), where the inelastic marking fraction
//! `f = λ_I / (λ_I + λ_E)` does not round-trip (`f·λ ≠ λ_I`): a chain
//! assembled from differently rounded rates, or a value iteration that
//! sums its terms in another order, fails here even when it agrees to
//! twelve digits.

use eirs_repro::core::analysis::{
    analyze_policy_map, analyze_policy_with, detect_structure, AnalyzeOptions, PolicyAnalysis,
    PolicyStructure,
};
use eirs_repro::core::policy::{parse_policy, AllocationPolicy};
use eirs_repro::core::scenario::registry;
use eirs_repro::core::SystemParams;
use eirs_repro::mdp::{evaluate_policy, solve_optimal, MdpConfig, MdpSolution};
use eirs_repro::queueing::MapProcess;

/// `k = 3`, `λ_I = 0.7`, `λ_E = 0.6`, `µ_I = 1`, `µ_E = 0.7`.
fn params() -> SystemParams {
    SystemParams::new(3, 0.7, 0.6, 1.0, 0.7).unwrap()
}

fn opts() -> AnalyzeOptions {
    AnalyzeOptions {
        phase_cap: 24,
        ..AnalyzeOptions::default()
    }
}

/// `(E[T], E[N_I], E[N_E])` as bits.
fn bits(a: &PolicyAnalysis) -> [u64; 3] {
    [
        a.mean_response.to_bits(),
        a.mean_num_inelastic.to_bits(),
        a.mean_num_elastic.to_bits(),
    ]
}

fn check(label: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got,
        want,
        "{label}: E[T] {}, E[N_I] {}, E[N_E] {}",
        f64::from_bits(got[0]),
        f64::from_bits(got[1]),
        f64::from_bits(got[2])
    );
}

#[test]
fn general_route_pins_unequal_rate_results() {
    let p = params();
    let cases: [(&str, [u64; 3]); 3] = [
        (
            "threshold:3",
            [
                4607653485688301256,
                4605521755615112620,
                4603762816416141504,
            ],
        ),
        (
            "curve:2+0.5i",
            [
                4607628642934424020,
                4605306451748211249,
                4603913529122962062,
            ],
        ),
        (
            "waterfill:1",
            [
                4607640833079406442,
                4605336034975243983,
                4603915640272883624,
            ],
        ),
    ];
    for (spec, want) in cases {
        let policy = parse_policy(spec).unwrap();
        assert_eq!(
            detect_structure(policy.as_ref(), p.k, &opts()),
            PolicyStructure::General,
            "{spec}"
        );
        let a = analyze_policy_with(policy.as_ref(), &p, &opts()).unwrap();
        check(spec, bits(&a), want);
    }
    let forced = AnalyzeOptions {
        force_general: true,
        ..opts()
    };
    let policy = parse_policy("if").unwrap();
    let a = analyze_policy_with(policy.as_ref(), &p, &forced).unwrap();
    check(
        "if, force_general",
        bits(&a),
        [
            4607534092763219030,
            4604581472508925910,
            4604392677917114427,
        ],
    );
}

#[test]
fn map_route_pins_the_registry_map_workload() {
    let p = params();
    let workload = registry().into_iter().find(|w| w.name == "map").unwrap();
    // The registry `map` workload's MMPP-2, normalized to λ_I + λ_E.
    let map = MapProcess::mmpp2(1.0, 1.0, 9.0, 1.0).scaled_to_rate(p.total_lambda());
    let cases: [(&str, [u64; 3]); 2] = [
        (
            "fairshare",
            [
                4610149414156227864,
                4607552977104940469,
                4607516434719008591,
            ],
        ),
        (
            "threshold:3",
            [
                4610394837279355999,
                4608668852776656204,
                4606256799414701457,
            ],
        ),
    ];
    for (spec, want) in cases {
        let policy = parse_policy(spec).unwrap();
        let a = analyze_policy_map(policy.as_ref(), &p, &map, &opts()).unwrap();
        check(spec, bits(&a), want);
        let via_workload = workload
            .analyze(policy.as_ref(), &p, &opts())
            .unwrap()
            .unwrap();
        assert_eq!(bits(&via_workload), bits(&a), "{spec} via the workload");
    }
}

/// The MDP grid at [`params`], truncated at 30 in both coordinates.
fn mdp_cfg(mu_i: f64, mu_e: f64, allow_idling: bool) -> MdpConfig {
    let p = params();
    MdpConfig {
        k: p.k,
        lambda_i: p.lambda_i,
        lambda_e: p.lambda_e,
        mu_i,
        mu_e,
        max_i: 30,
        max_j: 30,
        allow_idling,
    }
}

fn evaluate(cfg: &MdpConfig, policy: &dyn AllocationPolicy) -> f64 {
    evaluate_policy(cfg, policy, 1e-9, 400_000).unwrap()
}

#[test]
fn mdp_evaluation_pins_fixed_policies() {
    let cfg = mdp_cfg(1.0, 0.7, false);
    let cases: [(&str, u64); 4] = [
        ("if", 4608990675025246709),
        ("ef", 4610164354733375822),
        ("threshold:3", 4609145885345970554),
        ("waterfill:0.5", 4609045288301010995),
    ];
    for (spec, want) in cases {
        let g = evaluate(&cfg, parse_policy(spec).unwrap().as_ref());
        assert_eq!(g.to_bits(), want, "{spec}: E[N] {g}");
    }
}

/// FNV-1a over every state's action `(a, e)`, row-major over `(i, j)`.
fn action_digest(sol: &MdpSolution, cfg: &MdpConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..=cfg.max_i {
        for j in 0..=cfg.max_j {
            let (a, e) = sol.action(i, j);
            for byte in a.to_le_bytes().into_iter().chain(e.to_le_bytes()) {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn mdp_solve_pins_cost_iterations_and_actions() {
    // (µ_I, µ_E, allow_idling) → (average cost bits, iterations, digest):
    // the proved IF regime and the open µ_I < µ_E regime, each with and
    // without the idling vertices.
    let cases: [(f64, f64, bool, u64, usize, u64); 4] = [
        (
            1.0,
            0.7,
            false,
            4608990675025246709,
            670,
            11192494473489545014,
        ),
        (
            1.0,
            0.7,
            true,
            4608990675025246709,
            670,
            11192494473489545014,
        ),
        (
            0.4,
            1.0,
            false,
            4616239003197269016,
            3831,
            11484952323517294726,
        ),
        (
            0.4,
            1.0,
            true,
            4616239003197269016,
            3831,
            11484952323517294726,
        ),
    ];
    for (mu_i, mu_e, idling, cost_bits, iterations, digest) in cases {
        let cfg = mdp_cfg(mu_i, mu_e, idling);
        let sol = solve_optimal(&cfg, 1e-9, 400_000).unwrap();
        let got = (
            sol.average_cost.to_bits(),
            sol.iterations,
            action_digest(&sol, &cfg),
        );
        assert_eq!(
            got,
            (cost_bits, iterations, digest),
            "(µ_I {mu_i}, µ_E {mu_e}, idling {idling}): g = {}",
            sol.average_cost
        );
    }
}
