//! POLICY FAMILIES — the cross-substrate agreement record.
//!
//! For every shipped policy family (strict-priority EF/IF, elastic
//! threshold, switching curve, weighted water-filling, fair share, and the
//! MDP-optimal `TabularPolicy`) this harness evaluates the **same policy
//! on three independent substrates**:
//!
//! 1. the policy-generic QBD analysis (`eirs_core::analysis::analyze_policy`),
//!    fanned over the parameter points through the parallel sweep engine;
//! 2. DES replications on decorrelated seed streams (mean ± 95% CI);
//! 3. the truncated-grid CTMC evaluator (`eirs_mdp::evaluate_policy`).
//!
//! and records the agreement into `BENCH_policy_families.json` at the
//! workspace root (under `EIRS_BENCH_SMOKE=1`, CI's run, it runs at full
//! size and writes nothing), failing unless every analysis lies inside
//! its DES interval. The
//! substrates share nothing beyond the policy's allocation map, so
//! agreement is a strong mutual check — the machine-readable version of
//! the acceptance criterion "analytical mean response time agrees with
//! DES within replication confidence intervals".
//!
//! Run: `cargo bench -p eirs-bench --bench policy_families`

use eirs_bench::json::run_metadata;
use eirs_bench::{row, section};
use eirs_core::analysis::AnalyzeOptions;
use eirs_core::experiments::policy_sweep;
use eirs_core::policy::{parse_policy, AllocationPolicy};
use eirs_core::SystemParams;
use eirs_mdp::{evaluate_policy, solve_optimal, MdpConfig};
use eirs_obs::Json;
use eirs_sim::replicate::run_markovian_replications;
use eirs_sim::stats::ReplicationStats;

const K: u32 = 4;
/// The open `µ_I < µ_E` regime (Section 6), where the families actually
/// differ and the MDP-optimal policy is not IF.
const MU_I: f64 = 0.5;
const MU_E: f64 = 1.0;
const RHOS: [f64; 2] = [0.5, 0.7];
const REPS: usize = 8;
const DEPARTURES: u64 = 200_000;

fn des_interval(policy: &dyn AllocationPolicy, p: &SystemParams, seed: u64) -> (f64, f64) {
    let reports = run_markovian_replications(
        policy,
        p.k,
        p.lambda_i,
        p.lambda_e,
        p.mu_i,
        p.mu_e,
        seed,
        REPS,
        DEPARTURES / 10,
        DEPARTURES,
    );
    let stats: ReplicationStats = reports.iter().map(|r| r.mean_response).collect();
    let ci = stats.confidence_interval();
    (ci.mean, ci.half_width)
}

fn mdp_grid_response(policy: &dyn AllocationPolicy, p: &SystemParams) -> f64 {
    let cfg = MdpConfig {
        k: p.k,
        lambda_i: p.lambda_i,
        lambda_e: p.lambda_e,
        mu_i: p.mu_i,
        mu_e: p.mu_e,
        max_i: 70,
        max_j: 70,
        allow_idling: false,
    };
    let g = evaluate_policy(&cfg, policy, 1e-8, 400_000).expect("grid evaluation");
    g / p.total_lambda()
}

fn main() -> Result<(), String> {
    let specs = [
        "if",
        "ef",
        "fairshare",
        "threshold:3",
        "curve:2+1i",
        "waterfill:2",
    ];
    let opts = AnalyzeOptions {
        phase_cap: 48,
        ..AnalyzeOptions::default()
    };
    let points: Vec<SystemParams> = RHOS
        .iter()
        .map(|&rho| SystemParams::with_equal_lambdas(K, MU_I, MU_E, rho).expect("stable"))
        .collect();

    let mut report = Json::object();
    report.set("schema", "eirs-bench-policy-families/v1");
    report.set("hardware", run_metadata());
    let mut rows_json = Vec::new();
    let mut outside_ci = Vec::new();

    section(&format!(
        "policy families, cross-substrate agreement (k = {K}, µI = {MU_I}, µE = {MU_E})"
    ));
    let widths = [26, 5, 10, 18, 10, 9, 9];
    println!(
        "{}",
        row(
            &[
                "policy".into(),
                "rho".into(),
                "analysis".into(),
                "des (95% CI)".into(),
                "mdp-grid".into(),
                "in CI".into(),
                "|a-g|/g".into(),
            ],
            &widths
        )
    );

    let mut policies: Vec<Box<dyn AllocationPolicy>> = specs
        .iter()
        .map(|s| parse_policy(s).expect("registry spec"))
        .collect();
    // The MDP-optimal policy per load, through the TabularPolicy bridge.
    // (Solved on the same grid the evaluator uses, so boundary artifacts
    // cancel; the analysis and DES see the clamped extension.)
    for p in &points {
        let cfg = MdpConfig {
            k: p.k,
            lambda_i: p.lambda_i,
            lambda_e: p.lambda_e,
            mu_i: p.mu_i,
            mu_e: p.mu_e,
            max_i: 70,
            max_j: 70,
            allow_idling: false,
        };
        let opt = solve_optimal(&cfg, 1e-8, 400_000).expect("MDP solve");
        policies.push(Box::new(opt.tabular_policy()));
    }

    for (pi, policy) in policies.iter().enumerate() {
        // MDP tabular policies are load-specific: evaluate each only at
        // the point it was solved for.
        let point_set: Vec<&SystemParams> = if pi < specs.len() {
            points.iter().collect()
        } else {
            vec![&points[pi - specs.len()]]
        };
        let owned: Vec<SystemParams> = point_set.iter().map(|p| **p).collect();
        let analyzed = policy_sweep(policy.as_ref(), &owned, &opts).expect("analysis");
        for (p, a) in owned.iter().zip(&analyzed) {
            let analytic = a.analysis.mean_response;
            let (des_mean, des_hw) = des_interval(policy.as_ref(), p, 42 + pi as u64);
            let grid = mdp_grid_response(policy.as_ref(), p);
            let in_ci = (analytic - des_mean).abs() <= des_hw;
            if !in_ci {
                outside_ci.push(format!("{} at rho {:.2}", policy.name(), p.load()));
            }
            let grid_rel = (analytic - grid).abs() / grid;
            println!(
                "{}",
                row(
                    &[
                        policy.name(),
                        format!("{:.2}", p.load()),
                        format!("{analytic:.4}"),
                        format!("{des_mean:.4} +- {des_hw:.4}"),
                        format!("{grid:.4}"),
                        format!("{in_ci}"),
                        format!("{grid_rel:.1e}"),
                    ],
                    &widths
                )
            );
            let mut r = Json::object();
            r.set("policy", policy.name())
                .set("rho", p.load())
                .set("analysis_mean_response", analytic)
                .set("des_mean_response", des_mean)
                .set("des_ci_half_width", des_hw)
                .set("mdp_grid_mean_response", grid)
                .set("analysis_inside_des_ci", in_ci)
                .set("analysis_vs_grid_rel_err", grid_rel);
            rows_json.push(r);
        }
    }

    report.set("k", K as u64);
    report.set("mu_i", MU_I);
    report.set("mu_e", MU_E);
    report.set("des_replications", REPS);
    report.set("des_departures_each", DEPARTURES);
    report.set("rows", rows_json);
    assert!(
        outside_ci.is_empty(),
        "analysis outside the DES confidence interval: {outside_ci:?}"
    );

    eirs_bench::json::write_artifact("BENCH_policy_families.json", report)
}
