//! WORKLOAD SCENARIOS — the policy × workload agreement record.
//!
//! The paper evaluates its policies under Poisson arrivals and exponential
//! service only. This harness runs every shipped workload scenario family
//! (Poisson baseline, Markov-modulated MAP, batch-bursty, trace-file
//! replay, and the non-exponential service shapes) against a spread of
//! policy families, recording for each `(workload, policy)` pair:
//!
//! 1. DES replications on decorrelated seed streams (mean ± 95% CI) —
//!    always available;
//! 2. the matching analytic chain, where one exists: the policy-generic
//!    QBD (Poisson×exp), the MAP-phase-extended QBD (MAP×exp), or the
//!    MAP/PH/1 chain (elastic-only phase-type service);
//!
//! and whether the analysis landed inside the replication CI — the
//! machine-readable version of the acceptance criterion "for every
//! analytically tractable (workload, policy) pair the analysis result
//! lands inside the DES replication CI". The run fails unless every
//! tractable pair does. Results go to `BENCH_workload_scenarios.json` at
//! the workspace root. Under `EIRS_BENCH_SMOKE=1` (CI) it runs at full
//! size and the artifact is not written.
//!
//! Run: `cargo bench -p eirs-bench --bench workload_scenarios`

use eirs_bench::json::run_metadata;
use eirs_bench::{row, section};
use eirs_core::analysis::AnalyzeOptions;
use eirs_core::experiments::{scenario_sweep, ScenarioSweepConfig};
use eirs_core::policy::parse_policy;
use eirs_core::scenario;
use eirs_core::SystemParams;
use eirs_obs::Json;

const K: u32 = 4;
/// The open `µ_I < µ_E` regime (Section 6), where policies actually
/// differ; same operating point as the `policy_families` bench.
const MU_I: f64 = 0.5;
const MU_E: f64 = 1.0;
const RHO: f64 = 0.6;
const REPS: usize = 8;
const DEPARTURES: u64 = 200_000;

fn main() -> Result<(), String> {
    let params = SystemParams::with_equal_lambdas(K, MU_I, MU_E, RHO).expect("stable");
    let workloads = scenario::registry();
    let policy_specs = ["if", "ef", "fairshare", "threshold:3", "waterfill:2"];
    let policies: Vec<_> = policy_specs
        .iter()
        .map(|s| parse_policy(s).expect("registry spec"))
        .collect();
    let opts = AnalyzeOptions {
        phase_cap: 48,
        ..AnalyzeOptions::default()
    };
    let cfg = ScenarioSweepConfig {
        replications: REPS,
        departures: DEPARTURES,
        warmup: DEPARTURES / 10,
        base_seed: 42,
    };

    section(&format!(
        "workload scenarios, analysis vs DES (k = {K}, µI = {MU_I}, µE = {MU_E}, ρ = {RHO})"
    ));
    let widths = [20, 26, 12, 10, 18, 6];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "policy".into(),
                "tractability".into(),
                "analysis".into(),
                "des (95% CI)".into(),
                "in CI".into(),
            ],
            &widths
        )
    );

    let points =
        scenario_sweep(&workloads, &policies, &params, &opts, &cfg).expect("scenario sweep");

    let mut rows_json = Vec::new();
    let mut tractable = 0usize;
    let mut inside = 0usize;
    for pt in &points {
        let analysis_cell = pt
            .analysis_mean_response
            .map(|m| format!("{m:.4}"))
            .unwrap_or_else(|| "-".into());
        let in_ci_cell = match pt.analysis_inside_ci {
            Some(true) => "yes".to_string(),
            Some(false) => "NO".to_string(),
            None => "-".into(),
        };
        println!(
            "{}",
            row(
                &[
                    pt.workload.clone(),
                    pt.policy.clone(),
                    format!("{:?}", pt.tractability),
                    analysis_cell,
                    format!("{:.4} +- {:.4}", pt.des_mean_response, pt.des_ci_half_width),
                    in_ci_cell,
                ],
                &widths
            )
        );
        if let Some(ok) = pt.analysis_inside_ci {
            tractable += 1;
            if ok {
                inside += 1;
            }
        }
        let mut r = Json::object();
        r.set("workload", pt.workload.clone())
            .set("policy", pt.policy.clone())
            .set("tractability", format!("{:?}", pt.tractability))
            .set("des_mean_response", pt.des_mean_response)
            .set("des_ci_half_width", pt.des_ci_half_width)
            .set("des_replications", pt.des_replications as u64)
            .set("analysis_mean_response", pt.analysis_mean_response)
            .set("analysis_inside_des_ci", pt.analysis_inside_ci);
        rows_json.push(r);
    }

    println!();
    println!(
        "tractable pairs: {tractable} of {}   analysis inside CI: {inside}/{tractable}",
        points.len()
    );

    let mut report = Json::object();
    report.set("schema", "eirs-bench-workload-scenarios/v1");
    report.set("hardware", run_metadata());
    report.set("k", K as u64);
    report.set("mu_i", MU_I);
    report.set("mu_e", MU_E);
    report.set("rho", RHO);
    report.set("des_replications", REPS as u64);
    report.set("des_departures_each", DEPARTURES);
    report.set("tractable_pairs", tractable as u64);
    report.set("tractable_pairs_inside_ci", inside as u64);
    report.set("rows", rows_json);
    assert_eq!(
        inside,
        tractable,
        "analysis outside the DES confidence interval on {} tractable pairs",
        tractable - inside
    );

    eirs_bench::json::write_artifact("BENCH_workload_scenarios.json", report)
}
