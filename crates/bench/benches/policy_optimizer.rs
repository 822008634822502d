//! POLICY OPTIMIZER — per-workload optimality gaps and baseline
//! improvements for the search subsystem (`eirs-opt`).
//!
//! Two records, matching what is provable per workload:
//!
//! 1. **Poisson×exponential instances** spanning `ρ` and `k`: the search
//!    runs against the exact analytic objective and its best-found mean
//!    response is certified against `eirs_mdp::solve_optimal`'s MDP
//!    optimum. The acceptance bar is an optimality gap ≤ 1% on every
//!    instance.
//! 2. **Intractable workloads** (bursty batches, frozen trace-file
//!    replay): the search runs against the CRN-paired DES objective and
//!    the best-found policy is compared to the EF/IF baselines with a
//!    paired 95% CI (`eirs_sim::coupling::paired_comparison`); the bar is
//!    beating the *best* baseline with the whole interval below zero
//!    (exactly zero width for the deterministic trace replay, which is an
//!    exact comparison on that path).
//!
//! The run fails unless every instance clears its bar. Results go to
//! `BENCH_policy_optimizer.json` at the workspace root. Under
//! `EIRS_BENCH_SMOKE=1` (CI) it runs at full size and the artifact is
//! not written.
//!
//! Run: `cargo bench -p eirs-bench --bench policy_optimizer`

use eirs_bench::json::run_metadata;
use eirs_bench::section;
use eirs_core::analysis::{analyze_policy_with, AnalyzeOptions};
use eirs_core::scenario::{ArrivalSpec, ServiceSpec, Workload};
use eirs_core::SystemParams;
use eirs_obs::Json;
use eirs_opt::objective::{AnalyticObjective, DesObjective, Objective};
use eirs_opt::optim::{optimize_refined, Budget, Method, OptReport};
use eirs_opt::space::{ParamSpace, SwitchingCurveFamily, TabularFamily, ThresholdFamily};
use eirs_opt::{certify_against_mdp, improvement_over_baselines};
use eirs_sim::arrivals::{ArrivalTrace, BurstyStream};
use eirs_sim::policy::{ElasticFirst, InelasticFirst};

const SEED: u64 = 42;

fn opts() -> AnalyzeOptions {
    AnalyzeOptions {
        phase_cap: 48,
        ..AnalyzeOptions::default()
    }
}

/// Two-stage search: the family-appropriate global method, then a
/// coordinate-pattern polish from the incumbent (`refine` extra budget).
fn search(
    space: &dyn ParamSpace,
    objective: &dyn Objective,
    budget: usize,
    refine: usize,
) -> OptReport {
    optimize_refined(
        space,
        objective,
        Method::Auto,
        &Budget {
            max_evals: budget,
            seed: SEED,
        },
        refine,
    )
    .expect("search")
}

fn main() -> Result<(), String> {
    let mut report = Json::object();
    report.set("schema", "eirs-bench-policy-optimizer/v1");
    report.set("hardware", run_metadata());
    report.set("seed", SEED);

    // ── Part 1: Poisson×exp instances, certified against the MDP ──────
    section("policy optimizer vs MDP optimum (Poisson x exp)");
    println!(
        "{:<12} {:>2} {:>5} {:>5} {:>5}  {:<12} {:>6}  {:>9} {:>9} {:>8}  {:>7}",
        "instance",
        "k",
        "rho",
        "mu_i",
        "mu_e",
        "family",
        "evals",
        "found",
        "mdp_opt",
        "gap%",
        "IF-opt"
    );

    struct PoissonInstance {
        name: &'static str,
        k: u32,
        rho: f64,
        mu_i: f64,
        mu_e: f64,
        family: Box<dyn ParamSpace>,
        budget: usize,
        refine: usize,
        grid: usize,
    }
    let instances = vec![
        PoissonInstance {
            name: "if-regime",
            k: 2,
            rho: 0.5,
            mu_i: 1.5,
            mu_e: 1.0,
            family: Box::new(ThresholdFamily { max_threshold: 16 }),
            budget: 20,
            refine: 0,
            grid: 48,
        },
        PoissonInstance {
            name: "boundary",
            k: 4,
            rho: 0.7,
            mu_i: 1.0,
            mu_e: 1.0,
            family: Box::new(SwitchingCurveFamily {
                max_intercept: 16,
                max_slope: 4.0,
            }),
            budget: 60,
            refine: 0,
            grid: 48,
        },
        PoissonInstance {
            name: "open-mid",
            k: 3,
            rho: 0.6,
            mu_i: 0.5,
            mu_e: 1.0,
            family: Box::new(TabularFamily {
                k: 3,
                grid_i: 3,
                grid_j: 3,
            }),
            budget: 300,
            refine: 300,
            grid: 48,
        },
        PoissonInstance {
            name: "open-high",
            k: 4,
            rho: 0.8,
            mu_i: 0.5,
            mu_e: 1.0,
            family: Box::new(TabularFamily {
                k: 4,
                grid_i: 4,
                grid_j: 4,
            }),
            budget: 500,
            refine: 600,
            grid: 48,
        },
    ];

    let mut poisson_rows = Vec::new();
    let mut worst_gap = 0.0f64;
    for inst in &instances {
        let params = SystemParams::with_equal_lambdas(inst.k, inst.mu_i, inst.mu_e, inst.rho)
            .expect("stable instance");
        let objective = AnalyticObjective::poisson_exp(params, opts());
        let r = search(inst.family.as_ref(), &objective, inst.budget, inst.refine);
        let cert = certify_against_mdp(&params, r.best_value, inst.grid).expect("certify");
        let ef = analyze_policy_with(&ElasticFirst, &params, &opts())
            .expect("EF")
            .mean_response;
        let if_ = analyze_policy_with(&InelasticFirst, &params, &opts())
            .expect("IF")
            .mean_response;
        let best_baseline = ef.min(if_);
        let improvement = (best_baseline - r.best_value) / best_baseline;
        worst_gap = worst_gap.max(cert.optimality_gap);

        println!(
            "{:<12} {:>2} {:>5} {:>5} {:>5}  {:<12} {:>6}  {:>9.4} {:>9.4} {:>8.3}  {:>7}",
            inst.name,
            inst.k,
            inst.rho,
            inst.mu_i,
            inst.mu_e,
            r.family,
            r.evaluations,
            r.best_value,
            cert.mdp_mean_response,
            100.0 * cert.optimality_gap,
            if cert.mdp_matches_inelastic_first {
                "yes"
            } else {
                "no"
            }
        );

        let mut row = Json::object();
        row.set("instance", inst.name)
            .set("k", inst.k as u64)
            .set("rho", inst.rho)
            .set("mu_i", inst.mu_i)
            .set("mu_e", inst.mu_e)
            .set("family", r.family.clone())
            .set("optimizer", r.optimizer.clone())
            .set("evaluations", r.evaluations)
            .set("best_policy", r.best_policy.clone())
            .set("best_params", r.best_params.clone())
            .set("best_mean_response", r.best_value)
            .set("ef_mean_response", ef)
            .set("if_mean_response", if_)
            .set("improvement_over_best_baseline", improvement)
            .set("mdp_mean_response", cert.mdp_mean_response)
            .set("mdp_grid", cert.grid)
            .set("optimality_gap", cert.optimality_gap)
            .set("gap_within_1pct", cert.optimality_gap <= 0.01)
            .set(
                "mdp_matches_inelastic_first",
                cert.mdp_matches_inelastic_first,
            );
        poisson_rows.push(row);
    }
    println!();
    println!(
        "worst optimality gap: {:.3}%   (acceptance bar: <= 1%)",
        100.0 * worst_gap
    );
    report.set("poisson_certified", poisson_rows);
    report.set("worst_optimality_gap", worst_gap);

    // ── Part 2: intractable workloads, paired improvement over EF/IF ──
    section("policy optimizer vs EF/IF baselines (intractable workloads)");

    // A frozen trace file: record a bursty sample path once and replay it
    // verbatim — classified Intractable (DES-only), and every comparison
    // on it is exact (the same path, zero-width "CI").
    let trace_params = SystemParams::with_equal_lambdas(3, 1.0, 1.0, 0.75).expect("stable");
    let trace_departures: u64 = 60_000;
    let trace_path = std::env::temp_dir().join("eirs_policy_optimizer_bench.trace");
    let trace_workload = Workload::new(
        ArrivalSpec::TraceFile {
            path: trace_path.clone(),
        },
        ServiceSpec::Exponential,
        ServiceSpec::Exponential,
    )
    .named("trace");
    {
        // Record past the replay consumption horizon (`horizon_hint` is
        // the consumers' formula; the 1.25 is recording-side slack).
        let horizon = 1.25
            * trace_workload.horizon_hint(&trace_params, trace_departures / 10, trace_departures);
        let mut source = BurstyStream::new(
            trace_params.total_lambda() / 4.0,
            1.0 - 1.0 / 4.0,
            0.5,
            Box::new(eirs_queueing::Exponential::new(trace_params.mu_i)),
            Box::new(eirs_queueing::Exponential::new(trace_params.mu_e)),
            SEED,
        );
        let trace = ArrivalTrace::record(&mut source, horizon);
        trace.save(&trace_path).expect("write bench trace");
    }

    struct DesInstance {
        name: &'static str,
        workload: Workload,
        params: SystemParams,
        family: TabularFamily,
        budget: usize,
        refine: usize,
        replications: usize,
        departures: u64,
        exact_replay: bool,
    }
    let des_instances = vec![
        DesInstance {
            name: "bursty",
            workload: Workload::new(
                ArrivalSpec::Bursty { mean_burst: 4.0 },
                ServiceSpec::Exponential,
                ServiceSpec::Exponential,
            )
            .named("bursty"),
            params: SystemParams::with_equal_lambdas(4, 0.7, 1.0, 0.7).expect("stable"),
            family: TabularFamily {
                k: 4,
                grid_i: 2,
                grid_j: 2,
            },
            budget: 100,
            refine: 60,
            replications: 8,
            departures: 60_000,
            exact_replay: false,
        },
        DesInstance {
            name: "trace",
            workload: trace_workload,
            params: trace_params,
            family: TabularFamily {
                k: 3,
                grid_i: 2,
                grid_j: 2,
            },
            budget: 100,
            refine: 60,
            replications: 2,
            departures: trace_departures,
            exact_replay: true,
        },
    ];

    let mut des_rows = Vec::new();
    let mut all_beat = true;
    for inst in &des_instances {
        let objective = DesObjective::new(
            inst.workload.clone(),
            inst.params,
            SEED,
            inst.replications,
            inst.departures,
        );
        let r = search(&inst.family, &objective, inst.budget, inst.refine);
        let best_policy = inst.family.decode(&r.best_x);
        let cert = improvement_over_baselines(
            &inst.workload,
            &inst.params,
            best_policy.as_ref(),
            SEED,
            inst.replications.max(2),
            inst.departures,
        )
        .expect("improvement certificate");
        all_beat &= cert.beats_best_baseline;

        println!(
            "{:<8} k={} rho={:.2} mu_i={} mu_e={}  {} evals  found E[T] = {:.4}",
            inst.name,
            inst.params.k,
            inst.params.load(),
            inst.params.mu_i,
            inst.params.mu_e,
            r.evaluations,
            cert.best_found_mean_response
        );
        for b in &cert.baselines {
            println!(
                "         vs {:<16} E[T] = {:.4}   paired diff {:+.4} +- {:.4}{}",
                b.name,
                b.mean_response,
                b.diff_mean,
                b.diff_ci_half_width,
                if b.improves { "  (improves)" } else { "" }
            );
        }
        println!(
            "         beats best baseline under the paired 95% CI: {}",
            if cert.beats_best_baseline {
                "yes"
            } else {
                "NO"
            }
        );

        let mut row = Json::object();
        row.set("workload", inst.name)
            .set("k", inst.params.k as u64)
            .set("rho", inst.params.load())
            .set("mu_i", inst.params.mu_i)
            .set("mu_e", inst.params.mu_e)
            .set("family", r.family.clone())
            .set("optimizer", r.optimizer.clone())
            .set("evaluations", r.evaluations)
            .set("best_policy", r.best_policy.clone())
            .set("best_params", r.best_params.clone())
            .set("best_mean_response", cert.best_found_mean_response)
            .set("des_replications", inst.replications)
            .set("des_departures_each", inst.departures)
            .set("exact_replay", inst.exact_replay);
        let mut baselines = Vec::new();
        for b in &cert.baselines {
            let mut o = Json::object();
            o.set("policy", b.name.clone())
                .set("mean_response", b.mean_response)
                .set("paired_diff_mean", b.diff_mean)
                .set("paired_diff_ci_half_width", b.diff_ci_half_width)
                .set("improves", b.improves);
            baselines.push(o);
        }
        row.set("baselines", baselines)
            .set("beats_best_baseline", cert.beats_best_baseline);
        des_rows.push(row);
    }
    println!();
    println!(
        "all intractable instances beat the best fixed baseline: {}",
        if all_beat { "yes" } else { "NO" }
    );
    report.set("intractable_improvement", des_rows);
    report.set("all_intractable_beat_best_baseline", all_beat);
    let _ = std::fs::remove_file(&trace_path);
    assert!(
        worst_gap <= 0.01,
        "worst optimality gap {:.3}% exceeds 1%",
        100.0 * worst_gap
    );
    assert!(
        all_beat,
        "an intractable instance does not beat the best baseline"
    );

    eirs_bench::json::write_artifact("BENCH_policy_optimizer.json", report)
}
