//! `eirs optimize`: search a policy family for the best allocation,
//! compare the winner with the fixed baselines, and certify it against
//! the MDP optimum where the model is the paper's Poisson × exp one.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::prelude::*;
use eirs_repro::obs::Json;
use eirs_repro::opt;

/// One baseline row of the report: display name, mean response, and —
/// on the DES backend — the paired comparison
/// `(diff_mean, diff_ci_half_width, improves)`.
type BaselineRow = (String, f64, Option<(f64, f64, bool)>);

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[
    flags::PARAMS,
    flags::WORKLOAD,
    &[
        "family",
        "method",
        "budget",
        "objective",
        "reps",
        "departures",
        "seed",
        "certify",
        "grid",
        "refine",
        "phase-cap",
        "json",
    ],
];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let p = flags::params(args)?;
    let json = flags::json_mode(args)?;
    let workload = flags::workload(args)?;
    let family = flags::family(args, p.k)?;
    let method = opt::parse_method(&args.get_or("method", "auto"))?;
    let budget = opt::Budget {
        max_evals: args.get_parsed_or("budget", 120usize)?,
        seed: args.get_parsed_or("seed", 42u64)?,
    };
    let opts = flags::analyze_options(args, 48)?;
    let reps = args.get_parsed_or("reps", 6usize)?;
    let departures = flags::departures(args, 50_000)?;
    let des = opt::DesBudget {
        base_seed: budget.seed,
        replications: reps,
        departures,
    };
    let probe = family.decode(&family.clamp(&family.initial()));
    let objective: Box<dyn opt::Objective> = match args.get_or("objective", "auto").as_str() {
        "auto" => opt::objective_for(&workload, &p, probe.as_ref(), &opts, &des),
        "analysis" => Box::new(opt::AnalyticObjective::new(workload.clone(), p, opts)),
        "des" => Box::new(opt::DesObjective::new(
            workload.clone(),
            p,
            des.base_seed,
            des.replications,
            des.departures,
        )),
        other => {
            return Err(format!(
                "unknown --objective '{other}' (expected auto, analysis, des)"
            ))
        }
    };
    // `--refine N` chains a coordinate-pattern polish after the main
    // method on N extra evaluations.
    let refine = args.get_parsed_or("refine", 0usize)?;
    let report =
        opt::optimize_refined(family.as_ref(), objective.as_ref(), method, &budget, refine)?;
    let best_policy = family.decode(&report.best_x);

    // Baselines: exact through the same objective when it is analytic,
    // CRN-paired DES otherwise.
    let analytic_backend = report.objective == "analysis";
    let mut improvement = None;
    let (baseline_rows, beats_best): (Vec<BaselineRow>, bool) = if analytic_backend {
        let baselines: Vec<Box<dyn AllocationPolicy>> =
            vec![Box::new(ElasticFirst), Box::new(InelasticFirst)];
        let scored = objective.evaluate_batch(&baselines);
        let mut rows = Vec::new();
        for (b, v) in baselines.iter().zip(scored) {
            rows.push((b.name(), v?, None));
        }
        let best_baseline = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        improvement = Some((best_baseline - report.best_value) / best_baseline);
        // Families only approach EF/IF asymptotically (a finite
        // threshold vs IF), so "beats" tolerates matching the strongest
        // baseline to within 0.1%; the signed improvement is reported
        // alongside.
        (rows, report.best_value <= best_baseline * (1.0 + 1e-3))
    } else {
        let cert = opt::improvement_over_baselines(
            &workload,
            &p,
            best_policy.as_ref(),
            budget.seed,
            reps.max(2),
            departures,
        )?;
        let rows = cert
            .baselines
            .iter()
            .map(|b| {
                (
                    b.name.clone(),
                    b.mean_response,
                    Some((b.diff_mean, b.diff_ci_half_width, b.improves)),
                )
            })
            .collect();
        (rows, cert.beats_best_baseline)
    };

    // Optimality certification against the MDP grid: meaningful exactly
    // when the workload is the paper's Poisson×exp model.
    let poisson_exp = workload.tractability(best_policy.as_ref(), &p) == Tractability::PoissonExp;
    let grid = args.get_parsed_or("grid", 48usize)?;
    let certificate = match args.get_or("certify", "auto").as_str() {
        "none" => None,
        "mdp" => Some(opt::certify_against_mdp(&p, report.best_value, grid)?),
        "auto" if poisson_exp => Some(opt::certify_against_mdp(&p, report.best_value, grid)?),
        "auto" => None,
        other => {
            return Err(format!(
                "unknown --certify '{other}' (expected auto, mdp, none)"
            ))
        }
    };

    if json {
        let mut best = Json::object();
        best.set("policy", report.best_policy.clone())
            .set("params", report.best_params.clone())
            .set("x", report.best_x.as_slice())
            .set("mean_response", report.best_value);
        let mut baselines = Vec::new();
        for (name, mean, paired) in &baseline_rows {
            let mut row = Json::object();
            row.set("policy", name.clone()).set("mean_response", *mean);
            if let Some((diff, hw, improves)) = paired {
                row.set("paired_diff_mean", *diff)
                    .set("paired_diff_ci_half_width", *hw)
                    .set("improves", *improves);
            }
            baselines.push(row);
        }
        let mut doc = Json::object();
        doc.set("schema", "eirs-optimize/v1")
            .set("params", flags::params_json(&p))
            .set("workload", workload.name.clone())
            .set("family", report.family.clone())
            .set("optimizer", report.optimizer.clone())
            .set("objective", report.objective.clone())
            .set("budget", budget.max_evals)
            .set("seed", budget.seed)
            .set("evaluations", report.evaluations)
            .set("best", best)
            .set("baselines", baselines)
            .set("improvement_over_best_baseline", improvement)
            .set("beats_best_baseline", beats_best)
            .set(
                "mdp_certificate",
                certificate.as_ref().map(|c| {
                    let mut o = Json::object();
                    o.set("mdp_mean_response", c.mdp_mean_response)
                        .set("optimality_gap", c.optimality_gap)
                        .set("mdp_matches_inelastic_first", c.mdp_matches_inelastic_first)
                        .set("grid", c.grid)
                        .set("window", c.window);
                    o
                }),
            );
        print!("{}", doc.pretty());
        return Ok(());
    }

    println!(
        "optimize: family={} workload={} objective={} optimizer={}",
        report.family, workload.name, report.objective, report.optimizer
    );
    println!("          ({})", flags::params_line(&p));
    println!(
        "search:   {} evaluations (budget {}{}, seed {})",
        report.evaluations,
        budget.max_evals,
        if refine > 0 {
            format!(" + {refine} refine")
        } else {
            String::new()
        },
        budget.seed
    );
    println!(
        "best:     {}   [{}]   E[T] = {:.4}",
        report.best_policy, report.best_params, report.best_value
    );
    for (name, mean, paired) in &baseline_rows {
        match paired {
            None => println!("baseline: {name:<16} E[T] = {mean:.4}"),
            Some((diff, hw, improves)) => println!(
                "baseline: {name:<16} E[T] = {mean:.4}   paired diff {diff:+.4} +- {hw:.4}{}",
                if *improves { "  (improves)" } else { "" }
            ),
        }
    }
    match improvement {
        Some(impr) => println!(
            "verdict:  {:+.3}% vs the strongest fixed baseline ({})",
            100.0 * impr,
            if beats_best {
                "beats or matches within 0.1%"
            } else {
                "does NOT beat"
            }
        ),
        None => println!(
            "verdict:  best-found {} the strongest fixed baseline (95% paired CI)",
            if beats_best { "beats" } else { "does NOT beat" }
        ),
    }
    if let Some(c) = &certificate {
        println!(
            "certificate: MDP optimum E[T] = {:.4} (grid {})   optimality gap = {:.3}%   \
             MDP matches IF: {}",
            c.mdp_mean_response,
            c.grid,
            100.0 * c.optimality_gap,
            if c.mdp_matches_inelastic_first {
                "yes"
            } else {
                "no"
            }
        );
    }
    Ok(())
}
