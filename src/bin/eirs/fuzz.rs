//! `eirs fuzz`: the seeded scenario fuzzer. Random (workload, policy)
//! cells go through every differential oracle of `eirs_core::fuzz`,
//! plus the optimizer oracle injected here; `--replay <token>` re-runs
//! one flagged cell.

use crate::flags;
use eirs_repro::cli::CliArgs;
use eirs_repro::core::fuzz::{self, CellOracle, CellReport, CellSpec, Flag, FuzzConfig};
use eirs_repro::core::policy::parse_policy;
use eirs_repro::core::prelude::*;
use eirs_repro::core::sweep;
use eirs_repro::obs::Json;
use eirs_repro::opt;

/// The `eirs_opt` oracle the fuzz command injects above `eirs_core::fuzz`.
/// On tractable cells it runs a small analytic search over the threshold
/// family and checks two things: (a) **search correctness** — the search
/// result must match a brute-force scan of the family's own integer grid
/// (the sharp check: there is no expressiveness excuse against your own
/// family); and (b) **baselines** — EF/IF must not beat the winner by
/// more than 2% (the threshold family only reaches IF as the threshold
/// → ∞, so a small expressiveness gap is legitimate; a real optimizer
/// regression loses far more).
struct OptimizerOracle;

impl CellOracle for OptimizerOracle {
    fn name(&self) -> &str {
        "optimizer-vs-baseline"
    }

    fn check(&self, cell: &CellSpec) -> Result<(), String> {
        let Ok((workload, policy, params)) = cell.build() else {
            return Ok(()); // spec-parse oracle owns build failures
        };
        if workload.tractability(policy.as_ref(), &params) == Tractability::Intractable {
            return Ok(());
        }
        let objective: Box<dyn opt::Objective> = Box::new(opt::AnalyticObjective::new(
            workload.clone(),
            params,
            AnalyzeOptions::default(),
        ));
        let Ok(family) = opt::parse_family("threshold", params.k) else {
            return Ok(());
        };
        let budget = opt::Budget {
            max_evals: 16,
            seed: cell.seed,
        };
        let Ok(report) = opt::optimize_refined(
            family.as_ref(),
            objective.as_ref(),
            opt::Method::Auto,
            &budget,
            4,
        ) else {
            return Ok(()); // analysis failures are the analysis oracle's job
        };

        // (a) Search correctness: brute-force the integer threshold grid
        // through the same objective; the search must match its best.
        let grid: Vec<Box<dyn AllocationPolicy>> = (1..=16usize)
            .filter_map(|t| parse_policy(&format!("threshold:{t}")).ok())
            .collect();
        let mut grid_best = f64::INFINITY;
        for v in objective.evaluate_batch(&grid) {
            let Ok(val) = v else { return Ok(()) };
            if val.is_finite() {
                grid_best = grid_best.min(val);
            }
        }
        if grid_best.is_finite() && report.best_value > grid_best * (1.0 + 1e-9) {
            return Err(format!(
                "optimizer missed its own family's grid optimum: brute-force threshold scan \
                 E[T]={grid_best:.9} vs optimized {:.9} ({})",
                report.best_value, report.best_params
            ));
        }

        // (b) Baselines: EF/IF must not beat the winner beyond the
        // family's expressiveness gap.
        let baselines: Vec<Box<dyn AllocationPolicy>> =
            vec![Box::new(ElasticFirst), Box::new(InelasticFirst)];
        let mut best_baseline = f64::INFINITY;
        let mut best_name = "";
        for (b, v) in baselines.iter().zip(objective.evaluate_batch(&baselines)) {
            let Ok(val) = v else { return Ok(()) };
            if val.is_finite() && val < best_baseline {
                best_baseline = val;
                best_name = if b.name().starts_with('E') {
                    "EF"
                } else {
                    "IF"
                };
            }
        }
        if best_baseline.is_finite() && report.best_value > best_baseline * (1.0 + 0.02) {
            return Err(format!(
                "baseline {best_name} beats the optimizer: E[T]={best_baseline:.6} vs \
                 optimized {:.6} ({})",
                report.best_value, report.best_params
            ));
        }
        Ok(())
    }
}

/// Fuzz oracle flags as a JSON array.
fn flag_rows(raised: &[Flag]) -> Vec<Json> {
    raised
        .iter()
        .map(|f| {
            let mut o = Json::object();
            o.set("oracle", f.oracle.clone())
                .set("detail", f.detail.clone());
            o
        })
        .collect()
}

/// Human-readable analysis/DES numbers of one fuzz cell.
fn print_cell_numbers(report: &CellReport) {
    println!(
        "tractable: {}   analysis E[T]: {}   DES E[T]: {:.6} +- {:.6}",
        report.tractable,
        report
            .analysis_mean
            .map_or("n/a".to_string(), |a| format!("{a:.6}")),
        report.des_mean,
        report.ci_half_width
    );
}

/// The flags this command reads, by group.
pub const FLAGS: &[&[&str]] = &[&[
    "budget",
    "seed",
    "shrink",
    "reps",
    "departures",
    "warmup",
    "replay",
    "json",
]];

pub fn run(args: &CliArgs) -> Result<(), String> {
    let json = flags::json_mode(args)?;
    let cfg = FuzzConfig {
        budget: args.get_parsed_or("budget", 100usize)?,
        seed: args.get_parsed_or("seed", 1u64)?,
        shrink: args.get_parsed_or("shrink", true)?,
        threads: sweep::threads(),
        replications: args.get_parsed_or("reps", 4usize)?,
        departures: flags::departures(args, 8000)?,
        warmup: args.get_parsed_or("warmup", 800u64)?,
        ..FuzzConfig::default()
    };
    let oracle = OptimizerOracle;
    let extra: [&dyn CellOracle; 1] = [&oracle];

    // `--replay <token>` re-derives one flagged cell from its printed
    // token and re-runs every oracle on it — bit-identical across runs,
    // hosts, and thread counts.
    if let Some(token) = args.get("replay") {
        let seed = fuzz::parse_replay_token(token)?;
        let report = fuzz::check_cell(0, &CellSpec::from_seed(seed), &cfg, &extra);
        if json {
            let mut doc = Json::object();
            doc.set("schema", "eirs-fuzz-replay/v1")
                .set("token", report.token.clone())
                .set("spec", report.cell.render())
                .set("tractable", report.tractable)
                .set("analysis_mean", report.analysis_mean)
                .set("des_mean", report.des_mean)
                .set("ci_half_width", report.ci_half_width)
                .set("flags", flag_rows(&report.flags));
            print!("{}", doc.pretty());
        } else {
            println!("replay {}", report.token);
            println!("spec: {}", report.cell.render());
            print_cell_numbers(&report);
            if report.flags.is_empty() {
                println!("verdict: clean (every oracle passed)");
            } else {
                for f in &report.flags {
                    println!("FLAGGED [{}]: {}", f.oracle, f.detail);
                }
            }
        }
        if report.flags.is_empty() {
            return Ok(());
        }
        return Err(format!(
            "replayed cell {} still fails {} oracle(s)",
            report.token,
            report.flags.len()
        ));
    }

    if cfg.budget == 0 {
        return Err("--budget must be >= 1 (cells to fuzz)".into());
    }
    let report = fuzz::fuzz_run(&cfg, &extra);
    if json {
        let mut failures = Vec::new();
        for cell in report.cells.iter().filter(|c| !c.flags.is_empty()) {
            let mut f = Json::object();
            f.set("token", cell.token.clone())
                .set("spec", cell.cell.render())
                .set("flags", flag_rows(&cell.flags))
                .set(
                    "minimized_spec",
                    cell.minimized.as_ref().map(|(m, _)| m.render()),
                )
                .set("replay", format!("eirs fuzz --replay {}", cell.token));
            failures.push(f);
        }
        let mut doc = Json::object();
        doc.set("schema", "eirs-fuzz/v1")
            .set("seed", report.seed)
            .set("budget", cfg.budget)
            .set("replications", cfg.replications)
            .set("departures", cfg.departures)
            .set("tractable_cells", report.tractable)
            .set("flagged_cells", report.flagged)
            .set("shrink_evals", report.shrink_evals)
            .set("failures", failures);
        print!("{}", doc.pretty());
    } else {
        println!(
            "fuzz: seed={} budget={} reps={} departures={}",
            report.seed, cfg.budget, cfg.replications, cfg.departures
        );
        println!(
            "cells: {}   tractable: {}   flagged: {}   shrink evals: {}",
            report.cells.len(),
            report.tractable,
            report.flagged,
            report.shrink_evals
        );
        for cell in report.cells.iter().filter(|c| !c.flags.is_empty()) {
            println!("FLAGGED {}", cell.token);
            println!("  spec: {}", cell.cell.render());
            for f in &cell.flags {
                println!("  [{}] {}", f.oracle, f.detail);
            }
            if let Some((m, evals)) = &cell.minimized {
                println!("  minimized ({evals} evals): {}", m.render());
            }
            println!("  replay: eirs fuzz --replay {}", cell.token);
        }
        if report.flagged == 0 {
            println!("all cells clean: every oracle passed on every generated cell");
        }
    }
    if report.flagged > 0 {
        return Err(format!(
            "{} of {} fuzz cells flagged (replay with the printed tokens)",
            report.flagged, cfg.budget
        ));
    }
    Ok(())
}
