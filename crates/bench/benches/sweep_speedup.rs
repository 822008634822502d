//! PERF — the sweep-engine and hot-path speedup record.
//!
//! Measures, on the current machine:
//!
//! 1. the Figure 4 heat-map grid (3 loads × 196 (µ_I, µ_E) cells, two QBD
//!    analyses per cell) as a **1/2/4/8-thread scaling table**, for both
//!    the cold driver and the warm-started driver (each grid row seeds the
//!    next cell's R solve from its neighbor), verifying on the way that
//!    every parallel run is **bit-identical** to its serial counterpart;
//! 2. the warm-vs-cold serial ablation and the combined improvement over
//!    the committed PR-1 serial baseline;
//! 3. kernel micro-ablations: the L1-tiled `mul_into` vs the retained
//!    naive reference, and the panel-blocked LU vs the retained unblocked
//!    reference, at dimensions past the tile/panel sizes;
//! 4. single-threaded QBD `R`-matrix solves: the allocation-free workspace
//!    path vs the allocation-per-step reference implementation;
//! 5. parallel vs serial simulation replications (per-replication seed
//!    streams).
//!
//! Results print as text and are written to `BENCH_sweeps.json` at the
//! workspace root so the perf trajectory is recorded PR over PR. Set
//! `EIRS_BENCH_SMOKE=1` to run a tiny-iteration smoke pass (CI): every
//! section executes, correctness gates still assert, but the artifact is
//! **not** rewritten, so a 1-sample run never pollutes the trajectory.
//!
//! Run: `cargo bench -p eirs-bench --bench sweep_speedup`

use eirs_bench::harness::{pretty_seconds, Bench, Measurement};
use eirs_bench::section;
use eirs_core::experiments::{
    figure4_heatmap_serial, figure4_heatmap_warm_serial, figure4_heatmap_warm_with_threads,
    figure4_heatmap_with_threads, HeatMapCell,
};
use eirs_markov::{Qbd, QbdWorkspace, RSolver};
use eirs_numerics::lu::LuDecomposition;
use eirs_numerics::Matrix;
use eirs_obs::Json;
use eirs_sim::des::run_markovian;
use eirs_sim::policy::InelasticFirst;
use eirs_sim::replicate::run_replications_with_threads;

const RHOS: [f64; 3] = [0.5, 0.7, 0.9];
const K: u32 = 4;

/// Thread counts of the scaling table; the metadata block reports the
/// maximum as the thread count this bench drove.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Median serial time of the Figure 4 grid in the committed PR-1
/// `BENCH_sweeps.json` (same grid, same cell count, cold solver, no
/// workspace pooling). The combined-improvement row below is measured
/// against this number.
const PR1_BASELINE_SERIAL_MEDIAN_S: f64 = 0.022564941;

fn smoke() -> bool {
    std::env::var_os("EIRS_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

fn grid_cells(threads: usize, warm: bool) -> Vec<HeatMapCell> {
    RHOS.iter()
        .flat_map(|&rho| match (warm, threads) {
            (false, 1) => figure4_heatmap_serial(K, rho).expect("grid solves"),
            (false, t) => figure4_heatmap_with_threads(K, rho, t).expect("grid solves"),
            (true, 1) => figure4_heatmap_warm_serial(K, rho).expect("grid solves"),
            (true, t) => figure4_heatmap_warm_with_threads(K, rho, t).expect("grid solves"),
        })
        .collect()
}

fn cells_bit_identical(a: &[HeatMapCell], b: &[HeatMapCell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.comparison.mrt_if.to_bits() == y.comparison.mrt_if.to_bits()
                && x.comparison.mrt_ef.to_bits() == y.comparison.mrt_ef.to_bits()
                && x.comparison.winner == y.comparison.winner
        })
}

/// An M/E_p/1 QBD (Erlang-p service tracked by phase): phase dimension `p`,
/// stable for `lambda < mu`. Exercises the R iterations at a controllable
/// phase dimension.
fn erlang_qbd(p: usize, lambda: f64, mu: f64) -> Qbd {
    let stage_rate = p as f64 * mu;
    let a0 = Matrix::identity(p).scaled(lambda);
    let mut a1 = Matrix::zeros(p, p);
    for i in 0..p - 1 {
        a1[(i, i + 1)] = stage_rate;
    }
    let mut a2 = Matrix::zeros(p, p);
    a2[(p - 1, 0)] = stage_rate;
    let mut u0 = Matrix::zeros(p, p);
    for i in 0..p {
        u0[(i, 0)] = lambda;
    }
    Qbd::new(vec![u0], vec![Matrix::zeros(p, p)], vec![], a0, a1, a2).expect("valid blocks")
}

/// Deterministic dense test matrix for the kernel ablations.
fn kernel_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(i, j)] = ((*seed >> 11) as f64) / ((1u64 << 52) as f64) - 1.0;
        }
    }
    m
}

fn main() {
    let smoke = smoke();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples = if smoke { 1 } else { 5 };
    let max_threads = *SCALING_THREADS.last().unwrap();
    let mut report = Json::object();
    report.set("schema", "eirs-bench-sweeps/v2");
    report.set(
        "hardware",
        eirs_bench::json::run_metadata_with_threads(max_threads),
    );
    if smoke {
        section("EIRS_BENCH_SMOKE: tiny-iteration smoke pass, artifact will not be rewritten");
    }

    // ---- 1. Figure 4 grid: cold/warm × 1/2/4/8-thread scaling table ---
    section(&format!(
        "Figure 4 grid sweep (k = {K}, rho in {RHOS:?}, 588 cells, 1176 QBD analyses)"
    ));
    let serial_cold = grid_cells(1, false);
    let serial_warm = grid_cells(1, true);
    for &t in &SCALING_THREADS[1..] {
        let cold_ok = cells_bit_identical(&serial_cold, &grid_cells(t, false));
        let warm_ok = cells_bit_identical(&serial_warm, &grid_cells(t, true));
        assert!(cold_ok, "cold parallel sweep diverged from serial at t={t}");
        assert!(warm_ok, "warm parallel sweep diverged from serial at t={t}");
    }
    println!("  parallel output bit-identical to serial (cold and warm): true");

    // Headline grid timings gate the recorded artifact, so each sample is
    // the min of 3 back-to-back reps (see `Bench::time_min_of`): the grid
    // is deterministic CPU-bound work, and the min-of-reps floor is the
    // statistic that survives bursty scheduler noise on shared hosts.
    let grid_reps = if smoke { 1 } else { 3 };
    let mut bench = Bench::with_samples(samples);
    let mut cold_runs: Vec<Measurement> = Vec::new();
    let mut warm_runs: Vec<Measurement> = Vec::new();
    for &t in &SCALING_THREADS {
        cold_runs.push(
            bench
                .time_min_of(&format!("figure4_grid_cold_t{t}"), 1, grid_reps, || {
                    grid_cells(t, false)
                })
                .clone(),
        );
    }
    for &t in &SCALING_THREADS {
        warm_runs.push(
            bench
                .time_min_of(&format!("figure4_grid_warm_t{t}"), 1, grid_reps, || {
                    grid_cells(t, true)
                })
                .clone(),
        );
    }
    let warm_over_cold_serial = cold_runs[0].median_s / warm_runs[0].median_s;
    let improvement_vs_pr1 = PR1_BASELINE_SERIAL_MEDIAN_S / warm_runs[0].median_s;

    println!("  threads  cold median   speedup   warm median   speedup");
    let mut scaling_rows = Vec::new();
    for (i, &t) in SCALING_THREADS.iter().enumerate() {
        let cold_speedup = cold_runs[0].median_s / cold_runs[i].median_s;
        let warm_speedup = warm_runs[0].median_s / warm_runs[i].median_s;
        println!(
            "  {t:>7}  {:>11}  {cold_speedup:>6.2}x  {:>11}  {warm_speedup:>6.2}x",
            pretty_seconds(cold_runs[i].median_s),
            pretty_seconds(warm_runs[i].median_s),
        );
        let mut row = Json::object();
        row.set("threads", t)
            .set("cold", &cold_runs[i])
            .set("warm", &warm_runs[i])
            .set("cold_speedup_vs_serial", cold_speedup)
            .set("warm_speedup_vs_serial", warm_speedup);
        scaling_rows.push(row);
    }
    println!(
        "  warm-start ablation (serial): {warm_over_cold_serial:.2}x over cold; \
         combined vs PR-1 baseline ({PR1_BASELINE_SERIAL_MEDIAN_S} s): {improvement_vs_pr1:.2}x \
         (machine has {cores} cores)"
    );
    let mut fig4 = Json::object();
    fig4.set("cells", serial_cold.len())
        .set("qbd_analyses", 2 * serial_cold.len())
        .set("bit_identical", true)
        .set("scaling", scaling_rows)
        .set("warm_over_cold_serial", warm_over_cold_serial)
        .set("pr1_baseline_serial_median_s", PR1_BASELINE_SERIAL_MEDIAN_S)
        .set("improvement_vs_pr1_baseline", improvement_vs_pr1);
    report.set("figure4_grid", fig4);

    // ---- 2. Kernel ablations: tiled mul, panel-blocked LU -------------
    section("kernel ablations: tiled vs naive mul_into, blocked vs unblocked LU");
    let mut seed = 0x5EED_u64;
    let mut mul_rows = Vec::new();
    let mul_dims: [(usize, usize, usize, u64); 2] = [(64, 64, 64, 40), (160, 160, 160, 4)];
    for (m, k, n, iters) in mul_dims {
        let iters = if smoke { 1 } else { iters };
        let a = kernel_matrix(m, k, &mut seed);
        let b = kernel_matrix(k, n, &mut seed);
        let mut out = Matrix::zeros(m, n);
        let mut bk = Bench::with_samples(samples);
        let naive = bk
            .time(&format!("mul_naive_{m}x{k}x{n}"), iters, || {
                a.mul_into_naive(&b, &mut out)
            })
            .clone();
        let tiled = bk
            .time(&format!("mul_tiled_{m}x{k}x{n}"), iters, || {
                a.mul_into(&b, &mut out)
            })
            .clone();
        let speedup = naive.median_s / tiled.median_s;
        println!("  mul {m}x{k}x{n}: tiled {speedup:.2}x over naive");
        let mut row = Json::object();
        row.set("dims", format!("{m}x{k}x{n}"))
            .set("naive", &naive)
            .set("tiled", &tiled)
            .set("speedup", speedup);
        mul_rows.push(row);
    }
    let mut lu_rows = Vec::new();
    let lu_dims: [(usize, u64); 2] = [(96, 20), (320, 2)];
    for (n, iters) in lu_dims {
        let iters = if smoke { 1 } else { iters };
        let a = kernel_matrix(n, n, &mut seed);
        let mut bk = Bench::with_samples(samples);
        let unblocked = bk
            .time(&format!("lu_unblocked_n{n}"), iters, || {
                LuDecomposition::new_unblocked(&a).unwrap()
            })
            .clone();
        let blocked = bk
            .time(&format!("lu_blocked_n{n}"), iters, || {
                LuDecomposition::new(&a).unwrap()
            })
            .clone();
        let speedup = unblocked.median_s / blocked.median_s;
        println!("  lu n={n}: blocked {speedup:.2}x over unblocked");
        let mut row = Json::object();
        row.set("n", n)
            .set("unblocked", &unblocked)
            .set("blocked", &blocked)
            .set("speedup", speedup);
        lu_rows.push(row);
    }
    let mut kernels = Json::object();
    kernels.set("mul", mul_rows).set("lu", lu_rows);
    report.set("kernel_ablations", kernels);

    // ---- 3. Single-threaded QBD solve: workspace vs reference ---------
    section("QBD R solve, single thread: allocation-free workspace vs reference");
    let mut qbd_rows = Vec::new();
    let cases: [(&str, RSolver, usize, u64); 4] = [
        ("fp", RSolver::FixedPoint, 6, 30),
        ("lr", RSolver::LogarithmicReduction, 6, 200),
        ("lr", RSolver::LogarithmicReduction, 18, 60),
        ("lr", RSolver::LogarithmicReduction, 34, 20),
    ];
    for (tag, solver, p, iters) in cases {
        let iters = if smoke { 1 } else { iters };
        let qbd = erlang_qbd(p, 0.8, 1.0);
        let mut ws = QbdWorkspace::new(p);
        let mut b = Bench::with_samples(samples);
        let reference = b
            .time(&format!("qbd_{tag}_reference_p{p}"), iters, || {
                qbd.solve_r_reference(solver).unwrap()
            })
            .clone();
        let workspace = b
            .time(&format!("qbd_{tag}_workspace_p{p}"), iters, || {
                qbd.solve_r_with_workspace(solver, &mut ws).unwrap()
            })
            .clone();
        let speedup = reference.median_s / workspace.median_s;
        println!("  {tag} p = {p}: {speedup:.2}x over reference");
        let mut row = Json::object();
        row.set("solver", tag)
            .set("phases", p)
            .set("reference", &reference)
            .set("workspace", &workspace)
            .set("speedup", speedup);
        qbd_rows.push(row);
    }
    report.set("qbd_single_thread", qbd_rows);

    // ---- 4. Parallel simulation replications --------------------------
    let departures: u64 = if smoke { 2_000 } else { 50_000 };
    section(&format!(
        "simulation replications: parallel vs serial (8 x {departures} departures)"
    ));
    let replicate = |threads: usize| {
        run_replications_with_threads(42, 8, threads, |seed| {
            run_markovian(
                &InelasticFirst,
                4,
                1.2,
                0.9,
                1.0,
                0.7,
                seed,
                departures / 10,
                departures,
            )
            .mean_response
        })
    };
    let serial_reports = replicate(1);
    let parallel_reports = replicate(max_threads);
    let rep_identical = serial_reports
        .iter()
        .zip(&parallel_reports)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(rep_identical, "parallel replications diverged from serial");
    println!("  parallel replications bit-identical to serial: {rep_identical}");
    let mut b = Bench::with_samples(samples.min(3));
    let rep_serial = b.time("replications_serial", 1, || replicate(1)).clone();
    let rep_parallel = b
        .time(&format!("replications_parallel_t{max_threads}"), 1, || {
            replicate(max_threads)
        })
        .clone();
    let rep_speedup = rep_serial.median_s / rep_parallel.median_s;
    println!("  speedup: {rep_speedup:.2}x at {max_threads} threads");
    let mut rep = Json::object();
    rep.set("replications", 8u64)
        .set("departures_each", departures)
        .set("bit_identical", rep_identical)
        .set("serial", &rep_serial)
        .set("parallel", &rep_parallel)
        .set("speedup", rep_speedup);
    report.set("replications", rep);

    // ---- Targets vs this machine --------------------------------------
    // The parallel targets assume a multi-core runner; the serial targets
    // (warm-start ablation, combined improvement vs the PR-1 baseline) are
    // hardware-independent ratios. Record how the current hardware relates
    // to the targets so the committed artifact is interpretable wherever
    // it was produced.
    let mut targets = Json::object();
    targets
        .set("figure4_serial_improvement_target", 2.0)
        .set("figure4_serial_improvement_measured", improvement_vs_pr1)
        .set("figure4_grid_parallel_target_speedup", 4.0)
        .set("figure4_grid_parallel_target_threads", 8u64)
        .set("figure4_grid_parallel_target_requires_cores", 8u64)
        .set(
            "parallel_note",
            if cores >= 8 {
                "machine satisfies the 8-core assumption of the parallel target"
            } else {
                "machine has fewer cores than the 8-core parallel target assumes; \
                 the scaling table above reflects hardware, not the engine — rerun \
                 `cargo bench -p eirs-bench --bench sweep_speedup` on a multi-core \
                 host to measure real scaling"
            },
        )
        .set(
            "serial_note",
            "warm_over_cold_serial and improvement_vs_pr1_baseline are \
             single-thread ratios and hold on any machine: warm starts seed \
             each R solve from the neighboring grid cell and workspace \
             pooling removes per-cell allocation from the solve path",
        );
    report.set("targets", targets);

    // ---- Write the artifact -------------------------------------------
    if smoke {
        println!();
        println!("smoke mode: skipping BENCH_sweeps.json rewrite");
        return;
    }
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweeps.json");
    std::fs::write(out_path, report.pretty()).expect("write BENCH_sweeps.json");
    println!();
    println!(
        "wrote {out_path} (grid cold serial {} -> warm serial {}, {improvement_vs_pr1:.2}x vs PR-1 baseline)",
        pretty_seconds(cold_runs[0].median_s),
        pretty_seconds(warm_runs[0].median_s)
    );
}
