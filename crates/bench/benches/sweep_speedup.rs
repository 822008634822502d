//! PERF — the sweep-engine and hot-path speedup record.
//!
//! Measures, on the current machine:
//!
//! 1. the Figure 4 heat-map grid (3 loads × 196 (µ_I, µ_E) cells, two QBD
//!    analyses per cell) at 1/2/4/8 threads, as one four-arm measurement,
//!    verifying on the way that every parallel run is **bit-identical**
//!    to the serial run, and the serial time against the committed PR-1
//!    serial baseline (a recorded cross-host ratio, not a gate);
//! 2. single-threaded QBD `R`-matrix solves: the allocation-free workspace
//!    path vs the allocation-per-step reference implementation;
//! 3. parallel vs serial simulation replications (per-replication seed
//!    streams).
//!
//! Each comparison runs its arms in interleaved rounds
//! (`eirs_bench::harness`); every speedup is the median and quartiles of
//! the per-round ratios. Results print as text and are written to
//! `BENCH_sweeps.json` at the workspace root. Under `EIRS_BENCH_SMOKE=1`
//! (CI) every section runs one round on smaller inputs, every
//! correctness gate still asserts, and the artifact is not written.
//!
//! Run: `cargo bench -p eirs-bench --bench sweep_speedup`

use eirs_bench::harness::{arm, repeat, rounds};
use eirs_bench::{section, smoke};
use eirs_core::experiments::{figure4_heatmap_serial, figure4_heatmap_with_threads, HeatMapCell};
use eirs_markov::{Qbd, QbdWorkspace, RSolver};
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
/// workspace pooling). The improvement row below divides it by this
/// run's serial median; the baseline came from another host, so the ratio
/// is a record, not a gate.
const PR1_BASELINE_SERIAL_MEDIAN_S: f64 = 0.022564941;

/// Timed rounds per measurement in a full run.
const ROUNDS: usize = 21;

fn grid_cells(threads: usize) -> Vec<HeatMapCell> {
    RHOS.iter()
        .flat_map(|&rho| match threads {
            1 => figure4_heatmap_serial(K, rho).expect("grid solves"),
            t => figure4_heatmap_with_threads(K, rho, t).expect("grid solves"),
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

fn main() -> Result<(), String> {
    let smoke = smoke();
    let n = if smoke { 1 } else { ROUNDS };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = *SCALING_THREADS.last().unwrap();
    let mut report = Json::object();
    report.set("schema", "eirs-bench-sweeps/v4");
    report.set(
        "hardware",
        eirs_bench::json::run_metadata_with_threads(max_threads),
    );

    // ---- 1. Figure 4 grid: 1/2/4/8-thread scaling table ---------------
    section(&format!(
        "Figure 4 grid sweep (k = {K}, rho in {RHOS:?}, 588 cells, 1176 QBD analyses)"
    ));
    let serial_cells = grid_cells(1);
    for &t in &SCALING_THREADS[1..] {
        assert!(
            cells_bit_identical(&serial_cells, &grid_cells(t)),
            "parallel sweep diverged from serial at t={t}"
        );
    }
    println!("  parallel output bit-identical to serial: true");
    let grid = rounds(
        n,
        SCALING_THREADS
            .iter()
            .map(|&t| arm(format!("figure4_grid_t{t}"), move || grid_cells(t)))
            .collect(),
    );
    let improvement_vs_pr1 = PR1_BASELINE_SERIAL_MEDIAN_S / grid.timing(0).median_s;
    let mut scaling_rows = Vec::new();
    for (i, &t) in SCALING_THREADS.iter().enumerate() {
        let speedup = grid.ratio(0, i);
        println!("  {t} thread(s): {speedup} vs serial");
        let mut row = Json::object();
        row.set("threads", t)
            .set("grid", &grid.timing(i))
            .set("speedup_vs_serial", speedup);
        scaling_rows.push(row);
    }
    println!(
        "  serial vs PR-1 baseline ({PR1_BASELINE_SERIAL_MEDIAN_S} s, another host): \
         {improvement_vs_pr1:.2}x (machine has {cores} cores)"
    );
    let mut fig4 = Json::object();
    fig4.set("cells", serial_cells.len())
        .set("qbd_analyses", 2 * serial_cells.len())
        .set("bit_identical", true)
        .set("scaling", scaling_rows)
        .set("pr1_baseline_serial_median_s", PR1_BASELINE_SERIAL_MEDIAN_S)
        .set("improvement_vs_pr1_baseline", improvement_vs_pr1);
    report.set("figure4_grid", fig4);

    // ---- 2. Single-threaded QBD solve: workspace vs reference ---------
    section("QBD R solve, single thread: allocation-free workspace vs reference");
    let mut qbd_rows = Vec::new();
    let cases: [(&str, RSolver, usize, u64); 4] = [
        ("fp", RSolver::FixedPoint, 6, 30),
        ("lr", RSolver::LogarithmicReduction, 6, 200),
        ("lr", RSolver::LogarithmicReduction, 18, 60),
        ("lr", RSolver::LogarithmicReduction, 34, 20),
    ];
    for (tag, solver, p, solves) in cases {
        let solves = if smoke { 1 } else { solves };
        let qbd = erlang_qbd(p, 0.8, 1.0);
        let mut ws = QbdWorkspace::new(p);
        let m = rounds(
            n,
            vec![
                arm(
                    format!("qbd_{tag}_reference_p{p} x{solves}"),
                    repeat(solves, || qbd.solve_r_reference(solver).unwrap()),
                ),
                arm(
                    format!("qbd_{tag}_workspace_p{p} x{solves}"),
                    repeat(solves, || {
                        qbd.solve_r_with_workspace(solver, &mut ws).unwrap()
                    }),
                ),
            ],
        );
        let speedup = m.ratio(0, 1);
        println!("  {tag} p = {p}: {speedup} over reference");
        let mut row = Json::object();
        row.set("solver", tag)
            .set("phases", p)
            .set("solves_per_run", solves)
            .set("reference", &m.timing(0))
            .set("workspace", &m.timing(1))
            .set("speedup", speedup);
        qbd_rows.push(row);
    }
    report.set("qbd_single_thread", qbd_rows);

    // ---- 3. Parallel simulation replications --------------------------
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
    let reps = rounds(
        n,
        vec![
            arm("replications_serial", || replicate(1)),
            arm(format!("replications_parallel_t{max_threads}"), || {
                replicate(max_threads)
            }),
        ],
    );
    let rep_speedup = reps.ratio(0, 1);
    println!("  speedup: {rep_speedup} at {max_threads} threads");
    let mut rep = Json::object();
    rep.set("replications", 8u64)
        .set("departures_each", departures)
        .set("bit_identical", rep_identical)
        .set("serial", &reps.timing(0))
        .set("parallel", &reps.timing(1))
        .set("speedup", rep_speedup);
    report.set("replications", rep);

    // ---- Targets vs this machine --------------------------------------
    // The parallel target assumes a multi-core runner. Record how the
    // current hardware relates to it so the committed artifact is
    // interpretable wherever it was produced.
    let mut targets = Json::object();
    targets
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
            "improvement_vs_pr1_baseline divides a serial median measured on \
             another host by this run's serial median, so host speed moves it \
             as much as the code does; it is a record, not a gate",
        );
    report.set("targets", targets);

    eirs_bench::json::write_artifact("BENCH_sweeps.json", report)
}
