//! PERF / COVERAGE — the scenario fuzzer and the streaming trace path.
//!
//! Measures, on the current machine:
//!
//! 1. a seeded fuzz sweep through the built-in oracles (spec parsing,
//!    analysis-vs-DES differential, digest stability, exact accounting),
//!    recording cells fuzzed, tractable differentials, disagreements,
//!    and the evaluations spent minimizing any flagged cell;
//! 2. a large binary arrival trace (1.5M arrivals in the full run)
//!    **streamed** to disk through [`BinaryTraceWriter`] — never held in
//!    memory — then replayed through [`ServeEngine`] via the streaming
//!    [`BinaryTraceReader`]. The bench reads `VmHWM` from
//!    `/proc/self/status` before and after the long replay and asserts
//!    peak RSS grew by far less than the trace's on-disk size: replay
//!    memory is bounded by the reader's buffer, independent of trace
//!    length;
//! 3. a format-agreement gate: the shared 50k-arrival prefix written to
//!    both the binary and the text format replays to the **same decision
//!    digest**, so the compact format cannot drift from the canonical
//!    text traces.
//!
//! The sweep and the replay are each timed over 11 runs
//! (`eirs_bench::harness`). Results print as text and are written to
//! `BENCH_fuzz.json` at the workspace root. Under `EIRS_BENCH_SMOKE=1`
//! (CI) every section runs once on smaller inputs, every correctness
//! gate still asserts, and the artifact is not written.
//!
//! Run: `cargo bench -p eirs-bench --bench fuzz_coverage`

use eirs_bench::harness::{arm, pretty_seconds, rounds};
use eirs_bench::section;
use eirs_core::fuzz::{self, FuzzConfig};
use eirs_obs::Json;
use eirs_queueing::Exponential;
use eirs_serve::{CompiledTable, EngineConfig, ServeEngine};
use eirs_sim::arrivals::{ArrivalSource, ArrivalTrace, PoissonStream};
use eirs_sim::policy::FairShare;
use eirs_sim::trace::BinaryTraceWriter;
use std::path::{Path, PathBuf};

/// Timed runs per measurement in a full run: on a shared host the
/// median of three moved by half its value between runs of one build.
const RUNS: usize = 11;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eirs-fuzz-bench-{}-{name}", std::process::id()))
}

/// Streams `n` Poisson arrivals to `path` through the binary writer,
/// duplicating the first `prefix` of them into `prefix_bin`/`prefix_txt`.
/// Memory use is O(prefix), never O(n).
fn stream_trace(n: u64, prefix: usize, path: &Path, prefix_bin: &Path, prefix_txt: &Path) -> f64 {
    let mut source = PoissonStream::new(
        0.9,
        0.7,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(0.8)),
        42,
    );
    let mut writer = BinaryTraceWriter::create(path).expect("create trace");
    let mut head = Vec::with_capacity(prefix);
    let mut horizon = 0.0;
    for i in 0..n {
        let a = source.next_arrival().expect("poisson stream is infinite");
        horizon = a.time;
        if (i as usize) < prefix {
            head.push(a);
        }
        writer.push(&a).expect("push arrival");
    }
    writer.finish().expect("finish trace");
    let head = ArrivalTrace::new(head);
    eirs_sim::trace::save_binary(&head, prefix_bin).expect("save prefix binary");
    head.save(prefix_txt).expect("save prefix text");
    horizon
}

/// Replays `path` (any on-disk format) through a fresh [`ServeEngine`]
/// and returns the decision digest.
fn replay_digest(path: &Path, until: f64) -> u64 {
    let table = CompiledTable::compile(Box::new(FairShare), 4, 32, 32);
    let config = EngineConfig::new(4).route_shards(4).workers(1).batch(512);
    let mut engine = ServeEngine::new(table, config);
    let mut source = eirs_sim::trace::open_trace_source(path).expect("open trace");
    engine.run(source.as_mut(), until);
    engine.drain();
    engine.decision_digest()
}

fn main() -> Result<(), String> {
    let smoke = eirs_bench::smoke();
    let runs = if smoke { 1 } else { RUNS };
    let mut report = Json::object();
    report.set("schema", "eirs-bench-fuzz/v2");
    report.set("hardware", eirs_bench::json::run_metadata_with_threads(1));

    // ---- 1. Fuzz sweep through the built-in oracles -------------------
    let budget = if smoke { 6 } else { 40 };
    section(&format!(
        "scenario fuzz sweep (seed 1, {budget} cells, built-in oracles)"
    ));
    let cfg = FuzzConfig {
        budget,
        seed: 1,
        threads: 1,
        // Bench fidelity: enough departures that the differential is
        // meaningful, small enough to time repeatably.
        replications: 2,
        departures: if smoke { 300 } else { 2000 },
        warmup: if smoke { 30 } else { 200 },
        ..FuzzConfig::default()
    };
    let run = fuzz::fuzz_run(&cfg, &[]);
    println!(
        "  cells: {}   tractable differentials: {}   disagreements: {}   shrink evals: {}",
        run.cells.len(),
        run.tractable,
        run.flagged,
        run.shrink_evals
    );
    assert_eq!(run.flagged, 0, "committed bench seed must fuzz clean");
    let sweep = rounds(runs, vec![arm("fuzz_sweep", || fuzz::fuzz_run(&cfg, &[]))]).timing(0);
    let mut fz = Json::object();
    fz.set("cells_fuzzed", run.cells.len())
        .set("tractable_differentials", run.tractable)
        .set("disagreements", run.flagged)
        .set("minimization_evals", run.shrink_evals)
        .set("sweep", &sweep);
    report.set("fuzz_sweep", fz);

    // ---- 2. Bounded-memory replay of a large binary trace -------------
    let arrivals: u64 = if smoke { 60_000 } else { 1_500_000 };
    let prefix = 50_000.min(arrivals as usize / 2);
    section(&format!(
        "streamed binary trace: {arrivals} arrivals, bounded-memory ServeEngine replay"
    ));
    let big = temp_path("big.bt");
    let pre_bin = temp_path("prefix.bt");
    let pre_txt = temp_path("prefix.trace");
    let horizon = stream_trace(arrivals, prefix, &big, &pre_bin, &pre_txt);
    let file_bytes = std::fs::metadata(&big).expect("trace written").len();

    // Warm up every allocation pool on the short prefix, then take the
    // high-water mark: any growth during the long replay is attributable
    // to the long trace itself.
    let prefix_digest_bin = replay_digest(&pre_bin, f64::INFINITY);
    let rss_before = peak_rss_bytes();
    let replay = rounds(
        runs,
        vec![arm("binary_replay_serve", || {
            replay_digest(&big, horizon + 1.0)
        })],
    )
    .timing(0);
    let rss_after = peak_rss_bytes();
    match (rss_before, rss_after) {
        (Some(before), Some(after)) => {
            let grew = after.saturating_sub(before);
            println!(
                "  trace file: {:.1} MB   peak-RSS growth during replay: {:.1} MB",
                file_bytes as f64 / 1e6,
                grew as f64 / 1e6
            );
            // The reader buffers 64 KiB per handle; allow generous allocator slack
            // but stay far under the trace size, which is what loading
            // the file whole would cost.
            assert!(
                grew < 16 * 1024 * 1024 && (grew as f64) < 0.5 * file_bytes as f64,
                "replay peak RSS grew by {grew} bytes on a {file_bytes}-byte trace — \
                 replay memory must be bounded, independent of trace length"
            );
            let mut mem = Json::object();
            mem.set("trace_bytes", file_bytes)
                .set("trace_arrivals", arrivals)
                .set("peak_rss_growth_bytes", grew)
                .set("bounded", true);
            report.set("replay_memory", mem);
        }
        _ => println!("  /proc/self/status unavailable; skipping RSS assertion"),
    }
    println!(
        "  replay: {} ({:.0} arrivals/s)",
        pretty_seconds(replay.median_s),
        arrivals as f64 / replay.median_s
    );
    report.set("binary_replay", &replay);

    // ---- 3. Binary prefix digest == text-format digest ----------------
    section("format agreement: binary prefix replay == text replay");
    let prefix_digest_txt = replay_digest(&pre_txt, f64::INFINITY);
    assert_eq!(
        prefix_digest_bin, prefix_digest_txt,
        "binary and text replays of the shared prefix diverged"
    );
    println!("  {prefix} shared arrivals, digest 0x{prefix_digest_bin:016x} in both formats");
    let mut agree = Json::object();
    agree
        .set("prefix_arrivals", prefix)
        .set("digest", format!("0x{prefix_digest_bin:016x}"))
        .set("formats_agree", true);
    report.set("format_agreement", agree);

    for p in [&big, &pre_bin, &pre_txt] {
        let _ = std::fs::remove_file(p);
    }

    eirs_bench::json::write_artifact("BENCH_fuzz.json", report)
}
