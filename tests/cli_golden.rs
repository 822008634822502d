//! Golden outputs of the `eirs` binary: every non-network command, run
//! at a small size, must print exactly the bytes pinned under
//! `tests/golden/`. `tests/cli_errors.rs` pins the failure paths; this
//! file pins the success paths, human tables and `--json true`
//! documents alike, so a refactor of the binary cannot move a digit.
//!
//! Only run-time measurements are masked: the JSON `wall_s` and
//! `decisions_per_sec` values, and the wall time and decision rate on
//! `serve`'s human `run:` line. Files a run writes (journals, snapshots)
//! live in a per-process temp directory whose path is written as
//! `$TMP` in the pinned text. Every JSON document must also pass
//! `eirs_obs::export::validate_json` before masking.
//!
//! To re-pin after an intended output change, run
//! `EIRS_GOLDEN_BLESS=1 cargo test --test cli_golden` and review the
//! diff of `tests/golden/`.

use eirs_repro::obs::export::validate_json;
use std::path::{Path, PathBuf};
use std::process::Command;

const SMOKE: &str = "trace:crates/serve/testdata/smoke.trace";

/// Runs the binary from the package root (so the bundled trace path is
/// relative) and returns its stdout; a non-zero exit fails the test.
fn eirs(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("eirs binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Replaces the value of a `"key": value` JSON line with `0`.
fn mask_json_value(line: &str, key: &str) -> Option<String> {
    let (indent, rest) = line.split_at(line.len() - line.trim_start().len());
    let rest = rest.strip_prefix(&format!("\"{key}\": "))?;
    let comma = if rest.ends_with(',') { "," } else { "" };
    Some(format!("{indent}\"{key}\": 0{comma}"))
}

/// Masks the wall time and rate of `serve`'s human `run:` line:
/// `... decisions in <s> s  (<r>M decisions/sec, ...`.
fn mask_run_line(line: &str) -> Option<String> {
    if !line.starts_with("run:") {
        return None;
    }
    let (head, tail) = line.split_once(" decisions in ")?;
    let (_, tail) = tail.split_once(" s  (")?;
    let (_, tail) = tail.split_once("M decisions/sec")?;
    Some(format!(
        "{head} decisions in <wall> s  (<rate>M decisions/sec{tail}"
    ))
}

fn mask(out: &str) -> String {
    let mut masked = String::with_capacity(out.len());
    for line in out.lines() {
        let line = mask_json_value(line, "wall_s")
            .or_else(|| mask_json_value(line, "decisions_per_sec"))
            .or_else(|| mask_run_line(line))
            .unwrap_or_else(|| line.to_string());
        masked.push_str(&line);
        masked.push('\n');
    }
    masked
}

/// Runs `args`, checks a JSON document for well-formedness, masks it,
/// writes `$TMP` for `tmp`, and compares it with `tests/golden/<name>.txt`.
fn check(name: &str, args: &[&str], tmp: Option<&Path>) {
    let out = eirs(args);
    if out.starts_with('{') {
        validate_json(&out).unwrap_or_else(|e| panic!("{name}: invalid JSON ({e}):\n{out}"));
    }
    let mut got = mask(&out);
    if let Some(dir) = tmp {
        got = got.replace(dir.to_str().expect("UTF-8 temp path"), "$TMP");
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("EIRS_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        got == want,
        "{name}: `eirs {}` output differs from {}\n--- want\n{want}--- got\n{got}",
        args.join(" "),
        path.display()
    );
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eirs-golden-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn exact_analysis_commands_are_pinned() {
    check(
        "analyze",
        &[
            "analyze",
            "--k",
            "4",
            "--lambda-i",
            "1",
            "--lambda-e",
            "1",
            "--mu-i",
            "2",
            "--mu-e",
            "1",
        ],
        None,
    );
    check(
        "compare",
        &[
            "compare", "--k", "4", "--rho", "0.7", "--mu-i", "0.5", "--mu-e", "1",
        ],
        None,
    );
    check("counterexample", &["counterexample", "--ratio", "2"], None);
}

#[test]
fn des_commands_are_pinned() {
    check(
        "simulate",
        &[
            "simulate",
            "--policy",
            "if",
            "--k",
            "4",
            "--rho",
            "0.7",
            "--departures",
            "20000",
            "--seed",
            "1",
        ],
        None,
    );
    let policy = [
        "policy",
        "--policy",
        "threshold:3",
        "--k",
        "4",
        "--rho",
        "0.6",
        "--mu-i",
        "0.5",
        "--mu-e",
        "1",
        "--reps",
        "2",
        "--departures",
        "5000",
    ];
    check("policy", &policy, None);
    check(
        "policy_json",
        &[&policy[..], &["--json", "true"]].concat(),
        None,
    );
    let scenario = [
        "scenario",
        "--workload",
        "poisson,bursty",
        "--policy",
        "if,ef",
        "--k",
        "2",
        "--rho",
        "0.6",
        "--mu-i",
        "1",
        "--mu-e",
        "1",
        "--reps",
        "2",
        "--departures",
        "2000",
    ];
    check("scenario", &scenario, None);
    check(
        "scenario_json",
        &[&scenario[..], &["--json", "true"]].concat(),
        None,
    );
}

#[test]
fn search_commands_are_pinned() {
    check(
        "optimize_analytic",
        &[
            "optimize",
            "--family",
            "threshold",
            "--workload",
            "poisson",
            "--k",
            "2",
            "--rho",
            "0.5",
            "--mu-i",
            "1.5",
            "--mu-e",
            "1",
            "--budget",
            "8",
            "--grid",
            "24",
            "--phase-cap",
            "24",
        ],
        None,
    );
    check(
        "optimize_des_json",
        &[
            "optimize",
            "--family",
            "reserve",
            "--workload",
            "bursty",
            "--k",
            "2",
            "--rho",
            "0.5",
            "--mu-i",
            "0.5",
            "--mu-e",
            "1",
            "--budget",
            "4",
            "--reps",
            "2",
            "--departures",
            "2000",
            "--json",
            "true",
        ],
        None,
    );
    // The `des-search` benchmark's setting: the baselines are certified
    // on the same churned sample paths the search scored.
    check(
        "optimize_des_churned_json",
        &[
            "optimize",
            "--family",
            "curve",
            "--workload",
            "bursty",
            "--service-e",
            "hyper:4",
            "--churn",
            "crash:mtbf=40,mttr=4",
            "--k",
            "4",
            "--rho",
            "0.6",
            "--budget",
            "16",
            "--reps",
            "2",
            "--departures",
            "5000",
            "--json",
            "true",
        ],
        None,
    );
    check(
        "fuzz_json",
        &["fuzz", "--budget", "3", "--seed", "1", "--json", "true"],
        None,
    );
}

/// The five offline `serve` modes on the bundled trace, each printed
/// both ways. They run in order: the killed run writes the journal and
/// snapshot the recovery reads, and the swap run writes the journal the
/// replay reads.
#[test]
fn serve_modes_are_pinned() {
    let dir = temp_dir("serve");
    let tmp = Some(dir.as_path());
    let path = |file: &str| dir.join(file).to_str().expect("UTF-8").to_string();
    let (wal, snap, swap_wal) = (path("chaos.wal"), path("chaos.snap"), path("swap.wal"));
    let both = |name: &str, args: &[&str]| {
        check(name, args, tmp);
        check(
            &format!("{name}_json"),
            &[args, &["--json", "true"]].concat(),
            tmp,
        );
    };

    both(
        "serve_plain",
        &["serve", "--policy", "curve:2+0.5i", "--workload", SMOKE],
    );
    let churned = [
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--workload",
        SMOKE,
        "--churn",
        "crash:mtbf=30,mttr=6",
        "--fault-seed",
        "11",
        "--fault-horizon",
        "500",
    ];
    both(
        "serve_killed",
        &[
            &churned[..],
            &[
                "--shards",
                "1",
                "--journal",
                &wal,
                "--snapshot",
                &snap,
                "--snapshot-at",
                "60",
                "--kill-after",
                "140",
            ],
        ]
        .concat(),
    );
    both(
        "serve_recovered",
        &[
            &churned[..],
            &[
                "--shards",
                "4",
                "--journal",
                &wal,
                "--snapshot",
                &snap,
                "--recover",
                "true",
            ],
        ]
        .concat(),
    );
    let swap = [
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--workload",
        SMOKE,
        "--batch",
        "64",
        "--swap-at",
        "117",
    ];
    both(
        "serve_swap",
        &[&swap[..], &["--swap-policy", "ef", "--journal", &swap_wal]].concat(),
    );
    both(
        "serve_replay",
        &["serve", "--replay-journal", &swap_wal, "--drain", "true"],
    );
    check(
        "serve_swap_optimize",
        &[&swap[..], &["--swap-policy", "optimize:threshold"]].concat(),
        tmp,
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The offline hot-swap at both ends of the stream, each replayed from
/// its journal. A swap at seq 0 decides every arrival (the digest is
/// `--policy ef`'s own). A barrier past the last arrival installs the
/// swap at the end of the stream, before the final drain, so the new
/// policy decides the drain: the digest differs from the no-swap run's
/// `0xcb51c4444331f880`. (On the bundled trace a past-end swap leaves
/// the digest unchanged, so it cannot tell the two orders apart.)
#[test]
fn serve_swaps_at_the_stream_edges_are_pinned() {
    let dir = temp_dir("edges");
    let tmp = Some(dir.as_path());
    let path = |file: &str| dir.join(file).to_str().expect("UTF-8").to_string();
    let (first_wal, past_wal) = (path("first.wal"), path("past.wal"));
    let both = |name: &str, args: &[&str]| {
        check(name, args, tmp);
        check(
            &format!("{name}_json"),
            &[args, &["--json", "true"]].concat(),
            tmp,
        );
    };

    both(
        "serve_swap_first",
        &[
            "serve",
            "--policy",
            "curve:2+0.5i",
            "--workload",
            SMOKE,
            "--batch",
            "64",
            "--swap-policy",
            "ef",
            "--swap-at",
            "0",
            "--journal",
            &first_wal,
        ],
    );
    both(
        "serve_replay_first",
        &["serve", "--replay-journal", &first_wal, "--drain", "true"],
    );
    both(
        "serve_swap_past_end",
        &[
            "serve",
            "--policy",
            "if",
            "--workload",
            "poisson",
            "--k",
            "4",
            "--rho",
            "0.9",
            "--duration",
            "50",
            "--batch",
            "64",
            "--swap-policy",
            "ef",
            "--swap-at",
            "1000000",
            "--journal",
            &past_wal,
        ],
    );
    both(
        "serve_replay_past_end",
        &["serve", "--replay-journal", &past_wal, "--drain", "true"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A seed above 2^53 has no exact `f64`; the report must still name the
/// exact 64-bit seed that reruns the sample path.
#[test]
fn serve_reports_a_seed_above_2_pow_53_exactly() {
    let out = eirs(&[
        "serve",
        "--workload",
        SMOKE,
        "--seed",
        "9007199254740993",
        "--json",
        "true",
    ]);
    validate_json(&out).expect("valid JSON");
    assert!(out.contains("\n    \"seed\": 9007199254740993,\n"), "{out}");
}
