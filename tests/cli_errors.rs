//! CLI error-path contract: a malformed `--policy`/`--workload`/`--family`
//! spec (or unknown command) must print the parse error to stderr in the
//! shared `--<flag> '<spec>': <reason>` format and exit non-zero — never
//! panic. Exercised against the real binary, one subcommand per flag, so
//! the shared error-reporting helper is pinned across
//! `policy`/`scenario`/`optimize`/`serve`.

use std::process::Command;

/// Runs the `eirs` binary and returns `(exit_code, stderr)`.
fn run_eirs(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
        .args(args)
        .output()
        .expect("eirs binary runs");
    let code = out.status.code().expect("no exit code (killed by signal?)");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_specs_fail_cleanly_with_the_shared_format() {
    for (args, needle) in [
        (
            vec!["policy", "--policy", "nope"],
            "--policy 'nope': unknown policy",
        ),
        (
            vec!["policy", "--policy", "curve:2"],
            "--policy 'curve:2': cannot parse policy",
        ),
        (
            vec!["scenario", "--workload", "bursty:x", "--reps", "2"],
            "--workload 'bursty:x': cannot parse",
        ),
        (
            vec!["scenario", "--workload", "poisson,map:1x2x3", "--reps", "2"],
            "--workload 'map:1x2x3': cannot parse",
        ),
        (
            vec!["scenario", "--policy", "if,reserve:x", "--reps", "2"],
            "--policy 'reserve:x': cannot parse policy",
        ),
        (
            vec!["optimize", "--family", "tabular:0x2"],
            "--family 'tabular:0x2': cannot parse family",
        ),
        (
            vec!["optimize", "--workload", "trace:"],
            "--workload 'trace:': cannot parse",
        ),
        (
            vec!["serve", "--policy", "waterfill:-1"],
            "--policy 'waterfill:-1': cannot parse policy",
        ),
        (
            vec!["serve", "--workload", "nope"],
            "--workload 'nope': unknown",
        ),
        (
            vec!["simulate", "--policy", "threshold:"],
            "--policy 'threshold:': cannot parse policy",
        ),
    ] {
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{args:?} must exit non-zero");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
        assert!(
            stderr.starts_with("error: "),
            "{args:?}: parse failure must report through the single error path"
        );
    }
}

#[test]
fn bad_flag_values_and_unknown_commands_fail_cleanly() {
    for (args, needle) in [
        (vec!["frobnicate"], "unknown command 'frobnicate'"),
        (vec!["--policy", "if"], "malformed argument"),
        (
            vec!["policy", "--k", "four"],
            "cannot parse --k value 'four'",
        ),
        (
            vec!["serve", "--duration", "-5"],
            "--duration must be a positive time",
        ),
        (vec!["serve", "--shards", "0"], "must be at least 1"),
        (vec!["policy", "--reps", "1"], "too few"),
    ] {
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{args:?} must exit non-zero");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
    }
}

#[test]
fn malformed_fault_flags_fail_cleanly() {
    for (args, needle) in [
        (
            vec!["serve", "--churn", "meteor:x=1"],
            "--churn 'meteor:x=1': cannot parse",
        ),
        (
            vec!["serve", "--churn", "crash:mtbf=0,mttr=5"],
            "--churn 'crash:mtbf=0,mttr=5': cannot parse",
        ),
        (
            vec![
                "scenario",
                "--workload",
                "poisson",
                "--churn",
                "crash:mtbf",
                "--reps",
                "2",
            ],
            "--churn 'crash:mtbf': cannot parse",
        ),
        (
            vec!["serve", "--shed-limit", "4"],
            "--shed-limit only applies under --churn",
        ),
        (
            vec![
                "serve",
                "--churn",
                "crash:mtbf=30,mttr=6",
                "--shed-limit",
                "0",
            ],
            "--shed-limit must be at least 1",
        ),
        (vec!["serve", "--kill-after", "10"], "need --journal"),
        (
            vec!["serve", "--journal", "/tmp/x.wal", "--snapshot-at", "10"],
            "--snapshot-at needs --snapshot",
        ),
        (
            vec!["serve", "--recover", "true"],
            "--recover true needs both --snapshot",
        ),
        (
            vec![
                "serve",
                "--recover",
                "true",
                "--snapshot",
                "/tmp/s.snap",
                "--journal",
                "/tmp/x.wal",
                "--kill-after",
                "5",
            ],
            "cannot be combined with --snapshot-at/--kill-after",
        ),
        (
            vec![
                "serve",
                "--workload",
                "trace:crates/serve/testdata/smoke.trace",
                "--churn",
                "crash:mtbf=30,mttr=6",
            ],
            "needs an explicit --fault-horizon",
        ),
    ] {
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{args:?} must exit non-zero");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
        assert!(
            stderr.starts_with("error: "),
            "{args:?}: fault-flag failure must report through the single error path"
        );
    }
}

#[test]
fn recovery_refuses_identity_mismatches() {
    let dir = std::env::temp_dir().join(format!("eirs-cli-identity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("run.snap");
    let wal = dir.join("run.wal");
    let base = |extra: &[&str]| {
        let mut v = vec![
            "serve",
            "--policy",
            "fairshare",
            "--workload",
            "poisson",
            "--k",
            "2",
            "--rho",
            "0.6",
            "--duration",
            "80",
            "--churn",
            "crash:mtbf=25,mttr=5",
            "--fault-seed",
            "7",
        ];
        v.extend_from_slice(extra);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    let snap_s = snap.to_str().unwrap();
    let wal_s = wal.to_str().unwrap();

    // Produce a crashed run: journal everything, snapshot early, kill later.
    let crash_args = base(&[
        "--journal",
        wal_s,
        "--snapshot",
        snap_s,
        "--snapshot-at",
        "40",
        "--kill-after",
        "120",
    ]);
    let crash_refs: Vec<&str> = crash_args.iter().map(String::as_str).collect();
    let (code, stderr) = run_eirs(&crash_refs);
    assert_eq!(code, 0, "crashing run itself must succeed: {stderr}");

    // Recovering under a different fault schedule must be refused: the
    // snapshot's decisions were made against the recorded schedule.
    for (extra, needle) in [
        (
            vec![
                "--recover",
                "true",
                "--snapshot",
                snap_s,
                "--journal",
                wal_s,
                "--fault-seed",
                "8",
            ],
            "churn",
        ),
        (
            vec![
                "--recover",
                "true",
                "--snapshot",
                snap_s,
                "--journal",
                wal_s,
                "--policy",
                "if",
            ],
            "policy",
        ),
    ] {
        let mut args = base(&[]);
        // Drop the baseline --fault-seed/--policy pair if the variant overrides it.
        args.extend(extra.iter().map(|s| s.to_string()));
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, stderr) = run_eirs(&refs);
        assert_ne!(code, 0, "{extra:?} must be refused");
        assert!(
            stderr.contains(needle),
            "{extra:?}: mismatch report must name the {needle}; got:\n{stderr}"
        );
    }

    // The matching identity recovers cleanly.
    let ok_args = base(&[
        "--recover",
        "true",
        "--snapshot",
        snap_s,
        "--journal",
        wal_s,
    ]);
    let ok_refs: Vec<&str> = ok_args.iter().map(String::as_str).collect();
    let (code, stderr) = run_eirs(&ok_refs);
    assert_eq!(code, 0, "matching recovery must succeed: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--snapshot-at` barrier that the run never reaches (past the end
/// of the stream, or behind an earlier `--kill-after`) would leave no
/// snapshot for `--recover true`, so the run fails instead of exiting 0.
/// Barriers the run does reach still write their snapshot.
#[test]
fn unreached_snapshot_barriers_fail_the_run() {
    let dir = std::env::temp_dir().join(format!("eirs-cli-snapshot-at-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("run.snap");
    let wal = dir.join("run.wal");
    let run = |extra: &[&str]| {
        std::fs::remove_file(&snap).ok();
        let mut args = vec![
            "serve",
            "--workload",
            "trace:crates/serve/testdata/smoke.trace",
            "--journal",
            wal.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        run_eirs(&args)
    };
    for (extra, needle) in [
        (
            &["--snapshot-at", "1000"][..],
            "--snapshot-at 1000 was never reached: the run stopped after 201 arrivals \
             (end of stream)",
        ),
        (
            &["--snapshot-at", "100", "--kill-after", "50"][..],
            "--snapshot-at 100 was never reached: the run stopped after 50 arrivals \
             (--kill-after 50)",
        ),
    ] {
        let (code, stderr) = run(extra);
        assert_eq!(code, 2, "{extra:?} must be refused: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{extra:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
        assert!(!snap.exists(), "{extra:?} wrote a snapshot");
    }
    for extra in [
        &["--snapshot-at", "201"][..],
        &["--snapshot-at", "0"][..],
        &["--snapshot-at", "50", "--kill-after", "50"][..],
    ] {
        let (code, stderr) = run(extra);
        assert_eq!(code, 0, "{extra:?} must succeed: {stderr}");
        assert!(snap.exists(), "{extra:?} wrote no snapshot");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that measures no departure has no mean response time; every
/// DES-backed command refuses `--departures 0` instead of reporting one.
#[test]
fn zero_departures_are_refused_by_every_des_command() {
    let params = ["--k", "2", "--rho", "0.5", "--mu-i", "1", "--mu-e", "1"];
    for command in [
        vec!["policy", "--policy", "if"],
        vec!["scenario", "--workload", "bursty", "--reps", "2"],
        vec!["optimize", "--family", "threshold", "--workload", "bursty"],
        vec!["simulate", "--policy", "if"],
        vec!["fuzz", "--budget", "1"],
    ] {
        let mut args = command.clone();
        if command[0] != "fuzz" {
            args.extend(params);
        }
        args.extend(["--departures", "0"]);
        let (code, stderr) = run_eirs(&args);
        assert_eq!(code, 2, "{args:?} must exit 2; stderr:\n{stderr}");
        assert!(
            stderr.starts_with("error: --departures must be at least 1, got 0"),
            "{args:?}: got:\n{stderr}"
        );
    }
}

#[test]
fn fuzz_flag_errors_fail_cleanly() {
    for (args, needle) in [
        (
            vec!["fuzz", "--seed", "abc"],
            "cannot parse --seed value 'abc'",
        ),
        (vec!["fuzz", "--budget", "0"], "--budget must be >= 1"),
        (
            vec!["fuzz", "--replay", "bogus"],
            "unknown replay token 'bogus'",
        ),
        (
            // Well-formed shape, corrupted checksum: must be rejected,
            // not replayed as a different cell.
            vec!["fuzz", "--replay", "0123456789abcdef-ffff"],
            "fails its checksum",
        ),
        (
            // Truncated token (seed half only).
            vec!["fuzz", "--replay", "0123456789abcdef"],
            "unknown replay token",
        ),
    ] {
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{args:?} must exit non-zero");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
        assert!(
            stderr.starts_with("error: "),
            "{args:?}: fuzz-flag failure must report through the single error path"
        );
    }
}

/// Corrupt or truncated binary traces fed through `--workload trace:<p>`
/// must hard-error — never be silently truncated to the readable prefix,
/// loaded with an altered record, or reinterpreted as an empty trace.
#[test]
fn corrupt_binary_traces_fail_cleanly_through_the_cli() {
    use eirs_repro::sim::arrivals::{Arrival, ArrivalTrace};
    use eirs_repro::sim::JobClass;

    let dir = std::env::temp_dir().join(format!("eirs-cli-badtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let whole = dir.join("whole.bt");
    let trace = ArrivalTrace::new(
        [0.5, 1.0, 1.5]
            .map(|time| Arrival {
                time,
                class: JobClass::Elastic,
                size: 2.0,
            })
            .to_vec(),
    );
    eirs_repro::sim::trace::save_binary(&trace, &whole).expect("write trace");
    // The magic, three 36-byte arrival records, a 20-byte end record.
    let bytes = std::fs::read(&whole).expect("read trace");
    assert_eq!(bytes.len(), 8 + 3 * 36 + 20);

    let cut = dir.join("cut.bt");
    std::fs::write(&cut, &bytes[..8 + 36 + 10]).expect("write fixture");
    // An unfinished write: every arrival record, no end record.
    let unfinished = dir.join("unfinished.bt");
    std::fs::write(&unfinished, &bytes[..8 + 3 * 36]).expect("write fixture");
    // One flipped bit in the second record's size.
    let flipped = dir.join("flipped.bt");
    let mut bad = bytes.clone();
    bad[8 + 36 + 4 + 16] ^= 1;
    std::fs::write(&flipped, &bad).expect("write fixture");
    // The older format, whose records carry no checksum.
    let v1 = dir.join("v1.bt");
    let mut old = b"eirsbt01".to_vec();
    old.extend_from_slice(&1u64.to_le_bytes());
    old.extend_from_slice(&1.0f64.to_le_bytes());
    old.extend_from_slice(&2.0f64.to_le_bytes());
    old.extend_from_slice(&[1u8, 0, 0, 0, 0, 0, 0, 0]);
    std::fs::write(&v1, &old).expect("write fixture");

    for (path, needle) in [
        (&cut, "trace line 2: stream truncated mid-record"),
        (&unfinished, "trace line 4: no end record"),
        (&flipped, "trace line 2: record checksum mismatch"),
        (&v1, "bad magic \"eirsbt01\""),
    ] {
        let spec = format!("trace:{}", path.display());
        let args = ["scenario", "--workload", &spec, "--reps", "2"];
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{} must be rejected", path.display());
        assert!(
            stderr.contains(needle),
            "{}: stderr missing {needle:?}; got:\n{stderr}",
            path.display()
        );
        assert!(
            stderr.starts_with("error: "),
            "{}: corrupt trace must report through the single error path",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero-size job is refused where the trace is read, with its line
/// number, under the rule the journal decoder applies: a trace that
/// loads can always be journaled and replayed.
#[test]
fn zero_size_trace_jobs_are_refused_at_load() {
    let path = std::env::temp_dir().join(format!("eirs-cli-zero-{}.trace", std::process::id()));
    std::fs::write(&path, "0.1 E 2.0\n0.5 E 0\n0.7 I 1.0\n1.0 I 0.5\n").expect("write fixture");
    let spec = format!("trace:{}", path.display());
    let args = ["serve", "--policy", "curve:2+0.5i", "--workload", &spec];
    let (code, stderr) = run_eirs(&args);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        code, 2,
        "a zero-size job must be refused; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("trace line 2: invalid size 0"),
        "stderr missing the size error; got:\n{stderr}"
    );
}

#[test]
fn well_formed_serve_run_exits_zero_with_machine_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
        .args([
            "serve",
            "--policy",
            "threshold:3",
            "--workload",
            "poisson",
            "--k",
            "2",
            "--rho",
            "0.5",
            "--duration",
            "50",
            "--json",
            "true",
        ])
        .output()
        .expect("eirs binary runs");
    assert!(out.status.success(), "serve run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"eirs-serve/v1\""), "{stdout}");
    assert!(stdout.contains("\"decision_digest\": \"0x"), "{stdout}");
}

#[test]
fn network_flag_errors_fail_cleanly() {
    for (args, needle) in [
        // The networked / hot-swap / replay flag interlocks of `serve`.
        (
            vec!["serve", "--listen", "not-an-address"],
            "cannot listen on not-an-address",
        ),
        (
            vec!["serve", "--swap-at", "100"],
            "--swap-policy and --swap-at go together",
        ),
        (
            vec!["serve", "--swap-policy", "threshold:3"],
            "--swap-policy and --swap-at go together",
        ),
        (
            vec!["serve", "--swap-policy", "bogus!!", "--swap-at", "10"],
            "--swap-policy 'bogus!!':",
        ),
        (
            vec![
                "serve",
                "--swap-policy",
                "optimize:nofamily",
                "--swap-at",
                "10",
            ],
            "--swap-policy 'optimize:nofamily':",
        ),
        (
            vec!["serve", "--queue-cap", "16"],
            "only apply with --listen",
        ),
        (vec!["serve", "--shed", "true"], "only apply with --listen"),
        (
            vec!["serve", "--drain", "true"],
            "--drain only applies with --replay-journal",
        ),
        (
            vec![
                "serve",
                "--replay-journal",
                "/tmp/x.wal",
                "--journal",
                "/tmp/y.wal",
            ],
            "--replay-journal is a standalone mode",
        ),
        (
            vec![
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--recover",
                "true",
                "--snapshot",
                "/tmp/s",
                "--journal",
                "/tmp/j",
            ],
            "--listen serves live connections",
        ),
        (
            vec!["serve", "--replay-journal", "/definitely/not/here.wal"],
            "cannot replay journal",
        ),
        // The client subcommand's own interlocks.
        (vec!["client"], "client needs --connect"),
        (
            vec!["client", "--connect", "127.0.0.1:1", "--clients", "0"],
            "--clients must be at least 1",
        ),
        (
            vec!["client", "--connect", "127.0.0.1:1", "--swap-after", "5"],
            "--swap-after needs --swap",
        ),
        (
            vec!["client", "--connect", "127.0.0.1:1", "--duration", "-5"],
            "--duration must be a positive time",
        ),
    ] {
        let (code, stderr) = run_eirs(&args);
        assert_ne!(code, 0, "{args:?} must be rejected");
        assert!(
            stderr.starts_with("error: "),
            "{args:?}: must report through the single error path; got:\n{stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
    }
}

/// A flag the command never reads is refused with exit code 2, naming
/// the flag, before anything runs: `--trace` is not how `serve` takes a
/// trace, and `scenario` has no `--name`. Flags that some mode of a
/// command reads stay accepted in every mode, as in the journal replay
/// line of the repository benchmark, which passes `--k` and
/// `--route-shards` beside `--replay-journal`.
#[test]
fn flags_a_command_never_reads_are_refused() {
    for (args, needle) in [
        (
            vec![
                "serve",
                "--trace",
                "crates/serve/testdata/smoke.trace",
                "--json",
                "true",
            ],
            "'serve' does not take --trace",
        ),
        (
            vec!["scenario", "--name", "diurnal"],
            "'scenario' does not take --name",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
            .args(&args)
            .output()
            .expect("eirs binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: stderr missing {needle:?}; got:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
    let dir = std::env::temp_dir().join(format!("eirs-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("run.wal");
    let wal = wal.to_str().unwrap();
    let digest = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
            .args(args)
            .output()
            .expect("eirs binary runs");
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.contains("\"decision_digest\""));
        line.expect("a digest line").trim().to_string()
    };
    let live = digest(&[
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--workload",
        "trace:crates/serve/testdata/smoke.trace",
        "--k",
        "4",
        "--route-shards",
        "8",
        "--journal",
        wal,
        "--json",
        "true",
    ]);
    let replayed = digest(&[
        "serve",
        "--replay-journal",
        wal,
        "--drain",
        "true",
        "--json",
        "true",
        "--k",
        "4",
        "--route-shards",
        "8",
    ]);
    assert_eq!(replayed, live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_refuses_a_dead_endpoint_cleanly() {
    // Nothing listens on this port of TEST-NET; connect must fail with a
    // clean error, not a hang (the client only retries at the protocol
    // level, never the transport level).
    let (code, stderr) = run_eirs(&[
        "client",
        "--connect",
        "127.0.0.1:1",
        "--workload",
        "trace:crates/serve/testdata/smoke.trace",
    ]);
    assert_ne!(code, 0);
    assert!(stderr.contains("connect"), "stderr:\n{stderr}");
}
