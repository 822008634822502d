//! The `BENCH_*.json` artifacts: the hardware and threading metadata
//! block each embeds, the JSON form of [`crate::harness`] results, and
//! [`write_artifact`], their one writer. The artifacts themselves are
//! [`Json`] values, the workspace's one JSON writer (`eirs_obs::json`).

use crate::harness::{Ratio, Timing};
use eirs_obs::Json;
use std::path::{Path, PathBuf};

/// The standard machine/threading metadata block every `BENCH_*.json`
/// artifact should embed: the thread count the bench **actually drove**
/// (`bench_threads`), the default sweep worker count
/// ([`eirs_core::sweep::threads`]), detected parallelism, the
/// `EIRS_THREADS` environment override if any, and a `single_core` flag.
/// Readers of the perf trajectory use it to tell real regressions from
/// "this run happened on a 1-core container" (the PR-1 `BENCH_sweeps.json`
/// was silently recorded on one). Benches that fan out with explicit
/// thread counts must report them via [`run_metadata_with_threads`] —
/// `available_parallelism` alone says what the machine *could* do, not
/// what the run *did*.
pub fn run_metadata() -> Json {
    run_metadata_with_threads(eirs_core::sweep::threads())
}

/// [`run_metadata`] for a bench that drove an explicit worker count
/// (e.g. a scaling table's maximum). `single_core` is true when either
/// the machine has one core or the bench itself never went parallel.
///
/// `degenerate_scaling` is the sharper flag: the bench *claimed* to fan
/// out (`bench_threads > 1`) but the host had one core, so every "N
/// thread" row is a serial run wearing a parallel label. The PR-1
/// `BENCH_sweeps.json` shipped exactly such a table; artifact readers
/// must discard scaling rows whenever this is true. Recording one also
/// warns loudly on stderr (once per process).
pub fn run_metadata_with_threads(bench_threads: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = eirs_core::sweep::threads();
    let degenerate = cores <= 1 && bench_threads > 1;
    if degenerate {
        warn_degenerate_scaling(bench_threads, cores);
    }
    let mut o = Json::object();
    o.set("bench_threads", bench_threads)
        .set("sweep_threads", threads)
        .set("available_parallelism", cores)
        .set(
            "threads_env",
            std::env::var(eirs_numerics::parallel::THREADS_ENV).ok(),
        )
        .set("single_core", cores <= 1 || bench_threads <= 1)
        .set("degenerate_scaling", degenerate);
    o
}

/// The loud half of the `degenerate_scaling` flag (once per process —
/// scaling benches record one metadata block per table row).
fn warn_degenerate_scaling(bench_threads: usize, cores: usize) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: thread-scaling rows recorded on a {cores}-core host: this bench drove \
             {bench_threads} worker(s) with no parallelism available, so its speedup numbers \
             are meaningless. The artifact is tagged degenerate_scaling=true — discard the \
             scaling table and re-run on a multi-core host."
        );
    });
}

impl From<&Timing> for Json {
    fn from(t: &Timing) -> Json {
        let mut o = Json::object();
        o.set("label", t.label.as_str())
            .set("median_s", t.median_s)
            .set("q1_s", t.q1_s)
            .set("q3_s", t.q3_s)
            .set("runs", t.runs);
        o
    }
}

impl From<Ratio> for Json {
    fn from(r: Ratio) -> Json {
        let mut o = Json::object();
        o.set("median", r.median).set("q1", r.q1).set("q3", r.q3);
        o
    }
}

/// The nearest directory at or above `start` whose `Cargo.toml` has a
/// `[workspace]` table, or `None` outside any workspace.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// Writes `report` to `file` at the [`workspace_root`] above the working
/// directory (cargo runs a bench in its package's directory, so a copy
/// of the tree writes into the copy), stamped with the `commit` that
/// `git describe --always --dirty` names there. Writes nothing under
/// [`crate::smoke`], and fails when the working directory is in no
/// workspace.
pub fn write_artifact(file: &str, mut report: Json) -> Result<(), String> {
    if crate::smoke() {
        println!("\nEIRS_BENCH_SMOKE: {file} not written");
        return Ok(());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let root = workspace_root(&cwd).ok_or_else(|| {
        format!(
            "{} is in no Cargo workspace; {file} not written",
            cwd.display()
        )
    })?;
    report.set("commit", commit(&root));
    let path = root.join(file);
    std::fs::write(&path, report.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// `git describe --always --dirty` in `dir`, or `unknown` without git.
fn commit(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_walks_up_to_the_workspace_manifest() {
        let tmp = std::env::temp_dir().join(format!("eirs-bench-root-{}", std::process::id()));
        let ws = tmp.join("ws");
        let nested = ws.join("crates/pkg/src");
        let outside = tmp.join("outside/a");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::create_dir_all(&outside).unwrap();
        std::fs::write(
            ws.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/pkg\"]\n",
        )
        .unwrap();
        std::fs::write(
            ws.join("crates/pkg/Cargo.toml"),
            "[package]\nname = \"pkg\"\n",
        )
        .unwrap();
        // The package manifest on the way up has no `[workspace]` table.
        assert_eq!(workspace_root(&nested), Some(ws.clone()));
        assert_eq!(workspace_root(&ws), Some(ws.clone()));
        assert_eq!(workspace_root(&outside), None);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn run_metadata_reports_threading_context() {
        let m = run_metadata();
        let Json::Obj(entries) = &m else {
            panic!("metadata must be an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bench_threads",
                "sweep_threads",
                "available_parallelism",
                "threads_env",
                "single_core",
                "degenerate_scaling"
            ]
        );
        let lookup = |k: &str| entries.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert!(matches!(lookup("bench_threads"), Json::Int(n) if n >= 1));
        assert!(matches!(lookup("sweep_threads"), Json::Int(n) if n >= 1));
        assert!(matches!(lookup("available_parallelism"), Json::Int(n) if n >= 1));
        assert!(matches!(lookup("single_core"), Json::Bool(_)));
        assert!(matches!(lookup("degenerate_scaling"), Json::Bool(_)));
    }

    #[test]
    fn degenerate_scaling_flags_parallel_claims_on_one_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let flag = |bench_threads: usize| {
            let Json::Obj(entries) = run_metadata_with_threads(bench_threads) else {
                panic!("metadata must be an object");
            };
            match &entries
                .iter()
                .find(|(key, _)| key == "degenerate_scaling")
                .unwrap()
                .1
            {
                Json::Bool(b) => *b,
                other => panic!("degenerate_scaling must be a bool, got {other:?}"),
            }
        };
        // A serial bench is never degenerate, whatever the host.
        assert!(!flag(1));
        // A parallel claim is degenerate exactly when the host is 1-core.
        assert_eq!(flag(4), cores <= 1);
    }

    #[test]
    fn run_metadata_records_the_thread_count_the_bench_drove() {
        let Json::Obj(entries) = run_metadata_with_threads(4) else {
            panic!("metadata must be an object");
        };
        let lookup = |k: &str| entries.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert!(matches!(lookup("bench_threads"), Json::Int(4)));
        // A bench that drove one worker is single-core by definition,
        // whatever the machine could have done.
        let Json::Obj(serial) = run_metadata_with_threads(1) else {
            panic!("metadata must be an object");
        };
        let v = serial
            .iter()
            .find(|(key, _)| key == "single_core")
            .unwrap()
            .1
            .clone();
        assert!(matches!(v, Json::Bool(true)));
    }
}
