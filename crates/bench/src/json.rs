//! The hardware and threading metadata block every `BENCH_*.json`
//! artifact embeds. The artifacts themselves are [`Json`] values, the
//! workspace's one JSON writer (`eirs_obs::json`).

use eirs_obs::Json;

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

impl From<&crate::harness::Measurement> for Json {
    fn from(m: &crate::harness::Measurement) -> Json {
        let mut o = Json::object();
        o.set("label", m.label.as_str())
            .set("median_s", m.median_s)
            .set("min_s", m.min_s)
            .set("max_s", m.max_s)
            .set("iters", m.iters)
            .set("samples", m.samples);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(matches!(lookup("bench_threads"), Json::Num(n) if n >= 1.0));
        assert!(matches!(lookup("sweep_threads"), Json::Num(n) if n >= 1.0));
        assert!(matches!(lookup("available_parallelism"), Json::Num(n) if n >= 1.0));
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
        assert!(matches!(lookup("bench_threads"), Json::Num(n) if n == 4.0));
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
