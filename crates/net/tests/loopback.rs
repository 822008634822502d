//! End-to-end loopback tests: server + client over 127.0.0.1, checked
//! against the offline engine for bit-identical digests and exact
//! accounting.

use eirs_core::policy::parse_policy;
use eirs_net::{run_client, serve, ClientConfig, NetConfig, ServeReport, SwapTrigger};
use eirs_serve::{
    replay_journal, CompiledTable, EngineConfig, Journal, JournalWriter, ServeEngine,
};
use eirs_sim::{Arrival, JobClass};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

const K: u32 = 3;
const GRID: usize = 16;

fn compile(spec: &str) -> Result<CompiledTable, String> {
    Ok(CompiledTable::compile(parse_policy(spec)?, K, GRID, GRID))
}

fn config() -> EngineConfig {
    EngineConfig::new(K).route_shards(4).batch(32)
}

/// A deterministic, time-ordered workload mixing both classes.
fn workload(n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            time: i as f64 * 0.05,
            class: if i % 3 == 0 {
                JobClass::Elastic
            } else {
                JobClass::Inelastic
            },
            size: 0.4 + 0.1 * ((i % 7) as f64),
        })
        .collect()
}

/// Runs server and client over loopback, returning both reports.
fn loopback_run(
    arrivals: &[Arrival],
    net: NetConfig,
    swaps: Vec<SwapTrigger>,
    client: ClientConfig,
    journal_path: Option<&std::path::Path>,
) -> (ServeReport, eirs_net::ClientReport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let engine = ServeEngine::new(compile("fairshare").unwrap(), config());
    let journal = journal_path.map(|p| {
        let file = std::fs::File::create(p).expect("journal file");
        JournalWriter::create_with_spec(
            Box::new(file) as Box<dyn std::io::Write + Send>,
            &engine,
            Some("fairshare"),
        )
        .expect("journal header")
    });
    std::thread::scope(|scope| {
        let server = scope
            .spawn(move || serve(listener, engine, journal, swaps, net, &compile).expect("serve"));
        let client_report = run_client(&addr, arrivals, &client).expect("client");
        (server.join().expect("server thread"), client_report)
    })
}

#[test]
fn networked_run_matches_the_offline_engine_bit_for_bit() {
    let arrivals = workload(150);
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        Vec::new(),
        ClientConfig {
            clients: 1,
            swap: None,
        },
        None,
    );
    // Offline reference: the same arrivals through a bare engine.
    let mut offline = ServeEngine::new(compile("fairshare").unwrap(), config());
    offline.ingest_batch(&arrivals);
    offline.drain();
    assert_eq!(report.digest, offline.decision_digest(), "digest drift");
    assert_eq!(report.ingested, 150);
    assert_eq!(report.client_arrivals, 150);
    assert_eq!(report.completions, offline.metrics_total().completions);
    assert!(report.accounting_balanced(), "{report:?}");
    assert_eq!(client.decisions, 150);
    assert_eq!(client.admitted, 150);
    assert_eq!(client.latency.count(), 150);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn multi_connection_run_keeps_exact_accounting() {
    let arrivals = workload(200);
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        Vec::new(),
        ClientConfig {
            clients: 4,
            swap: None,
        },
        None,
    );
    // Interleaving across 4 connections makes the global order
    // nondeterministic (the digest varies run to run), but accounting
    // must stay exact.
    assert_eq!(report.connections, 4);
    assert_eq!(report.client_arrivals, 200);
    assert_eq!(report.ingested, 200);
    assert!(report.accounting_balanced(), "{report:?}");
    assert_eq!(client.decisions, 200);
    assert_eq!(client.latency.count(), 200);
}

#[test]
fn control_frame_hot_swap_journals_and_replays_bit_identically() {
    let arrivals = workload(160);
    let dir = std::env::temp_dir().join("eirs_net_swap_replay");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.wal");
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        Vec::new(),
        ClientConfig {
            clients: 1,
            swap: Some((80, "if".into())),
        },
        Some(&path),
    );
    assert_eq!(report.generation, 1, "{:?}", report.swap_errors);
    assert_eq!(report.swaps.len(), 1);
    assert_eq!(report.swaps[0].spec, "if");
    // The swap barrier is >= the request index: request 80 is routed
    // before the control frame on the same connection.
    assert!(report.swaps[0].seq >= 80, "swap at {}", report.swaps[0].seq);
    assert_eq!(client.max_generation, 1);
    assert_eq!(client.control_replies.len(), 1);
    assert!(
        client.control_replies[0].contains("swap to 'if'"),
        "{:?}",
        client.control_replies
    );

    // Replaying the journal alone reproduces the live digest exactly.
    let journal = Journal::load(&path).expect("load journal");
    let mut replayed = replay_journal(config(), &journal, &|spec| compile(spec)).expect("replay");
    replayed.drain();
    assert_eq!(replayed.decision_digest(), report.digest, "replay drift");
    assert_eq!(replayed.generation(), 1);
    assert_eq!(replayed.swap_log(), &report.swaps[..]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_scheduled_swap_fires_at_the_exact_sequence_barrier() {
    let arrivals = workload(120);
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        vec![SwapTrigger {
            at_seq: 50,
            spec: "threshold:2".into(),
        }],
        ClientConfig {
            clients: 1,
            swap: None,
        },
        None,
    );
    assert_eq!(report.generation, 1, "{:?}", report.swap_errors);
    assert_eq!(report.swaps[0].seq, 50);
    assert_eq!(report.swaps[0].spec, "threshold:2");
    assert_eq!(client.max_generation, 1);
    // A single-connection in-order run is reproducible offline with the
    // same swap at the same barrier.
    let mut offline = ServeEngine::new(compile("fairshare").unwrap(), config());
    offline.ingest_batch(&arrivals[..50]);
    offline.install_table(compile("threshold:2").unwrap(), "threshold:2");
    offline.ingest_batch(&arrivals[50..]);
    offline.drain();
    assert_eq!(
        report.digest,
        offline.decision_digest(),
        "swap barrier drift"
    );
}

#[test]
fn observe_reoptimize_hot_swap_installs_a_tuned_policy() {
    // Spread the arrivals out so the observed per-shard load is
    // feasible (ρ < 1) — an overloaded estimate is refused by design.
    let mut arrivals = workload(140);
    for (i, a) in arrivals.iter_mut().enumerate() {
        a.time = i as f64 * 0.8;
    }
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        vec![SwapTrigger {
            at_seq: 100,
            spec: "optimize:threshold".into(),
        }],
        ClientConfig {
            clients: 1,
            swap: None,
        },
        None,
    );
    assert_eq!(report.generation, 1, "{:?}", report.swap_errors);
    let installed = &report.swaps[0];
    assert_eq!(installed.seq, 100);
    assert!(
        installed.spec.starts_with("threshold:"),
        "re-optimized spec '{}'",
        installed.spec
    );
    assert_eq!(client.max_generation, 1);
    assert!(report.accounting_balanced());
}

#[test]
fn shed_mode_refuses_overload_with_exact_accounting() {
    let arrivals = workload(300);
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig {
            queue_cap: 1,
            shed: true,
            ..NetConfig::default()
        },
        Vec::new(),
        ClientConfig {
            clients: 3,
            swap: None,
        },
        None,
    );
    assert_eq!(report.client_arrivals, 300);
    assert_eq!(report.ingested + report.net_sheds, 300);
    assert!(report.accounting_balanced(), "{report:?}");
    // Every request got exactly one decision, shed or served.
    assert_eq!(client.decisions, 300);
    assert_eq!(client.net_sheds, report.net_sheds);
    assert_eq!(
        client.admitted + client.net_sheds + client.engine_rejections,
        300
    );
}

#[test]
fn bad_control_command_tears_the_connection_down_with_an_error_frame() {
    let arrivals = workload(10);
    let (report, client) = loopback_run(
        &arrivals,
        NetConfig::default(),
        Vec::new(),
        ClientConfig {
            clients: 1,
            swap: Some((5, "bogus@policy!!".into())),
        },
        None,
    );
    // The swap spec does not compile: the server answers with an ERROR
    // frame and closes; arrivals routed before the control frame are
    // still decided and accounted.
    assert_eq!(report.generation, 0);
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(client.server_errors.len(), 1, "{:?}", client.server_errors);
    assert!(report.accounting_balanced(), "{report:?}");
}

/// Runs `case` on its own thread and returns its result, panicking with
/// `what` if it takes longer than 20 s (a hung server never answers).
fn within_20s<T: Send + 'static>(what: &str, case: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(case());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung for 20 s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: case panicked (above)"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Many clients, tiny queues, shed on or off, swaps at random
    /// points: every case finishes, every request is decided exactly
    /// once, accounting balances, and the journal replays to the live
    /// digest.
    #[test]
    fn backpressure_and_shed_stress_keeps_exact_accounting(
        clients in 1usize..=4,
        cap_pick in 0usize..5,
        shed_pick in 0u32..2,
        swap_pick in 0u32..3,
        swap_at in 0u64..1600,
        n in 300usize..1500,
    ) {
        let queue_cap = [1, 2, 4, 64, NetConfig::default().queue_cap][cap_pick];
        let shed = shed_pick == 1;
        // 0: no swap; 1: control frame after request `swap_at` (or
        // before BYE past the end); 2: scheduled at seq `swap_at`.
        let control = (swap_pick == 1).then(|| (swap_at, "if".to_string()));
        let scheduled: Vec<SwapTrigger> = (swap_pick == 2)
            .then(|| SwapTrigger { at_seq: swap_at, spec: "threshold:2".into() })
            .into_iter()
            .collect();
        let what = format!(
            "clients={clients} queue_cap={queue_cap} shed={shed} \
             control_swap={control:?} scheduled_swap={:?} n={n}",
            scheduled.first().map(|t| t.at_seq)
        );
        let path = std::env::temp_dir().join(format!(
            "eirs_net_stress_{}_{clients}_{queue_cap}_{shed}_{swap_pick}_{swap_at}_{n}.wal",
            std::process::id()
        ));
        let wal = path.clone();
        let (report, client) = within_20s(&what, move || {
            loopback_run(
                &workload(n),
                NetConfig { queue_cap, shed, ..NetConfig::default() },
                scheduled,
                ClientConfig { clients, swap: control },
                Some(&wal),
            )
        });
        let n = n as u64;
        assert!(report.accounting_balanced(), "{what}: {report:?}");
        assert_eq!(report.client_arrivals, n, "{what}");
        assert_eq!(report.ingested + report.net_sheds, n, "{what}");
        assert_eq!(client.arrivals, n, "{what}");
        assert_eq!(client.decisions, n, "{what}");
        assert_eq!(client.latency.count(), n, "{what}");
        assert_eq!(client.net_sheds, report.net_sheds, "{what}");
        if !shed {
            assert_eq!(report.net_sheds, 0, "{what}");
        }
        assert_eq!(report.protocol_errors, 0, "{what}");
        assert!(report.journal_errors.is_empty(), "{what}: {:?}", report.journal_errors);
        assert!(client.server_errors.is_empty(), "{what}: {:?}", client.server_errors);
        let swapped = u32::from(swap_pick != 0);
        assert_eq!(report.generation, swapped, "{what}: {:?}", report.swap_errors);

        let journal = Journal::load(&path).expect("load journal");
        let mut replayed =
            replay_journal(config(), &journal, &|spec| compile(spec)).expect("replay");
        replayed.drain();
        assert_eq!(replayed.decision_digest(), report.digest, "{what}: replay drift");
        assert_eq!(replayed.swap_log(), &report.swaps[..], "{what}");
        std::fs::remove_file(&path).ok();
    }
}
