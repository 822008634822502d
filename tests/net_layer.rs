//! Cross-layer tests of the networked serving front end (crates/net):
//!
//! 1. **Protocol robustness** (fuzz): random byte streams, truncations at
//!    every prefix, oversized length fields, and corrupted checksums all
//!    surface as clean `ProtocolError`s — never a panic, never a silently
//!    desynchronized or truncated stream;
//! 2. **Hot-swap determinism** (property test): installing a policy at
//!    *any* arrival-sequence barrier, under *any* batch splitting, leaves
//!    a write-ahead journal whose replay reproduces the live decision
//!    digest bit for bit;
//! 3. **Batch-boundary regression** (satellite of the same PR): the CLI's
//!    offline hot-swap loop journals and ingests the trailing partial
//!    batch before shutdown — replay of a stream whose length is not a
//!    batch multiple still matches exactly — and its `optimize:` swaps
//!    search within `--budget`, through the resolver `--listen` uses;
//! 4. **CLI loopback smoke**: `eirs serve --listen` driven by
//!    `eirs client` over 127.0.0.1 with a mid-stream swap keeps exact
//!    accounting and replays to the same digest.

use eirs_net::protocol::{
    encode_frame_into, frame_type, read_frame, write_magic, Frame, ProtocolError, MAGIC,
    MAX_PAYLOAD,
};
use eirs_repro::core::policy::parse_policy;
use eirs_repro::serve::{
    replay_journal, CompiledTable, EngineConfig, Journal, JournalWriter, ServeEngine, SwapRecord,
};
use eirs_repro::sim::{Arrival, JobClass};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::process::Command;

const K: u32 = 3;
const GRID: usize = 16;

fn compile(spec: &str) -> Result<CompiledTable, String> {
    Ok(CompiledTable::compile(parse_policy(spec)?, K, GRID, GRID))
}

fn config() -> EngineConfig {
    EngineConfig::new(K).route_shards(4).batch(32)
}

fn workload(n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            time: i as f64 * 0.07,
            class: if i % 3 == 0 {
                JobClass::Elastic
            } else {
                JobClass::Inelastic
            },
            size: 0.3 + 0.1 * ((i % 5) as f64),
        })
        .collect()
}

/// A stream of valid frames of every type, as raw bytes (no magic),
/// appended into one buffer as the server's reply lanes do.
fn valid_stream() -> Vec<u8> {
    let frames = [
        Frame::Arrival {
            req_id: 7,
            class: JobClass::Inelastic,
            time: 1.25,
            size: 0.5,
        },
        Frame::Control("swap threshold:2".into()),
        Frame::Decision {
            req_id: 7,
            seq: 0,
            shard: 1,
            i: 2,
            j: 0,
            generation: 1,
            alloc_inelastic: 2.0,
            alloc_elastic: 1.0,
            admitted: true,
        },
        Frame::ControlOk("ok".into()),
        Frame::Error("nope".into()),
        Frame::Bye,
    ];
    let mut bytes = Vec::new();
    for f in &frames {
        encode_frame_into(&mut bytes, f);
    }
    bytes
}

#[test]
fn random_byte_streams_error_and_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
    for _ in 0..500 {
        let len = (rng.random::<u64>() % 200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u64>() as u8).collect();
        let mut cursor = Cursor::new(bytes);
        // Drain the stream: every outcome must be a clean frame, a clean
        // EOF, or a typed error — reaching this point without a panic is
        // the property under test.
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    }
}

#[test]
fn truncation_at_every_prefix_is_a_clean_eof_or_truncated_error() {
    let bytes = valid_stream();
    // Frame boundaries: offsets where a prefix ends exactly between frames.
    let mut boundaries = vec![0usize];
    {
        let mut cursor = Cursor::new(bytes.clone());
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => boundaries.push(cursor.position() as usize),
                Ok(None) => break,
                Err(e) => panic!("valid stream failed to decode: {e}"),
            }
        }
    }
    for cut in 0..bytes.len() {
        let mut cursor = Cursor::new(bytes[..cut].to_vec());
        let outcome = loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        if boundaries.contains(&cut) {
            assert!(
                matches!(outcome, Ok(None)),
                "cut at frame boundary {cut} should be clean EOF, got {outcome:?}"
            );
        } else {
            assert!(
                matches!(outcome, Err(ProtocolError::Truncated)),
                "cut mid-frame at {cut} should be Truncated, got {outcome:?}"
            );
        }
    }
}

#[test]
fn oversized_length_fields_are_rejected_before_allocation() {
    for len in [MAX_PAYLOAD as u16 + 1, u16::MAX] {
        let mut bytes = vec![frame_type::CONTROL, 0];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let got = read_frame(&mut Cursor::new(bytes));
        assert!(
            matches!(got, Err(ProtocolError::BadLength { .. })),
            "len {len} should be BadLength, got {got:?}"
        );
    }
}

#[test]
fn corrupted_streams_never_yield_a_wrong_frame() {
    // Flip random bytes in a valid multi-frame stream: decoding must
    // either produce a prefix of the original frames and then error, or
    // (for flips in a trailing frame's unread tail) stop cleanly. It must
    // never produce a frame that differs from the original sequence.
    let bytes = valid_stream();
    let originals: Vec<Frame> = {
        let mut cursor = Cursor::new(bytes.clone());
        let mut v = Vec::new();
        while let Some(f) = read_frame(&mut cursor).expect("valid stream") {
            v.push(f);
        }
        v
    };
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..400 {
        let mut corrupt = bytes.clone();
        let flips = 1 + rng.random::<u64>() % 3;
        for _ in 0..flips {
            let at = (rng.random::<u64>() as usize) % corrupt.len();
            corrupt[at] ^= 1 << (rng.random::<u64>() % 8);
        }
        let mut cursor = Cursor::new(corrupt);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = read_frame(&mut cursor) {
            decoded.push(f);
        }
        assert!(
            decoded.len() <= originals.len()
                && decoded
                    .iter()
                    .zip(&originals)
                    .all(|(d, o)| format!("{d:?}") == format!("{o:?}")),
            "corruption produced a non-prefix decode: {decoded:?}"
        );
    }
}

#[test]
fn magic_mismatch_is_a_bad_magic_error() {
    let mut bytes = MAGIC;
    bytes[3] ^= 0x20;
    let got = eirs_net::protocol::read_magic(&mut Cursor::new(bytes.to_vec()));
    assert!(matches!(got, Err(ProtocolError::BadMagic(_))), "{got:?}");
    let mut ok = Vec::new();
    write_magic(&mut ok).unwrap();
    assert_eq!(ok, MAGIC);
}

/// Live run: journal every batch write-ahead, swap at `barrier`, splitting
/// the stream into the given batch sizes. Returns (digest, journal bytes).
fn journaled_swap_run(
    arrivals: &[Arrival],
    barrier: usize,
    splits: &[usize],
    swap_spec: &str,
) -> (u64, u32, Vec<u8>) {
    let mut engine = ServeEngine::new(compile("fairshare").unwrap(), config());
    let mut wal =
        JournalWriter::create_with_spec(Vec::<u8>::new(), &engine, Some("fairshare")).unwrap();
    let mut split_iter = splits.iter().copied().cycle();
    let mut next = 0usize;
    let mut swapped = false;
    while next < arrivals.len() || !swapped {
        if !swapped && next >= barrier.min(arrivals.len()) {
            let table = compile(swap_spec).unwrap();
            let record = SwapRecord {
                seq: engine.ingested(),
                generation: engine.generation() + 1,
                hash: table.identity_hash(),
                spec: swap_spec.to_string(),
            };
            wal.append_swap(&record).unwrap();
            let installed = engine.install_table(table, swap_spec);
            assert_eq!(installed, record);
            swapped = true;
            continue;
        }
        let want = split_iter.next().unwrap().max(1);
        let cap = if swapped {
            arrivals.len()
        } else {
            barrier.min(arrivals.len())
        };
        let end = (next + want).min(cap);
        let batch = &arrivals[next..end];
        wal.append_batch(engine.ingested(), batch).unwrap();
        engine.ingest_batch(batch);
        next = end;
    }
    engine.drain();
    (
        engine.decision_digest(),
        engine.generation(),
        wal.into_inner().unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hot-swap at any arrival index, under any batch splitting: the
    /// journal replays to the live digest bit for bit.
    #[test]
    fn hot_swap_at_any_index_replays_bit_identically(
        barrier in 0usize..=70,
        splits in prop::collection::vec(1usize..13, 1..4),
        n in 40usize..70,
    ) {
        let arrivals = workload(n);
        let (digest, generation, journal_bytes) =
            journaled_swap_run(&arrivals, barrier, &splits, "threshold:2");
        let journal = Journal::from_reader(&mut &journal_bytes[..]).expect("parse journal");
        let mut replayed = replay_journal(config(), &journal, &|s| compile(s)).expect("replay");
        replayed.drain();
        prop_assert_eq!(replayed.decision_digest(), digest, "replay drift");
        prop_assert_eq!(replayed.generation(), generation);
    }

    /// The same swap barrier yields the same digest regardless of how the
    /// stream is batched — the barrier is workload semantics, batching is
    /// an implementation detail.
    #[test]
    fn swap_digest_is_invariant_to_batch_splitting(
        barrier in 0usize..=50,
        splits_a in prop::collection::vec(1usize..17, 1..4),
        splits_b in prop::collection::vec(1usize..17, 1..4),
    ) {
        let arrivals = workload(50);
        let (da, _, _) = journaled_swap_run(&arrivals, barrier, &splits_a, "threshold:2");
        let (db, _, _) = journaled_swap_run(&arrivals, barrier, &splits_b, "threshold:2");
        prop_assert_eq!(da, db, "batch splitting changed the decision stream");
    }
}

/// Runs the `eirs` binary; returns (exit code, stdout, stderr).
fn run_eirs(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
        .args(args)
        .output()
        .expect("eirs binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn json_field<'a>(doc: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {doc}"));
    let rest = &doc[at + pat.len()..];
    rest.split(&[',', '\n'][..])
        .next()
        .unwrap()
        .trim_matches('"')
}

/// The CLI's offline hot-swap loop must journal and ingest the trailing
/// partial batch before shutdown, then drain. A trace whose length is not
/// a multiple of the batch (201 arrivals, batch 64) plus a swap barrier
/// off any batch boundary replays with `--drain true` to the exact live
/// digest.
#[test]
fn cli_offline_swap_flushes_the_final_partial_batch() {
    let dir = std::env::temp_dir().join("eirs_net_layer_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("offline_swap.wal");
    let wal_s = wal.to_str().unwrap();
    let trace = "trace:crates/serve/testdata/smoke.trace";
    let (code, out, err) = run_eirs(&[
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--k",
        "3",
        "--workload",
        trace,
        "--batch",
        "64",
        "--journal",
        wal_s,
        "--swap-policy",
        "threshold:3",
        "--swap-at",
        "117",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "serve failed: {err}");
    let live_digest = json_field(&out, "decision_digest").to_string();
    // The finished run drains, like every other.
    assert_eq!(json_field(&out, "completions"), "201");
    // All 201 trace arrivals must be journaled — including the final
    // partial batch (201 = 3*64 + 9).
    let journal = Journal::load(&wal).expect("journal parses");
    assert_eq!(journal.entries.len(), 201, "partial batch dropped");
    let (code, out, err) = run_eirs(&[
        "serve",
        "--k",
        "3",
        "--replay-journal",
        wal_s,
        "--drain",
        "true",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "replay failed: {err}");
    assert_eq!(
        json_field(&out, "decision_digest"),
        live_digest,
        "replay drift"
    );
    assert_eq!(json_field(&out, "generation"), "1");
    std::fs::remove_file(&wal).ok();
}

/// The offline `--swap-policy optimize:<family>` run resolves its swap
/// through `eirs_net::install_swap`, so `--budget` bounds its search as
/// it does under `--listen`: a budget of 4 runs fewer optimizer
/// evaluations than the default 60.
#[test]
fn cli_offline_optimize_swap_reads_the_budget() {
    let dir = std::env::temp_dir().join(format!("eirs_net_layer_budget_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let evaluations = |budget: &str| -> u64 {
        let metrics = dir.join(format!("budget_{budget}.prom"));
        let (code, _, err) = run_eirs(&[
            "serve",
            "--policy",
            "curve:2+0.5i",
            "--workload",
            "trace:crates/serve/testdata/smoke.trace",
            "--swap-policy",
            "optimize:threshold",
            "--swap-at",
            "117",
            "--budget",
            budget,
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "serve failed: {err}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        text.lines()
            .find_map(|line| line.strip_prefix("eirs_opt_evaluations "))
            .unwrap_or_else(|| panic!("no eirs_opt_evaluations in:\n{text}"))
            .parse()
            .unwrap()
    };
    let (small, default) = (evaluations("4"), evaluations("60"));
    assert!(
        small < default,
        "--budget 4 ran {small} optimizer evaluations, --budget 60 ran {default}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// CLI loopback smoke: serve --listen driven by client over 127.0.0.1,
/// hot-swap mid-stream, exact accounting, digest reproducible from the
/// journal (the same gate CI runs against the release binary).
#[test]
fn cli_loopback_serve_and_client_round_trip_with_hot_swap() {
    let dir = std::env::temp_dir().join("eirs_net_layer_loopback");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("net.wal");
    let addr_file = dir.join("addr.txt");
    std::fs::remove_file(&addr_file).ok();
    let server = {
        let wal = wal.clone();
        let addr_file = addr_file.clone();
        std::thread::spawn(move || {
            Command::new(env!("CARGO_BIN_EXE_eirs"))
                .args([
                    "serve",
                    "--policy",
                    "curve:2+0.5i",
                    "--k",
                    "3",
                    "--listen",
                    "127.0.0.1:0",
                    "--addr-file",
                    addr_file.to_str().unwrap(),
                    "--journal",
                    wal.to_str().unwrap(),
                    "--swap-policy",
                    "threshold:3",
                    "--swap-at",
                    "120",
                    "--json",
                    "true",
                ])
                .output()
                .expect("serve runs")
        })
    };
    // Wait for the addr file (the server binds an OS-assigned port).
    let addr = {
        let mut tries = 0;
        loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    tries += 1;
                    assert!(tries < 200, "server never wrote the addr file");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        }
    };
    let (code, client_out, err) = run_eirs(&[
        "client",
        "--connect",
        &addr,
        "--clients",
        "2",
        "--k",
        "3",
        "--workload",
        "trace:crates/serve/testdata/smoke.trace",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "client failed: {err}");
    let server_out = server.join().expect("server thread");
    assert!(server_out.status.success(), "serve exited nonzero");
    let serve_doc = String::from_utf8_lossy(&server_out.stdout).into_owned();

    assert_eq!(json_field(&serve_doc, "client_arrivals"), "201");
    assert_eq!(json_field(&serve_doc, "accounting_balanced"), "true");
    assert_eq!(json_field(&serve_doc, "generation"), "1");
    assert_eq!(json_field(&client_out, "decisions"), "201");
    assert_eq!(json_field(&client_out, "max_generation"), "1");

    // The journal alone reproduces the live networked digest.
    let live_digest = json_field(&serve_doc, "decision_digest").to_string();
    let (code, replay_out, err) = run_eirs(&[
        "serve",
        "--k",
        "3",
        "--replay-journal",
        wal.to_str().unwrap(),
        "--drain",
        "true",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "replay failed: {err}");
    assert_eq!(
        json_field(&replay_out, "decision_digest"),
        live_digest,
        "networked replay drift"
    );
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&addr_file).ok();
}
