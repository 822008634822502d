//! Property tests of the streaming binary trace format (PR 8 satellite):
//!
//! 1. **Binary ⇄ text bit-exactness**: any trace of finite nonnegative
//!    arrivals round-trips through *both* on-disk formats with every
//!    `f64` bit preserved, and the two formats agree with each other —
//!    including the empty and single-arrival edge cases;
//! 2. **Streaming reader fidelity**: [`BinaryTraceReader::open`] reads
//!    and checks every record once, then rewinds; replay then pulls one
//!    record at a time through a buffered reader and yields the same
//!    arrival sequence as loading the trace whole, so bounded-memory
//!    replay cannot drift from in-memory replay.

use eirs_repro::sim::arrivals::{Arrival, ArrivalSource, ArrivalTrace};
use eirs_repro::sim::trace::{load_binary, save_binary, sniff_binary, BinaryTraceReader};
use eirs_repro::sim::JobClass;
use proptest::prelude::*;
use std::path::PathBuf;

/// Fresh temp-file path unique to this process and test label.
fn temp_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eirs-trace-prop-{}-{label}", std::process::id()))
}

/// Builds a time-sorted trace from raw draws: interarrival gaps keep the
/// times nondecreasing, class bit picks inelastic/elastic.
fn build_trace(raw: &[(f64, f64, bool)]) -> ArrivalTrace {
    let mut t = 0.0;
    let arrivals = raw
        .iter()
        .map(|&(gap, size, inelastic)| {
            t += gap;
            Arrival {
                time: t,
                class: if inelastic {
                    JobClass::Inelastic
                } else {
                    JobClass::Elastic
                },
                size,
            }
        })
        .collect();
    ArrivalTrace::new(arrivals)
}

/// Asserts two traces are identical down to the last mantissa bit.
fn assert_bit_identical(a: &ArrivalTrace, b: &ArrivalTrace, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: arrival count differs");
    for (i, (x, y)) in a.arrivals().iter().zip(b.arrivals()).enumerate() {
        assert_eq!(
            x.time.to_bits(),
            y.time.to_bits(),
            "{what}: time bits differ at record {i}"
        );
        assert_eq!(
            x.size.to_bits(),
            y.size.to_bits(),
            "{what}: size bits differ at record {i}"
        );
        assert_eq!(x.class, y.class, "{what}: class differs at record {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated trace survives binary save/load, text save/load, and
    /// chunked streaming with every bit intact — all three views agree.
    #[test]
    fn binary_and_text_round_trips_are_bit_exact(
        raw in prop::collection::vec((0.0f64..3.0, 0.001f64..50.0, 0usize..2), 0..40),
        case in 0u64..u64::MAX,
    ) {
        let raw: Vec<(f64, f64, bool)> =
            raw.into_iter().map(|(g, s, c)| (g, s, c == 0)).collect();
        let trace = build_trace(&raw);

        let bin = temp_path(&format!("bin-{case:016x}"));
        let txt = temp_path(&format!("txt-{case:016x}"));
        save_binary(&trace, &bin).expect("binary save");
        trace.save(&txt).expect("text save");

        // Both formats reload to the original, bit for bit.
        let from_bin = load_binary(&bin).expect("binary load");
        let from_txt = ArrivalTrace::load(&txt).expect("text load");
        assert_bit_identical(&trace, &from_bin, "binary round-trip");
        assert_bit_identical(&trace, &from_txt, "text round-trip");

        // The sniffing loader tells the two apart.
        prop_assert!(sniff_binary(&bin).expect("sniff bin"));
        prop_assert!(!sniff_binary(&txt).expect("sniff txt"));

        // Chunked streaming yields the identical arrival sequence.
        let mut reader = BinaryTraceReader::open(&bin).expect("streaming open");
        prop_assert_eq!(reader.len(), trace.len() as u64);
        let mut streamed = Vec::new();
        while let Some(a) = reader.next_arrival() {
            streamed.push(a);
        }
        assert_bit_identical(&trace, &ArrivalTrace::new(streamed), "chunked stream");

        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&txt);
    }
}

/// The empty trace is a legal citizen of both formats.
#[test]
fn empty_trace_round_trips() {
    let trace = ArrivalTrace::new(Vec::new());
    let bin = temp_path("empty-bin");
    let txt = temp_path("empty-txt");
    save_binary(&trace, &bin).expect("binary save");
    trace.save(&txt).expect("text save");

    let from_bin = load_binary(&bin).expect("binary load");
    let from_txt = ArrivalTrace::load(&txt).expect("text load");
    assert!(from_bin.is_empty() && from_txt.is_empty());

    let mut reader = BinaryTraceReader::open(&bin).expect("open");
    assert!(reader.is_empty());
    assert!(
        reader.next_arrival().is_none(),
        "empty stream yields nothing"
    );

    let _ = std::fs::remove_file(&bin);
    let _ = std::fs::remove_file(&txt);
}

/// A single arrival — the smallest nonempty trace — keeps awkward float
/// values (subnormal-adjacent size, long-mantissa time) bit-exact.
#[test]
fn single_arrival_round_trips_bit_exact() {
    let trace = ArrivalTrace::new(vec![Arrival {
        time: 0.1f64.next_up(),
        class: JobClass::Elastic,
        size: f64::MIN_POSITIVE * 8.0,
    }]);
    let bin = temp_path("single-bin");
    let txt = temp_path("single-txt");
    save_binary(&trace, &bin).expect("binary save");
    trace.save(&txt).expect("text save");
    assert_bit_identical(&trace, &load_binary(&bin).expect("load"), "binary");
    assert_bit_identical(&trace, &ArrivalTrace::load(&txt).expect("load"), "text");
    let _ = std::fs::remove_file(&bin);
    let _ = std::fs::remove_file(&txt);
}
