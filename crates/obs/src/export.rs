//! Exporters: Chrome trace-event JSON, JSONL event streams, and
//! Prometheus text format — plus a small JSON well-formedness checker
//! used by the benches to validate emitted traces.
//!
//! All exporters are pure functions of a [`Snapshot`] and/or a slice of
//! [`TraceEvent`]s, so they can run after the instrumented work is done
//! and never touch a hot path.

use crate::json::Json;
use crate::registry::Snapshot;
use crate::span::TraceEvent;
use std::fmt::Write as _;

/// An event's arguments as one JSON object.
fn args_json(args: &[(&'static str, Json)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// One Chrome trace event: a complete span (`ph` `X`) or a point event
/// (`ph` `i`), with timestamps in microseconds.
fn chrome_event(ev: &TraceEvent) -> Json {
    let mut out = Json::object();
    out.set("name", ev.name.as_str())
        .set("cat", ev.cat)
        .set("ph", if ev.dur_ns.is_some() { "X" } else { "i" })
        .set("pid", 1u64)
        .set("tid", ev.tid)
        .set("ts", ev.ts_ns as f64 / 1e3);
    match ev.dur_ns {
        Some(dur) => out.set("dur", dur as f64 / 1e3),
        // Instant events need a scope; "t" = thread.
        None => out.set("s", "t"),
    };
    if !ev.args.is_empty() {
        out.set("args", args_json(&ev.args));
    }
    out
}

/// A Chrome counter sample (`ph` `C`) of metric `name` at `ts`.
fn counter_sample(name: &str, ts: f64, value: impl Into<Json>) -> Json {
    let mut args = Json::object();
    args.set("value", value);
    let mut out = Json::object();
    out.set("name", name)
        .set("cat", "metric")
        .set("ph", "C")
        .set("pid", 1u64)
        .set("tid", 0u64)
        .set("ts", ts)
        .set("args", args);
    out
}

/// Renders spans plus the metric snapshot as Chrome trace-event JSON
/// (the object form, loadable in Perfetto or `chrome://tracing`).
/// Counters and gauges become `ph:"C"` counter samples stamped at the
/// trace end, so route hit rates and the like show up as counter tracks
/// alongside the span timeline.
pub fn chrome_trace_json(events: &[TraceEvent], snap: &Snapshot) -> String {
    let end_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0) as f64 / 1e3;
    let mut trace: Vec<Json> = events.iter().map(chrome_event).collect();
    for (name, value) in &snap.counters {
        trace.push(counter_sample(name, end_ts, *value));
    }
    for (name, value) in &snap.gauges {
        trace.push(counter_sample(name, end_ts, *value));
    }
    let mut doc = Json::object();
    doc.set("displayTimeUnit", "ms").set("traceEvents", trace);
    doc.compact()
}

/// Renders events as JSONL: one self-contained JSON object per line
/// (`ts_ns`, `name`, `cat`, `tid`, optional `dur_ns`, optional `args`).
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let mut line = Json::object();
        line.set("ts_ns", ev.ts_ns)
            .set("name", ev.name.as_str())
            .set("cat", ev.cat)
            .set("tid", ev.tid);
        if let Some(dur) = ev.dur_ns {
            line.set("dur_ns", dur);
        }
        if !ev.args.is_empty() {
            line.set("args", args_json(&ev.args));
        }
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

/// A metric name as a Prometheus identifier: `eirs_` prefix, and every
/// character outside `[a-zA-Z0-9_]` becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("eirs_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders the snapshot in Prometheus text exposition format. Histogram
/// values are nanosecond ticks; bucket boundaries, `_sum`, and the
/// quantile gauges are exported in **seconds**, matching Prometheus
/// conventions for latency metrics.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {value}");
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, hist) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (_, upper, count) in hist.nonzero_buckets() {
            cum += count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", upper as f64 / 1e9);
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{n}_sum {}", hist.sum() as f64 / 1e9);
        let _ = writeln!(out, "{n}_count {}", hist.count());
    }
    out
}

/// Checks that `s` is one well-formed JSON value (with optional
/// surrounding whitespace). Used by the `obs_overhead` bench and tests
/// to validate exported Chrome traces without an external JSON crate.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > 128 {
        return Err("nesting too deep".into());
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn expect(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", want as char))
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                name: "solve \"cell\"".into(),
                cat: "sweep",
                ts_ns: 1_500,
                dur_ns: Some(2_000),
                tid: 3,
                args: vec![("mu_e", Json::Num(1.25)), ("warm", Json::Bool(true))],
            },
            TraceEvent {
                name: "opt.eval".into(),
                cat: "opt",
                ts_ns: 9_000,
                dur_ns: None,
                tid: 0,
                args: vec![("score", Json::Num(f64::NAN))],
            },
        ]
    }

    fn sample_snapshot() -> Snapshot {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        h.record(2_000_000);
        Snapshot {
            counters: vec![("markov.solve.cold".into(), 42)],
            gauges: vec![("opt.best_score".into(), 3.5)],
            histograms: vec![("serve.response".into(), h)],
        }
    }

    #[test]
    fn chrome_trace_is_well_formed_and_carries_counters() {
        let out = chrome_trace_json(&sample_events(), &sample_snapshot());
        validate_json(&out).expect("valid JSON");
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("markov.solve.cold"));
        assert!(out.contains("solve \\\"cell\\\""));
    }

    #[test]
    fn jsonl_lines_each_validate() {
        let out = jsonl(&sample_events());
        for line in out.lines() {
            validate_json(line).expect("valid JSONL line");
        }
        assert_eq!(out.lines().count(), 2);
    }

    /// Whole-document pins of both event exporters over edge cases:
    /// escaped names, NaN, integral/fractional/huge floats, integers
    /// above 2^53 (argument, timestamp, counter), an instant event, and
    /// integral and fractional gauges.
    #[test]
    fn exporter_bytes_are_pinned() {
        let events = vec![
            TraceEvent {
                name: "a \"q\"\n\tb".into(),
                cat: "sweep",
                ts_ns: 1_500,
                dur_ns: Some(2_000),
                tid: 3,
                args: vec![
                    ("frac", 1.25.into()),
                    ("whole", 2.0.into()),
                    ("huge", 1e20.into()),
                    ("seed", 10_451_216_379_200_822_465u64.into()),
                    ("warm", true.into()),
                    ("label", "x\"y".into()),
                ],
            },
            TraceEvent {
                name: "opt.eval".into(),
                cat: "opt",
                ts_ns: 9_007_199_254_740_993,
                dur_ns: None,
                tid: 0,
                args: vec![("score", f64::NAN.into())],
            },
            TraceEvent {
                name: "bare".into(),
                cat: "x",
                ts_ns: 9_000,
                dur_ns: Some(1_000_000_000),
                tid: 1,
                args: Vec::new(),
            },
        ];
        let snap = Snapshot {
            counters: vec![("c.small".into(), 42), ("c.max".into(), u64::MAX)],
            gauges: vec![("g.whole".into(), 7.0), ("g.frac".into(), 3.5)],
            histograms: Vec::new(),
        };
        let chrome = chrome_trace_json(&events, &snap);
        validate_json(&chrome).expect("valid JSON");
        assert_eq!(
            chrome,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"a \\\"q\\\"\\n\\tb\",\"cat\":\"sweep\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\
             \"ts\":1.5,\"dur\":2,\"args\":{\"frac\":1.25,\"whole\":2,\
             \"huge\":100000000000000000000,\"seed\":10451216379200822465,\"warm\":true,\
             \"label\":\"x\\\"y\"}},\
             {\"name\":\"opt.eval\",\"cat\":\"opt\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\
             \"ts\":9007199254740.992,\"s\":\"t\",\"args\":{\"score\":null}},\
             {\"name\":\"bare\",\"cat\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":9,\
             \"dur\":1000000},\
             {\"name\":\"c.small\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
             \"ts\":9007199254740.992,\"args\":{\"value\":42}},\
             {\"name\":\"c.max\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
             \"ts\":9007199254740.992,\"args\":{\"value\":18446744073709551615}},\
             {\"name\":\"g.whole\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
             \"ts\":9007199254740.992,\"args\":{\"value\":7}},\
             {\"name\":\"g.frac\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
             \"ts\":9007199254740.992,\"args\":{\"value\":3.5}}]}"
        );
        assert_eq!(
            jsonl(&events),
            "{\"ts_ns\":1500,\"name\":\"a \\\"q\\\"\\n\\tb\",\"cat\":\"sweep\",\"tid\":3,\
             \"dur_ns\":2000,\"args\":{\"frac\":1.25,\"whole\":2,\"huge\":100000000000000000000,\
             \"seed\":10451216379200822465,\"warm\":true,\"label\":\"x\\\"y\"}}\n\
             {\"ts_ns\":9007199254740993,\"name\":\"opt.eval\",\"cat\":\"opt\",\"tid\":0,\
             \"args\":{\"score\":null}}\n\
             {\"ts_ns\":9000,\"name\":\"bare\",\"cat\":\"x\",\"tid\":1,\"dur_ns\":1000000000}\n"
        );
        assert_eq!(
            chrome_trace_json(&[], &Snapshot::default()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        assert_eq!(jsonl(&[]), "");
    }

    #[test]
    fn prometheus_text_has_counter_gauge_and_histogram_series() {
        let out = prometheus_text(&sample_snapshot());
        assert!(out.contains("# TYPE eirs_markov_solve_cold counter"));
        assert!(out.contains("eirs_markov_solve_cold 42"));
        assert!(out.contains("# TYPE eirs_opt_best_score gauge"));
        assert!(out.contains("# TYPE eirs_serve_response histogram"));
        assert!(out.contains("eirs_serve_response_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("eirs_serve_response_count 2"));
    }

    #[test]
    fn validator_accepts_and_rejects_correctly() {
        for ok in [
            "{}",
            "[]",
            " { \"a\" : [1, -2.5e3, true, null, \"x\\u00e9\"] } ",
            "3.25",
            "\"plain\"",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{} {}",
            "",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
