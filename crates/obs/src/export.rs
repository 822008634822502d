//! Exporters: Chrome trace-event JSON, JSONL event streams, and
//! Prometheus text format — plus a small JSON well-formedness checker
//! used by the benches to validate emitted traces.
//!
//! All exporters are pure functions of a [`Snapshot`] and/or a slice of
//! [`TraceEvent`]s, so they can run after the instrumented work is done
//! and never touch a hot path.

use crate::json::{escape_json, json_num};
use crate::registry::Snapshot;
use crate::span::{ArgValue, TraceEvent};
use std::fmt::Write as _;

fn write_args(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, out);
        out.push_str("\":");
        match v {
            ArgValue::Num(x) => json_num(*x, out),
            ArgValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            ArgValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            ArgValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// One Chrome trace-event object (without trailing comma).
fn write_chrome_event(ev: &TraceEvent, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape_json(&ev.name, out);
    out.push_str("\",\"cat\":\"");
    escape_json(ev.cat, out);
    let ph = if ev.dur_ns.is_some() { "X" } else { "i" };
    let _ = write!(
        out,
        "\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}",
        ev.tid,
        ev.ts_ns as f64 / 1e3
    );
    if let Some(dur) = ev.dur_ns {
        let _ = write!(out, ",\"dur\":{}", dur as f64 / 1e3);
    }
    if ph == "i" {
        // Instant events need a scope; "t" = thread.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":");
        write_args(&ev.args, out);
    }
    out.push('}');
}

/// Renders spans plus the metric snapshot as Chrome trace-event JSON
/// (the object form, loadable in Perfetto or `chrome://tracing`).
/// Counters and gauges become `ph:"C"` counter samples stamped at the
/// trace end, so route hit rates and the like show up as counter tracks
/// alongside the span timeline.
pub fn chrome_trace_json(events: &[TraceEvent], snap: &Snapshot) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for ev in events {
        sep(&mut out);
        write_chrome_event(ev, &mut out);
    }
    let end_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0) as f64 / 1e3;
    for (name, value) in &snap.counters {
        sep(&mut out);
        out.push_str("{\"name\":\"");
        escape_json(name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_ts},\
             \"args\":{{\"value\":{value}}}}}"
        );
    }
    for (name, value) in &snap.gauges {
        sep(&mut out);
        out.push_str("{\"name\":\"");
        escape_json(name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_ts},\
             \"args\":{{\"value\":"
        );
        json_num(*value, &mut out);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders events as JSONL: one self-contained JSON object per line
/// (`ts_ns`, `name`, `cat`, `tid`, optional `dur_ns`, optional `args`).
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str("{\"ts_ns\":");
        let _ = write!(out, "{}", ev.ts_ns);
        out.push_str(",\"name\":\"");
        escape_json(&ev.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(ev.cat, &mut out);
        let _ = write!(out, "\",\"tid\":{}", ev.tid);
        if let Some(dur) = ev.dur_ns {
            let _ = write!(out, ",\"dur_ns\":{dur}");
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":");
            write_args(&ev.args, &mut out);
        }
        out.push_str("}\n");
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
                args: vec![
                    ("mu_e", ArgValue::Num(1.25)),
                    ("warm", ArgValue::Bool(true)),
                ],
            },
            TraceEvent {
                name: "opt.eval".into(),
                cat: "opt",
                ts_ns: 9_000,
                dur_ns: None,
                tid: 0,
                args: vec![("score", ArgValue::Num(f64::NAN))],
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
