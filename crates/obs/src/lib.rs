//! Deterministic observability for the workspace: metrics, latency
//! histograms, span tracing, and exporters.
//!
//! Every substrate in this repository carries a bit-determinism contract
//! (parallel ≡ serial, one shard worker ≡ many, restored ≡ original).
//! Telemetry must not bend that contract, so this crate is built around
//! one hard rule:
//!
//! > **Instrumentation never feeds back into computation.** Counters,
//! > spans, and histograms are write-only from the instrumented code's
//! > point of view; whether the layer is enabled or disabled, every
//! > digested result (decision digests, sweep JSON, fuzz verdicts) stays
//! > bit-identical. The `obs_overhead` bench and the CI invariance gate
//! > hold the workspace to it.
//!
//! The surface has three parts:
//!
//! * [`registry`] — process-wide named [`Counter`]s and [`Gauge`]s plus
//!   published [`LatencyHistogram`]s. Recording is a relaxed atomic add
//!   behind a relaxed-load enabled check — no lock is ever taken on a hot
//!   path. Counter totals are deterministic under parallelism because
//!   addition commutes.
//! * [`hist`] — [`LatencyHistogram`], a log-linear (HDR-style) histogram
//!   with bounded relative error and an **exact associative merge**
//!   (element-wise bucket addition), so per-shard/per-worker histograms
//!   fold into one whole with no sketch error from the merge itself.
//! * [`span`](mod@span) — wall-clock span timing into thread-local buffers
//!   (flushed when a thread's outermost span closes), plus point events.
//!   When the layer is disabled a span is a single relaxed atomic load and
//!   branch.
//!
//! [`export`] renders the collected state as a Chrome trace-event JSON
//! file (loadable in Perfetto / `chrome://tracing`), a JSONL event
//! stream, or a Prometheus text-format snapshot. [`Json`] is the
//! workspace's one JSON writer: every `eirs --json true` document,
//! `BENCH_*.json` artifact and exported trace event is built with it,
//! and span arguments are [`Json`] values, so integers such as seeds
//! print exactly. See `docs/OBSERVABILITY.md` for the metric catalog and
//! a Perfetto walkthrough.
//!
//! # Example
//!
//! ```
//! use eirs_obs::{self as obs, LazyCounter};
//!
//! static SOLVES: LazyCounter = LazyCounter::new("example.solves");
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span("solve", "example");
//!     SOLVES.inc();
//! }
//! let snap = obs::snapshot();
//! assert!(snap.counter("example.solves") >= 1);
//! assert!(obs::export::prometheus_text(&snap).contains("example_solves"));
//! obs::set_enabled(false);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

pub mod export;
pub mod hist;
pub mod json;
pub mod registry;
pub mod span;

pub use hist::LatencyHistogram;
pub use json::Json;
pub use registry::{publish_histogram, snapshot, Counter, Gauge, LazyCounter, LazyGauge, Snapshot};
pub use span::{event, span, take_events, SpanGuard, TraceEvent};

/// Global enable flag. Relaxed ordering is sufficient: the flag only
/// gates telemetry, never computation, so there is nothing to synchronize
/// with.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the observability layer is recording. This is the disabled-path
/// cost of every instrumentation site: one relaxed atomic load and a
/// branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. The CLI sets this when
/// `--metrics-out` or `--trace-out` is given; benches toggle it to
/// measure both paths. Enabling or disabling never changes any computed
/// result — only whether telemetry accumulates.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Resets all recorded state (counter values, gauges, published
/// histograms, buffered trace events) without unregistering metric names.
/// Intended for benches and tests that need a clean slate between runs.
pub fn reset() {
    registry::reset_values();
    span::clear();
}

/// Serializes tests that toggle the global enable flag (the flag is
/// process-wide; concurrent toggling tests would race each other).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
use std::sync::Mutex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        let _guard = test_lock();
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
