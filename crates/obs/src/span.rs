//! Wall-clock span and event tracing into thread-local buffers.
//!
//! A [`span`] measures a region of code: the guard stamps the start on
//! construction and pushes a complete event (Chrome phase `X`) with its
//! duration on drop. An [`event`] is a zero-duration point marker
//! (phase `i`). Both are no-ops — one relaxed load and a branch — when
//! the layer is disabled.
//!
//! Events accumulate in a per-thread buffer (no lock inside a span) and
//! migrate to a global list when the thread's outermost span closes,
//! when the buffer fills, or when the thread exits. The first is the
//! one exporters rely on: a scoped worker's thread-local destructor can
//! run after `thread::scope` has returned, but its last span closed
//! before the closure did. [`take_events`] drains the global list plus
//! the calling thread's buffer, sorted by timestamp so export order is
//! stable.
//!
//! Timestamps are wall-clock nanoseconds from a process-wide anchor.
//! They are telemetry only: nothing computed from them flows back into
//! any digested result.

use crate::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span or point event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the timeline label).
    pub name: String,
    /// Category tag (Chrome trace `cat`; one per subsystem).
    pub cat: &'static str,
    /// Start timestamp, nanoseconds since the process trace anchor.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `None` for point events.
    pub dur_ns: Option<u64>,
    /// Logical thread id (stable small integers, assigned per thread).
    pub tid: u64,
    /// Attached `key: value` arguments.
    pub args: Vec<(&'static str, Json)>,
}

/// Nanoseconds since the process-wide trace anchor (first use).
fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn global_events() -> &'static Mutex<Vec<TraceEvent>> {
    static GLOBAL: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-thread buffer capacity before spilling to the global list.
const SPILL_AT: usize = 1024;

struct ThreadBuf {
    tid: u64,
    /// Spans open on this thread.
    open: usize,
    events: Vec<TraceEvent>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.events.is_empty() {
            global_events()
                .lock()
                .expect("obs trace buffer poisoned")
                .append(&mut self.events);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        RefCell::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            open: 0,
            events: Vec::new(),
        })
    };
}

fn push(mut ev: TraceEvent) {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        ev.tid = b.tid;
        if ev.dur_ns.is_some() {
            // A guard dropped on another thread than it opened on.
            b.open = b.open.saturating_sub(1);
        }
        b.events.push(ev);
        if b.open == 0 || b.events.len() >= SPILL_AT {
            b.flush();
        }
    });
}

/// An in-flight span (or pending point event). Records on drop; inert
/// when the layer was disabled at construction.
pub struct SpanGuard {
    inner: Option<TraceEvent>,
}

impl SpanGuard {
    /// Attaches an argument (no-op on an inert guard).
    pub fn arg(&mut self, key: &'static str, value: impl Into<Json>) {
        if let Some(ev) = &mut self.inner {
            ev.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut ev) = self.inner.take() {
            if ev.dur_ns.is_some() {
                ev.dur_ns = Some(now_ns().saturating_sub(ev.ts_ns));
            }
            push(ev);
        }
    }
}

/// Opens a timed span; the returned guard records a complete event with
/// the region's duration when dropped.
#[inline]
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    BUF.with(|b| b.borrow_mut().open += 1);
    SpanGuard {
        inner: Some(TraceEvent {
            name: name.into(),
            cat,
            ts_ns: now_ns(),
            dur_ns: Some(0),
            tid: 0,
            args: Vec::new(),
        }),
    }
}

/// Records a point event at the current timestamp. Attach arguments via
/// the returned guard; the event lands when the guard drops.
#[inline]
pub fn event(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    SpanGuard {
        inner: Some(TraceEvent {
            name: name.into(),
            cat,
            ts_ns: now_ns(),
            dur_ns: None,
            tid: 0,
            args: Vec::new(),
        }),
    }
}

/// Drains every buffered event (the global list plus the calling
/// thread's buffer), sorted by timestamp then thread id. A thread
/// flushes whenever its outermost span closes, so calling this after
/// joining worker threads observes every span they closed.
pub fn take_events() -> Vec<TraceEvent> {
    BUF.with(|b| b.borrow_mut().flush());
    let mut events =
        std::mem::take(&mut *global_events().lock().expect("obs trace buffer poisoned"));
    events.sort_by_key(|a| (a.ts_ns, a.tid));
    events
}

/// Discards every buffered event.
pub fn clear() {
    drop(take_events());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_duration_and_args_when_enabled() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let mut s = span("test.span.work", "test");
            s.arg("cells", 7u64);
            s.arg("warm", true);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        event("test.span.point", "test").arg("score", 1.25);
        crate::set_enabled(false);
        let events = take_events();
        let work = events
            .iter()
            .find(|e| e.name == "test.span.work")
            .expect("span recorded");
        assert!(work.dur_ns.unwrap() >= 500_000, "{:?}", work.dur_ns);
        assert_eq!(work.args[0], ("cells", Json::Int(7)));
        assert_eq!(work.args[1], ("warm", Json::Bool(true)));
        let point = events
            .iter()
            .find(|e| e.name == "test.span.point")
            .expect("event recorded");
        assert_eq!(point.dur_ns, None);
        assert_eq!(point.args[0], ("score", Json::Num(1.25)));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        clear();
        {
            let mut s = span("test.span.silent", "test");
            s.arg("ignored", 1u64);
        }
        assert!(take_events().iter().all(|e| e.name != "test.span.silent"));
    }

    #[test]
    fn worker_thread_events_survive_thread_exit() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _s = span("test.span.worker", "test");
            });
        });
        crate::set_enabled(false);
        assert!(take_events().iter().any(|e| e.name == "test.span.worker"));
    }
}
