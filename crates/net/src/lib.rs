//! # eirs-net — the networked serving front end.
//!
//! Everything below `eirs_serve` is a library call: you hand the engine
//! a batch of arrivals and read decisions back. This crate puts that
//! engine behind a socket, closing the loop a real deployment needs:
//!
//! ```text
//!  clients ──(eirsnp01 frames)──▶ readers ─▶ one ingest queue ─▶ engine loop
//!     ▲                                                              │
//!     └────────────── decision frames ◀── batched admissions ────────┘
//!
//!        observe (ShardMetrics) ─▶ re-optimize (eirs_opt) ─▶ hot-swap
//! ```
//!
//! * [`protocol`] — the `eirsnp01` wire format: length-prefixed,
//!   checksummed binary frames. Decoding is strict; corrupt streams are
//!   torn down, never resynchronized or silently truncated.
//! * [`queue`] — the bounded FIFO between the connection readers and
//!   the engine loop; its capacity (`--queue-cap`) is the
//!   backpressure/shed mechanism.
//! * [`server`] — the accept loop, one reader thread per connection,
//!   and the engine loop that alone clamps the stream clock, journals
//!   each batch write-ahead, ingests it, and writes the decisions back;
//!   plus the **atomic policy hot-swap**: control frames (as in-band
//!   queue markers) or CLI triggers install a freshly compiled table at
//!   an exact arrival-sequence barrier, journaled so replay reproduces
//!   the decision digest bit for bit. An `optimize:<family>` swap
//!   re-runs the `eirs_opt` search against the live engine's observed
//!   per-class arrival rates.
//! * [`client`] — the load generator: N concurrent pipelined
//!   connections, per-request wall-clock latency histograms.
//!
//! The front end preserves the serving layer's accounting exactly:
//! `completions + engine rejections + net sheds = client arrivals`
//! ([`ServeReport::accounting_balanced`]), and a journaled networked
//! run replays offline to the same digest
//! (`eirs_serve::replay_journal`).

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{run_client, ClientConfig, ClientReport};
pub use protocol::{Frame, ProtocolError};
pub use queue::BoundedQueue;
pub use server::{
    install_swap, serve, CompileFn, NetConfig, ReoptSettings, ServeReport, SwapError, SwapTrigger,
};
