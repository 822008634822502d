//! The serving front end: a blocking TCP accept loop whose connection
//! readers feed one bounded FIFO into a [`ServeEngine`], with atomic
//! policy hot-swap.
//!
//! ## Data path
//!
//! ```text
//! conn 0 ─ reader ─┐                                       ┌─▶ conn 0
//! conn 1 ─ reader ─┼─▶ ingest queue ─▶ engine loop ────────┼─▶ conn 1
//! conn N ─ reader ─┘   (one FIFO:      (clock clamp, WAL,  └─▶ conn N
//!                       arrivals +      ingest, decisions     (one write
//!                       markers)        per connection)       per batch)
//! ```
//!
//! Reader threads decode frames from a buffered read half (one socket
//! read per burst of frames) and push them, in order, onto one
//! [`BoundedQueue`]: arrivals, plus two in-band markers — a swap
//! requested by a control frame, and "this reader has exited". The engine loop is the queue's only consumer and the only
//! thread that touches the engine and the journal. Per batch it clamps
//! the stream clock to its running maximum (connections interleave
//! arbitrary workload clocks), appends the batch to the write-ahead
//! journal, ingests it ([`ServeEngine`] assigns the global sequence
//! numbers), and buffers each decision frame for its connection; every
//! connection's buffer goes out in one socket write when the batch
//! ends. Since replies are already coalesced per batch, accepted
//! sockets set `TCP_NODELAY`: with Nagle's algorithm on, a batch's
//! write could wait for the client's delayed ACK (40 ms on Linux)
//! whenever an earlier write was still unacknowledged, so the last
//! decisions of a burst would arrive late by that timer.
//!
//! A full queue exerts **backpressure** (the reader blocks in its push,
//! which stalls that connection's TCP stream) or, with
//! [`NetConfig::shed`], **sheds**: the reader's non-blocking push is
//! refused, it answers with a not-admitted decision frame, and the
//! engine/journal/digest never see the arrival — so accounting stays
//! exact: `completions + engine rejections + net sheds = client
//! arrivals`. No thread waits on the queue while holding another lock,
//! and a connection's writer lock guards only that connection's socket.
//!
//! ## Hot swap
//!
//! A [`Frame::Control`] `swap <spec>` command travels through the queue
//! as a marker, so its place in the FIFO is its barrier: arrivals
//! queued before it are decided by the old generation, arrivals queued
//! after it by the new one. Swaps scheduled up front (CLI
//! `--swap-policy`/`--swap-at`, [`SwapTrigger`]) are a sorted list of
//! sequence-number barriers the engine loop owns; it never ingests
//! across one. At a barrier the engine loop calls [`install_swap`],
//! which builds the new table — compiling `spec` directly, or for
//! `optimize:<family>` re-running the optimizer against the engine's
//! live observed per-class arrival rates — then journals the
//! [`SwapRecord`] (write-ahead: before any arrival is served under the
//! new generation) and installs it. The CLI's offline `--swap-policy`
//! run swaps through the same function. Replaying the journal
//! reproduces the swap at the same sequence number and the decision
//! digest bit for bit.
//!
//! ## Shutdown
//!
//! A reader's exit marker is the last item it pushes, so when the
//! engine loop pops it, every arrival of that connection has been
//! decided: the loop sends BYE and closes the socket. Once every
//! accepted connection has exited, the loop stops — that decision and
//! the accept thread's registration of a new connection share one lock,
//! so a late connection is either served in full or refused — applies
//! the swaps still scheduled past the end of the stream, and wakes the
//! accept thread, which blocks in `accept`, with one loopback connect
//! to itself.

use crate::protocol::{
    encode_frame, encode_frame_into, read_frame_with, read_magic, write_magic, Frame,
};
use crate::queue::BoundedQueue;
use eirs_obs::{publish_histogram, LatencyHistogram, LazyCounter};
use eirs_opt::optim::Budget;
use eirs_opt::reoptimize::{reoptimize, ObservedLoad};
use eirs_opt::space::parse_family;
use eirs_serve::metrics::ShardMetrics;
use eirs_serve::{CompiledTable, JournalWriter, ServeEngine, SwapRecord};
use eirs_sim::Arrival;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static NET_CONNECTIONS: LazyCounter = LazyCounter::new("net.connections");
static NET_FRAMES_IN: LazyCounter = LazyCounter::new("net.frames_in");
static NET_FRAMES_OUT: LazyCounter = LazyCounter::new("net.frames_out");
static NET_BYTES_OUT: LazyCounter = LazyCounter::new("net.bytes_out");
static NET_ARRIVALS: LazyCounter = LazyCounter::new("net.arrivals");
static NET_SHEDS: LazyCounter = LazyCounter::new("net.sheds");
static NET_PROTOCOL_ERRORS: LazyCounter = LazyCounter::new("net.protocol_errors");
static NET_TIME_CLAMPED: LazyCounter = LazyCounter::new("net.time_clamped");
static SWAP_COUNT: LazyCounter = LazyCounter::new("swap.count");
static SWAP_FAILED: LazyCounter = LazyCounter::new("swap.failed");

/// Compiles a parseable policy spec into a serving table (supplied by
/// the CLI so the net layer stays agnostic of spec grammars and grid
/// sizing).
pub type CompileFn = dyn Fn(&str) -> Result<CompiledTable, String> + Send + Sync;

/// Front-end shape: queue capacity, overload behavior, and
/// re-optimization parameters. The engine loop batches at the engine's
/// own `EngineConfig::batch`.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Capacity of the one ingest queue between the connection readers
    /// and the engine loop (the backpressure/shed threshold). Swap and
    /// reader-exit markers count against it too.
    pub queue_cap: usize,
    /// `true`: an arrival that finds the ingest queue full is shed
    /// (not-admitted decision, never enters the stream). `false`: the
    /// reader blocks, back-pressuring the client connection.
    pub shed: bool,
    /// Model parameters for `optimize:<family>` swaps.
    pub reopt: ReoptSettings,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            queue_cap: 8192,
            shed: false,
            reopt: ReoptSettings::default(),
        }
    }
}

/// Service-rate model and search budget for `optimize:<family>` swaps
/// (arrival rates come from the live engine; service rates cannot be
/// observed from arrivals alone, so the operator supplies them).
#[derive(Debug, Clone, Copy)]
pub struct ReoptSettings {
    /// Inelastic service rate `µ_I`.
    pub mu_inelastic: f64,
    /// Elastic service rate `µ_E`.
    pub mu_elastic: f64,
    /// Optimizer evaluation budget.
    pub max_evals: usize,
    /// Optimizer seed.
    pub seed: u64,
}

impl Default for ReoptSettings {
    fn default() -> Self {
        Self {
            mu_inelastic: 1.0,
            mu_elastic: 1.0,
            max_evals: 60,
            seed: 1,
        }
    }
}

/// A swap scheduled before the server starts (CLI `--swap-policy` +
/// `--swap-at`).
#[derive(Debug, Clone)]
pub struct SwapTrigger {
    /// Global arrival sequence number to swap at. Arrivals `< at_seq`
    /// are decided by the old generation. If the stream ends earlier,
    /// the swap takes effect at end of stream (and is journaled at the
    /// actual barrier).
    pub at_seq: u64,
    /// Policy spec to install, or `optimize:<family>` to re-optimize
    /// from observed traffic at the barrier.
    pub spec: String,
}

/// What a serving session did, end to end.
#[derive(Debug)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: usize,
    /// Arrival frames received from clients.
    pub client_arrivals: u64,
    /// Arrivals that entered the stream (assigned a sequence number).
    pub ingested: u64,
    /// Arrivals shed at a full ingest queue (under [`NetConfig::shed`]);
    /// never entered the stream.
    pub net_sheds: u64,
    /// Arrivals the engine's degraded-mode admission control rejected.
    pub engine_rejections: u64,
    /// Jobs completed after the final drain.
    pub completions: u64,
    /// The engine's decision digest.
    pub digest: u64,
    /// Final policy generation.
    pub generation: u32,
    /// The generation schedule (ordered swap records).
    pub swaps: Vec<SwapRecord>,
    /// Wall-clock pause of each swap barrier (compile + install).
    pub swap_pause_seconds: Vec<f64>,
    /// Swaps that failed (bad spec at the barrier, infeasible observed
    /// load, ...); the old policy kept serving.
    pub swap_errors: Vec<String>,
    /// Protocol errors that tore down connections.
    pub protocol_errors: u64,
    /// Journal append failures (journaling stops at the first one).
    pub journal_errors: Vec<String>,
    /// Merged engine metrics after the final drain.
    pub totals: ShardMetrics,
}

impl ServeReport {
    /// The exact-accounting identity the front end guarantees:
    /// `completions + engine rejections + net sheds = client arrivals`.
    pub fn accounting_balanced(&self) -> bool {
        self.completions + self.engine_rejections + self.net_sheds == self.client_arrivals
    }
}

/// One entry of the ingest queue, in the order its reader pushed it.
enum Ingest {
    Arrival {
        conn: usize,
        req_id: u64,
        arrival: Arrival,
    },
    /// A control-frame swap; its place in the queue is its barrier.
    Swap {
        conn: usize,
        request: Box<SwapRequest>,
    },
    /// A reader's last push: everything it queued is ahead of this.
    Exit { conn: usize, tally: Tally },
}

/// A swap to install at its barrier.
struct SwapRequest {
    spec: String,
    /// Pre-compiled by the reader for plain specs; `optimize:` swaps
    /// compile at the barrier (they need the metrics observed *then*).
    table: Option<CompiledTable>,
}

/// One reader's accounting, handed over in its exit marker.
#[derive(Default)]
struct Tally {
    arrivals: u64,
    sheds: u64,
    protocol_errors: u64,
}

/// One accepted connection's write half (`None` once closed). The lock
/// guards only this socket.
struct Conn(Mutex<Option<TcpStream>>);

impl Conn {
    /// Writes `frames` already-encoded frames in one call; a failed
    /// write closes the connection.
    fn send(&self, bytes: &[u8], frames: u64) {
        let mut out = self.0.lock().expect("connection writer poisoned");
        let Some(stream) = out.as_mut() else { return };
        if stream.write_all(bytes).is_ok() {
            NET_FRAMES_OUT.add(frames);
            NET_BYTES_OUT.add(bytes.len() as u64);
        } else {
            let _ = stream.shutdown(Shutdown::Both);
            *out = None;
        }
    }

    fn close(&self) {
        if let Some(stream) = self.0.lock().expect("connection writer poisoned").take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Accepted connections by id. The lock is held only to register a
/// connection, copy handles out, or decide shutdown — never across I/O
/// or a queue wait.
struct Registry {
    conns: Vec<Arc<Conn>>,
    stopped: bool,
}

struct Shared<'a> {
    queue: BoundedQueue<Ingest>,
    registry: Mutex<Registry>,
    shed: bool,
    k: u32,
    compile: &'a CompileFn,
}

/// The not-admitted decision for an arrival refused before it entered
/// the stream (full queue under `shed`): no sequence number, no shard,
/// no journal record.
fn shed_frame(req_id: u64) -> Frame {
    Frame::Decision {
        req_id,
        seq: u64::MAX,
        shard: u32::MAX,
        i: 0,
        j: 0,
        generation: 0, // shed before the stream: generation is moot
        alloc_inelastic: 0.0,
        alloc_elastic: 0.0,
        admitted: false,
    }
}

/// Validates a `swap <spec>` control command. `Err` is the text of the
/// ERROR frame that tears the connection down.
fn swap_request(shared: &Shared<'_>, cmd: &str) -> Result<SwapRequest, String> {
    let Some(spec) = cmd.strip_prefix("swap ") else {
        return Err(format!("unknown control command '{cmd}'"));
    };
    let spec = spec.trim().to_string();
    let table = match spec.strip_prefix("optimize:") {
        Some(family) => {
            parse_family(family, shared.k)
                .map_err(|e| format!("cannot re-optimize '{family}': {e}"))?;
            None
        }
        None => Some(
            (shared.compile)(&spec)
                .map_err(|e| format!("cannot compile swap policy '{spec}': {e}"))?,
        ),
    };
    Ok(SwapRequest { spec, table })
}

/// Queues one connection's frames until BYE or EOF. `Err` is the text
/// of the ERROR frame that tears the connection down (a malformed
/// stream is never resynchronized).
fn read_frames(
    shared: &Shared<'_>,
    conn: usize,
    out: &Conn,
    stream: &mut BufReader<TcpStream>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut reply = Vec::new();
    let mut payload = Vec::new();
    loop {
        let frame = match read_frame_with(stream, &mut payload) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        };
        NET_FRAMES_IN.inc();
        match frame {
            Frame::Arrival {
                req_id,
                class,
                time,
                size,
            } => {
                tally.arrivals += 1;
                NET_ARRIVALS.inc();
                let item = Ingest::Arrival {
                    conn,
                    req_id,
                    arrival: Arrival { time, class, size },
                };
                let queued = if shared.shed {
                    shared.queue.try_push(item)
                } else {
                    shared.queue.push(item)
                };
                if queued.is_err() {
                    tally.sheds += 1;
                    NET_SHEDS.inc();
                    reply.clear();
                    encode_frame_into(&mut reply, &shed_frame(req_id));
                    out.send(&reply, 1);
                }
            }
            Frame::Control(cmd) => {
                let request = Box::new(swap_request(shared, &cmd)?);
                push_marker(shared, Ingest::Swap { conn, request });
            }
            Frame::Bye => return Ok(()),
            other => return Err(format!("unexpected client frame {other:?}; closing")),
        }
    }
}

/// Markers are never shed: the engine loop needs every one of them.
fn push_marker(shared: &Shared<'_>, marker: Ingest) {
    if shared.queue.push(marker).is_err() {
        unreachable!("the ingest queue is never closed");
    }
}

/// One connection's reader: handshake, then frames until BYE, EOF, or
/// a protocol error; always ends with the exit marker.
fn run_reader(shared: &Shared<'_>, conn: usize, out: &Conn, mut stream: TcpStream) {
    NET_CONNECTIONS.inc();
    let mut tally = Tally::default();
    // The handshake echo goes out before anything of this connection
    // is queued, so nothing else can be writing to the socket yet. The
    // magic is read from the bare socket, exactly 8 bytes, so the
    // buffered frame reader starts at the first frame.
    let clean = read_magic(&mut stream).is_ok()
        && write_magic(&mut stream).is_ok()
        && match read_frames(shared, conn, out, &mut BufReader::new(stream), &mut tally) {
            Ok(()) => true,
            Err(why) => {
                out.send(&encode_frame(&Frame::Error(why)), 1);
                false
            }
        };
    if !clean {
        tally.protocol_errors += 1;
        NET_PROTOCOL_ERRORS.inc();
    }
    push_marker(shared, Ingest::Exit { conn, tally });
}

/// One connection as the engine loop sees it: the write half and the
/// frames pending for it until the batch ends.
struct Lane {
    conn: Arc<Conn>,
    bytes: Vec<u8>,
    frames: u64,
}

/// The engine loop's write side, by connection id.
#[derive(Default)]
struct Lanes {
    lanes: Vec<Lane>,
    /// Lanes holding unsent frames.
    dirty: Vec<usize>,
}

impl Lanes {
    /// Appends `frame` to connection `conn`'s pending bytes.
    fn queue(&mut self, registry: &Mutex<Registry>, conn: usize, frame: &Frame) {
        if conn >= self.lanes.len() {
            // A connection is registered before its reader starts, so
            // every id in the queue is already here.
            let reg = registry.lock().expect("registry poisoned");
            let known = self.lanes.len();
            self.lanes
                .extend(reg.conns[known..].iter().map(|conn| Lane {
                    conn: Arc::clone(conn),
                    bytes: Vec::new(),
                    frames: 0,
                }));
        }
        let lane = &mut self.lanes[conn];
        if lane.frames == 0 {
            self.dirty.push(conn);
        }
        encode_frame_into(&mut lane.bytes, frame);
        lane.frames += 1;
    }

    /// Sends every pending frame: one socket write per connection.
    fn flush(&mut self) {
        for conn in self.dirty.drain(..) {
            let lane = &mut self.lanes[conn];
            lane.conn.send(&lane.bytes, lane.frames);
            lane.bytes.clear();
            lane.frames = 0;
        }
    }
}

/// The engine loop: the ingest queue's only consumer and the only
/// owner of the engine and the journal.
struct EngineLoop<'s, 'a> {
    shared: &'s Shared<'a>,
    engine: ServeEngine,
    journal: Option<JournalWriter<Box<dyn Write + Send>>>,
    config: NetConfig,
    /// CLI swap barriers, earliest first.
    scheduled: std::iter::Peekable<std::vec::IntoIter<SwapTrigger>>,
    lanes: Lanes,
    /// The batch being assembled, and who sent each arrival.
    arrivals: Vec<Arrival>,
    senders: Vec<(usize, u64)>,
    time_max: f64,
    exited: usize,
    tally: Tally,
    journal_errors: Vec<String>,
    swap_errors: Vec<String>,
    swap_pauses: Vec<f64>,
}

impl EngineLoop<'_, '_> {
    /// Serves the queue until every accepted connection has exited.
    fn run(&mut self) {
        let batch = self.engine.config().batch;
        let mut items = Vec::with_capacity(batch);
        while self.shared.queue.pop_into(&mut items, batch) > 0 {
            let exited = self.exited;
            for item in items.drain(..) {
                match item {
                    Ingest::Arrival {
                        conn,
                        req_id,
                        mut arrival,
                    } => {
                        self.apply_scheduled();
                        if arrival.time < self.time_max {
                            arrival.time = self.time_max;
                            NET_TIME_CLAMPED.inc();
                        } else {
                            self.time_max = arrival.time;
                        }
                        self.arrivals.push(arrival);
                        self.senders.push((conn, req_id));
                    }
                    Ingest::Swap { conn, request } => {
                        self.ingest();
                        self.apply_scheduled();
                        let reply = format!(
                            "swap to '{}' scheduled at arrival seq {}",
                            request.spec,
                            self.engine.ingested()
                        );
                        self.swap(*request);
                        self.lanes
                            .queue(&self.shared.registry, conn, &Frame::ControlOk(reply));
                    }
                    Ingest::Exit { conn, tally } => {
                        self.ingest();
                        self.lanes.queue(&self.shared.registry, conn, &Frame::Bye);
                        self.lanes.flush();
                        self.lanes.lanes[conn].conn.close();
                        self.tally.arrivals += tally.arrivals;
                        self.tally.sheds += tally.sheds;
                        self.tally.protocol_errors += tally.protocol_errors;
                        self.exited += 1;
                    }
                }
            }
            self.ingest();
            self.lanes.flush();
            if self.exited > exited {
                let mut reg = self.shared.registry.lock().expect("registry poisoned");
                reg.stopped = self.exited == reg.conns.len();
                if reg.stopped {
                    break;
                }
            }
        }
        // End-of-stream barrier: swaps scheduled past the last arrival
        // take effect here, in order.
        while let Some(trigger) = self.scheduled.next() {
            self.swap(SwapRequest {
                spec: trigger.spec,
                table: None,
            });
        }
    }

    /// Installs every CLI swap whose barrier is the next sequence
    /// number, landing a batch boundary exactly on it.
    fn apply_scheduled(&mut self) {
        let next = self.engine.ingested() + self.arrivals.len() as u64;
        while let Some(trigger) = self.scheduled.next_if(|t| t.at_seq <= next) {
            self.ingest();
            self.swap(SwapRequest {
                spec: trigger.spec,
                table: None,
            });
        }
    }

    /// Journals (write-ahead), ingests, and answers the batch assembled
    /// so far.
    fn ingest(&mut self) {
        if self.arrivals.is_empty() {
            return;
        }
        let seq = self.engine.ingested();
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.append_batch(seq, &self.arrivals) {
                self.journal_errors
                    .push(format!("journal append at seq {seq}: {e}"));
                self.journal = None;
            }
        }
        let acks = self.engine.ingest_batch_admissions(&self.arrivals);
        for (n, (&(conn, req_id), ack)) in self.senders.iter().zip(&acks).enumerate() {
            let decision = Frame::Decision {
                req_id,
                seq: seq + n as u64,
                shard: ack.shard as u32,
                i: ack.i as u32,
                j: ack.j as u32,
                generation: ack.generation,
                alloc_inelastic: ack.allocation.inelastic,
                alloc_elastic: ack.allocation.elastic,
                admitted: ack.admitted,
            };
            self.lanes.queue(&self.shared.registry, conn, &decision);
        }
        self.senders.clear();
        self.arrivals.clear();
    }

    /// Installs one swap at the current barrier through [`install_swap`].
    /// A swap that cannot be resolved leaves the old policy serving and
    /// is reported; a swap whose record cannot be journaled still stands,
    /// and journaling stops there.
    fn swap(&mut self, request: SwapRequest) {
        let started = Instant::now();
        let installed = install_swap(
            &mut self.engine,
            self.journal.as_mut(),
            &request.spec,
            request.table,
            &self.config.reopt,
            self.shared.compile,
        );
        match installed {
            Ok(_) => {}
            Err(SwapError::Journal(e)) => {
                let seq = self.engine.ingested();
                self.journal_errors
                    .push(format!("journal swap at seq {seq}: {e}"));
                self.journal = None;
            }
            Err(SwapError::Resolve(e)) => {
                SWAP_FAILED.inc();
                let requested = request.spec;
                self.swap_errors
                    .push(format!("swap to '{requested}' failed (policy kept): {e}"));
                return;
            }
        }
        SWAP_COUNT.inc();
        let pause = started.elapsed().as_secs_f64();
        self.swap_pauses.push(pause);
        let mut h = LatencyHistogram::new();
        h.record_seconds(pause);
        publish_histogram("swap.pause", &h);
    }
}

/// Why [`install_swap`] did not complete cleanly.
#[derive(Debug)]
pub enum SwapError {
    /// The spec could not be resolved or compiled (a bad spec, an
    /// infeasible observed load, a failed search); nothing changed.
    Resolve(String),
    /// The new table is installed, but its [`SwapRecord`] could not be
    /// journaled, so the journal no longer covers the run.
    Journal(std::io::Error),
}

/// Installs one policy hot-swap at the engine's current barrier (its
/// next arrival sequence number): the one swap resolver of the server's
/// engine loop and the CLI's offline `--swap-policy` run.
///
/// The table is `compiled` if the caller built it already; otherwise
/// `spec` is compiled, or, for `optimize:<family>`, re-optimized first
/// against the per-class arrival rates the engine has observed so far,
/// with `reopt`'s service rates and search budget. The [`SwapRecord`]
/// is journaled **write-ahead**, before any arrival is served under the
/// new generation, and the table is installed. Each caller keeps its own
/// error policy.
pub fn install_swap<W: Write>(
    engine: &mut ServeEngine,
    journal: Option<&mut JournalWriter<W>>,
    spec: &str,
    compiled: Option<CompiledTable>,
    reopt: &ReoptSettings,
    compile: &CompileFn,
) -> Result<SwapRecord, SwapError> {
    let resolved = match spec.strip_prefix("optimize:") {
        Some(family) if compiled.is_none() => {
            let totals = engine.metrics_total();
            let stream_time: f64 = engine.metrics_per_shard().iter().map(|m| m.sim_time).sum();
            let load = ObservedLoad::from_counts(
                totals.arrivals_inelastic,
                totals.arrivals_elastic,
                stream_time,
            )
            .map_err(SwapError::Resolve)?;
            let budget = Budget {
                max_evals: reopt.max_evals,
                seed: reopt.seed,
            };
            reoptimize(
                family,
                engine.config().k,
                &load,
                reopt.mu_inelastic,
                reopt.mu_elastic,
                &budget,
            )
            .map_err(SwapError::Resolve)?
            .spec
        }
        _ => spec.to_string(),
    };
    let table = match compiled {
        Some(table) => table,
        None => compile(&resolved).map_err(SwapError::Resolve)?,
    };
    let record = SwapRecord {
        seq: engine.ingested(),
        generation: engine.generation() + 1,
        hash: table.identity_hash(),
        spec: resolved.clone(),
    };
    let journaled = journal.map_or(Ok(()), |journal| journal.append_swap(&record));
    let installed = engine.install_table(table, &resolved);
    debug_assert_eq!(installed, record, "journaled swap differs from installed");
    journaled.map_err(SwapError::Journal)?;
    Ok(installed)
}

/// Serves connections on `listener` until at least one client has
/// connected and all clients have disconnected, then drains the engine
/// and reports. See the [module docs](self) for the data path.
///
/// `journal`, when given, receives the write-ahead log (header already
/// written by the caller via [`JournalWriter::create_with_spec`]).
/// `swaps` are CLI-scheduled hot-swaps; control frames can add more at
/// runtime. `compile` turns a policy spec into a serving table.
pub fn serve(
    listener: TcpListener,
    engine: ServeEngine,
    journal: Option<JournalWriter<Box<dyn Write + Send>>>,
    mut swaps: Vec<SwapTrigger>,
    config: NetConfig,
    compile: &CompileFn,
) -> Result<ServeReport, String> {
    assert_eq!(engine.ingested(), 0, "serve() needs a fresh engine");
    // Where the shutdown connect reaches the accept thread.
    let mut wake = listener
        .local_addr()
        .map_err(|e| format!("listener: {e}"))?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let shared = Shared {
        queue: BoundedQueue::new(config.queue_cap),
        registry: Mutex::new(Registry {
            conns: Vec::new(),
            stopped: false,
        }),
        shed: config.shed,
        k: engine.config().k,
        compile,
    };
    swaps.sort_by_key(|t| t.at_seq);
    let batch = engine.config().batch;
    let mut lp = EngineLoop {
        shared: &shared,
        engine,
        journal,
        config,
        scheduled: swaps.into_iter().peekable(),
        lanes: Lanes::default(),
        arrivals: Vec::with_capacity(batch),
        senders: Vec::with_capacity(batch),
        time_max: f64::NEG_INFINITY,
        exited: 0,
        tally: Tally::default(),
        journal_errors: Vec::new(),
        swap_errors: Vec::new(),
        swap_pauses: Vec::new(),
    };

    std::thread::scope(|scope| {
        let shared = &shared;
        // Accept loop: registers the write half, hands the read half to
        // a reader thread.
        scope.spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                // Best effort: without it replies are only slower.
                let _ = stream.set_nodelay(true);
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                let mut reg = shared.registry.lock().expect("registry poisoned");
                if reg.stopped {
                    break;
                }
                let conn = Arc::new(Conn(Mutex::new(Some(stream))));
                reg.conns.push(Arc::clone(&conn));
                let id = reg.conns.len() - 1;
                drop(reg);
                scope.spawn(move || run_reader(shared, id, &conn, reader));
            }
        });
        lp.run();
        // Wake the accept thread; it sees `stopped` and returns. A
        // refused connect means it has already returned.
        let _ = TcpStream::connect(wake);
    });

    let EngineLoop {
        mut engine,
        journal,
        tally,
        journal_errors,
        swap_errors,
        swap_pauses,
        ..
    } = lp;
    engine.drain();
    let totals = engine.metrics_total();
    if let Some(journal) = journal {
        journal
            .into_inner()
            .map_err(|e| format!("journal close: {e}"))?;
    }
    let connections = shared
        .registry
        .into_inner()
        .expect("registry poisoned")
        .conns
        .len();
    Ok(ServeReport {
        connections,
        client_arrivals: tally.arrivals,
        ingested: engine.ingested(),
        net_sheds: tally.sheds,
        engine_rejections: totals.rejections,
        completions: totals.completions,
        digest: engine.decision_digest(),
        generation: engine.generation(),
        swaps: engine.swap_log().to_vec(),
        swap_pause_seconds: swap_pauses,
        swap_errors,
        protocol_errors: tally.protocol_errors,
        journal_errors,
        totals,
    })
}
