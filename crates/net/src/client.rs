//! The load-generating client: drives a serving front end over N
//! concurrent connections and measures per-request wall-clock latency.
//!
//! The workload (a time-ordered arrival list) is split round-robin by
//! arrival index across the connections; each arrival's global index is
//! its request id, so decisions can be matched back regardless of
//! arrival order on the wire. Every connection pipelines: a writer
//! streams arrivals without waiting while a receiver thread drains
//! decision frames, recording the send→decision wall-clock latency of
//! each request into an [`LatencyHistogram`] (published as
//! `net.request_latency`).

use crate::protocol::{read_frame_with, read_magic, write_frame, write_magic, Frame};
use eirs_obs::{publish_histogram, LatencyHistogram};
use eirs_sim::Arrival;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client shape: connection fan-out and an optional mid-stream swap.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Concurrent connections (`>= 1`).
    pub clients: usize,
    /// `Some((n, spec))`: after sending arrival with global index `n`,
    /// send the control command `swap <spec>` on that arrival's
    /// connection (or on connection 0 before BYE when `n` is past the
    /// end of the workload).
    pub swap: Option<(u64, String)>,
}

/// Per-connection tallies, merged into the final [`ClientReport`].
#[derive(Debug, Default)]
struct ConnStats {
    arrivals: u64,
    decisions: u64,
    admitted: u64,
    net_sheds: u64,
    engine_rejections: u64,
    max_generation: u32,
    latency: LatencyHistogram,
    control_replies: Vec<String>,
    server_errors: Vec<String>,
}

/// What the whole client run saw, across all connections.
#[derive(Debug)]
pub struct ClientReport {
    /// Connections opened.
    pub connections: usize,
    /// Arrival frames sent.
    pub arrivals: u64,
    /// Decision frames received.
    pub decisions: u64,
    /// Decisions with `admitted = true`.
    pub admitted: u64,
    /// Ingest-queue sheds observed (`admitted = false`, `seq = u64::MAX`).
    pub net_sheds: u64,
    /// Engine admission rejections observed (`admitted = false` with a
    /// real sequence number).
    pub engine_rejections: u64,
    /// Highest policy generation seen in any decision.
    pub max_generation: u32,
    /// Send→decision wall-clock latency over all requests (also
    /// published to the telemetry registry as `net.request_latency`).
    pub latency: LatencyHistogram,
    /// CONTROL_OK texts received.
    pub control_replies: Vec<String>,
    /// ERROR frame texts received.
    pub server_errors: Vec<String>,
}

/// Connects and completes the magic handshake. The server registers a
/// connection *before* echoing the magic, so a returned pair is
/// guaranteed to be visible to the server's liveness accounting —
/// `run_client` handshakes every lane up front so the server cannot
/// mistake a fast first lane's disconnect for "all clients done" while
/// the other lanes are still in the accept backlog.
fn open_connection(addr: &str) -> Result<(TcpStream, TcpStream), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what} ({addr}): {e}");
    let mut writer = TcpStream::connect(addr).map_err(|e| err("connect", &e))?;
    writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| err("read timeout", &e))?;
    let mut reader = writer.try_clone().map_err(|e| err("clone stream", &e))?;
    write_magic(&mut writer).map_err(|e| err("handshake send", &e))?;
    read_magic(&mut reader).map_err(|e| err("handshake echo", &e))?;
    Ok((writer, reader))
}

fn drive_connection(
    addr: &str,
    conn: (TcpStream, TcpStream),
    work: &[(u64, Arrival)],
    swap: Option<&(u64, String)>,
    send_swap_before_bye: bool,
) -> Result<ConnStats, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what} ({addr}): {e}");
    let (mut writer, reader) = conn;

    let sent: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let mut stats = ConnStats::default();
    std::thread::scope(|scope| -> Result<(), String> {
        let sent = &sent;
        let receiver = scope.spawn(move || -> Result<ConnStats, String> {
            let mut s = ConnStats::default();
            let mut reader = BufReader::new(reader);
            let mut payload = Vec::new();
            loop {
                match read_frame_with(&mut reader, &mut payload) {
                    Ok(None) | Ok(Some(Frame::Bye)) => break,
                    Ok(Some(Frame::Decision {
                        req_id,
                        seq,
                        generation,
                        admitted,
                        ..
                    })) => {
                        s.decisions += 1;
                        if admitted {
                            s.admitted += 1;
                        } else if seq == u64::MAX {
                            s.net_sheds += 1;
                        } else {
                            s.engine_rejections += 1;
                        }
                        s.max_generation = s.max_generation.max(generation);
                        if let Some(at) = sent.lock().expect("send map").remove(&req_id) {
                            s.latency.record_seconds(at.elapsed().as_secs_f64());
                        }
                    }
                    Ok(Some(Frame::ControlOk(text))) => s.control_replies.push(text),
                    Ok(Some(Frame::Error(text))) => {
                        s.server_errors.push(text);
                        break;
                    }
                    Ok(Some(other)) => {
                        return Err(format!("unexpected server frame {other:?}"));
                    }
                    Err(e) => return Err(format!("decision stream: {e}")),
                }
            }
            Ok(s)
        });

        let mut arrivals = 0;
        let sending = (|| {
            for &(req_id, arrival) in work {
                sent.lock()
                    .expect("send map")
                    .insert(req_id, Instant::now());
                write_frame(
                    &mut writer,
                    &Frame::Arrival {
                        req_id,
                        class: arrival.class,
                        time: arrival.time,
                        size: arrival.size,
                    },
                )
                .map_err(|e| err("send arrival", &e))?;
                arrivals += 1;
                if let Some((at, spec)) = swap {
                    if *at == req_id {
                        write_frame(&mut writer, &Frame::Control(format!("swap {spec}")))
                            .map_err(|e| err("send control", &e))?;
                    }
                }
            }
            if send_swap_before_bye {
                if let Some((_, spec)) = swap {
                    write_frame(&mut writer, &Frame::Control(format!("swap {spec}")))
                        .map_err(|e| err("send control", &e))?;
                }
            }
            write_frame(&mut writer, &Frame::Bye).map_err(|e| err("send bye", &e))
        })();
        // A server that refuses a control frame answers with an ERROR
        // frame and closes while arrivals may still be on their way, so
        // a write can fail after it: the ERROR frame, not the broken
        // write, is then what the connection reports.
        stats = match (sending, receiver.join().expect("receiver panicked")) {
            (Ok(()), received) => received?,
            (Err(_), Ok(received)) if !received.server_errors.is_empty() => received,
            (Err(e), _) => return Err(e),
        };
        stats.arrivals = arrivals;
        Ok(())
    })?;
    Ok(stats)
}

/// Runs the full workload against the server at `addr` over
/// [`ClientConfig::clients`] concurrent connections. Arrivals must be
/// time-ordered (the workload clock); the server clamps interleaved
/// clocks to its running maximum. Errors on connection or protocol
/// failure of any connection.
pub fn run_client(
    addr: &str,
    arrivals: &[Arrival],
    config: &ClientConfig,
) -> Result<ClientReport, String> {
    let clients = config.clients.max(1);
    let lanes: Vec<Vec<(u64, Arrival)>> = (0..clients)
        .map(|c| {
            arrivals
                .iter()
                .enumerate()
                .filter(|(idx, _)| idx % clients == c)
                .map(|(idx, &a)| (idx as u64, a))
                .collect()
        })
        .collect();
    let swap_in_range = config
        .swap
        .as_ref()
        .is_some_and(|(at, _)| *at < arrivals.len() as u64);

    // Handshake every lane before the first arrival is sent: the server
    // treats "all known connections closed" as end of stream, so all
    // lanes must be known to it before any lane can finish.
    let conns: Vec<(TcpStream, TcpStream)> = (0..clients)
        .map(|_| open_connection(addr))
        .collect::<Result<_, _>>()?;

    let results: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&lanes)
            .enumerate()
            .map(|(c, (conn, lane))| {
                let swap = config.swap.as_ref();
                scope.spawn(move || {
                    drive_connection(addr, conn, lane, swap, c == 0 && !swap_in_range)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });

    let mut report = ClientReport {
        connections: clients,
        arrivals: 0,
        decisions: 0,
        admitted: 0,
        net_sheds: 0,
        engine_rejections: 0,
        max_generation: 0,
        latency: LatencyHistogram::new(),
        control_replies: Vec::new(),
        server_errors: Vec::new(),
    };
    for result in results {
        let s = result?;
        report.arrivals += s.arrivals;
        report.decisions += s.decisions;
        report.admitted += s.admitted;
        report.net_sheds += s.net_sheds;
        report.engine_rejections += s.engine_rejections;
        report.max_generation = report.max_generation.max(s.max_generation);
        report.latency.merge(&s.latency);
        report.control_replies.extend(s.control_replies);
        report.server_errors.extend(s.server_errors);
    }
    publish_histogram("net.request_latency", &report.latency);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use eirs_sim::JobClass;
    use std::net::TcpListener;

    /// A server that reads up to the first control frame, answers it
    /// with `reply` (if any) and closes, while the client still has
    /// hundreds of thousands of arrivals — far more than the socket
    /// buffers hold — to send, so a write always fails after the close.
    fn refusing_server(reply: Option<Frame>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the client");
            read_magic(&mut stream).expect("client magic");
            write_magic(&mut stream).expect("echo magic");
            while !matches!(
                read_frame(&mut stream),
                Ok(Some(Frame::Control(_))) | Err(_)
            ) {}
            if let Some(frame) = reply {
                write_frame(&mut stream, &frame).expect("reply");
            }
        });
        (addr, server)
    }

    #[test]
    fn an_error_frame_is_reported_even_when_a_later_write_fails() {
        let arrivals: Vec<Arrival> = (0..500_000)
            .map(|n| Arrival {
                time: n as f64,
                class: JobClass::Inelastic,
                size: 1.0,
            })
            .collect();
        let config = ClientConfig {
            clients: 1,
            swap: Some((0, "bogus".into())),
        };
        let (addr, server) = refusing_server(Some(Frame::Error("bad swap".into())));
        let report = run_client(&addr, &arrivals, &config).expect("the ERROR frame is the outcome");
        server.join().expect("server thread");
        assert_eq!(report.server_errors, vec!["bad swap".to_string()]);
        assert_eq!(report.decisions, 0);
        assert!(
            report.arrivals > 0 && report.arrivals < arrivals.len() as u64,
            "only the arrivals actually sent count: {}",
            report.arrivals
        );
        // Without an ERROR frame the broken write still fails the run.
        let (addr, server) = refusing_server(None);
        let err = run_client(&addr, &arrivals, &config).expect_err("a bare close fails the run");
        server.join().expect("server thread");
        assert!(err.starts_with("send "), "{err}");
    }
}
