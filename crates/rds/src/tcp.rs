//! TCP transport: RDS over real sockets.
//!
//! Messages are framed with a 4-byte big-endian length prefix (BER
//! messages are self-delimiting, but an explicit frame keeps the reader
//! trivial and bounds allocation). One TCP connection carries a sequence
//! of request/response exchanges; the client ([`crate::RdsPipeline`]
//! over a [`crate::TcpDuplex`]) keeps one or several requests in flight
//! and matches replies by request id.
//!
//! The server side lives in [`crate::reactor`]: a readiness-driven
//! event loop owns every socket and hands complete frames to a bounded
//! execution tier, so idle connections cost a file descriptor instead
//! of a thread. This module keeps the wire-level pieces — framing
//! helpers, [`ServerHealth`] and [`TcpServerConfig`] — and re-exports
//! [`TcpServer`] so the public path is unchanged from the worker-pool
//! era. Frames are byte-identical to the blocking implementation.

use crate::RdsError;
use mbd_telemetry::Telemetry;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

pub use crate::reactor::TcpServer;

/// Upper bound on a framed message (16 MiB) — a delegation request
/// carrying a program will never legitimately approach this.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame payloads are read in chunks of this size, so a hostile length
/// prefix cannot make the reader allocate [`MAX_FRAME`] bytes up front —
/// memory grows only as payload bytes actually arrive.
const READ_CHUNK: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> RdsError {
    RdsError::Transport { message: e.to_string() }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors, or an oversized frame.
pub fn write_frame<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), RdsError> {
    let len = u32::try_from(bytes.len())
        .map_err(|_| RdsError::Transport { message: "frame too large".to_string() })?;
    if len > MAX_FRAME {
        return Err(RdsError::Transport { message: "frame too large".to_string() });
    }
    w.write_all(&len.to_be_bytes()).map_err(io_err)?;
    w.write_all(bytes).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O errors, or a frame exceeding [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, RdsError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io_err(e)),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(RdsError::Transport { message: format!("oversized frame ({len} bytes)") });
    }
    // Incremental, capped reads: the length prefix is untrusted input,
    // so never allocate the full claimed size before bytes arrive.
    let mut buf = Vec::new();
    let mut remaining = len as usize;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        let start = buf.len();
        buf.reserve_exact(take);
        buf.resize(start + take, 0);
        r.read_exact(&mut buf[start..]).map_err(io_err)?;
        remaining -= take;
    }
    Ok(Some(buf))
}

/// A [`TcpServer`]'s coarse health, derived from execution-queue
/// pressure, the connection-table fill and the shutdown flag, surfaced
/// through the `rds.tcp.health` gauge (and thus the `mbdTelemetry` OCP
/// subtree) so delegated agents can observe the transport's own state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Normal operation: the execution queue has headroom.
    Accepting,
    /// Overloaded: the execution queue is at least half full (or the
    /// connection table is at capacity); requests may be shed with
    /// `Busy`.
    Degraded,
    /// Shutting down: no new connections will be served.
    Draining,
}

impl ServerHealth {
    /// Stable gauge value (0 accepting · 1 degraded · 2 draining).
    pub fn code(self) -> u8 {
        match self {
            ServerHealth::Accepting => 0,
            ServerHealth::Degraded => 1,
            ServerHealth::Draining => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> ServerHealth {
        match code {
            1 => ServerHealth::Degraded,
            2 => ServerHealth::Draining,
            _ => ServerHealth::Accepting,
        }
    }
}

impl std::fmt::Display for ServerHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ServerHealth::Accepting => "accepting",
            ServerHealth::Degraded => "degraded",
            ServerHealth::Draining => "draining",
        };
        f.write_str(s)
    }
}

/// Sizing and timing of a [`TcpServer`]: the reactor front-end and its
/// execution tier.
#[derive(Clone)]
pub struct TcpServerConfig {
    /// Execution-tier worker threads (each runs one request handler at
    /// a time; none owns a socket).
    pub workers: usize,
    /// Requests allowed to queue for a free worker; beyond this the
    /// reactor sheds the *request* with an explicit `Busy` frame
    /// carrying its id (the connection survives).
    pub backlog: usize,
    /// The reactor's tick: poll timeout, timeout-sweep cadence, and
    /// health-gauge refresh interval.
    pub idle_poll: Duration,
    /// Deadline for a started frame to arrive completely.
    pub frame_timeout: Duration,
    /// Close connections with no traffic and no in-flight work for
    /// this long; `None` (the default) keeps idle managers connected
    /// indefinitely — they cost one fd each, not a thread.
    pub idle_timeout: Option<Duration>,
    /// Connection-table capacity; a connection beyond it is answered
    /// with `Busy` (request id 0) and closed at accept.
    pub max_connections: usize,
    /// Per-connection pipelining window: requests in flight (executing
    /// or queued) per connection before the reactor stops reading from
    /// it (pure backpressure, never an error).
    pub max_in_flight_per_conn: usize,
    /// On shutdown, how long the reactor keeps delivering in-flight
    /// completions before closing every socket regardless.
    pub drain_deadline: Duration,
    /// Telemetry domain the server records into (`rds.tcp.*`); `None`
    /// keeps a private domain readable only through the handle's
    /// accessors. Share the embedding server's domain so a single
    /// snapshot sees transport and runtime together.
    pub telemetry: Option<Telemetry>,
    /// Called once per survived handler panic (after the panic counter
    /// is bumped), so the embedding server can journal the event. Runs
    /// on the execution-tier worker that caught the panic.
    pub on_panic: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Builds the frame written for a shed request, given the shed
    /// request's id (0 when nothing was read, i.e. an over-cap
    /// connection). `None` uses [`default_shed_response`]: an unkeyed
    /// `Busy` error response. A keyed server should supply a keyed
    /// encoding so its clients can verify the digest.
    pub shed_response: Option<Arc<dyn Fn(i64) -> Vec<u8> + Send + Sync>>,
    /// Called once per shed (after the shed counter is bumped), so the
    /// embedding server can journal the overload. Runs on the reactor
    /// thread.
    pub on_shed: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for TcpServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServerConfig")
            .field("workers", &self.workers)
            .field("backlog", &self.backlog)
            .field("idle_poll", &self.idle_poll)
            .field("frame_timeout", &self.frame_timeout)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_connections", &self.max_connections)
            .field("max_in_flight_per_conn", &self.max_in_flight_per_conn)
            .field("drain_deadline", &self.drain_deadline)
            .field("telemetry", &self.telemetry)
            .field("on_panic", &self.on_panic.as_ref().map(|_| "Fn"))
            .field("shed_response", &self.shed_response.as_ref().map(|_| "Fn"))
            .field("on_shed", &self.on_shed.as_ref().map(|_| "Fn"))
            .finish()
    }
}

impl Default for TcpServerConfig {
    fn default() -> TcpServerConfig {
        TcpServerConfig {
            workers: 8,
            backlog: 64,
            idle_poll: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(5),
            idle_timeout: None,
            max_connections: 8192,
            max_in_flight_per_conn: 32,
            drain_deadline: Duration::from_secs(2),
            telemetry: None,
            on_panic: None,
            shed_response: None,
            on_shed: None,
        }
    }
}

/// The default shed frame: an unkeyed `Busy` error response under the
/// shed request's id (0 when the shed happened before any request was
/// read, e.g. an over-cap connection at accept).
pub fn default_shed_response(request_id: i64) -> Vec<u8> {
    crate::codec::encode_response(
        &crate::RdsResponse::Error {
            code: crate::ErrorCode::Busy,
            message: "server overloaded, retry later".to_string(),
        },
        request_id,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        codec, ErrorCode, RdsClient, RdsRequest, RdsResponse, RdsServer, RetryPolicy, TcpDuplex,
    };
    use mbd_auth::Principal;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// Waits up to 1 s for the server to hold `n` open connections;
    /// returns the count it last saw.
    fn await_open(server: &TcpServer, n: u64) -> u64 {
        for _ in 0..200 {
            if server.open_connections() == n {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        server.open_connections()
    }

    /// One request/response exchange on a raw connection.
    fn exchange(stream: &mut TcpStream, bytes: &[u8]) -> Result<Vec<u8>, RdsError> {
        write_frame(stream, bytes)?;
        read_frame(stream)?.ok_or_else(|| RdsError::Transport {
            message: "server closed the connection".to_string(),
        })
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 5]);
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6);
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn hostile_length_prefix_fails_without_upfront_allocation() {
        // Claims MAX_FRAME bytes but delivers three: the chunked reader
        // must fail at the first short chunk, having allocated at most
        // READ_CHUNK — not the 16 MiB the prefix promised.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn multi_chunk_frame_round_trips() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
    }

    #[test]
    fn echo_server_round_trip() {
        let server = TcpServer::spawn("127.0.0.1:0", |req| {
            let mut v = req.to_vec();
            v.reverse();
            v
        })
        .unwrap();
        let mut t = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(exchange(&mut t, &[1, 2, 3]).unwrap(), vec![3, 2, 1]);
        assert_eq!(exchange(&mut t, &[9]).unwrap(), vec![9]);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = TcpServer::spawn("127.0.0.1:0", |req| req.to_vec()).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut t = TcpStream::connect(addr).unwrap();
                    for j in 0..20u8 {
                        assert_eq!(exchange(&mut t, &[i, j]).unwrap(), vec![i, j]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn rds_client_over_tcp() {
        // Full protocol over a real socket with a handler that answers
        // ListPrograms.
        let server = TcpServer::spawn("127.0.0.1:0", {
            let rds = RdsServer::open(|_p: &Principal, req: RdsRequest| match req {
                RdsRequest::ListPrograms => {
                    RdsResponse::Programs { names: vec!["over-tcp".to_string()] }
                }
                _ => RdsResponse::Ok,
            });
            move |bytes: &[u8]| rds.process(bytes)
        })
        .unwrap();
        let client = RdsClient::new(TcpDuplex::connect(server.local_addr()).unwrap(), "tcp-mgr");
        assert_eq!(client.list_programs().unwrap(), vec!["over-tcp".to_string()]);
        server.shutdown();
    }

    #[test]
    fn request_after_shutdown_fails() {
        let server = TcpServer::spawn("127.0.0.1:0", |req| req.to_vec()).unwrap();
        let mut t = TcpStream::connect(server.local_addr()).unwrap();
        exchange(&mut t, &[1]).unwrap();
        server.shutdown();
        // Either the write or the read must fail once the server is gone.
        assert!(exchange(&mut t, &[2]).is_err() || exchange(&mut t, &[3]).is_err());
    }

    #[test]
    fn shutdown_returns_with_connections_open() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 3, ..TcpServerConfig::default() },
            |req| req.to_vec(),
        )
        .unwrap();
        let addr = server.local_addr();
        // Leave a connection open mid-conversation; shutdown must still
        // return (the reactor closes it during the bounded drain).
        let mut t = TcpStream::connect(addr).unwrap();
        exchange(&mut t, &[7]).unwrap();
        server.shutdown();
        // The listener is gone: fresh connections are refused or die on
        // first use.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut t2) => assert!(exchange(&mut t2, &[1]).is_err()),
        }
    }

    #[test]
    fn shutdown_with_many_idle_connections_is_bounded() {
        // The old pool could hang joining a worker parked in a blocking
        // read; the reactor owes shutdown a bounded drain no matter how
        // many idle peers are connected.
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig {
                workers: 2,
                drain_deadline: Duration::from_millis(500),
                ..TcpServerConfig::default()
            },
            |req| req.to_vec(),
        )
        .unwrap();
        let addr = server.local_addr();
        let idle: Vec<std::net::TcpStream> =
            (0..64).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
        // Wait until the reactor has actually registered them.
        assert_eq!(await_open(&server, idle.len() as u64), idle.len() as u64);
        let begin = Instant::now();
        server.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(2),
            "shutdown took {:?} with idle connections",
            begin.elapsed()
        );
    }

    #[test]
    fn handler_panic_poisons_only_its_connection() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 2, ..TcpServerConfig::default() },
            |req| {
                assert!(req != [66], "poison request");
                req.to_vec()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let mut poisoned = TcpStream::connect(addr).unwrap();
        assert!(exchange(&mut poisoned, &[66]).is_err(), "panicked handler drops the connection");

        // The server keeps serving new connections afterwards.
        let mut healthy = TcpStream::connect(addr).unwrap();
        assert_eq!(exchange(&mut healthy, &[1, 2]).unwrap(), vec![1, 2]);
        // The poison frame was delivered once, so it panicked once.
        assert_eq!(server.handler_panics(), 1);
        server.shutdown();
    }

    #[test]
    fn shared_telemetry_sees_transport_metrics() {
        let tel = Telemetry::new();
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { telemetry: Some(tel.clone()), ..TcpServerConfig::default() },
            |req| req.to_vec(),
        )
        .unwrap();
        let mut t = TcpStream::connect(server.local_addr()).unwrap();
        exchange(&mut t, &[1]).unwrap();
        exchange(&mut t, &[2]).unwrap();
        drop(t);
        server.shutdown();
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("rds.tcp.request").unwrap().count(), 2);
        // queue_wait is per *request* now (execution-tier wait), not
        // per connection.
        assert_eq!(snap.histogram("rds.tcp.queue_wait").unwrap().count(), 2);
        assert_eq!(snap.counter("rds.tcp.handler_panics"), Some(0));
        assert_eq!(snap.counter("rds.tcp.connections_rejected"), Some(0));
        // Every socket is closed, so no connection is active.
        assert_eq!(snap.gauge("rds.tcp.active_connections"), Some(0));
    }

    #[test]
    fn handler_panics_reach_shared_telemetry() {
        let tel = Telemetry::new();
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { telemetry: Some(tel.clone()), ..TcpServerConfig::default() },
            |req| {
                assert!(req != [66], "poison request");
                req.to_vec()
            },
        )
        .unwrap();
        let mut poisoned = TcpStream::connect(server.local_addr()).unwrap();
        assert!(exchange(&mut poisoned, &[66]).is_err());
        server.shutdown();
        assert_eq!(tel.snapshot().counter("rds.tcp.handler_panics"), Some(1));
    }

    #[test]
    fn on_panic_hook_fires_per_survived_panic() {
        let fired = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fired);
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig {
                on_panic: Some(Arc::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })),
                ..TcpServerConfig::default()
            },
            |req| {
                assert!(req != [66], "poison request");
                req.to_vec()
            },
        )
        .unwrap();
        let mut poisoned = TcpStream::connect(server.local_addr()).unwrap();
        assert!(exchange(&mut poisoned, &[66]).is_err());
        server.shutdown();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clients_survive_an_idle_reap_and_count_reconnects() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig {
                idle_timeout: Some(Duration::from_millis(80)),
                idle_poll: Duration::from_millis(10),
                ..TcpServerConfig::default()
            },
            {
                let rds = RdsServer::open(|_p: &Principal, _req: RdsRequest| RdsResponse::Ok);
                move |bytes: &[u8]| rds.process(bytes)
            },
        )
        .unwrap();
        // The request that meets the closed connection is re-sent only
        // under a retry policy; either way the client re-dials.
        for max_attempts in [1, 2] {
            let tel = Telemetry::new();
            let client = RdsClient::new(TcpDuplex::connect(server.local_addr()).unwrap(), "mgr")
                .with_retry(RetryPolicy { max_attempts, ..RetryPolicy::none() })
                .instrument(&tel);
            client.delete("dp").unwrap();
            assert_eq!(await_open(&server, 0), 0, "the server reaped the idle connection");
            assert_eq!(client.delete("dp").is_ok(), max_attempts > 1);
            client.delete("dp").unwrap();
            assert_eq!(client.retries(), u64::from(max_attempts - 1));
            assert_eq!(tel.snapshot().counter("rds.reconnects"), Some(1));
        }
        server.shutdown();
    }

    #[test]
    fn saturated_execution_tier_sheds_the_request_not_the_connection() {
        let sheds_seen = Arc::new(AtomicU64::new(0));
        let hook_counter = Arc::clone(&sheds_seen);
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig {
                workers: 1,
                backlog: 1,
                on_shed: Some(Arc::new(move || {
                    hook_counter.fetch_add(1, Ordering::Relaxed);
                })),
                ..TcpServerConfig::default()
            },
            |req| {
                if req == [9] {
                    std::thread::sleep(Duration::from_millis(600));
                }
                req.to_vec()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        assert_eq!(server.health(), ServerHealth::Accepting);

        // Occupy the single worker…
        let blocker = std::thread::spawn(move || {
            let mut t = TcpStream::connect(addr).unwrap();
            exchange(&mut t, &[9]).unwrap();
        });
        std::thread::sleep(Duration::from_millis(150));
        // …fill the one-deep execution queue with a second slow request…
        let filler = std::thread::spawn(move || {
            let mut t = TcpStream::connect(addr).unwrap();
            exchange(&mut t, &[9]).unwrap();
        });
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(server.health(), ServerHealth::Degraded, "queue at capacity degrades health");

        // …and the next request is shed with an explicit Busy frame.
        // The connection survives (request-level shedding).
        let mut shed = TcpStream::connect(addr).unwrap();
        let frame = exchange(&mut shed, &[2]).expect("shed frame arrives on the live connection");
        let (resp, id) = codec::decode_response(&frame, None).unwrap();
        assert_eq!(id, 0, "a raw (non-RDS) frame has no request id to correlate with");
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::Busy, .. }), "got {resp:?}");
        assert_eq!(server.sheds(), 1);
        assert_eq!(sheds_seen.load(Ordering::Relaxed), 1, "on_shed hook fired");

        blocker.join().unwrap();
        filler.join().unwrap();
        // The same socket is still usable once the tier drains:
        // shedding never cost the connection.
        assert_eq!(exchange(&mut shed, &[5]).unwrap(), vec![5]);
        server.shutdown();
    }

    #[test]
    fn shed_busy_frame_carries_the_request_id() {
        // RDS-encoded requests pipelined on one raw connection: the
        // worker is busy with #1, #2 waits in the one-deep queue, #3 is
        // shed — and its Busy frame must carry id 3, out of order,
        // before the slow responses to #1 and #2.
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 1, backlog: 1, ..TcpServerConfig::default() },
            {
                let rds = RdsServer::open(|_p: &Principal, _req: RdsRequest| {
                    std::thread::sleep(Duration::from_millis(400));
                    RdsResponse::Ok
                });
                move |bytes: &[u8]| rds.process(bytes)
            },
        )
        .unwrap();
        let principal = Principal::new("pipeliner");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        for id in 1..=3i64 {
            let frame = codec::encode_request(&RdsRequest::ListPrograms, &principal, id, None);
            write_frame(&mut stream, &frame).unwrap();
            // Stagger so #1 is *executing* and #2 is queued when #3
            // arrives — otherwise which request fills the one-deep
            // queue is a race.
            std::thread::sleep(Duration::from_millis(120));
        }
        let mut ids = Vec::new();
        for _ in 0..3 {
            let frame = read_frame(&mut stream).unwrap().expect("three responses");
            let (resp, id) = codec::decode_response(&frame, None).unwrap();
            if matches!(resp, RdsResponse::Error { code: ErrorCode::Busy, .. }) {
                assert_eq!(id, 3, "the shed Busy frame names the request it sheds");
            }
            ids.push(id);
        }
        assert_eq!(ids[0], 3, "the shed reply overtakes the slow executions");
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "every request is answered exactly once");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_complete_on_one_connection() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 4, ..TcpServerConfig::default() },
            {
                let rds = RdsServer::open(|_p: &Principal, req: RdsRequest| {
                    match req {
                        RdsRequest::ReadJournal { max_records } => {
                            // Stagger completions so replies interleave.
                            std::thread::sleep(Duration::from_millis(
                                u64::from(max_records % 3) * 20,
                            ));
                            RdsResponse::Ok
                        }
                        _ => RdsResponse::Ok,
                    }
                });
                move |bytes: &[u8]| rds.process(bytes)
            },
        )
        .unwrap();
        let principal = Principal::new("pipeliner");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        const N: i64 = 24;
        for id in 1..=N {
            let req = RdsRequest::ReadJournal { max_records: id as u32 };
            let frame = codec::encode_request(&req, &principal, id, None);
            write_frame(&mut stream, &frame).unwrap();
        }
        let mut ids = Vec::new();
        for _ in 0..N {
            let frame = read_frame(&mut stream).unwrap().expect("a response per request");
            let (resp, id) = codec::decode_response(&frame, None).unwrap();
            assert!(matches!(resp, RdsResponse::Ok), "got {resp:?}");
            ids.push(id);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=N).collect::<Vec<_>>(), "each id answered exactly once");
        server.shutdown();
    }

    #[test]
    fn over_cap_connection_is_shed_at_accept_with_id_zero() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { max_connections: 1, ..TcpServerConfig::default() },
            |req| req.to_vec(),
        )
        .unwrap();
        let addr = server.local_addr();
        let mut keeper = TcpStream::connect(addr).unwrap();
        exchange(&mut keeper, &[1]).unwrap();

        // The table is full: the next connection gets Busy-and-close.
        let mut shed = TcpStream::connect(addr).unwrap();
        let frame = read_frame(&mut shed).unwrap().expect("busy frame before close");
        let (resp, id) = codec::decode_response(&frame, None).unwrap();
        assert_eq!(id, 0);
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::Busy, .. }));
        assert_eq!(server.connections_rejected(), 1);

        // The established connection is unaffected.
        assert_eq!(exchange(&mut keeper, &[2]).unwrap(), vec![2]);
        server.shutdown();
    }

    #[test]
    fn idle_timeout_reaps_parked_connections() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig {
                idle_timeout: Some(Duration::from_millis(80)),
                idle_poll: Duration::from_millis(10),
                ..TcpServerConfig::default()
            },
            |req| req.to_vec(),
        )
        .unwrap();
        let mut t = TcpStream::connect(server.local_addr()).unwrap();
        exchange(&mut t, &[1]).unwrap();
        assert_eq!(await_open(&server, 0), 0, "idle connection reaped without a thread");
        assert_eq!(read_frame(&mut t).unwrap(), None, "the client sees the close");
        server.shutdown();
    }

    #[test]
    fn oversized_frame_poisons_only_that_connection() {
        let server = TcpServer::spawn("127.0.0.1:0", |req| req.to_vec()).unwrap();
        let addr = server.local_addr();
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        hostile.write_all(b"abc").unwrap();
        // The server drops the poisoned connection…
        let mut probe = Vec::new();
        hostile.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(hostile.read_to_end(&mut probe), Ok(0)), "connection closed");
        // …and keeps serving others.
        let mut t = TcpStream::connect(addr).unwrap();
        assert_eq!(exchange(&mut t, &[4]).unwrap(), vec![4]);
        server.shutdown();
    }

    #[test]
    fn sheds_reach_shared_telemetry_and_health_reaches_the_gauge() {
        let tel = Telemetry::new();
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { telemetry: Some(tel.clone()), ..TcpServerConfig::default() },
            |req| req.to_vec(),
        )
        .unwrap();
        let mut t = TcpStream::connect(server.local_addr()).unwrap();
        exchange(&mut t, &[1]).unwrap();
        drop(t);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("rds.shed"), Some(0));
        assert_eq!(snap.gauge("rds.tcp.health"), Some(0), "accepting");
        server.shutdown();
        assert_eq!(
            tel.snapshot().gauge("rds.tcp.health"),
            Some(u64::from(ServerHealth::Draining.code()))
        );
    }

    #[test]
    fn health_codes_round_trip() {
        for h in [ServerHealth::Accepting, ServerHealth::Degraded, ServerHealth::Draining] {
            assert_eq!(ServerHealth::from_code(h.code()), h);
        }
        assert_eq!(ServerHealth::Accepting.to_string(), "accepting");
        assert_eq!(ServerHealth::Draining.to_string(), "draining");
    }

    #[test]
    fn reactor_serves_more_clients_than_workers() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 2, ..TcpServerConfig::default() },
            |req| req.to_vec(),
        )
        .unwrap();
        let addr = server.local_addr();
        // Six *simultaneous* connections over two workers: with the old
        // pool the extras would queue whole-connection; the reactor
        // serves them all concurrently.
        let mut streams: Vec<TcpStream> =
            (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, t) in streams.iter_mut().enumerate() {
            assert_eq!(exchange(t, &[i as u8]).unwrap(), vec![i as u8]);
        }
        assert_eq!(server.connections_rejected(), 0);
        server.shutdown();
    }
}
