//! The reactor event loop and the public [`TcpServer`] handle.
//!
//! One reactor thread owns every socket: the listener, a self-pipe
//! waker and all accepted connections. It never blocks on any of them —
//! readiness events drive per-connection state machines
//! ([`super::conn::Connection`]), complete frames are handed to the
//! execution tier ([`super::executor::Executor`]), and finished
//! responses come back through the completion queue (the workers wake
//! the reactor through the pipe). Idle connections cost one fd and a
//! few hundred bytes of state — no thread, which is what decouples the
//! connection ceiling from the worker count.
//!
//! Shedding happens at two levels, both with an explicit `Busy` frame:
//! a connection beyond `max_connections` is answered and closed at
//! accept (request id 0 — nothing was read), and a request that finds
//! the execution queue full is answered on its own connection with the
//! *request's* id, so pipelining clients can attribute the failure.
//!
//! Shutdown is bounded: the reactor stops accepting, stops reading,
//! delivers in-flight completions until [`DRAIN_DEADLINE`], then closes
//! every socket and joins the workers — an idle peer can no longer
//! stall it (the old pool joined workers parked in blocking reads).

use super::conn::Connection;
use super::executor::{Completion, Executor, Job};
use super::sys::{Event, Interest, Poller, Waker};
use super::Metrics;
use crate::tcp::{ServerHealth, TcpServerConfig};
use crate::{ErrorCode, RdsError, RdsResponse};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_WAKE: usize = 0;
const TOKEN_LISTENER: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// The reactor's tick: poll timeout, frame-deadline sweep cadence and
/// health-gauge refresh interval.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Deadline for a started frame to arrive completely.
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection pipelining window: requests in flight (executing or
/// queued) per connection before the reactor stops reading from it
/// (pure backpressure, never an error).
const MAX_IN_FLIGHT_PER_CONN: usize = 32;

/// On shutdown, how long the reactor keeps delivering in-flight
/// completions before closing every socket regardless.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

fn io_err(e: std::io::Error) -> RdsError {
    RdsError::Transport { message: e.to_string() }
}

/// State shared between the reactor thread and the handle; the
/// handle's counters and gauges are read from `metrics`.
struct ServerShared {
    stop: AtomicBool,
    waker: Arc<Waker>,
    metrics: Arc<Metrics>,
}

impl ServerShared {
    fn set_health(&self, next: ServerHealth) {
        self.metrics.health.set(u64::from(next.code()));
    }
}

/// Server side: a readiness-driven reactor feeding a bounded execution
/// tier. Public API is unchanged from the worker-pool era — `spawn`,
/// `spawn_with`, `local_addr`, `health`, `sheds`, `shutdown` — but
/// concurrency is now fd-bound, not thread-bound, and one connection
/// may pipeline many requests (out-of-order completion, replies keyed
/// by request id).
pub struct TcpServer {
    local: SocketAddr,
    shared: Arc<ServerShared>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local", &self.local)
            .field("open", &self.open_connections())
            .field("sheds", &self.sheds())
            .finish()
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor with the default configuration. `respond` runs on
    /// execution-tier workers and must be thread-safe; with pipelining
    /// several invocations for one connection may run concurrently.
    ///
    /// # Errors
    ///
    /// Bind or reactor-setup failures as [`RdsError::Transport`].
    pub fn spawn<A, F>(addr: A, respond: F) -> Result<TcpServer, RdsError>
    where
        A: ToSocketAddrs,
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        TcpServer::spawn_with(addr, TcpServerConfig::default(), respond)
    }

    /// [`TcpServer::spawn`] with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Bind or reactor-setup failures as [`RdsError::Transport`].
    pub fn spawn_with<A, F>(
        addr: A,
        config: TcpServerConfig,
        respond: F,
    ) -> Result<TcpServer, RdsError>
    where
        A: ToSocketAddrs,
        F: Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        let local = listener.local_addr().map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        // std listens with a fixed backlog of 128; a reactor sized for
        // thousands of connections needs an accept queue to match, or a
        // connect burst stalls on SYN retransmits.
        super::sys::widen_listen_backlog(listener.as_raw_fd(), config.max_connections.max(1024));

        let telemetry = config.telemetry.clone().unwrap_or_default();
        let metrics = Arc::new(Metrics::new(&telemetry));
        let waker = Arc::new(Waker::new().map_err(io_err)?);
        let poller = Poller::new().map_err(io_err)?;
        poller.register(waker.fd(), TOKEN_WAKE, Interest::READ).map_err(io_err)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ).map_err(io_err)?;

        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            waker: Arc::clone(&waker),
            metrics: Arc::clone(&metrics),
        });
        shared.set_health(ServerHealth::Accepting);

        let executor = Executor::spawn(
            config.workers,
            config.backlog,
            Arc::new(respond),
            waker,
            metrics,
            config.on_panic.clone(),
        );
        let reactor = Reactor {
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            shared: Arc::clone(&shared),
            executor,
            degraded_at: (config.backlog.max(1) / 2).max(1),
            config,
            outstanding: 0,
            draining: false,
            drain_until: None,
        };
        let handle = std::thread::spawn(move || reactor.run());
        Ok(TcpServer { local, shared, reactor: Some(handle) })
    }

    /// The bound address (including the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Requests (or over-cap connections) answered with `Busy` because
    /// the execution queue — or the connection table — was full
    /// (`rds.shed`).
    pub fn sheds(&self) -> u64 {
        self.shared.metrics.shed.get()
    }

    /// Connections currently registered with the reactor
    /// (`rds.tcp.active_connections`).
    pub fn open_connections(&self) -> u64 {
        self.shared.metrics.active.get()
    }

    /// The server's current coarse health (`rds.tcp.health`).
    pub fn health(&self) -> ServerHealth {
        ServerHealth::from_code(self.shared.metrics.health.get() as u8)
    }

    /// Handler panics survived, each of which cost its connection, not
    /// a worker (`rds.tcp.handler_panics`).
    pub fn handler_panics(&self) -> u64 {
        self.shared.metrics.panics.get()
    }

    /// Signals shutdown and joins the reactor (which in turn drains
    /// in-flight requests within [`DRAIN_DEADLINE`], closes every socket
    /// and joins the execution tier) — on return no server thread is
    /// running, however many idle connections were open.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// The event loop's state, owned by the reactor thread.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<usize, Connection>,
    /// Monotonic: tokens are never reused, so a completion for a
    /// closed connection can never be misdelivered to a new one.
    next_token: usize,
    shared: Arc<ServerShared>,
    executor: Executor,
    config: TcpServerConfig,
    /// Execution-queue depth at which health degrades.
    degraded_at: usize,
    /// Jobs submitted to the execution tier and not yet completed
    /// (counts completions bound for already-closed connections too).
    outstanding: usize,
    draining: bool,
    drain_until: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            let mut timeout = IDLE_POLL;
            if let Some(until) = self.drain_until {
                timeout = timeout.min(until.saturating_duration_since(Instant::now()));
            }
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A broken poller is unrecoverable: fall through to an
                // orderly drain instead of spinning.
                self.shared.stop.store(true, Ordering::Relaxed);
            }
            let now = Instant::now();
            if self.shared.stop.load(Ordering::Relaxed) && !self.draining {
                self.enter_drain(now);
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.shared.waker.drain(),
                    TOKEN_LISTENER => {
                        if !self.draining {
                            self.accept_ready();
                        }
                    }
                    token => self.conn_event(token, ev),
                }
            }
            self.executor.take_completions(&mut completions);
            for c in completions.drain(..) {
                self.apply_completion(c);
            }
            if now.duration_since(last_sweep) >= IDLE_POLL {
                self.sweep(now);
                last_sweep = now;
            }
            self.update_health();
            if self.draining {
                let drained =
                    self.outstanding == 0 && self.conns.values().all(|c| !c.wants_write());
                let expired = self.drain_until.is_some_and(|u| Instant::now() >= u);
                if drained || expired {
                    break;
                }
            }
        }
        // Bounded-deadline cleanup: close every socket (idle ones
        // included — nothing to wait for), then join the workers.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        self.executor.shutdown();
        self.shared.set_health(ServerHealth::Draining);
    }

    fn enter_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_until = Some(now + DRAIN_DEADLINE);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.shared.set_health(ServerHealth::Draining);
        // Drop read interest everywhere; pending writes still flush.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.finish_touch(token);
        }
    }

    fn accept_ready(&mut self) {
        let max_conns = self.config.max_connections.max(1);
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= max_conns {
                        // No request was read, so the Busy frame can
                        // only carry id 0.
                        best_effort_busy(stream, &self.shed(0));
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                        continue;
                    }
                    self.conns.insert(token, Connection::new(stream));
                    self.shared.metrics.active.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if ev.readable && !conn.peer_closed {
                // The read interval attributed to frames completed by
                // this pass starts at the prior partial read, if any.
                let read_began = conn.frame_started.unwrap_or_else(Instant::now);
                match conn.read_ready() {
                    Ok(outcome) => {
                        let recv_done = Instant::now();
                        conn.parked_frames.extend(outcome.frames.into_iter().map(|bytes| {
                            super::conn::ParkedFrame { bytes, recv_start: read_began, recv_done }
                        }));
                        if outcome.eof {
                            conn.peer_closed = true;
                        }
                    }
                    Err(_) => close = true,
                }
            } else if ev.error {
                // Hangup/error with no readable work left.
                close = true;
            }
            if !close && ev.writable && conn.wants_write() {
                close = conn.flush().is_err();
            }
        }
        if close {
            self.close_conn(token);
            return;
        }
        self.pump(token);
        self.finish_touch(token);
    }

    /// Moves parked frames into the execution tier while the
    /// connection has in-flight headroom; sheds (per request, with the
    /// request's id) when the tier is saturated.
    fn pump(&mut self, token: usize) {
        loop {
            let parked = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if conn.in_flight >= MAX_IN_FLIGHT_PER_CONN {
                    return;
                }
                match conn.parked_frames.pop_front() {
                    Some(parked) => parked,
                    None => return,
                }
            };
            match self.executor.submit(Job {
                token,
                frame: parked.bytes,
                recv_start: parked.recv_start,
                recv_done: parked.recv_done,
                enqueued: Instant::now(),
            }) {
                Ok(()) => {
                    self.outstanding += 1;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.in_flight += 1;
                    }
                }
                Err(job) => {
                    let id = crate::codec::peek_request_id(&job.frame).unwrap_or(0);
                    let busy = self.shed(id);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.queue_response(&busy);
                    }
                }
            }
        }
    }

    /// Counts one shed, runs the embedder's hook, and encodes the `Busy`
    /// frame under `request_id` (0 when nothing was read), signed when
    /// the server is keyed.
    fn shed(&self, request_id: i64) -> Vec<u8> {
        self.shared.metrics.shed.inc();
        if let Some(hook) = &self.config.on_shed {
            hook();
        }
        crate::codec::encode_response(
            &RdsResponse::Error {
                code: ErrorCode::Busy,
                message: "server overloaded, retry later".to_string(),
            },
            request_id,
            self.config.key.as_deref(),
        )
    }

    fn apply_completion(&mut self, c: Completion) {
        self.outstanding = self.outstanding.saturating_sub(1);
        {
            let Some(conn) = self.conns.get_mut(&c.token) else { return };
            match c.response {
                Some(bytes) => {
                    conn.in_flight = conn.in_flight.saturating_sub(1);
                    conn.queue_response(&bytes);
                }
                None => {
                    // Handler panic: poison exactly this connection.
                    self.close_conn(c.token);
                    return;
                }
            }
        }
        self.pump(c.token);
        self.finish_touch(c.token);
    }

    /// Flush opportunistically, close a finished half-closed peer, and
    /// reconcile the poller's interest set with the connection state.
    fn finish_touch(&mut self, token: usize) {
        let draining = self.draining;
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if (conn.wants_write() && conn.flush().is_err())
                || (conn.peer_closed && conn.idle_complete())
            {
                close = true;
            } else {
                let desired = conn.desired_interest(MAX_IN_FLIGHT_PER_CONN, draining);
                if desired != conn.registered {
                    let fd = conn.stream.as_raw_fd();
                    if self.poller.reregister(fd, token, desired).is_ok() {
                        conn.registered = desired;
                    }
                }
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.metrics.active.dec();
        }
    }

    /// Periodic frame-deadline sweep — no parked thread per connection
    /// required.
    fn sweep(&mut self, now: Instant) {
        let doomed: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.frame_started.is_some_and(|t| now.duration_since(t) >= FRAME_TIMEOUT)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in doomed {
            self.close_conn(token);
        }
    }

    fn update_health(&mut self) {
        let next = if self.draining {
            ServerHealth::Draining
        } else if self.executor.queue_depth() >= self.degraded_at
            || self.conns.len() >= self.config.max_connections.max(1)
        {
            ServerHealth::Degraded
        } else {
            ServerHealth::Accepting
        };
        self.shared.set_health(next);
    }
}

/// Answers an over-cap connection with a `Busy` frame, best-effort and
/// briefly: short write timeout, then a short drain read so the close
/// emits FIN rather than an RST that could discard the frame from the
/// peer's receive buffer.
fn best_effort_busy(mut stream: TcpStream, frame: &[u8]) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    if crate::tcp::write_frame(&mut stream, frame).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut sink = [0u8; 1024];
    let _ = stream.read(&mut sink);
}
