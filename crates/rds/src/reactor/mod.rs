//! The event-driven RDS front-end.
//!
//! The 1991 prototype gave every conversation a thread; the PR-1 pool
//! bounded the threads but still pinned one per *served* connection,
//! so the concurrency ceiling was the worker count. This module
//! decouples the two, as the paper's elastic-server argument demands:
//!
//! * [`sys`] — minimal readiness-polling shims (epoll on Linux,
//!   `poll(2)` elsewhere, a self-pipe waker), declared directly
//!   against the platform libc because the workspace vendors all deps;
//! * [`conn`](self::conn) — per-connection state machines:
//!   incremental length-prefixed frame reassembly
//!   ([`FrameAssembler`]), buffered vectored writes, frame deadlines
//!   without a parked thread;
//! * [`executor`](self::executor) — the old worker pool demoted to a
//!   pure execution tier behind a bounded request queue;
//! * [`server`](self::server) — the reactor event loop and the public
//!   [`TcpServer`] handle.
//!
//! The wire format is untouched: frames are byte-identical to the
//! blocking implementation, so legacy serial clients interoperate.
//! What the reactor adds is *pipelining*: a connection may carry many
//! in-flight requests, completed out of order and matched by request
//! id (see [`crate::RdsPipeline`] for the client side and `docs/RDS.md`
//! for the framing state machine).

pub mod sys;

mod conn;
mod executor;
mod server;

pub use conn::FrameAssembler;
pub use server::TcpServer;
pub use sys::raise_nofile_limit;

use mbd_telemetry::{Counter, Gauge, Telemetry, Timer};

/// Pre-resolved transport metrics, shared by the reactor thread and
/// the execution tier. They are the server's only counters:
/// [`TcpServer`]'s accessors read them. `rds.tcp.active_connections`
/// gauges *open* (not worker-served) connections, and
/// `rds.tcp.queue_wait` measures each *request's* wait for a worker.
pub(crate) struct Metrics {
    /// `rds.tcp.queue_wait` — request enqueue-to-pickup latency.
    pub queue_wait: Timer,
    /// `rds.tcp.request` — one frame's respond() latency.
    pub request: Timer,
    /// `rds.tcp.active_connections` — connections the reactor holds
    /// ([`TcpServer::open_connections`]).
    pub active: Gauge,
    /// `rds.tcp.handler_panics` — handler panics survived
    /// ([`TcpServer::handler_panics`]).
    pub panics: Counter,
    /// `rds.shed` — requests (or over-cap connections) answered with
    /// an explicit `Busy` frame; the protocol-level name the retry
    /// layer watches ([`TcpServer::sheds`]).
    pub shed: Counter,
    /// `rds.tcp.health` — current [`crate::ServerHealth`] code
    /// ([`TcpServer::health`]).
    pub health: Gauge,
}

impl Metrics {
    pub(crate) fn new(telemetry: &Telemetry) -> Metrics {
        Metrics {
            queue_wait: telemetry.timer("rds.tcp.queue_wait"),
            request: telemetry.timer("rds.tcp.request"),
            active: telemetry.gauge("rds.tcp.active_connections"),
            panics: telemetry.counter("rds.tcp.handler_panics"),
            shed: telemetry.counter("rds.shed"),
            health: telemetry.gauge("rds.tcp.health"),
        }
    }
}
