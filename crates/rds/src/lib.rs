//! RDS — the Remote Delegation Service protocol.
//!
//! RDS is the wire protocol between delegating managers and elastic
//! processes. As in the prototype, message headers are encoded with ASN.1
//! BER (via the shared [`ber`] crate) and carry a principal handle plus an
//! optional MD5 keyed digest (the authentication the SOS server added).
//!
//! The protocol verbs mirror the paper's delegation primitives:
//!
//! | Verb | Effect |
//! |---|---|
//! | `DelegateProgram` | transfer a dp (source) to the server's repository |
//! | `DeleteProgram`   | remove a dp from the repository |
//! | `Instantiate`     | create a dpi (thread) from a stored dp |
//! | `Invoke`          | run an entry point of a dpi with arguments |
//! | `Suspend`/`Resume`/`Terminate` | dpi lifecycle control |
//! | `SendMessage`     | post to a dpi's mailbox |
//! | `ListPrograms` / `ListInstances` | introspection |
//!
//! The crate is transport-neutral: clients talk through a
//! [`FrameDuplex`] — [`TcpDuplex`] over a socket, [`LoopbackDuplex`] to
//! an in-process server. Performance experiments run the same codec
//! over `netsim`.
//!
//! There is one client engine, the windowed [`RdsPipeline`]: many
//! requests in flight on one connection, answered out of order,
//! matched by request id. [`RdsClient`] is that pipeline at window 1
//! behind typed verbs.
//!
//! The session layer is fault-tolerant (see `docs/RDS.md`): the
//! pipeline retries delivery failures under a [`RetryPolicy`] (bounded
//! attempts, seeded-jitter backoff, per-request deadline), re-sending
//! identical frames; servers suppress the resulting duplicates with a
//! bounded per-principal [`DedupCache`] that replays the original
//! encoded response (exactly-once effects); a saturated [`TcpServer`]
//! sheds individual requests with an explicit `Busy` frame carrying the
//! shed request's id and exposes its [`ServerHealth`]; and
//! [`FaultDuplex`] injects deterministic seeded faults (drop,
//! duplicate, delay, truncate, disconnect) around any duplex for chaos
//! testing.
//!
//! Over TCP the server is a readiness-driven [`reactor`]: one event
//! loop owns every socket (idle connections cost a file descriptor,
//! not a thread) and a bounded worker pool executes handlers.
//!
//! # Examples
//!
//! ```
//! use rds::{RdsRequest, codec};
//! use mbd_auth::Principal;
//!
//! let req = RdsRequest::ListPrograms;
//! let bytes = codec::encode_request(&req, &Principal::new("mgr"), 7, None);
//! let (decoded, principal, id) = codec::decode_request(&bytes, None).unwrap();
//! assert_eq!(decoded, req);
//! assert_eq!(principal.handle(), "mgr");
//! assert_eq!(id, 7);
//! ```

pub mod codec;
pub mod reactor;
pub mod tcp;

mod client;
mod dedup;
mod error;
mod fault;
mod msg;
mod pipeline;
mod retry;
mod server;
mod transport;

pub use client::RdsClient;
pub use dedup::{frame_fingerprint, DedupCache, DedupOutcome, DEFAULT_DEDUP_CAPACITY};
pub use error::{ErrorCode, RdsError};
pub use fault::{Fault, FaultConfig, FaultDuplex};
pub use msg::{
    AlertStatus, AuditRecord, DpiId, DpiState, DpiSummary, MetricPoint, MetricSeries, RdsRequest,
    RdsResponse, SpanRecord, TraceContext,
};
pub use pipeline::RdsPipeline;
pub use retry::RetryPolicy;
pub use server::{AuditEvent, RdsHandler, RdsServer};
pub use tcp::{ServerHealth, TcpServer, TcpServerConfig};
pub use transport::{FrameDuplex, LoopbackDuplex, TcpDuplex};
