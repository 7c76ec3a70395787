//! The elastic process runtime — Management by Delegation's core.
//!
//! An **elastic process** is a server process whose functionality can be
//! extended at runtime by *delegated programs* (dps). A manager transfers
//! a dp once; the server's **Translator** checks and compiles it (rejecting
//! programs that violate the binding rules); the **Repository** stores it;
//! any number of **delegated program instances** (dpis) can then be
//! instantiated from it and controlled through their lifecycle
//! (`Ready ⇄ Suspended`, `→ Terminated`) — all without restarting the
//! server or re-linking code. This is the paper's answer to the
//! centralized-polling bottleneck: the computation moves to the data.
//!
//! The main type is [`ElasticProcess`]. It owns
//!
//! - a [`HostRegistry`](dpl::HostRegistry) of **services** the server
//!   exposes to agents ([`services`]): local MIB access (`mib_get`,
//!   `mib_next`, `mib_walk`, `mib_set`, `mib_publish`), mailbox `recv`,
//!   `notify` for manager-bound events, `log`, and `now_ticks`;
//! - a [`Repository`] of translated dps;
//! - the dpi table with per-instance state, mailbox and budgets;
//! - a shared [`MibStore`](snmp::MibStore) (the managed device's data,
//!   also served by an embedded SNMP agent — see [`ocp`]).
//!
//! [`MbdServer`] glues an `ElasticProcess` behind the RDS protocol, and
//! [`PeriodicDriver`] runs a dpi autonomously on a period — the mode in
//! which delegated health functions sample device counters locally at
//! rates no remote poller could sustain.
//!
//! # Examples
//!
//! ```
//! use mbd_core::{ElasticConfig, ElasticProcess};
//! use dpl::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let process = ElasticProcess::new(ElasticConfig::default());
//! process.delegate("adder", "fn main(a, b) { return a + b; }")?;
//! let dpi = process.instantiate("adder")?;
//! let result = process.invoke(dpi, "main", &[Value::Int(2), Value::Int(3)])?;
//! assert_eq!(result, Value::Int(5));
//! # Ok(())
//! # }
//! ```

pub mod convert;
pub mod durable;
pub mod ocp;
pub mod services;

mod error;
mod journal;
mod process;
mod repository;
mod server;
mod worker;

pub use durable::{CheckpointBlob, Durability, RecoveryReport};
pub use error::CoreError;
pub use journal::Journal;
pub use process::{
    DpiAccount, DpiAccountRow, DpiAccountSnapshot, DpiInfo, DpiQuota, ElasticConfig,
    ElasticProcess, ProcessStats,
};
pub use repository::{Repository, StoredDp};
#[doc(hidden)]
pub use server::ExecutorConfig;
pub use server::MbdServer;
pub use services::{Notification, PendingAction, ServerCtx};
pub use worker::PeriodicDriver;

/// The outbox type of [`ServerCtx`] under its earlier name
/// (`bench/e2e` builds a `ServerCtx` with it).
pub use mbd_telemetry::Ring as EventQueue;

pub use rds::{AuditRecord, DpiId, DpiState};
