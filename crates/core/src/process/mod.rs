//! The elastic process runtime, split along its concurrency boundaries:
//!
//! - [`table`] — the sharded instance table and per-slot atomic state;
//! - [`stats`] — lock-free lifetime counters;
//! - [`events`] — bounded manager-facing notification/log queues;
//! - [`lifecycle`] — instantiate / suspend / resume / terminate /
//!   messaging / introspection;
//! - [`invoke`] — running entry points and applying agent-queued
//!   actions.
//!
//! This module keeps the constructor, configuration, delegation (the
//! Translator front door) and the drain APIs.

mod account;
mod durability;
pub(crate) mod events;
mod invoke;
mod lifecycle;
mod stats;
mod table;

#[cfg(test)]
mod tests;

pub use account::{DpiAccount, DpiAccountRow, DpiAccountSnapshot, DpiQuota};
pub use events::EventQueue;
pub use stats::ProcessStats;

use crate::durable::Durability;
use crate::journal::Journal;
use crate::services::{self, Notification, ServerCtx};
use crate::{CoreError, Repository};
use dpl::{Budget, HostRegistry, Value};
use mbd_telemetry::{Counter, Gauge, Telemetry, Timer};
use parking_lot::{Mutex, RwLock};
use rds::{DpiId, DpiState};
use snmp::MibStore;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use table::ShardedTable;

/// Configuration of an elastic process.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Per-invocation resource budget for every dpi.
    pub budget: Budget,
    /// Maximum simultaneous live (non-terminated) instances.
    pub max_instances: usize,
    /// Keep terminated dpis visible in listings (diagnostics).
    pub keep_terminated: bool,
    /// Capacity of the manager-facing notification outbox; the oldest
    /// entry is dropped (and counted) on overflow.
    pub notification_capacity: usize,
    /// Capacity of the agent log, with the same drop-oldest policy.
    pub log_capacity: usize,
    /// Capacity of the audit journal (drop-oldest; gaps in `seq` record
    /// eviction).
    pub journal_capacity: usize,
    /// Resource quota armed on every newly instantiated dpi (`None` =
    /// unlimited; per-dpi overrides via
    /// [`ElasticProcess::set_quota`]).
    pub quota: Option<DpiQuota>,
    /// VM profiler sampling period: every `profile_sample`-th
    /// fuel-charge site records a basic-block sample on newly
    /// instantiated dpis (0 = profiling off).
    pub profile_sample: u32,
}

impl Default for ElasticConfig {
    fn default() -> ElasticConfig {
        ElasticConfig {
            budget: Budget::default(),
            max_instances: 1024,
            keep_terminated: true,
            notification_capacity: 4096,
            log_capacity: 4096,
            journal_capacity: 1024,
            quota: None,
            profile_sample: 0,
        }
    }
}

/// Descriptive snapshot of one dpi.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpiInfo {
    /// Instance id.
    pub id: DpiId,
    /// Program it instantiates.
    pub dp_name: String,
    /// Current lifecycle state.
    pub state: DpiState,
    /// Messages waiting in its mailbox.
    pub queued_messages: usize,
}

/// Pre-resolved runtime metrics (`ep.*`): one latency histogram per
/// lifecycle verb, plus contention and backpressure signals. Resolved
/// once at construction so recording on the hot paths is lock-free.
pub(in crate::process) struct EpMetrics {
    pub delegate: Timer,
    pub instantiate: Timer,
    pub invoke: Timer,
    /// `ep.vm_run` — time spent inside the dpl VM proper (a child of
    /// `ep.invoke` in span trees; the difference is dispatch overhead:
    /// slot lookup, state CAS, registry snapshot, lock wait).
    pub vm_run: Timer,
    pub suspend: Timer,
    pub resume: Timer,
    pub terminate: Timer,
    /// `ep.state_retries` — CAS retries on slot state transitions
    /// (suspend racing invoke's Running window).
    pub state_retries: Counter,
    /// `ep.notifications_queued` — outbox depth at last refresh.
    pub notifications_queued: Gauge,
    /// `ep.log_queued` — agent-log depth at last refresh.
    pub log_queued: Gauge,
    /// `ep.live_instances` — non-terminated dpis at last refresh.
    pub live_instances: Gauge,
    /// `ep.quota_breaches` — dpis suspended for exceeding their quota.
    pub quota_breaches: Counter,
    /// `ep.wal_records` — entries appended to the write-ahead log.
    pub wal_records: Counter,
    /// `ep.wal_bytes` — bytes appended to the write-ahead log.
    pub wal_bytes: Counter,
    /// `ep.wal_fsyncs` — fsyncs issued by the WAL (batched + periodic).
    pub wal_fsyncs: Counter,
    /// `ep.wal_fsync` — fsync latency histogram.
    pub wal_fsync: Timer,
    /// `ep.recovery_ms` — wall-clock milliseconds of the last boot
    /// recovery (0 until one has run).
    pub recovery_ms: Gauge,
}

impl EpMetrics {
    fn new(telemetry: &Telemetry) -> EpMetrics {
        EpMetrics {
            delegate: telemetry.timer("ep.delegate"),
            instantiate: telemetry.timer("ep.instantiate"),
            invoke: telemetry.timer("ep.invoke"),
            vm_run: telemetry.timer("ep.vm_run"),
            suspend: telemetry.timer("ep.suspend"),
            resume: telemetry.timer("ep.resume"),
            terminate: telemetry.timer("ep.terminate"),
            state_retries: telemetry.counter("ep.state_retries"),
            notifications_queued: telemetry.gauge("ep.notifications_queued"),
            log_queued: telemetry.gauge("ep.log_queued"),
            live_instances: telemetry.gauge("ep.live_instances"),
            quota_breaches: telemetry.counter("ep.quota_breaches"),
            wal_records: telemetry.counter("ep.wal_records"),
            wal_bytes: telemetry.counter("ep.wal_bytes"),
            wal_fsyncs: telemetry.counter("ep.wal_fsyncs"),
            wal_fsync: telemetry.timer("ep.wal_fsync"),
            recovery_ms: telemetry.gauge("ep.recovery_ms"),
        }
    }
}

pub(in crate::process) struct Inner {
    pub config: ElasticConfig,
    /// The host-service registry, behind an `Arc` so hot paths snapshot
    /// it (one `Arc` clone under a briefly-held read lock) instead of
    /// holding the lock across compilation or a whole VM run.
    /// `register_service` swaps in a rebuilt registry, which bumps the
    /// registry generation and invalidates per-dpi resolution caches.
    pub registry: RwLock<Arc<HostRegistry<ServerCtx>>>,
    /// Generation of the registry currently installed above, mirrored
    /// into an atomic so the invoke fast path can validate a slot's
    /// cached snapshot with one relaxed load instead of a read-lock and
    /// an `Arc` clone per invocation.
    pub registry_gen: AtomicU64,
    pub repository: Repository,
    pub dpis: ShardedTable,
    pub next_dpi: AtomicU64,
    pub mib: MibStore,
    pub outbox: Arc<EventQueue<Notification>>,
    pub log: Arc<EventQueue<String>>,
    pub ticks: Arc<AtomicU64>,
    pub stats: stats::AtomicStats,
    pub telemetry: Telemetry,
    pub metrics: EpMetrics,
    pub journal: Arc<Journal>,
    /// The armed durability store (`None` until
    /// [`ElasticProcess::attach_durability`]); behind an `RwLock` so hot
    /// paths pay one uncontended read-lock when durability is off.
    pub durable: RwLock<Option<Arc<Durability>>>,
    /// Mirrors `durable.is_some()`. Arming is monotonic (a store is
    /// never detached), so the hot path gates its WAL work on one
    /// relaxed load instead of a read-lock per invocation.
    pub durable_armed: AtomicBool,
    /// Restore nonces burned on this server (single-use blob guarantee).
    pub nonces: Mutex<HashSet<[u8; 16]>>,
    /// Trace ids replayed from the WAL at boot — a post-restart
    /// duplicate of one of these is a dedup *cold miss* (the in-memory
    /// `DedupCache` died with the old process).
    pub cold_traces: Mutex<HashSet<u64>>,
}

/// An elastic process: the runtime that accepts, translates, stores,
/// instantiates and executes delegated programs.
///
/// Cheaply cloneable — clones share the same runtime, so one handle can
/// serve RDS requests while another drives periodic agents.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct ElasticProcess {
    pub(in crate::process) inner: Arc<Inner>,
}

impl fmt::Debug for ElasticProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElasticProcess")
            .field("programs", &self.inner.repository.len())
            .field("instances", &self.inner.dpis.len())
            .finish()
    }
}

impl ElasticProcess {
    /// Creates a process with a fresh, empty MIB.
    pub fn new(config: ElasticConfig) -> ElasticProcess {
        ElasticProcess::with_mib(config, MibStore::new())
    }

    /// Creates a process managing an existing MIB (the managed device's
    /// instrumentation writes into the same store).
    pub fn with_mib(config: ElasticConfig, mib: MibStore) -> ElasticProcess {
        let outbox = Arc::new(EventQueue::new(config.notification_capacity));
        let log = Arc::new(EventQueue::new(config.log_capacity));
        let telemetry = Telemetry::new();
        let metrics = EpMetrics::new(&telemetry);
        let journal = Arc::new(Journal::new(config.journal_capacity));
        let registry = Arc::new(services::standard_registry());
        let registry_gen = AtomicU64::new(registry.generation());
        ElasticProcess {
            inner: Arc::new(Inner {
                config,
                registry: RwLock::new(registry),
                registry_gen,
                repository: Repository::new(),
                dpis: ShardedTable::new(),
                next_dpi: AtomicU64::new(1),
                mib,
                outbox,
                log,
                ticks: Arc::new(AtomicU64::new(0)),
                stats: stats::AtomicStats::default(),
                telemetry,
                metrics,
                journal,
                durable: RwLock::new(None),
                durable_armed: AtomicBool::new(false),
                nonces: Mutex::new(HashSet::new()),
                cold_traces: Mutex::new(HashSet::new()),
            }),
        }
    }

    /// The process's telemetry domain. Transports and embedders share
    /// it (e.g. pass a clone to `TcpServerConfig.telemetry`) so one
    /// snapshot covers the whole server.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Refreshes point-in-time gauges (`ep.notifications_queued`,
    /// `ep.log_queued`, `ep.live_instances`). Called by exporters
    /// before reading a snapshot; cheap enough for every poll.
    pub fn refresh_gauges(&self) {
        self.inner.metrics.notifications_queued.set(self.inner.outbox.len() as u64);
        self.inner.metrics.log_queued.set(self.inner.log.len() as u64);
        self.inner.metrics.live_instances.set(self.inner.dpis.live() as u64);
    }

    /// The shared MIB store.
    pub fn mib(&self) -> &MibStore {
        &self.inner.mib
    }

    /// The audit journal: every RDS operation, lifecycle transition,
    /// quota breach and handler panic, each stamped with its trace id.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.inner.journal
    }

    /// Point-in-time copy of a dpi's resource account, if the dpi is
    /// (still) in the table.
    pub fn dpi_account(&self, dpi: DpiId) -> Option<DpiAccountSnapshot> {
        self.inner.dpis.get(dpi).map(|slot| slot.account.snapshot())
    }

    /// Accounting rows for every live (non-terminated) dpi, sorted by
    /// id — the source of the `mbdDpiAccounting` OCP table. Runs at
    /// 1 Hz from the OCP refresher, so it takes the combined
    /// [`ShardedTable::snapshot_with_len`] pass: one trip through the
    /// shard locks yields both the slots and the capacity to pre-size
    /// the row vector.
    pub fn account_rows(&self) -> Vec<DpiAccountRow> {
        let (slots, len) = self.inner.dpis.snapshot_with_len();
        let mut rows = Vec::with_capacity(len);
        rows.extend(slots.into_iter().filter_map(|(id, slot)| {
            let state = slot.state();
            (state != DpiState::Terminated).then(|| DpiAccountRow {
                id,
                dp_name: slot.dp_name.clone(),
                state,
                account: slot.account.snapshot(),
            })
        }));
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Folded-stack profile lines for one dpi (`dpi` = its id) or every
    /// profiled dpi (`dpi` = 0, each line prefixed `dpi-N;`), hottest
    /// first within each dpi. Empty when profiling is off
    /// ([`ElasticConfig::profile_sample`] = 0) or nothing has run.
    pub fn profile_stacks(&self, dpi: u64) -> Vec<String> {
        let mut slots = self.inner.dpis.snapshot();
        slots.sort_by_key(|(id, _)| *id);
        let mut out = Vec::new();
        for (id, slot) in slots {
            if dpi != 0 && id.0 != dpi {
                continue;
            }
            let cell = slot.cell.lock();
            if !cell.vm.profiling_enabled() {
                continue;
            }
            let lines = cell.vm.profile_folded();
            drop(cell);
            if dpi == 0 {
                out.extend(lines.into_iter().map(|l| format!("dpi-{};{l}", id.0)));
            } else {
                out.extend(lines);
            }
        }
        out
    }

    /// Per-block profile rows for every profiled dpi, sorted by dpi id
    /// and hottest-first within each — the source of the `mbdProfile`
    /// OCP table.
    pub fn profile_rows(&self) -> Vec<(u64, dpl::BlockProfile)> {
        let mut slots = self.inner.dpis.snapshot();
        slots.sort_by_key(|(id, _)| *id);
        let mut out = Vec::new();
        for (id, slot) in slots {
            let cell = slot.cell.lock();
            if !cell.vm.profiling_enabled() {
                continue;
            }
            let rows = cell.vm.profile_rows();
            drop(cell);
            out.extend(rows.into_iter().map(|row| (id.0, row)));
        }
        out
    }

    /// Arms (or, with `None`, clears) a dpi's resource quota. The quota
    /// is checked after each invocation; a breach suspends the dpi.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`].
    pub fn set_quota(&self, dpi: DpiId, quota: Option<DpiQuota>) -> Result<(), CoreError> {
        let slot = self.slot(dpi)?;
        slot.set_quota(quota);
        self.durable_append(crate::durable::WalRecord::SetQuota { dpi: dpi.0, quota });
        Ok(())
    }

    /// Attributes RDS frame bytes to a dpi's account — wire-boundary
    /// accounting done by the RDS front-end's audit sink, so the cost of
    /// a request rides the dpi it targeted.
    pub(crate) fn charge_rds_bytes(&self, dpi: DpiId, bytes_in: u64, bytes_out: u64) {
        if let Some(slot) = self.inner.dpis.get(dpi) {
            slot.account.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
            slot.account.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        }
    }

    /// Records a runtime-originated journal entry (principal `server`)
    /// stamped with the ambient trace id.
    pub(in crate::process) fn journal_event(&self, verb: &str, dpi: DpiId, ok: bool, detail: &str) {
        self.inner.journal.record(
            self.ticks(),
            mbd_telemetry::current_trace_id(),
            "server",
            verb,
            dpi.0,
            ok,
            detail,
        );
    }

    /// The dp repository.
    pub fn repository(&self) -> &Repository {
        &self.inner.repository
    }

    /// Lifetime counters, including event-queue losses.
    pub fn stats(&self) -> ProcessStats {
        ProcessStats {
            notifications_dropped: self.inner.outbox.dropped(),
            log_dropped: self.inner.log.dropped(),
            ..self.inner.stats.snapshot()
        }
    }

    /// Registers an additional host service available to delegated
    /// programs. Must be called before delegating programs that use it
    /// (the Translator checks bindings at delegation time).
    pub fn register_service<F>(&self, name: &str, arity: usize, f: F)
    where
        F: Fn(&mut ServerCtx, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        // Clone-modify-swap: in-flight invocations keep their snapshot;
        // the new registry carries a fresh generation, so dpi resolution
        // caches re-validate on their next invocation.
        let mut guard = self.inner.registry.write();
        let mut next = HostRegistry::clone(&guard);
        next.register(name, arity, f);
        // Both stores happen under the write guard; a reader that sees
        // the new generation and refreshes blocks on the read lock until
        // the guard drops, so it can only observe the new registry.
        self.inner.registry_gen.store(next.generation(), Ordering::Release);
        *guard = Arc::new(next);
    }

    /// One-`Arc`-clone snapshot of the host registry; callers run against
    /// it without holding the lock.
    pub(in crate::process) fn registry_snapshot(&self) -> Arc<HostRegistry<ServerCtx>> {
        Arc::clone(&self.inner.registry.read())
    }

    /// Builds a slot for `dpi` with a fresh mailbox/account and this
    /// process's shared service handles wired into its long-lived
    /// context.
    pub(in crate::process) fn new_slot(
        &self,
        dpi: DpiId,
        dp_name: &str,
        instance: dpl::Instance,
        state: DpiState,
    ) -> table::DpiSlot {
        let ctx = ServerCtx {
            mib: self.inner.mib.clone(),
            mailbox: Arc::new(Mutex::new(std::collections::VecDeque::new())),
            outbox: Arc::clone(&self.inner.outbox),
            log: Arc::clone(&self.inner.log),
            ticks: Arc::clone(&self.inner.ticks),
            pending: Vec::new(),
            dpi,
            account: Arc::new(DpiAccount::default()),
        };
        table::DpiSlot::with_state(
            dp_name.to_string(),
            instance,
            state,
            ctx,
            self.registry_snapshot(),
        )
    }

    /// Advances the server clock by `ticks` hundredths of a second.
    /// (Simulations drive this; wall-clock embedders may mirror real
    /// time.)
    pub fn advance_ticks(&self, ticks: u64) {
        self.inner.ticks.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Current server clock.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Drains and returns notifications emitted by dpis since the last
    /// drain (the manager-facing event stream).
    pub fn drain_notifications(&self) -> Vec<Notification> {
        self.inner.outbox.drain()
    }

    /// Raises a server-originated notification into the same bounded
    /// outbox dpis emit through (dpi 0 marks the server itself) — the
    /// alert engine's fire/clear edges ride the ordinary manager-facing
    /// event stream.
    pub fn raise_notification(&self, value: Value, trace_id: u64) {
        // Drop-oldest eviction is already accounted by the queue itself
        // (surfaces as `notifications_dropped` in the stats).
        let _ = self.inner.outbox.push(Notification { dpi: DpiId(0), value, trace_id });
    }

    /// Drains and returns agent log lines.
    pub fn drain_log(&self) -> Vec<String> {
        self.inner.log.drain()
    }

    /// **Delegate**: translate `source` and store it as `name`.
    ///
    /// Re-delegating an existing name installs a new version; running
    /// instances keep executing the version they were created from.
    ///
    /// # Errors
    ///
    /// [`CoreError::Translation`] if the Translator rejects the program.
    pub fn delegate(&self, name: &str, source: &str) -> Result<(), CoreError> {
        self.delegate_as(name, source, "local")
    }

    /// [`ElasticProcess::delegate`] with an explicit delegator handle
    /// (used by the RDS front-end).
    ///
    /// # Errors
    ///
    /// As for [`ElasticProcess::delegate`].
    pub fn delegate_as(&self, name: &str, source: &str, principal: &str) -> Result<(), CoreError> {
        let _span = self.inner.metrics.delegate.start();
        let registry = self.registry_snapshot();
        match dpl::compile_program(source, &registry) {
            Ok(program) => {
                self.inner.repository.store(name, source, program, principal);
                stats::bump(&self.inner.stats.delegations_accepted);
                self.durable_append(crate::durable::WalRecord::Delegate {
                    name: name.to_string(),
                    source: source.to_string(),
                    principal: principal.to_string(),
                });
                Ok(())
            }
            Err(e) => {
                stats::bump(&self.inner.stats.delegations_rejected);
                Err(CoreError::Translation(e))
            }
        }
    }

    /// Removes a dp from the repository (running dpis are unaffected).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchProgram`] if absent.
    pub fn delete_program(&self, name: &str) -> Result<(), CoreError> {
        self.inner.repository.delete(name).map(|_| {
            self.durable_append(crate::durable::WalRecord::DeleteProgram {
                name: name.to_string(),
            });
        })
    }

    /// Sorted names of stored dps.
    pub fn list_programs(&self) -> Vec<String> {
        self.inner.repository.names()
    }
}
