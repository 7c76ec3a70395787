//! Self-instrumentation for the MbD server.
//!
//! The paper's payoff is *delegated health functions* computed next to
//! the data — which makes the MbD server itself the one device it could
//! not manage: nothing measured its latencies, queue depths or per-verb
//! load. This crate is the vendored-shim-style (zero external deps)
//! telemetry substrate that closes that gap:
//!
//! - [`hist`] — lock-free log-bucketed latency [`Histogram`]s with
//!   mergeable [`HistSnapshot`]s and p50/p90/p99/max;
//! - [`registry`] — named [`Counter`]s, [`Gauge`]s and histograms
//!   behind one [`Registry`];
//! - [`span`] — RAII [`Timer`]/[`Span`] pairs recording into the
//!   registry, optionally emitting structured [`TraceEvent`]s with
//!   parent edges (span trees);
//! - [`ring`] — the one bounded drop-oldest [`Ring`], numbering its
//!   entries under its own lock, that every retained stream below (and
//!   the elastic process's audit journal and outboxes) sits on;
//! - [`trace`] — the trace ring of span events, span-id context and
//!   interned span names;
//! - [`store`] — tail-sampled retention of completed span trees plus
//!   the flight recorder's frozen snapshots;
//! - [`series`] — retained metrics history: each [`Telemetry::sample_history`]
//!   (once a second, from the embedder's loop) snapshots every counter
//!   rate / gauge / histogram quantile into fixed-capacity
//!   multi-resolution rings (1 s / 10 s / 60 s, downsampled
//!   min/max/avg/last);
//! - [`alert`] — SLO alert rules (threshold and windowed burn-rate,
//!   with fire/clear hysteresis) evaluated in-server over that history.
//!
//! A [`Telemetry`] handle ties these together and is cheaply cloneable:
//! the elastic process, the RDS front-end and the health observers all
//! record into one registry, which the OCP adapter then exports as the
//! `mbdTelemetry` SNMP subtree — so a *delegated agent can compute the
//! server's own health function* from ordinary MIB gets.
//!
//! # Examples
//!
//! ```
//! use mbd_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let invoke = tel.timer("rds.verb.invoke");
//! for _ in 0..100 {
//!     let _span = invoke.start(); // records on drop
//! }
//! tel.counter("rds.tcp.handler_panics").inc();
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.histogram("rds.verb.invoke").unwrap().count(), 100);
//! assert!(snap.histogram("rds.verb.invoke").unwrap().p99_ns() > 0);
//! println!("{}", snap.to_text());
//! ```

pub mod alert;
pub mod hist;
pub mod registry;
pub mod ring;
pub mod series;
pub mod span;
pub mod store;
pub mod trace;

pub use alert::{AlertEngine, AlertOp, AlertRule, AlertStateView, AlertTransition};
pub use hist::{bucket_bound_ns, HistSnapshot, Histogram, BUCKETS};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use ring::Ring;
pub use series::{
    pattern_matches, History, HistoryConfig, Point, SeriesKind, SeriesView, RESOLUTIONS,
};
pub use span::{Span, Timer};
pub use store::{Keep, TraceStore, TraceStoreConfig, TraceTree};
pub use trace::{
    current_span_id, current_trace_id, enter_trace, enter_trace_with_parent, next_span_id,
    NameTable, TraceEvent, TraceScope,
};

use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trace::TraceRing;

#[derive(Debug)]
pub(crate) struct TelemetryInner {
    pub(crate) registry: Registry,
    pub(crate) ring: OnceLock<Arc<TraceRing>>,
    pub(crate) store: OnceLock<Arc<TraceStore>>,
    pub(crate) history: OnceLock<Arc<History>>,
    pub(crate) alerts: OnceLock<Arc<AlertEngine>>,
    pub(crate) names: Arc<NameTable>,
    pub(crate) epoch: Instant,
}

/// A shared handle to one telemetry domain (registry + trace ring).
///
/// Clones share the same registry, like an
/// [`ElasticProcess`](https://docs.rs) handle shares its runtime: give
/// every layer of one server the same `Telemetry` and a single snapshot
/// sees the whole server.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh, empty telemetry domain (tracing off).
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                registry: Registry::new(),
                ring: OnceLock::new(),
                store: OnceLock::new(),
                history: OnceLock::new(),
                alerts: OnceLock::new(),
                names: Arc::new(NameTable::default()),
                epoch: Instant::now(),
            }),
        }
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// The histogram named `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.inner.registry.histogram(name)
    }

    /// A pre-resolved timing handle for `name` — resolve once, then
    /// [`Timer::start`] per operation on the hot path. The name is
    /// interned here, so recording a span is allocation-free.
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            name: Arc::from(name),
            name_id: self.inner.names.intern(name),
            hist: self.inner.registry.histogram(name),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Turns on structured tracing with a drop-oldest ring of
    /// `capacity` events. Returns `false` (leaving the original ring in
    /// place) if tracing was already enabled.
    pub fn enable_tracing(&self, capacity: usize) -> bool {
        self.inner
            .ring
            .set(Arc::new(TraceRing::new(capacity, Arc::clone(&self.inner.names))))
            .is_ok()
    }

    /// Turns on tail-sampled span-tree retention (see [`TraceStore`]).
    /// Requires (and implies nothing about) tracing: enable both to get
    /// trees. Returns `false` if a store was already installed.
    pub fn enable_trace_store(&self, config: TraceStoreConfig) -> bool {
        self.inner.store.set(Arc::new(TraceStore::new(config))).is_ok()
    }

    /// The tail-sampling store, if enabled.
    pub fn trace_store(&self) -> Option<Arc<TraceStore>> {
        self.inner.store.get().cloned()
    }

    /// Arms per-thread span capture for one request (no-op unless both
    /// tracing and the trace store are enabled). Pair with
    /// [`Telemetry::finish_trace`].
    pub fn begin_trace_capture(&self) {
        if self.inner.ring.get().is_some() && self.inner.store.get().is_some() {
            trace::begin_capture();
        }
    }

    /// Ends a request's span capture and offers the collected tree to
    /// the tail-sampling store with the request's outcome. Returns the
    /// retention decision (None when capture was never armed).
    ///
    /// Name resolution (and the per-span allocations it implies) only
    /// happens for trees the store decides to retain — a healthy request
    /// the reservoir thins out costs one atomic and nothing else here.
    pub fn finish_trace(&self, trace_id: u64, duration_ns: u64, errored: bool) -> Option<Keep> {
        let mut raw = trace::take_capture();
        let (ring, store) = (self.inner.ring.get()?, self.inner.store.get()?);
        if raw.is_empty() {
            return None;
        }
        // The staged batch becomes ring history (the flight recorder's
        // view) under one lock, and takes its seqs there, whatever the
        // store decides below.
        ring.append_raw(&mut raw);
        let kept = store.offer_with(trace_id, duration_ns, errored, || ring.resolve_all(&raw));
        trace::recycle_capture(raw);
        Some(kept)
    }

    /// The flight recorder's freeze: snapshots the current ring
    /// contents (without draining them) and files them in the trace
    /// store as a frozen tree under `trace_id`. Returns the number of
    /// spans frozen (0 when tracing or the store is off).
    ///
    /// A freeze fired mid-request on the request's own thread (e.g. a
    /// quota breach) also includes the spans its in-progress capture
    /// has staged but not yet flushed to the ring. Those come last, with
    /// provisional seqs continuing the ring's: the seqs they would take
    /// were the batch appended at the freeze (the real append, when the
    /// request finishes, may give them later ones).
    pub fn flight_freeze(&self, trace_id: u64, reason: &str) -> usize {
        let (Some(ring), Some(store)) = (self.inner.ring.get(), self.inner.store.get()) else {
            return 0;
        };
        let spans = ring.snapshot_with(&trace::capture_snapshot());
        let n = spans.len();
        store.freeze(trace_id, reason, spans);
        n
    }

    /// Turns on retained metrics history (see [`History`]). Returns
    /// `false` if history was already enabled.
    pub fn enable_history(&self, config: HistoryConfig) -> bool {
        self.inner.history.set(Arc::new(History::new(config))).is_ok()
    }

    /// The metrics history store, if enabled.
    pub fn history(&self) -> Option<Arc<History>> {
        self.inner.history.get().cloned()
    }

    /// Takes one history sample *now*: snapshots the registry and
    /// ingests it at the current epoch-relative second. Returns the
    /// sample time in seconds (0 when history is off). The embedder
    /// calls this (or [`Telemetry::sample_and_evaluate`]) once a second
    /// — `mbd-server` from its 1 s loop — so tests and benches drive
    /// sampling deterministically.
    pub fn sample_history(&self) -> u64 {
        let Some(history) = self.inner.history.get() else {
            return 0;
        };
        let t_s = self.elapsed_ns() / 1_000_000_000;
        history.sample(&self.snapshot(), t_s);
        t_s
    }

    /// Installs the alert rule set (see [`AlertEngine`]). Returns
    /// `false` if an engine was already installed.
    pub fn enable_alerts(&self, rules: Vec<AlertRule>) -> bool {
        self.inner.alerts.set(Arc::new(AlertEngine::new(rules))).is_ok()
    }

    /// The alert engine, if installed.
    pub fn alerts(&self) -> Option<Arc<AlertEngine>> {
        self.inner.alerts.get().cloned()
    }

    /// Samples history and evaluates the alert rules against it,
    /// returning the fire/clear transitions for the caller to journal,
    /// notify and freeze on. No-op without history.
    pub fn sample_and_evaluate(&self) -> Vec<AlertTransition> {
        let Some(history) = self.inner.history.get() else {
            return Vec::new();
        };
        let t_s = self.sample_history();
        match self.inner.alerts.get() {
            Some(engine) => engine.evaluate(history, t_s),
            None => Vec::new(),
        }
    }

    /// Drains the trace ring (empty when tracing is off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.ring.get().map(|r| r.drain()).unwrap_or_default()
    }

    /// A copy of the trace ring without draining it.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.inner.ring.get().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// Trace events evicted before being drained.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.ring.get().map(|r| r.dropped()).unwrap_or(0)
    }

    /// Nanoseconds since this telemetry domain was created (the time
    /// base of [`TraceEvent::start_ns`]).
    pub fn elapsed_ns(&self) -> u64 {
        span::saturating_ns(self.inner.epoch.elapsed())
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner.registry.snapshot()
    }

    /// The human-readable stats dump
    /// ([`RegistrySnapshot::to_text`] of a fresh snapshot).
    pub fn snapshot_text(&self) -> String {
        self.snapshot().to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_registry() {
        let a = Telemetry::new();
        let b = a.clone();
        a.counter("shared").inc();
        b.counter("shared").add(2);
        assert_eq!(a.snapshot().counter("shared"), Some(3));
    }

    #[test]
    fn snapshot_text_roundtrips_names() {
        let tel = Telemetry::new();
        tel.gauge("ep.live_instances").set(12);
        let text = tel.snapshot_text();
        assert!(text.contains("ep.live_instances"));
        assert!(text.contains("12"));
    }

    #[test]
    fn distinct_domains_are_isolated() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.counter("x").inc();
        assert_eq!(b.snapshot().counter("x"), None);
    }

    #[test]
    fn capture_offers_a_tree_to_the_store() {
        let tel = Telemetry::new();
        tel.enable_tracing(64);
        tel.enable_trace_store(TraceStoreConfig::default());
        let timer = tel.timer("req.root");
        let child = tel.timer("req.child");
        tel.begin_trace_capture();
        {
            let _scope = enter_trace(0xCAFE);
            let root = timer.start();
            child.start().finish();
            root.finish();
        }
        assert_eq!(tel.finish_trace(0xCAFE, 1_000, false), Some(Keep::Reservoir));
        let tree = tel.trace_store().unwrap().tree(0xCAFE).expect("tree retained");
        assert_eq!(tree.spans.len(), 2);
        let root = tree.spans.iter().find(|s| s.name == "req.root").unwrap();
        let child = tree.spans.iter().find(|s| s.name == "req.child").unwrap();
        assert_eq!(child.parent_span_id, root.span_id);
    }

    #[test]
    fn flight_freeze_snapshots_without_draining() {
        let tel = Telemetry::new();
        tel.enable_tracing(64);
        tel.enable_trace_store(TraceStoreConfig::default());
        {
            let _scope = enter_trace(0xF1);
            tel.timer("work").start().finish();
        }
        let frozen = tel.flight_freeze(0xF1, "p99 breach");
        assert_eq!(frozen, 1);
        assert_eq!(tel.trace_snapshot().len(), 1, "the ring still holds its events");
        let tree = tel.trace_store().unwrap().tree(0xF1).unwrap();
        assert_eq!(tree.kept, Keep::Frozen);
        assert_eq!(tree.reason, "p99 breach");
    }

    #[test]
    fn a_mid_request_freeze_numbers_staged_spans_after_the_ring() {
        let tel = Telemetry::new();
        tel.enable_tracing(64);
        tel.enable_trace_store(TraceStoreConfig::default());
        tel.timer("queued").start().finish(); // untraced: straight to the ring
        tel.begin_trace_capture();
        let scope = enter_trace(0xF2);
        tel.timer("staged").start().finish();
        assert_eq!(tel.flight_freeze(0xF2, "quota breach"), 2);
        drop(scope);
        let frozen = tel.trace_store().unwrap().tree(0xF2).unwrap().spans;
        let seqs: Vec<_> = frozen.iter().map(|s| (s.seq, s.name.as_str())).collect();
        assert_eq!(seqs, [(0, "queued"), (1, "staged")], "staged spans continue the ring's seqs");
        tel.finish_trace(0xF2, 1, false);
        assert_eq!(tel.trace_snapshot()[1].seq, 1, "the append then gives the same seq");
    }

    #[test]
    fn history_samples_the_registry_through_the_handle() {
        let tel = Telemetry::new();
        assert_eq!(tel.sample_history(), 0, "history off: no-op");
        assert!(tel.enable_history(HistoryConfig::default()));
        assert!(!tel.enable_history(HistoryConfig::default()), "second enable rejected");
        tel.gauge("ep.live_instances").set(7);
        tel.sample_history();
        let h = tel.history().unwrap();
        let v = h.query("ep.live_instances", 0, 1, u64::MAX / 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].points.last().unwrap().last, 7);
    }

    #[test]
    fn sample_and_evaluate_drives_the_alert_engine() {
        let tel = Telemetry::new();
        tel.enable_history(HistoryConfig::default());
        tel.enable_alerts(vec![AlertRule::parse("ep.backlog>10:for=1,clear=1").unwrap()]);
        tel.gauge("ep.backlog").set(99);
        let edges = tel.sample_and_evaluate();
        assert_eq!(edges.len(), 1);
        assert!(edges[0].fired);
    }

    #[test]
    fn finish_without_capture_is_none() {
        let tel = Telemetry::new();
        tel.enable_tracing(16);
        tel.enable_trace_store(TraceStoreConfig::default());
        assert_eq!(tel.finish_trace(1, 1, false), None);
    }
}
