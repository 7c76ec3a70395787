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
//! - [`trace`] — the bounded drop-oldest [`TraceRing`] (the same queue
//!   discipline as the elastic process's notification outbox), span-id
//!   context and interned span names;
//! - [`store`] — tail-sampled retention of completed span trees plus
//!   the flight recorder's frozen snapshots;
//! - [`series`] — retained metrics history: a 1 Hz sampler snapshots
//!   every counter rate / gauge / histogram quantile into fixed-capacity
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
pub mod series;
pub mod span;
pub mod store;
pub mod trace;

pub use alert::{AlertEngine, AlertOp, AlertRule, AlertStateView, AlertTransition};
pub use hist::{bucket_bound_ns, HistSnapshot, Histogram, BUCKETS};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use series::{
    pattern_matches, History, HistoryConfig, Point, SeriesKind, SeriesView, RESOLUTIONS,
};
pub use span::{OwnedSpan, Span, Timer};
pub use store::{Keep, TraceStore, TraceStoreConfig, TraceTree};
pub use trace::{
    current_span_id, current_trace_id, enter_trace, enter_trace_with_parent, next_span_id,
    NameTable, TraceEvent, TraceRing, TraceScope,
};

use std::sync::{Arc, OnceLock};
use std::time::Instant;

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

    /// Starts a span for `name`, resolving the metric now (convenient
    /// for cold paths; hot paths should hold a [`Timer`]).
    pub fn span(&self, name: &str) -> OwnedSpan {
        let timer = self.timer(name);
        let ctx = if self.inner.ring.get().is_some() {
            let id = trace::next_span_id();
            let parent = trace::push_span(id);
            Some((id, parent))
        } else {
            None
        };
        OwnedSpan { timer, start: Instant::now(), finished: false, ctx }
    }

    /// Turns on structured tracing with a drop-oldest ring of
    /// `capacity` events. Returns `false` (leaving the original ring in
    /// place) if tracing was already enabled.
    pub fn enable_tracing(&self, capacity: usize) -> bool {
        self.inner
            .ring
            .set(Arc::new(TraceRing::with_names(capacity, Arc::clone(&self.inner.names))))
            .is_ok()
    }

    /// Whether [`enable_tracing`](Telemetry::enable_tracing) happened.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.ring.get().is_some()
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
        let raw = trace::take_capture();
        let (ring, store) = (self.inner.ring.get()?, self.inner.store.get()?);
        if raw.is_empty() {
            return None;
        }
        // The staged batch becomes ring history (the flight recorder's
        // view) under one lock, whatever the store decides below.
        ring.append_raw(&raw);
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
    /// has staged but not yet flushed to the ring.
    pub fn flight_freeze(&self, trace_id: u64, reason: &str) -> usize {
        let (Some(ring), Some(store)) = (self.inner.ring.get(), self.inner.store.get()) else {
            return 0;
        };
        let mut spans = ring.snapshot();
        spans.extend(ring.resolve_all(&trace::capture_snapshot()));
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
    /// sample time in seconds (0 when history is off). The `mbd-server`
    /// stats loop and the background sampler both funnel through here,
    /// so tests and benches can drive sampling deterministically.
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
    /// returning any fire/clear transitions (also queued on the engine
    /// for [`AlertEngine::drain_transitions`]). No-op without history.
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

    /// Spawns the background 1 Hz sampler thread: every second it
    /// snapshots the registry into history and evaluates the alert
    /// rules (transitions accumulate on the engine for the embedder's
    /// drain loop). Returns `None` when history is off. The thread
    /// stops when the returned guard drops.
    pub fn start_history_sampler(&self) -> Option<HistorySampler> {
        self.inner.history.get()?;
        let tel = self.clone();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("mbd-history-sampler".into())
            .spawn(move || {
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    tel.sample_and_evaluate();
                    std::thread::sleep(std::time::Duration::from_secs(1));
                }
            })
            .ok()?;
        Some(HistorySampler { stop, join: Some(join) })
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

/// Guard for the background history sampler thread
/// ([`Telemetry::start_history_sampler`]); dropping it stops the
/// thread (joining it, so the drop can take up to one sleep period).
#[derive(Debug)]
pub struct HistorySampler {
    stop: Arc<std::sync::atomic::AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HistorySampler {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Starts an RAII span on a [`Telemetry`] handle:
/// `let _guard = span!(tel, "rds.verb.invoke");`
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr) => {
        $crate::Telemetry::span(&$telemetry, $name)
    };
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
    fn span_macro_times_a_block() {
        let tel = Telemetry::new();
        {
            let _guard = span!(tel, "macro.block");
        }
        assert_eq!(tel.snapshot().histogram("macro.block").unwrap().count(), 1);
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
        assert_eq!(tel.alerts().unwrap().drain_transitions().len(), 1);
    }

    #[test]
    fn finish_without_capture_is_none() {
        let tel = Telemetry::new();
        tel.enable_tracing(16);
        tel.enable_trace_store(TraceStoreConfig::default());
        assert_eq!(tel.finish_trace(1, 1, false), None);
    }
}
