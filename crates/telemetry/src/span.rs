//! RAII timing spans.
//!
//! A [`Timer`] is a pre-resolved handle to one latency histogram (plus
//! the owning telemetry's trace ring, if enabled): hot paths build
//! their timers once, then [`Timer::start`] each operation — enter/exit
//! costs two clock reads and one lock-free record, and allocates
//! nothing (pinned by the root package's `tests/cost_ledger.rs`).
//!
//! Dropping a [`Span`] records it; [`Span::finish`] records explicitly
//! and returns the duration for callers that also want the number.
//!
//! When tracing is on, a live span is also the thread's *innermost*
//! span: spans that finish inside it record it as their parent, so the
//! flat ring reconstructs into per-request trees. Timer names are
//! interned once at construction, so recording allocates nothing.

use crate::hist::Histogram;
use crate::{trace, TelemetryInner};
use std::sync::Arc;
use std::time::Instant;

/// A pre-resolved handle for timing one named operation.
#[derive(Debug, Clone)]
pub struct Timer {
    pub(crate) name: Arc<str>,
    pub(crate) name_id: u32,
    pub(crate) hist: Arc<Histogram>,
    pub(crate) inner: Arc<TelemetryInner>,
}

impl Timer {
    /// Starts a span; it records into this timer's histogram when
    /// dropped or finished.
    pub fn start(&self) -> Span<'_> {
        Span { timer: self, start: Instant::now(), finished: false, ctx: self.enter_ctx() }
    }

    /// The metric name this timer records under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// When tracing is on, allocates a span id and makes it the
    /// thread's innermost span, returning `(span_id, parent)`.
    fn enter_ctx(&self) -> Option<(u64, u64)> {
        if self.inner.ring.get().is_some() {
            let id = trace::next_span_id();
            let parent = trace::push_span(id);
            Some((id, parent))
        } else {
            None
        }
    }

    /// Records an already-measured duration (for callers that time
    /// around something a guard cannot scope, e.g. queue wait).
    pub fn record_ns(&self, duration_ns: u64) {
        self.hist.record(duration_ns);
    }

    /// [`record_ns`](Timer::record_ns) for a [`Duration`](std::time::Duration)
    /// (saturating at `u64::MAX` ns).
    pub fn record_duration(&self, duration: std::time::Duration) {
        self.hist.record(saturating_ns(duration));
    }

    /// Records a span whose interval was measured externally — e.g. on
    /// the reactor thread, before the request's trace id was known —
    /// as a child of *this* thread's innermost span. The request
    /// front-end uses this to stitch cross-thread work (socket reads,
    /// queue wait) into the request's tree with exact timestamps
    /// instead of racing guards across threads. Returns the recorded
    /// span's id (0 when tracing is off).
    pub fn record_interval(&self, start: Instant, end: Instant) -> u64 {
        let duration_ns = saturating_ns(end.saturating_duration_since(start));
        self.hist.record(duration_ns);
        if let Some(ring) = self.inner.ring.get() {
            let span_id = trace::next_span_id();
            let start_ns = saturating_ns(start.saturating_duration_since(self.inner.epoch));
            ring.push_id(self.name_id, span_id, trace::current_span_id(), start_ns, duration_ns);
            span_id
        } else {
            0
        }
    }

    fn record_span(&self, start: Instant, ctx: Option<(u64, u64)>) -> u64 {
        let duration_ns = saturating_ns(start.elapsed());
        self.hist.record(duration_ns);
        // One atomic load when tracing is off; the ring only exists
        // after `enable_tracing`.
        if let Some(ring) = self.inner.ring.get() {
            let (span_id, parent) =
                ctx.unwrap_or_else(|| (trace::next_span_id(), trace::current_span_id()));
            let start_ns = saturating_ns(start.saturating_duration_since(self.inner.epoch));
            ring.push_id(self.name_id, span_id, parent, start_ns, duration_ns);
        }
        if let Some((span_id, parent)) = ctx {
            // Restore only if we are still the innermost span on this
            // thread — a span dropped on another thread must not
            // clobber that thread's context.
            if trace::current_span_id() == span_id {
                trace::pop_span(parent);
            }
        }
        duration_ns
    }
}

pub(crate) fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An in-flight timed operation; records on drop.
#[derive(Debug)]
#[must_use = "a span records when dropped — binding it to `_` ends it immediately"]
pub struct Span<'a> {
    timer: &'a Timer,
    start: Instant,
    finished: bool,
    ctx: Option<(u64, u64)>,
}

impl Span<'_> {
    /// Ends the span now, returning the recorded duration in
    /// nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.finished = true;
        self.timer.record_span(self.start, self.ctx)
    }

    /// This span's id (0 when tracing is off).
    pub fn span_id(&self) -> u64 {
        self.ctx.map(|(id, _)| id).unwrap_or(0)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.timer.record_span(self.start, self.ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn span_records_into_its_histogram() {
        let tel = Telemetry::new();
        let timer = tel.timer("op.test");
        {
            let _span = timer.start();
            std::hint::black_box(());
        }
        timer.start().finish();
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("op.test").unwrap().count(), 2);
    }

    #[test]
    fn finish_returns_a_plausible_duration() {
        let tel = Telemetry::new();
        let timer = tel.timer("op.sleepy");
        let span = timer.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = span.finish();
        assert!(ns >= 1_000_000, "slept 2 ms but measured {ns} ns");
        assert!(tel.snapshot().histogram("op.sleepy").unwrap().max_ns >= 1_000_000);
    }

    #[test]
    fn record_ns_feeds_the_same_histogram() {
        let tel = Telemetry::new();
        let timer = tel.timer("op.manual");
        timer.record_ns(500);
        timer.record_ns(1500);
        let snap = tel.snapshot();
        let h = snap.histogram("op.manual").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ns, 2000);
    }

    #[test]
    fn tracing_captures_span_events_in_order() {
        let tel = Telemetry::new();
        assert!(tel.enable_tracing(16));
        assert!(!tel.enable_tracing(32), "second enable is a no-op");
        tel.timer("a").start().finish();
        tel.timer("b").start().finish();
        let events = tel.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert!(events[1].start_ns >= events[0].start_ns);
        assert_eq!(tel.trace_dropped(), 0);
    }

    #[test]
    fn spans_without_tracing_only_touch_histograms() {
        let tel = Telemetry::new();
        tel.timer("quiet").start().finish();
        assert!(tel.trace_events().is_empty());
        assert_eq!(tel.snapshot().histogram("quiet").unwrap().count(), 1);
    }

    #[test]
    fn nested_spans_record_parent_edges() {
        let tel = Telemetry::new();
        tel.enable_tracing(16);
        let outer_timer = tel.timer("outer");
        let inner_timer = tel.timer("inner");
        let outer = outer_timer.start();
        let outer_id = outer.span_id();
        assert_ne!(outer_id, 0);
        inner_timer.start().finish();
        outer.finish();
        let events = tel.trace_events();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent_span_id, outer.span_id);
        assert_eq!(outer.span_id, outer_id);
        assert_eq!(outer.parent_span_id, 0, "outermost span is a root");
    }

    #[test]
    fn record_interval_is_a_child_with_explicit_timestamps() {
        let tel = Telemetry::new();
        tel.enable_tracing(16);
        let root = tel.timer("root");
        let io = tel.timer("io.read");
        let t0 = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t1 = std::time::Instant::now();
        let guard = root.start();
        let child_id = io.record_interval(t0, t1);
        assert_ne!(child_id, 0);
        guard.finish();
        let events = tel.trace_events();
        let io_ev = events.iter().find(|e| e.name == "io.read").unwrap();
        let root_ev = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(io_ev.span_id, child_id);
        assert_eq!(io_ev.parent_span_id, root_ev.span_id);
        assert!(io_ev.duration_ns >= 1_000_000, "explicit interval preserved");
        assert!(
            io_ev.start_ns <= root_ev.start_ns,
            "retroactive child may start before its parent"
        );
    }
}
