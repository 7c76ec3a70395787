//! The bounded structured-trace ring and the thread-local trace context.
//!
//! When tracing is enabled, every finished span also emits a
//! [`TraceEvent`] into a [`TraceRing`] — a drop-oldest bounded queue
//! with a loss counter, the same backpressure discipline as the elastic
//! process's notification outbox: a trace consumer that stops draining
//! costs bounded memory and an honest drop count, never the server.
//!
//! Every event is stamped with the **current trace id** — a thread-local
//! correlation id set by the request front-end ([`enter_trace`]) for the
//! duration of one dispatched request, so a span sample can be tied back
//! to the RDS request that caused it. Zero means "no trace".
//!
//! Events additionally carry a **span id** and a **parent span id**, so
//! the flat ring reconstructs into per-request span *trees*: RAII spans
//! push themselves onto a thread-local span stack while running, and any
//! span that finishes inside another records that enclosing span as its
//! parent. Span ids are process-unique and never zero (zero means "no
//! parent" — a root span).
//!
//! Span names are interned: hot paths record a pre-resolved `u32` name
//! handle (see [`NameTable`]), so pushing an event allocates nothing.

use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static CAPTURE: RefCell<Option<Vec<RawEvent>>> = const { RefCell::new(None) };
    /// A recycled capture buffer: [`take_capture`]'s vector comes back
    /// via [`recycle_capture`], so steady-state request capture never
    /// allocates.
    static SPARE: Cell<Option<Vec<RawEvent>>> = const { Cell::new(None) };
}

/// Process-wide span-id allocator. Span ids are never reused and never
/// zero, so a parent edge of 0 unambiguously means "root".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The trace id of the request this thread is currently serving
/// (0 = none). Set with [`enter_trace`]; read by span recording and by
/// anything that wants to correlate its output with the in-flight
/// request (notifications, log lines, journal records).
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// The span id of the innermost live span on this thread (0 = none).
/// A span that finishes records this as its parent edge.
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

/// Allocates a fresh process-unique span id (never zero).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Makes `span_id` the innermost span for this thread, returning the
/// previous innermost id so the caller can restore it when the span
/// ends (RAII spans do this automatically).
pub fn push_span(span_id: u64) -> u64 {
    CURRENT_SPAN.with(|c| c.replace(span_id))
}

/// Restores a previously pushed innermost span id.
pub fn pop_span(prev: u64) {
    CURRENT_SPAN.with(|c| c.set(prev));
}

/// Sets the thread's current trace id for the lifetime of the returned
/// guard (restoring the previous id on drop, so nested dispatch —
/// e.g. an agent invoking back into the runtime — keeps the outermost
/// request's id after the inner scope ends).
#[must_use = "the trace id is reset when the guard drops — binding to `_` clears it immediately"]
pub fn enter_trace(trace_id: u64) -> TraceScope {
    enter_trace_with_parent(trace_id, 0)
}

/// [`enter_trace`] with an explicit parent span id — the server side of
/// trace propagation: the wire's `TraceContext` carries the *caller's*
/// span id, and entering it here makes every server-side root span a
/// child of the caller's span in the reconstructed tree.
#[must_use = "the trace id is reset when the guard drops — binding to `_` clears it immediately"]
pub fn enter_trace_with_parent(trace_id: u64, parent_span_id: u64) -> TraceScope {
    TraceScope {
        prev: CURRENT_TRACE.with(|c| c.replace(trace_id)),
        prev_span: CURRENT_SPAN.with(|c| c.replace(parent_span_id)),
    }
}

/// RAII guard restoring the previous thread-local trace id (see
/// [`enter_trace`]).
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
    prev_span: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
        CURRENT_SPAN.with(|c| c.set(self.prev_span));
    }
}

/// Arms per-thread span capture: until [`take_capture`], every *traced*
/// event this thread records is staged in a thread-local buffer instead
/// of being pushed into the ring one lock at a time — the request
/// front-end brackets each dispatched request with this pair, flushes
/// the batch into the ring and hands the captured tree to the
/// tail-sampling [`TraceStore`](crate::TraceStore)
/// (see [`Telemetry::finish_trace`](crate::Telemetry::finish_trace)).
///
/// Any capture already in progress is discarded (a panic between the
/// bracketing calls must not leak one request's spans into the next).
/// The buffer is recycled across requests, so arming allocates nothing
/// in steady state.
pub fn begin_capture() {
    let buf = SPARE.with(Cell::take).unwrap_or_else(|| Vec::with_capacity(16));
    CAPTURE.with(|c| *c.borrow_mut() = Some(buf));
}

/// Disarms capture and returns the events staged since
/// [`begin_capture`] (empty if capture was never armed).
pub(crate) fn take_capture() -> Vec<RawEvent> {
    CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default()
}

/// Returns a taken capture buffer for reuse by the next
/// [`begin_capture`] on this thread.
pub(crate) fn recycle_capture(mut buf: Vec<RawEvent>) {
    buf.clear();
    SPARE.with(|s| s.set(Some(buf)));
}

/// A copy of the events staged so far by an in-progress capture (empty
/// when capture is not armed). The flight recorder uses this so a
/// freeze fired *mid-request* — a quota breach, say — still sees the
/// tripping request's spans, which are staged rather than in the ring.
pub(crate) fn capture_snapshot() -> Vec<RawEvent> {
    CAPTURE.with(|c| c.borrow().clone()).unwrap_or_default()
}

/// The un-resolved event representation recorded on the hot path: all
/// scalar fields, the name behind an interned handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawEvent {
    pub seq: u64,
    pub name_id: u32,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub start_ns: u64,
    pub duration_ns: u64,
    pub trace_id: u64,
}

/// One finished span, resolved for consumers (the ring stores interned
/// [`RawEvent`]s; names are materialised on drain/snapshot, off the hot
/// path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone per-ring sequence number (gaps mean drops).
    pub seq: u64,
    /// The span's metric name (e.g. `rds.verb.invoke`).
    pub name: String,
    /// Process-unique id of this span (never 0).
    pub span_id: u64,
    /// The span this one ran inside (0 = root).
    pub parent_span_id: u64,
    /// Span start, in nanoseconds since the owning
    /// [`Telemetry`](crate::Telemetry) was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// The thread's [`current_trace_id`] when the span finished
    /// (0 = recorded outside any traced request).
    pub trace_id: u64,
}

/// An append-only intern table mapping span names to stable `u32`
/// handles. Interning takes a write lock once per *name*; recording a
/// span then carries only the handle, so the hot path never allocates
/// or hashes a string.
#[derive(Debug, Default)]
pub struct NameTable {
    inner: RwLock<NameTableInner>,
}

#[derive(Debug, Default)]
struct NameTableInner {
    by_name: BTreeMap<String, u32>,
    names: Vec<Arc<str>>,
}

impl NameTable {
    /// The handle for `name`, allocating one on first sight.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.inner.read().by_name.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let id = inner.names.len() as u32;
        inner.names.push(Arc::from(name));
        inner.by_name.insert(name.to_string(), id);
        id
    }

    /// The name behind `id` (`"?"` for a handle this table never
    /// issued — only possible by mixing tables).
    pub fn resolve(&self, id: u32) -> Arc<str> {
        self.inner.read().names.get(id as usize).cloned().unwrap_or_else(|| Arc::from("?"))
    }

    /// Names interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Whether nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A drop-oldest bounded ring of trace events.
pub struct TraceRing {
    inner: Mutex<VecDeque<RawEvent>>,
    names: Arc<NameTable>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events (min 1), with
    /// its own private name table.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing::with_names(capacity, Arc::new(NameTable::default()))
    }

    /// An empty ring sharing an existing name table (the owning
    /// [`Telemetry`](crate::Telemetry) passes its table so timers
    /// pre-resolved *before* tracing was enabled still resolve).
    pub fn with_names(capacity: usize, names: Arc<NameTable>) -> TraceRing {
        TraceRing {
            inner: Mutex::new(VecDeque::new()),
            names,
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring's name table (intern here to pre-resolve handles for
    /// [`TraceRing::push_id`]).
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Appends an event by name, allocating a fresh span id parented to
    /// the thread's innermost span. Interns on every call — tests and
    /// cold paths only; hot paths pre-resolve and use
    /// [`TraceRing::push_id`].
    pub fn push(&self, name: &str, start_ns: u64, duration_ns: u64) {
        let id = self.names.intern(name);
        self.push_id(id, next_span_id(), current_span_id(), start_ns, duration_ns);
    }

    /// Appends an event stamped with the thread's
    /// [`current_trace_id`], evicting (and counting) the oldest at
    /// capacity. Allocation-free: the name rides its interned handle.
    ///
    /// While this thread has a capture armed ([`begin_capture`]), a
    /// traced event is *staged* in the thread-local buffer instead of
    /// taking the shared ring lock — the front-end flushes the whole
    /// request's batch in one [`TraceRing::append_raw`], so the
    /// per-span hot path touches no shared state beyond two relaxed
    /// atomics.
    pub fn push_id(
        &self,
        name_id: u32,
        span_id: u64,
        parent_span_id: u64,
        start_ns: u64,
        duration_ns: u64,
    ) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = RawEvent {
            seq,
            name_id,
            span_id,
            parent_span_id,
            start_ns,
            duration_ns,
            trace_id: current_trace_id(),
        };
        if event.trace_id != 0 {
            let staged = CAPTURE.with(|c| {
                if let Some(stage) = c.borrow_mut().as_mut() {
                    stage.push(event);
                    true
                } else {
                    false
                }
            });
            if staged {
                return;
            }
        }
        let mut q = self.inner.lock();
        if q.len() >= self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    }

    /// Appends a batch of already-sequenced events (a request's staged
    /// capture) under a single lock, evicting and counting the oldest
    /// as needed.
    pub(crate) fn append_raw(&self, events: &[RawEvent]) {
        if events.is_empty() {
            return;
        }
        let mut evicted = 0u64;
        let mut q = self.inner.lock();
        for &event in events {
            if q.len() >= self.capacity {
                q.pop_front();
                evicted += 1;
            }
            q.push_back(event);
        }
        drop(q);
        if evicted > 0 {
            self.dropped.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn resolve(&self, raw: &RawEvent) -> TraceEvent {
        TraceEvent {
            seq: raw.seq,
            name: self.names.resolve(raw.name_id).to_string(),
            span_id: raw.span_id,
            parent_span_id: raw.parent_span_id,
            start_ns: raw.start_ns,
            duration_ns: raw.duration_ns,
            trace_id: raw.trace_id,
        }
    }

    pub(crate) fn resolve_all(&self, raw: &[RawEvent]) -> Vec<TraceEvent> {
        raw.iter().map(|e| self.resolve(e)).collect()
    }

    /// Removes and returns everything queued, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let raw: Vec<RawEvent> = self.inner.lock().drain(..).collect();
        self.resolve_all(&raw)
    }

    /// A copy of the queued events without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let raw: Vec<RawEvent> = self.inner.lock().iter().copied().collect();
        self.resolve_all(&raw)
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_and_ordered() {
        let r = TraceRing::new(8);
        r.push("a", 0, 10);
        r.push("b", 5, 20);
        let events = r.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].name, "b");
        assert!(r.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let r = TraceRing::new(3);
        for i in 0..10 {
            r.push("x", i, 1);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 7, "oldest surviving event");
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = TraceRing::new(0);
        r.push("a", 0, 1);
        r.push("b", 1, 1);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.snapshot()[0].name, "b");
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn events_capture_the_current_trace_id() {
        let r = TraceRing::new(8);
        r.push("outside", 0, 1);
        {
            let _scope = enter_trace(0xABCD);
            r.push("inside", 1, 1);
        }
        r.push("after", 2, 1);
        let events = r.drain();
        assert_eq!(events[0].trace_id, 0);
        assert_eq!(events[1].trace_id, 0xABCD);
        assert_eq!(events[2].trace_id, 0, "scope must reset on drop");
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        assert_eq!(current_trace_id(), 0);
        let outer = enter_trace(7);
        assert_eq!(current_trace_id(), 7);
        {
            let _inner = enter_trace(9);
            assert_eq!(current_trace_id(), 9);
        }
        assert_eq!(current_trace_id(), 7, "inner scope restores the outer id");
        drop(outer);
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn entering_with_a_wire_parent_seeds_the_span_stack() {
        assert_eq!(current_span_id(), 0);
        {
            let _scope = enter_trace_with_parent(0xBEEF, 42);
            assert_eq!(current_span_id(), 42, "wire parent becomes the innermost span");
            let r = TraceRing::new(4);
            r.push("child", 0, 1);
            let events = r.drain();
            assert_eq!(events[0].parent_span_id, 42);
            assert_ne!(events[0].span_id, 0);
        }
        assert_eq!(current_span_id(), 0, "scope restores the span context");
    }

    #[test]
    fn interned_pushes_resolve_to_their_names() {
        let r = TraceRing::new(8);
        let hot = r.names().intern("hot.path");
        assert_eq!(r.names().intern("hot.path"), hot, "interning is idempotent");
        r.push_id(hot, 7, 0, 10, 5);
        let events = r.drain();
        assert_eq!(events[0].name, "hot.path");
        assert_eq!(events[0].span_id, 7);
        assert_eq!(events[0].parent_span_id, 0);
    }

    #[test]
    fn capture_stages_traced_events_only() {
        let r = TraceRing::new(8);
        begin_capture();
        r.push("untraced", 0, 1); // trace 0: never staged
        {
            let _scope = enter_trace(0x77);
            r.push("traced", 1, 2);
        }
        let staged = take_capture();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].trace_id, 0x77);
        assert!(take_capture().is_empty(), "capture is disarmed after take");
    }

    #[test]
    fn staged_events_bypass_the_ring_until_flushed() {
        let r = TraceRing::new(8);
        begin_capture();
        {
            let _scope = enter_trace(0x99);
            r.push("traced", 0, 1);
        }
        // While staged, the event took no ring lock; untraced events
        // still go straight to the ring.
        r.push("untraced", 1, 1);
        assert_eq!(r.len(), 1, "only the untraced event reached the ring");
        let staged = take_capture();
        assert_eq!(staged.len(), 1);
        r.append_raw(&staged);
        let names: Vec<_> = r.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["untraced".to_string(), "traced".to_string()]);
    }

    #[test]
    fn append_raw_evicts_and_counts_like_push() {
        let r = TraceRing::new(2);
        begin_capture();
        {
            let _scope = enter_trace(0x5);
            for i in 0..5 {
                r.push("e", i, 1);
            }
        }
        let staged = take_capture();
        assert_eq!(staged.len(), 5);
        r.append_raw(&staged);
        assert_eq!(r.len(), 2, "batch append respects capacity");
        assert_eq!(r.dropped(), 3, "evictions during a batch are counted");
    }

    #[test]
    fn capture_buffers_are_recycled() {
        begin_capture();
        {
            let _scope = enter_trace(0x1);
            let r = TraceRing::new(4);
            r.push("a", 0, 1);
        }
        let taken = take_capture();
        let ptr = taken.as_ptr() as usize;
        let cap = taken.capacity();
        recycle_capture(taken);
        begin_capture();
        let reused = take_capture();
        assert!(reused.is_empty(), "recycled buffer comes back cleared");
        if cap > 0 {
            assert_eq!(reused.as_ptr() as usize, ptr, "same allocation is reused");
        }
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_pushers_account_for_every_event() {
        // 8 threads hammer one small ring; afterwards every pushed event
        // is either still queued or counted as dropped — none vanish
        // silently, and no seq was issued twice.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1_000;
        let r = Arc::new(TraceRing::new(64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let id = r.names().intern("load");
                    for i in 0..PER_THREAD {
                        r.push_id(id, next_span_id(), 0, t * PER_THREAD + i, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        assert_eq!(r.len(), 64, "ring is full after saturation");
        assert_eq!(r.len() as u64 + r.dropped(), total, "queued + dropped == pushed");
        let mut seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 64, "every surviving event has a distinct seq");
        assert!(*seqs.last().unwrap() < total);
    }

    #[test]
    fn seq_gaps_reveal_exactly_the_dropped_events() {
        let r = TraceRing::new(4);
        for i in 0..10 {
            r.push("e", i, 1);
        }
        let seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        // The survivors are the newest events, contiguous...
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // ...so a consumer infers the loss from the gap before the first
        // survivor, which matches the ring's own accounting.
        assert_eq!(seqs[0], r.dropped());
    }
}
