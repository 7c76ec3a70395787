//! Tail-sampled retention of completed span trees, plus the flight
//! recorder's frozen snapshots.
//!
//! The trace ring is a flat, lossy stream — fine for "what just
//! happened", useless for "show me the waterfall of *that* request"
//! once enough traffic has churned it. A [`TraceStore`]
//! closes that gap with **tail sampling**: the request front-end
//! captures each request's spans while it runs and presents the
//! finished tree here, *after* the outcome is known, so the store can
//! keep what matters:
//!
//! - every **anomalous** tree — slow (latency over
//!   [`TraceStoreConfig::slow_ns`]), errored, or force-frozen by the
//!   flight recorder — up to a bounded drop-oldest window;
//! - a cheap **reservoir** of normal trees (drop-oldest, thinned to one
//!   in [`TraceStoreConfig::keep_one_in`]) so a healthy server still
//!   answers "what does a typical request look like".
//!
//! The reservoir is what keeps always-on tracing affordable: the store
//! decides keep/drop **before** the spans are materialised
//! ([`TraceStore::offer_with`] takes them lazily), so the common case —
//! a healthy request the thinning counter skips — pays no name
//! resolution, no allocation and no lock on the retention path.
//!
//! The flight recorder rides the same store: [`TraceStore::freeze`]
//! files an externally-built snapshot (the ring contents at anomaly
//! time) as an anomalous tree under the tripping trace id.

use crate::{Ring, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};

/// Retention policy for a [`TraceStore`].
#[derive(Debug, Clone, Copy)]
pub struct TraceStoreConfig {
    /// Root latency at or above which a tree is retained as slow
    /// (`u64::MAX` disables the slow path).
    pub slow_ns: u64,
    /// Normal trees kept (drop-oldest).
    pub reservoir: usize,
    /// Anomalous trees kept (drop-oldest).
    pub anomaly_capacity: usize,
    /// Thin the normal reservoir: only every `keep_one_in`-th offer is
    /// eligible for it (1 = every one). Thinned-out offers are dropped
    /// before their spans are even materialised — this is the knob that
    /// bounds the healthy-path cost of tracing.
    pub keep_one_in: u64,
}

impl Default for TraceStoreConfig {
    fn default() -> TraceStoreConfig {
        TraceStoreConfig {
            slow_ns: 50_000_000, // 50 ms
            reservoir: 16,
            anomaly_capacity: 32,
            keep_one_in: 16,
        }
    }
}

/// Why a tree was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Root latency crossed [`TraceStoreConfig::slow_ns`].
    Slow,
    /// The request ended in a protocol error.
    Error,
    /// The flight recorder froze it on an anomaly signal.
    Frozen,
    /// Sampled from the healthy stream.
    Reservoir,
}

impl Keep {
    /// Stable lower-case label (journal/CLI rendering).
    pub fn label(self) -> &'static str {
        match self {
            Keep::Slow => "slow",
            Keep::Error => "error",
            Keep::Frozen => "frozen",
            Keep::Reservoir => "reservoir",
        }
    }
}

/// One retained span tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id every span in the tree carries.
    pub trace_id: u64,
    /// Root latency as reported by the front-end (0 for frozen
    /// snapshots, whose spans may belong to many requests).
    pub duration_ns: u64,
    /// Why the tree survived sampling.
    pub kept: Keep,
    /// Free-form detail (the flight recorder's trigger reason).
    pub reason: String,
    /// The spans, in ring (completion) order.
    pub spans: Vec<TraceEvent>,
}

/// Bounded tail-sampled storage of completed span trees.
#[derive(Debug)]
pub struct TraceStore {
    config: TraceStoreConfig,
    normal: Ring<TraceTree>,
    anomalous: Ring<TraceTree>,
    seen: AtomicU64,
    retained_anomalous: AtomicU64,
    discarded: AtomicU64,
}

impl TraceStore {
    /// An empty store with the given retention policy.
    pub fn new(config: TraceStoreConfig) -> TraceStore {
        TraceStore {
            config: TraceStoreConfig {
                reservoir: config.reservoir.max(1),
                anomaly_capacity: config.anomaly_capacity.max(1),
                keep_one_in: config.keep_one_in.max(1),
                ..config
            },
            normal: Ring::new(config.reservoir),
            anomalous: Ring::new(config.anomaly_capacity),
            seen: AtomicU64::new(0),
            retained_anomalous: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// The active retention policy.
    pub fn config(&self) -> TraceStoreConfig {
        self.config
    }

    /// Presents one finished request's tree for the keep/drop decision.
    /// Returns how it was classified ([`Keep::Reservoir`] is also
    /// returned for trees the thinning counter discarded).
    ///
    /// Eager convenience wrapper over [`TraceStore::offer_with`]; hot
    /// paths that can defer building the spans should call that instead.
    pub fn offer(
        &self,
        trace_id: u64,
        duration_ns: u64,
        errored: bool,
        spans: Vec<TraceEvent>,
    ) -> Keep {
        self.offer_with(trace_id, duration_ns, errored, move || spans)
    }

    /// [`TraceStore::offer`] with **lazily materialised** spans: the
    /// keep/drop decision is made from the scalars alone, and `spans` is
    /// only invoked for trees that will actually be retained. A healthy
    /// request the thinning counter skips — the overwhelmingly common
    /// case at the default 1-in-16 — therefore never resolves a name,
    /// allocates a tree or touches a retention lock.
    pub fn offer_with(
        &self,
        trace_id: u64,
        duration_ns: u64,
        errored: bool,
        spans: impl FnOnce() -> Vec<TraceEvent>,
    ) -> Keep {
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if trace_id == 0 {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return Keep::Reservoir;
        }
        let kept = if errored {
            Keep::Error
        } else if duration_ns >= self.config.slow_ns {
            Keep::Slow
        } else {
            Keep::Reservoir
        };
        if kept == Keep::Reservoir && !n.is_multiple_of(self.config.keep_one_in) {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return kept;
        }
        let spans = spans();
        if spans.is_empty() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return Keep::Reservoir;
        }
        let tree = TraceTree { trace_id, duration_ns, kept, reason: String::new(), spans };
        match kept {
            Keep::Reservoir => self.normal.push(tree),
            _ => {
                self.retained_anomalous.fetch_add(1, Ordering::Relaxed);
                self.anomalous.push(tree)
            }
        };
        kept
    }

    /// Files an externally-built snapshot (the flight recorder's frozen
    /// ring contents) as an anomalous tree under `trace_id`.
    pub fn freeze(&self, trace_id: u64, reason: &str, spans: Vec<TraceEvent>) {
        self.retained_anomalous.fetch_add(1, Ordering::Relaxed);
        let tree = TraceTree {
            trace_id,
            duration_ns: 0,
            kept: Keep::Frozen,
            reason: reason.to_string(),
            spans,
        };
        self.anomalous.push(tree);
    }

    /// The retained tree for `trace_id` — anomalous trees win over
    /// reservoir ones, and within a class the newest wins.
    pub fn tree(&self, trace_id: u64) -> Option<TraceTree> {
        let find = |ring: &Ring<TraceTree>| {
            ring.read(|_, trees| trees.iter().rev().find(|t| t.trace_id == trace_id).cloned())
        };
        find(&self.anomalous).or_else(|| find(&self.normal))
    }

    /// The most recently retained tree, anomalous or not.
    pub fn latest(&self) -> Option<TraceTree> {
        let newest = |ring: &Ring<TraceTree>| ring.read(|_, trees| trees.back().cloned());
        newest(&self.anomalous).or_else(|| newest(&self.normal))
    }

    /// Every retained tree, anomalous first, newest first within each
    /// class.
    pub fn trees(&self) -> Vec<TraceTree> {
        let anomalous = self.anomalous.snapshot().into_iter().rev();
        anomalous.chain(self.normal.snapshot().into_iter().rev()).collect()
    }

    /// Trees offered so far (kept or not).
    pub fn offered(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Trees retained on an anomaly path (slow, errored, frozen).
    pub fn anomalies(&self) -> u64 {
        self.retained_anomalous.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, trace: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            name: name.to_string(),
            span_id: 1,
            parent_span_id: 0,
            start_ns: 0,
            duration_ns: 10,
            trace_id: trace,
        }
    }

    #[test]
    fn slow_and_errored_trees_are_always_kept() {
        let s = TraceStore::new(TraceStoreConfig {
            slow_ns: 1_000,
            keep_one_in: 1,
            ..Default::default()
        });
        assert_eq!(s.offer(1, 5_000, false, vec![span("slow", 1)]), Keep::Slow);
        assert_eq!(s.offer(2, 10, true, vec![span("bad", 2)]), Keep::Error);
        assert_eq!(s.offer(3, 10, false, vec![span("fine", 3)]), Keep::Reservoir);
        assert_eq!(s.tree(1).unwrap().kept, Keep::Slow);
        assert_eq!(s.tree(2).unwrap().kept, Keep::Error);
        assert_eq!(s.tree(3).unwrap().kept, Keep::Reservoir);
        assert_eq!(s.anomalies(), 2);
    }

    #[test]
    fn reservoir_is_bounded_and_drops_oldest() {
        let cfg = TraceStoreConfig {
            reservoir: 2,
            slow_ns: u64::MAX,
            keep_one_in: 1,
            ..Default::default()
        };
        let s = TraceStore::new(cfg);
        for id in 1..=5u64 {
            s.offer(id, 1, false, vec![span("n", id)]);
        }
        assert!(s.tree(1).is_none(), "oldest normal tree evicted");
        assert!(s.tree(4).is_some());
        assert!(s.tree(5).is_some());
        assert_eq!(s.latest().unwrap().trace_id, 5);
    }

    #[test]
    fn thinning_keeps_one_in_n() {
        let cfg = TraceStoreConfig {
            reservoir: 64,
            slow_ns: u64::MAX,
            keep_one_in: 4,
            ..Default::default()
        };
        let s = TraceStore::new(cfg);
        let mut kept = 0;
        for id in 1..=16u64 {
            s.offer(id, 1, false, vec![span("n", id)]);
            if s.tree(id).is_some() {
                kept += 1;
            }
        }
        assert_eq!(kept, 4, "one in four normal trees retained");
    }

    #[test]
    fn freeze_files_an_anomalous_snapshot() {
        let s = TraceStore::new(TraceStoreConfig::default());
        s.freeze(0xF00D, "handler panic", vec![span("x", 0xF00D), span("y", 0)]);
        let t = s.tree(0xF00D).unwrap();
        assert_eq!(t.kept, Keep::Frozen);
        assert_eq!(t.reason, "handler panic");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(s.anomalies(), 1);
    }

    #[test]
    fn empty_or_untraced_offers_are_discarded() {
        let s = TraceStore::new(TraceStoreConfig::default());
        s.offer(0, 99, true, vec![span("x", 0)]);
        s.offer(7, 99, true, Vec::new());
        assert!(s.trees().is_empty());
    }

    #[test]
    fn thinned_offers_never_materialise_their_spans() {
        use std::cell::Cell;
        let cfg = TraceStoreConfig { slow_ns: u64::MAX, keep_one_in: 4, ..Default::default() };
        let s = TraceStore::new(cfg);
        let built = Cell::new(0u32);
        for id in 1..=8u64 {
            s.offer_with(id, 1, false, || {
                built.set(built.get() + 1);
                vec![span("n", id)]
            });
        }
        // Offers 0 and 4 of the thinning counter survive; the other six
        // were dropped before the closure ran.
        assert_eq!(built.get(), 2, "only retained trees pay materialisation");
        assert_eq!(s.trees().len(), 2);
    }

    #[test]
    fn anomalous_offers_materialise_despite_thinning() {
        let cfg = TraceStoreConfig { slow_ns: 1_000, keep_one_in: 1_000, ..Default::default() };
        let s = TraceStore::new(cfg);
        s.offer(1, 1, false, vec![span("n", 1)]); // counter position 0: kept
        assert_eq!(s.offer(2, 5_000, false, vec![span("slow", 2)]), Keep::Slow);
        assert_eq!(s.offer(3, 1, true, vec![span("bad", 3)]), Keep::Error);
        assert!(s.tree(2).is_some(), "slow trees bypass the thinning counter");
        assert!(s.tree(3).is_some(), "errored trees bypass the thinning counter");
    }
}
