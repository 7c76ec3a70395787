//! Exactly-once request semantics: a bounded per-principal
//! duplicate-suppression cache with single-flight execution.
//!
//! A lost *response* is indistinguishable from a lost *request*, so a
//! retrying manager may re-send a frame whose effect already executed.
//! Naively re-running `Instantiate` would create a second dpi; re-running
//! `Terminate` would answer `BadState`. The cache keys each processed
//! request on `(principal, request_id)` and remembers the **encoded
//! response**, so a retried frame is answered by replaying the original
//! bytes — the effect runs at most once, and the manager cannot tell a
//! replay from a first answer (they are byte-identical, trace echo
//! included, because retries re-send the identical frame).
//!
//! Pipelined connections add a twist the serial path never had: two
//! byte-identical copies of one frame (a duplicated delivery, or a
//! retry racing its original) can reach two executor workers *at the
//! same time*. A lookup-then-store cache would miss on both and execute
//! twice, so admission is **single-flight**: [`DedupCache::begin`]
//! atomically claims the key for the first arrival and makes identical
//! concurrent arrivals wait for that execution, then replays its
//! response. [`DedupCache::complete`] publishes the response;
//! [`DedupCache::abandon`] releases a claim whose execution unwound so
//! a later retry can run the request for real.
//!
//! A fingerprint of the full request frame guards the id-reuse hazard: a
//! restarted manager that reuses id 1 for a *different* request hashes
//! differently, misses, and executes normally. Eviction is drop-oldest
//! per principal (insertion order), and the principal table itself is
//! bounded the same way, so memory stays bounded no matter how many
//! managers or ids appear.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Condvar;
use std::time::{Duration, Instant};

/// Entries retained per principal by default.
pub const DEFAULT_DEDUP_CAPACITY: usize = 128;

/// Distinct principals tracked at once (drop-oldest beyond this).
const MAX_PRINCIPALS: usize = 64;

/// How long a duplicate waits on the first execution before reclaiming
/// the key for itself. Only a claim leaked by a killed thread can take
/// this long (panics release via [`DedupCache::abandon`]); reclaiming
/// degrades that pathological case to at-least-once instead of wedging
/// an executor worker forever.
const RECLAIM_AFTER: Duration = Duration::from_secs(5);

/// A cheap stable fingerprint of a request frame (FNV-1a 64) used to
/// distinguish a true retry (identical bytes) from request-id reuse.
pub fn frame_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What [`DedupCache::begin`] decided for an arriving request frame.
#[derive(Debug)]
pub enum DedupOutcome {
    /// First arrival of these bytes: the caller owns the claim, must
    /// execute the request, and then [`complete`](DedupCache::complete)
    /// (or [`abandon`](DedupCache::abandon) on unwind).
    Execute,
    /// These exact bytes were already answered (possibly after waiting
    /// for a concurrent identical arrival to finish): send this encoded
    /// response without executing anything.
    Replay(Vec<u8>),
}

/// Where one `(principal, request id)` slot stands.
enum Slot {
    /// Claimed by [`DedupCache::begin`]; execution is running somewhere.
    InFlight,
    /// Executed; the encoded response to replay for identical retries.
    Done(Vec<u8>),
}

/// Responses already sent to one principal, keyed by request id.
struct PrincipalEntries {
    /// request id → (request fingerprint, slot).
    map: HashMap<i64, (u64, Slot)>,
    /// Insertion order for drop-oldest eviction.
    order: VecDeque<i64>,
}

/// Bounded duplicate-suppression cache (see the module docs).
pub struct DedupCache {
    inner: Mutex<DedupInner>,
    /// Wakes duplicates blocked in [`DedupCache::begin`] whenever a slot
    /// resolves (complete or abandon).
    resolved: Condvar,
    capacity: usize,
}

struct DedupInner {
    principals: HashMap<String, PrincipalEntries>,
    principal_order: VecDeque<String>,
}

impl DedupInner {
    fn entries_mut(&mut self, principal: &str, capacity: usize) -> &mut PrincipalEntries {
        if !self.principals.contains_key(principal) {
            if self.principals.len() >= MAX_PRINCIPALS {
                if let Some(oldest) = self.principal_order.pop_front() {
                    self.principals.remove(&oldest);
                }
            }
            self.principal_order.push_back(principal.to_string());
            // Sized once for the bound: a smaller map churning at the
            // bound resizes once more, when its random hash seed says so.
            let map = HashMap::with_capacity(2 * capacity);
            let entries = PrincipalEntries { map, order: VecDeque::with_capacity(capacity + 1) };
            self.principals.insert(principal.to_string(), entries);
        }
        self.principals.get_mut(principal).expect("just inserted")
    }
}

impl DedupCache {
    /// A cache retaining at most `capacity` responses per principal
    /// (min 1), each principal's table allocated at its first request.
    pub fn new(capacity: usize) -> DedupCache {
        DedupCache {
            inner: Mutex::new(DedupInner {
                principals: HashMap::new(),
                principal_order: VecDeque::new(),
            }),
            resolved: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits one request frame: either this caller must execute it
    /// ([`DedupOutcome::Execute`], which atomically claims the key), or
    /// the response already exists and is replayed. An identical frame
    /// whose execution is currently in flight on another thread **blocks
    /// here** until that execution resolves, then replays its response —
    /// never executing the effect a second time.
    ///
    /// Id reuse with different bytes (`fingerprint` mismatch) overwrites
    /// the slot and executes normally, matching a restarted manager.
    pub fn begin(&self, principal: &str, request_id: i64, fingerprint: u64) -> DedupOutcome {
        let mut inner = self.inner.lock();
        // Deadline materialized only if an in-flight claim forces a wait;
        // the hot hit/miss paths never read the clock.
        let mut reclaim_at: Option<Instant> = None;
        loop {
            match inner.principals.get(principal).and_then(|e| e.map.get(&request_id)) {
                Some((stored_fp, Slot::Done(response))) if *stored_fp == fingerprint => {
                    return DedupOutcome::Replay(response.clone());
                }
                Some((stored_fp, Slot::InFlight)) if *stored_fp == fingerprint => {
                    let deadline =
                        *reclaim_at.get_or_insert_with(|| Instant::now() + RECLAIM_AFTER);
                    if Instant::now() >= deadline {
                        // The claim leaked (its thread died without
                        // unwinding). Take it over rather than wedge.
                        inner
                            .entries_mut(principal, self.capacity)
                            .map
                            .insert(request_id, (fingerprint, Slot::InFlight));
                        return DedupOutcome::Execute;
                    }
                    let (guard, _timeout) = self
                        .resolved
                        .wait_timeout(inner, RECLAIM_AFTER)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    inner = guard;
                }
                _ => {
                    // Miss (or id reuse with different bytes): claim it.
                    let entries = inner.entries_mut(principal, self.capacity);
                    if entries.map.insert(request_id, (fingerprint, Slot::InFlight)).is_none() {
                        entries.order.push_back(request_id);
                        if entries.order.len() > self.capacity {
                            if let Some(evicted) = entries.order.pop_front() {
                                entries.map.remove(&evicted);
                            }
                        }
                    }
                    return DedupOutcome::Execute;
                }
            }
        }
    }

    /// Publishes the encoded `response` for a claim taken via
    /// [`begin`](DedupCache::begin), waking any identical duplicates
    /// blocked on it. A slot meanwhile reclaimed for different bytes
    /// (id reuse) is left to its new owner.
    pub fn complete(&self, principal: &str, request_id: i64, fingerprint: u64, response: &[u8]) {
        let mut inner = self.inner.lock();
        let entries = inner.entries_mut(principal, self.capacity);
        match entries.map.get(&request_id) {
            Some((stored_fp, _)) if *stored_fp != fingerprint => {}
            Some(_) => {
                entries.map.insert(request_id, (fingerprint, Slot::Done(response.to_vec())));
            }
            None => {
                // Evicted while executing (capacity pressure): re-insert
                // so retries still replay instead of re-executing.
                entries.map.insert(request_id, (fingerprint, Slot::Done(response.to_vec())));
                entries.order.push_back(request_id);
                if entries.order.len() > self.capacity {
                    if let Some(evicted) = entries.order.pop_front() {
                        entries.map.remove(&evicted);
                    }
                }
            }
        }
        drop(inner);
        self.resolved.notify_all();
    }

    /// Releases a claim whose execution unwound without producing a
    /// response, so a later retry of the same bytes executes for real.
    /// Duplicates blocked on the claim are woken and race to re-claim.
    pub fn abandon(&self, principal: &str, request_id: i64, fingerprint: u64) {
        let mut inner = self.inner.lock();
        if let Some(entries) = inner.principals.get_mut(principal) {
            if let Some((stored_fp, Slot::InFlight)) = entries.map.get(&request_id) {
                if *stored_fp == fingerprint {
                    entries.map.remove(&request_id);
                    // The stale id in `order` is harmless: eviction pops
                    // it as a no-op, and `order` only grows on fresh
                    // inserts, so both stay bounded by `capacity`.
                }
            }
        }
        drop(inner);
        self.resolved.notify_all();
    }
}

impl std::fmt::Debug for DedupCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupCache").field("capacity", &self.capacity).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// begin + complete in one step, for tests exercising the cache
    /// shape rather than the single-flight window.
    fn seed(cache: &DedupCache, principal: &str, id: i64, fp: u64, response: &[u8]) {
        assert!(matches!(cache.begin(principal, id, fp), DedupOutcome::Execute));
        cache.complete(principal, id, fp, response);
    }

    #[test]
    fn replay_requires_matching_fingerprint() {
        let cache = DedupCache::new(8);
        let fp = frame_fingerprint(b"request-1");
        seed(&cache, "mgr", 1, fp, b"response-1");
        match cache.begin("mgr", 1, fp) {
            DedupOutcome::Replay(r) => assert_eq!(r, b"response-1".to_vec()),
            other => panic!("expected replay, got {other:?}"),
        }
        // Same id, different bytes: a restarted manager reusing ids —
        // executes (and takes over the slot).
        assert!(matches!(
            cache.begin("mgr", 1, frame_fingerprint(b"other")),
            DedupOutcome::Execute
        ));
        // Different principal or id: miss.
        assert!(matches!(cache.begin("other", 1, fp), DedupOutcome::Execute));
        assert!(matches!(cache.begin("mgr", 2, fp), DedupOutcome::Execute));
    }

    #[test]
    fn eviction_is_drop_oldest_per_principal() {
        let cache = DedupCache::new(2);
        for id in 1..=3i64 {
            seed(&cache, "mgr", id, id as u64, b"r");
        }
        // The newest two survive; the oldest is gone — and re-claiming
        // it is itself an insert, which evicts the then-oldest (2).
        assert!(matches!(cache.begin("mgr", 3, 3), DedupOutcome::Replay(_)));
        assert!(matches!(cache.begin("mgr", 2, 2), DedupOutcome::Replay(_)));
        assert!(matches!(cache.begin("mgr", 1, 1), DedupOutcome::Execute), "oldest evicted");
        cache.abandon("mgr", 1, 1);
        assert!(matches!(cache.begin("mgr", 3, 3), DedupOutcome::Replay(_)));
        // Another principal has its own budget.
        seed(&cache, "peer", 9, 9, b"r");
        assert!(matches!(cache.begin("peer", 9, 9), DedupOutcome::Replay(_)));
        assert!(matches!(cache.begin("mgr", 3, 3), DedupOutcome::Replay(_)));
    }

    #[test]
    fn overwriting_an_id_does_not_grow_the_ring() {
        let cache = DedupCache::new(2);
        seed(&cache, "mgr", 1, 1, b"a");
        seed(&cache, "mgr", 1, 2, b"b");
        seed(&cache, "mgr", 2, 2, b"r");
        // Id 1 was overwritten in place, so ids 1 and 2 both fit.
        match cache.begin("mgr", 1, 2) {
            DedupOutcome::Replay(r) => assert_eq!(r, b"b".to_vec()),
            other => panic!("expected replay, got {other:?}"),
        }
        assert!(matches!(cache.begin("mgr", 2, 2), DedupOutcome::Replay(_)));
    }

    #[test]
    fn principal_table_is_bounded() {
        let cache = DedupCache::new(4);
        for i in 0..(MAX_PRINCIPALS + 5) {
            seed(&cache, &format!("mgr-{i}"), 1, 1, b"r");
        }
        assert!(
            matches!(cache.begin("mgr-0", 1, 1), DedupOutcome::Execute),
            "oldest principal evicted"
        );
        assert!(matches!(
            cache.begin(&format!("mgr-{}", MAX_PRINCIPALS + 4), 1, 1),
            DedupOutcome::Replay(_)
        ));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = DedupCache::new(0);
        seed(&cache, "mgr", 1, 1, b"a");
        seed(&cache, "mgr", 2, 2, b"b");
        assert!(matches!(cache.begin("mgr", 2, 2), DedupOutcome::Replay(_)), "newest kept");
        assert!(matches!(cache.begin("mgr", 1, 1), DedupOutcome::Execute), "oldest evicted");
        cache.abandon("mgr", 1, 1);
    }

    #[test]
    fn fingerprints_differ_on_any_byte() {
        assert_ne!(frame_fingerprint(b"abc"), frame_fingerprint(b"abd"));
        assert_ne!(frame_fingerprint(b""), frame_fingerprint(b"\0"));
    }

    #[test]
    fn concurrent_identical_frames_execute_single_flight() {
        // The pipelined-duplicate race: a second identical frame arriving
        // while the first is still executing must wait and replay — not
        // execute a second time.
        let cache = Arc::new(DedupCache::new(8));
        assert!(matches!(cache.begin("mgr", 1, 7), DedupOutcome::Execute));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.begin("mgr", 1, 7))
        };
        // Give the duplicate time to block on the in-flight claim, then
        // publish the first execution's response.
        std::thread::sleep(Duration::from_millis(50));
        cache.complete("mgr", 1, 7, b"first");
        match waiter.join().expect("waiter thread") {
            DedupOutcome::Replay(r) => assert_eq!(r, b"first".to_vec()),
            other => panic!("duplicate executed instead of replaying: {other:?}"),
        }
    }

    #[test]
    fn abandoned_claims_let_retries_execute() {
        let cache = Arc::new(DedupCache::new(8));
        assert!(matches!(cache.begin("mgr", 1, 7), DedupOutcome::Execute));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.begin("mgr", 1, 7))
        };
        std::thread::sleep(Duration::from_millis(50));
        // The first execution panicked: its guard abandons the claim and
        // the blocked duplicate takes over.
        cache.abandon("mgr", 1, 7);
        assert!(matches!(waiter.join().expect("waiter thread"), DedupOutcome::Execute));
    }
}
