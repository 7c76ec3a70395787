//! The sharded dpi table.
//!
//! The seed kept every instance in one `RwLock<HashMap>`, so any state
//! transition write-locked the whole table and stalled every concurrent
//! lookup. Here the map is split into [`SHARDS`] independently locked
//! shards keyed by dpi id, and each slot's lifecycle state is an atomic
//! — so lookups on different dpis never contend, and state transitions
//! (suspend/resume/terminate, the invoke Running window) are lock-free
//! CAS operations on the slot itself rather than table writes.
//!
//! Sequential ids round-robin across shards, so a burst of freshly
//! instantiated dpis spreads evenly by construction.

use super::account::{DpiAccount, DpiQuota};
use crate::services::ServerCtx;
use crossbeam::utils::CachePadded;
use dpl::HostRegistry;
use parking_lot::{Mutex, RwLock};
use rds::{DpiId, DpiState};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independently locked table shards (power of two).
pub(super) const SHARDS: usize = 16;

/// Everything an invocation needs once the per-dpi lock is held: the VM
/// instance, this dpi's long-lived service context, and a cached
/// host-registry snapshot.
///
/// Keeping the context and registry *inside* the instance mutex is a
/// hot-path optimization: the seed rebuilt a `ServerCtx` (seven `Arc`
/// clones and a fresh `Arc<Mutex<Vec>>` allocation) and re-snapshotted
/// the registry (read-lock plus `Arc` clone) on every invocation. Both
/// are per-dpi state that only the invocation holder touches, so they
/// live here and cost nothing per call; the registry cache re-validates
/// against the process's registry generation.
pub(super) struct InstanceCell {
    /// The VM instance. Its surrounding mutex serializes invocations
    /// per dpi while different dpis run concurrently (the multithreaded
    /// elastic process of the paper).
    pub vm: dpl::Instance,
    /// This dpi's service context. `ctx.pending` is drained by the
    /// runtime after each invocation returns.
    pub ctx: ServerCtx,
    /// Cached host-registry snapshot; refreshed when the process's
    /// registry generation moves (see `ElasticProcess::register_service`).
    pub registry: Arc<HostRegistry<ServerCtx>>,
}

/// A live instance slot. Shared out of the table as an `Arc` so callers
/// operate on the slot without holding any shard lock.
pub(super) struct DpiSlot {
    pub dp_name: String,
    /// Lifecycle state, encoded with [`DpiState::code`].
    state: AtomicU8,
    /// The per-dpi invocation cell (VM + context + registry cache).
    pub cell: Mutex<InstanceCell>,
    pub mailbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    /// Lock-free lifetime resource counters for this dpi.
    pub account: Arc<DpiAccount>,
    /// Optional cumulative resource quota; checked after every
    /// invocation, breach suspends the dpi. Private so the armed flag
    /// below stays coherent.
    quota: Mutex<Option<DpiQuota>>,
    /// Whether a quota is armed — lets the per-invocation check skip
    /// the quota mutex entirely in the (common) unarmed case.
    has_quota: AtomicBool,
}

fn decode(code: u8) -> DpiState {
    DpiState::from_code(i64::from(code)).expect("slot state codes are always valid")
}

impl DpiSlot {
    /// A slot starting in an explicit lifecycle state — recovery and
    /// checkpoint restore install dpis that are not freshly `Ready`.
    /// `ctx` must be this dpi's context; the slot shares its mailbox
    /// and account.
    pub fn with_state(
        dp_name: String,
        instance: dpl::Instance,
        state: DpiState,
        ctx: ServerCtx,
        registry: Arc<HostRegistry<ServerCtx>>,
    ) -> DpiSlot {
        DpiSlot {
            dp_name,
            state: AtomicU8::new(state.code() as u8),
            mailbox: Arc::clone(&ctx.mailbox),
            account: Arc::clone(&ctx.account),
            cell: Mutex::new(InstanceCell { vm: instance, ctx, registry }),
            quota: Mutex::new(None),
            has_quota: AtomicBool::new(false),
        }
    }

    /// Arms (or clears) the quota, keeping the lock-free armed flag
    /// coherent.
    pub fn set_quota(&self, quota: Option<DpiQuota>) {
        *self.quota.lock() = quota;
        self.has_quota.store(quota.is_some(), Ordering::Release);
    }

    /// The armed quota, if any. Lock-free when none is armed — the
    /// per-invocation path calls this after every run.
    pub fn quota(&self) -> Option<DpiQuota> {
        if !self.has_quota.load(Ordering::Acquire) {
            return None;
        }
        *self.quota.lock()
    }

    /// Unconditionally sets the lifecycle state — WAL replay applies
    /// recorded outcomes without CAS ceremony (replay is single-threaded
    /// and the recorded transition already happened).
    pub fn set_state(&self, state: DpiState) {
        self.state.store(state.code() as u8, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> DpiState {
        decode(self.state.load(Ordering::Acquire))
    }

    /// Atomically moves `from -> to`; on failure returns the state
    /// actually observed.
    pub fn try_transition(&self, from: DpiState, to: DpiState) -> Result<(), DpiState> {
        self.state
            .compare_exchange(
                from.code() as u8,
                to.code() as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(decode)
    }

    /// Atomically terminates from any non-terminated state, returning
    /// the state left behind (`None` when already terminated).
    pub fn force_terminate(&self) -> Option<DpiState> {
        let mut observed = self.state.load(Ordering::Acquire);
        loop {
            if decode(observed) == DpiState::Terminated {
                return None;
            }
            match self.state.compare_exchange_weak(
                observed,
                DpiState::Terminated.code() as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(prev) => return Some(decode(prev)),
                Err(now) => observed = now,
            }
        }
    }
}

/// One table shard: the locked map plus a mirror of its entry count,
/// maintained on the write paths so [`ShardedTable::len`] never takes a
/// lock and [`ShardedTable::snapshot`] can pre-size its output.
struct Shard {
    map: RwLock<HashMap<DpiId, Arc<DpiSlot>>>,
    len: AtomicUsize,
}

/// The concurrent instance table: `SHARDS` locked maps plus an atomic
/// census of live (non-terminated) instances for limit enforcement.
///
/// Each shard and the census are cache-line padded: the shard locks and
/// the `live` counter are the hottest shared words in the process, and
/// without padding sixteen `RwLock` state words pack onto two cache
/// lines, so threads touching *different* shards still bounce the same
/// lines (false sharing) — exactly the contention sharding exists to
/// remove.
pub(super) struct ShardedTable {
    shards: Vec<CachePadded<Shard>>,
    live: CachePadded<AtomicUsize>,
}

impl ShardedTable {
    pub fn new() -> ShardedTable {
        ShardedTable {
            shards: (0..SHARDS)
                .map(|_| {
                    CachePadded::new(Shard {
                        map: RwLock::new(HashMap::new()),
                        len: AtomicUsize::new(0),
                    })
                })
                .collect(),
            live: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    fn shard(&self, id: DpiId) -> &Shard {
        &self.shards[(id.0 as usize) & (SHARDS - 1)]
    }

    /// The slot for `id`, if present. A terminated dpi leaves the table;
    /// only a slot caught between its terminate CAS and its removal reads
    /// `Terminated` here.
    pub fn get(&self, id: DpiId) -> Option<Arc<DpiSlot>> {
        self.shard(id).map.read().get(&id).cloned()
    }

    pub fn insert(&self, id: DpiId, slot: Arc<DpiSlot>) {
        let shard = self.shard(id);
        let mut map = shard.map.write();
        if map.insert(id, slot).is_none() {
            shard.len.fetch_add(1, Ordering::Release);
        }
    }

    /// Removes `id`'s slot; whether one was there.
    pub fn remove(&self, id: DpiId) -> bool {
        let shard = self.shard(id);
        let mut map = shard.map.write();
        let removed = map.remove(&id).is_some();
        if removed {
            shard.len.fetch_sub(1, Ordering::Release);
        }
        removed
    }

    /// Slots currently stored (any state), unordered. Pre-sized from the
    /// per-shard counters, then filled in a single locked pass per
    /// shard.
    pub fn snapshot(&self) -> Vec<(DpiId, Arc<DpiSlot>)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let map = shard.map.read();
            out.extend(map.iter().map(|(id, slot)| (*id, Arc::clone(slot))));
        }
        out
    }

    /// [`snapshot`](ShardedTable::snapshot) plus the table length from
    /// the same pass — the 1 Hz samplers (gauges, account rows, profile
    /// stacks) want both, and calling `len()` separately used to lock
    /// all [`SHARDS`] shards a second time.
    pub fn snapshot_with_len(&self) -> (Vec<(DpiId, Arc<DpiSlot>)>, usize) {
        let out = self.snapshot();
        let len = out.len();
        (out, len)
    }

    /// Entries stored across all shards — lock-free, read from the
    /// per-shard counters.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len.load(Ordering::Acquire)).sum()
    }

    /// Reserves one live-instance slot unless `limit` is reached.
    /// Every successful reservation must be paired with exactly one
    /// [`release_live`](ShardedTable::release_live) when the instance
    /// terminates (or the reservation is abandoned).
    pub fn try_reserve_live(&self, limit: usize) -> bool {
        self.live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < limit).then_some(n + 1))
            .is_ok()
    }

    /// Returns one live-instance reservation.
    pub fn release_live(&self) {
        self.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// Live (non-terminated) instances.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> Arc<DpiSlot> {
        let reg = Arc::new(crate::services::standard_registry());
        let program = dpl::compile_program("fn main() { return 0; }", &reg).unwrap();
        let account = Arc::new(DpiAccount::default());
        let ctx = ServerCtx {
            mib: snmp::MibStore::new(),
            mailbox: Arc::new(Mutex::new(VecDeque::new())),
            outbox: Arc::new(mbd_telemetry::Ring::new(16)),
            log: Arc::new(mbd_telemetry::Ring::new(16)),
            ticks: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            pending: Vec::new(),
            dpi: DpiId(1),
            account,
        };
        Arc::new(DpiSlot::with_state(
            "t".to_string(),
            dpl::Instance::new(std::sync::Arc::new(program)),
            DpiState::Ready,
            ctx,
            reg,
        ))
    }

    #[test]
    fn transitions_follow_cas_semantics() {
        let s = slot();
        assert_eq!(s.state(), DpiState::Ready);
        assert_eq!(s.try_transition(DpiState::Suspended, DpiState::Ready), Err(DpiState::Ready));
        s.try_transition(DpiState::Ready, DpiState::Suspended).unwrap();
        assert_eq!(s.state(), DpiState::Suspended);
        assert_eq!(s.force_terminate(), Some(DpiState::Suspended));
        assert_eq!(s.force_terminate(), None);
        assert_eq!(s.state(), DpiState::Terminated);
    }

    #[test]
    fn ids_spread_across_shards_and_lookups_round_trip() {
        let t = ShardedTable::new();
        for i in 1..=64u64 {
            t.insert(DpiId(i), slot());
        }
        assert_eq!(t.len(), 64);
        for i in 1..=64u64 {
            assert!(t.get(DpiId(i)).is_some(), "dpi-{i} lost");
        }
        assert!(t.get(DpiId(65)).is_none());
        t.remove(DpiId(1));
        assert_eq!(t.len(), 63);
        // Sequential ids hit every shard.
        let mut seen = [false; SHARDS];
        for (id, _) in t.snapshot() {
            seen[(id.0 as usize) & (SHARDS - 1)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn len_counters_track_inserts_removes_and_overwrites() {
        let t = ShardedTable::new();
        for i in 1..=8u64 {
            t.insert(DpiId(i), slot());
        }
        // Overwriting an existing id must not inflate the count.
        t.insert(DpiId(3), slot());
        assert_eq!(t.len(), 8);
        t.remove(DpiId(3));
        t.remove(DpiId(3));
        assert_eq!(t.len(), 7);
        let (snap, len) = t.snapshot_with_len();
        assert_eq!(snap.len(), 7);
        assert_eq!(len, 7);
    }

    #[test]
    fn live_census_enforces_limits() {
        let t = ShardedTable::new();
        assert!(t.try_reserve_live(2));
        assert!(t.try_reserve_live(2));
        assert!(!t.try_reserve_live(2));
        assert_eq!(t.live(), 2);
        t.release_live();
        assert!(t.try_reserve_live(2));
    }
}
