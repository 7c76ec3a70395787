//! The cost ledger: exact heap-allocation counts for what the server
//! spends on watching itself, and for one window-1 `Invoke` through the
//! request path.
//!
//! This test binary installs a counting global allocator. Its counters
//! are const-initialised thread-locals, so a test counts only what its
//! own thread allocates, whatever the harness runs beside it. One
//! allocation is one call to `alloc`, `alloc_zeroed` or `realloc`.
//!
//! A count is exact on any host, where a timed budget cannot tell a
//! regression from a slower machine; the time each layer takes is
//! measured on the shipped binary by `bench/e2e`. A change that moves a
//! count here updates the pinned number and says why.

use mbd::auth::{Acl, Principal};
use mbd::ber::BerValue;
use mbd::core::{DpiAccount, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{
    codec, frame_fingerprint, DedupCache, DedupOutcome, DpiId, RdsRequest, RdsResponse,
    TraceContext, DEFAULT_DEDUP_CAPACITY,
};
use mbd::telemetry::{enter_trace, Histogram, Telemetry, TraceStoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Operations run before counting starts: enough to fill every bounded
/// ring and cache on the path (journal 1 024, trace ring 4 096 spans,
/// dedup 128 per principal), so what is counted is the steady state.
const WARM_UP: u64 = 2_048;
/// Operations counted. A multiple of the trace store's 1-in-16 reservoir
/// thinning, so its periodic cost lands a whole number of times.
const COUNTED: u64 = 1_024;

/// `mbd-server`'s telemetry posture: tracing and the trace store on.
/// The slow-tree threshold is out of reach, so a request the host
/// happens to delay is not kept as an anomaly: what the store keeps is
/// set by its counter, not by the clock.
fn server_posture(telemetry: &Telemetry) {
    telemetry.enable_tracing(4096);
    telemetry
        .enable_trace_store(TraceStoreConfig { slow_ns: u64::MAX, ..TraceStoreConfig::default() });
}

#[test]
fn a_span_under_an_armed_request_capture_allocates_nothing() {
    let telemetry = Telemetry::new();
    server_posture(&telemetry);
    let timer = telemetry.timer("ledger.span");
    let request = |trace_id: u64| {
        let _scope = enter_trace(trace_id);
        telemetry.begin_trace_capture();
        let spent = allocs(|| drop(timer.start()));
        telemetry.finish_trace(trace_id, 1, false);
        spent
    };
    (1..=WARM_UP).for_each(|id| {
        request(id);
    });
    let spent: u64 = (WARM_UP + 1..=WARM_UP + COUNTED).map(request).sum();
    assert_eq!(spent, 0);
}

#[test]
fn a_histogram_record_allocates_nothing() {
    let histogram = Histogram::new();
    let spent = allocs(|| (0..COUNTED).for_each(|i| histogram.record(i * 97)));
    assert_eq!(spent, 0);
    assert_eq!(histogram.snapshot().count(), COUNTED);
}

#[test]
fn charging_an_invocation_to_a_dpi_account_allocates_nothing() {
    let account = DpiAccount::default();
    let spent = allocs(|| {
        for i in 1..=COUNTED {
            account.touch_trace(i);
            account.record_invocation(true, 1_000, 42);
        }
    });
    assert_eq!(spent, 0);
}

#[test]
fn a_dedup_replay_allocates_only_the_replayed_frame() {
    let cache = DedupCache::new(DEFAULT_DEDUP_CAPACITY);
    let request = RdsRequest::Invoke {
        dpi: DpiId(7),
        entry: "main".to_string(),
        args: vec![BerValue::Integer(42)],
    };
    let frame = codec::encode_request(&request, &Principal::new("ledger"), 99, None);
    let fingerprint = frame_fingerprint(&frame);
    assert!(matches!(cache.begin("ledger", 99, fingerprint), DedupOutcome::Execute));
    cache.complete("ledger", 99, fingerprint, &frame);
    let mut replays = 0;
    let spent = allocs(|| {
        for _ in 0..COUNTED {
            let fingerprint = frame_fingerprint(&frame);
            if let DedupOutcome::Replay(bytes) = cache.begin("ledger", 99, fingerprint) {
                replays += usize::from(bytes == frame);
            }
        }
    });
    assert_eq!(replays, COUNTED as usize);
    assert_eq!(spent, COUNTED, "one allocation per replay: the copy of the cached frame");
}

/// Allocations of each of `COUNTED` window-1 `Invoke`s of `x + 1`
/// through `MbdServer::process_request`, after `WARM_UP` of them, as
/// (allocations, requests) pairs. Each frame has its own request id and a
/// non-zero trace id, as `RdsClient` sends them, and is encoded before
/// counting starts.
fn invoke_block(key: Option<&[u8]>) -> Vec<(u64, u64)> {
    let process = ElasticProcess::new(ElasticConfig::default());
    server_posture(process.telemetry());
    process.delegate("inc", "fn main(x) { return x + 1; }").expect("translates");
    let dpi = process.instantiate("inc").expect("instantiates");
    let server = MbdServer::with_policy(process, Acl::allow_by_default(), key.map(<[u8]>::to_vec));
    let principal = Principal::new("ledger");
    let frame = |id: u64| {
        let request = RdsRequest::Invoke {
            dpi,
            entry: "main".to_string(),
            args: vec![BerValue::Integer(id as i64)],
        };
        let trace =
            TraceContext { trace_id: id.wrapping_mul(0x9E37_79B9_7F4A_7C15), parent_span_id: 0 };
        codec::encode_request_traced(&request, &principal, id as i64, key, trace)
    };
    for id in 1..=WARM_UP {
        let reply = server.process_request(&frame(id));
        assert!(matches!(
            codec::decode_response(&reply, key),
            Ok((RdsResponse::Result { value: BerValue::Integer(_) }, _))
        ));
    }
    let frames: Vec<Vec<u8>> = (WARM_UP + 1..=WARM_UP + COUNTED).map(frame).collect();
    let spent: Vec<u64> =
        frames.iter().map(|f| allocs(|| drop(server.process_request(f)))).collect();
    assert_eq!(server.process().dpi_account(dpi).expect("live").invocations_ok, WARM_UP + COUNTED);
    let mut tally = std::collections::BTreeMap::new();
    spent.into_iter().for_each(|n| *tally.entry(n).or_insert(0) += 1);
    tally.into_iter().collect()
}

/// Every 16th request the trace store's reservoir keeps the span tree,
/// which resolves its span names into a retained tree: 7 allocations
/// more.
const KEPT_TREE: u64 = 7;

#[test]
fn a_block_of_unkeyed_invokes_allocates_a_pinned_count() {
    assert_eq!(invoke_block(None), [(23, COUNTED / 16 * 15), (23 + KEPT_TREE, COUNTED / 16)]);
}

#[test]
fn a_block_of_keyed_invokes_allocates_a_pinned_count() {
    // Three more than unkeyed: one to check the request's digest, two to
    // seal the reply.
    let keyed = invoke_block(Some(b"ledger-key"));
    assert_eq!(keyed, [(26, COUNTED / 16 * 15), (26 + KEPT_TREE, COUNTED / 16)]);
}
