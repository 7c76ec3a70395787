//! Chaos: seeded fault schedules against the fault-tolerant session
//! layer.
//!
//! A [`FaultDuplex`] (drops, duplicates, delays, truncations,
//! disconnects — all deterministic per seed) sits between a retrying
//! [`RdsClient`] and an [`MbdServer`] with duplicate suppression on.
//! The property under test is the tentpole guarantee: for **every**
//! seed, a retried management workflow converges to exactly-once
//! server-side effects.
//!
//! Convergence is provable, not probabilistic: each injected fault
//! costs the request it hits at most one re-send (the argument is in
//! `FaultDuplex`'s module docs), and the fault budget
//! (`FaultConfig::max_faults`, 6) is strictly below the client's
//! attempt bound (8), so no schedule can outlast the retry loop.

use mbd::core::{DpiAccountSnapshot, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{
    DpiId, FaultConfig, FaultDuplex, LoopbackDuplex, RdsClient, RdsPipeline, RdsRequest,
    RdsResponse, RetryPolicy, TcpDuplex, TcpServer,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A stateful agent: double-execution of `bump` is visible in the
/// returned running total, not just in the counters.
const PROGRAM: &str = "var total = 0; fn bump(x) { total = total + x; return total; }";

/// Eight attempts, no backoff (the loopback channel heals by budget,
/// not by time), no deadline — convergence must come from the retry
/// bound alone.
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        deadline: None,
        jitter_seed: seed,
    }
}

type ChaosClient = RdsClient<FaultDuplex<LoopbackDuplex>>;

/// After a converged terminate the dpi has left the table, and exactly
/// one `lifecycle.terminate` record carries the bill its account showed
/// just before (`before`, read once the last invoke had returned).
fn assert_terminated_once(process: &ElasticProcess, dpi: DpiId, before: &DpiAccountSnapshot) {
    let records = process.journal().tail(0);
    let mut terminations =
        records.iter().filter(|r| r.verb == "lifecycle.terminate" && r.dpi == dpi.0);
    let record = terminations.next().expect("terminate journaled");
    assert!(terminations.next().is_none(), "terminate not exactly-once");
    let bill = format!(
        "ok={} failed={} busy_us={} fuel={} ",
        before.invocations_ok,
        before.invocations_failed,
        before.busy_ns / 1_000,
        before.vm_fuel
    );
    assert!(record.detail.starts_with(&bill), "journal bill {} != account {bill}", record.detail);
    assert_eq!(process.dpi_account(dpi), None, "the terminated dpi left the table");
    assert_eq!(process.live_instances(), 0, "the census must drain after terminate");
    assert!(process.list_instances().is_empty(), "no terminated dpi is listed");
}

fn harness(seed: u64) -> (ChaosClient, ElasticProcess, Arc<MbdServer>) {
    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process.clone()));
    let loopback = {
        let server = Arc::clone(&server);
        LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes))
    };
    let faulty = FaultDuplex::new(loopback, seed, FaultConfig::default());
    let client = RdsClient::new(faulty, "chaos-mgr")
        .with_retry(chaos_policy(seed))
        .instrument(process.telemetry());
    (client, process, server)
}

/// Runs the canonical workflow — delegate, instantiate, invoke x3,
/// terminate — and asserts exactly-once effects everywhere they are
/// observable.
fn run_workflow(seed: u64) -> (u64, u64) {
    let (client, process, server) = harness(seed);

    client.delegate("chaos", PROGRAM).expect("delegate converges");
    let dpi = client.instantiate("chaos").expect("instantiate converges");
    for round in 1..=3i64 {
        let total = client.invoke(dpi, "bump", &[ber::BerValue::Integer(1)]).expect("invoke");
        // The running total is the sharpest exactly-once probe: a
        // double-executed bump would overshoot it immediately.
        assert_eq!(total, ber::BerValue::Integer(round), "seed {seed}: bump ran more than once");
    }
    // The per-dpi account agrees before terminate takes the dpi away.
    let account = process.dpi_account(dpi).expect("a live dpi has an account");
    assert_eq!(account.invocations_ok, 3, "seed {seed}: dpi account disagrees");
    client.terminate(dpi).expect("terminate converges");

    let stats = process.stats();
    assert_eq!(stats.delegations_accepted, 1, "seed {seed}: delegation not exactly-once");
    assert_eq!(stats.instantiations, 1, "seed {seed}: instantiation not exactly-once");
    assert_eq!(stats.invocations_ok, 3, "seed {seed}: invocations not exactly-once");
    assert_eq!(stats.invocations_failed, 0, "seed {seed}");
    assert_terminated_once(&process, dpi, &account);

    (client.retries(), server.dedup_hits())
}

proptest! {
    /// Any seeded fault schedule converges to exactly-once effects.
    #[test]
    fn any_fault_schedule_converges_to_exactly_once(seed in any::<u64>()) {
        run_workflow(seed);
    }
}

/// The same convergence property through the *reactor* path: a
/// [`FaultDuplex`] (same seeded fault kinds, frame-granular) sits
/// between a windowed [`RdsPipeline`] and a real event-driven
/// [`TcpServer`], with multiple requests in flight and out-of-order
/// completion. Every seed must still produce exactly-once effects.
fn run_pipelined_workflow(seed: u64) {
    let process = ElasticProcess::new(ElasticConfig::default());
    let tcp = TcpServer::spawn("127.0.0.1:0", MbdServer::open(process.clone())).unwrap();
    let duplex = FaultDuplex::new(
        TcpDuplex::connect(tcp.local_addr()).unwrap(),
        seed,
        FaultConfig::default(),
    );
    let mut pipe = RdsPipeline::new(duplex, "chaos-pipe")
        .with_window(4)
        // The stall probe is the only time-based recovery here (a
        // swallowed frame makes no noise); keep it tight.
        .with_recv_timeout(Duration::from_millis(100))
        .with_retry(chaos_policy(seed));

    let expect_all_ok = |results: Vec<(i64, Result<RdsResponse, mbd::rds::RdsError>)>| {
        results
            .into_iter()
            .map(|(id, r)| r.unwrap_or_else(|e| panic!("seed {seed}: request {id}: {e}")))
            .collect::<Vec<_>>()
    };

    // Order-dependent setup runs with the window effectively serial.
    pipe.submit(&RdsRequest::DelegateProgram {
        dp_name: "chaos".to_string(),
        language: "dpl".to_string(),
        source: PROGRAM.as_bytes().to_vec(),
    });
    expect_all_ok(pipe.drain());
    pipe.submit(&RdsRequest::Instantiate { dp_name: "chaos".to_string() });
    let dpi = match expect_all_ok(pipe.drain()).pop() {
        Some(RdsResponse::Instantiated { dpi }) => dpi,
        other => panic!("seed {seed}: expected Instantiated, got {other:?}"),
    };

    // Six bumps in flight at once: executions interleave arbitrarily,
    // so the running totals come back as a permutation of 1..=6 — any
    // double execution would overshoot and break the set.
    const BUMPS: i64 = 6;
    for _ in 0..BUMPS {
        pipe.submit(&RdsRequest::Invoke {
            dpi,
            entry: "bump".to_string(),
            args: vec![ber::BerValue::Integer(1)],
        });
    }
    let mut totals: Vec<i64> = expect_all_ok(pipe.drain())
        .into_iter()
        .map(|resp| match resp {
            RdsResponse::Result { value: ber::BerValue::Integer(total) } => total,
            other => panic!("seed {seed}: expected integer result, got {other:?}"),
        })
        .collect();
    totals.sort_unstable();
    assert_eq!(totals, (1..=BUMPS).collect::<Vec<_>>(), "seed {seed}: bumps not exactly-once");

    let account = process.dpi_account(dpi).expect("a live dpi has an account");
    assert_eq!(account.invocations_ok, BUMPS as u64, "seed {seed}: dpi account disagrees");
    pipe.submit(&RdsRequest::Terminate { dpi });
    expect_all_ok(pipe.drain());

    let stats = process.stats();
    assert_eq!(stats.delegations_accepted, 1, "seed {seed}: delegation not exactly-once");
    assert_eq!(stats.instantiations, 1, "seed {seed}: instantiation not exactly-once");
    assert_eq!(stats.invocations_ok, BUMPS as u64, "seed {seed}: invocations not exactly-once");
    assert_terminated_once(&process, dpi, &account);
    tcp.shutdown();
}

proptest! {
    // Each case runs a real TCP reactor; fewer cases than the loopback
    // property, same per-seed determinism.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded fault schedule converges to exactly-once effects when
    /// pipelined through the reactor.
    #[test]
    fn pipelined_reactor_path_converges_to_exactly_once(seed in any::<u64>()) {
        run_pipelined_workflow(seed);
    }
}

/// Regression: this seed's schedule duplicated the delegate frame, and
/// the reactor pipelined both copies to two workers at once — a
/// lookup-then-store dedup cache missed on both and delegated twice.
/// Single-flight admission (`DedupCache::begin`) makes the second copy
/// wait for the first execution and replay its response.
#[test]
fn concurrent_duplicate_delivery_stays_exactly_once() {
    run_pipelined_workflow(4_990_920_121_278_408_718);
}

/// A deterministic run whose schedule actually exercises the machinery:
/// scan seeds until one forces both retries and dedup replays, then
/// require the full observability trail for it.
#[test]
fn faults_surface_as_retries_dedup_hits_and_journal_records() {
    for seed in 0..256u64 {
        let (client, process, server) = harness(seed);
        client.delegate("chaos", PROGRAM).expect("delegate converges");
        let dpi = client.instantiate("chaos").expect("instantiate converges");
        for _ in 0..3 {
            client.invoke(dpi, "bump", &[ber::BerValue::Integer(1)]).expect("invoke converges");
        }
        client.terminate(dpi).expect("terminate converges");
        if client.retries() == 0 || server.dedup_hits() == 0 {
            continue;
        }

        // Counters flow into the shared telemetry registry...
        let snapshot = process.telemetry().snapshot();
        assert_eq!(snapshot.counter("rds.retries"), Some(client.retries()));
        assert_eq!(snapshot.counter("rds.dedup_hits"), Some(server.dedup_hits()));
        // ...and every replay is journalled without re-execution.
        let replays = process
            .journal()
            .tail(0)
            .into_iter()
            .filter(|r| r.verb == "duplicate_replayed")
            .count() as u64;
        assert_eq!(replays, server.dedup_hits(), "each dedup hit leaves a journal record");
        assert_eq!(process.stats().invocations_ok, 3, "replays must not re-execute");
        return;
    }
    panic!("no seed in 0..256 produced both a retry and a dedup hit — schedules too tame");
}
