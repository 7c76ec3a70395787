//! Stress: the elastic process under concurrent mixed load — delegation,
//! instantiation, invocation, lifecycle churn and faults all at once.
//! Bounded to stay fast; the point is absence of deadlocks, panics and
//! state corruption, not throughput.

use mbd::core::{ElasticConfig, ElasticProcess};
use mbd::dpl::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn concurrent_mixed_workload_survives() {
    let p = ElasticProcess::new(ElasticConfig {
        budget: dpl::Budget { fuel: 100_000, memory: 100_000, call_depth: 32 },
        max_instances: 4096,
        ..ElasticConfig::default()
    });
    p.delegate(
        "worker",
        r#"var state = 0;
           fn work(n) {
               var i = 0;
               while (i < n) { state = state + i; i = i + 1; }
               if (n == 13) { return 1 / 0; }  // unlucky inputs fault
               return state;
           }"#,
    )
    .unwrap();

    let threads = 8;
    let ops_per_thread = 200;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let p = p.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                let mut my_dpis: Vec<mbd::core::DpiId> = Vec::new();
                barrier.wait();
                for op in 0..ops_per_thread {
                    match rng.gen_range(0u32..10) {
                        0 => {
                            // Occasionally (re)delegate a fresh variant.
                            let _ = p.delegate(
                                &format!("worker-{t}-{op}"),
                                "fn work(n) { return n * 2; }",
                            );
                        }
                        1..=3 => {
                            if let Ok(dpi) = p.instantiate("worker") {
                                my_dpis.push(dpi);
                            }
                        }
                        4..=7 => {
                            if let Some(&dpi) = my_dpis.last() {
                                let n = rng.gen_range(0i64..20);
                                let _ = p.invoke(dpi, "work", &[Value::Int(n)]);
                            }
                        }
                        8 => {
                            if let Some(&dpi) = my_dpis.last() {
                                let _ = p.suspend(dpi);
                                let _ = p.resume(dpi);
                            }
                        }
                        _ => {
                            if my_dpis.len() > 4 {
                                let dpi = my_dpis.remove(0);
                                let _ = p.terminate(dpi);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no stress thread may panic");
    }

    // Global invariants after the storm.
    let stats = p.stats();
    assert!(stats.invocations_ok > 0, "some invocations must have succeeded");
    assert!(stats.invocations_failed > 0, "the n == 13 inputs must have faulted");
    let instances = p.list_instances();
    // Every terminated-by-fault or explicitly-terminated dpi left the
    // table: the listing is exactly the live census, and every Ready dpi
    // still works.
    assert_eq!(instances.len(), p.live_instances());
    assert!(instances.iter().all(|i| i.state != mbd::core::DpiState::Terminated));
    let mut live_checked = 0;
    for i in instances.iter().filter(|i| i.state == mbd::core::DpiState::Ready).take(50) {
        let v = p.invoke(i.id, "work", &[Value::Int(1)]).expect("ready dpis run");
        assert!(matches!(v, Value::Int(_)));
        live_checked += 1;
    }
    assert!(live_checked > 0, "at least one dpi should still be live");
}

/// Hammers every lifecycle verb from 8 threads over disjoint dpi sets
/// and then checks the sharded table's census and atomic counters to
/// the exact operation: nothing may be lost or double-counted across
/// shards, reservations, faults and bounded-queue overflow.
#[test]
fn lifecycle_hammering_keeps_census_exact() {
    let p = ElasticProcess::new(ElasticConfig {
        max_instances: 48,
        notification_capacity: 16,
        log_capacity: 16,
        ..ElasticConfig::default()
    });
    p.delegate(
        "agent",
        r#"fn work(n) {
               notify(n);
               if (n == 13) { return 1 / 0; }  // unlucky inputs fault
               return n;
           }"#,
    )
    .unwrap();

    #[derive(Default)]
    struct Tally {
        instantiated: u64,
        terminated: u64,
        faulted: u64,
        invoked_ok: u64,
    }

    let threads = 8;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let p = p.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                // Disjoint ownership: only this thread touches its dpis,
                // so each fault terminates exactly one tallied instance.
                let mut mine: Vec<mbd::core::DpiId> = Vec::new();
                let mut tally = Tally::default();
                barrier.wait();
                for _ in 0..300 {
                    match rng.gen_range(0u32..10) {
                        0..=2 => {
                            if let Ok(dpi) = p.instantiate("agent") {
                                mine.push(dpi);
                                tally.instantiated += 1;
                            } // else: at the max_instances ceiling
                        }
                        3..=6 => {
                            if let Some(&dpi) = mine.last() {
                                let n = rng.gen_range(0i64..20);
                                match p.invoke(dpi, "work", &[Value::Int(n)]) {
                                    Ok(_) => tally.invoked_ok += 1,
                                    Err(mbd::core::CoreError::Runtime(_)) => {
                                        tally.faulted += 1;
                                        mine.pop(); // fault terminated it
                                    }
                                    Err(_) => {} // suspended: refused, no state change
                                }
                            }
                        }
                        7 => {
                            if let Some(&dpi) = mine.last() {
                                let _ = p.suspend(dpi);
                                let _ = p.resume(dpi);
                            }
                        }
                        _ => {
                            if mine.len() > 2 {
                                let dpi = mine.remove(0);
                                p.terminate(dpi).expect("owned dpi terminates once");
                                tally.terminated += 1;
                            }
                        }
                    }
                }
                (tally, mine)
            })
        })
        .collect();

    let mut total = Tally::default();
    let mut survivors = 0u64;
    for h in handles {
        let (tally, mine) = h.join().expect("no stress thread may panic");
        total.instantiated += tally.instantiated;
        total.terminated += tally.terminated;
        total.faulted += tally.faulted;
        total.invoked_ok += tally.invoked_ok;
        survivors += mine.len() as u64;
    }

    // Census: every instantiation is either terminated, faulted, or
    // still owned by a thread — and the runtime agrees exactly.
    assert_eq!(total.instantiated, total.terminated + total.faulted + survivors);
    assert_eq!(p.live_instances() as u64, survivors);
    // Retired dpis left no ghost slots behind.
    assert_eq!(p.list_instances().len() as u64, survivors);

    // Counters: lock-free stats lost nothing under contention.
    let stats = p.stats();
    assert_eq!(stats.instantiations, total.instantiated);
    assert_eq!(stats.invocations_ok, total.invoked_ok);
    assert_eq!(stats.invocations_failed, total.faulted);
    assert!(total.faulted > 0, "the n == 13 inputs must have faulted");

    // Bounded queues: drop-oldest accounting balances to the exact
    // number of notifications ever pushed (one per completed `work`).
    let retained = p.drain_notifications().len() as u64;
    assert_eq!(
        stats.notifications_dropped + retained,
        total.invoked_ok + total.faulted,
        "every notification is either retained or counted as dropped"
    );
    assert!(retained <= 16, "outbox may never exceed its capacity");
}

#[test]
fn repository_churn_under_concurrent_instantiation() {
    let p = ElasticProcess::new(ElasticConfig::default());
    p.delegate("v", "fn f() { return 1; }").unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // One thread hot-swaps the program continuously...
    let swapper = {
        let p = p.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut version = 2i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                p.delegate("v", &format!("fn f() {{ return {version}; }}")).unwrap();
                version += 1;
            }
            version
        })
    };
    // ...while others instantiate and invoke it.
    let users: Vec<_> = (0..4)
        .map(|_| {
            let p = p.clone();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let dpi = p.instantiate("v").expect("always instantiable");
                    let v = p.invoke(dpi, "f", &[]).expect("always runs");
                    assert!(matches!(v, Value::Int(n) if n >= 1));
                    p.terminate(dpi).expect("terminates");
                }
            })
        })
        .collect();
    for u in users {
        u.join().expect("no user panics");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let final_version = swapper.join().expect("no swapper panic");
    assert!(final_version > 2);
    assert!(p.repository().lookup("v").unwrap().version > 1);
}

/// Per-dpi serialization, witnessed from the callers' side: 4 threads
/// × 500 invokes of one counter dpi, released together. Each call must
/// see the state the previous one left, so the 2 000 return values are
/// exactly 1..=2000 — a lost, doubled or interleaved run breaks the set.
#[test]
fn single_dpi_burst_stays_serial() {
    const THREADS: usize = 4;
    const CALLS: usize = 500;
    let p = ElasticProcess::new(ElasticConfig::default());
    p.delegate("counter", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let dpi = p.instantiate("counter").unwrap();
    let start = std::sync::Barrier::new(THREADS);
    let mut seen: Vec<i64> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut mine = Vec::with_capacity(CALLS);
                    for _ in 0..CALLS {
                        match p.invoke(dpi, "bump", &[]).unwrap() {
                            Value::Int(n) => mine.push(n),
                            other => panic!("counter returned {other:?}"),
                        }
                    }
                    // One caller's own calls are ordered in time.
                    assert!(mine.windows(2).all(|w| w[0] < w[1]), "a caller saw the count go back");
                    mine
                })
            })
            .collect();
        callers.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    seen.sort_unstable();
    assert_eq!(seen, (1..=(THREADS * CALLS) as i64).collect::<Vec<_>>());
    assert_eq!(p.stats().invocations_ok, (THREADS * CALLS) as u64);
}
