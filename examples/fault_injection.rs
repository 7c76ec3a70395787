//! Chaos smoke: a seeded fault schedule against the fault-tolerant
//! session layer, end to end.
//!
//! A [`FaultDuplex`] injects deterministic faults (dropped requests,
//! dropped responses, duplicates, delays, truncations, disconnects)
//! between a retrying [`RdsClient`] and an [`MbdServer`] whose
//! duplicate-suppression cache is on. The manager runs the canonical
//! workflow — delegate, instantiate, invoke x3, terminate — and the
//! program's own running total proves exactly-once execution: a
//! double-run `bump` would overshoot immediately.
//!
//! Run with: `cargo run --example fault_injection [seed]`
//!
//! The default seed is chosen so the schedule actually bites (at least
//! one retry and one dedup replay); the process exits non-zero if the
//! exactly-once guarantee or the observability trail is violated.

use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{FaultConfig, FaultDuplex, LoopbackDuplex, RdsClient, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

const PROGRAM: &str = "var total = 0; fn bump(x) { total = total + x; return total; }";

/// A fixed seed whose schedule spends the whole fault budget on every
/// fault kind — delivery failures (forcing retries) and
/// executed-but-unanswered requests (forcing dedup replays).
/// Deterministic: the run is bit-for-bit reproducible.
const DEFAULT_SEED: u64 = 44;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = match std::env::args().nth(1) {
        Some(arg) => arg.parse::<u64>()?,
        None => DEFAULT_SEED,
    };

    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process.clone()));
    let loopback = {
        let server = Arc::clone(&server);
        LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes))
    };
    let faulty = FaultDuplex::new(loopback, seed, FaultConfig::default());
    // Eight attempts vs a fault budget of six: convergence is a
    // theorem, not a hope.
    let client = RdsClient::new(faulty, "chaos-mgr")
        .with_retry(RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            deadline: Some(Duration::from_secs(10)),
            jitter_seed: seed,
        })
        .instrument(process.telemetry());

    client.delegate("chaos", PROGRAM)?;
    let dpi = client.instantiate("chaos")?;
    for round in 1..=3i64 {
        let total = client.invoke(dpi, "bump", &[mbd::ber::BerValue::Integer(1)])?;
        assert_eq!(
            total,
            mbd::ber::BerValue::Integer(round),
            "exactly-once violated: bump ran more than once"
        );
    }
    client.terminate(dpi)?;

    let retries = client.retries();
    let pipe = client.into_pipeline();
    let faults = pipe.duplex();
    println!("seed {seed}: workflow converged through the fault schedule");
    println!(
        "  faults injected : {} (drops {}, duplicates {}, delays {}, \
         truncations {}, disconnects {})",
        faults.injected(),
        faults.drops(),
        faults.duplicates(),
        faults.delays(),
        faults.truncations(),
        faults.disconnects(),
    );
    println!("  client retries  : {retries}");
    println!("  dedup replays   : {}", server.dedup_hits());

    let stats = process.stats();
    let replays =
        process.journal().tail(0).into_iter().filter(|r| r.verb == "duplicate_replayed").count()
            as u64;
    let exactly_once = stats.delegations_accepted == 1
        && stats.instantiations == 1
        && stats.invocations_ok == 3
        && stats.invocations_failed == 0;
    println!(
        "  server effects  : {} delegation, {} instantiation, {} invocations \
         ({} journalled replays)",
        stats.delegations_accepted, stats.instantiations, stats.invocations_ok, replays,
    );

    if !exactly_once {
        println!("chaos FAILED: server-side effects are not exactly-once");
        std::process::exit(1);
    }
    if retries == 0 || server.dedup_hits() == 0 {
        println!("chaos FAILED: schedule too tame (no retry or no dedup replay) — pick a seed");
        std::process::exit(1);
    }
    if replays != server.dedup_hits() {
        println!(
            "chaos FAILED: {replays} journalled replays vs {} dedup hits",
            server.dedup_hits()
        );
        std::process::exit(1);
    }
    println!("chaos ok: exactly-once held under {} injected faults", faults.injected());
    Ok(())
}
