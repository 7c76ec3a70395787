//! Self-instrumentation by delegation: the server monitors itself.
//!
//! PR 2's telemetry layer exported the server's own latency histograms,
//! counters and gauges as the `mbdTelemetry` OCP subtree
//! (`enterprises.20100.4`); the history layer adds `mbdHistory`
//! (`enterprises.20100.7`) — trailing-60 s windowed summaries of every
//! series, plus the SLO alert engine's rule states. That closes a loop
//! the paper only gestures at: the *same* delegation machinery that
//! manages network devices can manage the management server, because
//! its introspection data is ordinary MIB data. Here a delegated agent
//! computes a health function over the server's own *windowed* p99
//! invoke latency and notification backlog — a 60 s average and peak,
//! not a single instantaneous sample — and defers to the server's own
//! alert engine: any firing SLO rule degrades the verdict. All of it
//! uses nothing but `mib_walk`/`mib_get`, and the agent notifies the
//! manager on degradation transitions.
//!
//! Run with: `cargo run --example self_health`

use mbd::core::ocp::SnmpOcp;
use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{LoopbackDuplex, RdsClient};
use std::sync::Arc;

/// The delegated self-health agent. It resolves history rows by *name*
/// (the name column of the `mbdHistory` table), so it survives series
/// appearing in any order.
const SELF_HEALTH: &str = r#"
var alarmed = false;

// Index arc of the row whose name-column value equals `name`.
fn row_index(column_oid, name) {
    var names = mib_walk(column_oid);
    for (oid in names) {
        if (names[oid] == name) {
            var parts = split(oid, ".");
            return parts[len(parts) - 1];
        }
    }
    return "";
}

// The server health function, judged over the trailing 60 s window:
// degraded when the *average* p99 invoke latency (µs, column 4) or the
// *peak* undrained-notification backlog (column 6) crosses its
// threshold — or when the server's own alert engine has any rule
// firing (mbdAlerts column 3).
fn check(p99_limit_us, queue_limit) {
    var hist = "1.3.6.1.4.1.20100.7.1.1";
    var p = row_index(hist + ".1", "ep.invoke.p99");
    var q = row_index(hist + ".1", "ep.notifications_queued");
    if (p == "" || q == "") {
        return ["no-data", 0, 0, 0];
    }
    var p99_avg = mib_get(hist + ".4." + p);
    var p99_peak = mib_get(hist + ".6." + p);
    var depth_peak = mib_get(hist + ".6." + q);
    var firing = 0;
    var states = mib_walk("1.3.6.1.4.1.20100.7.2.1.3");
    for (oid in states) {
        firing = firing + states[oid];
    }
    var degraded = p99_avg > p99_limit_us || depth_peak > queue_limit || firing > 0;
    if (degraded && !alarmed) {
        alarmed = true;
        notify(["server degraded", p99_avg, p99_peak, depth_peak, firing]);
    }
    if (!degraded && alarmed) {
        alarmed = false;
        notify(["server recovered", p99_avg, p99_peak, depth_peak, firing]);
    }
    if (degraded) { return ["degraded", p99_avg, p99_peak, depth_peak, firing]; }
    return ["healthy", p99_avg, p99_peak, depth_peak, firing];
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process.clone()));

    // Arm the history rings and one SLO rule: p99 invoke latency over
    // 1 µs fires after a single breaching sample (every real invoke
    // crosses it — the point is to watch the engine drive the verdict).
    let telemetry = process.telemetry();
    telemetry.enable_history(mbd::telemetry::HistoryConfig::default());
    telemetry
        .enable_alerts(vec![mbd::telemetry::AlertRule::parse("ep.invoke.p99>1us:for=1,clear=1")?]);

    // A manager drives ordinary RDS traffic so the latency histograms
    // have something to say.
    let s = Arc::clone(&server);
    let client = RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| s.process_request(b)), "noc");
    client.delegate(
        "work",
        "fn main(n) { var s = 0; for (i in range(n)) { s = s + i; } return s; }",
    )?;
    let worker = client.instantiate("work")?;
    for _ in 0..50 {
        client.invoke(worker, "main", &[mbd::ber::BerValue::Integer(200)])?;
    }

    // Ingest the registry into the history rings (the server binary's
    // background sampler does this once a second) — but do NOT let the
    // alert engine evaluate yet — then publish into the shared MIB.
    telemetry.sample_history();
    let ocp = SnmpOcp::new(process.clone(), "public");
    ocp.refresh();

    // Delegate the health agent to the server it is judging.
    process.delegate("self-health", SELF_HEALTH)?;
    let dpi = process.instantiate("self-health")?;

    // Generous thresholds, no rule firing yet: healthy.
    let verdict = process.invoke(dpi, "check", &[10_000_000.into(), 100.into()])?;
    println!("lenient thresholds        : {verdict}");

    // Now let the server's own alert engine evaluate: the p99 rule
    // fires, and the same lenient thresholds degrade — the delegated
    // agent defers to the server's SLO verdict.
    let edges = telemetry.sample_and_evaluate();
    for edge in &edges {
        println!("alert edge                : {} fired={}", edge.rule, edge.fired);
    }
    ocp.refresh();
    let verdict = process.invoke(dpi, "check", &[10_000_000.into(), 100.into()])?;
    println!("lenient + rule firing     : {verdict}");
    for n in process.drain_notifications() {
        println!("notification from {}: {}", n.dpi, n.value);
    }

    // The same numbers, straight off the registry.
    println!("\n{}", process.telemetry().snapshot_text());
    Ok(())
}
