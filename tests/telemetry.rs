//! Integration: the self-instrumentation loop end to end.
//!
//! RDS traffic → telemetry histograms → `mbdTelemetry` OCP subtree →
//! a delegated agent computes the server's health function from its own
//! introspection MIB and notifies on degradation.

use mbd::ber::BerValue;
use mbd::core::ocp::{self, SnmpOcp};
use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::dpl::Value;
use mbd::rds::{LoopbackDuplex, RdsClient};
use mbd::snmp::manager::SnmpManager;
use std::sync::Arc;

/// Same agent as `examples/self_health.rs`: health from p99 invoke
/// latency and notification-queue depth, read purely through the MIB.
const SELF_HEALTH: &str = r#"
var alarmed = false;

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

fn check(p99_limit_us, queue_limit) {
    var hist = "1.3.6.1.4.1.20100.4.3.1";
    var gauges = "1.3.6.1.4.1.20100.4.2.1";
    var h = row_index(hist + ".1", "ep.invoke");
    var g = row_index(gauges + ".1", "ep.notifications_queued");
    if (h == "" || g == "") {
        return ["no-data", 0, 0];
    }
    var p99 = mib_get(hist + ".6." + h);
    var depth = mib_get(gauges + ".2." + g);
    var degraded = p99 > p99_limit_us || depth > queue_limit;
    if (degraded && !alarmed) {
        alarmed = true;
        notify(["server degraded", p99, depth]);
    }
    if (!degraded && alarmed) {
        alarmed = false;
        notify(["server recovered", p99, depth]);
    }
    if (degraded) { return ["degraded", p99, depth]; }
    return ["healthy", p99, depth];
}
"#;

/// Builds a server, drives RDS verbs through the protocol front-end,
/// and returns the process plus a refreshed OCP.
fn busy_server() -> (ElasticProcess, SnmpOcp) {
    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process.clone()));
    let s = Arc::clone(&server);
    let client = RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| s.process_request(b)), "m");
    client.delegate("w", "fn main() { return 1; }").unwrap();
    let dpi = client.instantiate("w").unwrap();
    for _ in 0..20 {
        client.invoke(dpi, "main", &[]).unwrap();
    }
    client.suspend(dpi).unwrap();
    client.resume(dpi).unwrap();
    client.list_programs().unwrap();
    let ocp = SnmpOcp::new(process.clone(), "public");
    ocp.refresh();
    (process, ocp)
}

#[test]
fn delegated_agent_computes_server_health_from_introspection_mib() {
    let (process, ocp) = busy_server();

    process.delegate("self-health", SELF_HEALTH).unwrap();
    let dpi = process.instantiate("self-health").unwrap();

    // Generous thresholds: healthy, no notification.
    let v = process.invoke(dpi, "check", &[Value::Int(10_000_000), Value::Int(100)]).unwrap();
    match &v {
        Value::List(items) => assert_eq!(items[0], Value::Str("healthy".to_string())),
        other => panic!("unexpected verdict {other:?}"),
    }
    assert!(process.drain_notifications().is_empty());

    // Impossible thresholds: degraded, one notification, with the p99
    // the agent read from the MIB.
    ocp.refresh();
    let v = process.invoke(dpi, "check", &[Value::Int(0), Value::Int(0)]).unwrap();
    match &v {
        Value::List(items) => {
            assert_eq!(items[0], Value::Str("degraded".to_string()));
            assert!(
                matches!(items[1], Value::Int(p99) if p99 > 0),
                "p99 read back: {:?}",
                items[1]
            );
        }
        other => panic!("unexpected verdict {other:?}"),
    }
    let notes = process.drain_notifications();
    assert_eq!(notes.len(), 1);
    match &notes[0].value {
        Value::List(items) => assert_eq!(items[0], Value::Str("server degraded".to_string())),
        other => panic!("unexpected notification {other:?}"),
    }

    // Hysteresis: still degraded → no second notification; recovered →
    // exactly one recovery event.
    ocp.refresh();
    process.invoke(dpi, "check", &[Value::Int(0), Value::Int(0)]).unwrap();
    assert!(process.drain_notifications().is_empty(), "no repeat alarm while degraded");
    process.invoke(dpi, "check", &[Value::Int(10_000_000), Value::Int(100)]).unwrap();
    let notes = process.drain_notifications();
    assert_eq!(notes.len(), 1);
    match &notes[0].value {
        Value::List(items) => assert_eq!(items[0], Value::Str("server recovered".to_string())),
        other => panic!("unexpected notification {other:?}"),
    }
}

#[test]
fn rds_traffic_shows_up_in_per_verb_histograms() {
    let (process, _ocp) = busy_server();
    let snap = process.telemetry().snapshot();
    assert_eq!(snap.histogram("rds.verb.invoke").unwrap().count(), 20);
    assert_eq!(snap.histogram("rds.verb.suspend").unwrap().count(), 1);
    assert_eq!(snap.histogram("rds.verb.resume").unwrap().count(), 1);
    assert_eq!(snap.histogram("ep.invoke").unwrap().count(), 20);
    assert!(snap.histogram("rds.decode").unwrap().count() >= 24);
    // Protocol latency includes dispatch: per-verb p50 ≥ runtime p50.
    let rds = snap.histogram("rds.verb.invoke").unwrap();
    let ep = snap.histogram("ep.invoke").unwrap();
    assert!(rds.sum_ns >= ep.sum_ns, "transport-inclusive time can't be below runtime time");
}

#[test]
fn legacy_snmp_manager_reads_the_same_health_inputs() {
    let (_process, ocp) = busy_server();
    let mut mgr = SnmpManager::new("public");
    let rows = mgr.walk(&ocp::mbd_telemetry_root(), |req| ocp.handle(req)).unwrap();
    // The histogram summary table names every verb the agent can query.
    let names: Vec<String> = rows
        .iter()
        .filter(|vb| vb.oid.starts_with(&ocp::telemetry_hist_entry().child(1)))
        .filter_map(|vb| match &vb.value {
            BerValue::OctetString(b) => Some(String::from_utf8_lossy(b).into_owned()),
            _ => None,
        })
        .collect();
    assert!(names.iter().any(|n| n == "ep.invoke"), "names seen: {names:?}");
    assert!(names.iter().any(|n| n == "rds.verb.invoke"));
    // And a scalar Get against a summary cell answers like any MIB
    // object (index 0 is never assigned, so probe via walk result).
    let count_col = ocp::telemetry_hist_entry().child(2);
    let count_row = rows.iter().find(|vb| vb.oid.starts_with(&count_col)).unwrap();
    let req = mgr.get_request(std::slice::from_ref(&count_row.oid)).unwrap();
    let resp = ocp.handle(&req).unwrap();
    let vbs = mgr.parse_response(&resp).unwrap();
    assert_eq!(vbs[0].value, count_row.value);
}
