//! Integration: the full MbD stack — manager ↔ RDS ↔ elastic process ↔
//! DPL ↔ MIB — exercised end to end.

use ber::BerValue;
use mbd::core::{ElasticConfig, ElasticProcess, MbdServer, PeriodicDriver};
use mbd::rds::{ErrorCode, LoopbackDuplex, RdsClient, RdsError, TcpDuplex, TcpServer};
use mbd::snmp::mib2;
use std::sync::Arc;
use std::time::Duration;

fn loopback_client(server: Arc<MbdServer>) -> RdsClient<LoopbackDuplex> {
    let duplex = LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes));
    RdsClient::new(duplex, "it-manager")
}

#[test]
fn delegated_agent_reads_device_mib_over_rds() {
    let process = ElasticProcess::new(ElasticConfig::default());
    mib2::install_system(process.mib(), "integration device", "itd").unwrap();
    mib2::install_interfaces(process.mib(), 2, 10_000_000).unwrap();
    process.mib().counter_add(&mib2::if_in_octets(1), 777).unwrap();

    let client = loopback_client(Arc::new(MbdServer::open(process)));
    client
        .delegate(
            "reader",
            r#"fn read(ifindex) {
                 return mib_get("1.3.6.1.2.1.2.2.1.10." + str(ifindex));
               }"#,
        )
        .unwrap();
    let dpi = client.instantiate("reader").unwrap();
    let v = client.invoke(dpi, "read", &[BerValue::Integer(1)]).unwrap();
    assert_eq!(v, BerValue::Integer(777));
    let v = client.invoke(dpi, "read", &[BerValue::Integer(2)]).unwrap();
    assert_eq!(v, BerValue::Integer(0));
}

#[test]
fn agent_faults_are_contained_and_reported_through_the_protocol() {
    let client =
        loopback_client(Arc::new(MbdServer::open(ElasticProcess::new(ElasticConfig::default()))));
    client.delegate("bomb", "fn main() { return [1][9]; }").unwrap();
    let dpi = client.instantiate("bomb").unwrap();
    let err = client.invoke(dpi, "main", &[]).unwrap_err();
    assert!(matches!(err, RdsError::Remote { code: ErrorCode::RuntimeFault, .. }));
    // The server is still healthy: delegate and run another agent.
    client.delegate("ok", "fn main() { return 1; }").unwrap();
    let dpi2 = client.instantiate("ok").unwrap();
    assert_eq!(client.invoke(dpi2, "main", &[]).unwrap(), BerValue::Integer(1));
}

#[test]
fn authenticated_manager_and_server_interoperate() {
    let server = Arc::new(MbdServer::with_policy(
        ElasticProcess::new(ElasticConfig::default()),
        mbd_auth::Acl::allow_by_default(),
        Some(b"sharedkey".to_vec()),
    ));
    let s = Arc::clone(&server);
    let client = RdsClient::with_key(
        LoopbackDuplex::new(move |bytes: &[u8]| s.process_request(bytes)),
        "sec-manager",
        b"sharedkey".to_vec(),
    );
    client.delegate("f", "fn main() { return 42; }").unwrap();
    let dpi = client.instantiate("f").unwrap();
    assert_eq!(client.invoke(dpi, "main", &[]).unwrap(), BerValue::Integer(42));

    // An unauthenticated client is locked out.
    let s = Arc::clone(&server);
    let rogue =
        RdsClient::new(LoopbackDuplex::new(move |bytes: &[u8]| s.process_request(bytes)), "rogue");
    assert!(rogue.list_programs().is_err());
}

#[test]
fn threaded_server_supports_concurrent_managers() {
    let process = ElasticProcess::new(ElasticConfig::default());
    process.delegate("counter", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let tcp = TcpServer::spawn("127.0.0.1:0", MbdServer::open(process)).unwrap();

    let shared = Arc::new(RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr"));
    let dpi = shared.instantiate("counter").unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                c.invoke(dpi, "bump", &[]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // 100 serialized increments on the shared dpi state.
    let final_n = shared.invoke(dpi, "bump", &[]).unwrap();
    assert_eq!(final_n, BerValue::Integer(101));
    tcp.shutdown();
}

#[test]
fn periodic_driver_with_notifications_and_snmp_visibility() {
    let process = ElasticProcess::new(ElasticConfig::default());
    mib2::install_concentrator(process.mib()).unwrap();
    process
        .delegate(
            "pulse",
            r#"var beats = 0;
               fn tick() {
                   beats = beats + 1;
                   mib_publish("1.3.6.1.4.1.20100.5.1.0", beats);
                   if (beats == 3) { notify("third beat"); }
                   return beats;
               }"#,
        )
        .unwrap();
    let dpi = process.instantiate("pulse").unwrap();
    let driver = PeriodicDriver::start(process.clone(), dpi, "tick", Duration::from_micros(200));
    while driver.runs() < 5 {
        std::thread::yield_now();
    }
    driver.stop().unwrap();

    // The agent's published object is visible through the SNMP OCP.
    let ocp = mbd::core::ocp::SnmpOcp::new(process.clone(), "public");
    let mut mgr = mbd::snmp::manager::SnmpManager::new("public");
    let req = mgr.get_request(&["1.3.6.1.4.1.20100.5.1.0".parse().unwrap()]).unwrap();
    let resp = ocp.handle(&req).unwrap();
    let vbs = mgr.parse_response(&resp).unwrap();
    assert!(vbs[0].value.as_i64().unwrap() >= 5);

    // And the notification arrived exactly once.
    let notes = process.drain_notifications();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].value, dpl::Value::Str("third beat".to_string()));
}

#[test]
fn redelegation_upgrades_an_agent_in_place() {
    let client =
        loopback_client(Arc::new(MbdServer::open(ElasticProcess::new(ElasticConfig::default()))));
    client.delegate("algo", "fn main(x) { return x + 1; }").unwrap();
    let v1 = client.instantiate("algo").unwrap();
    assert_eq!(client.invoke(v1, "main", &[BerValue::Integer(10)]).unwrap(), BerValue::Integer(11));

    // Version 2 of the algorithm, delegated while v1 keeps running.
    client.delegate("algo", "fn main(x) { return x * 2; }").unwrap();
    let v2 = client.instantiate("algo").unwrap();
    assert_eq!(client.invoke(v1, "main", &[BerValue::Integer(10)]).unwrap(), BerValue::Integer(11));
    assert_eq!(client.invoke(v2, "main", &[BerValue::Integer(10)]).unwrap(), BerValue::Integer(20));
}
