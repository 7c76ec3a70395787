//! Integration: the complete stack over a real TCP socket — manager CLI
//! semantics (delegate / instantiate / invoke / lifecycle) against a
//! threaded `mbd-server`-style process, including authenticated mode and
//! delegation-by-agents over the protocol.

use ber::BerValue;
use mbd::core::{DpiQuota, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::tcp::{read_frame, write_frame};
use mbd::rds::{
    codec, ErrorCode, RdsClient, RdsError, RdsPipeline, RdsRequest, RdsResponse, ServerHealth,
    TcpDuplex, TcpServer, TcpServerConfig,
};
use mbd_auth::Principal;

fn spawn_server_with(config: ElasticConfig, key: Option<Vec<u8>>) -> (TcpServer, ElasticProcess) {
    let process = ElasticProcess::new(config);
    mbd::snmp::mib2::install_system(process.mib(), "tcp device", "tcp1").unwrap();
    let server = MbdServer::with_policy(process.clone(), mbd_auth::Acl::allow_by_default(), key);
    // The transport records into the process's domain, as in mbd-server.
    let tcp = TcpServer::spawn("127.0.0.1:0", server).unwrap();
    (tcp, process)
}

fn spawn_server(key: Option<Vec<u8>>) -> (TcpServer, ElasticProcess) {
    spawn_server_with(ElasticConfig::default(), key)
}

#[test]
fn full_stack_over_tcp() {
    let (tcp, _process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "tcp-mgr");

    client.delegate("sysname", r#"fn read() { return mib_get("1.3.6.1.2.1.1.1.0"); }"#).unwrap();
    let dpi = client.instantiate("sysname").unwrap();
    assert_eq!(client.invoke(dpi, "read", &[]).unwrap(), BerValue::from("tcp device"));
    client.suspend(dpi).unwrap();
    client.resume(dpi).unwrap();
    client.terminate(dpi).unwrap();
    assert_eq!(client.list_programs().unwrap(), vec!["sysname".to_string()]);
    tcp.shutdown();
}

#[test]
fn authenticated_tcp_stack() {
    let (tcp, _process) = spawn_server(Some(b"wire-secret".to_vec()));
    let good = RdsClient::with_key(
        TcpDuplex::connect(tcp.local_addr()).unwrap(),
        "good",
        b"wire-secret".to_vec(),
    );
    good.delegate("f", "fn main() { return 9; }").unwrap();
    let dpi = good.instantiate("f").unwrap();
    assert_eq!(good.invoke(dpi, "main", &[]).unwrap(), BerValue::Integer(9));

    // Unauthenticated client over the same socket server is rejected.
    let bad = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "bad");
    assert!(bad.list_programs().is_err());
    tcp.shutdown();
}

#[test]
fn agent_side_delegation_visible_to_remote_manager() {
    let (tcp, process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    client
        .delegate(
            "mother",
            r#"fn spawn() {
                 dp_delegate("child", "fn hello() { return 123; }");
                 dp_instantiate("child");
                 return 0;
               }"#,
        )
        .unwrap();
    let mother = client.instantiate("mother").unwrap();
    client.invoke(mother, "spawn", &[]).unwrap();

    // The remote manager now sees both programs and both instances.
    let programs = client.list_programs().unwrap();
    assert_eq!(programs, vec!["child".to_string(), "mother".to_string()]);
    let instances = client.list_instances().unwrap();
    assert_eq!(instances.len(), 2);
    let child = instances.iter().find(|i| i.dp_name == "child").unwrap();
    assert_eq!(client.invoke(child.id, "hello", &[]).unwrap(), BerValue::Integer(123));

    // And the outcome notifications were recorded server-side.
    assert_eq!(process.drain_notifications().len(), 2);
    tcp.shutdown();
}

#[test]
fn one_request_carries_one_trace_id_everywhere() {
    let (tcp, process) = spawn_server(None);
    process.telemetry().enable_tracing(256);
    process.telemetry().enable_trace_store(mbd::telemetry::TraceStoreConfig::default());
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "noc");
    client.delegate("t", r#"fn main() { log("ping"); return 1; }"#).unwrap();
    let dpi = client.instantiate("t").unwrap();
    client.invoke(dpi, "main", &[]).unwrap();
    let trace = client.last_trace_id();
    assert_ne!(trace, 0);

    // (a) The server's telemetry spans — protocol and runtime layers —
    // finished under the request's trace id.
    let events = process.telemetry().trace_events();
    assert!(
        events.iter().any(|e| e.name == "rds.verb.invoke" && e.trace_id == trace),
        "rds span missing trace {trace:016x}: {events:?}"
    );
    assert!(
        events.iter().any(|e| e.name == "ep.invoke" && e.trace_id == trace),
        "runtime span missing trace {trace:016x}"
    );
    // Every span the transport and the front-end record belongs to some
    // request's tree: none finishes outside a trace scope.
    assert!(events.iter().all(|e| e.trace_id != 0), "orphan span: {events:?}");
    // (b) The dpi's accounting row shows the same trace as last toucher.
    assert_eq!(process.dpi_account(dpi).unwrap().last_trace_id, trace);
    // (c) The audit journal records the request under the trace.
    let records = client.read_journal(0).unwrap();
    assert!(records.iter().any(|r| r.verb == "invoke" && r.trace_id == trace && r.dpi == dpi.0));
    // (d) The agent's log line is prefixed with the trace.
    let log = process.drain_log();
    assert!(
        log.iter().any(|l| l.contains(&format!("[{trace:016x}]"))),
        "no traced log line in {log:?}"
    );
    tcp.shutdown();
}

#[test]
fn read_profile_returns_the_full_waterfall_for_a_slow_request() {
    // Profiling on (1-in-4 sampling) and a tail-sampling store whose
    // slow threshold retains every traced request.
    let config = ElasticConfig { profile_sample: 4, ..ElasticConfig::default() };
    let (tcp, process) = spawn_server_with(config, None);
    process.telemetry().enable_tracing(1024);
    process.telemetry().enable_trace_store(mbd::telemetry::TraceStoreConfig {
        slow_ns: 1,
        ..mbd::telemetry::TraceStoreConfig::default()
    });

    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "prof-mgr");
    client
        .delegate(
            "spin",
            "fn main(n) { var i = 0; var t = 0; \
             while (i < n) { i = i + 1; t = t + i; } return t; }",
        )
        .unwrap();
    let dpi = client.instantiate("spin").unwrap();
    client.invoke(dpi, "main", &[BerValue::Integer(30_000)]).unwrap();
    let trace = client.last_trace_id();
    assert_ne!(trace, 0);

    let (tid, kept, spans, stacks) = client.read_profile(trace, dpi.0).unwrap();
    assert_eq!(tid, trace, "the requested tree came back");
    assert_eq!(kept, "slow", "a 30k-iteration invoke crosses the 1 ns threshold");

    // Every stage of the waterfall is present, under the one trace id.
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span `{name}` missing from {spans:?}"))
    };
    let root = find("rds.request");
    let conn_read = find("rds.conn.read");
    let queue_wait = find("rds.tcp.queue_wait");
    let decode = find("rds.decode");
    let verb = find("rds.verb.invoke");
    let ep_invoke = find("ep.invoke");
    let vm_run = find("ep.vm_run");
    let encode = find("rds.encode");
    for s in &spans {
        assert_eq!(s.trace_id, trace, "span {} carries a foreign trace", s.name);
    }

    // Parent edges reconstruct the tree: transport and codec stages hang
    // off the request root, the runtime stages nest through the verb.
    for child in [conn_read, queue_wait, decode, verb, encode] {
        assert_eq!(child.parent_span_id, root.span_id, "{} not a child of the root", child.name);
    }
    assert_eq!(ep_invoke.parent_span_id, verb.span_id);
    assert_eq!(vm_run.parent_span_id, ep_invoke.span_id);

    // The root's direct children tile the request without overlap:
    // read ends before the queue wait starts, which ends before decode
    // starts, and so on through encode.
    let mut stages = [conn_read, queue_wait, decode, verb, encode];
    stages.sort_by_key(|s| s.start_ns);
    for pair in stages.windows(2) {
        assert!(
            pair[0].start_ns + pair[0].duration_ns <= pair[1].start_ns,
            "stages `{}` and `{}` overlap",
            pair[0].name,
            pair[1].name,
        );
    }
    // And the VM run sits inside the invoke span.
    assert!(vm_run.start_ns >= ep_invoke.start_ns);
    assert!(
        vm_run.start_ns + vm_run.duration_ns <= ep_invoke.start_ns + ep_invoke.duration_ns + 1_000,
        "vm_run escapes ep.invoke"
    );

    // The VM profiler attributed the loop: folded stacks exist and the
    // dominant weight is in `main`.
    assert!(!stacks.is_empty(), "profiling enabled but no folded stacks");
    let weight = |line: &str| -> u64 { line.rsplit(' ').next().unwrap().parse().unwrap_or(0) };
    let total: u64 = stacks.iter().map(|l| weight(l)).sum();
    let in_main: u64 = stacks.iter().filter(|l| l.starts_with("main@")).map(|l| weight(l)).sum();
    assert!(total > 0);
    assert!(in_main * 10 >= total * 8, "main's loop holds {in_main}/{total} samples, want >= 80%");

    // trace_id 0 = newest retained tree; the ReadProfile that fetched
    // the first tree is itself traced, so just assert we get one.
    let (latest_tid, _, latest_spans, _) = client.read_profile(0, 0).unwrap();
    assert_ne!(latest_tid, 0);
    assert!(!latest_spans.is_empty());
    tcp.shutdown();
}

#[test]
fn runtime_spans_are_children_on_the_request_tree() {
    // The VM runs on the RDS worker that owns the request's capture, so
    // the runtime spans land on that request's tree.
    let (tcp, process) = spawn_server(None);
    process.telemetry().enable_tracing(1024);
    process.telemetry().enable_trace_store(mbd::telemetry::TraceStoreConfig {
        slow_ns: 1,
        ..mbd::telemetry::TraceStoreConfig::default()
    });

    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "exec-mgr");
    client
        .delegate(
            "spin",
            "fn main(n) { var i = 0; var t = 0; \
             while (i < n) { i = i + 1; t = t + i; } return t; }",
        )
        .unwrap();
    let dpi = client.instantiate("spin").unwrap();
    client.invoke(dpi, "main", &[BerValue::Integer(30_000)]).unwrap();
    let trace = client.last_trace_id();
    assert_ne!(trace, 0);

    let (tid, _, spans, _) = client.read_profile(trace, dpi.0).unwrap();
    assert_eq!(tid, trace);
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span `{name}` missing from {spans:?}"))
    };
    let verb = find("rds.verb.invoke");
    let ep_invoke = find("ep.invoke");
    let vm_run = find("ep.vm_run");
    for s in &spans {
        assert_eq!(s.trace_id, trace, "span {} carries a foreign trace", s.name);
    }
    // The runtime spans nest through the verb: verb > ep.invoke > ep.vm_run.
    assert_eq!(ep_invoke.parent_span_id, verb.span_id);
    assert_eq!(vm_run.parent_span_id, ep_invoke.span_id);
    // And the VM window sits inside the invoke interval.
    assert!(vm_run.start_ns >= ep_invoke.start_ns);
    assert!(
        vm_run.start_ns + vm_run.duration_ns <= ep_invoke.start_ns + ep_invoke.duration_ns + 1_000
    );
    tcp.shutdown();
}

#[test]
fn legacy_untraced_frames_interoperate_over_tcp() {
    let (tcp, _process) = spawn_server(None);
    // A pre-trace manager encodes with the legacy envelope (no trace
    // context) and still round-trips against the traced server.
    let mut old_mgr = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    let req = codec::encode_request(
        &RdsRequest::DelegateProgram {
            dp_name: "old".to_string(),
            language: "dpl".to_string(),
            source: b"fn main() { return 4; }".to_vec(),
        },
        &Principal::new("legacy"),
        1,
        None,
    );
    write_frame(&mut old_mgr, &req).unwrap();
    let resp = read_frame(&mut old_mgr).unwrap().expect("a reply before close");
    let (decoded, id) = codec::decode_response(&resp, None).unwrap();
    assert_eq!(id, 1);
    assert!(matches!(decoded, RdsResponse::Ok));

    // A modern traced client shares the same server and program.
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "new");
    let dpi = client.instantiate("old").unwrap();
    assert_eq!(client.invoke(dpi, "main", &[]).unwrap(), BerValue::Integer(4));

    // The journal keeps both stories apart: the legacy request carries
    // trace 0, the modern ones a real trace id.
    let records = client.read_journal(0).unwrap();
    assert!(records
        .iter()
        .any(|r| r.verb == "delegate" && r.trace_id == 0 && r.principal == "legacy" && r.ok));
    assert!(records.iter().any(|r| r.verb == "invoke" && r.trace_id != 0 && r.principal == "new"));
    tcp.shutdown();
}

/// `levels` nested empty SEQUENCEs, as one TLV, built from the inside
/// out without recursion.
fn nested_sequences(levels: usize) -> Vec<u8> {
    let mut reversed = Vec::new();
    for _ in 0..levels {
        let len = reversed.len();
        if len < 0x80 {
            reversed.push(len as u8);
        } else {
            let bytes = len.to_be_bytes();
            let digits = &bytes[bytes.iter().position(|&b| b != 0).unwrap()..];
            reversed.extend(digits.iter().rev());
            reversed.push(0x80 | digits.len() as u8);
        }
        reversed.push(0x30);
    }
    reversed.reverse();
    reversed
}

/// An `Invoke` whose one argument nests 100 000 SEQUENCEs (a ~480 kB
/// frame, far below the frame cap) is refused as undecodable instead of
/// overflowing the decoding worker's stack, and the server serves on.
#[test]
fn deeply_nested_invoke_arguments_are_refused_not_fatal() {
    let (tcp, process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    client.delegate("f", "fn main(x) { return 7; }").unwrap();
    let dpi = client.instantiate("f").unwrap();

    // Encode the invoke with an OCTET STRING holding the nesting's
    // content: it has the same length header, and it ends the frame, so
    // turning its tag into SEQUENCE's yields the nested argument.
    let nested = nested_sequences(100_000);
    let header = if nested[1] < 0x80 { 2 } else { 2 + usize::from(nested[1] & 0x7f) };
    let arg = BerValue::OctetString(nested[header..].to_vec());
    let req = RdsRequest::Invoke { dpi, entry: "main".to_string(), args: vec![arg] };
    let mut frame = codec::encode_request(&req, &Principal::new("deep"), 1, None);
    let tag_at = frame.len() - nested.len();
    assert_eq!(&frame[tag_at + 1..tag_at + header], &nested[1..header]);
    frame[tag_at] = 0x30;

    let mut raw = std::net::TcpStream::connect(tcp.local_addr()).unwrap();
    write_frame(&mut raw, &frame).unwrap();
    let resp = read_frame(&mut raw).unwrap().expect("a reply before close");
    let (decoded, _) = codec::decode_response(&resp, None).unwrap();
    assert!(matches!(decoded, RdsResponse::Error { .. }), "{decoded:?}");
    let counter = process.telemetry().snapshot().counter("rds.decode_fail.codec");
    assert_eq!(counter, Some(1));
    assert_eq!(client.invoke(dpi, "main", &[BerValue::Integer(1)]).unwrap(), BerValue::Integer(7));
    tcp.shutdown();
}

/// Sources nested past `dpl::MAX_NESTING` — a thousand parentheses, and
/// a 10 000-term operator chain the parser builds in a loop but check
/// and compile would recurse over — are Translator errors, not a stack
/// overflow on the executor worker that compiles them; the server keeps
/// serving.
#[test]
fn deeply_nested_sources_are_translation_errors_not_fatal() {
    let (tcp, _process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    let parens = format!("fn main() {{ return {}1{}; }}", "(".repeat(1_000), ")".repeat(1_000));
    let chain = format!("fn main() {{ return 1{}; }}", " + 1".repeat(9_999));
    for source in [parens, chain] {
        let err = client.delegate("deep", &source).unwrap_err();
        assert!(
            matches!(&err, RdsError::Remote { code: ErrorCode::TranslationFailed, message: m }
                if m.contains("nesting deeper")),
            "{err:?}"
        );
    }
    client.delegate("f", "fn main(x) { return x + 1; }").unwrap();
    let dpi = client.instantiate("f").unwrap();
    assert_eq!(client.invoke(dpi, "main", &[BerValue::Integer(1)]).unwrap(), BerValue::Integer(2));
    tcp.shutdown();
}

/// A dp result nested deeper than `ber::MAX_DEPTH` would be refused by
/// every client's decoder, so the server answers it with an `Error`;
/// one level less comes back whole.
#[test]
fn a_result_nested_past_the_decode_bound_is_an_error_reply() {
    let (tcp, _process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    let src =
        "fn main(n) { var x = []; var i = 1; while (i < n) { x = [x]; i = i + 1; } return x; }";
    client.delegate("deep", src).unwrap();
    let dpi = client.instantiate("deep").unwrap();
    let limit = ber::MAX_DEPTH;
    let value = client.invoke(dpi, "main", &[BerValue::Integer(limit as i64)]).unwrap();
    assert!(value.nests_deeper_than(limit - 1) && !value.nests_deeper_than(limit));
    let err = client.invoke(dpi, "main", &[BerValue::Integer(limit as i64 + 1)]).unwrap_err();
    let message = format!("result nests deeper than {limit}");
    assert!(
        matches!(&err, RdsError::Remote { code: ErrorCode::RuntimeFault, message: m } if *m == message),
        "{err:?}"
    );
    tcp.shutdown();
}

#[test]
fn quota_breach_over_tcp_correlates_by_trace() {
    let config = ElasticConfig {
        quota: Some(DpiQuota { max_invocations: Some(2), ..DpiQuota::default() }),
        ..ElasticConfig::default()
    };
    let (tcp, process) = spawn_server_with(config, None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "noc");
    client.delegate("f", "fn main() { return 1; }").unwrap();
    let dpi = client.instantiate("f").unwrap();
    client.invoke(dpi, "main", &[]).unwrap();
    client.invoke(dpi, "main", &[]).unwrap();
    // The third invocation crosses the limit and trips the brake.
    client.invoke(dpi, "main", &[]).unwrap();
    let tripping_trace = client.last_trace_id();
    assert!(client.invoke(dpi, "main", &[]).is_err(), "suspended dpi refuses invocations");

    let instances = client.list_instances().unwrap();
    assert_eq!(
        instances.iter().find(|i| i.id == dpi).unwrap().state,
        mbd::rds::DpiState::Suspended
    );

    // Notification and journal entry both carry the tripping trace.
    let notes = process.drain_notifications();
    let breach = notes.iter().find(|n| n.dpi == dpi).expect("breach notification");
    assert_eq!(breach.trace_id, tripping_trace);
    let records = client.read_journal(0).unwrap();
    let journaled = records
        .iter()
        .find(|r| r.verb == "quota.breach" && r.dpi == dpi.0)
        .expect("breach journaled");
    assert_eq!(journaled.trace_id, tripping_trace);
    assert!(!journaled.ok);
    assert!(journaled.detail.contains("invocations"));
    tcp.shutdown();
}

#[test]
fn alert_fires_and_clears_with_hysteresis_over_tcp() {
    let (tcp, process) = spawn_server(None);
    let telemetry = process.telemetry();
    telemetry.enable_history(mbd::telemetry::HistoryConfig::default());
    telemetry
        .enable_alerts(vec![
            mbd::telemetry::AlertRule::parse("mbd.queue.depth>10:for=2,clear=2").unwrap()
        ]);
    let depth = telemetry.gauge("mbd.queue.depth");
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "slo-mgr");

    // Play the server binary's 1 Hz duty cycle by hand: set the level,
    // sample + evaluate, and journal each edge the way `mbd-server`
    // does (trace id minted per edge, `ok` false on fire).
    let step = |level: u64| -> Vec<(mbd::telemetry::AlertTransition, u64)> {
        depth.set(level);
        telemetry
            .sample_and_evaluate()
            .into_iter()
            .map(|edge| {
                let trace_id = 0xA1E7_0000_0000_0001u64 | (edge.t_s << 16);
                process.journal().record(
                    0,
                    trace_id,
                    "server",
                    if edge.fired { "alert.fire" } else { "alert.clear" },
                    0,
                    !edge.fired,
                    &format!("{} value {} threshold {}", edge.rule, edge.value, edge.threshold),
                );
                (edge, trace_id)
            })
            .collect()
    };

    // One breaching sample is not an incident (for=2)...
    assert!(step(50).is_empty(), "hysteresis held after a single breach");
    // ...the second consecutive breach fires.
    let fired = step(60);
    assert_eq!(fired.len(), 1);
    assert!(fired[0].0.fired);
    let fire_trace = fired[0].1;
    // One healthy sample does not clear (clear=2)...
    assert!(step(2).is_empty(), "hysteresis held after a single healthy sample");
    // ...the second consecutive healthy sample does.
    let cleared = step(1);
    assert_eq!(cleared.len(), 1);
    assert!(!cleared[0].0.fired);
    let clear_trace = cleared[0].1;

    // The remote manager sees both edges in the journal, each under a
    // real trace id; the fire is the `err`-side record.
    let records = client.read_journal(0).unwrap();
    let fire = records.iter().find(|r| r.verb == "alert.fire").expect("fire journaled");
    assert_eq!(fire.trace_id, fire_trace);
    assert_ne!(fire.trace_id, 0);
    assert!(!fire.ok);
    assert!(fire.detail.contains("mbd.queue.depth>10"), "detail names the rule: {}", fire.detail);
    let clear = records.iter().find(|r| r.verb == "alert.clear").expect("clear journaled");
    assert_eq!(clear.trace_id, clear_trace);
    assert!(clear.ok);

    // And the whole excursion is readable back over ReadMetrics: the
    // gauge's window covers the spike, and the rule reports one
    // completed firing episode.
    let (_now, series, alerts) = client.read_metrics("mbd.queue.depth", 0, 1).unwrap();
    let s = series.iter().find(|s| s.name == "mbd.queue.depth").expect("gauge series retained");
    assert_eq!(s.kind, "gauge");
    assert!(s.points.iter().any(|p| p.max >= 60), "window covers the spike: {:?}", s.points);
    assert!(s.points.iter().any(|p| p.min <= 1), "window covers the recovery");
    let a = alerts.iter().find(|a| a.metric == "mbd.queue.depth").expect("rule visible");
    assert!(!a.firing, "episode closed");
    assert_eq!(a.fired_count, 1);
    tcp.shutdown();
}

#[test]
fn many_sequential_exchanges_on_one_connection() {
    let (tcp, _process) = spawn_server(None);
    let client = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    client.delegate("inc", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let dpi = client.instantiate("inc").unwrap();
    for expected in 1..=200i64 {
        assert_eq!(client.invoke(dpi, "bump", &[]).unwrap(), BerValue::Integer(expected));
    }
    tcp.shutdown();
}

#[test]
fn pipelined_invocations_over_the_full_stack() {
    // A stateful agent bumped 50 times through a window of 8: replies
    // arrive out of order, but exactly-once execution means the
    // returned totals form exactly the set 1..=50.
    let (tcp, process) = spawn_server(None);
    let serial = RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr");
    serial.delegate("inc", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let dpi = serial.instantiate("inc").unwrap();

    let mut pipe =
        RdsPipeline::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "pipe-mgr").with_window(8);
    const N: i64 = 50;
    for _ in 0..N {
        pipe.submit(&RdsRequest::Invoke { dpi, entry: "bump".to_string(), args: Vec::new() });
    }
    let mut totals: Vec<i64> = pipe
        .drain()
        .into_iter()
        .map(|(id, result)| match result {
            Ok(RdsResponse::Result { value: BerValue::Integer(total) }) => total,
            other => panic!("request {id}: unexpected {other:?}"),
        })
        .collect();
    totals.sort_unstable();
    assert_eq!(totals, (1..=N).collect::<Vec<_>>(), "each bump executed exactly once");
    // The serial client and the pipeline saw the same agent.
    assert_eq!(serial.invoke(dpi, "bump", &[]).unwrap(), BerValue::Integer(N + 1));
    assert_eq!(process.stats().invocations_ok, (N + 1) as u64);
    tcp.shutdown();
}

#[test]
fn hundreds_of_idle_connections_do_not_starve_active_ones() {
    // The reactor decouples open connections from worker threads: with
    // the old thread-per-served-connection pool this test would park
    // forever behind the idle peers.
    let (tcp, _process) = spawn_server(None);
    let addr = tcp.local_addr();
    let idle: Vec<std::net::TcpStream> =
        (0..512).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
    // Wait for the reactor to register them all.
    for _ in 0..400 {
        if tcp.open_connections() >= idle.len() as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(tcp.open_connections(), idle.len() as u64);
    assert_eq!(tcp.health(), ServerHealth::Accepting, "idle load is not overload");
    assert_eq!(tcp.sheds(), 0);

    // Full protocol still round-trips promptly on a fresh connection.
    let client = RdsClient::new(TcpDuplex::connect(addr).unwrap(), "active");
    client.delegate("f", "fn main() { return 7; }").unwrap();
    let dpi = client.instantiate("f").unwrap();
    assert_eq!(client.invoke(dpi, "main", &[]).unwrap(), BerValue::Integer(7));
    assert_eq!(tcp.sheds(), 0);

    // Shutdown stays bounded with every idle socket still open.
    let begin = std::time::Instant::now();
    tcp.shutdown();
    assert!(
        begin.elapsed() < std::time::Duration::from_secs(3),
        "drain took {:?} with 512 idle connections",
        begin.elapsed()
    );
    drop(idle);
}

#[test]
fn a_keyed_mbd_server_sheds_with_signed_busy_frames_and_journals_the_burst() {
    // One worker, a one-deep queue, and the key given to the RDS server
    // only: the transport signs its sheds with it, journals them and
    // freezes the flight recorder.
    const KEY: &[u8] = b"shed-secret";
    let process = ElasticProcess::new(ElasticConfig::default());
    process.telemetry().enable_tracing(1024);
    process.telemetry().enable_trace_store(mbd::telemetry::TraceStoreConfig::default());
    let server = MbdServer::with_policy(
        process.clone(),
        mbd_auth::Acl::allow_by_default(),
        Some(KEY.to_vec()),
    );
    let config = TcpServerConfig { workers: 1, backlog: 1, ..TcpServerConfig::default() };
    let tcp = TcpServer::spawn_with("127.0.0.1:0", config, server).unwrap();
    let client =
        RdsClient::with_key(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr", KEY.to_vec());
    client
        .delegate("spin", "fn main(n) { var i = 0; while (i < n) { i = i + 1; } return i; }")
        .unwrap();
    let dpi = client.instantiate("spin").unwrap();

    // A slow invoke holds the worker while a pipelined burst overflows
    // the queue behind it.
    let duplex = TcpDuplex::connect(tcp.local_addr()).unwrap();
    let mut pipe = RdsPipeline::with_key(duplex, "burst", KEY.to_vec()).with_window(8);
    let args = vec![BerValue::Integer(50_000)];
    pipe.submit(&RdsRequest::Invoke { dpi, entry: "main".to_string(), args });
    for _ in 0..6 {
        pipe.submit(&RdsRequest::ListPrograms);
    }
    let results = pipe.drain();
    let busy = results
        .iter()
        .filter(|(_, r)| matches!(r, Err(RdsError::Remote { code: ErrorCode::Busy, .. })))
        .count();
    assert!(busy > 0, "the burst was not shed: {results:?}");
    assert!(
        results
            .iter()
            .all(|(_, r)| r.is_ok()
                || matches!(r, Err(RdsError::Remote { code: ErrorCode::Busy, .. }))),
        "a shed reply failed its digest check: {results:?}"
    );
    let sheds = tcp.sheds();
    assert_eq!(sheds, busy as u64);
    tcp.shutdown();

    let journal = process.journal().tail(0);
    let shed = journal.iter().find(|r| r.verb == "shed").expect("the shed is journaled");
    assert_eq!(
        (shed.principal.as_str(), shed.trace_id, shed.dpi, shed.ok),
        ("server", 0, 0, false)
    );
    assert_eq!(shed.detail, "execution tier saturated; request shed with Busy");
    let trees = process.telemetry().trace_store().unwrap().trees();
    assert!(
        trees.iter().any(|t| t.kept == mbd::telemetry::Keep::Frozen && t.reason == "shed burst"),
        "no frozen shed-burst tree"
    );
    // One queue-wait record per request a worker served, and no second
    // timer for the same interval.
    let snap = process.telemetry().snapshot();
    let served = 2 + results.len() as u64 - sheds;
    assert_eq!(snap.histogram("rds.tcp.queue_wait").unwrap().count(), served);
    let queue_waits: Vec<&str> = snap
        .histograms
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.ends_with("queue_wait"))
        .collect();
    assert_eq!(queue_waits, ["rds.tcp.queue_wait"]);
}
