use super::*;
use crate::CoreError;
use dpl::{Budget, Value};
use rds::{DpiId, DpiState};

fn process() -> ElasticProcess {
    ElasticProcess::new(ElasticConfig::default())
}

#[test]
fn delegate_instantiate_invoke_cycle() {
    let p = process();
    p.delegate("adder", "fn main(a, b) { return a + b; }").unwrap();
    let dpi = p.instantiate("adder").unwrap();
    let v = p.invoke(dpi, "main", &[Value::Int(20), Value::Int(22)]).unwrap();
    assert_eq!(v, Value::Int(42));
    let stats = p.stats();
    assert_eq!(stats.delegations_accepted, 1);
    assert_eq!(stats.instantiations, 1);
    assert_eq!(stats.invocations_ok, 1);
}

#[test]
fn translator_rejects_bad_programs() {
    let p = process();
    // Syntax error.
    assert!(matches!(p.delegate("bad", "fn main( {").unwrap_err(), CoreError::Translation(_)));
    // Binding-rule violation.
    assert!(matches!(
        p.delegate("bad", "fn main() { return exec(\"/bin/sh\"); }").unwrap_err(),
        CoreError::Translation(_)
    ));
    assert_eq!(p.stats().delegations_rejected, 2);
    assert!(p.list_programs().is_empty());
}

#[test]
fn instances_have_independent_state() {
    let p = process();
    p.delegate("counter", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let a = p.instantiate("counter").unwrap();
    let b = p.instantiate("counter").unwrap();
    p.invoke(a, "bump", &[]).unwrap();
    p.invoke(a, "bump", &[]).unwrap();
    let vb = p.invoke(b, "bump", &[]).unwrap();
    assert_eq!(vb, Value::Int(1));
    assert_eq!(p.dpi_global(a, "n"), Some(Value::Int(2)));
}

#[test]
fn lifecycle_state_machine() {
    let p = process();
    p.delegate("noop", "fn main() { return 0; }").unwrap();
    let dpi = p.instantiate("noop").unwrap();

    // Ready: invoke ok, resume illegal.
    p.invoke(dpi, "main", &[]).unwrap();
    assert!(matches!(p.resume(dpi), Err(CoreError::BadState { .. })));

    // Suspended: invoke/suspend illegal, messages queue, resume ok.
    p.suspend(dpi).unwrap();
    assert!(matches!(p.invoke(dpi, "main", &[]), Err(CoreError::BadState { .. })));
    p.send_message(dpi, b"queued while suspended").unwrap();
    assert_eq!(p.dpi_info(dpi).unwrap().queued_messages, 1);
    assert!(matches!(p.suspend(dpi), Err(CoreError::BadState { .. })));
    p.resume(dpi).unwrap();
    p.invoke(dpi, "main", &[]).unwrap();

    // Terminated dpis refuse messages.
    {
        let dpi2 = p.instantiate("noop").unwrap();
        p.terminate(dpi2).unwrap();
        assert!(matches!(p.send_message(dpi2, b"x"), Err(CoreError::BadState { .. })));
    }

    // Terminated: everything illegal, double-terminate too.
    p.terminate(dpi).unwrap();
    assert!(matches!(p.invoke(dpi, "main", &[]), Err(CoreError::BadState { .. })));
    assert!(matches!(p.terminate(dpi), Err(CoreError::BadState { .. })));
    assert_eq!(p.list_instances()[0].state, DpiState::Terminated);
}

#[test]
fn faulting_dpi_is_terminated_but_process_survives() {
    let p = process();
    p.delegate("div", "fn main(x) { return 100 / x; }").unwrap();
    let dpi = p.instantiate("div").unwrap();
    let err = p.invoke(dpi, "main", &[Value::Int(0)]).unwrap_err();
    assert!(matches!(err, CoreError::Runtime(dpl::RuntimeError::DivisionByZero)));
    assert_eq!(p.list_instances()[0].state, DpiState::Terminated);
    // The process keeps serving other instances.
    let dpi2 = p.instantiate("div").unwrap();
    assert_eq!(p.invoke(dpi2, "main", &[Value::Int(4)]).unwrap(), Value::Int(25));
    assert_eq!(p.stats().invocations_failed, 1);
}

#[test]
fn runaway_dpi_is_stopped_by_budget() {
    let p = ElasticProcess::new(ElasticConfig {
        budget: Budget { fuel: 5_000, ..Budget::default() },
        ..ElasticConfig::default()
    });
    p.delegate("spin", "fn main() { while (true) { } return 0; }").unwrap();
    let dpi = p.instantiate("spin").unwrap();
    let err = p.invoke(dpi, "main", &[]).unwrap_err();
    assert!(matches!(err, CoreError::Runtime(dpl::RuntimeError::OutOfFuel)));
}

#[test]
fn instance_limit_enforced() {
    let p = ElasticProcess::new(ElasticConfig { max_instances: 2, ..ElasticConfig::default() });
    p.delegate("noop", "fn main() { return 0; }").unwrap();
    let _a = p.instantiate("noop").unwrap();
    let b = p.instantiate("noop").unwrap();
    assert!(matches!(p.instantiate("noop"), Err(CoreError::TooManyInstances { limit: 2 })));
    // Terminating frees a slot.
    p.terminate(b).unwrap();
    p.instantiate("noop").unwrap();
}

#[test]
fn faulting_dpi_frees_its_live_slot() {
    let p = ElasticProcess::new(ElasticConfig { max_instances: 1, ..ElasticConfig::default() });
    p.delegate("div", "fn main(x) { return 1 / x; }").unwrap();
    let dpi = p.instantiate("div").unwrap();
    assert_eq!(p.live_instances(), 1);
    assert!(matches!(p.instantiate("div"), Err(CoreError::TooManyInstances { limit: 1 })));
    p.invoke(dpi, "main", &[Value::Int(0)]).unwrap_err();
    // The fault-terminated dpi returned its reservation.
    assert_eq!(p.live_instances(), 0);
    p.instantiate("div").unwrap();
}

#[test]
fn terminated_dpis_vanish_when_not_kept() {
    let p =
        ElasticProcess::new(ElasticConfig { keep_terminated: false, ..ElasticConfig::default() });
    p.delegate("noop", "fn main() { return 0; }").unwrap();
    let dpi = p.instantiate("noop").unwrap();
    p.terminate(dpi).unwrap();
    assert!(p.list_instances().is_empty());
    assert!(p.dpi_info(dpi).is_none());
    assert!(matches!(p.invoke(dpi, "main", &[]), Err(CoreError::NoSuchInstance(_))));
}

#[test]
fn mailbox_flow_through_invoke() {
    let p = process();
    p.delegate(
        "mailer",
        "fn drain() { var seen = []; var m = recv(); while (m != nil) { \
         seen = push(seen, m); m = recv(); } return seen; }",
    )
    .unwrap();
    let dpi = p.instantiate("mailer").unwrap();
    p.send_message(dpi, b"one").unwrap();
    p.send_message(dpi, b"two").unwrap();
    let v = p.invoke(dpi, "drain", &[]).unwrap();
    assert_eq!(v, Value::list(vec![Value::Str("one".to_string()), Value::Str("two".to_string())]));
    assert_eq!(p.dpi_info(dpi).unwrap().queued_messages, 0);
}

#[test]
fn notifications_flow_to_manager() {
    let p = process();
    p.delegate("alerter", "fn main(x) { if (x > 10) { notify(x); } return 0; }").unwrap();
    let dpi = p.instantiate("alerter").unwrap();
    p.invoke(dpi, "main", &[Value::Int(5)]).unwrap();
    p.invoke(dpi, "main", &[Value::Int(50)]).unwrap();
    let notes = p.drain_notifications();
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].value, Value::Int(50));
    assert_eq!(notes[0].dpi, dpi);
    assert!(p.drain_notifications().is_empty());
}

#[test]
fn outbox_overflow_drops_oldest_and_is_counted() {
    let p =
        ElasticProcess::new(ElasticConfig { notification_capacity: 3, ..ElasticConfig::default() });
    p.delegate("chatty", "fn main(x) { notify(x); return 0; }").unwrap();
    let dpi = p.instantiate("chatty").unwrap();
    for i in 0..10 {
        p.invoke(dpi, "main", &[Value::Int(i)]).unwrap();
    }
    let notes = p.drain_notifications();
    let values: Vec<Value> = notes.into_iter().map(|n| n.value).collect();
    // Newest three survive; the seven oldest were evicted and counted.
    assert_eq!(values, vec![Value::Int(7), Value::Int(8), Value::Int(9)]);
    assert_eq!(p.stats().notifications_dropped, 7);
}

#[test]
fn log_overflow_drops_oldest_and_is_counted() {
    let p = ElasticProcess::new(ElasticConfig { log_capacity: 2, ..ElasticConfig::default() });
    p.delegate("logger", "fn main(x) { log(x); return 0; }").unwrap();
    let dpi = p.instantiate("logger").unwrap();
    for i in 0..5 {
        p.invoke(dpi, "main", &[Value::Int(i)]).unwrap();
    }
    let lines = p.drain_log();
    assert_eq!(lines, vec![format!("{dpi}: 3"), format!("{dpi}: 4")]);
    assert_eq!(p.stats().log_dropped, 3);
}

#[test]
fn redelegation_hot_swaps_for_new_instances() {
    let p = process();
    p.delegate("f", "fn main() { return 1; }").unwrap();
    let old = p.instantiate("f").unwrap();
    p.delegate("f", "fn main() { return 2; }").unwrap();
    let new = p.instantiate("f").unwrap();
    assert_eq!(p.invoke(old, "main", &[]).unwrap(), Value::Int(1));
    assert_eq!(p.invoke(new, "main", &[]).unwrap(), Value::Int(2));
    assert_eq!(p.repository().lookup("f").unwrap().version, 2);
}

#[test]
fn dpis_share_one_compiled_code_object() {
    let p = process();
    p.delegate("f", "var n = 0; fn main() { n = n + 1; return n; }").unwrap();
    let a = p.instantiate("f").unwrap();
    let b = p.instantiate("f").unwrap();
    let stored = p.repository().lookup("f").unwrap();
    {
        let slot_a = p.inner.dpis.get(a).unwrap();
        let slot_b = p.inner.dpis.get(b).unwrap();
        let cell_a = slot_a.cell.lock();
        let cell_b = slot_b.cell.lock();
        // Both dpis and the repository reference one code object.
        assert!(Arc::ptr_eq(cell_a.vm.program_shared(), cell_b.vm.program_shared()));
        assert!(Arc::ptr_eq(cell_a.vm.program_shared(), &stored.program));
    }
    // Shared code, private state.
    assert_eq!(p.invoke(a, "main", &[]).unwrap(), Value::Int(1));
    assert_eq!(p.invoke(a, "main", &[]).unwrap(), Value::Int(2));
    assert_eq!(p.invoke(b, "main", &[]).unwrap(), Value::Int(1));
}

#[test]
fn redelegation_leaves_running_dpis_on_their_version() {
    let p = process();
    p.delegate("f", "var total = 0; fn main(x) { total = total + x; return total; }").unwrap();
    let old = p.instantiate("f").unwrap();
    assert_eq!(p.invoke(old, "main", &[Value::Int(5)]).unwrap(), Value::Int(5));
    let old_program = {
        let slot = p.inner.dpis.get(old).unwrap();
        let cell = slot.cell.lock();
        Arc::clone(cell.vm.program_shared())
    };
    p.delegate("f", "var total = 0; fn main(x) { total = total - x; return total; }").unwrap();
    // The repository now serves version 2 with a different code object...
    let stored = p.repository().lookup("f").unwrap();
    assert_eq!(stored.version, 2);
    assert!(!Arc::ptr_eq(&stored.program, &old_program));
    // ...but the running dpi keeps its code and its accumulated state.
    assert_eq!(p.invoke(old, "main", &[Value::Int(3)]).unwrap(), Value::Int(8));
    {
        let slot = p.inner.dpis.get(old).unwrap();
        let cell = slot.cell.lock();
        assert!(Arc::ptr_eq(cell.vm.program_shared(), &old_program));
    }
    // New instances pick up the new version.
    let fresh = p.instantiate("f").unwrap();
    assert_eq!(p.invoke(fresh, "main", &[Value::Int(3)]).unwrap(), Value::Int(-3));
}

#[test]
fn service_registration_invalidates_dpi_resolution_caches() {
    let p = process();
    p.delegate("f", "fn main() { return len([1, 2]); }").unwrap();
    let dpi = p.instantiate("f").unwrap();
    // Warm the dpi's host-resolution cache...
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(2));
    // ...swap in an extended registry (new generation)...
    p.register_service("later", 0, |_, _| Ok(Value::Int(9)));
    // ...and the dpi transparently re-resolves against the new snapshot.
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(2));
    // Programs delegated after the swap see the new binding.
    p.delegate("g", "fn main() { return later(); }").unwrap();
    let g = p.instantiate("g").unwrap();
    assert_eq!(p.invoke(g, "main", &[]).unwrap(), Value::Int(9));
}

#[test]
fn custom_services_extend_the_allowed_set() {
    let p = process();
    // Before registration the binding is rejected...
    assert!(p.delegate("probe", "fn main() { return device_temp(); }").is_err());
    // ...after registration it translates and runs.
    p.register_service("device_temp", 0, |_, _| Ok(Value::Int(47)));
    p.delegate("probe", "fn main() { return device_temp(); }").unwrap();
    let dpi = p.instantiate("probe").unwrap();
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(47));
}

#[test]
fn agents_see_the_shared_mib() {
    let p = process();
    snmp::mib2::install_concentrator(p.mib()).unwrap();
    p.mib().counter_add(&snmp::mib2::s3_enet_conc_rx_ok(), 900).unwrap();
    p.delegate("reader", "fn main() { return mib_get(\"1.3.6.1.4.1.45.1.3.2.1.0\"); }").unwrap();
    let dpi = p.instantiate("reader").unwrap();
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(900));
    // Device instrumentation updates are visible on the next call.
    p.mib().counter_add(&snmp::mib2::s3_enet_conc_rx_ok(), 100).unwrap();
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(1000));
}

#[test]
fn clock_services() {
    let p = process();
    p.delegate("clock", "fn main() { return now_ticks(); }").unwrap();
    let dpi = p.instantiate("clock").unwrap();
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(0));
    p.advance_ticks(250);
    assert_eq!(p.invoke(dpi, "main", &[]).unwrap(), Value::Int(250));
    assert_eq!(p.ticks(), 250);
}

#[test]
fn concurrent_invocations_across_dpis() {
    let p = process();
    p.delegate(
        "worker",
        "var acc = 0; fn work(n) { var i = 0; while (i < n) { acc = acc + 1; i = i + 1; } \
         return acc; }",
    )
    .unwrap();
    let dpis: Vec<DpiId> = (0..8).map(|_| p.instantiate("worker").unwrap()).collect();
    let handles: Vec<_> = dpis
        .iter()
        .map(|&dpi| {
            let p = p.clone();
            std::thread::spawn(move || p.invoke(dpi, "work", &[Value::Int(1000)]).unwrap())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), Value::Int(1000));
    }
    assert_eq!(p.stats().invocations_ok, 8);
}

#[test]
fn concurrent_invocations_of_one_dpi_serialize() {
    let p = process();
    p.delegate(
        "counter",
        "var n = 0; fn bump(k) { var i = 0; while (i < k) { n = n + 1; i = i + 1; } return n; }",
    )
    .unwrap();
    let dpi = p.instantiate("counter").unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let p = p.clone();
            std::thread::spawn(move || p.invoke(dpi, "bump", &[Value::Int(500)]).unwrap())
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Serialized on the instance lock: no lost updates.
    assert_eq!(p.dpi_global(dpi, "n"), Some(Value::Int(2000)));
    assert_eq!(p.stats().invocations_ok, 4);
}

#[test]
fn invoke_on_a_suspended_or_terminated_dpi_is_bad_state_and_never_runs() {
    let p = ElasticProcess::new(ElasticConfig { max_instances: 1, ..ElasticConfig::default() });
    p.delegate("counter", "var n = 0; fn bump() { n = n + 1; return n; }").unwrap();
    let dpi = p.instantiate("counter").unwrap();
    let slot = p.inner.dpis.get(dpi).unwrap();

    // Four invokes race a lifecycle verb while the test holds the
    // instance cell. Whichever side of the early state gate each one is
    // on when the verb lands, it is refused — there, or at the
    // `Ready -> Running` claim once it gets the cell — and none runs.
    let race = |verb: &dyn Fn() -> Result<(), CoreError>, state: DpiState| {
        let cell = slot.cell.lock();
        let waiting: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || p.invoke(dpi, "bump", &[]))
            })
            .collect();
        verb().unwrap();
        drop(cell);
        for h in waiting {
            let r = h.join().unwrap();
            assert!(
                matches!(r, Err(CoreError::BadState { state: s, .. }) if s == state),
                "invoke against a {state} dpi must fail with BadState, got {r:?}"
            );
        }
    };
    race(&|| p.suspend(dpi), DpiState::Suspended);
    p.resume(dpi).unwrap();
    race(&|| p.terminate(dpi), DpiState::Terminated);
    assert_eq!(slot.account.snapshot().invocations_ok, 0, "no invocation may have run");
    assert_eq!(p.stats().invocations_ok, 0);

    // The live-census reservation came back exactly once: with
    // max_instances = 1 a fresh dpi still fits.
    assert_eq!(p.live_instances(), 0);
    p.instantiate("counter").unwrap();
}

#[test]
fn unknown_entry_point_is_runtime_error() {
    let p = process();
    p.delegate("f", "fn main() { return 0; }").unwrap();
    let dpi = p.instantiate("f").unwrap();
    assert!(matches!(
        p.invoke(dpi, "absent", &[]),
        Err(CoreError::Runtime(dpl::RuntimeError::NoSuchFunction { .. }))
    ));
}

#[test]
fn unknown_instance_and_program_errors() {
    let p = process();
    assert!(matches!(p.instantiate("ghost"), Err(CoreError::NoSuchProgram { .. })));
    assert!(matches!(p.invoke(DpiId(99), "main", &[]), Err(CoreError::NoSuchInstance(_))));
    assert!(matches!(p.delete_program("ghost"), Err(CoreError::NoSuchProgram { .. })));
}

mod delegation_by_agents_tests {
    use super::*;

    /// The thesis's composability claim: an agent synthesizes a child
    /// agent's source, installs it on its own server, and instantiates it.
    #[test]
    fn agent_delegates_a_child_agent() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate(
            "mother",
            r#"fn spawn(threshold) {
                 var src = "fn check(x) { return x > " + str(threshold) + "; }";
                 dp_delegate("child", src);
                 dp_instantiate("child");
                 return "queued";
               }"#,
        )
        .unwrap();
        let mother = p.instantiate("mother").unwrap();
        let v = p.invoke(mother, "spawn", &[Value::Int(10)]).unwrap();
        assert_eq!(v, Value::Str("queued".to_string()));

        // The child program exists, versioned, attributed to the mother.
        let dp = p.repository().lookup("child").expect("child installed");
        assert_eq!(dp.delegated_by, format!("{mother}"));
        assert!(dp.source.contains("x > 10"));

        // The instantiation happened; outcomes were reported.
        let notes = p.drain_notifications();
        assert_eq!(notes.len(), 2);
        assert!(notes.iter().all(|n| n.dpi == mother));
        let child_id = match &notes[1].value {
            Value::List(items) => match items[2] {
                Value::Int(id) => DpiId(id as u64),
                ref other => panic!("unexpected id {other:?}"),
            },
            other => panic!("unexpected notification {other:?}"),
        };
        // And the child actually runs.
        assert_eq!(p.invoke(child_id, "check", &[Value::Int(11)]).unwrap(), Value::Bool(true));
        assert_eq!(p.invoke(child_id, "check", &[Value::Int(9)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn bad_child_source_is_rejected_and_reported() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate(
            "mother",
            r#"fn spawn() { dp_delegate("bad", "fn f() { return evil(); }"); return 0; }"#,
        )
        .unwrap();
        let mother = p.instantiate("mother").unwrap();
        p.invoke(mother, "spawn", &[]).unwrap();
        assert!(p.repository().lookup("bad").is_none(), "translator must reject it");
        let notes = p.drain_notifications();
        assert_eq!(notes.len(), 1);
        match &notes[0].value {
            Value::List(items) => {
                assert_eq!(items[0], Value::Str("delegate-failed".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The mother is unaffected.
        assert_eq!(p.list_instances()[0].state, DpiState::Ready);
    }

    #[test]
    fn instantiate_of_unknown_program_is_reported_not_fatal() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("m", r#"fn go() { dp_instantiate("ghost"); return 1; }"#).unwrap();
        let m = p.instantiate("m").unwrap();
        assert_eq!(p.invoke(m, "go", &[]).unwrap(), Value::Int(1));
        let notes = p.drain_notifications();
        match &notes[0].value {
            Value::List(items) => {
                assert_eq!(items[0], Value::Str("instantiate-failed".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

mod inter_dpi_messaging_tests {
    use super::*;

    #[test]
    fn one_dpi_messages_another() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate(
            "producer",
            r#"fn emit(target, reading) { dpi_send(target, reading); return 0; }"#,
        )
        .unwrap();
        p.delegate(
            "consumer",
            r#"var seen = [];
               fn drain() {
                   var m = recv();
                   while (m != nil) { seen = push(seen, m); m = recv(); }
                   return seen;
               }"#,
        )
        .unwrap();
        let producer = p.instantiate("producer").unwrap();
        let consumer = p.instantiate("consumer").unwrap();

        for reading in [41i64, 42, 43] {
            p.invoke(producer, "emit", &[Value::Int(consumer.0 as i64), Value::Int(reading)])
                .unwrap();
        }
        let v = p.invoke(consumer, "drain", &[]).unwrap();
        assert_eq!(
            v,
            Value::list(vec![
                Value::Str("41".to_string()),
                Value::Str("42".to_string()),
                Value::Str("43".to_string())
            ])
        );
        // Successful sends are silent; no failure notifications.
        assert!(p.drain_notifications().is_empty());
    }

    #[test]
    fn message_to_dead_dpi_reports_failure() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("m", r#"fn go() { dpi_send(9999, "hello?"); return 0; }"#).unwrap();
        let m = p.instantiate("m").unwrap();
        p.invoke(m, "go", &[]).unwrap();
        let notes = p.drain_notifications();
        assert_eq!(notes.len(), 1);
        match &notes[0].value {
            Value::List(items) => {
                assert_eq!(items[0], Value::Str("message-failed".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

mod telemetry_tests {
    use super::*;

    #[test]
    fn lifecycle_verbs_record_latency_histograms() {
        let p = process();
        p.delegate("t", "fn main() { return 1; }").unwrap();
        let dpi = p.instantiate("t").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.suspend(dpi).unwrap();
        p.resume(dpi).unwrap();
        p.terminate(dpi).unwrap();
        let snap = p.telemetry().snapshot();
        assert_eq!(snap.histogram("ep.delegate").unwrap().count(), 1);
        assert_eq!(snap.histogram("ep.instantiate").unwrap().count(), 1);
        assert_eq!(snap.histogram("ep.invoke").unwrap().count(), 2);
        assert_eq!(snap.histogram("ep.suspend").unwrap().count(), 1);
        assert_eq!(snap.histogram("ep.resume").unwrap().count(), 1);
        assert_eq!(snap.histogram("ep.terminate").unwrap().count(), 1);
    }

    #[test]
    fn failed_operations_still_record_latency() {
        let p = process();
        assert!(p.instantiate("ghost").is_err());
        assert!(p.invoke(DpiId(99), "main", &[]).is_err());
        let snap = p.telemetry().snapshot();
        assert_eq!(snap.histogram("ep.instantiate").unwrap().count(), 1);
        assert_eq!(snap.histogram("ep.invoke").unwrap().count(), 1);
    }

    #[test]
    fn refresh_gauges_reports_queue_depths_and_live_instances() {
        let p = process();
        p.delegate("n", r#"fn go() { notify("hot"); log("line"); return 0; }"#).unwrap();
        let dpi = p.instantiate("n").unwrap();
        p.invoke(dpi, "go", &[]).unwrap();
        p.refresh_gauges();
        let snap = p.telemetry().snapshot();
        assert_eq!(snap.gauge("ep.notifications_queued"), Some(1));
        assert_eq!(snap.gauge("ep.log_queued"), Some(1));
        assert_eq!(snap.gauge("ep.live_instances"), Some(1));
        p.drain_notifications();
        p.terminate(dpi).unwrap();
        p.refresh_gauges();
        let snap = p.telemetry().snapshot();
        assert_eq!(snap.gauge("ep.notifications_queued"), Some(0));
        assert_eq!(snap.gauge("ep.live_instances"), Some(0));
    }
}

mod accounting_tests {
    use super::*;

    #[test]
    fn invocations_accumulate_in_the_dpi_account() {
        let p = process();
        p.delegate("w", "fn main() { var i = 0; while (i < 100) { i = i + 1; } return i; }")
            .unwrap();
        let dpi = p.instantiate("w").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        let acct = p.dpi_account(dpi).unwrap();
        assert_eq!(acct.invocations_ok, 2);
        assert_eq!(acct.invocations_failed, 0);
        assert!(acct.busy_ns > 0, "wall time of the VM call is recorded");
        assert!(acct.vm_fuel > 0, "fuel consumed by the loop is recorded");
        assert_eq!(p.dpi_account(DpiId(99)), None);
    }

    #[test]
    fn faulting_invocation_is_accounted_and_journaled() {
        let p = process();
        p.delegate("f", "fn main() { return 1 / 0; }").unwrap();
        let dpi = p.instantiate("f").unwrap();
        assert!(p.invoke(dpi, "main", &[]).is_err());
        let acct = p.dpi_account(dpi).unwrap();
        assert_eq!(acct.invocations_failed, 1);
        let records = p.journal().tail(0);
        assert!(records.iter().any(|r| r.verb == "lifecycle.fault" && r.dpi == dpi.0 && !r.ok));
    }

    #[test]
    fn quota_breach_suspends_notifies_and_journals() {
        let p = ElasticProcess::new(ElasticConfig {
            quota: Some(DpiQuota { max_invocations: Some(2), ..DpiQuota::default() }),
            ..ElasticConfig::default()
        });
        p.delegate("f", "fn main() { return 1; }").unwrap();
        let dpi = p.instantiate("f").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        // The third invocation crosses the limit (3 > 2) and trips the brake.
        p.invoke(dpi, "main", &[]).unwrap();
        assert_eq!(p.dpi_info(dpi).unwrap().state, DpiState::Suspended);
        assert!(matches!(p.invoke(dpi, "main", &[]), Err(CoreError::BadState { .. })));

        let notes = p.drain_notifications();
        let breach = notes.iter().find(|n| n.dpi == dpi).expect("breach notification");
        match &breach.value {
            Value::List(items) => {
                assert_eq!(items[0], Value::Str("quota-breach".to_string()));
                assert_eq!(items[1], Value::Str("invocations".to_string()));
            }
            other => panic!("unexpected notification payload {other:?}"),
        }
        let records = p.journal().tail(0);
        assert!(records.iter().any(|r| r.verb == "quota.breach" && r.dpi == dpi.0 && !r.ok));
        assert_eq!(p.telemetry().snapshot().counter("ep.quota_breaches"), Some(1));

        // Resume re-arms the same quota: the next invocation trips again.
        p.resume(dpi).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        assert_eq!(p.dpi_info(dpi).unwrap().state, DpiState::Suspended);

        // Clearing the quota lets it run freely.
        p.set_quota(dpi, None).unwrap();
        p.resume(dpi).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        assert_eq!(p.dpi_info(dpi).unwrap().state, DpiState::Ready);
    }

    #[test]
    fn set_quota_arms_a_single_dpi() {
        let p = process();
        p.delegate("f", "fn main() { return 1; }").unwrap();
        let a = p.instantiate("f").unwrap();
        let b = p.instantiate("f").unwrap();
        p.set_quota(a, Some(DpiQuota { max_invocations: Some(0), ..DpiQuota::default() })).unwrap();
        assert!(p.set_quota(DpiId(99), None).is_err());
        p.invoke(a, "main", &[]).unwrap();
        p.invoke(b, "main", &[]).unwrap();
        assert_eq!(p.dpi_info(a).unwrap().state, DpiState::Suspended);
        assert_eq!(p.dpi_info(b).unwrap().state, DpiState::Ready);
    }

    #[test]
    fn lifecycle_transitions_are_journaled() {
        let p = process();
        p.delegate("f", "fn main() { return 1; }").unwrap();
        let dpi = p.instantiate("f").unwrap();
        p.suspend(dpi).unwrap();
        p.resume(dpi).unwrap();
        p.terminate(dpi).unwrap();
        let verbs: Vec<String> = p.journal().tail(0).into_iter().map(|r| r.verb).collect();
        for verb in [
            "lifecycle.instantiate",
            "lifecycle.suspend",
            "lifecycle.resume",
            "lifecycle.terminate",
        ] {
            assert!(verbs.iter().any(|v| v == verb), "missing {verb} in {verbs:?}");
        }
    }
}
