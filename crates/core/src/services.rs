//! The services an elastic process exposes to its delegated programs.
//!
//! This is the runtime's "predefined set of allowed functions": the only
//! external bindings a dp can make (the Translator rejects everything
//! else). The standard set gives agents local MIB access, an inbound
//! mailbox, outbound notifications, logging, and the server clock —
//! enough to express the paper's applications (health functions, table
//! compression, intrusion watchers, view evaluation).
//!
//! Embedders can extend the registry with their own services before
//! delegation begins (see [`ElasticProcess::register_service`](crate::ElasticProcess::register_service)).

use crate::convert;
use crate::process::DpiAccount;
use dpl::{HostRegistry, Value};
use mbd_telemetry::Ring;
use parking_lot::Mutex;
use rds::DpiId;
use snmp::{MibStore, Oid};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on entries returned by `mib_walk`/`mib_snapshot`, so an
/// agent cannot materialize an unbounded table into its memory budget in
/// one host call.
pub const WALK_LIMIT: usize = 65_536;

/// An event a dpi emits toward its manager via the `notify` service
/// (the delegated analogue of an SNMP trap, but carrying computed values).
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The emitting instance.
    pub dpi: DpiId,
    /// The computed payload.
    pub value: Value,
    /// Trace id of the request whose invocation emitted this event
    /// (0 when the invocation was untraced — e.g. a periodic driver).
    pub trace_id: u64,
}

/// A runtime action an agent requested through `dp_delegate` /
/// `dp_instantiate`, applied by the elastic process *after* the current
/// invocation returns (agents cannot reenter the runtime mid-invoke).
///
/// This realizes the thesis's composability claim — "it is even possible
/// to delegate an entire interpreter to an elastic process, and forthwith
/// delegate agents written in L": an agent can synthesize and install new
/// dps on its own server.
#[derive(Debug, Clone, PartialEq)]
pub enum PendingAction {
    /// Install (or re-version) a program under `name`.
    Delegate {
        /// Repository name.
        name: String,
        /// DPL source synthesized by the agent.
        source: String,
    },
    /// Create an instance of a stored program.
    Instantiate {
        /// Program to instantiate.
        name: String,
    },
    /// Post a payload to another dpi's mailbox (inter-dpi messaging).
    Message {
        /// Target instance id.
        target: u64,
        /// Payload for the target's `recv()`.
        payload: Vec<u8>,
    },
}

/// The per-invocation context handed to host functions: shared handles to
/// the server's MIB, this dpi's mailbox, the notification outbox, the log
/// and the server clock.
#[derive(Debug, Clone)]
pub struct ServerCtx {
    /// The local management information base.
    pub mib: MibStore,
    /// This dpi's inbound mailbox.
    pub mailbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    /// Server-wide notification outbox (bounded, drop-oldest).
    pub outbox: Arc<Ring<Notification>>,
    /// Server-wide agent log (bounded, drop-oldest).
    pub log: Arc<Ring<String>>,
    /// Server uptime in ticks (hundredths of a second, like sysUpTime).
    pub ticks: Arc<AtomicU64>,
    /// Actions to apply once this invocation returns. A plain vector:
    /// host functions receive `&mut ServerCtx`, so no lock or
    /// allocation is needed — the runtime drains it after each
    /// invocation returns.
    pub pending: Vec<PendingAction>,
    /// The invoking instance's id.
    pub dpi: DpiId,
    /// The invoking instance's resource account (notify/log/eviction
    /// counters are charged here as the services run).
    pub account: Arc<DpiAccount>,
}

fn parse_oid(v: &Value) -> Result<Oid, String> {
    let s = v.as_str().ok_or("oid must be a string")?;
    s.parse::<Oid>().map_err(|_| format!("malformed oid `{s}`"))
}

/// Builds the standard service registry over [`ServerCtx`], including the
/// pure DPL stdlib.
pub fn standard_registry() -> HostRegistry<ServerCtx> {
    let mut reg: HostRegistry<ServerCtx> = HostRegistry::with_stdlib();

    reg.register("mib_get", 1, |ctx, args| {
        let oid = parse_oid(&args[0])?;
        Ok(match ctx.mib.get(&oid) {
            Some(v) => convert::from_ber(&v),
            None => Value::Nil,
        })
    });

    reg.register("mib_next", 1, |ctx, args| {
        let oid = parse_oid(&args[0])?;
        Ok(match ctx.mib.get_next(&oid) {
            Some((next, v)) => {
                Value::list(vec![Value::Str(next.to_string()), convert::from_ber(&v)])
            }
            None => Value::Nil,
        })
    });

    reg.register("mib_walk", 1, |ctx, args| {
        let prefix = parse_oid(&args[0])?;
        let rows = ctx.mib.walk(&prefix);
        if rows.len() > WALK_LIMIT {
            return Err(format!("walk of {} exceeds limit {WALK_LIMIT}", rows.len()));
        }
        // `collect` sorts once and bulk-builds the map: cheaper than one
        // `insert` per row, and the same map.
        Ok(Value::map(
            rows.into_iter().map(|(oid, v)| (oid.to_string(), convert::from_ber(&v))).collect(),
        ))
    });

    // `mib_snapshot` is an instantaneous consistent copy; `mib_walk` has
    // the same atomicity locally (single lock) but models the *remote*
    // walk in experiments, so both names exist.
    reg.register("mib_snapshot", 1, |ctx, args| {
        let prefix = parse_oid(&args[0])?;
        let snap = ctx.mib.snapshot(&prefix);
        let count = snap.len();
        if count > WALK_LIMIT {
            return Err(format!("snapshot of {count} entries exceeds limit {WALK_LIMIT}"));
        }
        let mut rows = Vec::with_capacity(count);
        snap.for_each(|oid, v| rows.push((oid.to_string(), convert::from_ber(v))));
        Ok(Value::map(rows.into_iter().collect()))
    });

    reg.register("mib_set", 2, |ctx, args| {
        let oid = parse_oid(&args[0])?;
        let value = convert::to_ber(&args[1]);
        match ctx.mib.remote_set(&oid, value) {
            Ok(()) => Ok(Value::Bool(true)),
            Err(e) => Err(e.to_string()),
        }
    });

    reg.register("mib_publish", 2, |ctx, args| {
        let oid = parse_oid(&args[0])?;
        let value = convert::to_ber(&args[1]);
        ctx.mib.set_scalar(oid, value).map_err(|e| e.to_string())?;
        Ok(Value::Bool(true))
    });

    reg.register("recv", 0, |ctx, _| {
        Ok(match ctx.mailbox.lock().pop_front() {
            Some(payload) => Value::Str(String::from_utf8_lossy(&payload).into_owned()),
            None => Value::Nil,
        })
    });

    reg.register("notify", 1, |ctx, args| {
        let trace_id = mbd_telemetry::current_trace_id();
        ctx.account.notifications.fetch_add(1, Ordering::Relaxed);
        let note = Notification { dpi: ctx.dpi, value: args[0].clone(), trace_id };
        if ctx.outbox.push(note).is_some() {
            // Drop-oldest eviction is charged to the pushing dpi.
            ctx.account.queue_drops.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Value::Nil)
    });

    reg.register("log", 1, |ctx, args| {
        let trace_id = mbd_telemetry::current_trace_id();
        ctx.account.log_lines.fetch_add(1, Ordering::Relaxed);
        // Untraced invocations keep the bare legacy prefix.
        let line = if trace_id == 0 {
            format!("{}: {}", ctx.dpi, args[0])
        } else {
            format!("{} [{trace_id:016x}]: {}", ctx.dpi, args[0])
        };
        if ctx.log.push(line).is_some() {
            ctx.account.queue_drops.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Value::Nil)
    });

    reg.register("now_ticks", 0, |ctx, _| Ok(Value::Int(ctx.ticks.load(Ordering::Relaxed) as i64)));

    // Delegation *by* agents: queued, applied after the invocation
    // returns; outcomes arrive as notifications. An agent may thus
    // synthesize a child agent and install it on its own server.
    reg.register("dp_delegate", 2, |ctx, args| {
        let name = args[0].as_str().ok_or("dp_delegate: name must be str")?.to_string();
        let source = args[1].as_str().ok_or("dp_delegate: source must be str")?.to_string();
        ctx.pending.push(PendingAction::Delegate { name, source });
        Ok(Value::Nil)
    });
    reg.register("dp_instantiate", 1, |ctx, args| {
        let name = args[0].as_str().ok_or("dp_instantiate: name must be str")?.to_string();
        ctx.pending.push(PendingAction::Instantiate { name });
        Ok(Value::Nil)
    });
    reg.register("dpi_send", 2, |ctx, args| {
        let target = args[0].as_int().ok_or("dpi_send: target must be int")?;
        let target = u64::try_from(target).map_err(|_| "dpi_send: negative id".to_string())?;
        let payload = args[1].to_string().into_bytes();
        ctx.pending.push(PendingAction::Message { target, payload });
        Ok(Value::Nil)
    });

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpl::{Budget, Instance};

    fn ctx() -> ServerCtx {
        let mib = MibStore::new();
        snmp::mib2::install_system(&mib, "test dev", "t1").unwrap();
        snmp::mib2::install_concentrator(&mib).unwrap();
        mib.counter_add(&snmp::mib2::s3_enet_conc_rx_ok(), 1234).unwrap();
        ctx_over(mib)
    }

    fn ctx_over(mib: MibStore) -> ServerCtx {
        ServerCtx {
            mib,
            mailbox: Arc::new(Mutex::new(VecDeque::new())),
            outbox: Arc::new(Ring::new(1024)),
            log: Arc::new(Ring::new(1024)),
            ticks: Arc::new(AtomicU64::new(500)),
            pending: Vec::new(),
            dpi: DpiId(1),
            account: Arc::new(DpiAccount::default()),
        }
    }

    fn run(src: &str, ctx: &mut ServerCtx) -> Result<Value, dpl::RuntimeError> {
        let reg = standard_registry();
        let program = dpl::compile_program(src, &reg).expect("compiles");
        let mut inst = Instance::new(std::sync::Arc::new(program));
        inst.invoke("main", &[], ctx, &reg, Budget::default())
    }

    #[test]
    fn mib_get_reads_values() {
        let mut c = ctx();
        let v = run("fn main() { return mib_get(\"1.3.6.1.4.1.45.1.3.2.1.0\"); }", &mut c).unwrap();
        assert_eq!(v, Value::Int(1234));
        let v = run("fn main() { return mib_get(\"1.9.9\"); }", &mut c).unwrap();
        assert_eq!(v, Value::Nil);
    }

    #[test]
    fn bad_oid_is_a_host_error() {
        let mut c = ctx();
        let err = run("fn main() { return mib_get(\"not-an-oid\"); }", &mut c).unwrap_err();
        assert!(matches!(err, dpl::RuntimeError::Host { .. }));
        let err = run("fn main() { return mib_get(42); }", &mut c).unwrap_err();
        assert!(matches!(err, dpl::RuntimeError::Host { .. }));
    }

    #[test]
    fn mib_next_steps_through() {
        let mut c = ctx();
        let v =
            run("fn main() { var r = mib_next(\"1.3.6.1.2.1.1\"); return r[0]; }", &mut c).unwrap();
        assert_eq!(v, Value::Str("1.3.6.1.2.1.1.1.0".to_string()));
        let v = run("fn main() { return mib_next(\"2\"); }", &mut c).unwrap();
        assert_eq!(v, Value::Nil);
    }

    #[test]
    fn mib_walk_returns_a_map() {
        let mut c = ctx();
        let v =
            run("fn main() { var m = mib_walk(\"1.3.6.1.4.1.45\"); return len(keys(m)); }", &mut c)
                .unwrap();
        assert_eq!(v, Value::Int(4)); // four concentrator counters
    }

    #[test]
    fn mib_publish_then_get() {
        let mut c = ctx();
        let v = run(
            "fn main() { mib_publish(\"1.3.6.1.4.1.99.1.0\", 77); \
             return mib_get(\"1.3.6.1.4.1.99.1.0\"); }",
            &mut c,
        )
        .unwrap();
        assert_eq!(v, Value::Int(77));
        // And it is visible to the embedding server.
        assert_eq!(
            c.mib.get(&"1.3.6.1.4.1.99.1.0".parse().unwrap()),
            Some(ber::BerValue::Integer(77))
        );
    }

    #[test]
    fn mib_set_respects_write_protection() {
        let mut c = ctx();
        // sysDescr is read-only.
        let err = run("fn main() { return mib_set(\"1.3.6.1.2.1.1.1.0\", \"owned\"); }", &mut c)
            .unwrap_err();
        assert!(matches!(err, dpl::RuntimeError::Host { .. }));
        // sysName is writable.
        let v = run("fn main() { return mib_set(\"1.3.6.1.2.1.1.5.0\", \"newname\"); }", &mut c)
            .unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn mailbox_recv_in_fifo_order() {
        let mut c = ctx();
        c.mailbox.lock().push_back(b"first".to_vec());
        c.mailbox.lock().push_back(b"second".to_vec());
        let v = run(
            "fn main() { var a = recv(); var b = recv(); var c = recv(); \
             return [a, b, c]; }",
            &mut c,
        )
        .unwrap();
        assert_eq!(
            v,
            Value::list(vec![
                Value::Str("first".to_string()),
                Value::Str("second".to_string()),
                Value::Nil
            ])
        );
    }

    #[test]
    fn notify_lands_in_outbox_with_dpi_id() {
        let mut c = ctx();
        run("fn main() { notify([\"alert\", 99]); return 0; }", &mut c).unwrap();
        let out = c.outbox.snapshot();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dpi, DpiId(1));
        assert_eq!(
            out[0].value,
            Value::list(vec![Value::Str("alert".to_string()), Value::Int(99)])
        );
    }

    #[test]
    fn log_is_prefixed_with_dpi() {
        let mut c = ctx();
        run("fn main() { log(\"hello\"); return 0; }", &mut c).unwrap();
        assert_eq!(c.log.snapshot()[0], "dpi-1: hello");
    }

    #[test]
    fn traced_invocations_stamp_notify_and_log() {
        let mut c = ctx();
        let _scope = mbd_telemetry::enter_trace(0xAB);
        run("fn main() { notify(1); log(\"hi\"); return 0; }", &mut c).unwrap();
        assert_eq!(c.outbox.snapshot()[0].trace_id, 0xAB);
        assert_eq!(c.log.snapshot()[0], "dpi-1 [00000000000000ab]: hi");
    }

    #[test]
    fn notify_and_log_are_charged_to_the_account() {
        let mut c = ctx();
        run("fn main() { notify(1); notify(2); log(\"x\"); return 0; }", &mut c).unwrap();
        let snap = c.account.snapshot();
        assert_eq!(snap.notifications, 2);
        assert_eq!(snap.log_lines, 1);
        assert_eq!(snap.queue_drops, 0);
    }

    #[test]
    fn queue_eviction_is_charged_to_the_pusher() {
        let mut c = ctx();
        c.log = Arc::new(Ring::new(1));
        run("fn main() { log(\"a\"); log(\"b\"); log(\"c\"); return 0; }", &mut c).unwrap();
        assert_eq!(c.account.snapshot().queue_drops, 2);
        assert_eq!(c.log.snapshot(), vec!["dpi-1: c"]);
    }

    /// The table-compression filter `bench/e2e` runs as `table_scan`.
    const SCAN_DP: &str = r#"
fn filter(threshold) {
    var out = [];
    var dropped = mib_walk("1.3.6.1.4.1.353.2.5.1.3");
    for (oid in dropped) {
        if (dropped[oid] > threshold) {
            out = push(out, [oid, dropped[oid]]);
        }
    }
    return out;
}
"#;

    /// One first invocation (initializers included) of the scan over an
    /// ATM VC table of `rows` rows: the result and the VM's counters.
    fn scan(rows: u32, threshold: i64) -> (Result<Value, dpl::RuntimeError>, dpl::VmStats) {
        let mib = MibStore::new();
        snmp::mib2::install_atm_vc_table(&mib, rows).unwrap();
        let mut c = ctx_over(mib);
        let reg = standard_registry();
        let program = dpl::compile_program(SCAN_DP, &reg).expect("compiles");
        let mut inst = Instance::new(Arc::new(program));
        let out = inst.invoke("filter", &[Value::Int(threshold)], &mut c, &reg, Budget::default());
        (out, inst.last_stats())
    }

    /// The scan's accounting is observable behaviour (docs/DPL.md): rows,
    /// fuel, memory cells and host calls are pinned exactly, and so are
    /// the 1 000-row scans the default budget refuses.
    #[test]
    fn table_scan_accounting_is_pinned() {
        let expected = [
            (86, 2620, 24894, 87),
            (72, 2522, 18062, 73),
            (58, 2424, 12406, 59),
            (44, 2326, 7926, 45),
            (29, 2221, 4431, 30),
            (14, 2116, 2286, 15),
            (0, 2018, 1502, 1),
        ];
        for (threshold, want) in expected.into_iter().enumerate() {
            let (out, stats) = scan(100, threshold as i64);
            let rows = out.unwrap().as_list().expect("a list of rows").len();
            let got = (rows, stats.fuel_used, stats.memory_used, stats.host_calls);
            assert_eq!(got, want, "threshold {threshold}");
        }
        for (threshold, fuel, memory) in
            [(0, 17194, 1002516), (1, 19854, 1003314), (2, 23687, 1001023)]
        {
            let (out, stats) = scan(1000, threshold);
            assert_eq!(out.unwrap_err(), dpl::RuntimeError::OutOfMemory, "threshold {threshold}");
            assert_eq!(
                (stats.fuel_used, stats.memory_used),
                (fuel, memory),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn now_ticks_reads_the_clock() {
        let mut c = ctx();
        let v = run("fn main() { return now_ticks(); }", &mut c).unwrap();
        assert_eq!(v, Value::Int(500));
    }
}
