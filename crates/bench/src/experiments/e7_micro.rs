//! **E7 — elastic-process microcosts** (table).
//!
//! The ICDCS'95 prototype evaluation reports the latencies of the
//! delegation primitives themselves. This experiment measures them on
//! the real threaded runtime (wall-clock, in-process transport):
//! translate, instantiate, invoke (trivial and compute-bound), RDS
//! round trips with and without MD5 authentication, message posting,
//! suspend/resume, and dpi scaling — the summary table for
//! EXPERIMENTS.md.

use crate::report::Report;
use dpl::Value;
use mbd_core::{ElasticConfig, ElasticProcess, MbdServer};
use rds::{LoopbackDuplex, RdsClient};
use std::sync::Arc;
use std::time::Instant;

const TRIVIAL: &str = "fn main() { return 0; }";
const COMPUTE: &str =
    "fn main(n) { var t = 0; var i = 0; while (i < n) { t = t + i; i = i + 1; } return t; }";

fn time_us<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// One measured primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroRow {
    /// Operation label.
    pub operation: String,
    /// Mean latency in microseconds.
    pub mean_us: f64,
}

/// Runs all microbenchmarks with `iters` iterations each.
pub fn run(iters: u32) -> (Report, Vec<MicroRow>) {
    let mut rows: Vec<MicroRow> = Vec::new();
    let mut add = |operation: &str, mean_us: f64| {
        rows.push(MicroRow { operation: operation.to_string(), mean_us });
    };

    // Translate (parse + check + compile).
    let p = ElasticProcess::new(ElasticConfig {
        max_instances: usize::MAX,
        ..ElasticConfig::default()
    });
    let mut n = 0u32;
    add(
        "translate trivial dp",
        time_us(iters, || {
            n += 1;
            p.delegate(&format!("t{n}"), TRIVIAL).expect("translates");
        }),
    );
    add(
        "translate health dp (E2 agent)",
        time_us(iters, || {
            n += 1;
            p.delegate(&format!("h{n}"), super::e2_traffic::HEALTH_AGENT).expect("translates");
        }),
    );

    // Instantiate.
    p.delegate("trivial", TRIVIAL).expect("translates");
    add(
        "instantiate dpi",
        time_us(iters, || {
            p.instantiate("trivial").expect("instantiates");
        }),
    );

    // Invoke.
    let dpi = p.instantiate("trivial").expect("instantiates");
    add(
        "invoke trivial entry",
        time_us(iters, || {
            p.invoke(dpi, "main", &[]).expect("runs");
        }),
    );
    p.delegate("compute", COMPUTE).expect("translates");
    let cdpi = p.instantiate("compute").expect("instantiates");
    add(
        "invoke 10k-iteration loop",
        time_us(iters.min(200), || {
            p.invoke(cdpi, "main", &[Value::Int(10_000)]).expect("runs");
        }),
    );

    // Messaging and lifecycle.
    add(
        "post mailbox message",
        time_us(iters, || {
            p.send_message(dpi, b"ping").expect("posts");
        }),
    );
    add(
        "suspend + resume",
        time_us(iters, || {
            p.suspend(dpi).expect("suspends");
            p.resume(dpi).expect("resumes");
        }),
    );

    // RDS round trips (loopback transport, real codec).
    let server = Arc::new(MbdServer::open(ElasticProcess::new(ElasticConfig::default())));
    let s2 = Arc::clone(&server);
    let client =
        RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| s2.process_request(b)), "bench");
    client.delegate("trivial", TRIVIAL).expect("delegates");
    let rdpi = client.instantiate("trivial").expect("instantiates");
    add(
        "RDS invoke round trip",
        time_us(iters, || {
            client.invoke(rdpi, "main", &[]).expect("runs");
        }),
    );

    let server_auth = Arc::new(MbdServer::with_policy(
        ElasticProcess::new(ElasticConfig::default()),
        mbd_auth::Acl::allow_by_default(),
        Some(b"benchkey".to_vec()),
    ));
    let s3 = Arc::clone(&server_auth);
    let auth_client = RdsClient::with_key(
        LoopbackDuplex::new(move |b: &[u8]| s3.process_request(b)),
        "bench",
        b"benchkey".to_vec(),
    );
    auth_client.delegate("trivial", TRIVIAL).expect("delegates");
    let adpi = auth_client.instantiate("trivial").expect("instantiates");
    add(
        "RDS invoke round trip (MD5 auth)",
        time_us(iters, || {
            auth_client.invoke(adpi, "main", &[]).expect("runs");
        }),
    );

    // Concurrent dpi scaling: total invocations/second with 8 threads on
    // 8 instances.
    let p8 = ElasticProcess::new(ElasticConfig::default());
    p8.delegate("compute", COMPUTE).expect("translates");
    let dpis: Vec<_> = (0..8).map(|_| p8.instantiate("compute").expect("ok")).collect();
    let per_thread = (iters / 4).max(10);
    let start = Instant::now();
    let handles: Vec<_> = dpis
        .iter()
        .map(|&d| {
            let p = p8.clone();
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    p.invoke(d, "main", &[Value::Int(1_000)]).expect("runs");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }
    let total = f64::from(per_thread) * 8.0;
    add("8-dpi concurrent invoke (1k loop), per-op", start.elapsed().as_secs_f64() * 1e6 / total);

    // Telemetry self-cost: what PR 2's instrumentation spends per
    // operation. The release-mode test below holds span enter/exit to
    // the documented <100 ns budget.
    {
        let tel = mbd_telemetry::Telemetry::new();
        let timer = tel.timer("bench.span");
        let span_iters = iters.max(10_000);
        add(
            "telemetry: span enter/exit",
            time_us(span_iters, || {
                drop(timer.start());
            }),
        );
        let hist = tel.histogram("bench.hist");
        let mut v = 0u64;
        add(
            "telemetry: histogram record",
            time_us(span_iters, || {
                v = v.wrapping_add(97);
                hist.record(v);
            }),
        );
    }

    // Accounting self-cost: what PR 3's per-dpi resource account spends
    // on every invocation (a handful of relaxed atomic adds plus the
    // trace stamp). The release-mode test below holds it to the
    // documented <150 ns budget.
    {
        let account = mbd_core::DpiAccount::default();
        let acct_iters = iters.max(10_000);
        let mut trace = 0u64;
        add(
            "accounting: record invocation",
            time_us(acct_iters, || {
                trace = trace.wrapping_add(0x9e37_79b9_7f4a_7c15);
                account.touch_trace(trace);
                account.record_invocation(true, 1_000, 42);
            }),
        );
    }

    // Dedup self-cost: what the fault-tolerant session layer spends per
    // request on duplicate suppression — fingerprinting a realistic
    // frame plus one cache probe. The release-mode test below holds it
    // to the documented <100 ns budget.
    {
        let cache = rds::DedupCache::new(rds::DEFAULT_DEDUP_CAPACITY);
        // A realistic invoke frame, as the server would fingerprint it.
        let frame = rds::codec::encode_request(
            &rds::RdsRequest::Invoke {
                dpi: rds::DpiId(7),
                entry: "main".to_string(),
                args: vec![ber::BerValue::Integer(42)],
            },
            &mbd_auth::Principal::new("bench"),
            99,
            None,
        );
        let fp = rds::frame_fingerprint(&frame);
        assert!(matches!(cache.begin("bench", 99, fp), rds::DedupOutcome::Execute));
        cache.complete("bench", 99, fp, &frame);
        let dedup_iters = iters.max(10_000);
        let mut hits = 0u64;
        add(
            "dedup: fingerprint + cache lookup",
            time_us(dedup_iters, || {
                let fp = rds::frame_fingerprint(&frame);
                if matches!(cache.begin("bench", 99, fp), rds::DedupOutcome::Replay(_)) {
                    hits += 1;
                }
            }),
        );
        assert!(hits > 0, "the probed entry must be present");
    }

    // Ablation: the same compute-bound program through the bytecode VM
    // vs the tree-walking interpreter (why the Translator compiles).
    {
        let reg: dpl::HostRegistry<()> = dpl::HostRegistry::with_stdlib();
        let big = dpl::Budget { fuel: u64::MAX / 2, memory: u64::MAX / 2, call_depth: 256 };
        let program = dpl::compile_program(COMPUTE, &reg).expect("compiles");
        let mut vm = dpl::Instance::new(std::sync::Arc::new(program));
        add(
            "ablation: VM 10k loop",
            time_us(iters.min(200), || {
                vm.invoke("main", &[Value::Int(10_000)], &mut (), &reg, big).expect("runs");
            }),
        );
        let mut tree = dpl::interp::AstInstance::new(COMPUTE, &reg).expect("checks");
        add(
            "ablation: tree-walk 10k loop",
            time_us(iters.min(200), || {
                tree.invoke("main", &[Value::Int(10_000)], &mut (), &reg, big).expect("runs");
            }),
        );
    }

    let mut report = Report::new(
        "e7_micro",
        "E7: elastic-process primitive latencies (mean microseconds, wall clock)",
        &["operation", "mean_us"],
    );
    for r in &rows {
        report.push(vec![r.operation.clone(), format!("{:.1}", r.mean_us)]);
    }
    (report, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_primitives_are_measured() {
        let (report, rows) = run(50);
        assert_eq!(rows.len(), 16);
        assert_eq!(report.rows.len(), 16);
        for r in &rows {
            assert!(r.mean_us > 0.0, "{} measured nothing", r.operation);
            assert!(r.mean_us < 1e6, "{} implausibly slow: {}us", r.operation, r.mean_us);
        }
    }

    /// The documented instrumentation budget: a span enter/exit (two
    /// clock reads + one lock-free record) stays under 100 ns. Only
    /// meaningful with optimizations on, so debug builds skip it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn span_overhead_stays_under_budget() {
        let (_, rows) = run(200);
        let span = rows.iter().find(|r| r.operation == "telemetry: span enter/exit").unwrap();
        assert!(span.mean_us < 0.1, "span enter/exit budget blown: {} us/op", span.mean_us);
        let rec = rows.iter().find(|r| r.operation == "telemetry: histogram record").unwrap();
        assert!(rec.mean_us < 0.1, "histogram record budget blown: {} us/op", rec.mean_us);
    }

    /// The documented accounting budget: charging one invocation to a
    /// dpi's resource account (atomic adds + trace stamp) stays under
    /// 150 ns. Only meaningful with optimizations on.
    #[cfg(not(debug_assertions))]
    #[test]
    fn accounting_overhead_stays_under_budget() {
        let (_, rows) = run(200);
        let acct = rows.iter().find(|r| r.operation == "accounting: record invocation").unwrap();
        assert!(acct.mean_us < 0.15, "accounting budget blown: {} us/op", acct.mean_us);
    }

    /// The documented dedup budget: fingerprinting a realistic frame
    /// plus one cache probe (hash + map lookup + response clone) stays
    /// under 100 ns, so duplicate suppression is invisible next to a
    /// codec pass. Only meaningful with optimizations on.
    #[cfg(not(debug_assertions))]
    #[test]
    fn dedup_lookup_stays_under_budget() {
        let (_, rows) = run(200);
        let row = rows.iter().find(|r| r.operation == "dedup: fingerprint + cache lookup").unwrap();
        assert!(row.mean_us < 0.1, "dedup lookup budget blown: {} us/op", row.mean_us);
    }

    #[test]
    fn local_invoke_is_cheaper_than_rds_round_trip() {
        let (_, rows) = run(100);
        let local = rows.iter().find(|r| r.operation == "invoke trivial entry").unwrap();
        let rds = rows.iter().find(|r| r.operation == "RDS invoke round trip").unwrap();
        assert!(
            rds.mean_us > local.mean_us,
            "protocol must cost something: local {} vs rds {}",
            local.mean_us,
            rds.mean_us
        );
    }

    #[test]
    fn authentication_adds_measurable_overhead() {
        let (_, rows) = run(100);
        let plain = rows.iter().find(|r| r.operation == "RDS invoke round trip").unwrap();
        let auth = rows.iter().find(|r| r.operation == "RDS invoke round trip (MD5 auth)").unwrap();
        assert!(auth.mean_us > plain.mean_us * 0.9, "auth should not be cheaper");
    }
}
