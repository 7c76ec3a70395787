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
        assert_eq!(rows.len(), 12);
        assert_eq!(report.rows.len(), 12);
        for r in &rows {
            assert!(r.mean_us > 0.0, "{} measured nothing", r.operation);
            assert!(r.mean_us < 1e6, "{} implausibly slow: {}us", r.operation, r.mean_us);
        }
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
