//! A runaway agent meets the per-dpi resource quota.
//!
//! Delegation moves computation *to* the server — which means a buggy or
//! greedy agent now burns the server's CPU, not the manager's. The
//! thesis's answer is that delegated programs are **controlled**
//! computations: the elastic process accounts for what every dpi
//! consumes and can pull the brake on its own.
//!
//! This example delegates a CPU-hungry spinner over RDS, watches its
//! accounting row grow (`mbdDpiAccounting`, `enterprises.20100.5`),
//! and lets the armed VM-fuel quota suspend it mid-flight. The breach
//! notification, the audit-journal record and the RDS request that
//! tripped the quota all carry the same trace id — one correlated
//! story of who ran what and why it was stopped.
//!
//! Run with: `cargo run --example runaway_dpi`

use mbd::ber::BerValue;
use mbd::core::ocp::{mbd_accounting_root, SnmpOcp};
use mbd::core::{DpiQuota, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{LoopbackDuplex, RdsClient};
use std::sync::Arc;

/// The runaway: every call spins a counter, burning VM fuel.
const SPINNER: &str = r#"
fn main(n) {
    var i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
"#;

const FUEL_QUOTA: u64 = 500_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every dpi this process instantiates is armed with a cumulative
    // VM-fuel quota; crossing it suspends the dpi.
    let process = ElasticProcess::new(ElasticConfig {
        quota: Some(DpiQuota { max_vm_fuel: Some(FUEL_QUOTA), ..DpiQuota::default() }),
        ..ElasticConfig::default()
    });
    let server = Arc::new(MbdServer::open(process.clone()));
    let duplex = LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes));
    let client = RdsClient::new(duplex, "noc");

    client.delegate("spinner", SPINNER)?;
    let dpi = client.instantiate("spinner")?;
    println!("delegated `spinner` as {dpi}; quota: {FUEL_QUOTA} VM fuel units\n");

    // Drive the runaway until the server refuses it.
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        assert!(rounds < 1_000, "quota never tripped");
        match client.invoke(dpi, "main", &[BerValue::Integer(5_000)]) {
            Ok(_) => {
                let acct = process.dpi_account(dpi).expect("dpi is live");
                println!(
                    "round {rounds:>2}: invocations={:<3} fuel={:>7} busy={:>9} ns  trace={:016x}",
                    acct.invocations_ok, acct.vm_fuel, acct.busy_ns, acct.last_trace_id
                );
            }
            Err(e) => {
                println!("round {rounds:>2}: refused — {e}\n");
                break;
            }
        }
    }

    // The accounting row outlives the suspension: publish it into the
    // MIB and read it back the way a legacy manager (or a delegated
    // watchdog agent) would.
    let ocp = SnmpOcp::new(process.clone(), "public");
    ocp.refresh_accounting();
    println!("mbdDpiAccounting rows under {}:", mbd_accounting_root());
    for (oid, value) in process.mib().walk(&mbd_accounting_root()) {
        println!("  {oid} = {value:?}");
    }

    // The breach notification carries the trace id of the RDS request
    // that tripped the quota...
    let notes = process.drain_notifications();
    let breach = notes.iter().find(|n| n.dpi == dpi).expect("breach notification");
    println!(
        "\nbreach notification from {}: {} (trace {:016x})",
        dpi, breach.value, breach.trace_id
    );
    assert_ne!(breach.trace_id, 0, "the tripping request was traced");

    // ...and the audit journal tells the same story under that trace:
    // the manager's invoke, and the server's own quota.breach entry.
    println!("\naudit journal (trace-correlated):");
    let records = client.read_journal(0)?;
    let mut saw_invoke = false;
    let mut saw_breach = false;
    for r in &records {
        if r.trace_id != breach.trace_id {
            continue;
        }
        println!(
            "  seq={} trace={:016x} principal={} verb={} dpi={} {} {}",
            r.seq,
            r.trace_id,
            r.principal,
            r.verb,
            r.dpi,
            if r.ok { "ok" } else { "err" },
            r.detail
        );
        saw_invoke |= r.verb == "invoke";
        saw_breach |= r.verb == "quota.breach";
    }
    assert!(saw_invoke, "the tripping invoke is journaled under the breach trace");
    assert!(saw_breach, "the quota breach is journaled under the breach trace");

    let state = process.dpi_info(dpi).expect("dpi visible").state;
    println!("\n{dpi} is now {state}: the runaway is parked, the server lives on");
    assert_eq!(state, mbd::core::DpiState::Suspended);
    Ok(())
}
