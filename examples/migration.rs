//! Agent migration between two live elastic servers.
//!
//! The thesis argues that a delegated agent should be able to *move*:
//! a NOC drains one elastic process (for upgrade or decommissioning)
//! by checkpointing each suspended dpi and restoring the image on a
//! peer, where it resumes with its variables and resource accounting
//! intact. This example walks that drain end to end over real TCP:
//!
//! 1. delegate + instantiate a stateful counter agent on server A,
//! 2. invoke it a few times so it accumulates state,
//! 3. suspend it and capture a checkpoint blob,
//! 4. restore the blob on server B, resume, and invoke again — the
//!    running total continues where A left off,
//! 5. replay the same blob: refused while the copy lives (identity
//!    collision) *and* after it is gone (single-use nonce),
//! 6. terminate the stale source copy on A.
//!
//! Run with: `cargo run --example migration`

use ber::BerValue;
use mbd::core::{DpiAccountRow, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{DpiId, ErrorCode, RdsClient, RdsError, TcpDuplex, TcpServer};
use std::sync::Arc;

const COUNTER: &str = r#"
var total = 0;
var watermark = 0;

fn bump(by) {
    total = total + by;
    if (total > watermark) { watermark = total; }
    return total;
}

fn peak() { return watermark; }
"#;

fn spawn_server(process: &ElasticProcess) -> Result<TcpServer, RdsError> {
    let server = Arc::new(MbdServer::open(process.clone()));
    TcpServer::spawn("127.0.0.1:0", move |bytes| server.process_request(bytes))
}

fn account_of(process: &ElasticProcess, dpi: DpiId) -> Option<DpiAccountRow> {
    process.account_rows().into_iter().find(|row| row.id == dpi)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let process_a = ElasticProcess::new(ElasticConfig::default());
    // B frees terminated slots so the final replay below can only be
    // stopped by the checkpoint nonce, never by a lingering id.
    let process_b =
        ElasticProcess::new(ElasticConfig { keep_terminated: false, ..ElasticConfig::default() });
    let server_a = spawn_server(&process_a)?;
    let server_b = spawn_server(&process_b)?;
    let noc_a = RdsClient::new(TcpDuplex::connect(server_a.local_addr())?, "noc");
    let noc_b = RdsClient::new(TcpDuplex::connect(server_b.local_addr())?, "noc");
    println!("server A on {}, server B on {}", server_a.local_addr(), server_b.local_addr());

    // --- 1-2: a stateful agent accumulates on A -------------------------
    noc_a.delegate("counter", COUNTER)?;
    let dpi = noc_a.instantiate("counter")?;
    for by in [5, 7, 8] {
        let total = noc_a.invoke(dpi, "bump", &[BerValue::Integer(by)])?;
        println!("A: bump({by}) -> {total:?}");
    }
    let before = account_of(&process_a, dpi).expect("dpi exists on A");
    println!("A: dpi {dpi:?} has {} successful invocations", before.account.invocations_ok);

    // --- 3: suspend + checkpoint ----------------------------------------
    noc_a.suspend(dpi)?;
    let blob = noc_a.checkpoint(dpi)?;
    println!("A: checkpoint blob is {} bytes (program + globals + account + quota)", blob.len());

    // --- 4: restore on B; the agent resumes mid-count -------------------
    let moved = noc_b.restore(&blob)?;
    assert_eq!(moved, dpi, "the image keeps its dpi id");
    noc_b.resume(moved)?;
    let total = noc_b.invoke(moved, "bump", &[BerValue::Integer(10)])?;
    let peak = noc_b.invoke(moved, "peak", &[])?;
    println!("B: bump(10) -> {total:?}, peak() -> {peak:?}");
    assert_eq!(total, BerValue::Integer(30), "5+7+8 from A, +10 on B");
    assert_eq!(peak, BerValue::Integer(30), "watermark global migrated too");

    let after = account_of(&process_b, moved).expect("dpi exists on B");
    assert_eq!(
        after.account.invocations_ok,
        before.account.invocations_ok + 2,
        "resource accounting continues from A's totals"
    );
    println!(
        "B: dpi {moved:?} now has {} successful invocations ({} inherited from A)",
        after.account.invocations_ok, before.account.invocations_ok
    );

    // --- 5: the blob is single-use --------------------------------------
    // While the migrated copy lives, a replay is an identity collision.
    match noc_b.restore(&blob) {
        Err(RdsError::Remote { code: ErrorCode::BadState, message }) => {
            println!("B: replay while the copy lives is refused: {message}");
        }
        other => panic!("double install must be refused, got {other:?}"),
    }
    // Even once the copy is gone and its id is free again, the blob
    // stays dead: its nonce was consumed by the first install.
    noc_b.terminate(moved)?;
    match noc_b.restore(&blob) {
        Err(RdsError::Remote { code: ErrorCode::BadState, message }) => {
            println!("B: replay after retirement is refused too: {message}");
        }
        other => panic!("the nonce must refuse a second install, got {other:?}"),
    }

    // --- 6: retire the stale copy on A ----------------------------------
    noc_a.terminate(dpi)?;
    println!("A: stale source copy terminated; migration complete");
    Ok(())
}
