//! Quickstart: the whole MbD loop in one file.
//!
//! A manager (you) delegates a small agent to an elastic process over the
//! RDS protocol, instantiates it, invokes it, inspects the server, and
//! tears the instance down.
//!
//! Run with: `cargo run --example quickstart`

use ber::BerValue;
use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{LoopbackDuplex, RdsClient};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The elastic process is the managed-device side: a server that can
    // absorb new code at runtime.
    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process));

    // The manager side talks RDS. (In the experiments the same bytes run
    // over a simulated WAN; here the transport is an in-process loop.)
    let duplex = {
        let server = Arc::clone(&server);
        LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes))
    };
    let client = RdsClient::new(duplex, "noc-operator");

    // 1. Delegate: ship the agent's *code* to the server. The server's
    //    translator checks it against the allowed host functions and
    //    compiles it; a bad program would be rejected right here.
    client.delegate(
        "averager",
        r#"
        var count = 0;
        var total = 0;

        fn add(sample) {
            count = count + 1;
            total = total + sample;
            return total / count;
        }

        fn stats() { return [count, total]; }
        "#,
    )?;
    println!("delegated `averager` — programs on server: {:?}", client.list_programs()?);

    // 2. Instantiate: create a running instance (dpi) with its own state.
    let dpi = client.instantiate("averager")?;
    println!("instantiated {dpi}");

    // 3. Invoke: state persists across calls, server-side.
    for sample in [10, 20, 60] {
        let avg = client.invoke(dpi, "add", &[BerValue::Integer(sample)])?;
        println!("added {sample}, running average = {avg}");
    }
    let stats = client.invoke(dpi, "stats", &[])?;
    println!("agent stats [count, total] = {stats}");

    // 4. Lifecycle control: suspend, resume, terminate.
    client.suspend(dpi)?;
    assert!(client.invoke(dpi, "add", &[BerValue::Integer(1)]).is_err());
    client.resume(dpi)?;
    client.terminate(dpi)?;
    println!("lifecycle complete — instances: {:?}", client.list_instances()?);

    // 5. Safety: programs that bind outside the allowed set never run.
    let err = client.delegate("evil", "fn main() { return spawn_shell(); }").unwrap_err();
    println!("translator rejected the bad agent: {err}");

    Ok(())
}
