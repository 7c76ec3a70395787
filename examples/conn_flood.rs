//! Connection-flood smoke: the event-driven front-end under thousands
//! of idle connections.
//!
//! Opens `CONNS` idle TCP connections (they never send a byte — the
//! expensive kind under thread-per-connection, the free kind under a
//! reactor) and then drives **every RDS verb** through a fresh
//! connection while the flood stays open. Against an in-process server
//! it also asserts the gauges directly: every connection registered,
//! health still `accepting`, zero requests shed, shutdown bounded.
//!
//! Run with: `cargo run --release --example conn_flood [CONNS] [ADDR]`
//!
//! Without `ADDR` the example spawns its own 4-worker server. With
//! `ADDR` it floods a running `mbd-server` instead — `scripts/ci.sh`
//! uses that mode and checks the server's own `--stats` gauges stay in
//! the accepting band.

use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{RdsClient, ServerHealth, TcpDuplex, TcpServer, TcpServerConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_CONNS: usize = 3000;

fn drive_all_verbs(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let client = RdsClient::new(TcpDuplex::connect(addr)?, "flood-mgr");
    client.delegate("flood", "var n = 0; fn bump() { n = n + 1; return n; }")?;
    let dpi = client.instantiate("flood")?;
    assert_eq!(client.invoke(dpi, "bump", &[])?, mbd::ber::BerValue::Integer(1));
    client.suspend(dpi)?;
    client.resume(dpi)?;
    client.send_message(dpi, b"hello")?;
    assert!(client.list_programs()?.iter().any(|p| p == "flood"));
    assert!(client.list_instances()?.iter().any(|i| i.id == dpi));
    assert!(!client.read_journal(0)?.is_empty());
    client.terminate(dpi)?;
    client.delete("flood")?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let conns = match std::env::args().nth(1) {
        Some(arg) => arg.parse::<usize>()?,
        None => DEFAULT_CONNS,
    };
    let external = std::env::args().nth(2);

    // Two fds per loopback connection when the server is in-process,
    // one when it is not; budget for the worst case plus slack.
    mbd::rds::reactor::raise_nofile_limit(conns as u64 * 2 + 1024);

    // In-process mode spawns a fixed 4-worker execution tier behind
    // the reactor.
    let local = match &external {
        Some(_) => None,
        None => {
            let process = ElasticProcess::new(ElasticConfig::default());
            let server = Arc::new(MbdServer::open(process.clone()));
            let config = TcpServerConfig {
                workers: 4,
                max_connections: conns + 64,
                telemetry: Some(process.telemetry().clone()),
                ..Default::default()
            };
            Some(TcpServer::spawn_with("127.0.0.1:0", config, move |bytes| {
                server.process_request(bytes)
            })?)
        }
    };
    let addr = match (&external, &local) {
        (Some(addr), _) => addr.clone(),
        (None, Some(tcp)) => tcp.local_addr().to_string(),
        _ => unreachable!(),
    };

    let started = Instant::now();
    let mut flood = Vec::with_capacity(conns);
    for i in 0..conns {
        match TcpStream::connect(&addr) {
            Ok(s) => flood.push(s),
            Err(e) => return Err(format!("connection {i} refused: {e}").into()),
        }
    }
    println!("{} idle connections opened in {:?}", flood.len(), started.elapsed());

    if let Some(tcp) = &local {
        // Wait for the reactor to register the whole flood.
        let deadline = Instant::now() + Duration::from_secs(10);
        while tcp.open_connections() < flood.len() as u64 {
            if Instant::now() > deadline {
                println!(
                    "flood FAILED: only {} of {} connections registered",
                    tcp.open_connections(),
                    flood.len()
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Every verb still round-trips promptly with the flood in place.
    let verbs = Instant::now();
    drive_all_verbs(&addr)?;
    println!("all verbs round-tripped under the flood in {:?}", verbs.elapsed());

    if let Some(tcp) = local {
        let health = tcp.health();
        let sheds = tcp.sheds();
        let rejected = tcp.connections_rejected();
        println!(
            "gauges: {} open, health {health}, {sheds} shed, {rejected} rejected",
            tcp.open_connections()
        );
        let ok = health == ServerHealth::Accepting && sheds == 0 && rejected == 0;
        if !ok {
            println!("flood FAILED: idle connections must not degrade the server");
            std::process::exit(1);
        }
        let drain = Instant::now();
        tcp.shutdown();
        println!("drained {} connections in {:?}", flood.len(), drain.elapsed());
        if drain.elapsed() > Duration::from_secs(5) {
            println!("flood FAILED: shutdown not bounded");
            std::process::exit(1);
        }
    }
    println!("conn flood ok: {} idle connections, every verb served", flood.len());
    Ok(())
}
