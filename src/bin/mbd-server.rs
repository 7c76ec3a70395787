//! `mbd-server` — run an elastic process behind RDS over TCP.
//!
//! ```console
//! mbd-server [--listen 127.0.0.1:4700] [--key SECRET] [--demo-mib]
//!            [--snmp 127.0.0.1:1161] [--community public] [--stats SECS]
//!            [--journal PATH] [--workers N] [--max-conns N]
//!            [--profile-sample N] [--slow-ms MS] [--history-cap N]
//!            [--max-invocations N] [--alert RULE]...
//!            [--state-dir DIR] [--snapshot-every SECS] [--fsync-every N]
//! ```
//!
//! With `--state-dir DIR` the delegation state is **durable** (see
//! `docs/DURABILITY.md`): every delegation-mutating operation is
//! appended to a write-ahead log in DIR before the response leaves, a
//! snapshot of the dpi table is taken every `--snapshot-every` seconds
//! (default 30; 0 disables periodic snapshots), and on boot the server
//! replays snapshot + WAL tail, resuming every live delegated agent —
//! VM globals, accounting and lifecycle state intact — exactly as the
//! crash left them. A terminated dpi leaves the table at terminate and
//! stays gone across restarts; its `lifecycle.terminate` journal
//! record, with its final account totals, is what remains of it.
//! `--fsync-every N` batches WAL fsyncs (1 = sync every record; higher
//! trades a bounded tail of recent operations against throughput).
//!
//! With `--demo-mib` the server's MIB is pre-populated with the MIB-II
//! subset, the concentrator counters and a 100-row ATM VC table, so
//! `mbdctl`-delegated agents have something to compute over.
//!
//! With `--snmp ADDR` the same elastic process is *also* visible to
//! legacy SNMP managers over UDP (RFC 1157's transport), through the
//! OCP adapter: device data, delegated agents' published objects, and
//! the server's own status subtree, e.g.
//! `snmpwalk -v1 -c public 127.0.0.1:1161 1.3.6.1.4.1.20100.1`.
//!
//! With `--stats SECS` the server prints its own telemetry registry
//! (per-verb latency histograms, transport counters, queue-depth
//! gauges) every SECS seconds. The same numbers are exported as the
//! `mbdTelemetry` subtree (`enterprises.20100.4`) over `--snmp`.
//!
//! With `--journal PATH` the audit journal — every RDS operation,
//! lifecycle transition, quota breach and survived panic, each with its
//! trace id — is appended to PATH as one JSON object per line (records
//! already evicted from the bounded in-memory ring are not recovered).
//! Per-dpi resource accounts are republished into the
//! `mbdDpiAccounting` subtree (`enterprises.20100.5`) every second, so
//! both SNMP managers and delegated watchdog agents can read them.
//!
//! The server always runs with span-tree tracing and tail-sampled
//! retention armed: every request is captured as a waterfall (reactor
//! read → queue wait → decode → verb → VM run → encode), and full trees
//! are retained for slow (`--slow-ms`, default 50), errored or frozen
//! requests plus a reservoir of normal ones. The flight recorder
//! freezes the recent span stream on anomalies — a handler panic, a
//! shed burst, a quota breach, or the `rds.request` p99 crossing the
//! slow threshold — filing it under the tripping trace id. Fetch trees
//! with `mbdctl profile [TRACE_ID]`.
//!
//! With `--profile-sample N` every newly instantiated dpi runs under
//! the sampling VM profiler (one sample per N basic-block entries;
//! see `docs/TELEMETRY.md`). Folded stacks are served by `mbdctl
//! profile --folded` and the `mbdProfile` subtree
//! (`enterprises.20100.6`) over `--snmp`.
//!
//! Metrics **history** is always retained: the server's 1 s loop
//! snapshots every counter rate, gauge and histogram p50/p99 into
//! multi-resolution rings (1 s / 10 s / 60 s; `--history-cap N` scales
//! their capacities, default 120/180/240 points). Query it with
//! `mbdctl metrics NAME [--range S] [--res R]`, watch it live with
//! `mbdctl top`, or walk the `mbdHistory` subtree
//! (`enterprises.20100.7`) from a delegated agent.
//!
//! `--alert RULE` (repeatable) installs SLO alert rules evaluated
//! in-server against that history —
//! `METRIC(>|<)THRESHOLD[@WINDOWs][:for=N][,clear=M]`, e.g.
//! `--alert 'rds.request.p99>50ms:for=3,clear=5'` (instantaneous
//! threshold with hysteresis) or `--alert 'ep.quota_breaches>0@30s'`
//! (windowed burn rate). Fire/clear transitions are journaled under a
//! trace id, raised as dpi-0 notifications, and a fire trips the
//! flight recorder.
//!
//! With `--max-invocations N` every dpi runs under a per-instance
//! invocation quota: the N+1-th invocation trips the resource brake
//! (suspension, a journaled `quota.breach`, the `ep.quota_breaches`
//! counter — a natural `--alert` target — and a flight-recorder
//! freeze).
//!
//! Two knobs tune the event-driven front-end (see `docs/RDS.md` and
//! `DESIGN.md` §10): `--workers` sizes the execution tier — the
//! reactor's worker pool, whose threads decode, run the verb (the VM
//! included) and encode — and `--max-conns` caps the reactor's
//! connection table (over-cap connections get `Busy` at accept). The
//! request backlog runs at its `TcpServerConfig` default; the
//! per-connection window, the frame and drain deadlines and the
//! per-principal duplicate-suppression cache are fixed constants of
//! the reactor and of `MbdServer`.

use mbd::core::{AuditRecord, ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{TcpServer, TcpServerConfig};
use std::io::Write;
use std::sync::Arc;

/// Minimal JSON string escaping for journal fields (quotes, backslashes
/// and control characters; everything else passes through).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_line(r: &AuditRecord) -> String {
    format!(
        "{{\"seq\":{},\"ticks\":{},\"trace\":\"{:016x}\",\"principal\":\"{}\",\
         \"verb\":\"{}\",\"dpi\":{},\"ok\":{},\"detail\":\"{}\"}}",
        r.seq,
        r.ticks,
        r.trace_id,
        json_escape(&r.principal),
        json_escape(&r.verb),
        r.dpi,
        r.ok,
        json_escape(&r.detail),
    )
}

/// Mints a non-zero trace id for a server-originated journal entry
/// (splitmix64 of a loop-local seed — alert edges need an id that is
/// unique within the journal, not cryptographic).
fn alert_trace_id(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut listen = "127.0.0.1:4700".to_string();
    let mut key: Option<Vec<u8>> = None;
    let mut demo_mib = false;
    let mut snmp_listen: Option<String> = None;
    let mut community = "public".to_string();
    let mut stats_every: Option<u64> = None;
    let mut journal_path: Option<String> = None;
    let defaults = TcpServerConfig::default();
    let mut workers = defaults.workers;
    let mut max_connections = defaults.max_connections;
    let mut profile_sample: u32 = 0;
    let mut slow_ms: u64 = 50;
    let mut history_cap: usize = 120;
    let mut alert_rules: Vec<mbd::telemetry::AlertRule> = Vec::new();
    let mut max_invocations: Option<u64> = None;
    let mut state_dir: Option<String> = None;
    let mut snapshot_every: u64 = 30;
    let mut fsync_every: usize = mbd::core::durable::DEFAULT_FSYNC_EVERY;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().ok_or("--listen needs an address")?,
            "--key" => key = Some(args.next().ok_or("--key needs a secret")?.into_bytes()),
            "--demo-mib" => demo_mib = true,
            "--snmp" => snmp_listen = Some(args.next().ok_or("--snmp needs an address")?),
            "--community" => community = args.next().ok_or("--community needs a name")?,
            "--stats" => {
                let secs: u64 =
                    args.next().ok_or("--stats needs an interval in seconds")?.parse()?;
                stats_every = Some(secs.max(1));
            }
            "--journal" => journal_path = Some(args.next().ok_or("--journal needs a path")?),
            "--workers" => {
                workers = args.next().ok_or("--workers needs a count")?.parse::<usize>()?.max(1);
            }
            "--max-conns" => {
                max_connections =
                    args.next().ok_or("--max-conns needs a count")?.parse::<usize>()?.max(1);
            }
            "--profile-sample" => {
                profile_sample =
                    args.next().ok_or("--profile-sample needs a 1-in-N rate (0 = off)")?.parse()?;
            }
            "--slow-ms" => {
                slow_ms = args
                    .next()
                    .ok_or("--slow-ms needs a latency threshold in milliseconds")?
                    .parse::<u64>()?
                    .max(1);
            }
            "--history-cap" => {
                history_cap = args
                    .next()
                    .ok_or("--history-cap needs a 1 s ring capacity in points")?
                    .parse::<usize>()?
                    .max(1);
            }
            "--alert" => {
                let rule =
                    args.next().ok_or("--alert needs a rule, e.g. 'rds.request.p99>50ms'")?;
                alert_rules.push(mbd::telemetry::AlertRule::parse(&rule)?);
            }
            "--max-invocations" => {
                max_invocations = Some(
                    args.next()
                        .ok_or("--max-invocations needs a per-dpi limit")?
                        .parse::<u64>()?
                        .max(1),
                );
            }
            "--state-dir" => {
                state_dir = Some(args.next().ok_or("--state-dir needs a directory")?);
            }
            "--snapshot-every" => {
                snapshot_every =
                    args.next().ok_or("--snapshot-every needs seconds (0 = off)")?.parse()?;
            }
            "--fsync-every" => {
                fsync_every = args
                    .next()
                    .ok_or("--fsync-every needs a record count (1 = every record)")?
                    .parse::<usize>()?
                    .max(1);
            }
            "--help" | "-h" => {
                println!(
                    "usage: mbd-server [--listen ADDR] [--key SECRET] [--demo-mib] \
                     [--snmp ADDR] [--community NAME] [--stats SECS] [--journal PATH] \
                     [--workers N] [--max-conns N] [--profile-sample N] [--slow-ms MS] \
                     [--history-cap N] [--max-invocations N] \
                     [--alert 'METRIC(>|<)THRESHOLD[@WINDOWs][:for=N][,clear=M]']... \
                     [--state-dir DIR] [--snapshot-every SECS] [--fsync-every N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    let quota = max_invocations.map(|limit| mbd::core::DpiQuota {
        max_invocations: Some(limit),
        ..mbd::core::DpiQuota::default()
    });
    let process =
        ElasticProcess::new(ElasticConfig { profile_sample, quota, ..ElasticConfig::default() });
    // Span trees and the flight recorder are always on: the ring is
    // bounded, capture is per-request, and tail sampling keeps only
    // anomalous trees plus a small reservoir.
    let slow_ns = slow_ms.saturating_mul(1_000_000);
    process.telemetry().enable_tracing(4096);
    process.telemetry().enable_trace_store(mbd::telemetry::TraceStoreConfig {
        slow_ns,
        ..mbd::telemetry::TraceStoreConfig::default()
    });
    // Metrics history is always on (fixed-capacity rings); the alert
    // engine carries whatever rules the operator configured. The 1 s
    // loop at the end of main feeds both, after this boot sample gives
    // every counter the baseline its first-second rate needs.
    process.telemetry().enable_history(mbd::telemetry::HistoryConfig::with_base_cap(history_cap));
    let alert_count = alert_rules.len();
    process.telemetry().enable_alerts(alert_rules);
    process.telemetry().sample_history();
    if alert_count > 0 {
        println!("alert engine armed with {alert_count} rule(s)");
    }
    if demo_mib {
        mbd::snmp::mib2::install_system(process.mib(), "mbd demo device", "demo")?;
        mbd::snmp::mib2::install_interfaces(process.mib(), 4, 10_000_000)?;
        mbd::snmp::mib2::install_concentrator(process.mib())?;
        mbd::snmp::mib2::install_atm_vc_table(process.mib(), 100)?;
        println!("demo MIB installed ({} objects)", process.mib().len());
    }
    // Durability must be armed before the transport accepts its first
    // request: recovery replays the previous incarnation's state, and
    // every operation after this point is WAL-logged.
    if let Some(dir) = &state_dir {
        let report = process.attach_durability(std::path::Path::new(dir), fsync_every)?;
        println!(
            "durable state in {dir}: recovered {} dpi(s) ({} program(s), {} WAL record(s), \
             {} abandoned, {} torn byte(s) discarded) in {} ms [trace {:016x}]",
            report.restored_dpis,
            report.restored_programs,
            report.wal_records,
            report.abandoned_dpis,
            report.torn_bytes,
            report.recovery_ms,
            report.trace_id,
        );
    }
    let authenticated = key.is_some();
    let server = Arc::new(MbdServer::with_policy(
        process.clone(),
        mbd_auth::Acl::allow_by_default(),
        key.clone(),
    ));

    // The transport records into the process's telemetry domain, so one
    // snapshot (and one OCP subtree) covers rds.tcp.*, rds.verb.* and
    // the ep.* runtime metrics together.
    let tcp = {
        let server = Arc::clone(&server);
        // A connection handler that panics (and is survived by the
        // transport) leaves an audit trail too.
        let panic_process = process.clone();
        let shed_process = process.clone();
        let config = TcpServerConfig {
            workers,
            max_connections,
            telemetry: Some(process.telemetry().clone()),
            // A keyed server sheds with a keyed Busy frame (under the
            // shed request's own id) so retrying clients can verify the
            // digest before backing off.
            key,
            on_panic: Some(Arc::new(move || {
                panic_process.journal().record(
                    panic_process.ticks(),
                    0,
                    "server",
                    "panic",
                    0,
                    false,
                    "connection handler panicked; connection dropped",
                );
                // Flight recorder: a panic is always worth a snapshot of
                // the span stream that led up to it.
                panic_process.telemetry().flight_freeze(0, "handler panic");
            })),
            on_shed: Some(Arc::new(move || {
                shed_process.journal().record(
                    shed_process.ticks(),
                    0,
                    "server",
                    "shed",
                    0,
                    false,
                    "execution tier saturated; request shed with Busy",
                );
                // Freeze on the first shed of a burst (and every 256th
                // after): one snapshot per overload episode, not one per
                // shed request.
                static SHEDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                if SHEDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed).is_multiple_of(256) {
                    shed_process.telemetry().flight_freeze(0, "shed burst");
                }
            })),
            ..defaults
        };
        // The reactor holds one fd per open connection; lift the
        // process's descriptor ceiling toward --max-conns (best-effort —
        // headroom covers the listener, waker pipe and journal).
        mbd::rds::reactor::raise_nofile_limit(max_connections as u64 + 512);
        TcpServer::spawn_with(listen.as_str(), config, move |bytes| server.process_request(bytes))?
    };
    println!(
        "mbd-server listening on {} (auth: {}, {} workers, max-conns {})",
        tcp.local_addr(),
        if authenticated { "md5 keyed digest" } else { "none" },
        workers,
        max_connections,
    );

    // The OCP adapter publishes server status, telemetry and per-dpi
    // accounting into the shared MIB. It always exists (delegated
    // agents read the subtrees via mib_walk even without SNMP); the UDP
    // plane for legacy managers is optional.
    let ocp = mbd::core::ocp::SnmpOcp::new(process.clone(), &community);
    if let Some(addr) = snmp_listen {
        let ocp = ocp.clone();
        let socket = std::net::UdpSocket::bind(addr.as_str())?;
        println!("snmp agent (community `{community}`) on udp {}", socket.local_addr()?);
        std::thread::spawn(move || {
            let mut buf = [0u8; 65_535];
            loop {
                let Ok((n, peer)) = socket.recv_from(&mut buf) else { continue };
                if let Some(resp) = ocp.handle(&buf[..n]) {
                    let _ = socket.send_to(&resp, peer);
                }
            }
        });
    }
    let mut journal_out = match &journal_path {
        Some(path) => {
            let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            println!("audit journal appending to {path}");
            Some(file)
        }
        None => None,
    };
    println!("press ctrl-c to stop");

    // Once a second: sample history and evaluate alert rules, then surface
    // alert edges, notifications, log lines, new journal records and stats.
    let mut seconds: u64 = 0;
    let mut journal_seq: u64 = 0;
    let mut last_p99_freeze: u64 = 0;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        seconds += 1;
        process.advance_ticks(100);
        let edges = process.telemetry().sample_and_evaluate();
        ocp.refresh();
        // Durability housekeeping: flush any batched WAL tail once a
        // second (bounding data-at-risk to ~1 s of operations even with
        // a large --fsync-every), and snapshot + truncate on cadence.
        if state_dir.is_some() {
            process.durable_sync();
            if snapshot_every > 0 && seconds.is_multiple_of(snapshot_every) {
                if let Err(e) = process.snapshot_now() {
                    eprintln!("[durable] snapshot failed: {e}");
                }
            }
        }
        // Flight recorder, latency trigger: when the rds.request p99
        // crosses the slow threshold, freeze the recent span stream (at
        // most once per 30 s — one snapshot per episode).
        if seconds >= last_p99_freeze + 30 {
            if let Some(h) = process.telemetry().snapshot().histogram("rds.request") {
                if h.count() > 0 && h.p99_ns() >= slow_ns {
                    last_p99_freeze = seconds;
                    let n = process
                        .telemetry()
                        .flight_freeze(0, &format!("p99 breach: {} ms", h.p99_ns() / 1_000_000));
                    println!("[flight] rds.request p99 over {slow_ms} ms; froze {n} spans");
                }
            }
        }
        // This second's alert edges: journal each under a minted trace
        // id, notify the manager stream, and freeze the flight recorder
        // on fires (the spans leading up to the breach are exactly what
        // the operator will want).
        for edge in edges {
            let trace_id = alert_trace_id(seconds << 32 | edge.t_s);
            let verb = if edge.fired { "alert.fire" } else { "alert.clear" };
            let detail = format!("{} value {} threshold {}", edge.rule, edge.value, edge.threshold);
            process.journal().record(
                process.ticks(),
                trace_id,
                "server",
                verb,
                0,
                !edge.fired,
                &detail,
            );
            process.raise_notification(
                mbd::dpl::Value::list(vec![
                    mbd::dpl::Value::Str(verb.to_string()),
                    mbd::dpl::Value::Str(edge.rule.clone()),
                    mbd::dpl::Value::Int(edge.value as i64),
                ]),
                trace_id,
            );
            if edge.fired {
                let n = process
                    .telemetry()
                    .flight_freeze(trace_id, &format!("alert fired: {}", edge.rule));
                println!("[alert]  FIRED {} (value {}); froze {n} spans", edge.rule, edge.value);
            } else {
                println!("[alert]  cleared {} (value {})", edge.rule, edge.value);
            }
        }
        for note in process.drain_notifications() {
            if note.trace_id == 0 {
                println!("[notify] {}: {}", note.dpi, note.value);
            } else {
                println!("[notify] {} [{:016x}]: {}", note.dpi, note.trace_id, note.value);
            }
        }
        for line in process.drain_log() {
            println!("[agent]  {line}");
        }
        if let Some(out) = &mut journal_out {
            for record in process.journal().since(journal_seq) {
                journal_seq = record.seq;
                writeln!(out, "{}", json_line(&record))?;
            }
            out.flush()?;
        }
        if let Some(every) = stats_every {
            if seconds.is_multiple_of(every) {
                println!("[stats]\n{}", process.telemetry().snapshot_text());
            }
        }
    }
}
