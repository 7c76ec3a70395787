//! `mbdctl` — a manager's command-line client for an MbD server.
//!
//! ```console
//! mbdctl [--server 127.0.0.1:4700] [--key SECRET] [--principal NAME]
//!        [--retries N] [--backoff-ms MS] [--deadline-ms MS]
//!        [--pipeline N] [--repeat R] [--json] COMMAND
//!
//! commands:
//!   delegate NAME FILE          translate + store FILE's DPL source as NAME
//!   delete NAME                 remove a stored program
//!   instantiate NAME            create an instance; prints its dpi id
//!   invoke DPI ENTRY [ARG...]   run an entry point (ints, floats, strings)
//!   suspend|resume|terminate DPI
//!   checkpoint DPI [-o FILE]    serialize a suspended instance into a
//!                               transferable blob (stdout when no -o)
//!   restore FILE                install a checkpoint blob from FILE on
//!                               this server; prints the new dpi id
//!   send DPI PAYLOAD            post to the instance's mailbox
//!   programs                    list stored programs
//!   instances                   list instances and their states
//!   journal [MAX]               read the server's audit journal (newest
//!                               MAX records; all retained when omitted)
//!   profile [TRACE_ID] [--dpi N] [--folded]
//!                               fetch the retained span tree for a trace
//!                               (hex id; omitted = the newest retained,
//!                               anomalous first) and the VM profiler's
//!                               folded stacks; --folded prints only the
//!                               stacks (flamegraph.pl input), --dpi N
//!                               narrows stacks to one instance
//!   metrics [PATTERN] [--range S] [--res R]
//!                               read retained metrics history: series
//!                               matching the *-glob PATTERN (omitted =
//!                               all), trailing --range seconds (0 =
//!                               everything retained) at ring
//!                               resolution --res (1, 10 or 60 s;
//!                               default 1); also lists alert rules
//!   top [--once]                live dashboard: hottest counters by
//!                               rate, gauge/quantile sparklines and
//!                               firing alerts, refreshed every second
//!                               (--once renders a single frame and
//!                               exits, for scripts)
//! ```
//!
//! `--json` switches `journal`, `profile` and `metrics` to
//! machine-readable output: `journal` emits one JSON object per
//! record (JSON Lines), `profile` and `metrics` one object each.
//!
//! Every request carries a fresh trace id; `journal` shows which trace
//! caused which operation (`trace=` is all zeros only for records whose
//! cause was untraced, e.g. server-internal events before any request).
//!
//! With `--retries N` delivery failures (broken connections, damaged
//! frames, `Busy` sheds) are retried up to N extra attempts, re-sending
//! the identical frame so the server's duplicate-suppression cache
//! replays rather than re-executes (see `docs/RDS.md`); `--backoff-ms`
//! sets the base of the exponential backoff between attempts, and
//! `--deadline-ms` bounds the whole request, retries included. Without
//! `--retries` nothing is re-sent, not even over a connection the
//! server closed — except by `top`, whose refresh loop always gets one
//! retry.
//!
//! With `--pipeline N` the command runs through the pipelined client:
//! up to N requests in flight on one connection, replies accepted out
//! of order, `--repeat R` issuing the command R times (each repetition
//! is its own request id, so effects execute R times; retried frames
//! within one repetition stay byte-identical and dedup-safe). The
//! retry flags apply per repetition unchanged. A summary line reports
//! throughput, re-sends and reconnects.

use ber::BerValue;
use mbd::rds::{DpiId, RdsClient, RdsPipeline, RdsRequest, RdsResponse, RetryPolicy, TcpDuplex};
use std::time::Duration;

fn parse_arg(s: &str) -> BerValue {
    if let Ok(i) = s.parse::<i64>() {
        return BerValue::Integer(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        // Ride floats through the convert layer's tagged encoding.
        return BerValue::OctetString(format!("f:{f}").into_bytes());
    }
    BerValue::OctetString(s.as_bytes().to_vec())
}

fn parse_dpi(s: &str) -> Result<DpiId, String> {
    let digits = s.strip_prefix("dpi-").unwrap_or(s);
    digits.parse::<u64>().map(DpiId).map_err(|_| format!("bad dpi id `{s}`"))
}

/// `profile [TRACE_ID] [--dpi N] [--folded]` → (trace_id, dpi, folded).
fn parse_profile_args(rest: &[String]) -> Result<(u64, u64, bool), String> {
    let mut trace_id = 0u64;
    let mut dpi = 0u64;
    let mut folded = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--folded" => folded = true,
            "--dpi" => {
                let v = it.next().ok_or("--dpi needs an instance id")?;
                dpi = parse_dpi(v)?.0;
            }
            hex => {
                trace_id = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                    .map_err(|_| format!("bad trace id `{hex}` (want hex)"))?;
            }
        }
    }
    Ok((trace_id, dpi, folded))
}

/// `metrics [PATTERN] [--range S] [--res R]` → (pattern, range_s, res_s).
fn parse_metrics_args(rest: &[String]) -> Result<(String, u32, u32), String> {
    let mut pattern = String::new();
    let mut range_s = 0u32;
    let mut res_s = 1u32;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--range" => {
                let v = it.next().ok_or("--range needs seconds")?;
                range_s = v.parse().map_err(|_| format!("bad range `{v}`"))?;
            }
            "--res" => {
                let v = it.next().ok_or("--res needs a resolution (1, 10 or 60)")?;
                res_s = v.parse().map_err(|_| format!("bad resolution `{v}`"))?;
            }
            p => pattern = p.to_string(),
        }
    }
    Ok((pattern, range_s, res_s))
}

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The trailing `width` points of a series as a unicode sparkline,
/// scaled to the window's own maximum (an all-zero window is a flat
/// baseline).
fn sparkline(points: &[mbd::rds::MetricPoint], width: usize) -> String {
    let tail = &points[points.len().saturating_sub(width)..];
    let hi = tail.iter().map(|p| p.avg).max().unwrap_or(0);
    tail.iter()
        .map(|p| {
            if hi == 0 {
                SPARKS[0]
            } else {
                SPARKS[(u128::from(p.avg) * (SPARKS.len() as u128 - 1) / u128::from(hi)) as usize]
            }
        })
        .collect()
}

/// Human-readable rendering for a series value: quantiles are stored
/// as nanoseconds, rates are per-second deltas, gauges are raw.
fn fmt_value(kind: &str, v: u64) -> String {
    match kind {
        "quantile" => format!("{:.3} ms", v as f64 / 1e6),
        "rate" => format!("{v}/s"),
        _ => format!("{v}"),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

fn metrics_json(now_s: u64, series: &[mbd::rds::MetricSeries], alerts: &[mbd::rds::AlertStatus]) {
    let series_json: Vec<String> = series
        .iter()
        .map(|s| {
            let points: Vec<String> = s
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"t_s\":{},\"min\":{},\"max\":{},\"avg\":{},\"last\":{}}}",
                        p.t_s, p.min, p.max, p.avg, p.last
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"points\":[{}]}}",
                json_escape(&s.name),
                json_escape(&s.kind),
                points.join(",")
            )
        })
        .collect();
    let alerts_json: Vec<String> = alerts
        .iter()
        .map(|a| {
            format!(
                "{{\"rule\":\"{}\",\"metric\":\"{}\",\"firing\":{},\"value\":{},\"since_s\":{},\"fired_count\":{}}}",
                json_escape(&a.rule),
                json_escape(&a.metric),
                a.firing,
                a.value,
                a.since_s,
                a.fired_count
            )
        })
        .collect();
    println!(
        "{{\"now_s\":{},\"series\":[{}],\"alerts\":[{}]}}",
        now_s,
        series_json.join(","),
        alerts_json.join(",")
    );
}

/// One frame of the `top` dashboard.
fn render_top(now_s: u64, series: &[mbd::rds::MetricSeries], alerts: &[mbd::rds::AlertStatus]) {
    let firing = alerts.iter().filter(|a| a.firing).count();
    println!(
        "mbd top — t={now_s}s  {} series  {} alert rule(s), {firing} firing",
        series.len(),
        alerts.len(),
    );
    if !alerts.is_empty() {
        println!();
        println!("alerts:");
        for a in alerts {
            println!(
                "  {} {:<44} value {:>12}  fired {}x",
                if a.firing { "FIRING" } else { "  ok  " },
                a.rule,
                fmt_value(
                    if a.metric.ends_with(".p50") || a.metric.ends_with(".p99") {
                        "quantile"
                    } else {
                        "gauge"
                    },
                    a.value
                ),
                a.fired_count,
            );
        }
    }
    let mut rates: Vec<&mbd::rds::MetricSeries> =
        series.iter().filter(|s| s.kind == "rate").collect();
    rates.sort_by_key(|s| std::cmp::Reverse(s.points.last().map_or(0, |p| p.last)));
    println!();
    println!("hottest counters (per-second rates):");
    for s in rates.iter().take(10) {
        let last = s.points.last().map_or(0, |p| p.last);
        println!("  {:<34} {:>10}/s  {}", s.name, last, sparkline(&s.points, 30));
    }
    let mut others: Vec<&mbd::rds::MetricSeries> =
        series.iter().filter(|s| s.kind != "rate").collect();
    others.sort_by(|a, b| a.name.cmp(&b.name));
    println!();
    println!("gauges & quantiles:");
    for s in others.iter().take(12) {
        let last = s.points.last().map_or(0, |p| p.last);
        println!("  {:<34} {:>12}  {}", s.name, fmt_value(&s.kind, last), sparkline(&s.points, 30));
    }
}

/// Renders a span tree as an indented waterfall: children under their
/// parents, each with its offset from the tree's first span and its
/// duration.
fn print_span_tree(spans: &[mbd::rds::SpanRecord]) {
    let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    // Completion order in, start order out within each parent.
    let mut children: std::collections::HashMap<u64, Vec<&mbd::rds::SpanRecord>> =
        std::collections::HashMap::new();
    let mut roots: Vec<&mbd::rds::SpanRecord> = Vec::new();
    for s in spans {
        if s.parent_span_id != 0 && known.contains(&s.parent_span_id) {
            children.entry(s.parent_span_id).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| s.start_ns);
    }
    roots.sort_by_key(|s| s.start_ns);
    fn walk(
        s: &mbd::rds::SpanRecord,
        depth: usize,
        base: u64,
        children: &std::collections::HashMap<u64, Vec<&mbd::rds::SpanRecord>>,
    ) {
        println!(
            "{:indent$}{:<24} +{:>8.3} ms  {:>10.3} ms",
            "",
            s.name,
            (s.start_ns - base) as f64 / 1e6,
            s.duration_ns as f64 / 1e6,
            indent = depth * 2,
        );
        for c in children.get(&s.span_id).into_iter().flatten() {
            walk(c, depth + 1, base, children);
        }
    }
    for r in roots {
        walk(r, 1, base, &children);
    }
}

/// Maps a CLI command to the request it issues, for the pipelined path.
fn build_request(command: &str, rest: &[String]) -> Result<RdsRequest, Box<dyn std::error::Error>> {
    Ok(match (command, rest) {
        ("delegate", [name, file]) => RdsRequest::DelegateProgram {
            dp_name: name.clone(),
            language: "dpl".to_string(),
            source: std::fs::read_to_string(file)?.into_bytes(),
        },
        ("delete", [name]) => RdsRequest::DeleteProgram { dp_name: name.clone() },
        ("instantiate", [name]) => RdsRequest::Instantiate { dp_name: name.clone() },
        ("invoke", [dpi, entry, args @ ..]) => RdsRequest::Invoke {
            dpi: parse_dpi(dpi)?,
            entry: entry.clone(),
            args: args.iter().map(|s| parse_arg(s)).collect(),
        },
        ("suspend", [dpi]) => RdsRequest::Suspend { dpi: parse_dpi(dpi)? },
        ("resume", [dpi]) => RdsRequest::Resume { dpi: parse_dpi(dpi)? },
        ("terminate", [dpi]) => RdsRequest::Terminate { dpi: parse_dpi(dpi)? },
        ("checkpoint", [dpi]) => RdsRequest::Checkpoint { dpi: parse_dpi(dpi)? },
        ("restore", [file]) => RdsRequest::Restore { blob: std::fs::read(file)? },
        ("send", [dpi, payload]) => {
            RdsRequest::SendMessage { dpi: parse_dpi(dpi)?, payload: payload.as_bytes().to_vec() }
        }
        ("programs", []) => RdsRequest::ListPrograms,
        ("instances", []) => RdsRequest::ListInstances,
        ("journal", rest @ ([] | [_])) => RdsRequest::ReadJournal {
            max_records: match rest {
                [m] => m.parse().map_err(|_| format!("bad record count `{m}`"))?,
                _ => 0,
            },
        },
        ("profile", rest) => {
            let (trace_id, dpi, _folded) = parse_profile_args(rest)?;
            RdsRequest::ReadProfile { trace_id, dpi }
        }
        ("metrics", rest) => {
            let (pattern, range_s, res_s) = parse_metrics_args(rest)?;
            RdsRequest::ReadMetrics { pattern, range_s, res_s }
        }
        (cmd, _) => return Err(format!("bad command or arguments: `{cmd}` (try --help)").into()),
    })
}

/// Runs the command `repeat` times with up to `window` requests in
/// flight; prints one line per reply plus a summary.
fn run_pipelined(
    server: &str,
    key: Option<Vec<u8>>,
    principal: &str,
    retry: RetryPolicy,
    window: usize,
    repeat: usize,
    req: &RdsRequest,
) -> Result<(), Box<dyn std::error::Error>> {
    let duplex = TcpDuplex::connect(server)?;
    let mut pipe = match key {
        Some(k) => RdsPipeline::with_key(duplex, principal, k),
        None => RdsPipeline::new(duplex, principal),
    }
    .with_window(window)
    .with_retry(retry);
    let started = std::time::Instant::now();
    for _ in 0..repeat {
        pipe.submit(req);
    }
    let results = pipe.drain();
    let elapsed = started.elapsed();
    let mut failed = 0usize;
    for (id, result) in &results {
        match result {
            Ok(RdsResponse::Ok) => {}
            Ok(RdsResponse::Instantiated { dpi }) => println!("#{id}: {dpi}"),
            Ok(RdsResponse::Result { value }) => println!("#{id}: {value}"),
            Ok(RdsResponse::Programs { names }) => println!("#{id}: {}", names.join(" ")),
            Ok(RdsResponse::Instances { instances }) => {
                println!("#{id}: {} instance(s)", instances.len());
            }
            Ok(RdsResponse::Journal { records }) => {
                println!("#{id}: {} journal record(s)", records.len());
            }
            Ok(RdsResponse::Profile { trace_id, spans, stacks, .. }) => {
                println!(
                    "#{id}: trace {trace_id:016x}, {} span(s), {} stack line(s)",
                    spans.len(),
                    stacks.len(),
                );
            }
            Ok(RdsResponse::Metrics { series, alerts, .. }) => {
                println!("#{id}: {} series, {} alert rule(s)", series.len(), alerts.len());
            }
            Ok(RdsResponse::Checkpointed { blob }) => {
                println!("#{id}: checkpoint blob ({} bytes)", blob.len());
            }
            Ok(RdsResponse::Error { code, message }) => {
                failed += 1;
                eprintln!("#{id}: remote error ({code}): {message}");
            }
            Err(e) => {
                failed += 1;
                eprintln!("#{id}: {e}");
            }
        }
    }
    let per_sec = results.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "{} request(s), {} ok, {} failed, window {}, {:.1}/s, {} re-send(s), {} reconnect(s)",
        results.len(),
        results.len() - failed,
        failed,
        window,
        per_sec,
        pipe.retries(),
        pipe.duplex().reconnects(),
    );
    if failed > 0 {
        return Err(format!("{failed} request(s) failed").into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut server = "127.0.0.1:4700".to_string();
    let mut key: Option<Vec<u8>> = None;
    let mut principal = "mbdctl".to_string();
    let mut retry = RetryPolicy::none();
    let mut pipeline: Option<usize> = None;
    let mut repeat: usize = 1;
    let mut json = false;
    let mut rest: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" => server = args.next().ok_or("--server needs an address")?,
            "--key" => key = Some(args.next().ok_or("--key needs a secret")?.into_bytes()),
            "--principal" => principal = args.next().ok_or("--principal needs a name")?,
            "--retries" => {
                let n: u32 = args.next().ok_or("--retries needs a count")?.parse()?;
                let defaults = RetryPolicy::default();
                retry = RetryPolicy {
                    max_attempts: n + 1,
                    base_backoff: if retry.base_backoff.is_zero() {
                        defaults.base_backoff
                    } else {
                        retry.base_backoff
                    },
                    max_backoff: defaults.max_backoff,
                    ..retry
                };
            }
            "--backoff-ms" => {
                let ms: u64 = args.next().ok_or("--backoff-ms needs milliseconds")?.parse()?;
                retry.base_backoff = Duration::from_millis(ms);
                retry.max_backoff = retry.max_backoff.max(Duration::from_millis(ms));
            }
            "--deadline-ms" => {
                let ms: u64 = args.next().ok_or("--deadline-ms needs milliseconds")?.parse()?;
                retry.deadline = Some(Duration::from_millis(ms));
            }
            "--pipeline" => {
                let n: usize = args.next().ok_or("--pipeline needs a window size")?.parse()?;
                pipeline = Some(n.max(1));
            }
            "--repeat" => {
                repeat = args.next().ok_or("--repeat needs a count")?.parse::<usize>()?.max(1);
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("see `mbdctl` module docs; commands: delegate delete instantiate invoke suspend resume terminate checkpoint restore send programs instances journal profile metrics top");
                return Ok(());
            }
            other => {
                rest.push(other.to_string());
                rest.extend(args.by_ref());
            }
        }
    }
    let (command, rest) = rest.split_first().ok_or("missing command (try --help)")?;

    if let Some(window) = pipeline {
        let req = build_request(command, rest)?;
        return run_pipelined(&server, key, &principal, retry, window, repeat, &req);
    }
    if repeat != 1 {
        return Err("--repeat needs --pipeline".into());
    }

    // `top` is the one long-lived caller: its refresh loop can meet a
    // connection the server reaped as idle, so that read-only verb
    // always gets one retry.
    if command == "top" {
        retry.max_attempts = retry.max_attempts.max(2);
    }
    let duplex = TcpDuplex::connect(server.as_str())?;
    let client = match key {
        Some(k) => RdsClient::with_key(duplex, &principal, k),
        None => RdsClient::new(duplex, &principal),
    }
    .with_retry(retry);

    match (command.as_str(), rest) {
        ("delegate", [name, file]) => {
            let source = std::fs::read_to_string(file)?;
            client.delegate(name, &source)?;
            println!("delegated `{name}` ({} bytes)", source.len());
        }
        ("delete", [name]) => {
            client.delete(name)?;
            println!("deleted `{name}`");
        }
        ("instantiate", [name]) => {
            let dpi = client.instantiate(name)?;
            println!("{dpi}");
        }
        ("invoke", [dpi, entry, args @ ..]) => {
            let dpi = parse_dpi(dpi)?;
            let args: Vec<BerValue> = args.iter().map(|s| parse_arg(s)).collect();
            let result = client.invoke(dpi, entry, &args)?;
            println!("{result}");
        }
        ("suspend", [dpi]) => client.suspend(parse_dpi(dpi)?)?,
        ("resume", [dpi]) => client.resume(parse_dpi(dpi)?)?,
        ("terminate", [dpi]) => client.terminate(parse_dpi(dpi)?)?,
        ("checkpoint", [dpi, rest @ ..]) => {
            let out = match rest {
                [] => None,
                [flag, path] if flag == "-o" || flag == "--out" => Some(path.as_str()),
                _ => return Err("checkpoint takes DPI [-o FILE]".into()),
            };
            let blob = client.checkpoint(parse_dpi(dpi)?)?;
            match out {
                Some(path) => {
                    std::fs::write(path, &blob)?;
                    println!("checkpointed {dpi} to `{path}` ({} bytes)", blob.len());
                }
                None => {
                    use std::io::Write;
                    std::io::stdout().write_all(&blob)?;
                }
            }
        }
        ("restore", [file]) => {
            let blob = std::fs::read(file)?;
            let dpi = client.restore(&blob)?;
            println!("{dpi}");
        }
        ("send", [dpi, payload]) => client.send_message(parse_dpi(dpi)?, payload.as_bytes())?,
        ("programs", []) => {
            for name in client.list_programs()? {
                println!("{name}");
            }
        }
        ("instances", []) => {
            for i in client.list_instances()? {
                println!("{}\t{}\t{}", i.id, i.dp_name, i.state);
            }
        }
        ("journal", rest @ ([] | [_])) => {
            let max: u32 = match rest {
                [m] => m.parse().map_err(|_| format!("bad record count `{m}`"))?,
                _ => 0,
            };
            for r in client.read_journal(max)? {
                if json {
                    println!(
                        "{{\"seq\":{},\"ticks\":{},\"trace\":\"{:016x}\",\"principal\":\"{}\",\"verb\":\"{}\",\"dpi\":{},\"ok\":{},\"detail\":\"{}\"}}",
                        r.seq,
                        r.ticks,
                        r.trace_id,
                        json_escape(&r.principal),
                        json_escape(&r.verb),
                        r.dpi,
                        r.ok,
                        json_escape(&r.detail),
                    );
                } else {
                    println!(
                        "seq={} ticks={} trace={:016x} principal={} verb={} dpi={} {} detail={}",
                        r.seq,
                        r.ticks,
                        r.trace_id,
                        r.principal,
                        r.verb,
                        r.dpi,
                        if r.ok { "ok" } else { "err" },
                        r.detail,
                    );
                }
            }
        }
        ("profile", rest) => {
            let (trace_id, dpi, folded) = parse_profile_args(rest)?;
            let (tid, kept, spans, stacks) = client.read_profile(trace_id, dpi)?;
            if json {
                let spans_json: Vec<String> = spans
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"span_id\":{},\"parent_span_id\":{},\"name\":\"{}\",\"start_ns\":{},\"duration_ns\":{}}}",
                            s.span_id,
                            s.parent_span_id,
                            json_escape(&s.name),
                            s.start_ns,
                            s.duration_ns,
                        )
                    })
                    .collect();
                let stacks_json: Vec<String> =
                    stacks.iter().map(|l| format!("\"{}\"", json_escape(l))).collect();
                println!(
                    "{{\"trace_id\":\"{tid:016x}\",\"kept\":\"{}\",\"spans\":[{}],\"stacks\":[{}]}}",
                    json_escape(&kept),
                    spans_json.join(","),
                    stacks_json.join(","),
                );
            } else if folded {
                for line in &stacks {
                    println!("{line}");
                }
            } else {
                if tid == 0 && spans.is_empty() {
                    println!("no retained span tree (is the server tracing?)");
                } else {
                    println!("trace {tid:016x} kept={kept}");
                    print_span_tree(&spans);
                }
                if !stacks.is_empty() {
                    println!("vm profile ({} stack line(s)):", stacks.len());
                    for line in &stacks {
                        println!("  {line}");
                    }
                }
            }
        }
        ("metrics", rest) => {
            let (pattern, range_s, res_s) = parse_metrics_args(rest)?;
            let (now_s, series, alerts) = client.read_metrics(&pattern, range_s, res_s)?;
            if json {
                metrics_json(now_s, &series, &alerts);
            } else {
                if series.is_empty() {
                    println!("no retained series match `{pattern}` (is history enabled?)");
                }
                for s in &series {
                    println!("{} ({}, {} point(s))", s.name, s.kind, s.points.len());
                    for p in &s.points {
                        println!(
                            "  t={:>6}  min={:<12} avg={:<12} max={:<12} last={}",
                            p.t_s, p.min, p.avg, p.max, p.last,
                        );
                    }
                }
                for a in &alerts {
                    println!(
                        "alert {} [{}] value={} since={} fired={}",
                        a.rule,
                        if a.firing { "FIRING" } else { "ok" },
                        a.value,
                        a.since_s,
                        a.fired_count,
                    );
                }
            }
        }
        ("top", rest @ ([] | [_])) => {
            let once = match rest {
                [] => false,
                [flag] if flag == "--once" => true,
                [flag] => return Err(format!("bad top flag `{flag}` (try --once)").into()),
                _ => unreachable!(),
            };
            loop {
                let (now_s, series, alerts) = client.read_metrics("", 120, 1)?;
                if !once {
                    // Clear and home between frames so the dashboard
                    // repaints in place.
                    print!("\x1b[2J\x1b[H");
                }
                render_top(now_s, &series, &alerts);
                if once {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        }
        (cmd, _) => return Err(format!("bad command or arguments: `{cmd}` (try --help)").into()),
    }
    Ok(())
}
