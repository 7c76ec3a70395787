//! `mbd-e2e` — the repo's end-to-end benchmark (see `README.md`).
//!
//! ```console
//! cargo run --release --manifest-path bench/e2e/Cargo.toml -- [--workload NAME] [--seed N]
//! ```
//!
//! Spawns the stock `mbd-server` binary in its shipping posture, drives
//! one of four wire workloads at it over loopback TCP, checks every
//! reply against an independent oracle, and prints every metric by name
//! with its unit; the last line of stdout is one JSON object
//! `{correct, attempted, failed, metrics}`. Without `--workload` all
//! four workloads run in turn. The run shape is frozen in the constants
//! below; there is nothing to tune.
//!
//! The harness that runs `BENCHMARK.json`'s command appends
//! `--seconds S --trace 0|1` to it. `--trace` picks the metric family
//! of the result line (0: end-to-end, 1: per-layer; a `--trace 0` run
//! skips the traced slice and the layer probes, whose figures it does
//! not report). `--seconds` is accepted and has no effect: a run always
//! measures [`SLICES`] slices of fixed request counts, sized so that
//! they take the `run_seconds` that `BENCHMARK.json` declares.

mod child;
mod cpus;
mod driver;
mod gen;
mod probes;
mod procfs;
mod report;
mod stats;

use child::Server;
use cpus::KeepAwake;
use driver::{Conn, Slice, Tracer};
use gen::{Kind, Workload};
use mbd::rds::{RdsRequest, RdsResponse, TcpDuplex};
use report::{Metric, Report};
use stats::{iqr_share, median, median_at, median_ns, quiet_slices, supported_tail};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured slices per run, all against one server instance that lives
/// for the whole run. Each is a fixed request count sized to ≈0.05 s on
/// the reference host (`Kind::slice_requests`): short, because the
/// host's quiet spells are (README "Host noise").
const SLICES: usize = 400;

/// The run's quiet slices: the fiftieth of [`SLICES`] with the highest
/// throughput. Every run-time end-to-end metric is its median over
/// these same slices.
const QUIET_SLICES: usize = SLICES / 50;

/// Server boots timed per run, the measured instance's included, in
/// [`BOOT_BATCHES`] batches spread evenly through the measured slices,
/// so that they sample the same stretch of the host's time.
const SETUP_BOOTS: usize = 64;
const BOOT_BATCHES: usize = 8;

/// The run's quiet boots: the eighth of [`SETUP_BOOTS`] with the
/// shortest times. `setup_s` is their median.
const QUIET_BOOTS: usize = SETUP_BOOTS / 8;

/// Slices of the all-CPU posture whose medians are the `smp.*` figures.
const SMP_SLICES: usize = 20;

/// Slice-sized chunks in the traced slice, at least: its p50 is the
/// best chunk's, for the same reason the quiet slices are the fastest.
const TRACED_CHUNKS: usize = 16;

/// Calls behind every per-layer p50: 2 000 after the discarded head.
const PROBE_CALLS: usize = probes::DISCARD + 2_000;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    /// Metric families on the result line: `(end-to-end, per-layer)`.
    families: (bool, bool),
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { kinds: Kind::ALL.to_vec(), seed: 1, families: (true, true) };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Kind::ALL.map(Kind::name).join(", ");
                args.kinds = vec![Kind::parse(&name)
                    .ok_or_else(|| format!("unknown workload `{name}` (one of: {})", known()))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The harness's run length; the run shape is frozen (module docs).
            "--seconds" => {
                value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.families = match value()?.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// What every workload of one invocation shares.
struct Env<'a> {
    /// The stock `mbd-server` binary.
    bin: &'a Path,
    out_dir: &'a Path,
    host: &'a procfs::Host,
    /// The CPUs this process was given.
    cpus: &'a [usize],
}

/// A booted, fixtured server with its connection and workload state.
struct Rig {
    server: Server,
    conn: Conn<TcpDuplex>,
    workload: Workload,
}

/// One set-up as a user meets it: spawn the server (empty-state
/// recovery and demo-MIB install included), connect, prepare the
/// fixture, and get the first correct reply. Returns the rig and how
/// long that took.
fn set_up(env: &Env<'_>, log: &Path, kind: Kind, seed: u64) -> Result<(Rig, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(env.bin, env.out_dir, log)?;
    let duplex = TcpDuplex::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut conn = Conn::new(duplex, child::KEY, seed);
    let mut workload = Workload::new(kind, seed);
    let fixture = workload.fixture();
    let (_, failed) = conn.run_control(&mut workload, fixture);
    if failed != 0 {
        return Err(format!("{failed} fixture request(s) failed; see {}", log.display()));
    }
    // For lifecycle_churn the first reply that exercises the server is
    // a whole cycle's worth; everywhere else, one invoke.
    let first = if kind == Kind::LifecycleChurn { gen::CHURN_STEPS as usize } else { 1 };
    let slice = conn.run_slice(&mut workload, first, 1, None);
    if slice.failed != 0 {
        return Err(format!("first request failed ({:?})", slice.aborted));
    }
    Ok((Rig { server, conn, workload }, started.elapsed().as_secs_f64()))
}

/// Per-slice values of the run-time end-to-end metrics.
#[derive(Default)]
struct SliceSeries {
    throughput_rps: Vec<f64>,
    latency_p50_us: Vec<f64>,
    server_cpu_us_per_op: Vec<f64>,
    /// Every latency sample of the slices, for the tail.
    latencies_ns: Vec<u64>,
    /// Wall time of all slices together, seconds.
    wall_s: f64,
}

impl SliceSeries {
    fn push(&mut self, slice: &Slice, server_cpu_ns: u64) {
        let correct = slice.correct().max(1) as f64;
        self.throughput_rps.push(slice.correct() as f64 / (slice.wall_ns as f64 / 1e9));
        self.latency_p50_us.push(median_ns(&slice.latencies_ns) / 1e3);
        self.server_cpu_us_per_op.push(server_cpu_ns as f64 / 1e3 / correct);
        self.latencies_ns.extend_from_slice(&slice.latencies_ns);
        self.wall_s += slice.wall_ns as f64 / 1e9;
    }
}

/// What the measured slices add to the run.
#[derive(Default)]
struct Totals {
    attempted: usize,
    failed: usize,
    correct: usize,
    wire_bytes: u64,
    server_switches: u64,
    client_cpu_ns: u64,
}

/// `warmup_requests` discarded, then `slices` measured slices appended
/// to `series`.
fn measure(
    rig: &mut Rig,
    kind: Kind,
    warmup_requests: usize,
    slices: usize,
    series: &mut SliceSeries,
    totals: &mut Totals,
) -> Result<(), String> {
    let (requests, window) = (kind.slice_requests(), kind.window());
    let pid = rig.server.pid();
    let warm = rig.conn.run_slice(&mut rig.workload, warmup_requests, window, None);
    if let Some(why) = warm.aborted {
        return Err(format!("warm-up aborted: {why}"));
    }
    let switches_before = procfs::voluntary_switches(pid);
    let client_cpu_before = procfs::main_thread_cpu_ns();
    for _ in 0..slices {
        let cpu_before = procfs::cpu_ns(pid);
        let slice = rig.conn.run_slice(&mut rig.workload, requests, window, None);
        let cpu = procfs::cpu_ns(pid).saturating_sub(cpu_before);
        totals.attempted += slice.attempted;
        totals.failed += slice.failed;
        totals.correct += slice.correct();
        totals.wire_bytes += slice.wire_bytes;
        series.push(&slice, cpu);
        if let Some(why) = &slice.aborted {
            // Nothing more can be asked of this server; the run fails
            // with what it counted.
            return Err(format!(
                "slice aborted: {why} ({} of {} operations failed so far)",
                totals.failed, totals.attempted
            ));
        }
    }
    totals.client_cpu_ns += procfs::main_thread_cpu_ns().saturating_sub(client_cpu_before);
    totals.server_switches += procfs::voluntary_switches(pid).saturating_sub(switches_before);
    Ok(())
}

/// The census that ends every instance's life: the repository is back
/// at its baseline and exactly the fixture's instances are alive.
fn census(rig: &mut Rig, totals: &mut Totals) {
    let census = rig.workload.census();
    let (asked, wrong) = rig.conn.run_control(&mut rig.workload, census);
    totals.attempted += asked;
    totals.failed += wrong;
}

/// What a counter's 1 s history saw: `(events, seconds)`. Each point
/// is a rate over the time since the point before it — more than a
/// second whenever the server's sampler ran late — so a point counts for
/// that long, and the first one only marks where the interval starts.
fn series_count(series: &[mbd::rds::MetricSeries], name: &str) -> (f64, f64) {
    let Some(points) = series.iter().find(|s| s.name == name).map(|s| &s.points) else {
        return (0.0, 0.0);
    };
    let events = points.windows(2).map(|w| (w[1].avg * (w[1].t_s - w[0].t_s)) as f64).sum();
    let seconds = points.last().map_or(0, |last| last.t_s - points[0].t_s);
    (events, seconds as f64)
}

fn series_last(series: &[mbd::rds::MetricSeries], name: &str) -> f64 {
    series
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| s.points.last())
        .map_or(0.0, |p| p.last as f64)
}

/// The same workload with the load generator and the server free on
/// every CPU the process was given (all kept awake): a fresh instance,
/// [`SMP_SLICES`] slices, the median over all of them. Reported beside
/// the gated figures, ungated: which CPU the kernel puts each thread on
/// moves these figures severalfold from one second to the next (README,
/// "Host placement").
fn smp_figures(
    kind: Kind,
    seed: u64,
    env: &Env<'_>,
    log: &Path,
    totals: &mut Totals,
) -> Result<[Metric; 3], String> {
    cpus::pin_to(env.cpus);
    let _awake = KeepAwake::start(env.cpus);
    let (mut rig, _) = set_up(env, log, kind, seed)?;
    // The fixture's state is all these slices need warm.
    let mut series = SliceSeries::default();
    measure(&mut rig, kind, 2 * kind.slice_requests(), SMP_SLICES, &mut series, totals)?;
    census(&mut rig, totals);
    Ok([
        Metric::new("smp.throughput_rps", median(&series.throughput_rps), "1/s"),
        Metric::new("smp.latency_p50_us", median(&series.latency_p50_us), "us"),
        Metric::new("smp.server_cpu_us_per_op", median(&series.server_cpu_us_per_op), "us"),
    ])
}

fn run_workload(kind: Kind, args: &Args, env: &Env<'_>) -> Result<Report, String> {
    let out_dir = env.out_dir;
    let name = kind.name();
    let log = out_dir.join(format!("server_{name}.log"));
    let _ = std::fs::remove_file(&log);
    let see_log = |e: String| format!("{e}; see {}", log.display());
    let requests = kind.slice_requests();
    let mut report = Report::new(name, args.seed);

    // The gated posture: everything on the first CPU, kept awake.
    let one_cpu = &env.cpus[..env.cpus.len().min(1)];
    let pinned = cpus::pin_to(one_cpu);
    let awake = KeepAwake::start(one_cpu);

    // The first batch of boots ends with the instance every slice of
    // the run is measured against; the other batches only time set-up.
    let boot_batch = || -> Result<(Rig, Vec<f64>), String> {
        let mut seconds = Vec::with_capacity(SETUP_BOOTS / BOOT_BATCHES);
        for _ in 1..SETUP_BOOTS / BOOT_BATCHES {
            seconds.push(set_up(env, &log, kind, args.seed)?.1);
        }
        let (rig, last) = set_up(env, &log, kind, args.seed)?;
        seconds.push(last);
        Ok((rig, seconds))
    };
    let (mut rig, mut setup_s) = boot_batch()?;
    let mut totals = Totals::default();
    let mut series = SliceSeries::default();
    let steal_before = procfs::steal_ticks();
    let measured = Instant::now();
    for batch in 0..BOOT_BATCHES {
        let warmup = if batch == 0 { kind.warmup_requests() } else { 0 };
        if batch > 0 {
            setup_s.extend(boot_batch()?.1);
        }
        measure(&mut rig, kind, warmup, SLICES / BOOT_BATCHES, &mut series, &mut totals)
            .map_err(see_log)?;
    }
    // Requests per second of the whole stretch, warm-up and the gaps
    // between slices included: the rate the server's history saw.
    let history_rps =
        (kind.warmup_requests() + totals.correct) as f64 / measured.elapsed().as_secs_f64();
    census(&mut rig, &mut totals);
    let steal_ticks = procfs::steal_ticks().saturating_sub(steal_before);
    let (threads, peak_rss_kb) = procfs::threads_and_peak_rss(rig.server.pid());

    let mut fastest_boots = setup_s.clone();
    fastest_boots.sort_by(f64::total_cmp);
    let quiet = quiet_slices(&series.throughput_rps, QUIET_SLICES);
    let throughput = median_at(&series.throughput_rps, &quiet);
    let e2e_p50_us = median_at(&series.latency_p50_us, &quiet);
    report.end_to_end = vec![
        Metric::new("throughput_rps", throughput, "1/s"),
        Metric::new("server_cpu_us_per_op", median_at(&series.server_cpu_us_per_op, &quiet), "us"),
        Metric::new("setup_s", median(&fastest_boots[..QUIET_BOOTS]), "s"),
    ];

    let mut layers = None;
    if args.families.1 && totals.failed == 0 {
        // The server's own view of the measured slices: its 1 Hz
        // history, over whole seconds that lie inside them.
        let range_s = (series.wall_s.floor() as u32).saturating_sub(1).max(1);
        let history = rig.conn.roundtrip(&RdsRequest::ReadMetrics {
            pattern: String::new(),
            range_s,
            res_s: 1,
        })?;
        let RdsResponse::Metrics { series: history, .. } = history else {
            return Err("ReadMetrics answered with another variant".to_string());
        };
        let per_op = |counter: &str| {
            // A counter the server never touched has no history: 0.
            let (events, seconds) = series_count(&history, counter);
            events / (history_rps * seconds.max(1.0))
        };
        let per_kop = |counter: &str| per_op(counter) * 1e3;
        let (fsyncs, fsync_s) = series_count(&history, "ep.wal_fsyncs");

        // The traced slice: spans on, long enough to hold `PROBE_CALLS`
        // of every verb, and the frames of its first `replayed` requests
        // captured for the layer probes.
        let start = rig.workload.index();
        let steps = if kind == Kind::LifecycleChurn { gen::CHURN_STEPS as usize } else { 1 };
        let replayed = PROBE_CALLS * steps;
        let mut tracer = Tracer::new(replayed);
        let traced = rig.conn.run_slice(
            &mut rig.workload,
            (TRACED_CHUNKS * requests).max(replayed),
            kind.window(),
            Some(&mut tracer),
        );
        totals.attempted += traced.attempted;
        totals.failed += traced.failed;
        // Latencies are in completion order, so a chunk is a stretch of
        // time; the best chunk's p50 is the traced slice's.
        let traced_p50_ns =
            traced.latencies_ns.chunks_exact(requests).map(median_ns).fold(f64::NAN, f64::min);

        let ops = totals.correct.max(1) as f64;
        // Last sixth of the slices over the first sixth: how much the
        // state the instance accumulates (WAL, dedup fill, retained
        // dpis) costs by the end of the run.
        let sixth = SLICES / 6;
        let rps = &series.throughput_rps;
        let trend = median(&rps[SLICES - sixth..]) / median(&rps[..sixth]);
        // How much of the run the host was quiet for: slices within a
        // twentieth of the reported throughput.
        let quiet_share =
            rps.iter().filter(|&&t| t >= throughput * 0.95).count() as f64 / SLICES as f64;
        let fnv = tracer.stream_fnv;
        let p99 = supported_tail(&series.latencies_ns, 0.99).filter(|t| t.quantile == 0.99);
        report.p99_samples = series.latencies_ns.len();
        report.per_layer = vec![
            Metric::new("latency_p50_us", e2e_p50_us, "us"),
            Metric::new("e2e.latency_p99_us", p99.map_or(f64::NAN, |t| t.value / 1e3), "us"),
            Metric::new("all.throughput_rps", median(rps), "1/s"),
            Metric::new("all.latency_p50_us", median(&series.latency_p50_us), "us"),
            Metric::new("all.server_cpu_us_per_op", median(&series.server_cpu_us_per_op), "us"),
            Metric::new("noise.slice_iqr_share.throughput_rps", iqr_share(rps), "share"),
            Metric::new(
                "noise.slice_iqr_share.latency_p50_us",
                iqr_share(&series.latency_p50_us),
                "share",
            ),
            Metric::new(
                "noise.slice_iqr_share.server_cpu_us_per_op",
                iqr_share(&series.server_cpu_us_per_op),
                "share",
            ),
            Metric::new("noise.quiet_slice_share", quiet_share, "share"),
            Metric::new("noise.slice_trend", trend, "ratio"),
            // Time the hypervisor ran something else while a vCPU of
            // this host had work, per second of the measured slices.
            Metric::new(
                "noise.host_steal_ms_per_s",
                steal_ticks as f64 * procfs::MS_PER_TICK / series.wall_s,
                "ms/s",
            ),
            Metric::new("rds.transport.bytes_per_op", totals.wire_bytes as f64 / ops, "B"),
            Metric::new(
                "rds.tcp.queue_wait_p50_ns",
                series_last(&history, "rds.tcp.queue_wait.p50"),
                "ns",
            ),
            Metric::new("rds.shed", series_count(&history, "rds.shed").0, "count"),
            Metric::new("ep.exec.steals_per_kop", per_kop("ep.exec.steals"), "count"),
            Metric::new("ep.exec.parks_per_kop", per_kop("ep.exec.parks"), "count"),
            Metric::new("ep.exec.batches_per_kop", per_kop("ep.exec.batches"), "count"),
            Metric::new("ep.wal_bytes_per_op", per_op("ep.wal_bytes"), "B"),
            Metric::new("ep.wal_fsyncs", fsyncs / fsync_s.max(1.0), "1/s"),
            Metric::new(
                "proc.vol_ctx_switches_per_op",
                totals.server_switches as f64 / ops,
                "count",
            ),
            Metric::new("proc.server_threads", threads as f64, "count"),
            Metric::new("proc.server_peak_rss_kb", peak_rss_kb as f64, "kB"),
            Metric::new("proc.client_cpu_us_per_op", totals.client_cpu_ns as f64 / 1e3 / ops, "us"),
            Metric::new("trace.overhead_share", traced_p50_ns / (e2e_p50_us * 1e3) - 1.0, "share"),
            // Folded to 32 bits so it survives any JSON reader intact.
            Metric::new("gen.stream_fnv", ((fnv >> 32) ^ (fnv & 0xFFFF_FFFF)) as f64, "hash"),
        ];
        layers = Some((start, replayed, tracer, traced_p50_ns));
    }

    report.host = Some(report::HostBlock {
        host: env.host.clone(),
        workers: child::WORKERS,
        server_threads: threads,
        cpu: pinned.then(|| one_cpu[0]),
        kept_awake: awake.is_spinning(),
    });
    report.quiet_slices = quiet;
    report.slices = vec![
        ("throughput_rps", series.throughput_rps),
        ("latency_p50_us", series.latency_p50_us),
        ("server_cpu_us_per_op", series.server_cpu_us_per_op),
        ("setup_s", setup_s),
    ];
    // The server goes down before anything runs in process.
    drop(rig);

    if let Some((start, replayed, mut tracer, traced_p50_ns)) = layers {
        let target = probes::Target {
            kind,
            seed: args.seed,
            start,
            requests: replayed,
            in_flight: (throughput * e2e_p50_us / 1e6).max(1.0),
            probe_calls: PROBE_CALLS,
            out_dir,
        };
        let found = probes::run(&target, &mut tracer, e2e_p50_us * 1e3, traced_p50_ns)?;
        report.per_layer.extend(found.metrics.iter().map(|(n, v, u)| Metric::new(n, *v, u)));
        report.ledger = found.ledger;
        report.ledger_residual_ns = found.residual_ns;
        report.traced_p50_ns = traced_p50_ns;
        report.clamped = found.clamped;
        let trace_path = out_dir.join(format!("trace_{name}.json"));
        // Only the replayed requests have a full tree; the rest of the
        // traced slice carried spans to pay the same overhead.
        let last_replayed = (start + replayed as u64) as i64;
        tracer.spans.retain(|s| s.request_id <= last_replayed);
        report::write_trace(&trace_path, name, args.seed, &tracer.spans)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;

        drop(awake);
        let smp = smp_figures(kind, args.seed, env, &log, &mut totals).map_err(see_log)?;
        report.per_layer.extend(smp);
    }
    // Hand back every CPU, for the next workload's first steps.
    cpus::pin_to(env.cpus);
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    Ok(report)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mbd-e2e: {e}");
            return 2.into();
        }
    };
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let repo_root = manifest_dir.join("../..");
    let out_dir = manifest_dir.join("out");
    let prepared = std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("{}: {e}", out_dir.display()))
        .and_then(|()| child::build_server(&repo_root));
    let bin = match prepared {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("mbd-e2e: {e}");
            return 1.into();
        }
    };
    let host = procfs::Host::probe(&repo_root, &out_dir);
    let cpus = cpus::allowed_cpus();
    let env = Env { bin: &bin, out_dir: &out_dir, host: &host, cpus: &cpus };
    let mut all_correct = true;
    for &kind in &args.kinds {
        match run_workload(kind, &args, &env) {
            Ok(report) => {
                let result_path = out_dir.join(format!("result_{}.json", kind.name()));
                if let Err(e) = std::fs::write(&result_path, report.to_json()) {
                    eprintln!("mbd-e2e: {}: {e}", result_path.display());
                    return 1.into();
                }
                print!("{}", report.to_text());
                match report.contract_line(args.families) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("mbd-e2e: {}: {e}", kind.name());
                        return 1.into();
                    }
                }
                all_correct &= report.failed == 0;
            }
            Err(e) => {
                eprintln!("mbd-e2e: {}: {e}", kind.name());
                return 1.into();
            }
        }
    }
    if all_correct {
        0.into()
    } else {
        1.into()
    }
}
