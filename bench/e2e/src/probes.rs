//! The outside-in layer ledger: every layer of the request path timed
//! from this process, through the crates' existing public functions.
//!
//! Two kinds of probe, both on the traced slice's own requests:
//!
//! * **stateless** probes call one public function per captured frame
//!   (codec, digest, dedup, BER, MIB walk, translator);
//! * **replicas** regenerate the same requests — same seed, same stream
//!   position, same request ids — and run them through an in-process
//!   copy of one layer stack (server armed / unarmed / telemetry off,
//!   process with / without WAL, bare VM), with the workload's oracle
//!   checking every reply.
//!
//! Each call is a span under the traced request's root, nested as
//! `request ⊃ core.server.process_request ⊃ {rds.codec.decode_request,
//! auth.keyed_digest, rds.dedup, core.process.verb ⊃ dpl.vm.invoke,
//! rds.codec.encode_response}`. A layer's self time is its p50 minus its
//! children's p50s, clamped at zero and flagged when the clamp bites.

use crate::child::{KEY, WORKERS};
use crate::driver::{Conn, InProc, Tracer, PRINCIPAL};
use crate::gen::{Kind, Workload, CHURN_STEPS};
use crate::stats::{median_ns, quartiles, self_time};
use mbd::ber::BerValue;
use mbd::core::{
    convert, services, DpiAccount, ElasticConfig, ElasticProcess, EventQueue, ExecutorConfig,
    MbdServer, ServerCtx,
};
use mbd::dpl::{self, Budget, Instance, Value};
use mbd::rds::{codec, DedupCache, DpiId, ErrorCode, RdsRequest, RdsResponse};
use mbd::snmp::{mib2, MibStore};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls discarded at the head of every probe (cold caches, lazy init).
pub const DISCARD: usize = 200;

/// One timed call: whose request it belongs to, when, how long.
#[derive(Debug, Clone, Copy)]
struct Call {
    request_id: i64,
    start: Instant,
    ns: u64,
}

fn timed<T>(request_id: i64, f: impl FnOnce() -> T) -> (T, Call) {
    let start = Instant::now();
    let out = black_box(f());
    (out, Call { request_id, start, ns: start.elapsed().as_nanos() as u64 })
}

/// p50 of `calls` after the discarded head, nanoseconds: the median of
/// each [`TURN`]'s calls, then the lower quartile over turns, so that a
/// layer timed while the host was slow is not subtracted from one timed
/// while it was not (README, "Host noise").
fn p50(calls: &[Call]) -> f64 {
    let ns: Vec<u64> = calls.iter().skip(DISCARD).map(|c| c.ns).collect();
    let turns: Vec<f64> = ns.chunks(TURN).map(median_ns).collect();
    quartiles(&turns).map_or_else(|| median_ns(&ns), |(q1, _, _)| q1)
}

/// The MIB `mbd-server --demo-mib` installs, in the same order.
pub fn install_demo_mib(mib: &MibStore) {
    mib2::install_system(mib, "mbd demo device", "demo").expect("fresh MIB");
    mib2::install_interfaces(mib, 4, 10_000_000).expect("fresh MIB");
    mib2::install_concentrator(mib).expect("fresh MIB");
    mib2::install_atm_vc_table(mib, 100).expect("fresh MIB");
}

/// A state directory under `root`, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(root: &Path) -> Result<StateDir, String> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join(format!(
            "probe-state-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(StateDir(dir))
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An elastic process in `mbd-server`'s posture. `telemetry` arms what
/// the binary arms (span capture, tail-sampled trace store, history
/// rings; the 1 Hz sampler thread is left out — it runs beside the
/// request path, not on it); `wal` attaches durability in a fresh
/// directory whose guard is returned with the process.
fn process(
    telemetry: bool,
    wal: bool,
    out_dir: &Path,
) -> Result<(ElasticProcess, Option<StateDir>), String> {
    let process = ElasticProcess::new(ElasticConfig::default());
    if telemetry {
        let t = process.telemetry();
        t.enable_tracing(4096);
        t.enable_trace_store(mbd::telemetry::TraceStoreConfig::default());
        t.enable_history(mbd::telemetry::HistoryConfig::with_base_cap(120));
        t.enable_alerts(Vec::new());
    }
    install_demo_mib(process.mib());
    let dir = if wal {
        let dir = StateDir::new(out_dir)?;
        process
            .attach_durability(&dir.0, mbd::core::durable::DEFAULT_FSYNC_EVERY)
            .map_err(|e| format!("attach_durability: {e}"))?;
        Some(dir)
    } else {
        None
    };
    Ok((process, dir))
}

fn server(process: ElasticProcess, armed: bool) -> MbdServer {
    let server =
        MbdServer::with_policy(process, mbd::auth::Acl::allow_by_default(), Some(KEY.to_vec()));
    if armed {
        server.arm_executor(ExecutorConfig { workers: WORKERS, ..ExecutorConfig::default() });
    }
    server
}

/// Where in the stream the probes work, and on what.
pub struct Target<'a> {
    pub kind: Kind,
    pub seed: u64,
    /// Stream index of the traced slice's first request.
    pub start: u64,
    /// Requests to replay (= frames the tracer captured).
    pub requests: usize,
    /// Requests in flight during the measured slices, by Little's law
    /// (throughput × latency), never less than one. Below the window
    /// where the load generator's own turnaround holds a slot.
    pub in_flight: f64,
    /// Calls per probe that loops on its own rather than over the
    /// captured frames (translator, lifecycle verbs, MIB walk),
    /// including the discarded head.
    pub probe_calls: usize,
    pub out_dir: &'a Path,
}

/// Requests a replica advances by before the next replica takes its
/// turn (a whole number of lifecycle cycles), and calls per median of
/// every probe.
const TURN: usize = 10 * CHURN_STEPS as usize;

/// One in-process layer stack being fed the target's requests —
/// regenerated from the seed, so same stream position and same request
/// ids as the traced slice — with the workload's oracle on every reply:
/// a replica that answers wrongly is not measuring the layer it claims
/// to.
struct Replica<'a> {
    what: &'static str,
    conn: Conn<InProc<'a>>,
    workload: Workload,
    fixture_len: usize,
}

impl<'a> Replica<'a> {
    fn new(
        target: &Target<'_>,
        what: &'static str,
        exec: impl FnMut(&[u8]) -> (Vec<u8>, u64) + 'a,
    ) -> Result<Replica<'a>, String> {
        let mut conn = Conn::new(InProc::new(exec), KEY, target.seed);
        let mut workload = Workload::new(target.kind, target.seed);
        let fixture = workload.fixture();
        let fixture_len = fixture.len();
        if conn.run_control(&mut workload, fixture).1 != 0 {
            return Err(format!("{what}: fixture failed in process"));
        }
        workload.seek(target.start);
        Ok(Replica { what, conn, workload, fixture_len })
    }

    fn advance(&mut self, requests: usize) -> Result<(), String> {
        let slice = self.conn.run_slice(&mut self.workload, requests, 1, None);
        if slice.failed != 0 {
            return Err(format!(
                "{}: {} of {} replayed replies failed the oracle ({:?})",
                self.what, slice.failed, slice.attempted, slice.aborted
            ));
        }
        Ok(())
    }

    /// One timed call per replayed request.
    fn finish(self) -> Vec<Call> {
        let samples = self.conn.into_duplex().samples;
        samples
            .into_iter()
            .skip(self.fixture_len)
            .map(|(request_id, start, ns)| Call { request_id, start, ns })
            .collect()
    }
}

/// Replays the target through every replica, a [`TURN`] at a time in
/// rotation, so that host drift during the replay lands on all of them
/// alike — their medians are about to be subtracted from one another.
fn replay_in_turns(target: &Target<'_>, replicas: &mut [Replica<'_>]) -> Result<(), String> {
    let mut remaining = target.requests;
    while remaining > 0 {
        let turn = remaining.min(TURN);
        for replica in replicas.iter_mut() {
            replica.advance(turn)?;
        }
        remaining -= turn;
    }
    Ok(())
}

fn process_request<'a>(server: &'a MbdServer) -> impl FnMut(&[u8]) -> (Vec<u8>, u64) + 'a {
    move |frame| {
        let start = Instant::now();
        let reply = server.process_request(frame);
        (reply, start.elapsed().as_nanos() as u64)
    }
}

fn error(message: String) -> RdsResponse {
    RdsResponse::Error { code: ErrorCode::Internal, message }
}

/// Applies one request through `ElasticProcess`'s public verbs — what
/// `core::server`'s dispatcher does once decoding, digest, dedup and
/// value conversion are behind it — timing only the verb.
fn process_verb(process: &ElasticProcess, request: RdsRequest) -> (RdsResponse, u64) {
    fn verb<T>(
        f: impl FnOnce() -> Result<T, mbd::core::CoreError>,
        ok: impl FnOnce(T) -> RdsResponse,
    ) -> (RdsResponse, u64) {
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        (result.map_or_else(|e| error(e.to_string()), ok), ns)
    }
    let done = |()| RdsResponse::Ok;
    match request {
        RdsRequest::DelegateProgram { dp_name, source, .. } => {
            let source = String::from_utf8_lossy(&source).into_owned();
            verb(|| process.delegate_as(&dp_name, &source, PRINCIPAL), done)
        }
        RdsRequest::DeleteProgram { dp_name } => verb(|| process.delete_program(&dp_name), done),
        RdsRequest::Instantiate { dp_name } => {
            verb(|| process.instantiate(&dp_name), |dpi| RdsResponse::Instantiated { dpi })
        }
        RdsRequest::Invoke { dpi, entry, args } => {
            let args: Vec<Value> = args.iter().map(convert::from_ber).collect();
            verb(
                || process.invoke(dpi, &entry, &args),
                |v| RdsResponse::Result { value: convert::to_ber(&v) },
            )
        }
        RdsRequest::Suspend { dpi } => verb(|| process.suspend(dpi), done),
        RdsRequest::Resume { dpi } => verb(|| process.resume(dpi), done),
        RdsRequest::Terminate { dpi } => verb(|| process.terminate(dpi), done),
        RdsRequest::ListPrograms => (RdsResponse::Programs { names: process.list_programs() }, 0),
        other => (error(format!("{} is not part of any workload", other.verb())), 0),
    }
}

/// Wraps a request-level executor as a frame-level one: decoding the
/// request and encoding the reply happen outside the timed call.
fn on_requests(
    mut exec: impl FnMut(RdsRequest) -> (RdsResponse, u64),
) -> impl FnMut(&[u8]) -> (Vec<u8>, u64) {
    move |frame| match codec::decode_request_traced(frame, Some(KEY)) {
        Ok((request, _, id, trace)) => {
            let (reply, ns) = exec(request);
            (codec::encode_response_traced(&reply, id, Some(KEY), trace), ns)
        }
        Err(e) => (codec::encode_response(&error(e.to_string()), 0, Some(KEY)), 0),
    }
}

/// A bare-VM stand-in for the elastic process: the translator and
/// `Instance::invoke` with the standard services, and nothing else — no
/// table, lifecycle, accounting, WAL or telemetry. Times the VM run.
struct BareVm {
    registry: dpl::HostRegistry<ServerCtx>,
    ctx: ServerCtx,
    programs: BTreeMap<String, Arc<dpl::Program>>,
    instances: HashMap<u64, Instance>,
    next_dpi: u64,
    /// Fuel and host calls summed over timed invocations.
    fuel: u64,
    host_calls: u64,
    invocations: u64,
}

impl BareVm {
    fn new() -> BareVm {
        let mib = MibStore::new();
        install_demo_mib(&mib);
        BareVm {
            registry: services::standard_registry(),
            ctx: ServerCtx {
                mib,
                mailbox: Arc::default(),
                outbox: Arc::new(EventQueue::new(4096)),
                log: Arc::new(EventQueue::new(4096)),
                ticks: Arc::default(),
                pending: Vec::new(),
                dpi: DpiId(0),
                account: Arc::new(DpiAccount::default()),
            },
            programs: BTreeMap::new(),
            instances: HashMap::new(),
            next_dpi: 1,
            fuel: 0,
            host_calls: 0,
            invocations: 0,
        }
    }

    fn apply(&mut self, request: RdsRequest) -> (RdsResponse, u64) {
        match request {
            RdsRequest::DelegateProgram { dp_name, source, .. } => {
                let source = String::from_utf8_lossy(&source);
                match dpl::compile_program(&source, &self.registry) {
                    Ok(program) => {
                        self.programs.insert(dp_name, Arc::new(program));
                        (RdsResponse::Ok, 0)
                    }
                    Err(e) => (error(e.to_string()), 0),
                }
            }
            RdsRequest::DeleteProgram { dp_name } => {
                self.programs.remove(&dp_name);
                (RdsResponse::Ok, 0)
            }
            RdsRequest::Instantiate { dp_name } => match self.programs.get(&dp_name) {
                Some(program) => {
                    let dpi = self.next_dpi;
                    self.next_dpi += 1;
                    self.instances.insert(dpi, Instance::new(Arc::clone(program)));
                    (RdsResponse::Instantiated { dpi: DpiId(dpi) }, 0)
                }
                None => (error(format!("no program {dp_name}")), 0),
            },
            RdsRequest::Invoke { dpi, entry, args } => {
                let Some(instance) = self.instances.get_mut(&dpi.0) else {
                    return (error(format!("no instance {dpi}")), 0);
                };
                let args: Vec<Value> = args.iter().map(convert::from_ber).collect();
                let start = Instant::now();
                let result = instance.invoke(
                    &entry,
                    &args,
                    &mut self.ctx,
                    &self.registry,
                    Budget::default(),
                );
                let ns = start.elapsed().as_nanos() as u64;
                let stats = instance.last_stats();
                self.fuel += stats.fuel_used;
                self.host_calls += stats.host_calls;
                self.invocations += 1;
                self.ctx.pending.clear();
                match result {
                    Ok(v) => (RdsResponse::Result { value: convert::to_ber(&v) }, ns),
                    Err(e) => (error(e.to_string()), ns),
                }
            }
            RdsRequest::Suspend { .. } | RdsRequest::Resume { .. } => (RdsResponse::Ok, 0),
            RdsRequest::Terminate { dpi } => {
                self.instances.remove(&dpi.0);
                (RdsResponse::Ok, 0)
            }
            RdsRequest::ListPrograms => {
                (RdsResponse::Programs { names: self.programs.keys().cloned().collect() }, 0)
            }
            other => (error(format!("{} is not part of any workload", other.verb())), 0),
        }
    }
}

/// Times one public function over the captured frame pairs.
fn per_frame(
    frames: &[(Vec<u8>, Vec<u8>)],
    mut f: impl FnMut(i64, &[u8], &[u8]) -> Call,
) -> Vec<Call> {
    frames
        .iter()
        .map(|(request, reply)| f(codec::peek_request_id(request).unwrap_or(0), request, reply))
        .collect()
}

/// What the probes found, ready for the report.
pub struct Layers {
    /// Per-layer metrics `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ledger rows `(layer, self ns)`; with `residual_ns` they sum to
    /// the traced end-to-end p50.
    pub ledger: Vec<(&'static str, f64)>,
    pub residual_ns: f64,
    /// Self times that came out negative and were clamped to zero.
    pub clamped: Vec<&'static str>,
}

/// Runs every probe for `target` and records their calls as spans in
/// `tracer`. `e2e_p50_ns` is the untraced end-to-end median latency,
/// `traced_p50_ns` the traced slice's.
pub fn run(
    target: &Target<'_>,
    tracer: &mut Tracer,
    e2e_p50_ns: f64,
    traced_p50_ns: f64,
) -> Result<Layers, String> {
    let frames = std::mem::take(&mut tracer.frames);
    let is_invoke = |request_id: i64| {
        target.kind != Kind::LifecycleChurn || (request_id - 1) as u64 % CHURN_STEPS == 2
    };
    let invokes = |calls: &[Call]| -> Vec<Call> {
        calls.iter().copied().filter(|c| is_invoke(c.request_id)).collect()
    };

    // Stateless probes, one call per captured frame.
    let decode_request = per_frame(&frames, |id, request, _| {
        // No key: digest verification is `auth.keyed_digest`'s row.
        timed(id, || codec::decode_request_traced(request, None)).1
    });
    let encode_response = per_frame(&frames, |id, _, reply| {
        let (response, reply_id, trace) =
            codec::decode_response_traced(reply, Some(KEY)).expect("captured reply verified once");
        timed(id, || codec::encode_response_traced(&response, reply_id, None, trace)).1
    });
    let peek = per_frame(&frames, |id, request, _| timed(id, || codec::peek_request_id(request)).1);
    let digest = per_frame(&frames, |id, request, reply| {
        // The server verifies the request's digest and signs the reply's.
        let tag = mbd::auth::keyed_digest(KEY, request);
        timed(id, || {
            (
                mbd::auth::verify_keyed_digest(KEY, request, &tag),
                mbd::auth::keyed_digest(KEY, reply),
            )
        })
        .1
    });
    let dedup_cache = DedupCache::new(mbd::rds::DEFAULT_DEDUP_CAPACITY);
    let dedup = per_frame(&frames, |id, request, reply| {
        timed(id, || {
            let fingerprint = mbd::rds::frame_fingerprint(request);
            let outcome = dedup_cache.begin(PRINCIPAL, id, fingerprint);
            dedup_cache.complete(PRINCIPAL, id, fingerprint, reply);
            outcome
        })
        .1
    });
    // BER on the replies that carry a value; cycled to the full count
    // when only some do (lifecycle_churn: one in seven).
    let values: Vec<(i64, BerValue)> = frames
        .iter()
        .filter_map(|(request, reply)| match codec::decode_response(reply, Some(KEY)) {
            Ok((RdsResponse::Result { value }, _)) => {
                Some((codec::peek_request_id(request).unwrap_or(0), value))
            }
            _ => None,
        })
        .collect();
    if values.is_empty() {
        return Err("no captured reply carries a value".to_string());
    }
    let cycled = || values.iter().cycle().take(frames.len().max(DISCARD + 1));
    let ber_encode: Vec<Call> =
        cycled().map(|(id, value)| timed(*id, || mbd::ber::encode(value)).1).collect();
    let ber_decode: Vec<Call> = cycled()
        .map(|(id, value)| {
            let bytes = mbd::ber::encode(value);
            timed(*id, || mbd::ber::decode(&bytes)).1
        })
        .collect();
    let demo = MibStore::new();
    install_demo_mib(&demo);
    let column = mib2::atm_vc_entry().child(3);
    let walk: Vec<Call> =
        (0..target.probe_calls).map(|_| timed(0, || demo.walk(&column)).1).collect();
    let registry = services::standard_registry();
    let sources = Workload::new(target.kind, target.seed);
    let compile: Vec<Call> = (0..target.probe_calls as u64)
        .map(|i| {
            let source = sources.dp_source(target.start + i * CHURN_STEPS);
            timed(0, || dpl::compile_program(&source, &registry).is_ok()).1
        })
        .collect();

    // Replicas, most complete stack first; the WAL directories live as
    // long as the processes writing to them.
    let (armed_process, _armed_dir) = process(true, true, target.out_dir)?;
    let armed_server = server(armed_process, true);
    let (direct_process, _direct_dir) = process(true, true, target.out_dir)?;
    let direct_server = server(direct_process, false);
    let (quiet_process, _quiet_dir) = process(false, true, target.out_dir)?;
    let quiet_server = server(quiet_process, false);
    let (with_wal, _wal_dir) = process(true, true, target.out_dir)?;
    let (without_wal, _) = process(true, false, target.out_dir)?;
    let mut vm = BareVm::new();
    let mut replicas = [
        Replica::new(target, "server armed", process_request(&armed_server))?,
        Replica::new(target, "server direct", process_request(&direct_server))?,
        Replica::new(target, "server direct, telemetry off", process_request(&quiet_server))?,
        Replica::new(target, "process verbs", on_requests(|r| process_verb(&with_wal, r)))?,
        Replica::new(
            target,
            "process verbs, no WAL",
            on_requests(|r| process_verb(&without_wal, r)),
        )?,
        Replica::new(target, "bare VM", on_requests(|r| vm.apply(r)))?,
    ];
    replay_in_turns(target, &mut replicas)?;
    let [armed, direct, quiet, verbs, verbs_no_wal, vm_calls] = replicas.map(Replica::finish);
    if let Some(executor) = armed_server.executor() {
        executor.shutdown();
    }
    let retained = with_wal.list_instances().len();

    // Lifecycle verbs on this workload's own programs (for
    // lifecycle_churn: the cycle itself, with its unique texts).
    let (lifecycle, _lifecycle_dir) = process(true, true, target.out_dir)?;
    let mut cycle: [Vec<Call>; 5] = Default::default();
    for i in 0..target.probe_calls as u64 {
        let source = sources.dp_source(target.start + i * CHURN_STEPS);
        let fail = |e: mbd::core::CoreError| format!("lifecycle probe: {e}");
        let (r, delegate) = timed(0, || lifecycle.delegate_as("probe", &source, PRINCIPAL));
        r.map_err(fail)?;
        let (dpi, instantiate) = timed(0, || lifecycle.instantiate("probe"));
        let dpi = dpi.map_err(fail)?;
        let (r, suspend_resume) =
            timed(0, || lifecycle.suspend(dpi).and_then(|()| lifecycle.resume(dpi)));
        r.map_err(fail)?;
        let (r, terminate) = timed(0, || lifecycle.terminate(dpi));
        r.map_err(fail)?;
        let (r, delete) = timed(0, || lifecycle.delete_program("probe"));
        r.map_err(fail)?;
        for (calls, call) in
            cycle.iter_mut().zip([delegate, instantiate, suspend_resume, terminate, delete])
        {
            calls.push(call);
        }
    }

    // Spans: every call under the traced request it belongs to.
    let roots = tracer.roots();
    let mut span_under = |parents: &HashMap<i64, u32>, name: &'static str, calls: &[Call]| {
        let mut ids = HashMap::new();
        for call in calls {
            if let Some(&parent) = parents.get(&call.request_id) {
                let end = call.start + std::time::Duration::from_nanos(call.ns);
                ids.insert(
                    call.request_id,
                    tracer.span(parent, call.request_id, name, call.start, end),
                );
            }
        }
        ids
    };
    let served = span_under(&roots, "core.server.process_request", &armed);
    span_under(&served, "rds.codec.decode_request", &decode_request);
    span_under(&served, "auth.keyed_digest", &digest);
    span_under(&served, "rds.dedup", &dedup);
    let verb_spans = span_under(&served, "core.process.verb", &verbs);
    span_under(&verb_spans, "dpl.vm.invoke", &vm_calls);
    span_under(&served, "rds.codec.encode_response", &encode_response);

    // Medians, subtractions, ledger.
    let client_encode = median_ns(&tracer.durations("client.encode"));
    let client_decode = median_ns(&tracer.durations("client.decode"));
    let p_armed = p50(&armed);
    let p_direct = p50(&direct);
    let p_verb = p50(&verbs);
    let p_vm = p50(&vm_calls);
    let p_invoke = p50(&invokes(&verbs));
    let p_vm_invoke = p50(&invokes(&vm_calls));
    let (p_decode, p_encode, p_digest, p_dedup) =
        (p50(&decode_request), p50(&encode_response), p50(&digest), p50(&dedup));
    let mut clamped = Vec::new();
    let mut sub = |name: &'static str, whole: f64, parts: f64| {
        let (rest, was_clamped) = self_time(whole, parts);
        if was_clamped {
            clamped.push(name);
        }
        rest
    };
    // With W requests in flight in a closed loop, a request's latency is
    // W service intervals (Little's law: W = throughput × latency). One
    // interval is the request's own; the other W − 1 it spends queued
    // behind the rest of its window, wherever along the path they are.
    let window = target.in_flight;
    let server_parts = p_decode + p_encode + p_digest + p_dedup;
    let client = client_encode + client_decode;
    let transport_self = sub("rds.transport.self_ns", e2e_p50_ns / window, client + p_armed);
    // Whole-stream medians on both sides: for lifecycle_churn the
    // typical request is not an invoke.
    let server_self = sub("core.server.self_ns", p_armed, server_parts + p_verb);
    let handoff = sub("core.executor.handoff_ns", p_armed, p_direct);
    let process_self = sub("core.process.self_ns", p_invoke, p_vm_invoke);
    let wal = sub("core.durable.invoke_wal_ns", p_invoke, p50(&invokes(&verbs_no_wal)));
    let telemetry = sub("telemetry.overhead_ns", p_direct, p50(&quiet));

    // The ledger restates the span tree's self times on the *traced*
    // slice's p50.
    let ledger = vec![
        ("window.other_requests", traced_p50_ns - traced_p50_ns / window),
        ("rds.client.encode", client_encode),
        ("rds.client.decode", client_decode),
        ("rds.transport", sub("ledger rds.transport", traced_p50_ns / window, client + p_armed)),
        ("core.server", server_self),
        ("rds.codec.decode_request", p_decode),
        ("auth.keyed_digest", p_digest),
        ("rds.dedup", p_dedup),
        ("core.process", sub("ledger core.process", p_verb, p_vm)),
        ("dpl.vm.invoke", p_vm),
        ("rds.codec.encode_response", p_encode),
    ];
    let residual_ns = traced_p50_ns - ledger.iter().map(|(_, ns)| ns).sum::<f64>();

    let per_op = |total: u64| total as f64 / vm.invocations.max(1) as f64;
    let metrics = vec![
        ("rds.client.encode_ns", client_encode, "ns"),
        ("rds.client.decode_ns", client_decode, "ns"),
        ("rds.transport.self_ns", transport_self, "ns"),
        ("rds.codec.decode_request_ns", p_decode, "ns"),
        ("rds.codec.encode_response_ns", p_encode, "ns"),
        ("rds.codec.peek_request_id_ns", p50(&peek), "ns"),
        ("rds.dedup.begin_complete_ns", p_dedup, "ns"),
        ("auth.keyed_digest_ns", p_digest, "ns"),
        ("ber.encode_ns", p50(&ber_encode), "ns"),
        ("ber.decode_ns", p50(&ber_decode), "ns"),
        ("core.server.process_request_ns", p_armed, "ns"),
        ("core.server.process_request_direct_ns", p_direct, "ns"),
        ("core.server.self_ns", server_self, "ns"),
        ("core.executor.handoff_ns", handoff, "ns"),
        ("core.process.invoke_ns", p_invoke, "ns"),
        ("core.process.self_ns", process_self, "ns"),
        ("core.process.delegate_ns", p50(&cycle[0]), "ns"),
        ("core.process.instantiate_ns", p50(&cycle[1]), "ns"),
        ("core.process.suspend_resume_ns", p50(&cycle[2]), "ns"),
        ("core.process.terminate_ns", p50(&cycle[3]), "ns"),
        ("core.process.delete_ns", p50(&cycle[4]), "ns"),
        ("core.process.dpis_retained", retained as f64, "count"),
        ("core.durable.invoke_wal_ns", wal, "ns"),
        ("dpl.compile_ns", p50(&compile), "ns"),
        ("dpl.vm.invoke_ns", p_vm_invoke, "ns"),
        ("dpl.vm.fuel_per_op", per_op(vm.fuel), "fuel"),
        ("dpl.vm.host_calls_per_op", per_op(vm.host_calls), "count"),
        ("snmp.mib.walk_ns", p50(&walk), "ns"),
        ("telemetry.overhead_ns", telemetry, "ns"),
        ("ledger.residual_share", residual_ns / traced_p50_ns, "share"),
    ];
    Ok(Layers { metrics, ledger, residual_ns, clamped })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replicas must answer exactly what the real server answers,
    /// or the ledger would be timing different work.
    #[test]
    fn probes_run_on_every_workload_and_their_ledger_closes() {
        let out = std::env::temp_dir().join(format!("mbd-e2e-probe-test-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        for kind in Kind::ALL {
            // Trace a short slice against an in-process server …
            let server = crate::driver::tests::demo_server();
            let duplex = InProc::new(|frame: &[u8]| (server.process_request(frame), 0));
            let mut conn = Conn::new(duplex, KEY, 5);
            let mut workload = Workload::new(kind, 5);
            let fixture = workload.fixture();
            assert_eq!(conn.run_control(&mut workload, fixture).1, 0);
            let requests = (DISCARD + 10) * CHURN_STEPS as usize;
            let start = 7 * CHURN_STEPS;
            workload.seek(start);
            let mut tracer = Tracer::new(requests);
            let slice = conn.run_slice(&mut workload, requests, 1, Some(&mut tracer));
            assert_eq!(slice.failed, 0);
            let traced_p50 = median_ns(&slice.latencies_ns);
            // … then probe it.
            let target = Target {
                kind,
                seed: 5,
                start,
                requests,
                in_flight: 1.0,
                probe_calls: DISCARD + 20,
                out_dir: &out,
            };
            let layers = run(&target, &mut tracer, traced_p50, traced_p50).unwrap();
            let rows: f64 = layers.ledger.iter().map(|(_, ns)| ns).sum();
            assert!((rows + layers.residual_ns - traced_p50).abs() < 1e-6, "{kind:?}");
            assert!(layers.metrics.iter().all(|(name, v, _)| v.is_finite() || panic!("{name}")));
            let replayed = tracer.durations("core.server.process_request").len();
            assert_eq!(replayed, requests, "{kind:?}: one replay span per traced request");
            let vm_spans = tracer.durations("dpl.vm.invoke").len();
            assert_eq!(vm_spans, requests, "{kind:?}");
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
