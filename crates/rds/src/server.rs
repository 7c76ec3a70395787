use crate::dedup::{frame_fingerprint, DedupCache, DedupOutcome};
use crate::{codec, ErrorCode, RdsRequest, RdsResponse};
use mbd_auth::{Acl, Operation, Principal};
use mbd_telemetry::{Counter, Telemetry, Timer};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Cross-thread timing for one request, measured on the reactor side
/// (socket read interval, executor queue wait) and handed to the worker
/// that processes the frame. Carried as [`Instant`]s, not offsets, so
/// the receiving telemetry domain can place them on its own epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobTiming {
    /// When the frame's first bytes were read off the socket.
    pub(crate) recv_start: Instant,
    /// When the frame was completely assembled.
    pub(crate) recv_done: Instant,
    /// When the frame entered the executor queue.
    pub(crate) enqueued: Instant,
    /// When a worker picked it up.
    pub(crate) dequeued: Instant,
}

thread_local! {
    /// Set by the executor's worker loop just before `process`, taken by
    /// `process` to stitch reactor-side intervals into the request tree.
    static JOB_TIMING: Cell<Option<JobTiming>> = const { Cell::new(None) };
}

/// Stages reactor-side timing for the next `process` call on this thread.
pub(crate) fn set_job_timing(timing: JobTiming) {
    JOB_TIMING.with(|t| t.set(Some(timing)));
}

fn take_job_timing() -> Option<JobTiming> {
    JOB_TIMING.with(Cell::take)
}

/// Pre-resolved timers for the protocol front-end: BER decode time plus
/// one latency histogram per RDS verb (`rds.decode`, `rds.verb.<name>`
/// — resolved once here so the per-request cost is a clock read and a
/// lock-free record), plus per-error-kind decode-failure counters
/// (`rds.decode_fail.<kind>`).
///
/// When tracing is enabled on the telemetry domain, these timers also
/// emit the request's span tree: `rds.request` is the server-side root,
/// with `rds.conn.read`, `rds.conn.queue_wait` (from the reactor's
/// [`JobTiming`]), `rds.decode`, `rds.verb.<name>` and `rds.encode` as
/// children, and whatever the handler records (e.g. `ep.invoke` →
/// `ep.vm_run`) nested below the verb.
#[derive(Debug, Clone)]
struct RdsTimers {
    /// The owning domain, for trace capture and tail-sampling retention.
    telemetry: Telemetry,
    /// `rds.request` — the server-side root span of every request.
    request: Timer,
    decode: Timer,
    encode: Timer,
    /// Socket-read interval of the frame (reactor path only).
    conn_read: Timer,
    /// Executor queue wait, from the job's explicit enqueue timestamp.
    conn_queue: Timer,
    /// Indexed by [`RdsRequest::op_tag`].
    verbs: [Timer; 15],
    decode_fail_bad_digest: Counter,
    decode_fail_codec: Counter,
    decode_fail_unknown_op: Counter,
    /// `rds.dedup_hits` — retried frames answered from the
    /// duplicate-suppression cache instead of re-executing.
    dedup_hits: Counter,
}

impl RdsTimers {
    fn new(telemetry: &Telemetry) -> RdsTimers {
        let verb = |name: &str| telemetry.timer(&format!("rds.verb.{name}"));
        RdsTimers {
            telemetry: telemetry.clone(),
            request: telemetry.timer("rds.request"),
            decode: telemetry.timer("rds.decode"),
            encode: telemetry.timer("rds.encode"),
            conn_read: telemetry.timer("rds.conn.read"),
            conn_queue: telemetry.timer("rds.conn.queue_wait"),
            verbs: [
                verb("delegate"),
                verb("delete"),
                verb("instantiate"),
                verb("invoke"),
                verb("suspend"),
                verb("resume"),
                verb("terminate"),
                verb("send_message"),
                verb("list_programs"),
                verb("list_instances"),
                verb("read_journal"),
                verb("read_profile"),
                verb("read_metrics"),
                verb("checkpoint"),
                verb("restore"),
            ],
            decode_fail_bad_digest: telemetry.counter("rds.decode_fail.bad_digest"),
            decode_fail_codec: telemetry.counter("rds.decode_fail.codec"),
            decode_fail_unknown_op: telemetry.counter("rds.decode_fail.unknown_op"),
            dedup_hits: telemetry.counter("rds.dedup_hits"),
        }
    }

    fn decode_fail(&self, kind: &str) -> &Counter {
        match kind {
            "bad_digest" => &self.decode_fail_bad_digest,
            "unknown_op" => &self.decode_fail_unknown_op,
            _ => &self.decode_fail_codec,
        }
    }
}

/// One processed request (or decode failure), as reported to the audit
/// sink installed with [`RdsServer::with_audit`] — the raw material of
/// the audit journal and of per-dpi byte accounting.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Trace id of the request (0 for untraced or undecodable frames).
    pub trace_id: u64,
    /// Claimed principal handle (empty if the frame never decoded).
    pub principal: String,
    /// Verb name, or `decode_fail.<kind>` for undecodable frames.
    pub verb: String,
    /// Target dpi id (0 = the request names no dpi).
    pub dpi: u64,
    /// Whether the response was non-`Error`.
    pub ok: bool,
    /// Error text when `ok` is false, empty otherwise.
    pub detail: String,
    /// Encoded request frame length.
    pub bytes_in: u64,
    /// Encoded response frame length.
    pub bytes_out: u64,
}

/// The application half of an RDS server: given an authenticated,
/// authorized request, produce a response. The elastic process runtime
/// implements this.
pub trait RdsHandler {
    /// Handles one request from `principal`. The front-end has already
    /// entered the request's wire trace
    /// ([`mbd_telemetry::current_trace_id`]) for the duration of the
    /// call.
    fn handle(&self, principal: &Principal, request: RdsRequest) -> RdsResponse;
}

impl<F> RdsHandler for F
where
    F: Fn(&Principal, RdsRequest) -> RdsResponse,
{
    fn handle(&self, principal: &Principal, request: RdsRequest) -> RdsResponse {
        self(principal, request)
    }
}

/// Protocol front-end of an elastic process: decodes, authenticates
/// (optional keyed digest), authorizes (handle ACL), dispatches to an
/// [`RdsHandler`], and encodes the response.
pub struct RdsServer<H> {
    handler: H,
    acl: Acl,
    key: Option<Vec<u8>>,
    timers: Option<RdsTimers>,
    audit: Option<Arc<dyn Fn(AuditEvent) + Send + Sync>>,
    dedup: Option<DedupCache>,
}

/// An armed single-flight claim on `(principal, request id)`: dropped
/// without being disarmed (the handler unwound), it releases the claim
/// so blocked duplicates and later retries can execute the request for
/// real.
struct DedupClaim<'a> {
    cache: &'a DedupCache,
    principal: String,
    request_id: i64,
    fingerprint: u64,
    armed: bool,
}

impl Drop for DedupClaim<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abandon(&self.principal, self.request_id, self.fingerprint);
        }
    }
}

impl<H: std::fmt::Debug> std::fmt::Debug for RdsServer<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdsServer")
            .field("handler", &self.handler)
            .field("authenticated", &self.key.is_some())
            .finish()
    }
}

fn required_operation(req: &RdsRequest) -> Operation {
    match req {
        RdsRequest::DelegateProgram { .. } | RdsRequest::DeleteProgram { .. } => {
            Operation::Delegate
        }
        RdsRequest::Instantiate { .. } => Operation::Instantiate,
        RdsRequest::Invoke { .. } | RdsRequest::SendMessage { .. } => Operation::Invoke,
        RdsRequest::Suspend { .. }
        | RdsRequest::Resume { .. }
        | RdsRequest::Terminate { .. }
        | RdsRequest::Checkpoint { .. } => Operation::Control,
        // Installing a checkpoint creates a program and an instance —
        // the delegation privilege.
        RdsRequest::Restore { .. } => Operation::Delegate,
        RdsRequest::ListPrograms
        | RdsRequest::ListInstances
        | RdsRequest::ReadJournal { .. }
        | RdsRequest::ReadProfile { .. }
        | RdsRequest::ReadMetrics { .. } => Operation::List,
    }
}

impl<H: RdsHandler> RdsServer<H> {
    /// A server with the prototype's trivial access control (any handle
    /// may do anything) and no digest authentication.
    pub fn open(handler: H) -> RdsServer<H> {
        RdsServer::with_policy(handler, Acl::allow_by_default(), None)
    }

    /// A server enforcing `acl`, optionally requiring keyed digests.
    pub fn with_policy(handler: H, acl: Acl, key: Option<Vec<u8>>) -> RdsServer<H> {
        RdsServer { handler, acl, key, timers: None, audit: None, dedup: None }
    }

    /// Enables exactly-once duplicate suppression: each processed
    /// request's encoded response is remembered under
    /// `(principal, request id)` (at most `capacity` per principal,
    /// drop-oldest), and a retried frame — identical bytes — is answered
    /// by replaying the remembered response instead of re-executing the
    /// effect. Replays are journaled as `duplicate_replayed` and counted
    /// as `rds.dedup_hits`. `capacity` 0 disables suppression.
    #[must_use]
    pub fn with_dedup(mut self, capacity: usize) -> RdsServer<H> {
        self.dedup = (capacity > 0).then(|| DedupCache::new(capacity));
        self
    }

    /// Retried frames answered from the dedup cache (0 when duplicate
    /// suppression is disabled).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup.as_ref().map_or(0, DedupCache::hits)
    }

    /// Installs an audit sink called once per processed request (and
    /// once per undecodable frame) with the request's trace id,
    /// principal, verb, target dpi, outcome and frame sizes.
    #[must_use]
    pub fn with_audit(mut self, sink: Arc<dyn Fn(AuditEvent) + Send + Sync>) -> RdsServer<H> {
        self.audit = Some(sink);
        self
    }

    /// Records decode time and per-verb request latency into
    /// `telemetry` (`rds.decode`, `rds.verb.<name>`) for every request
    /// this server processes.
    #[must_use]
    pub fn instrument(mut self, telemetry: &Telemetry) -> RdsServer<H> {
        self.timers = Some(RdsTimers::new(telemetry));
        self
    }

    /// The handler (for embedding servers that need to reach through).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Processes one encoded request into an encoded response.
    ///
    /// Undecodable requests get an encoded `Error` response with request
    /// id 0 (there is nothing better to correlate with); the error kind
    /// is distinguished by the `rds.decode_fail.<kind>` counters and the
    /// audit event.
    pub fn process(&self, bytes: &[u8]) -> Vec<u8> {
        // Reactor-side timing, staged by the worker loop before this
        // call (None on direct/in-process transports). Taken up front so
        // a stale value can never leak into a later request.
        let timing = take_job_timing();
        // Decode is measured with raw instants, not a guard: the trace
        // id is unknown until the frame decodes, so its span is emitted
        // retroactively under the request root below.
        let decode_start = Instant::now();
        let decoded = codec::decode_request_traced(bytes, self.key.as_deref());
        let decode_end = Instant::now();
        let (request, principal, request_id, trace) = match decoded {
            Ok(parts) => parts,
            Err(e) => {
                if let Some(t) = &self.timers {
                    t.decode.record_interval(decode_start, decode_end);
                }
                return self.decode_failure(bytes, &e);
            }
        };
        // Everything the request causes on this thread — spans,
        // notifications, log lines, journal records — is stamped with
        // its trace id until the guard drops; the wire parent seeds the
        // span stack so relayed requests nest under their caller.
        let _trace_scope =
            mbd_telemetry::enter_trace_with_parent(trace.trace_id, trace.parent_span_id);
        if let Some(t) = &self.timers {
            t.telemetry.begin_trace_capture();
        }
        // The server-side root span: socket read, queue wait and decode
        // already happened, so they are stitched in as children with
        // their exact measured intervals.
        let root_span = self.timers.as_ref().map(|t| t.request.start());
        if let Some(t) = &self.timers {
            if let Some(j) = timing {
                t.conn_read.record_interval(j.recv_start, j.recv_done);
                t.conn_queue.record_interval(j.enqueued, j.dequeued);
            }
            t.decode.record_interval(decode_start, decode_end);
        }
        let verb = request.verb();
        let dpi = request.dpi().map_or(0, |d| d.0);
        // Duplicate suppression: a retried frame (identical bytes under
        // the same principal and request id) is answered with the
        // response already sent — the effect ran at most once. Admission
        // is single-flight: a byte-identical copy arriving while the
        // first is still executing (pipelined duplicate delivery) waits
        // inside `begin` and replays that execution's response. Request
        // id 0 is reserved for undecodable frames and never cached.
        let fingerprint = self.dedup.as_ref().map(|_| frame_fingerprint(bytes));
        let mut claim = None;
        if let (Some(cache), Some(fp)) = (&self.dedup, fingerprint) {
            if request_id != 0 {
                match cache.begin(principal.handle(), request_id, fp) {
                    DedupOutcome::Replay(replay) => {
                        if let Some(t) = &self.timers {
                            t.dedup_hits.inc();
                        }
                        if let Some(sink) = &self.audit {
                            sink(AuditEvent {
                                trace_id: trace.trace_id,
                                principal: principal.handle().to_string(),
                                verb: "duplicate_replayed".to_string(),
                                dpi,
                                ok: true,
                                detail: verb.to_string(),
                                bytes_in: bytes.len() as u64,
                                bytes_out: replay.len() as u64,
                            });
                        }
                        if let Some(t) = &self.timers {
                            let duration_ns = root_span.map_or(0, mbd_telemetry::Span::finish);
                            t.telemetry.finish_trace(trace.trace_id, duration_ns, false);
                        }
                        return replay;
                    }
                    DedupOutcome::Execute => {
                        // Held until `complete` disarms it: a panicking
                        // handler must release the claim so retries can
                        // execute for real instead of waiting on a slot
                        // that will never resolve.
                        claim = Some(DedupClaim {
                            cache,
                            principal: principal.handle().to_string(),
                            request_id,
                            fingerprint: fp,
                            armed: true,
                        });
                    }
                }
            }
        }
        // The verb span covers authorization and dispatch; response
        // encoding gets its own span so the tree separates handler time
        // from serialization time.
        let verb_span = self.timers.as_ref().map(|t| t.verbs[request.op_tag() as usize].start());
        let op = required_operation(&request);
        let response = if self.acl.allows(&principal, op, request.dp_name()) {
            self.handler.handle(&principal, request)
        } else {
            RdsResponse::Error {
                code: ErrorCode::AccessDenied,
                message: format!("{principal} may not {op}"),
            }
        };
        drop(verb_span);
        let encode_span = self.timers.as_ref().map(|t| t.encode.start());
        let encoded =
            codec::encode_response_traced(&response, request_id, self.key.as_deref(), trace);
        drop(encode_span);
        if let Some(mut claim) = claim {
            claim.cache.complete(&claim.principal, request_id, claim.fingerprint, &encoded);
            claim.armed = false;
        }
        let errored = matches!(response, RdsResponse::Error { .. });
        if let Some(sink) = &self.audit {
            let (ok, detail) = match &response {
                RdsResponse::Error { code, message } => (false, format!("{code}: {message}")),
                _ => (true, String::new()),
            };
            sink(AuditEvent {
                trace_id: trace.trace_id,
                principal: principal.handle().to_string(),
                verb: verb.to_string(),
                dpi,
                ok,
                detail,
                bytes_in: bytes.len() as u64,
                bytes_out: encoded.len() as u64,
            });
        }
        // Close the root and offer the completed tree to the
        // tail-sampling store (kept if slow, errored, or by reservoir).
        if let Some(t) = &self.timers {
            let duration_ns = root_span.map_or(0, mbd_telemetry::Span::finish);
            t.telemetry.finish_trace(trace.trace_id, duration_ns, errored);
        }
        encoded
    }

    fn decode_failure(&self, bytes: &[u8], err: &crate::RdsError) -> Vec<u8> {
        let (kind, code, message) = match err {
            crate::RdsError::BadDigest => {
                ("bad_digest", ErrorCode::AuthFailed, "digest verification failed".to_string())
            }
            crate::RdsError::UnknownOperation(_) => {
                ("unknown_op", ErrorCode::Internal, err.to_string())
            }
            _ => ("codec", ErrorCode::Internal, err.to_string()),
        };
        if let Some(t) = &self.timers {
            t.decode_fail(kind).inc();
        }
        let encoded =
            codec::encode_response(&RdsResponse::Error { code, message }, 0, self.key.as_deref());
        if let Some(sink) = &self.audit {
            sink(AuditEvent {
                trace_id: 0,
                principal: String::new(),
                verb: format!("decode_fail.{kind}"),
                dpi: 0,
                ok: false,
                detail: err.to_string(),
                bytes_in: bytes.len() as u64,
                bytes_out: encoded.len() as u64,
            });
        }
        encoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpiId, RdsError, TraceContext};

    fn echo_handler() -> impl RdsHandler {
        |_p: &Principal, req: RdsRequest| match req {
            RdsRequest::ListPrograms => RdsResponse::Programs { names: vec!["seen".to_string()] },
            RdsRequest::Instantiate { .. } => RdsResponse::Instantiated { dpi: DpiId(1) },
            _ => RdsResponse::Ok,
        }
    }

    #[test]
    fn open_server_dispatches() {
        let server = RdsServer::open(echo_handler());
        let req = codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 3, None);
        let resp_bytes = server.process(&req);
        let (resp, id) = codec::decode_response(&resp_bytes, None).unwrap();
        assert_eq!(id, 3);
        assert_eq!(resp, RdsResponse::Programs { names: vec!["seen".to_string()] });
    }

    #[test]
    fn acl_denies_unauthorized_operations() {
        let mut acl = Acl::deny_by_default();
        acl.grant(&Principal::new("viewer"), Operation::List);
        let server = RdsServer::with_policy(echo_handler(), acl, None);

        let ok =
            codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("viewer"), 1, None);
        let (resp, _) = codec::decode_response(&server.process(&ok), None).unwrap();
        assert!(matches!(resp, RdsResponse::Programs { .. }));

        let denied = codec::encode_request(
            &RdsRequest::Instantiate { dp_name: "x".to_string() },
            &Principal::new("viewer"),
            2,
            None,
        );
        let (resp, _) = codec::decode_response(&server.process(&denied), None).unwrap();
        assert!(
            matches!(resp, RdsResponse::Error { code: ErrorCode::AccessDenied, .. }),
            "got {resp:?}"
        );
    }

    #[test]
    fn scoped_acl_controls_per_dp_delegation() {
        let mut acl = Acl::deny_by_default();
        acl.grant_scoped(&Principal::new("dev"), Operation::Delegate, "allowed-dp");
        let server = RdsServer::with_policy(echo_handler(), acl, None);
        let mk = |name: &str, id| {
            codec::encode_request(
                &RdsRequest::DelegateProgram {
                    dp_name: name.to_string(),
                    language: "dpl".to_string(),
                    source: vec![],
                },
                &Principal::new("dev"),
                id,
                None,
            )
        };
        let (resp, _) =
            codec::decode_response(&server.process(&mk("allowed-dp", 1)), None).unwrap();
        assert_eq!(resp, RdsResponse::Ok);
        let (resp, _) = codec::decode_response(&server.process(&mk("other-dp", 2)), None).unwrap();
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::AccessDenied, .. }));
    }

    #[test]
    fn keyed_server_rejects_unauthenticated_clients() {
        let server =
            RdsServer::with_policy(echo_handler(), Acl::allow_by_default(), Some(b"k".to_vec()));
        let req = codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, None);
        let resp_bytes = server.process(&req);
        let (resp, id) = codec::decode_response(&resp_bytes, Some(b"k")).unwrap();
        assert_eq!(id, 0);
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::AuthFailed, .. }));
    }

    #[test]
    fn instrumented_server_records_decode_and_per_verb_latency() {
        let tel = Telemetry::new();
        let server = RdsServer::open(echo_handler()).instrument(&tel);
        let req = codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, None);
        server.process(&req);
        server.process(&req);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("rds.verb.list_programs").unwrap().count(), 2);
        assert_eq!(snap.histogram("rds.decode").unwrap().count(), 2);
        assert!(snap.histogram("rds.verb.invoke").unwrap().is_empty());
        // Undecodable bytes cost a decode attempt but reach no verb.
        server.process(b"not ber");
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("rds.decode").unwrap().count(), 3);
        let verbs: u64 = snap
            .histograms
            .iter()
            .filter(|(n, _)| n.starts_with("rds.verb."))
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(verbs, 2);
    }

    #[test]
    fn denied_requests_still_count_toward_their_verb() {
        let tel = Telemetry::new();
        let server =
            RdsServer::with_policy(echo_handler(), Acl::deny_by_default(), None).instrument(&tel);
        let req = codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, None);
        let (resp, _) = codec::decode_response(&server.process(&req), None).unwrap();
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::AccessDenied, .. }));
        assert_eq!(tel.snapshot().histogram("rds.verb.list_programs").unwrap().count(), 1);
    }

    #[test]
    fn garbage_bytes_get_an_error_response() {
        let server = RdsServer::open(echo_handler());
        let resp_bytes = server.process(b"not ber");
        let (resp, _) = codec::decode_response(&resp_bytes, None).unwrap();
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::Internal, .. }));
    }

    #[test]
    fn decode_failures_count_per_error_kind() {
        let tel = Telemetry::new();
        let server =
            RdsServer::with_policy(echo_handler(), Acl::allow_by_default(), Some(b"k".to_vec()))
                .instrument(&tel);
        // Codec garbage.
        server.process(b"not ber");
        // Missing digest against a keyed server.
        let unsigned =
            codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, None);
        server.process(&unsigned);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("rds.decode_fail.codec"), Some(1));
        assert_eq!(snap.counter("rds.decode_fail.bad_digest"), Some(1));
        assert_eq!(snap.counter("rds.decode_fail.unknown_op"), Some(0));
    }

    #[test]
    fn audit_sink_sees_requests_and_decode_failures() {
        use std::sync::Mutex;
        let events: Arc<Mutex<Vec<AuditEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let server = RdsServer::open(echo_handler())
            .with_audit(Arc::new(move |ev| sink.lock().unwrap().push(ev)));

        let trace = TraceContext { trace_id: 0xC0FFEE, parent_span_id: 0 };
        let req = codec::encode_request_traced(
            &RdsRequest::Suspend { dpi: DpiId(7) },
            &Principal::new("mgr"),
            1,
            None,
            trace,
        );
        let resp = server.process(&req);
        server.process(b"junk");

        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].verb, "suspend");
        assert_eq!(events[0].trace_id, 0xC0FFEE);
        assert_eq!(events[0].principal, "mgr");
        assert_eq!(events[0].dpi, 7);
        assert!(events[0].ok);
        assert_eq!(events[0].bytes_in, req.len() as u64);
        assert_eq!(events[0].bytes_out, resp.len() as u64);
        assert_eq!(events[1].verb, "decode_fail.codec");
        assert!(!events[1].ok);
        assert_eq!(events[1].trace_id, 0);
    }

    #[test]
    fn trace_context_is_echoed_and_set_for_the_handler() {
        let server = RdsServer::open(|_p: &Principal, _req: RdsRequest| RdsResponse::Result {
            value: ber::BerValue::Integer(mbd_telemetry::current_trace_id() as i64),
        });
        let trace = TraceContext { trace_id: 0xAB, parent_span_id: 3 };
        let req = codec::encode_request_traced(
            &RdsRequest::ListPrograms,
            &Principal::new("m"),
            9,
            None,
            trace,
        );
        let (resp, id, echoed) =
            codec::decode_response_traced(&server.process(&req), None).unwrap();
        assert_eq!(id, 9);
        assert_eq!(echoed, trace, "server echoes the request's trace context");
        assert_eq!(
            resp,
            RdsResponse::Result { value: ber::BerValue::Integer(0xAB) },
            "handler ran with the thread-local trace id set"
        );
        assert_eq!(mbd_telemetry::current_trace_id(), 0, "guard dropped after process()");
    }

    #[test]
    fn read_journal_requires_list_rights() {
        let mut acl = Acl::deny_by_default();
        acl.grant(&Principal::new("viewer"), Operation::List);
        let server = RdsServer::with_policy(
            |_p: &Principal, req: RdsRequest| match req {
                RdsRequest::ReadJournal { .. } => RdsResponse::Journal { records: vec![] },
                _ => RdsResponse::Ok,
            },
            acl,
            None,
        );
        let mk = |who: &str| {
            codec::encode_request(
                &RdsRequest::ReadJournal { max_records: 5 },
                &Principal::new(who),
                1,
                None,
            )
        };
        let (resp, _) = codec::decode_response(&server.process(&mk("viewer")), None).unwrap();
        assert_eq!(resp, RdsResponse::Journal { records: vec![] });
        let (resp, _) = codec::decode_response(&server.process(&mk("stranger")), None).unwrap();
        assert!(matches!(resp, RdsResponse::Error { code: ErrorCode::AccessDenied, .. }));
    }

    #[test]
    fn duplicate_frame_replays_without_reexecuting() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let executions = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&executions);
        let server = RdsServer::open(move |_p: &Principal, _req: RdsRequest| {
            RdsResponse::Instantiated { dpi: DpiId(seen.fetch_add(1, Ordering::Relaxed) + 1) }
        })
        .with_dedup(16);
        let req = codec::encode_request(
            &RdsRequest::Instantiate { dp_name: "x".to_string() },
            &Principal::new("mgr"),
            1,
            None,
        );
        let first = server.process(&req);
        let replay = server.process(&req);
        assert_eq!(first, replay, "byte-identical replay, not a second execution");
        assert_eq!(executions.load(Ordering::Relaxed), 1);
        assert_eq!(server.dedup_hits(), 1);
    }

    #[test]
    fn distinct_requests_under_a_reused_id_are_not_replayed() {
        let server = RdsServer::open(echo_handler()).with_dedup(16);
        let mk = |name: &str| {
            codec::encode_request(
                &RdsRequest::Instantiate { dp_name: name.to_string() },
                &Principal::new("mgr"),
                1,
                None,
            )
        };
        // A restarted manager reuses id 1 for a different request: the
        // frame fingerprint differs, so it executes normally.
        server.process(&mk("first"));
        server.process(&mk("second"));
        assert_eq!(server.dedup_hits(), 0);
    }

    #[test]
    fn dedup_is_per_principal() {
        let server = RdsServer::open(echo_handler()).with_dedup(16);
        let mk = |who: &str| {
            codec::encode_request(&RdsRequest::ListPrograms, &Principal::new(who), 1, None)
        };
        server.process(&mk("alice"));
        server.process(&mk("bob"));
        assert_eq!(server.dedup_hits(), 0, "same id, different principals: no replay");
        server.process(&mk("alice"));
        assert_eq!(server.dedup_hits(), 1);
    }

    #[test]
    fn replays_count_and_journal_as_duplicate_replayed() {
        use std::sync::Mutex;
        let tel = Telemetry::new();
        let events: Arc<Mutex<Vec<AuditEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let server = RdsServer::open(echo_handler())
            .instrument(&tel)
            .with_dedup(16)
            .with_audit(Arc::new(move |ev| sink.lock().unwrap().push(ev)));
        let trace = TraceContext { trace_id: 0xD0D0, parent_span_id: 0 };
        let req = codec::encode_request_traced(
            &RdsRequest::Suspend { dpi: DpiId(3) },
            &Principal::new("mgr"),
            7,
            None,
            trace,
        );
        server.process(&req);
        server.process(&req);
        assert_eq!(tel.snapshot().counter("rds.dedup_hits"), Some(1));
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].verb, "duplicate_replayed");
        assert_eq!(events[1].detail, "suspend", "the replayed verb is recorded");
        assert_eq!(events[1].trace_id, 0xD0D0);
        assert_eq!(events[1].dpi, 3);
        assert!(events[1].ok);
    }

    #[test]
    fn error_responses_are_replayed_too() {
        // A faulted Invoke must not re-execute on retry: the *error* is
        // the remembered answer.
        use std::sync::atomic::{AtomicU64, Ordering};
        let executions = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&executions);
        let server = RdsServer::open(move |_p: &Principal, _req: RdsRequest| {
            seen.fetch_add(1, Ordering::Relaxed);
            RdsResponse::Error { code: ErrorCode::RuntimeFault, message: "boom".to_string() }
        })
        .with_dedup(16);
        let req = codec::encode_request(
            &RdsRequest::Invoke { dpi: DpiId(1), entry: "f".to_string(), args: vec![] },
            &Principal::new("mgr"),
            2,
            None,
        );
        let a = server.process(&req);
        let b = server.process(&req);
        assert_eq!(a, b);
        assert_eq!(executions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_capacity_disables_dedup() {
        let server = RdsServer::open(echo_handler()).with_dedup(0);
        let req = codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, None);
        server.process(&req);
        server.process(&req);
        assert_eq!(server.dedup_hits(), 0);
    }

    #[test]
    fn response_decode_fails_for_client_with_wrong_key() {
        let server =
            RdsServer::with_policy(echo_handler(), Acl::allow_by_default(), Some(b"k".to_vec()));
        let req =
            codec::encode_request(&RdsRequest::ListPrograms, &Principal::new("m"), 1, Some(b"k"));
        let resp_bytes = server.process(&req);
        assert_eq!(
            codec::decode_response(&resp_bytes, Some(b"wrong")).unwrap_err(),
            RdsError::BadDigest
        );
    }
}
