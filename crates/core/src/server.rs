use crate::{convert, CoreError, ElasticProcess};
use mbd_auth::{Acl, Principal};
use rds::{AuditEvent, DpiId, ErrorCode, RdsHandler, RdsRequest, RdsResponse, RdsServer};
use std::sync::Arc;

/// The MbD server: an [`ElasticProcess`] behind the RDS protocol.
///
/// Decoding, authentication and ACL enforcement happen in
/// [`RdsServer`]; this type supplies the [`RdsHandler`] mapping protocol
/// verbs onto the runtime and converting values at the boundary.
///
/// # Examples
///
/// ```
/// use mbd_core::{ElasticConfig, ElasticProcess, MbdServer};
/// use rds::{LoopbackDuplex, RdsClient};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let process = ElasticProcess::new(ElasticConfig::default());
/// let server = Arc::new(MbdServer::open(process));
/// let duplex = LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes));
/// let client = RdsClient::new(duplex, "noc");
///
/// client.delegate("dp", "fn main() { return 7; }")?;
/// let dpi = client.instantiate("dp")?;
/// assert_eq!(client.invoke(dpi, "main", &[])?, ber::BerValue::Integer(7));
/// # Ok(())
/// # }
/// ```
pub struct MbdServer {
    rds: RdsServer<Dispatcher>,
}

impl std::fmt::Debug for MbdServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbdServer").field("process", self.process()).finish()
    }
}

/// The handler half: owns a process handle.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    process: ElasticProcess,
}

fn error_code(e: &CoreError) -> ErrorCode {
    match e {
        CoreError::Translation(_) => ErrorCode::TranslationFailed,
        CoreError::NoSuchProgram { .. } | CoreError::ProgramExists { .. } => {
            ErrorCode::NoSuchProgram
        }
        CoreError::NoSuchInstance(_) => ErrorCode::NoSuchInstance,
        CoreError::BadState { .. } => ErrorCode::BadState,
        CoreError::Runtime(_) => ErrorCode::RuntimeFault,
        CoreError::TooManyInstances { .. } | CoreError::Durability { .. } => ErrorCode::Internal,
        CoreError::BadCheckpoint { .. } => ErrorCode::TranslationFailed,
        CoreError::NonceReused | CoreError::InstanceExists { .. } => ErrorCode::BadState,
    }
}

fn to_response<T>(result: Result<T, CoreError>, ok: impl FnOnce(T) -> RdsResponse) -> RdsResponse {
    match result {
        Ok(v) => ok(v),
        Err(e) => RdsResponse::Error { code: error_code(&e), message: e.to_string() },
    }
}

impl RdsHandler for Dispatcher {
    fn handle(&self, principal: &Principal, request: RdsRequest) -> RdsResponse {
        match request {
            RdsRequest::DelegateProgram { dp_name, language, source } => {
                if language != "dpl" {
                    return RdsResponse::Error {
                        code: ErrorCode::TranslationFailed,
                        message: format!("unsupported language `{language}`"),
                    };
                }
                let source = String::from_utf8_lossy(&source).into_owned();
                to_response(self.process.delegate_as(&dp_name, &source, principal.handle()), |()| {
                    RdsResponse::Ok
                })
            }
            RdsRequest::DeleteProgram { dp_name } => {
                to_response(self.process.delete_program(&dp_name), |()| RdsResponse::Ok)
            }
            RdsRequest::Instantiate { dp_name } => {
                to_response(self.process.instantiate(&dp_name), |dpi| RdsResponse::Instantiated {
                    dpi,
                })
            }
            RdsRequest::Invoke { dpi, entry, args } => {
                let args: Vec<dpl::Value> = args.iter().map(convert::from_ber).collect();
                to_response(self.process.invoke(dpi, &entry, &args), |v| RdsResponse::Result {
                    value: convert::to_ber(&v),
                })
            }
            RdsRequest::Suspend { dpi } => {
                to_response(self.process.suspend(dpi), |()| RdsResponse::Ok)
            }
            RdsRequest::Resume { dpi } => {
                to_response(self.process.resume(dpi), |()| RdsResponse::Ok)
            }
            RdsRequest::Terminate { dpi } => {
                to_response(self.process.terminate(dpi), |()| RdsResponse::Ok)
            }
            RdsRequest::Checkpoint { dpi } => {
                to_response(self.process.checkpoint(dpi), |blob| RdsResponse::Checkpointed { blob })
            }
            RdsRequest::Restore { blob } => {
                to_response(self.process.restore(&blob), |dpi| RdsResponse::Instantiated { dpi })
            }
            RdsRequest::SendMessage { dpi, payload } => {
                to_response(self.process.send_message(dpi, &payload), |()| RdsResponse::Ok)
            }
            RdsRequest::ListPrograms => {
                RdsResponse::Programs { names: self.process.list_programs() }
            }
            RdsRequest::ListInstances => {
                RdsResponse::Instances { instances: self.process.list_instances() }
            }
            RdsRequest::ReadJournal { max_records } => {
                RdsResponse::Journal { records: self.process.journal().tail(max_records as usize) }
            }
            RdsRequest::ReadProfile { trace_id, dpi } => {
                // Span tree: the requested trace (0 = most recently
                // retained, anomalous first) from the tail-sampling store.
                let tree = self.process.telemetry().trace_store().and_then(|store| {
                    if trace_id == 0 {
                        store.latest()
                    } else {
                        store.tree(trace_id)
                    }
                });
                let (trace_id, kept, spans) = match tree {
                    Some(t) => {
                        let kept = if t.reason.is_empty() {
                            t.kept.label().to_string()
                        } else {
                            format!("{}: {}", t.kept.label(), t.reason)
                        };
                        let spans = t
                            .spans
                            .iter()
                            .map(|s| rds::SpanRecord {
                                trace_id: s.trace_id,
                                span_id: s.span_id,
                                parent_span_id: s.parent_span_id,
                                name: s.name.clone(),
                                start_ns: s.start_ns,
                                duration_ns: s.duration_ns,
                            })
                            .collect();
                        (t.trace_id, kept, spans)
                    }
                    None => (0, String::new(), Vec::new()),
                };
                RdsResponse::Profile {
                    trace_id,
                    kept,
                    spans,
                    stacks: self.process.profile_stacks(dpi),
                }
            }
            RdsRequest::ReadMetrics { pattern, range_s, res_s } => {
                let telemetry = self.process.telemetry();
                let now_s = telemetry.elapsed_ns() / 1_000_000_000;
                let series = telemetry
                    .history()
                    .map(|h| h.query(&pattern, u64::from(range_s), u64::from(res_s).max(1), now_s))
                    .unwrap_or_default()
                    .into_iter()
                    .map(|s| rds::MetricSeries {
                        name: s.name,
                        kind: s.kind.as_str().to_string(),
                        points: s
                            .points
                            .iter()
                            .map(|p| rds::MetricPoint {
                                t_s: p.t_s,
                                min: p.min,
                                max: p.max,
                                avg: p.avg,
                                last: p.last,
                            })
                            .collect(),
                    })
                    .collect();
                let alerts = telemetry
                    .alerts()
                    .map(|a| a.states())
                    .unwrap_or_default()
                    .into_iter()
                    .map(|a| rds::AlertStatus {
                        rule: a.rule,
                        metric: a.metric,
                        firing: a.firing,
                        value: a.value,
                        since_s: a.since_s,
                        fired_count: a.fired_count,
                    })
                    .collect();
                RdsResponse::Metrics { now_s, series, alerts }
            }
        }
    }
}

/// The audit sink wired into [`RdsServer`]: every request (and every
/// decode failure) becomes a journal record, and the frame bytes are
/// charged to the targeted dpi's account.
fn audit_sink(process: ElasticProcess) -> Arc<dyn Fn(AuditEvent) + Send + Sync> {
    let cold_misses = process.telemetry().counter("rds.dedup_cold_misses");
    Arc::new(move |e: AuditEvent| {
        if e.dpi != 0 {
            process.charge_rds_bytes(DpiId(e.dpi), e.bytes_in, e.bytes_out);
        }
        // A trace id seen in the replayed WAL means this frame already
        // executed before the crash; the dedup cache restarted cold and
        // could not suppress the retry, so the effect ran twice.
        if process.was_cold_trace(e.trace_id) {
            cold_misses.inc();
            process.journal().record(
                process.ticks(),
                e.trace_id,
                &e.principal,
                "dedup.cold_miss",
                e.dpi,
                false,
                &format!("retry of pre-crash {} re-executed (dedup cache was cold)", e.verb),
            );
        }
        process.journal().record(
            process.ticks(),
            e.trace_id,
            &e.principal,
            &e.verb,
            e.dpi,
            e.ok,
            &e.detail,
        );
    })
}

impl MbdServer {
    /// A server with open access (the first prototype's trivial policy).
    ///
    /// Duplicate suppression is always on
    /// ([`rds::DEFAULT_DEDUP_CAPACITY`] responses per principal), so a
    /// retrying manager gets exactly-once effects.
    pub fn open(process: ElasticProcess) -> MbdServer {
        MbdServer::with_policy(process, Acl::allow_by_default(), None)
    }

    /// A server with an ACL and optional keyed-digest authentication
    /// (duplicate suppression on, as in [`MbdServer::open`]).
    pub fn with_policy(process: ElasticProcess, acl: Acl, key: Option<Vec<u8>>) -> MbdServer {
        let telemetry = process.telemetry().clone();
        let audit = audit_sink(process.clone());
        MbdServer {
            rds: RdsServer::with_policy(Dispatcher { process }, acl, key)
                .instrument(&telemetry)
                .with_audit(audit)
                .with_dedup(rds::DEFAULT_DEDUP_CAPACITY),
        }
    }

    /// Retried frames answered from the dedup cache instead of
    /// re-executing (see [`RdsServer::dedup_hits`]).
    pub fn dedup_hits(&self) -> u64 {
        self.rds.dedup_hits()
    }

    /// Handles one encoded RDS request.
    pub fn process_request(&self, bytes: &[u8]) -> Vec<u8> {
        self.rds.process(bytes)
    }

    /// The underlying elastic process.
    pub fn process(&self) -> &ElasticProcess {
        &self.rds.handler().process
    }
}

// Shim for the frozen benchmark: `bench/e2e/src/probes.rs` (lines 131 and
// 526) is the only caller of these three names, and no change but a
// `benchmark` issue may edit it; the next one deletes both ends. There is no
// invoke executor: `Invoke` runs on the RDS worker that decoded it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorConfig {
    pub workers: usize,
}
#[doc(hidden)]
pub enum NoExecutor {}
#[doc(hidden)]
impl NoExecutor {
    pub fn shutdown(&self) {}
}
#[doc(hidden)]
impl MbdServer {
    pub fn arm_executor(&self, _config: ExecutorConfig) {}
    pub fn executor(&self) -> Option<&NoExecutor> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElasticConfig;
    use ber::BerValue;
    use mbd_auth::Operation;
    use rds::{LoopbackDuplex, RdsClient, RdsError, TcpDuplex, TcpServer};
    use std::sync::Arc;

    fn client() -> RdsClient<LoopbackDuplex> {
        let server = Arc::new(MbdServer::open(ElasticProcess::new(ElasticConfig::default())));
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes));
        RdsClient::new(duplex, "mgr")
    }

    #[test]
    fn end_to_end_delegation_over_rds() {
        let c = client();
        c.delegate("calc", "var total = 0; fn add(x) { total = total + x; return total; }")
            .unwrap();
        let dpi = c.instantiate("calc").unwrap();
        assert_eq!(c.invoke(dpi, "add", &[BerValue::Integer(5)]).unwrap(), BerValue::Integer(5));
        assert_eq!(c.invoke(dpi, "add", &[BerValue::Integer(7)]).unwrap(), BerValue::Integer(12));
        assert_eq!(c.list_programs().unwrap(), vec!["calc".to_string()]);
        let instances = c.list_instances().unwrap();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].dp_name, "calc");
    }

    #[test]
    fn translation_failure_maps_to_protocol_error() {
        let c = client();
        let err = c.delegate("bad", "fn main() { return rm_rf(); }").unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::TranslationFailed, .. }));
    }

    #[test]
    fn lifecycle_errors_map_to_protocol_errors() {
        let c = client();
        c.delegate("f", "fn main() { return 1 / 0; }").unwrap();
        let dpi = c.instantiate("f").unwrap();
        // Runtime fault.
        let err = c.invoke(dpi, "main", &[]).unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::RuntimeFault, .. }));
        // Now terminated, so gone from the table -> NoSuchInstance.
        let err = c.invoke(dpi, "main", &[]).unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::NoSuchInstance, .. }));
        // Suspended -> BadState.
        let dpi = c.instantiate("f").unwrap();
        c.suspend(dpi).unwrap();
        let err = c.invoke(dpi, "main", &[]).unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::BadState, .. }));
        // Unknown instance.
        let err = c.suspend(rds::DpiId(999)).unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::NoSuchInstance, .. }));
        // Unknown program.
        let err = c.instantiate("ghost").unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::NoSuchProgram, .. }));
    }

    #[test]
    fn non_dpl_language_is_rejected() {
        let _c = client();
        // Hand-roll a request with a different language tag.
        let err = {
            // RdsClient always says "dpl"; use the handler directly.
            let server = MbdServer::open(ElasticProcess::new(ElasticConfig::default()));
            let resp = server.rds.handler().handle(
                &Principal::new("m"),
                RdsRequest::DelegateProgram {
                    dp_name: "x".to_string(),
                    language: "java".to_string(),
                    source: b"class X {}".to_vec(),
                },
            );
            resp
        };
        assert!(matches!(err, RdsResponse::Error { code: ErrorCode::TranslationFailed, .. }));
    }

    #[test]
    fn acl_gates_delegation_by_principal() {
        let mut acl = Acl::deny_by_default();
        acl.grant(&Principal::new("trusted"), Operation::Delegate);
        acl.grant(&Principal::new("trusted"), Operation::Instantiate);
        acl.grant(&Principal::new("trusted"), Operation::Invoke);
        let server = Arc::new(MbdServer::with_policy(
            ElasticProcess::new(ElasticConfig::default()),
            acl,
            None,
        ));
        let s1 = Arc::clone(&server);
        let trusted =
            RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| s1.process_request(b)), "trusted");
        let s2 = Arc::clone(&server);
        let stranger =
            RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| s2.process_request(b)), "stranger");
        trusted.delegate("dp", "fn main() { return 0; }").unwrap();
        let err = stranger.delegate("dp2", "fn main() { return 0; }").unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::AccessDenied, .. }));
    }

    #[test]
    fn threaded_server_over_tcp() {
        let server = Arc::new(MbdServer::open(ElasticProcess::new(ElasticConfig::default())));
        let tcp =
            TcpServer::spawn("127.0.0.1:0", move |bytes| server.process_request(bytes)).unwrap();
        let c = Arc::new(RdsClient::new(TcpDuplex::connect(tcp.local_addr()).unwrap(), "mgr"));
        c.delegate("f", "fn main(x) { return x * x; }").unwrap();
        let dpi = c.instantiate("f").unwrap();
        // Four threads share the one client: each gets its own answer.
        let handles: Vec<_> = (1..=4i64)
            .map(|x| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let v = c.invoke(dpi, "main", &[BerValue::Integer(x)]).unwrap();
                        assert_eq!(v, BerValue::Integer(x * x));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tcp.shutdown();
    }

    #[test]
    fn requests_are_journaled_with_traces_and_bytes_charged() {
        let process = ElasticProcess::new(ElasticConfig::default());
        let server = Arc::new(MbdServer::open(process.clone()));
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| server.process_request(bytes));
        let c = RdsClient::new(duplex, "mgr");
        c.delegate("f", "fn main() { return 7; }").unwrap();
        let dpi = c.instantiate("f").unwrap();
        c.invoke(dpi, "main", &[]).unwrap();
        let trace = c.last_trace_id();
        assert_ne!(trace, 0);

        // The invoke landed in the journal under the client's trace id...
        let records = c.read_journal(0).unwrap();
        let inv = records.iter().find(|r| r.verb == "invoke").expect("invoke journaled");
        assert_eq!(inv.trace_id, trace);
        assert_eq!(inv.principal, "mgr");
        assert_eq!(inv.dpi, dpi.0);
        assert!(inv.ok);
        // ...the runtime's own lifecycle entries carry principal `server`...
        assert!(records
            .iter()
            .any(|r| r.verb == "lifecycle.instantiate" && r.principal == "server"));
        // ...and frame bytes plus the trace were charged to the dpi's account.
        let acct = process.dpi_account(dpi).unwrap();
        assert!(acct.bytes_in > 0 && acct.bytes_out > 0);
        assert_eq!(acct.last_trace_id, trace);
        assert_eq!(acct.invocations_ok, 1);
    }

    #[test]
    fn journal_reads_ride_the_protocol_end_to_end() {
        let c = client();
        c.delegate("f", "fn main() { return 0; }").unwrap();
        // Cap the read: only the newest record comes back, and the read
        // that fetched it is itself journaled on the next read.
        let one = c.read_journal(1).unwrap();
        assert_eq!(one.len(), 1);
        let next = c.read_journal(0).unwrap();
        assert!(next.iter().any(|r| r.verb == "read_journal" && r.principal == "mgr"));
    }

    #[test]
    fn retried_frames_replay_instead_of_reexecuting() {
        use rds::codec;
        let process = ElasticProcess::new(ElasticConfig::default());
        let server = MbdServer::open(process.clone());
        process.delegate("f", "fn main() { return 1; }").unwrap();

        // A manager whose instantiate response was lost re-sends the
        // identical frame: the server must not create a second dpi.
        let frame = codec::encode_request(
            &RdsRequest::Instantiate { dp_name: "f".to_string() },
            &Principal::new("mgr"),
            99,
            None,
        );
        let first = server.process_request(&frame);
        let retry = server.process_request(&frame);
        assert_eq!(first, retry, "byte-identical replay");
        assert_eq!(process.stats().instantiations, 1, "the effect ran exactly once");
        assert_eq!(server.dedup_hits(), 1);

        // The replay is accountable: journaled as duplicate_replayed
        // under the original verb.
        let records = process.journal().tail(0);
        let replayed =
            records.iter().find(|r| r.verb == "duplicate_replayed").expect("replay journaled");
        assert_eq!(replayed.principal, "mgr");
        assert_eq!(replayed.detail, "instantiate");
        assert!(replayed.ok);
    }

    #[test]
    fn float_results_cross_the_wire() {
        let c = client();
        c.delegate("avg", "fn main(a, b) { return (a + b) / 2.0; }").unwrap();
        let dpi = c.instantiate("avg").unwrap();
        let v = c.invoke(dpi, "main", &[BerValue::Integer(1), BerValue::Integer(2)]).unwrap();
        assert_eq!(convert::from_ber(&v), dpl::Value::Float(1.5));
    }
}
