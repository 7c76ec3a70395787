use crate::{
    AuditRecord, DpiId, DpiSummary, FrameDuplex, RdsError, RdsPipeline, RdsRequest, RdsResponse,
    RetryPolicy,
};
use ber::BerValue;
use mbd_auth::Principal;
use mbd_telemetry::Telemetry;
use parking_lot::Mutex;

/// A delegating manager's stub for one elastic process.
///
/// The client is an [`RdsPipeline`] at window 1 behind typed verbs:
/// each verb submits one request and drains it, so retries, backoff,
/// deadlines, reply routing and trace ids are the pipeline's. The
/// pipeline sits behind a lock, so one client may be shared by threads
/// (each request waits its turn on the one connection).
///
/// # Examples
///
/// ```no_run
/// use rds::{RdsClient, LoopbackDuplex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let duplex = LoopbackDuplex::new(|_: &[u8]| Vec::new());
/// let client = RdsClient::new(duplex, "noc-mgr");
/// client.delegate("health", "fn health() { return 100; }")?;
/// let dpi = client.instantiate("health")?;
/// let v = client.invoke(dpi, "health", &[])?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RdsClient<D> {
    pipe: Mutex<RdsPipeline<D>>,
    principal: Principal,
}

impl<D: FrameDuplex> RdsClient<D> {
    /// Creates an unauthenticated client acting as `principal`.
    pub fn new(duplex: D, principal: &str) -> RdsClient<D> {
        RdsClient::over(RdsPipeline::new(duplex, principal), principal)
    }

    /// Creates a client that signs requests with `key` (MD5 keyed digest).
    pub fn with_key(duplex: D, principal: &str, key: Vec<u8>) -> RdsClient<D> {
        RdsClient::over(RdsPipeline::with_key(duplex, principal, key), principal)
    }

    fn over(pipe: RdsPipeline<D>, principal: &str) -> RdsClient<D> {
        RdsClient { pipe: Mutex::new(pipe.with_window(1)), principal: Principal::new(principal) }
    }

    /// Installs a retry policy (see [`RdsPipeline::with_retry`]): retries
    /// re-send the **identical encoded frame** — same request id and
    /// trace id — so a server with duplicate suppression replays the
    /// original response instead of re-executing the effect.
    #[must_use]
    pub fn with_retry(self, policy: RetryPolicy) -> RdsClient<D> {
        RdsClient { pipe: Mutex::new(self.pipe.into_inner().with_retry(policy)), ..self }
    }

    /// Counts this client's retries into `telemetry` as `rds.retries`
    /// (also readable via [`RdsClient::retries`]) and its reconnects as
    /// `rds.reconnects`.
    #[must_use]
    pub fn instrument(self, telemetry: &Telemetry) -> RdsClient<D> {
        RdsClient { pipe: Mutex::new(self.pipe.into_inner().instrument(telemetry)), ..self }
    }

    /// Re-sent frames since this client was created.
    pub fn retries(&self) -> u64 {
        self.pipe.lock().retries()
    }

    /// This client's principal handle.
    pub fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The trace id of the most recent request this client sent (0
    /// before the first request). Correlate it with the server's
    /// telemetry spans, `mbdDpiAccounting` row, and audit journal.
    pub fn last_trace_id(&self) -> u64 {
        self.pipe.lock().last_trace_id()
    }

    /// The pipeline underneath — e.g. to read a
    /// [`FaultDuplex`](crate::FaultDuplex)'s injection counters.
    pub fn into_pipeline(self) -> RdsPipeline<D> {
        self.pipe.into_inner()
    }

    fn roundtrip(&self, req: &RdsRequest) -> Result<RdsResponse, RdsError> {
        let mut pipe = self.pipe.lock();
        pipe.submit(req);
        let (_, result) = pipe.drain().pop().expect("a window-1 drain completes its one request");
        result
    }

    fn expect_ok(&self, req: &RdsRequest) -> Result<(), RdsError> {
        match self.roundtrip(req)? {
            RdsResponse::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Delegates DPL source to the server's repository as `dp_name`.
    ///
    /// # Errors
    ///
    /// `Remote(TranslationFailed)` if the server's translator rejects the
    /// program; transport/codec errors otherwise.
    pub fn delegate(&self, dp_name: &str, source: &str) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::DelegateProgram {
            dp_name: dp_name.to_string(),
            language: "dpl".to_string(),
            source: source.as_bytes().to_vec(),
        })
    }

    /// Removes `dp_name` from the repository.
    ///
    /// # Errors
    ///
    /// `Remote(NoSuchProgram)` if absent.
    pub fn delete(&self, dp_name: &str) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::DeleteProgram { dp_name: dp_name.to_string() })
    }

    /// Creates an instance of `dp_name` and returns its id.
    ///
    /// # Errors
    ///
    /// `Remote(NoSuchProgram)` if the dp is absent.
    pub fn instantiate(&self, dp_name: &str) -> Result<DpiId, RdsError> {
        match self.roundtrip(&RdsRequest::Instantiate { dp_name: dp_name.to_string() })? {
            RdsResponse::Instantiated { dpi } => Ok(dpi),
            other => Err(unexpected(&other)),
        }
    }

    /// Invokes `entry` on `dpi` and returns its value.
    ///
    /// # Errors
    ///
    /// `Remote(RuntimeFault)` if the invocation faulted or exceeded its
    /// budget; `Remote(BadState)` if the dpi is suspended/terminated.
    pub fn invoke(&self, dpi: DpiId, entry: &str, args: &[BerValue]) -> Result<BerValue, RdsError> {
        let req = RdsRequest::Invoke { dpi, entry: entry.to_string(), args: args.to_vec() };
        match self.roundtrip(&req)? {
            RdsResponse::Result { value } => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Suspends `dpi`.
    ///
    /// # Errors
    ///
    /// `Remote(BadState)` unless the dpi is ready.
    pub fn suspend(&self, dpi: DpiId) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::Suspend { dpi })
    }

    /// Resumes `dpi`.
    ///
    /// # Errors
    ///
    /// `Remote(BadState)` unless the dpi is suspended.
    pub fn resume(&self, dpi: DpiId) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::Resume { dpi })
    }

    /// Terminates `dpi`.
    ///
    /// # Errors
    ///
    /// `Remote(NoSuchInstance)` if it never existed.
    pub fn terminate(&self, dpi: DpiId) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::Terminate { dpi })
    }

    /// Posts an asynchronous message to `dpi`'s mailbox.
    ///
    /// # Errors
    ///
    /// `Remote(NoSuchInstance)` / `Remote(BadState)`.
    pub fn send_message(&self, dpi: DpiId, payload: &[u8]) -> Result<(), RdsError> {
        self.expect_ok(&RdsRequest::SendMessage { dpi, payload: payload.to_vec() })
    }

    /// Serializes a *suspended* dpi into a transferable checkpoint blob
    /// (install it on another server with [`RdsClient::restore`]).
    ///
    /// # Errors
    ///
    /// `Remote(BadState)` unless the dpi is suspended,
    /// `Remote(NoSuchInstance)`.
    pub fn checkpoint(&self, dpi: DpiId) -> Result<Vec<u8>, RdsError> {
        match self.roundtrip(&RdsRequest::Checkpoint { dpi })? {
            RdsResponse::Checkpointed { blob } => Ok(blob),
            other => Err(unexpected(&other)),
        }
    }

    /// Installs a checkpoint blob as a suspended dpi; resume it to
    /// continue the agent where the source server left off.
    ///
    /// # Errors
    ///
    /// `Remote(BadState)` on a reused nonce or an occupied dpi id,
    /// `Remote(TranslationFailed)` on an undecodable blob.
    pub fn restore(&self, blob: &[u8]) -> Result<DpiId, RdsError> {
        match self.roundtrip(&RdsRequest::Restore { blob: blob.to_vec() })? {
            RdsResponse::Instantiated { dpi } => Ok(dpi),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists the dp names stored in the repository.
    ///
    /// # Errors
    ///
    /// Transport/codec errors.
    pub fn list_programs(&self) -> Result<Vec<String>, RdsError> {
        match self.roundtrip(&RdsRequest::ListPrograms)? {
            RdsResponse::Programs { names } => Ok(names),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists instances with their states.
    ///
    /// # Errors
    ///
    /// Transport/codec errors.
    pub fn list_instances(&self) -> Result<Vec<DpiSummary>, RdsError> {
        match self.roundtrip(&RdsRequest::ListInstances)? {
            RdsResponse::Instances { instances } => Ok(instances),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads up to `max_records` of the newest audit-journal records
    /// (oldest first).
    ///
    /// # Errors
    ///
    /// `Remote(AccessDenied)` without `list` rights; transport/codec
    /// errors otherwise.
    pub fn read_journal(&self, max_records: u32) -> Result<Vec<AuditRecord>, RdsError> {
        match self.roundtrip(&RdsRequest::ReadJournal { max_records })? {
            RdsResponse::Journal { records } => Ok(records),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads a retained span tree (`trace_id` 0 = the most recently
    /// retained, anomalous trees first) and the VM profiler's folded
    /// stacks (`dpi` 0 = all profiled instances). Returns the whole
    /// [`RdsResponse::Profile`] payload as
    /// `(trace_id, kept, spans, stacks)`.
    ///
    /// # Errors
    ///
    /// `Remote(AccessDenied)` without `list` rights; transport/codec
    /// errors otherwise.
    #[allow(clippy::type_complexity)]
    pub fn read_profile(
        &self,
        trace_id: u64,
        dpi: u64,
    ) -> Result<(u64, String, Vec<crate::SpanRecord>, Vec<String>), RdsError> {
        match self.roundtrip(&RdsRequest::ReadProfile { trace_id, dpi })? {
            RdsResponse::Profile { trace_id, kept, spans, stacks } => {
                Ok((trace_id, kept, spans, stacks))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Reads retained metrics history: series whose names match the
    /// `*`-glob `pattern` (empty = all), restricted to the trailing
    /// `range_s` seconds (0 = everything) at ring resolution `res_s`
    /// (1, 10 or 60). Returns the whole [`RdsResponse::Metrics`]
    /// payload as `(now_s, series, alerts)`.
    ///
    /// # Errors
    ///
    /// `Remote(AccessDenied)` without `list` rights; transport/codec
    /// errors otherwise.
    #[allow(clippy::type_complexity)]
    pub fn read_metrics(
        &self,
        pattern: &str,
        range_s: u32,
        res_s: u32,
    ) -> Result<(u64, Vec<crate::MetricSeries>, Vec<crate::AlertStatus>), RdsError> {
        let req = RdsRequest::ReadMetrics { pattern: pattern.to_string(), range_s, res_s };
        match self.roundtrip(&req)? {
            RdsResponse::Metrics { now_s, series, alerts } => Ok((now_s, series, alerts)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &RdsResponse) -> RdsError {
    RdsError::Transport { message: format!("unexpected response variant {:?}", resp.op_tag()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpServer, TcpServerConfig};
    use crate::{ErrorCode, LoopbackDuplex, RdsHandler, RdsServer, TcpDuplex};
    use std::sync::Arc;
    use std::time::Duration;

    fn demo_server() -> Arc<RdsServer<impl RdsHandler + Send + Sync>> {
        Arc::new(RdsServer::open(|_p: &Principal, req: RdsRequest| match req {
            RdsRequest::DelegateProgram { dp_name, .. } if dp_name == "bad" => RdsResponse::Error {
                code: ErrorCode::TranslationFailed,
                message: "rejected".to_string(),
            },
            RdsRequest::DelegateProgram { .. } => RdsResponse::Ok,
            RdsRequest::Instantiate { .. } => RdsResponse::Instantiated { dpi: DpiId(5) },
            RdsRequest::Invoke { args, .. } => {
                RdsResponse::Result { value: BerValue::Integer(args.len() as i64) }
            }
            RdsRequest::ListPrograms => RdsResponse::Programs { names: vec!["dp".to_string()] },
            RdsRequest::ListInstances => RdsResponse::Instances { instances: vec![] },
            _ => RdsResponse::Ok,
        }))
    }

    fn client_for(
        server: Arc<RdsServer<impl RdsHandler + Send + Sync + 'static>>,
    ) -> RdsClient<LoopbackDuplex> {
        RdsClient::new(LoopbackDuplex::new(move |bytes: &[u8]| server.process(bytes)), "mgr")
    }

    #[test]
    fn full_verb_round_trip() {
        let client = client_for(demo_server());
        client.delegate("dp", "fn main() {}").unwrap();
        let dpi = client.instantiate("dp").unwrap();
        assert_eq!(dpi, DpiId(5));
        let v = client.invoke(dpi, "main", &[BerValue::Integer(1), BerValue::Null]).unwrap();
        assert_eq!(v, BerValue::Integer(2));
        client.suspend(dpi).unwrap();
        client.resume(dpi).unwrap();
        client.send_message(dpi, b"hello").unwrap();
        client.terminate(dpi).unwrap();
        client.delete("dp").unwrap();
        assert_eq!(client.list_programs().unwrap(), vec!["dp".to_string()]);
        assert!(client.list_instances().unwrap().is_empty());
    }

    #[test]
    fn remote_errors_surface_typed() {
        let client = client_for(demo_server());
        let err = client.delegate("bad", "###").unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::TranslationFailed, .. }));
    }

    #[test]
    fn request_ids_increment_across_calls() {
        let client = client_for(demo_server());
        // Two calls must both succeed: ids must match per call.
        client.list_programs().unwrap();
        client.list_programs().unwrap();
    }

    #[test]
    fn keyed_client_against_keyed_server() {
        let server = Arc::new(RdsServer::with_policy(
            |_p: &Principal, _req: RdsRequest| RdsResponse::Ok,
            mbd_auth::Acl::allow_by_default(),
            Some(b"secret".to_vec()),
        ));
        let s2 = Arc::clone(&server);
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| s2.process(bytes));
        let client = RdsClient::with_key(duplex, "mgr", b"secret".to_vec());
        client.delegate("dp", "x").unwrap();

        // A client with the wrong key cannot even read the error response.
        let s3 = Arc::clone(&server);
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| s3.process(bytes));
        let bad = RdsClient::with_key(duplex, "mgr", b"wrong".to_vec());
        assert_eq!(bad.delegate("dp", "x").unwrap_err(), RdsError::BadDigest);
    }

    #[test]
    fn every_request_carries_a_fresh_nonzero_trace_id() {
        let client = client_for(demo_server());
        assert_eq!(client.last_trace_id(), 0, "no request sent yet");
        client.list_programs().unwrap();
        let first = client.last_trace_id();
        client.list_programs().unwrap();
        let second = client.last_trace_id();
        assert_ne!(first, 0);
        assert_ne!(second, 0);
        assert_ne!(first, second, "each request gets its own trace id");
    }

    #[test]
    fn read_journal_round_trips() {
        let record = crate::AuditRecord {
            seq: 9,
            ticks: 100,
            trace_id: 0xFEED,
            principal: "mgr".to_string(),
            verb: "invoke".to_string(),
            dpi: 2,
            ok: true,
            detail: String::new(),
        };
        let rec = record.clone();
        let server = Arc::new(RdsServer::open(move |_: &Principal, req: RdsRequest| match req {
            RdsRequest::ReadJournal { max_records } => {
                assert_eq!(max_records, 16);
                RdsResponse::Journal { records: vec![rec.clone()] }
            }
            _ => RdsResponse::Ok,
        }));
        let client = client_for(server);
        assert_eq!(client.read_journal(16).unwrap(), vec![record]);
    }

    /// A client whose first `failures` replies arrive empty (damaged),
    /// then are answered by a demo server.
    fn flaky_client(mut failures: u64) -> RdsClient<LoopbackDuplex> {
        let server = demo_server();
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| {
            let reply = server.process(bytes);
            if failures == 0 {
                return reply;
            }
            failures -= 1;
            Vec::new()
        });
        RdsClient::new(duplex, "mgr")
    }

    fn fast_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: None,
            jitter_seed: 1,
        }
    }

    #[test]
    fn retry_policy_survives_transient_transport_failures() {
        let client = flaky_client(2).with_retry(fast_retry(4));
        assert_eq!(client.list_programs().unwrap(), vec!["dp".to_string()]);
        assert_eq!(client.retries(), 2, "two failures cost two retries");
    }

    #[test]
    fn attempts_are_bounded() {
        let client = flaky_client(10).with_retry(fast_retry(3));
        assert!(matches!(client.list_programs().unwrap_err(), RdsError::Transport { .. }));
        assert_eq!(client.retries(), 2, "3 attempts = first try + 2 retries");
    }

    #[test]
    fn remote_errors_are_not_retried() {
        let client = client_for(demo_server()).with_retry(fast_retry(5));
        assert!(matches!(
            client.delegate("bad", "###").unwrap_err(),
            RdsError::Remote { code: ErrorCode::TranslationFailed, .. }
        ));
        assert_eq!(client.retries(), 0, "an authoritative answer is final");
    }

    #[test]
    fn an_expired_deadline_stops_retrying() {
        let policy = RetryPolicy { deadline: Some(Duration::ZERO), ..fast_retry(5) };
        let client = flaky_client(10).with_retry(policy);
        assert!(client.list_programs().is_err());
        assert_eq!(client.retries(), 0, "deadline expired before the first retry");
    }

    #[test]
    fn retries_reach_shared_telemetry() {
        let tel = mbd_telemetry::Telemetry::new();
        let client = flaky_client(1).with_retry(fast_retry(4)).instrument(&tel);
        client.list_programs().unwrap();
        assert_eq!(tel.snapshot().counter("rds.retries"), Some(1));
    }

    #[test]
    fn retries_preserve_request_and_trace_ids() {
        // Record every frame the duplex carries; lose the first reply.
        let frames: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&frames);
        let server = demo_server();
        let duplex = LoopbackDuplex::new(move |bytes: &[u8]| {
            let mut seen = seen.lock();
            seen.push(bytes.to_vec());
            if seen.len() == 1 {
                return Vec::new();
            }
            server.process(bytes)
        });
        let client = RdsClient::new(duplex, "mgr").with_retry(fast_retry(3));
        client.list_programs().unwrap();
        let frames = frames.lock();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], frames[1], "the retry re-sends the identical frame");
    }

    #[test]
    fn concurrent_clients_mint_distinct_trace_streams() {
        // Even when constructed back-to-back (same wall-clock nanosecond
        // on a coarse clock), the process-wide counter keeps seeds apart.
        let a = client_for(demo_server());
        let b = client_for(demo_server());
        a.list_programs().unwrap();
        b.list_programs().unwrap();
        assert_ne!(a.last_trace_id(), b.last_trace_id());
    }

    #[test]
    fn list_instances_round_trips_through_real_server() {
        use crate::DpiState;
        let server = Arc::new(RdsServer::open(|_: &Principal, req: RdsRequest| match req {
            RdsRequest::ListInstances => RdsResponse::Instances {
                instances: vec![DpiSummary {
                    id: DpiId(3),
                    dp_name: "health".to_string(),
                    state: DpiState::Running,
                }],
            },
            _ => RdsResponse::Ok,
        }));
        let client = client_for(server);
        let list = client.list_instances().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].state, DpiState::Running);
    }

    #[test]
    fn accept_time_busy_surfaces_without_retry() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { max_connections: 1, ..TcpServerConfig::default() },
            {
                let rds = RdsServer::open(|_p: &Principal, _req: RdsRequest| RdsResponse::Ok);
                move |bytes: &[u8]| rds.process(bytes)
            },
        )
        .unwrap();
        let keeper = RdsClient::new(TcpDuplex::connect(server.local_addr()).unwrap(), "keeper");
        keeper.delete("dp").unwrap();
        let shed = RdsClient::new(TcpDuplex::connect(server.local_addr()).unwrap(), "shed");
        let err = shed.delete("dp").unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::Busy, .. }), "{err:?}");
        assert_eq!(shed.retries(), 0);
        server.shutdown();
    }
}
