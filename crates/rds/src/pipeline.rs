//! The RDS client engine: N requests in flight on one [`FrameDuplex`].
//!
//! The reactor server completes requests out of order (replies are
//! matched by request id, not position), which [`RdsPipeline`] exploits
//! from the client side: up to `window` encoded requests outstanding,
//! replies accepted in any order. It is the crate's only retry loop —
//! [`crate::RdsClient`] is this pipeline at window 1 behind typed verbs.
//! Every re-send is the **identical encoded frame** (same request id,
//! same trace id), so the server's dedup cache replays instead of
//! re-executing, and `Busy` sheds back off under the configured
//! [`RetryPolicy`].
//!
//! Replies are routed by request id:
//!
//! * a late or duplicated reply (a retried request can be answered
//!   twice) carries an id no longer pending and is dropped silently;
//! * an `Error` under id 0 answers a request the server could not read
//!   (bad digest, unauthenticated, shed at accept) and is charged to the
//!   oldest pending request;
//! * a reply that fails digest verification is an answer, not damage:
//!   an unsigned `Busy` (a shed without the key) is handled like any
//!   `Busy`, anything else completes every pending request with
//!   [`RdsError::BadDigest`] — the two ends hold different keys;
//! * any other undecodable reply means the stream's framing can no
//!   longer be trusted, so the pipeline reconnects and re-sends
//!   everything still pending.
//!
//! A failure that expires every pending request leaves the connection
//! down until the next [`submit`](RdsPipeline::submit) re-dials.
//!
//! See `docs/RDS.md` for the full framing/pipelining state machine.

use crate::retry::splitmix64;
use crate::{codec, FrameDuplex, RdsError, RdsRequest, RdsResponse, RetryPolicy, TraceContext};
use mbd_auth::Principal;
use mbd_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinguishes pipelines constructed in the same wall-clock instant
/// (or after the clock fallback): each construction consumes one value,
/// and the seed mixes it in, so two clients never share a trace-id
/// stream.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(1);

fn trace_seed() -> u64 {
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    splitmix64(wall) ^ splitmix64(CLIENT_SEQ.fetch_add(1, Ordering::Relaxed))
}

struct Pending {
    /// The exact encoded frame — every re-send repeats these bytes.
    frame: Vec<u8>,
    started: Instant,
    /// Send attempts so far (first send included).
    attempts: u32,
}

/// A windowed, fault-tolerant pipelining client (see the module docs).
///
/// # Examples
///
/// ```no_run
/// use rds::{RdsPipeline, RdsRequest, TcpDuplex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let duplex = TcpDuplex::connect("127.0.0.1:4700")?;
/// let mut pipe = RdsPipeline::new(duplex, "noc-mgr").with_window(8);
/// for _ in 0..100 {
///     pipe.submit(&RdsRequest::ListPrograms);
/// }
/// for (id, result) in pipe.drain() {
///     println!("#{id}: {:?}", result?);
/// }
/// # Ok(())
/// # }
/// ```
pub struct RdsPipeline<D> {
    duplex: D,
    principal: Principal,
    key: Option<Vec<u8>>,
    next_id: i64,
    window: usize,
    retry: RetryPolicy,
    /// How long one blocking receive waits before the pipeline treats
    /// the stream as stalled and re-probes (re-sends) what is pending.
    recv_timeout: Duration,
    /// Outstanding requests by id; ids grow monotonically, so the first
    /// entry is the oldest.
    pending: BTreeMap<i64, Pending>,
    completed: Vec<(i64, Result<RdsResponse, RdsError>)>,
    trace_seed: u64,
    last_trace: u64,
    retries: u64,
    /// A failure expired every pending request before the connection
    /// was re-established; the next submit reconnects first.
    broken: bool,
    retry_counter: Option<Counter>,
    reconnect_counter: Option<Counter>,
}

impl<D: std::fmt::Debug> std::fmt::Debug for RdsPipeline<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdsPipeline")
            .field("duplex", &self.duplex)
            .field("principal", &self.principal)
            .field("authenticated", &self.key.is_some())
            .field("window", &self.window)
            .field("in_flight", &self.pending.len())
            .finish()
    }
}

impl<D: FrameDuplex> RdsPipeline<D> {
    /// Creates an unauthenticated pipeline acting as `principal`, with
    /// a window of 8 and no retries.
    pub fn new(duplex: D, principal: &str) -> RdsPipeline<D> {
        RdsPipeline {
            duplex,
            principal: Principal::new(principal),
            key: None,
            next_id: 1,
            window: 8,
            retry: RetryPolicy::none(),
            recv_timeout: Duration::from_secs(5),
            pending: BTreeMap::new(),
            completed: Vec::new(),
            trace_seed: trace_seed(),
            last_trace: 0,
            retries: 0,
            broken: false,
            retry_counter: None,
            reconnect_counter: None,
        }
    }

    /// Creates a pipeline that signs requests with `key` (MD5 keyed
    /// digest).
    pub fn with_key(duplex: D, principal: &str, key: Vec<u8>) -> RdsPipeline<D> {
        let mut p = RdsPipeline::new(duplex, principal);
        p.key = Some(key);
        p
    }

    /// Bounds the in-flight window: [`submit`](RdsPipeline::submit)
    /// blocks (completing older requests) once `window` requests are
    /// outstanding. A window of 1 is [`crate::RdsClient`].
    #[must_use]
    pub fn with_window(mut self, window: usize) -> RdsPipeline<D> {
        self.window = window.max(1);
        self
    }

    /// Installs a retry policy: delivery failures (stalled stream,
    /// broken connection, damaged reply, `Busy` shed) re-send the
    /// identical encoded frame until the attempt or deadline budget runs
    /// out — dedup-safe by construction.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> RdsPipeline<D> {
        self.retry = policy;
        self
    }

    /// How long a blocking receive waits before the stream counts as
    /// stalled and pending frames are re-probed (default 5 s).
    #[must_use]
    pub fn with_recv_timeout(mut self, timeout: Duration) -> RdsPipeline<D> {
        self.recv_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Counts this pipeline's re-sends into `telemetry` as
    /// `rds.retries` (also readable via [`RdsPipeline::retries`]) and
    /// its successful reconnects as `rds.reconnects`.
    #[must_use]
    pub fn instrument(mut self, telemetry: &Telemetry) -> RdsPipeline<D> {
        self.retry_counter = Some(telemetry.counter("rds.retries"));
        self.reconnect_counter = Some(telemetry.counter("rds.reconnects"));
        self
    }

    /// Requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Frames re-sent since this pipeline was created.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The trace id of the most recent request submitted (0 before the
    /// first). Correlate it with the server's telemetry spans,
    /// `mbdDpiAccounting` row and audit journal.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace
    }

    /// The underlying duplex — e.g. to read a [`TcpDuplex`]'s reconnect
    /// count or a [`FaultDuplex`](crate::FaultDuplex)'s injections.
    ///
    /// [`TcpDuplex`]: crate::TcpDuplex
    pub fn duplex(&self) -> &D {
        &self.duplex
    }

    /// Encodes and sends `req`, returning its request id immediately;
    /// the response — or the failure that ended its retry budget — is
    /// collected later by [`drain`](RdsPipeline::drain) (or an
    /// interleaved blocking receive when the window is full).
    pub fn submit(&mut self, req: &RdsRequest) -> i64 {
        while self.pending.len() >= self.window {
            self.pump();
        }
        let id = self.next_id;
        self.next_id += 1;
        let mixed = splitmix64(self.trace_seed ^ (id as u64).rotate_left(32));
        let trace = TraceContext { trace_id: mixed.max(1), parent_span_id: 0 };
        self.last_trace = trace.trace_id;
        let frame =
            codec::encode_request_traced(req, &self.principal, id, self.key.as_deref(), trace);
        // Dialing before a request's first send is not a re-send, so it
        // is owed even under a single-attempt policy.
        let ready = if std::mem::take(&mut self.broken) { self.reconnect() } else { Ok(()) };
        let sent = ready.and_then(|()| self.duplex.send_frame(&frame));
        self.pending.insert(id, Pending { frame, started: Instant::now(), attempts: 1 });
        if let Err(e) = sent {
            self.recover(e);
        }
        id
    }

    /// Completes every outstanding request and returns all collected
    /// `(request id, result)` pairs in submission (= id) order. Requests
    /// that exhausted their retry budget yield `Err` entries.
    pub fn drain(&mut self) -> Vec<(i64, Result<RdsResponse, RdsError>)> {
        while !self.pending.is_empty() {
            self.pump();
        }
        self.completed.sort_by_key(|(id, _)| *id);
        std::mem::take(&mut self.completed)
    }

    /// One receive step, waiting up to the recv timeout.
    fn pump(&mut self) {
        match self.duplex.recv_frame(self.recv_timeout) {
            Ok(Some(frame)) => self.dispatch(&frame),
            Ok(None) => self.on_stall(),
            Err(e) => self.recover(e),
        }
    }

    /// Whether `entry` has used up its attempts or its deadline.
    fn spent(&self, entry: &Pending) -> bool {
        entry.attempts >= self.retry.max_attempts.max(1)
            || self.retry.deadline.is_some_and(|d| entry.started.elapsed() >= d)
    }

    fn complete(&mut self, id: i64, result: Result<RdsResponse, RdsError>) {
        self.pending.remove(&id);
        self.completed.push((id, result));
    }

    /// Re-sends pending request `id`'s identical frame, charging it one
    /// attempt.
    fn resend(&mut self, id: i64) -> Result<(), RdsError> {
        self.retries += 1;
        if let Some(counter) = &self.retry_counter {
            counter.inc();
        }
        let entry = self.pending.get_mut(&id).expect("only pending requests are re-sent");
        entry.attempts += 1;
        self.duplex.send_frame(&entry.frame)
    }

    fn reconnect(&mut self) -> Result<(), RdsError> {
        self.duplex.reconnect()?;
        if let Some(counter) = &self.reconnect_counter {
            counter.inc();
        }
        Ok(())
    }

    /// Routes one received frame to its pending request (see the module
    /// docs for the rules).
    fn dispatch(&mut self, frame: &[u8]) {
        let (resp, id) = match codec::decode_response_traced(frame, self.key.as_deref()) {
            Ok((resp, id, _trace)) => (resp, id),
            // A transport configured without the key sheds unsigned; a
            // `Busy` only asks for a dedup-safe re-send, so it needs no
            // signature.
            Err(RdsError::BadDigest) => match codec::decode_response(frame, None) {
                Ok((resp @ RdsResponse::Error { code: crate::ErrorCode::Busy, .. }, id)) => {
                    (resp, id)
                }
                _ => {
                    let pending = std::mem::take(&mut self.pending);
                    let failed = pending.into_keys().map(|id| (id, Err(RdsError::BadDigest)));
                    return self.completed.extend(failed);
                }
            },
            Err(e) => return self.recover(e),
        };
        let id = match (&resp, self.pending.first_key_value()) {
            (RdsResponse::Error { .. }, Some((&oldest, _))) if id == 0 => oldest,
            _ => id,
        };
        // Not pending: a re-sent request answered twice, or one already
        // expired locally. Ignoring it is what makes retries safe — ids
        // are never reused within a pipeline.
        let Some(entry) = self.pending.get(&id) else { return };
        match resp {
            RdsResponse::Error { code, message } => {
                let err = RdsError::Remote { code, message };
                if RetryPolicy::is_retryable(&err) && !self.spent(entry) {
                    // Busy: the server promises no effect happened. Back
                    // off, then re-send the identical frame.
                    let backoff = self.retry.backoff_for(entry.attempts);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    if let Err(e) = self.resend(id) {
                        self.recover(e);
                    }
                } else {
                    self.complete(id, Err(err));
                }
            }
            other => self.complete(id, Ok(other)),
        }
    }

    /// Nothing arrived for a full recv window: assume in-flight frames
    /// (or their replies) were lost and re-probe, expiring requests
    /// whose budget ran out. Re-sent bytes are identical, so a server
    /// that *did* execute them replays from its dedup cache.
    fn on_stall(&mut self) {
        let ids: Vec<i64> = self.pending.keys().copied().collect();
        for id in ids {
            let entry = &self.pending[&id];
            if self.spent(entry) {
                let message =
                    format!("request {id} got no response after {} attempt(s)", entry.attempts);
                self.complete(id, Err(RdsError::Transport { message }));
            } else if let Err(e) = self.resend(id) {
                return self.recover(e);
            }
        }
    }

    /// The connection failed with `cause`: expire out-of-budget
    /// requests, reconnect, and re-send everything still pending
    /// (byte-identical). A failed reconnect consumes one attempt from
    /// every pending request, so this loop ends.
    fn recover(&mut self, mut cause: RdsError) {
        loop {
            let spent: Vec<(i64, u32)> = self
                .pending
                .iter()
                .filter(|(_, entry)| self.spent(entry))
                .map(|(&id, entry)| (id, entry.attempts))
                .collect();
            for (id, attempts) in spent {
                let message = format!("request {id} failed after {attempts} attempt(s): {cause}");
                self.complete(id, Err(RdsError::Transport { message }));
            }
            let Some(min_attempts) = self.pending.values().map(|e| e.attempts).min() else {
                self.broken = true;
                return;
            };
            let backoff = self.retry.backoff_for(min_attempts);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            match self.reconnect() {
                Ok(()) => {
                    let ids: Vec<i64> = self.pending.keys().copied().collect();
                    match ids.into_iter().try_for_each(|id| self.resend(id)) {
                        Ok(()) => return,
                        // The fresh connection died mid-resend: expire
                        // by the budgets just spent and go again.
                        Err(e) => cause = e,
                    }
                }
                Err(e) => {
                    for entry in self.pending.values_mut() {
                        entry.attempts += 1;
                    }
                    cause = e;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpServer, TcpServerConfig};
    use crate::{ErrorCode, FaultConfig, FaultDuplex, RdsServer, TcpDuplex};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn rds_tcp_server(workers: usize, backlog: usize) -> TcpServer {
        TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers, backlog, ..TcpServerConfig::default() },
            RdsServer::open(|_p: &Principal, req: RdsRequest| match req {
                RdsRequest::ReadJournal { max_records } => {
                    std::thread::sleep(Duration::from_millis(u64::from(max_records % 4) * 5));
                    RdsResponse::Ok
                }
                RdsRequest::ListPrograms => RdsResponse::Programs { names: vec!["dp".to_string()] },
                _ => RdsResponse::Ok,
            }),
        )
        .unwrap()
    }

    fn keyed_tcp_server() -> TcpServer {
        let rds = RdsServer::with_policy(
            |_p: &Principal, _req: RdsRequest| RdsResponse::Ok,
            mbd_auth::Acl::allow_by_default(),
            Some(b"secret".to_vec()),
            &Telemetry::new(),
        );
        TcpServer::spawn("127.0.0.1:0", rds).unwrap()
    }

    #[test]
    fn window_of_requests_completes_out_of_order_delivery() {
        let server = rds_tcp_server(4, 64);
        let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
        let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(8);
        let mut submitted = Vec::new();
        for i in 0..40u32 {
            submitted.push(pipe.submit(&RdsRequest::ReadJournal { max_records: i }));
        }
        let results = pipe.drain();
        assert_eq!(results.len(), 40);
        let ids: Vec<i64> = results.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, submitted, "drain returns submission order");
        for (id, result) in results {
            assert!(matches!(result, Ok(RdsResponse::Ok)), "#{id}: {result:?}");
        }
        server.shutdown();
    }

    #[test]
    fn window_is_bounded() {
        let server = rds_tcp_server(2, 64);
        let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
        let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(3);
        for i in 0..10u32 {
            pipe.submit(&RdsRequest::ReadJournal { max_records: i });
            assert!(pipe.in_flight() <= 3, "window respected");
        }
        assert_eq!(pipe.drain().len(), 10);
        server.shutdown();
    }

    #[test]
    fn window_of_one_degenerates_to_serial() {
        let server = rds_tcp_server(2, 64);
        let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
        let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(1);
        for _ in 0..5 {
            pipe.submit(&RdsRequest::ListPrograms);
        }
        let results = pipe.drain();
        assert!(results.iter().all(|(_, r)| matches!(r, Ok(RdsResponse::Programs { .. }))));
        server.shutdown();
    }

    #[test]
    fn busy_sheds_are_retried_with_identical_frames() {
        // One worker, one queue slot: a window of 6 slow requests
        // guarantees sheds. With retries enabled every request must
        // still complete exactly once — keyed too, whether the server
        // signs its Busy frames with its own key or a closure in front
        // of it leaves the transport to shed unsigned.
        fn slow(key: Option<Vec<u8>>) -> RdsServer<impl crate::RdsHandler> {
            RdsServer::with_policy(
                |_p: &Principal, _req: RdsRequest| {
                    std::thread::sleep(Duration::from_millis(20));
                    RdsResponse::Ok
                },
                mbd_auth::Acl::allow_by_default(),
                key,
                &Telemetry::new(),
            )
        }
        fn retried_to_completion(server: TcpServer, key: Option<Vec<u8>>) {
            let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
            let mut pipe = match key {
                Some(k) => RdsPipeline::with_key(duplex, "mgr", k),
                None => RdsPipeline::new(duplex, "mgr"),
            };
            pipe = pipe.with_window(6).with_retry(RetryPolicy {
                max_attempts: 50,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(40),
                deadline: Some(Duration::from_secs(30)),
                jitter_seed: 11,
            });
            for _ in 0..12 {
                pipe.submit(&RdsRequest::ListInstances);
            }
            let results = pipe.drain();
            assert_eq!(results.len(), 12);
            for (id, result) in &results {
                assert!(matches!(result, Ok(RdsResponse::Ok)), "#{id}: {result:?}");
            }
            assert!(server.sheds() > 0, "the tiny tier must have shed something");
            assert!(pipe.retries() >= server.sheds(), "every shed was retried");
            server.shutdown();
        }
        let tiny = || TcpServerConfig { workers: 1, backlog: 1, ..TcpServerConfig::default() };
        let secret = Some(b"secret".to_vec());
        for key in [None, secret.clone()] {
            let server = TcpServer::spawn_with("127.0.0.1:0", tiny(), slow(key.clone())).unwrap();
            retried_to_completion(server, key);
        }
        let rds = slow(secret.clone());
        let server =
            TcpServer::spawn_with("127.0.0.1:0", tiny(), move |b: &[u8]| rds.process(b)).unwrap();
        retried_to_completion(server, secret);
    }

    #[test]
    fn busy_without_retry_budget_surfaces_as_remote_error() {
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 1, backlog: 1, ..TcpServerConfig::default() },
            RdsServer::open(|_p: &Principal, _req: RdsRequest| {
                std::thread::sleep(Duration::from_millis(150));
                RdsResponse::Ok
            }),
        )
        .unwrap();
        let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
        let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(8);
        for _ in 0..8 {
            pipe.submit(&RdsRequest::ListInstances);
        }
        let results = pipe.drain();
        let busy = results
            .iter()
            .filter(|(_, r)| matches!(r, Err(RdsError::Remote { code: ErrorCode::Busy, .. })))
            .count();
        assert!(busy > 0, "no retry policy: sheds surface to the caller");
        assert_eq!(results.len(), 8, "every request gets exactly one outcome");
        server.shutdown();
    }

    #[test]
    fn reconnect_resends_pending_and_dedup_keeps_effects_exactly_once() {
        // Handler counts executions; the server's dedup cache must absorb
        // the re-sent frames whose first responses the channel lost.
        let executions = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&executions);
        let server = TcpServer::spawn_with(
            "127.0.0.1:0",
            TcpServerConfig { workers: 2, ..TcpServerConfig::default() },
            RdsServer::open(move |_p: &Principal, req: RdsRequest| {
                if matches!(req, RdsRequest::SendMessage { .. }) {
                    counted.fetch_add(1, Ordering::Relaxed);
                }
                RdsResponse::Ok
            }),
        )
        .unwrap();
        // Seed 12 draws `DropResponse` for both budgeted faults: the
        // first two requests execute, their answers evaporate, and the
        // stalled pipeline re-sends them.
        let duplex = FaultDuplex::new(
            TcpDuplex::connect(server.local_addr()).unwrap(),
            12,
            FaultConfig { fault_per_mille: 1000, max_faults: 2, max_delay_ms: 1 },
        );
        let mut pipe = RdsPipeline::new(duplex, "mgr")
            .with_window(4)
            .with_recv_timeout(Duration::from_millis(200))
            .with_retry(RetryPolicy {
                max_attempts: 6,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(10),
                deadline: Some(Duration::from_secs(10)),
                jitter_seed: 3,
            });
        let dpi = crate::DpiId(1);
        for i in 0..8u8 {
            pipe.submit(&RdsRequest::SendMessage { dpi, payload: vec![i] });
        }
        let results = pipe.drain();
        assert_eq!(results.len(), 8);
        for (id, result) in &results {
            assert!(matches!(result, Ok(RdsResponse::Ok)), "#{id}: {result:?}");
        }
        assert_eq!(pipe.duplex().drops(), 2, "two responses were lost");
        assert!(pipe.retries() > 0, "the lost responses were re-sent");
        assert_eq!(executions.load(Ordering::Relaxed), 8, "exactly-once effects");
        server.shutdown();
    }

    #[test]
    fn keyed_pipeline_round_trips() {
        let server = keyed_tcp_server();
        let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
        let mut pipe = RdsPipeline::with_key(duplex, "mgr", b"secret".to_vec()).with_window(4);
        for _ in 0..8 {
            pipe.submit(&RdsRequest::ListInstances);
        }
        let results = pipe.drain();
        assert!(results.iter().all(|(_, r)| r.is_ok()), "{results:?}");
        server.shutdown();
    }

    #[test]
    fn stale_duplicate_replies_are_ignored() {
        // A duplex that duplicates every response frame.
        struct Doubling(TcpDuplex, VecDeque<Vec<u8>>);
        impl FrameDuplex for Doubling {
            fn send_frame(&mut self, bytes: &[u8]) -> Result<(), RdsError> {
                self.0.send_frame(bytes)
            }
            fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, RdsError> {
                if let Some(f) = self.1.pop_front() {
                    return Ok(Some(f));
                }
                let out = self.0.recv_frame(timeout)?;
                if let Some(f) = &out {
                    self.1.push_back(f.clone());
                }
                Ok(out)
            }
            fn reconnect(&mut self) -> Result<(), RdsError> {
                self.0.reconnect()
            }
        }
        let server = rds_tcp_server(2, 64);
        let duplex = Doubling(TcpDuplex::connect(server.local_addr()).unwrap(), VecDeque::new());
        let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(4);
        for _ in 0..10 {
            pipe.submit(&RdsRequest::ListPrograms);
        }
        let results = pipe.drain();
        assert_eq!(results.len(), 10, "duplicates add no extra outcomes");
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        server.shutdown();
    }

    #[test]
    fn id_zero_errors_answer_the_oldest_pending_request() {
        // The keyed server cannot authenticate an unkeyed frame, so it
        // answers under id 0; each such reply settles one request.
        let server = keyed_tcp_server();
        for window in [1, 4] {
            let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
            let mut pipe = RdsPipeline::new(duplex, "mgr").with_window(window);
            let begin = Instant::now();
            for _ in 0..6 {
                pipe.submit(&RdsRequest::ListPrograms);
            }
            let results = pipe.drain();
            assert!(begin.elapsed() < Duration::from_secs(1), "window {window}: no stall wait");
            assert_eq!(results.len(), 6);
            for (id, result) in &results {
                assert!(
                    matches!(result, Err(RdsError::Remote { code: ErrorCode::AuthFailed, .. })),
                    "window {window} #{id}: {result:?}"
                );
            }
        }
        // `RdsClient` is this pipeline at window 1.
        let client = crate::RdsClient::new(TcpDuplex::connect(server.local_addr()).unwrap(), "m");
        let err = client.list_programs().unwrap_err();
        assert!(matches!(err, RdsError::Remote { code: ErrorCode::AuthFailed, .. }), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn a_reply_failing_digest_verification_is_final() {
        let server = keyed_tcp_server();
        for window in [1, 4] {
            let duplex = TcpDuplex::connect(server.local_addr()).unwrap();
            let mut pipe = RdsPipeline::with_key(duplex, "mgr", b"wrong".to_vec())
                .with_window(window)
                .with_retry(RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                    deadline: None,
                    jitter_seed: 5,
                });
            for _ in 0..6 {
                pipe.submit(&RdsRequest::ListPrograms);
            }
            let results = pipe.drain();
            assert_eq!(results.len(), 6);
            for (id, result) in &results {
                assert!(matches!(result, Err(RdsError::BadDigest)), "window {window} #{id}");
            }
            assert_eq!(pipe.retries(), 0, "window {window}: a key mismatch is not re-sent");
            assert_eq!(pipe.duplex().reconnects(), 0, "window {window}: nor reconnected");
        }
        server.shutdown();
    }
}
