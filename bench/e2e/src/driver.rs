//! The load generator: one thread, one connection, a closed loop with a
//! fixed window, and the benchmark-side spans of the traced slice.
//!
//! The loop is written against [`FrameDuplex`], so the same code that
//! drives the real server over TCP also drives the in-process replicas
//! of the layer probes — and their replies pass the same oracles.

use crate::gen::{mix, Expect, Workload};
use mbd::auth::Principal;
use mbd::rds::{codec, FrameDuplex, RdsRequest, RdsResponse, TraceContext};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Longest wait for any one reply. A server that hangs fails the run
/// with counted failures instead of hanging the pipeline that runs it.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Request ids of the measured stream are `index + 1`; fixture, census
/// and metrics requests count up from here so the two can never meet in
/// the server's `(principal, request id)` dedup cache.
const CONTROL_ID_BASE: i64 = 1 << 40;

/// The manager identity every request is sent under.
pub const PRINCIPAL: &str = "e2e-mgr";

/// One benchmark-side span. `parent` is a span id (0 = root); spans of
/// one request share `request_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request_id: i64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store of the traced slice, plus the first `capture`
/// request/reply frame pairs for the stateless layer probes. Nothing is
/// written until the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub frames: Vec<(Vec<u8>, Vec<u8>)>,
    capture: usize,
    /// FNV-1a-style fold of every request frame's fingerprint, in send
    /// order: equal exactly when the request byte streams are equal.
    pub stream_fnv: u64,
}

impl Tracer {
    pub fn new(capture: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            frames: Vec::new(),
            capture,
            stream_fnv: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        parent: u32,
        request_id: i64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request_id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Durations of every span called `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Root span id of every traced request, by request id.
    pub fn roots(&self) -> HashMap<i64, u32> {
        self.spans.iter().filter(|s| s.parent == 0).map(|s| (s.request_id, s.id)).collect()
    }

    fn note_request(&mut self, frame: &[u8]) -> Option<usize> {
        self.stream_fnv =
            (self.stream_fnv ^ mbd::rds::frame_fingerprint(frame)).wrapping_mul(0x0100_0000_01b3);
        (self.frames.len() < self.capture).then(|| {
            self.frames.push((frame.to_vec(), Vec::new()));
            self.frames.len() - 1
        })
    }
}

/// What one slice measured.
#[derive(Debug, Default)]
pub struct Slice {
    pub wall_ns: u64,
    pub attempted: usize,
    pub failed: usize,
    /// Submit→completion time of every *correct* reply; a failed
    /// operation contributes no latency sample.
    pub latencies_ns: Vec<u64>,
    /// Frame bytes both ways, length prefixes included.
    pub wire_bytes: u64,
    /// Why the slice stopped early (timeout or broken connection); the
    /// requests it never completed are counted in `failed`.
    pub aborted: Option<String>,
}

impl Slice {
    pub fn correct(&self) -> usize {
        self.attempted - self.failed
    }
}

struct InFlight {
    submitted: Instant,
    expect: Expect,
    /// Traced slice only: when the frame was handed to the socket, the
    /// request's root span, and where its reply frame is to be captured.
    traced: Option<(Instant, u32, Option<usize>)>,
}

/// A manager's connection: encodes, signs and sends requests under one
/// principal and key, and judges the replies.
pub struct Conn<D> {
    duplex: D,
    principal: Principal,
    key: Vec<u8>,
    seed: u64,
    control_id: i64,
}

impl<D: FrameDuplex> Conn<D> {
    pub fn new(duplex: D, key: &[u8], seed: u64) -> Conn<D> {
        Conn {
            duplex,
            principal: Principal::new(PRINCIPAL),
            key: key.to_vec(),
            seed,
            control_id: CONTROL_ID_BASE,
        }
    }

    pub fn into_duplex(self) -> D {
        self.duplex
    }

    fn encode(&self, request: &RdsRequest, id: i64) -> Vec<u8> {
        // Like `RdsClient`, every request carries a fresh trace id, so
        // the server does what it does for a shipping manager.
        let trace = TraceContext { trace_id: mix(self.seed, id as u64) | 1, parent_span_id: 0 };
        codec::encode_request_traced(request, &self.principal, id, Some(&self.key), trace)
    }

    /// One serial request outside the measured stream.
    pub fn roundtrip(&mut self, request: &RdsRequest) -> Result<RdsResponse, String> {
        self.control_id += 1;
        let id = self.control_id;
        let frame = self.encode(request, id);
        self.duplex.send_frame(&frame).map_err(|e| e.to_string())?;
        loop {
            let reply =
                self.duplex.recv_frame(RECV_TIMEOUT).map_err(|e| e.to_string())?.ok_or_else(
                    || format!("no reply to {} within {RECV_TIMEOUT:?}", request.verb()),
                )?;
            let (response, reply_id) =
                codec::decode_response(&reply, Some(&self.key)).map_err(|e| e.to_string())?;
            if reply_id == id {
                return Ok(response);
            }
        }
    }

    /// Runs serial control requests (fixture, census) through the
    /// workload's oracle; returns `(attempted, failed)`.
    pub fn run_control(
        &mut self,
        workload: &mut Workload,
        steps: Vec<(RdsRequest, Expect)>,
    ) -> (usize, usize) {
        let attempted = steps.len();
        let failed = steps
            .into_iter()
            .filter(|(request, expect)| match self.roundtrip(request) {
                Ok(reply) => !workload.check(expect, &reply),
                Err(_) => true,
            })
            .count();
        (attempted, failed)
    }

    /// Sends the workload's next `requests` requests, at most `window`
    /// in flight, and waits for every reply. With a tracer, records a
    /// root `request` span per request id with children
    /// `client.encode`, `client.send`, `client.wait`, `client.decode`.
    pub fn run_slice(
        &mut self,
        workload: &mut Workload,
        requests: usize,
        window: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Slice {
        let mut slice = Slice {
            attempted: requests,
            latencies_ns: Vec::with_capacity(requests),
            ..Slice::default()
        };
        let mut in_flight: HashMap<i64, InFlight> = HashMap::with_capacity(window * 2);
        let (mut submitted, mut completed) = (0, 0);
        let started = Instant::now();
        while completed < requests {
            while submitted < requests && in_flight.len() < window {
                let id = workload.index() as i64 + 1;
                let (request, expect) = workload.next();
                let t_submit = Instant::now();
                let frame = self.encode(&request, id);
                let t_encoded = tracer.is_some().then(Instant::now);
                if let Err(e) = self.duplex.send_frame(&frame) {
                    slice.aborted = Some(format!("send failed: {e}"));
                    break;
                }
                slice.wire_bytes += frame.len() as u64 + 4;
                let traced = tracer.as_deref_mut().map(|t| {
                    let t_sent = Instant::now();
                    let root = t.span(0, id, "request", t_submit, t_sent);
                    t.span(root, id, "client.encode", t_submit, t_encoded.expect("traced"));
                    t.span(root, id, "client.send", t_encoded.expect("traced"), t_sent);
                    (t_sent, root, t.note_request(&frame))
                });
                in_flight.insert(id, InFlight { submitted: t_submit, expect, traced });
                submitted += 1;
            }
            if slice.aborted.is_some() {
                break;
            }
            let reply = match self.duplex.recv_frame(RECV_TIMEOUT) {
                Ok(Some(reply)) => reply,
                Ok(None) => {
                    slice.aborted = Some(format!("no reply within {RECV_TIMEOUT:?}"));
                    break;
                }
                Err(e) => {
                    slice.aborted = Some(format!("receive failed: {e}"));
                    break;
                }
            };
            let t_received = tracer.is_some().then(Instant::now);
            slice.wire_bytes += reply.len() as u64 + 4;
            let decoded = codec::decode_response(&reply, Some(&self.key));
            let t_done = Instant::now();
            // A reply that does not verify, or answers no request of
            // ours (an accept-level `Busy` carries id 0), fails whichever
            // request it was meant for once that one times out.
            let Ok((response, id)) = decoded else { continue };
            let Some(flight) = in_flight.remove(&id) else { continue };
            completed += 1;
            if workload.check(&flight.expect, &response) {
                slice.latencies_ns.push((t_done - flight.submitted).as_nanos() as u64);
            } else {
                slice.failed += 1;
            }
            if let (Some(t), Some((t_sent, root, slot))) = (tracer.as_deref_mut(), flight.traced) {
                let t_received = t_received.expect("traced");
                // The root was opened at submit; it ends now.
                t.spans[root as usize - 1].end_ns =
                    t_done.saturating_duration_since(t.epoch).as_nanos() as u64;
                t.span(root, id, "client.wait", t_sent, t_received);
                t.span(root, id, "client.decode", t_received, t_done);
                if let Some(slot) = slot {
                    t.frames[slot].1 = reply;
                }
            }
        }
        slice.wall_ns = started.elapsed().as_nanos() as u64;
        // Whatever an aborted slice never completed has failed.
        slice.failed += requests - completed;
        slice
    }
}

/// Answers one request frame: the reply frame, and how long the layer
/// under measurement took to produce it.
type Exec<'a> = dyn FnMut(&[u8]) -> (Vec<u8>, u64) + 'a;

/// A [`FrameDuplex`] that answers each frame synchronously by calling
/// into this process — the in-process replicas of the layer probes. The
/// closure returns the reply frame and how long the layer under
/// measurement took to produce it.
pub struct InProc<'a> {
    exec: Box<Exec<'a>>,
    ready: VecDeque<Vec<u8>>,
    /// `(request id, call start, nanoseconds)` per frame, in arrival
    /// order.
    pub samples: Vec<(i64, Instant, u64)>,
}

impl<'a> InProc<'a> {
    pub fn new(exec: impl FnMut(&[u8]) -> (Vec<u8>, u64) + 'a) -> InProc<'a> {
        InProc { exec: Box::new(exec), ready: VecDeque::new(), samples: Vec::new() }
    }
}

impl FrameDuplex for InProc<'_> {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), mbd::rds::RdsError> {
        let start = Instant::now();
        let (reply, ns) = (self.exec)(bytes);
        self.samples.push((codec::peek_request_id(bytes).unwrap_or(0), start, ns));
        self.ready.push_back(reply);
        Ok(())
    }

    fn recv_frame(&mut self, _timeout: Duration) -> Result<Option<Vec<u8>>, mbd::rds::RdsError> {
        Ok(self.ready.pop_front())
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::child::KEY;
    use crate::gen::Kind;
    use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};

    /// An in-process server in the benchmark's posture (keyed, demo MIB).
    pub fn demo_server() -> MbdServer {
        let process = ElasticProcess::new(ElasticConfig::default());
        crate::probes::install_demo_mib(process.mib());
        MbdServer::with_policy(process, mbd::auth::Acl::allow_by_default(), Some(KEY.to_vec()))
    }

    fn run(kind: Kind, seed: u64, requests: usize, sabotage: bool) -> (Slice, u64, (usize, usize)) {
        let server = demo_server();
        let duplex = InProc::new(|frame: &[u8]| (server.process_request(frame), 0));
        let mut conn = Conn::new(duplex, KEY, seed);
        let mut workload = Workload::new(kind, seed);
        let fixture = workload.fixture();
        assert_eq!(conn.run_control(&mut workload, fixture).1, 0, "{kind:?} fixture");
        if sabotage {
            workload.sabotage();
        }
        let mut tracer = Tracer::new(16);
        let slice = conn.run_slice(&mut workload, requests, kind.window(), Some(&mut tracer));
        let census = workload.census();
        let census = conn.run_control(&mut workload, census);
        (slice, tracer.stream_fnv, census)
    }

    #[test]
    fn every_workload_passes_its_oracle_and_census_in_process() {
        for kind in Kind::ALL {
            let (slice, _, census) = run(kind, 1, 700, false);
            assert_eq!(slice.failed, 0, "{kind:?}: {:?}", slice.aborted);
            assert_eq!(slice.latencies_ns.len(), 700, "{kind:?}");
            assert_eq!(census, (2, 0), "{kind:?} census");
        }
    }

    #[test]
    fn a_deliberately_wrong_oracle_counts_every_reply_as_failed() {
        let (slice, _, _) = run(Kind::InvokeSerial, 1, 50, true);
        assert_eq!((slice.attempted, slice.failed), (50, 50));
        assert!(slice.latencies_ns.is_empty(), "a failed operation has no latency");
    }

    #[test]
    fn same_seed_same_request_bytes_different_seed_different_bytes() {
        for kind in Kind::ALL {
            let (_, a, _) = run(kind, 11, 210, false);
            let (_, b, _) = run(kind, 11, 210, false);
            let (_, c, _) = run(kind, 12, 210, false);
            assert_eq!(a, b, "{kind:?}: stream must be a function of the seed");
            assert_ne!(a, c, "{kind:?}: the seed must reach the stream");
        }
    }

    #[test]
    fn a_silent_server_aborts_the_slice_with_counted_failures() {
        struct Silent;
        impl FrameDuplex for Silent {
            fn send_frame(&mut self, _: &[u8]) -> Result<(), mbd::rds::RdsError> {
                Ok(())
            }
            fn recv_frame(&mut self, _: Duration) -> Result<Option<Vec<u8>>, mbd::rds::RdsError> {
                Ok(None)
            }
        }
        let mut conn = Conn::new(Silent, KEY, 1);
        let mut workload = Workload::new(Kind::InvokeSerial, 1);
        let slice = conn.run_slice(&mut workload, 10, 1, None);
        assert_eq!((slice.attempted, slice.failed), (10, 10));
        assert!(slice.aborted.is_some());
    }

    #[test]
    fn traced_requests_nest_four_client_spans_under_one_root() {
        let server = demo_server();
        let duplex = InProc::new(|frame: &[u8]| (server.process_request(frame), 0));
        let mut conn = Conn::new(duplex, KEY, 1);
        let mut workload = Workload::new(Kind::InvokeSerial, 1);
        let fixture = workload.fixture();
        conn.run_control(&mut workload, fixture);
        let mut tracer = Tracer::new(2);
        conn.run_slice(&mut workload, 5, 1, Some(&mut tracer));
        assert_eq!(tracer.spans.len(), 25);
        assert_eq!(tracer.frames.len(), 2, "capture is bounded");
        assert!(tracer.frames.iter().all(|(req, reply)| !req.is_empty() && !reply.is_empty()));
        let root = tracer.roots()[&3];
        let children: Vec<&str> =
            tracer.spans.iter().filter(|s| s.parent == root).map(|s| s.name).collect();
        assert_eq!(children, ["client.encode", "client.send", "client.wait", "client.decode"]);
        let root = &tracer.spans[root as usize - 1];
        assert!(tracer
            .spans
            .iter()
            .filter(|s| s.parent == root.id)
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));
    }
}
