//! Seeded request generation and the correctness oracles.
//!
//! A [`Workload`] is a pure function of `(kind, seed, request index)`
//! plus the replies it has been shown: the server only ever sees the
//! frames it generates. Every expectation is computed here, from the
//! seed and from a locally built MIB — never by asking the server — so
//! a reply that is well-formed but wrong is a failed operation.

use mbd::ber::BerValue;
use mbd::rds::{DpiId, RdsRequest, RdsResponse};
use mbd::snmp::{mib2, MibStore};

/// splitmix64 of `seed` and `index`: the only source of variation in a
/// run. Stateless, so a replay can start anywhere in the stream.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four workloads. All are closed loop on one connection; what
/// differs is which layers of the request path carry the cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    InvokeSerial,
    InvokePipelined,
    TableScan,
    LifecycleChurn,
}

/// dpis the pipelined workload round-robins over (= its window, so the
/// executor sees 64 independent FIFOs and every WAL record carries a
/// different instance's globals).
pub const PIPELINED_DPIS: usize = 64;

/// Requests in one lifecycle cycle: delegate, instantiate, invoke,
/// suspend, resume, terminate, delete.
pub const CHURN_STEPS: u64 = 7;

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::InvokeSerial, Kind::InvokePipelined, Kind::TableScan, Kind::LifecycleChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::InvokeSerial => "invoke_serial",
            Kind::InvokePipelined => "invoke_pipelined",
            Kind::TableScan => "table_scan",
            Kind::LifecycleChurn => "lifecycle_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests in flight. Window 1 measures the path's latency with
    /// nothing overlapping; a larger window supplies concurrency from
    /// one connection, which is how a pipelining manager loads a server.
    pub fn window(self) -> usize {
        match self {
            Kind::InvokeSerial | Kind::LifecycleChurn => 1,
            Kind::InvokePipelined => PIPELINED_DPIS,
            Kind::TableScan => 4,
        }
    }

    /// Requests per slice: frozen counts, sized once to ≈0.05 s on the
    /// reference host (see README "Run shape"). Counts, not durations,
    /// so parent and change accumulate identical server state (WAL
    /// length, dedup fill, retained dpis) slice for slice.
    pub fn slice_requests(self) -> usize {
        match self {
            Kind::InvokeSerial => 1_250,
            Kind::InvokePipelined => 2_000,
            // 30 rounds of the seven thresholds.
            Kind::TableScan => 210,
            // 150 whole cycles.
            Kind::LifecycleChurn => 1_050,
        }
    }

    /// Requests sent to the instance before its first measured slice,
    /// and discarded: twenty slices' worth (≈1 s), many times what fills
    /// the server's bounded structures (128-entry dedup cache,
    /// 1 024-record journal ring), so that every measured request pays
    /// their steady-state eviction.
    pub fn warmup_requests(self) -> usize {
        20 * self.slice_requests()
    }
}

const SERIAL_DP: &str = "fn main(x) { return x + 1; }";

const PIPELINED_DP: &str = "var calls = 0; fn main(x) { calls = calls + 1; return calls; }";

/// The paper's table-compression filter: walk one column of the ATM VC
/// table next to the data and return only the rows over a threshold.
const SCAN_DP: &str = r#"
fn filter(threshold) {
    var out = [];
    var dropped = mib_walk("1.3.6.1.4.1.353.2.5.1.3");
    for (oid in dropped) {
        if (dropped[oid] > threshold) {
            out = push(out, [oid, dropped[oid]]);
        }
    }
    return out;
}
"#;

/// Rows in the demo ATM VC table (`mbd-server --demo-mib`).
const ATM_ROWS: u32 = 100;

/// A subnet health function in the style of `examples/subnet_health.rs`
/// (≈1 KB). `REVISION` is replaced per cycle by a seeded literal, so no
/// two delegations carry the same text and the translator's work cannot
/// be shared between them; the literal comes back in the result, which
/// ties each reply to the exact program text that was delegated.
const HEALTH_DP: &str = r#"
var prev = {"rx": 0, "frames": 0, "coll": 0, "bcast": 0};
var samples = 0;
var alarmed = false;

fn rate(cur, key, frames_delta) {
    var d = cur - prev[key];
    if (frames_delta <= 0) { return 0.0; }
    return float(d) / float(frames_delta);
}

fn sample(interval_secs) {
    var rx = mib_get("1.3.6.1.4.1.45.1.3.2.1.0");
    var coll = mib_get("1.3.6.1.4.1.45.1.3.2.2.0");
    var bcast = mib_get("1.3.6.1.4.1.45.1.3.2.3.0");
    var frames = mib_get("1.3.6.1.4.1.45.1.3.2.4.0");

    var d_frames = frames - prev["frames"];
    var utilization = float(rx - prev["rx"]) / (float(interval_secs) * 1250000.0);
    var coll_rate = rate(coll, "coll", d_frames);
    var bcast_rate = rate(bcast, "bcast", d_frames);
    prev["rx"] = rx;
    prev["frames"] = frames;
    prev["coll"] = coll;
    prev["bcast"] = bcast;
    samples = samples + 1;

    var index = 1.0 * utilization + 3.0 * coll_rate + 1.5 * bcast_rate;
    if (index > 0.9 && !alarmed) {
        alarmed = true;
        notify(["subnet stressed", index, utilization, coll_rate, bcast_rate]);
    }
    if (index < 0.6 && alarmed) {
        alarmed = false;
        notify(["subnet recovered", index]);
    }
    mib_publish("1.3.6.1.4.1.20100.3.1.0", index);
    return interval_secs + samples + REVISION;
}
"#;

const HEALTH_NAME: &str = "health";

/// What a reply must be for the operation to count as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `Ok`.
    Ok,
    /// `Instantiated`; the dpi is remembered for later requests.
    Instantiated,
    /// `Result` carrying exactly this value.
    Value(BerValue),
    /// `Result` carrying an invocation count of dpi slot `.0` that was
    /// requested and not yet seen: per dpi the counts handed back are
    /// exactly 1, 2, 3, … with none skipped or repeated. Which request
    /// gets which count is not fixed: the server's workers take the
    /// frames of one connection concurrently (docs/RDS.md, "Reply
    /// ordering"), so two requests in flight to one dpi may run in
    /// either order — demanding the `n`-th request hand back `n` failed
    /// 4 of 4 million requests on the reference host.
    Calls(usize),
    /// `Result` carrying exactly the rows of the demo ATM table whose
    /// `cellsDropped` exceeds threshold `.0`.
    Scan(usize),
    /// `Programs` listing exactly these names.
    Programs(Vec<String>),
    /// `Instances` of which exactly this many are not terminated.
    LiveInstances(usize),
}

/// One workload's generator and oracle state.
#[derive(Debug)]
pub struct Workload {
    kind: Kind,
    seed: u64,
    /// Index of the next request in the measured stream.
    index: u64,
    /// Instances requests are addressed to: the fixture's, or for
    /// `lifecycle_churn` the current cycle's (at most one).
    dpis: Vec<DpiId>,
    /// `invoke_pipelined`: invocations requested per dpi slot …
    calls_sent: Vec<i64>,
    /// … and the counts requested but not yet returned.
    calls_pending: Vec<Vec<i64>>,
    /// `table_scan`: the seeded order thresholds 0..=6 cycle through,
    /// and the expected reply for each threshold.
    thresholds: [usize; 7],
    scan_replies: Vec<BerValue>,
    #[cfg(test)]
    sabotaged: bool,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        // Fisher–Yates over 0..=6, driven by the seed alone.
        let mut thresholds = [0, 1, 2, 3, 4, 5, 6];
        for i in (1..thresholds.len()).rev() {
            let j = (mix(seed, 0xC0FFEE + i as u64) % (i as u64 + 1)) as usize;
            thresholds.swap(i, j);
        }
        Workload {
            kind,
            seed,
            index: 0,
            dpis: Vec::new(),
            calls_sent: vec![0; PIPELINED_DPIS],
            calls_pending: vec![Vec::new(); PIPELINED_DPIS],
            thresholds,
            scan_replies: if kind == Kind::TableScan { scan_oracle() } else { Vec::new() },
            #[cfg(test)]
            sabotaged: false,
        }
    }

    /// Index of the next measured request.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Moves the stream position; used by the in-process replicas to
    /// regenerate the traced slice's requests. For `lifecycle_churn`
    /// the index must be a cycle boundary.
    pub fn seek(&mut self, index: u64) {
        debug_assert!(self.kind != Kind::LifecycleChurn || index.is_multiple_of(CHURN_STEPS));
        self.index = index;
    }

    /// The program text request `index` would delegate (the fixture's dp
    /// for the invoke workloads, cycle `index / 7`'s for churn).
    pub fn dp_source(&self, index: u64) -> String {
        match self.kind {
            Kind::InvokeSerial => SERIAL_DP.to_string(),
            Kind::InvokePipelined => PIPELINED_DP.to_string(),
            Kind::TableScan => SCAN_DP.to_string(),
            Kind::LifecycleChurn => {
                HEALTH_DP.replace("REVISION", &self.revision(index / CHURN_STEPS).to_string())
            }
        }
    }

    fn revision(&self, cycle: u64) -> i64 {
        (mix(self.seed, cycle) % 1_000_000) as i64 + 1
    }

    /// Requests that prepare the server, sent serially before anything
    /// is timed as load. `lifecycle_churn` only records the baseline it
    /// must return to.
    pub fn fixture(&self) -> Vec<(RdsRequest, Expect)> {
        let (name, instances) = match self.kind {
            Kind::InvokeSerial => ("inc", 1),
            Kind::InvokePipelined => ("counter", PIPELINED_DPIS),
            Kind::TableScan => ("scan", 1),
            Kind::LifecycleChurn => return vec![(RdsRequest::ListPrograms, self.baseline())],
        };
        let delegate = RdsRequest::DelegateProgram {
            dp_name: name.to_string(),
            language: "dpl".to_string(),
            source: self.dp_source(0).into_bytes(),
        };
        let instantiate =
            (RdsRequest::Instantiate { dp_name: name.to_string() }, Expect::Instantiated);
        std::iter::once((delegate, Expect::Ok))
            .chain(std::iter::repeat_n(instantiate, instances))
            .collect()
    }

    fn baseline(&self) -> Expect {
        Expect::Programs(match self.kind {
            Kind::InvokeSerial => vec!["inc".to_string()],
            Kind::InvokePipelined => vec!["counter".to_string()],
            Kind::TableScan => vec!["scan".to_string()],
            Kind::LifecycleChurn => Vec::new(),
        })
    }

    /// End-of-run census: the repository is back at its baseline and
    /// exactly the fixture's instances are alive (none, for churn).
    pub fn census(&self) -> Vec<(RdsRequest, Expect)> {
        let live = if self.kind == Kind::LifecycleChurn { 0 } else { self.dpis.len() };
        vec![
            (RdsRequest::ListPrograms, self.baseline()),
            (RdsRequest::ListInstances, Expect::LiveInstances(live)),
        ]
    }

    /// The next request of the stream and what its reply must be.
    pub fn next(&mut self) -> (RdsRequest, Expect) {
        let i = self.index;
        self.index += 1;
        if self.kind == Kind::LifecycleChurn && i.is_multiple_of(CHURN_STEPS) {
            // A new cycle addresses only the instance it creates.
            self.dpis.clear();
        }
        let dpi = |slot: usize| self.dpis.get(slot).copied().unwrap_or(DpiId(0));
        let invoke = |dpi, entry: &str, arg| RdsRequest::Invoke {
            dpi,
            entry: entry.to_string(),
            args: vec![BerValue::Integer(arg)],
        };
        let (request, expect) = match self.kind {
            Kind::InvokeSerial => {
                let x = (mix(self.seed, i) % 1_000_000) as i64;
                (invoke(dpi(0), "main", x), Expect::Value(BerValue::Integer(x + 1)))
            }
            Kind::InvokePipelined => {
                let slot = (i % PIPELINED_DPIS as u64) as usize;
                let x = (mix(self.seed, i) % 1_000) as i64;
                self.calls_sent[slot] += 1;
                self.calls_pending[slot].push(self.calls_sent[slot]);
                (invoke(dpi(slot), "main", x), Expect::Calls(slot))
            }
            Kind::TableScan => {
                let threshold = self.thresholds[(i % 7) as usize];
                (invoke(dpi(0), "filter", threshold as i64), Expect::Scan(threshold))
            }
            Kind::LifecycleChurn => {
                let name = || HEALTH_NAME.to_string();
                match i % CHURN_STEPS {
                    0 => (
                        RdsRequest::DelegateProgram {
                            dp_name: name(),
                            language: "dpl".to_string(),
                            source: self.dp_source(i).into_bytes(),
                        },
                        Expect::Ok,
                    ),
                    1 => (RdsRequest::Instantiate { dp_name: name() }, Expect::Instantiated),
                    2 => {
                        let secs = (mix(self.seed, i) % 60) as i64 + 1;
                        // First sample of a fresh instance: samples == 1.
                        let value = secs + 1 + self.revision(i / CHURN_STEPS);
                        (invoke(dpi(0), "sample", secs), Expect::Value(BerValue::Integer(value)))
                    }
                    3 => (RdsRequest::Suspend { dpi: dpi(0) }, Expect::Ok),
                    4 => (RdsRequest::Resume { dpi: dpi(0) }, Expect::Ok),
                    5 => (RdsRequest::Terminate { dpi: dpi(0) }, Expect::Ok),
                    _ => (RdsRequest::DeleteProgram { dp_name: name() }, Expect::Ok),
                }
            }
        };
        #[cfg(test)]
        if self.sabotaged {
            if let Expect::Value(BerValue::Integer(v)) = expect {
                return (request, Expect::Value(BerValue::Integer(v + 1)));
            }
        }
        (request, expect)
    }

    /// Judges `reply` against `expect` and absorbs what later requests
    /// need from it (instance ids, seen call counts).
    pub fn check(&mut self, expect: &Expect, reply: &RdsResponse) -> bool {
        match (expect, reply) {
            (Expect::Ok, RdsResponse::Ok) => true,
            (Expect::Instantiated, RdsResponse::Instantiated { dpi }) => {
                self.dpis.push(*dpi);
                true
            }
            (Expect::Value(want), RdsResponse::Result { value }) => want == value,
            (Expect::Scan(threshold), RdsResponse::Result { value }) => {
                self.scan_replies[*threshold] == *value
            }
            (Expect::Calls(slot), RdsResponse::Result { value: BerValue::Integer(count) }) => {
                let pending = &mut self.calls_pending[*slot];
                match pending.iter().position(|c| c == count) {
                    Some(at) => {
                        pending.swap_remove(at);
                        true
                    }
                    None => false,
                }
            }
            (Expect::Programs(want), RdsResponse::Programs { names }) => want == names,
            (Expect::LiveInstances(want), RdsResponse::Instances { instances }) => {
                let live =
                    instances.iter().filter(|i| i.state != mbd::rds::DpiState::Terminated).count();
                live == *want
            }
            _ => false,
        }
    }

    /// Makes every integer expectation wrong by one, to show that a
    /// wrong-valued reply is counted as a failure.
    #[cfg(test)]
    pub fn sabotage(&mut self) {
        self.sabotaged = true;
    }
}

/// Expected `filter(threshold)` replies for thresholds 0..=6, derived
/// from a locally built copy of the demo table — the same installer the
/// server runs, walked and filtered here rather than by the dp. The dp
/// iterates a map keyed by the OID's text, so rows come back in string
/// order, not numeric order.
fn scan_oracle() -> Vec<BerValue> {
    let store = MibStore::new();
    mib2::install_atm_vc_table(&store, ATM_ROWS).expect("demo table installs into an empty MIB");
    let mut rows: Vec<(String, i64)> = store
        .walk(&mib2::atm_vc_entry().child(3))
        .into_iter()
        .map(|(oid, value)| {
            let dropped = match value {
                BerValue::Counter32(c) => i64::from(c),
                other => panic!("cellsDropped is a Counter32, found {other:?}"),
            };
            (oid.to_string(), dropped)
        })
        .collect();
    rows.sort();
    (0..=6)
        .map(|threshold| {
            BerValue::Sequence(
                rows.iter()
                    .filter(|(_, dropped)| *dropped > threshold)
                    .map(|(oid, dropped)| {
                        BerValue::Sequence(vec![
                            BerValue::OctetString(oid.clone().into_bytes()),
                            BerValue::Integer(*dropped),
                        ])
                    })
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_replies_span_empty_to_most_of_the_table() {
        let rows = |v: &BerValue| match v {
            BerValue::Sequence(items) => items.len(),
            _ => unreachable!(),
        };
        let oracle = scan_oracle();
        assert_eq!(oracle.len(), 7);
        assert!(rows(&oracle[0]) > 80, "threshold 0 keeps {} rows", rows(&oracle[0]));
        assert!(rows(&oracle[6]) < 5, "threshold 6 keeps {} rows", rows(&oracle[6]));
        assert!(oracle.windows(2).all(|w| rows(&w[0]) >= rows(&w[1])));
    }

    #[test]
    fn threshold_order_is_a_seeded_permutation() {
        let a = Workload::new(Kind::TableScan, 1).thresholds;
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(a, Workload::new(Kind::TableScan, 1).thresholds);
        assert!((2..10).any(|seed| Workload::new(Kind::TableScan, seed).thresholds != a));
    }

    #[test]
    fn churn_sources_differ_per_cycle_and_are_about_a_kilobyte() {
        let w = Workload::new(Kind::LifecycleChurn, 7);
        let (a, b) = (w.dp_source(0), w.dp_source(CHURN_STEPS));
        assert_ne!(a, b);
        assert_eq!(a, w.dp_source(3), "one text per cycle");
        assert!((900..1600).contains(&a.len()), "{} bytes", a.len());
        assert!(!a.contains("REVISION"));
    }

    #[test]
    fn call_counts_are_accepted_once_each_in_any_order() {
        let mut w = Workload::new(Kind::InvokePipelined, 1);
        w.dpis = (1..=PIPELINED_DPIS as u64).map(DpiId).collect();
        // Two requests to slot 0 in flight at once.
        let (_, first) = w.next();
        for _ in 1..PIPELINED_DPIS {
            w.next();
        }
        let (_, second) = w.next();
        assert_eq!((&first, &second), (&Expect::Calls(0), &Expect::Calls(0)));
        let reply = |n| RdsResponse::Result { value: BerValue::Integer(n) };
        assert!(w.check(&second, &reply(2)), "replies may arrive swapped");
        assert!(!w.check(&first, &reply(2)), "a repeated count is wrong");
        assert!(!w.check(&first, &reply(3)), "a count never requested is wrong");
        assert!(w.check(&first, &reply(1)));
    }

    #[test]
    fn a_wrong_value_or_variant_is_a_failure() {
        let mut w = Workload::new(Kind::InvokeSerial, 1);
        let (_, expect) = w.next();
        let Expect::Value(BerValue::Integer(want)) = expect.clone() else { unreachable!() };
        assert!(w.check(&expect, &RdsResponse::Result { value: BerValue::Integer(want) }));
        assert!(!w.check(&expect, &RdsResponse::Result { value: BerValue::Integer(want + 1) }));
        assert!(!w.check(&expect, &RdsResponse::Ok));
        let refused = RdsResponse::Error {
            code: mbd::rds::ErrorCode::Busy,
            message: "server overloaded".to_string(),
        };
        assert!(!w.check(&expect, &refused));
    }
}
