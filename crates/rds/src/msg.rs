use ber::BerValue;
use std::fmt;

/// End-to-end correlation context carried (optionally) by every RDS
/// frame: one delegation is one trace from the manager's request to the
/// dpi effects it causes (telemetry spans, notifications, agent log
/// lines, journal records).
///
/// A zero `trace_id` means "no trace" — the codec then emits exactly the
/// legacy frame layout, byte for byte, so untraced messages remain
/// indistinguishable from pre-trace implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The request's correlation id (0 = unset).
    pub trace_id: u64,
    /// The caller's span id, for managers relaying on behalf of a
    /// larger traced operation (0 = this request is the root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Whether any trace context is present.
    pub fn is_set(&self) -> bool {
        self.trace_id != 0 || self.parent_span_id != 0
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.trace_id)
    }
}

/// One structured entry of the server's audit journal: an RDS operation,
/// lifecycle transition, quota breach or handler panic, with enough
/// context to answer "who did what to which dpi, under which trace, and
/// how did it end".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotone journal sequence number (gaps mean drop-oldest evictions).
    pub seq: u64,
    /// Server clock (hundredths of a second) when recorded.
    pub ticks: u64,
    /// Trace id of the request that caused this event (0 = none).
    pub trace_id: u64,
    /// Acting principal handle (`server` for internally caused events).
    pub principal: String,
    /// What happened: an RDS verb name, `decode_fail.<kind>`,
    /// `lifecycle.<transition>`, `quota.breach` or `panic`.
    pub verb: String,
    /// Target instance id (0 = no dpi involved).
    pub dpi: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Outcome detail (error text, breach dimension, …).
    pub detail: String,
}

/// Identifies a delegated program instance (dpi) on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DpiId(pub u64);

impl fmt::Display for DpiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpi-{}", self.0)
    }
}

/// The lifecycle states of a dpi (the paper's instance state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DpiState {
    /// Instantiated, idle between invocations.
    Ready,
    /// Currently executing an invocation.
    Running,
    /// Suspended: invocations and messages queue until resume.
    Suspended,
    /// Terminated: seen only by a request that reached the dpi before its removal.
    Terminated,
}

impl DpiState {
    /// Stable wire integer.
    pub fn code(self) -> i64 {
        match self {
            DpiState::Ready => 0,
            DpiState::Running => 1,
            DpiState::Suspended => 2,
            DpiState::Terminated => 3,
        }
    }

    /// Parses a wire integer.
    pub fn from_code(code: i64) -> Option<DpiState> {
        Some(match code {
            0 => DpiState::Ready,
            1 => DpiState::Running,
            2 => DpiState::Suspended,
            3 => DpiState::Terminated,
            _ => return None,
        })
    }
}

impl fmt::Display for DpiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DpiState::Ready => "ready",
            DpiState::Running => "running",
            DpiState::Suspended => "suspended",
            DpiState::Terminated => "terminated",
        };
        f.write_str(s)
    }
}

/// One span of a [`RdsResponse::Profile`] tree: a named interval with a
/// parent edge, enough to reconstruct the request's waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the server's telemetry domain).
    pub span_id: u64,
    /// The enclosing span's id (0 = root).
    pub parent_span_id: u64,
    /// Operation name (`rds.request`, `ep.invoke`, …).
    pub name: String,
    /// Start offset, ns since the server's telemetry epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub duration_ns: u64,
}

/// One retained sample (or downsampled bucket) of a
/// [`MetricSeries`]. At 1 s resolution `min == max == avg == last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricPoint {
    /// Window start, seconds since the server's telemetry epoch.
    pub t_s: u64,
    pub min: u64,
    pub max: u64,
    pub avg: u64,
    pub last: u64,
}

/// One series of a [`RdsResponse::Metrics`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSeries {
    /// Series name (`rds.request` for a counter rate,
    /// `rds.request.p99` for a histogram quantile, …).
    pub name: String,
    /// `rate` | `gauge` | `quantile` (quantiles are nanoseconds).
    pub kind: String,
    /// Points, oldest first.
    pub points: Vec<MetricPoint>,
}

/// One alert rule's state in a [`RdsResponse::Metrics`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertStatus {
    /// The rule as configured (`rds.request.p99>50ms@10s:for=2`).
    pub rule: String,
    /// The series the rule watches.
    pub metric: String,
    /// Currently firing.
    pub firing: bool,
    /// Most recently evaluated value.
    pub value: u64,
    /// When the current firing episode began (0 when not firing).
    pub since_s: u64,
    /// Lifetime fire count.
    pub fired_count: u64,
}

/// One row of a `ListInstances` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpiSummary {
    /// Instance id.
    pub id: DpiId,
    /// Name of the dp it instantiates.
    pub dp_name: String,
    /// Current state.
    pub state: DpiState,
}

/// A request from a delegating manager to an elastic process.
#[derive(Debug, Clone, PartialEq)]
pub enum RdsRequest {
    /// Transfer a delegated program. `language` names the encoding of
    /// `source` ("dpl" for this implementation — the field exists because
    /// elastic processing is language-neutral by design).
    DelegateProgram {
        /// Repository name for the dp.
        dp_name: String,
        /// Source language tag.
        language: String,
        /// Program text.
        source: Vec<u8>,
    },
    /// Remove a dp from the repository.
    DeleteProgram {
        /// Name of the dp to delete.
        dp_name: String,
    },
    /// Create an instance of a stored dp.
    Instantiate {
        /// Name of the dp to instantiate.
        dp_name: String,
    },
    /// Invoke an entry point of a dpi.
    Invoke {
        /// Target instance.
        dpi: DpiId,
        /// Entry-point function name.
        entry: String,
        /// Arguments (BER-encoded values).
        args: Vec<BerValue>,
    },
    /// Pause a dpi.
    Suspend {
        /// Target instance.
        dpi: DpiId,
    },
    /// Resume a suspended dpi.
    Resume {
        /// Target instance.
        dpi: DpiId,
    },
    /// Destroy a dpi.
    Terminate {
        /// Target instance.
        dpi: DpiId,
    },
    /// Post an asynchronous message to a dpi's mailbox.
    SendMessage {
        /// Target instance.
        dpi: DpiId,
        /// Opaque payload the dpi reads with `recv()`.
        payload: Vec<u8>,
    },
    /// List stored dps.
    ListPrograms,
    /// List instances and their states.
    ListInstances,
    /// Read the tail of the server's audit journal.
    ReadJournal {
        /// Upper bound on returned records (newest win).
        max_records: u32,
    },
    /// Read a retained span tree and/or the VM profiler's folded stacks.
    ReadProfile {
        /// Trace id of the span tree to fetch (0 = the most recently
        /// retained tree, anomalous trees first).
        trace_id: u64,
        /// Restrict the folded stacks to one dpi (0 = all profiled
        /// dpis, each line prefixed `dpi-N;`).
        dpi: u64,
    },
    /// Read retained metrics history (time series) and alert states.
    ReadMetrics {
        /// `*`-glob over series names (empty = all).
        pattern: String,
        /// Trailing window in seconds (0 = everything retained).
        range_s: u32,
        /// Requested ring resolution in seconds (1, 10 or 60; the
        /// server rounds down to the nearest ring).
        res_s: u32,
    },
    /// Serialize a *suspended* dpi into a transferable checkpoint blob
    /// (the agent-migration export; non-destructive).
    Checkpoint {
        /// The instance to serialize.
        dpi: DpiId,
    },
    /// Install a checkpoint blob from another server as a suspended
    /// dpi. The blob's single-use nonce is burned on install.
    Restore {
        /// The blob produced by `Checkpoint` elsewhere.
        blob: Vec<u8>,
    },
}

impl RdsRequest {
    /// The wire operation tag (context-constructed tag number).
    pub fn op_tag(&self) -> u8 {
        match self {
            RdsRequest::DelegateProgram { .. } => 0,
            RdsRequest::DeleteProgram { .. } => 1,
            RdsRequest::Instantiate { .. } => 2,
            RdsRequest::Invoke { .. } => 3,
            RdsRequest::Suspend { .. } => 4,
            RdsRequest::Resume { .. } => 5,
            RdsRequest::Terminate { .. } => 6,
            RdsRequest::SendMessage { .. } => 7,
            RdsRequest::ListPrograms => 8,
            RdsRequest::ListInstances => 9,
            RdsRequest::ReadJournal { .. } => 10,
            RdsRequest::ReadProfile { .. } => 11,
            RdsRequest::ReadMetrics { .. } => 12,
            RdsRequest::Checkpoint { .. } => 13,
            RdsRequest::Restore { .. } => 14,
        }
    }

    /// The verb name used for per-verb telemetry metrics
    /// (`rds.verb.<name>`).
    pub fn verb(&self) -> &'static str {
        match self {
            RdsRequest::DelegateProgram { .. } => "delegate",
            RdsRequest::DeleteProgram { .. } => "delete",
            RdsRequest::Instantiate { .. } => "instantiate",
            RdsRequest::Invoke { .. } => "invoke",
            RdsRequest::Suspend { .. } => "suspend",
            RdsRequest::Resume { .. } => "resume",
            RdsRequest::Terminate { .. } => "terminate",
            RdsRequest::SendMessage { .. } => "send_message",
            RdsRequest::ListPrograms => "list_programs",
            RdsRequest::ListInstances => "list_instances",
            RdsRequest::ReadJournal { .. } => "read_journal",
            RdsRequest::ReadProfile { .. } => "read_profile",
            RdsRequest::ReadMetrics { .. } => "read_metrics",
            RdsRequest::Checkpoint { .. } => "checkpoint",
            RdsRequest::Restore { .. } => "restore",
        }
    }

    /// The dp name this request targets, if it names one directly.
    pub fn dp_name(&self) -> Option<&str> {
        match self {
            RdsRequest::DelegateProgram { dp_name, .. }
            | RdsRequest::DeleteProgram { dp_name }
            | RdsRequest::Instantiate { dp_name } => Some(dp_name),
            _ => None,
        }
    }

    /// The dpi this request targets, if it names one directly.
    pub fn dpi(&self) -> Option<DpiId> {
        match self {
            RdsRequest::Invoke { dpi, .. }
            | RdsRequest::Suspend { dpi }
            | RdsRequest::Resume { dpi }
            | RdsRequest::Terminate { dpi }
            | RdsRequest::SendMessage { dpi, .. }
            | RdsRequest::Checkpoint { dpi } => Some(*dpi),
            _ => None,
        }
    }
}

/// A response from an elastic process.
#[derive(Debug, Clone, PartialEq)]
pub enum RdsResponse {
    /// The operation succeeded with nothing to return.
    Ok,
    /// `Instantiate` succeeded.
    Instantiated {
        /// The new instance's id.
        dpi: DpiId,
    },
    /// `Invoke` succeeded.
    Result {
        /// The invocation's return value.
        value: BerValue,
    },
    /// `ListPrograms` result.
    Programs {
        /// Repository dp names, sorted.
        names: Vec<String>,
    },
    /// `ListInstances` result.
    Instances {
        /// One summary per instance.
        instances: Vec<DpiSummary>,
    },
    /// The operation failed.
    Error {
        /// Error category.
        code: crate::ErrorCode,
        /// Detail text.
        message: String,
    },
    /// `ReadJournal` result.
    Journal {
        /// Audit records, oldest first.
        records: Vec<AuditRecord>,
    },
    /// `ReadProfile` result.
    Profile {
        /// Trace id of the returned tree (0 = no tree retained).
        trace_id: u64,
        /// Why the tree was retained (`slow`, `error`, `frozen`,
        /// `reservoir`; the flight recorder appends its trigger, e.g.
        /// `frozen: p99 breach`). Empty when no tree matched.
        kept: String,
        /// The tree's spans, in ring (completion) order.
        spans: Vec<SpanRecord>,
        /// Folded-stack lines from the VM profiler, hottest first.
        stacks: Vec<String>,
    },
    /// `Checkpoint` result: the serialized dpi, installable elsewhere
    /// with `Restore`.
    Checkpointed {
        /// The encoded checkpoint blob.
        blob: Vec<u8>,
    },
    /// `ReadMetrics` result.
    Metrics {
        /// Server time of the query, seconds since the telemetry epoch
        /// (the time base of every [`MetricPoint::t_s`]).
        now_s: u64,
        /// Matching series, name-sorted.
        series: Vec<MetricSeries>,
        /// Every alert rule's current state.
        alerts: Vec<AlertStatus>,
    },
}

impl RdsResponse {
    /// The wire tag of this response variant.
    pub fn op_tag(&self) -> u8 {
        match self {
            RdsResponse::Ok => 0,
            RdsResponse::Instantiated { .. } => 1,
            RdsResponse::Result { .. } => 2,
            RdsResponse::Programs { .. } => 3,
            RdsResponse::Instances { .. } => 4,
            RdsResponse::Error { .. } => 5,
            RdsResponse::Journal { .. } => 6,
            RdsResponse::Profile { .. } => 7,
            RdsResponse::Metrics { .. } => 8,
            RdsResponse::Checkpointed { .. } => 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpi_state_codes_round_trip() {
        for s in [DpiState::Ready, DpiState::Running, DpiState::Suspended, DpiState::Terminated] {
            assert_eq!(DpiState::from_code(s.code()), Some(s));
        }
        assert_eq!(DpiState::from_code(9), None);
    }

    #[test]
    fn op_tags_are_distinct() {
        let reqs = vec![
            RdsRequest::DelegateProgram {
                dp_name: String::new(),
                language: String::new(),
                source: vec![],
            },
            RdsRequest::DeleteProgram { dp_name: String::new() },
            RdsRequest::Instantiate { dp_name: String::new() },
            RdsRequest::Invoke { dpi: DpiId(0), entry: String::new(), args: vec![] },
            RdsRequest::Suspend { dpi: DpiId(0) },
            RdsRequest::Resume { dpi: DpiId(0) },
            RdsRequest::Terminate { dpi: DpiId(0) },
            RdsRequest::SendMessage { dpi: DpiId(0), payload: vec![] },
            RdsRequest::ListPrograms,
            RdsRequest::ListInstances,
            RdsRequest::ReadJournal { max_records: 0 },
            RdsRequest::ReadProfile { trace_id: 0, dpi: 0 },
            RdsRequest::ReadMetrics { pattern: String::new(), range_s: 0, res_s: 0 },
            RdsRequest::Checkpoint { dpi: DpiId(0) },
            RdsRequest::Restore { blob: vec![] },
        ];
        let mut tags: Vec<u8> = reqs.iter().map(RdsRequest::op_tag).collect();
        tags.dedup();
        assert_eq!(tags.len(), reqs.len());
    }

    #[test]
    fn dp_name_extraction() {
        let r = RdsRequest::Instantiate { dp_name: "health".to_string() };
        assert_eq!(r.dp_name(), Some("health"));
        assert_eq!(RdsRequest::ListPrograms.dp_name(), None);
    }

    #[test]
    fn displays() {
        assert_eq!(DpiId(3).to_string(), "dpi-3");
        assert_eq!(DpiState::Suspended.to_string(), "suspended");
        assert_eq!(
            TraceContext { trace_id: 0xAB, parent_span_id: 0 }.to_string(),
            "00000000000000ab"
        );
    }

    #[test]
    fn dpi_extraction() {
        let r = RdsRequest::Suspend { dpi: DpiId(4) };
        assert_eq!(r.dpi(), Some(DpiId(4)));
        assert_eq!(RdsRequest::ListInstances.dpi(), None);
        assert_eq!(RdsRequest::Instantiate { dp_name: "x".into() }.dpi(), None);
    }

    #[test]
    fn trace_context_is_set() {
        assert!(!TraceContext::default().is_set());
        assert!(TraceContext { trace_id: 1, parent_span_id: 0 }.is_set());
        assert!(TraceContext { trace_id: 0, parent_span_id: 2 }.is_set());
    }
}
