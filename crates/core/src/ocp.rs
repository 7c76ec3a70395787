//! The SNMP object-code process (OCP) adapter.
//!
//! In the thesis's architecture the MbD server hosts an OCP that "supports
//! an SNMP MIB": the same device data that delegated agents compute over
//! locally is also served to legacy SNMP managers, and the elastic
//! process's own operational state (dpi counts, translator statistics) is
//! published as management data under a private subtree.
//!
//! [`SnmpOcp`] binds an [`ElasticProcess`] to an [`snmp::agent::SnmpAgent`]
//! over the *same* [`MibStore`](snmp::MibStore), and refreshes the server-status subtree on
//! demand.

use crate::ElasticProcess;
use ber::{BerValue, Oid};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Root of the MbD server's self-description subtree
/// (`enterprises.20100.1` — an unassigned private arc).
pub fn mbd_server_root() -> Oid {
    "1.3.6.1.4.1.20100.1".parse().expect("static oid")
}

/// `mbdStoredPrograms.0` — dps in the repository (Gauge32).
pub fn stored_programs() -> Oid {
    mbd_server_root().child(1).child(0)
}

/// `mbdLiveInstances.0` — non-terminated dpis (Gauge32).
pub fn live_instances() -> Oid {
    mbd_server_root().child(2).child(0)
}

/// `mbdDelegationsAccepted.0` (Counter32).
pub fn delegations_accepted() -> Oid {
    mbd_server_root().child(3).child(0)
}

/// `mbdDelegationsRejected.0` (Counter32).
pub fn delegations_rejected() -> Oid {
    mbd_server_root().child(4).child(0)
}

/// `mbdInvocationsOk.0` (Counter32).
pub fn invocations_ok() -> Oid {
    mbd_server_root().child(5).child(0)
}

/// `mbdInvocationsFailed.0` (Counter32).
pub fn invocations_failed() -> Oid {
    mbd_server_root().child(6).child(0)
}

/// `mbdUpTime.0` (TimeTicks, the elastic process clock).
pub fn mbd_uptime() -> Oid {
    mbd_server_root().child(7).child(0)
}

/// `mbdInstantiations.0` (Counter32).
pub fn instantiations() -> Oid {
    mbd_server_root().child(8).child(0)
}

/// `mbdNotificationsDropped.0` — notifications evicted from the bounded
/// outbox before a manager drained them (Counter32).
pub fn notifications_dropped() -> Oid {
    mbd_server_root().child(9).child(0)
}

/// `mbdLogDropped.0` — log lines evicted from the bounded agent log
/// (Counter32).
pub fn log_dropped() -> Oid {
    mbd_server_root().child(10).child(0)
}

/// Root of the server's self-instrumentation subtree
/// (`enterprises.20100.4` — `mbdTelemetry`; `.2` is the v-mib, `.3`
/// is conventionally free for agent-published results). Under it:
///
/// | arc | table | columns (`<entry>.<col>.<index>`) |
/// |---|---|---|
/// | `.1.1` | counters | `.1` name (OctetString), `.2` value (Counter32) |
/// | `.2.1` | gauges | `.1` name (OctetString), `.2` value (Gauge32) |
/// | `.3.1` | histogram summaries | `.1` name, `.2` count (Counter32), `.3` mean µs, `.4` p50 µs, `.5` p90 µs, `.6` p99 µs, `.7` max µs (Gauge32) |
/// | `.4.1` | histogram buckets | index `<hist>.<bucket>`; `.1` upper bound µs (Gauge32), `.2` cumulative count (Counter32) |
///
/// Row indices are assigned on first sight of a metric name and never
/// reused, so a delegated agent can cache the index it resolved from
/// the name column. Only non-empty buckets get rows (log2 histograms
/// have 64 buckets, most forever zero).
pub fn mbd_telemetry_root() -> Oid {
    "1.3.6.1.4.1.20100.4".parse().expect("static oid")
}

/// `mbdTelCounterEntry` — counter table rows live under here.
pub fn telemetry_counter_entry() -> Oid {
    mbd_telemetry_root().child(1).child(1)
}

/// `mbdTelGaugeEntry`.
pub fn telemetry_gauge_entry() -> Oid {
    mbd_telemetry_root().child(2).child(1)
}

/// `mbdTelHistEntry` — per-histogram summary rows.
pub fn telemetry_hist_entry() -> Oid {
    mbd_telemetry_root().child(3).child(1)
}

/// `mbdTelBucketEntry` — per-bucket cumulative counts.
pub fn telemetry_bucket_entry() -> Oid {
    mbd_telemetry_root().child(4).child(1)
}

/// Root of the per-dpi accounting subtree (`enterprises.20100.5` —
/// `mbdDpiAccounting`). One row per live dpi under
/// [`accounting_entry`], indexed by dpi id
/// (`<entry>.<col>.<dpi>`):
///
/// | col | object | type |
/// |---|---|---|
/// | `.1` | dp name | OctetString |
/// | `.2` | lifecycle state code | Integer |
/// | `.3` | invocations ok | Counter32 |
/// | `.4` | invocations failed | Counter32 |
/// | `.5` | busy time µs | Counter32 |
/// | `.6` | VM fuel | Counter32 |
/// | `.7` | RDS bytes in | Counter32 |
/// | `.8` | RDS bytes out | Counter32 |
/// | `.9` | notifications emitted | Counter32 |
/// | `.10` | log lines emitted | Counter32 |
/// | `.11` | queue evictions charged | Counter32 |
/// | `.12` | last trace id, 16 hex digits | OctetString |
///
/// Rows are published for live dpis only. A refresh retracts the row of
/// a dpi that left the table; its final totals are the `detail` of its
/// `lifecycle.terminate` / `lifecycle.fault` journal record.
pub fn mbd_accounting_root() -> Oid {
    "1.3.6.1.4.1.20100.5".parse().expect("static oid")
}

/// `mbdDpiAcctEntry` — accounting rows live under here.
pub fn accounting_entry() -> Oid {
    mbd_accounting_root().child(1).child(1)
}

/// Root of the VM profiler subtree (`enterprises.20100.6` —
/// `mbdProfile`). One row per (dpi, rank) under [`profile_entry`],
/// hottest (most-sampled) block first
/// (`<entry>.<col>.<dpi>.<rank>`):
///
/// | col | object | type |
/// |---|---|---|
/// | `.1` | call stack, `;`-joined function names | OctetString |
/// | `.2` | sampled block's leader instruction index | Gauge32 |
/// | `.3` | samples | Counter32 |
/// | `.4` | attributed VM fuel | Counter32 |
/// | `.5` | attributed wall time µs | Counter32 |
///
/// Ranks are positional (re-sorted hottest-first on every refresh);
/// as in the telemetry tables rows are never retracted, so a rank beyond
/// the current row count keeps its last published values. Empty unless
/// the process enables profiling
/// ([`ElasticConfig::profile_sample`](crate::ElasticConfig) > 0).
pub fn mbd_profile_root() -> Oid {
    "1.3.6.1.4.1.20100.6".parse().expect("static oid")
}

/// `mbdProfileEntry` — profile rows live under here.
pub fn profile_entry() -> Oid {
    mbd_profile_root().child(1).child(1)
}

/// Root of the metrics-history subtree (`enterprises.20100.7` —
/// `mbdHistory` + `mbdAlerts`). Empty unless the process's telemetry
/// enables retained history
/// ([`Telemetry::enable_history`](mbd_telemetry::Telemetry::enable_history)).
///
/// `mbdHistoryEntry` (`.1.1`) — one row per retained series
/// (`<entry>.<col>.<index>`, index assigned on first sight and never
/// reused, like the telemetry tables). The windowed columns summarise
/// the trailing 60 s of 1 s samples, so a delegated agent reads a
/// ready-made window instead of buffering its own:
///
/// | col | object | type |
/// |---|---|---|
/// | `.1` | series name | OctetString |
/// | `.2` | kind: `rate` \| `gauge` \| `quantile` | OctetString |
/// | `.3` | latest sample | Gauge32 |
/// | `.4` | 60 s average | Gauge32 |
/// | `.5` | 60 s minimum | Gauge32 |
/// | `.6` | 60 s maximum | Gauge32 |
/// | `.7` | points pushed into the series' rings | Counter32 |
///
/// `quantile` series are published in **microseconds** (their native
/// nanoseconds saturate Gauge32); rates and gauges are raw.
///
/// `mbdAlertsEntry` (`.2.1`) — one row per configured alert rule,
/// indexed by rule position (1-based, stable for the server's life):
///
/// | col | object | type |
/// |---|---|---|
/// | `.1` | rule text | OctetString |
/// | `.2` | watched series name | OctetString |
/// | `.3` | firing (0/1) | Integer |
/// | `.4` | last evaluated value (µs for quantiles) | Gauge32 |
/// | `.5` | firing-since, seconds (0 = not firing) | Gauge32 |
/// | `.6` | lifetime fire count | Counter32 |
pub fn mbd_history_root() -> Oid {
    "1.3.6.1.4.1.20100.7".parse().expect("static oid")
}

/// `mbdHistoryEntry` — per-series windowed summary rows live under here.
pub fn history_entry() -> Oid {
    mbd_history_root().child(1).child(1)
}

/// `mbdAlertsEntry` — per-rule alert state rows live under here.
pub fn alerts_entry() -> Oid {
    mbd_history_root().child(2).child(1)
}

/// Stable name → row-index maps for the telemetry tables. Indices are
/// handed out in first-seen order and never reclaimed, so rows keep
/// their OIDs across refreshes even as new metrics appear.
#[derive(Debug, Default)]
struct TelemetryIndices {
    counters: BTreeMap<String, u32>,
    gauges: BTreeMap<String, u32>,
    histograms: BTreeMap<String, u32>,
    history: BTreeMap<String, u32>,
}

fn index_for(map: &mut BTreeMap<String, u32>, name: &str) -> u32 {
    if let Some(&i) = map.get(name) {
        return i;
    }
    let next = map.len() as u32 + 1;
    map.insert(name.to_string(), next);
    next
}

/// Nanoseconds → microseconds as a Gauge32, saturating.
fn gauge_us(ns: u64) -> BerValue {
    BerValue::Gauge32(u32::try_from(ns / 1_000).unwrap_or(u32::MAX))
}

/// An elastic process visible to legacy SNMP managers.
#[derive(Debug, Clone)]
pub struct SnmpOcp {
    process: ElasticProcess,
    agent: snmp::agent::SnmpAgent,
    telemetry_rows: Arc<Mutex<TelemetryIndices>>,
}

impl SnmpOcp {
    /// Creates the OCP, serving the process's MIB under `community`.
    pub fn new(process: ElasticProcess, community: &str) -> SnmpOcp {
        let agent = snmp::agent::SnmpAgent::new(community, process.mib().clone());
        SnmpOcp { process, agent, telemetry_rows: Arc::new(Mutex::new(Default::default())) }
    }

    /// Refreshes the server-status subtree from runtime counters, then
    /// answers the SNMP request. Returns `None` for silently dropped
    /// messages (bad community / undecodable), per RFC 1157.
    pub fn handle(&self, request: &[u8]) -> Option<Vec<u8>> {
        self.refresh();
        self.agent.handle(request)
    }

    /// Publishes the current runtime counters into the MIB.
    pub fn refresh(&self) {
        let mib = self.process.mib();
        let stats = self.process.stats();
        // set_scalar only fails on type change, which cannot happen here.
        let _ = mib.set_scalar(
            stored_programs(),
            BerValue::Gauge32(self.process.list_programs().len() as u32),
        );
        let _ = mib
            .set_scalar(live_instances(), BerValue::Gauge32(self.process.live_instances() as u32));
        let _ = mib.set_scalar(
            delegations_accepted(),
            BerValue::Counter32(stats.delegations_accepted as u32),
        );
        let _ = mib.set_scalar(
            delegations_rejected(),
            BerValue::Counter32(stats.delegations_rejected as u32),
        );
        let _ = mib.set_scalar(invocations_ok(), BerValue::Counter32(stats.invocations_ok as u32));
        let _ = mib
            .set_scalar(invocations_failed(), BerValue::Counter32(stats.invocations_failed as u32));
        let _ = mib.set_scalar(mbd_uptime(), BerValue::TimeTicks(self.process.ticks() as u32));
        let _ = mib.set_scalar(instantiations(), BerValue::Counter32(stats.instantiations as u32));
        let _ = mib.set_scalar(
            notifications_dropped(),
            BerValue::Counter32(stats.notifications_dropped as u32),
        );
        let _ = mib.set_scalar(log_dropped(), BerValue::Counter32(stats.log_dropped as u32));
        self.refresh_telemetry();
        self.refresh_accounting();
        self.refresh_profile();
        self.refresh_history();
        self.refresh_alerts();
    }

    /// Publishes per-series windowed summaries of the retained metrics
    /// history into the `mbdHistory` table (see [`mbd_history_root`]):
    /// the trailing 60 s min/avg/max plus the latest sample, computed
    /// in-server — the windowed view the paper's delegated health
    /// functions want, with no agent-side buffering. No-op when history
    /// is off.
    pub fn refresh_history(&self) {
        let telemetry = self.process.telemetry();
        let Some(history) = telemetry.history() else { return };
        let mib = self.process.mib();
        let now_s = telemetry.elapsed_ns() / 1_000_000_000;
        let mut rows = self.telemetry_rows.lock();
        for series in history.query("", 60, 1, now_s) {
            let scale = |v: u64| match series.kind {
                mbd_telemetry::SeriesKind::Quantile => gauge_us(v),
                _ => BerValue::Gauge32(u32::try_from(v).unwrap_or(u32::MAX)),
            };
            let n = series.points.len() as u64;
            let sum: u128 = series.points.iter().map(|p| u128::from(p.avg)).sum();
            let avg = (sum / u128::from(n.max(1))) as u64;
            let min = series.points.iter().map(|p| p.min).min().unwrap_or(0);
            let max = series.points.iter().map(|p| p.max).max().unwrap_or(0);
            let last = series.points.last().map_or(0, |p| p.last);
            let i = index_for(&mut rows.history, &series.name);
            let _ = snmp::TableBuilder::new(mib, history_entry())
                .row(&[i])
                .col(1, BerValue::from(series.name.as_str()))
                .col(2, BerValue::from(series.kind.as_str()))
                .col(3, scale(last))
                .col(4, scale(avg))
                .col(5, scale(min))
                .col(6, scale(max))
                .col(7, BerValue::Counter32(history.total_pushed() as u32))
                .finish();
        }
    }

    /// Publishes every alert rule's state into the `mbdAlerts` table
    /// (see [`mbd_history_root`]), one row per rule in configuration
    /// order. No-op when no alert engine is installed.
    pub fn refresh_alerts(&self) {
        let Some(engine) = self.process.telemetry().alerts() else { return };
        let mib = self.process.mib();
        for (i, st) in engine.states().iter().enumerate() {
            let scale = if st.metric.ends_with(".p50") || st.metric.ends_with(".p99") {
                gauge_us(st.value)
            } else {
                BerValue::Gauge32(u32::try_from(st.value).unwrap_or(u32::MAX))
            };
            let _ = snmp::TableBuilder::new(mib, alerts_entry())
                .row(&[i as u32 + 1])
                .col(1, BerValue::from(st.rule.as_str()))
                .col(2, BerValue::from(st.metric.as_str()))
                .col(3, BerValue::Integer(i64::from(st.firing)))
                .col(4, scale)
                .col(5, BerValue::Gauge32(u32::try_from(st.since_s).unwrap_or(u32::MAX)))
                .col(6, BerValue::Counter32(u32::try_from(st.fired_count).unwrap_or(u32::MAX)))
                .finish();
        }
    }

    /// Publishes per-dpi resource accounts into the `mbdDpiAccounting`
    /// table (see [`mbd_accounting_root`]), one row per live dpi indexed
    /// by dpi id, and retracts the rows of dpis that left the table. A
    /// manager — or a delegated watchdog agent — reads who is consuming
    /// what with ordinary `mib_walk`.
    pub fn refresh_accounting(&self) {
        let mib = self.process.mib();
        let c32 = |v: u64| BerValue::Counter32(u32::try_from(v).unwrap_or(u32::MAX));
        let rows = self.process.account_rows();
        // The name column lists every published row; drop all twelve
        // columns of any id no longer among the (id-sorted) live rows.
        let names = accounting_entry().child(1);
        for (oid, _) in mib.walk(&names) {
            let Some(&[id]) = oid.strip_prefix(&names) else { continue };
            if rows.binary_search_by_key(&id, |r| r.id.0 as u32).is_err() {
                for col in 1..=12 {
                    mib.remove(&accounting_entry().child(col).child(id));
                }
            }
        }
        for row in rows {
            let a = row.account;
            let _ = snmp::TableBuilder::new(mib, accounting_entry())
                .row(&[row.id.0 as u32])
                .col(1, BerValue::from(row.dp_name.as_str()))
                .col(2, BerValue::Integer(row.state.code()))
                .col(3, c32(a.invocations_ok))
                .col(4, c32(a.invocations_failed))
                .col(5, c32(a.busy_ns / 1_000))
                .col(6, c32(a.vm_fuel))
                .col(7, c32(a.bytes_in))
                .col(8, c32(a.bytes_out))
                .col(9, c32(a.notifications))
                .col(10, c32(a.log_lines))
                .col(11, c32(a.queue_drops))
                .col(12, BerValue::from(format!("{:016x}", a.last_trace_id).as_str()))
                .finish();
        }
    }

    /// Publishes the VM profiler's aggregated block samples into the
    /// `mbdProfile` table (see [`mbd_profile_root`]): what each dpi's
    /// delegated code spends its fuel and wall time *on*, readable by
    /// the same `mib_walk` a delegated watchdog agent already uses.
    pub fn refresh_profile(&self) {
        let mib = self.process.mib();
        let c32 = |v: u64| BerValue::Counter32(u32::try_from(v).unwrap_or(u32::MAX));
        let mut rank = 0u32;
        let mut last_dpi = 0u64;
        for (dpi, row) in self.process.profile_rows() {
            if dpi != last_dpi {
                last_dpi = dpi;
                rank = 0;
            }
            rank += 1;
            let _ = snmp::TableBuilder::new(mib, profile_entry())
                .row(&[dpi as u32, rank])
                .col(1, BerValue::from(row.stack.join(";").as_str()))
                .col(2, BerValue::Gauge32(row.leader_ip))
                .col(3, c32(row.samples))
                .col(4, c32(row.fuel))
                .col(5, c32(row.wall_ns / 1_000))
                .finish();
        }
    }

    /// Publishes the telemetry registry into the `mbdTelemetry` tables
    /// (see [`mbd_telemetry_root`]). Delegated agents compute the
    /// server's own health functions from this subtree with ordinary
    /// `mib_get`/`mib_walk` — introspection needs no new protocol verb.
    pub fn refresh_telemetry(&self) {
        self.process.refresh_gauges();
        let snap = self.process.telemetry().snapshot();
        let mib = self.process.mib();
        let mut rows = self.telemetry_rows.lock();

        for (name, value) in &snap.counters {
            let i = index_for(&mut rows.counters, name);
            let _ = snmp::TableBuilder::new(mib, telemetry_counter_entry())
                .row(&[i])
                .col(1, BerValue::from(name.as_str()))
                .col(2, BerValue::Counter32(*value as u32))
                .finish();
        }
        for (name, value) in &snap.gauges {
            let i = index_for(&mut rows.gauges, name);
            let _ = snmp::TableBuilder::new(mib, telemetry_gauge_entry())
                .row(&[i])
                .col(1, BerValue::from(name.as_str()))
                .col(2, BerValue::Gauge32(u32::try_from(*value).unwrap_or(u32::MAX)))
                .finish();
        }
        for (name, hist) in &snap.histograms {
            let i = index_for(&mut rows.histograms, name);
            let _ = snmp::TableBuilder::new(mib, telemetry_hist_entry())
                .row(&[i])
                .col(1, BerValue::from(name.as_str()))
                .col(2, BerValue::Counter32(hist.count() as u32))
                .col(3, gauge_us(hist.mean_ns()))
                .col(4, gauge_us(hist.p50_ns()))
                .col(5, gauge_us(hist.p90_ns()))
                .col(6, gauge_us(hist.p99_ns()))
                .col(7, gauge_us(hist.max_ns))
                .finish();
            // Cumulative distribution, non-empty buckets only. Bucket
            // counts are monotone, so rows never need retraction.
            let mut cumulative = 0u64;
            let mut b = snmp::TableBuilder::new(mib, telemetry_bucket_entry());
            for (bucket, &count) in hist.counts.iter().enumerate() {
                cumulative += count;
                if count == 0 {
                    continue;
                }
                b = b
                    .row(&[i, bucket as u32])
                    .col(1, gauge_us(mbd_telemetry::bucket_bound_ns(bucket)))
                    .col(2, BerValue::Counter32(cumulative as u32));
            }
            let _ = b.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElasticConfig;
    use snmp::manager::SnmpManager;

    #[test]
    fn snmp_manager_sees_server_state() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("a", "fn main() { return 0; }").unwrap();
        p.delegate("b", "fn main() { return 1; }").unwrap();
        let dpi = p.instantiate("a").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.advance_ticks(100);

        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let req = mgr
            .get_request(&[stored_programs(), live_instances(), invocations_ok(), mbd_uptime()])
            .unwrap();
        let resp = ocp.handle(&req).unwrap();
        let vbs = mgr.parse_response(&resp).unwrap();
        assert_eq!(vbs[0].value, BerValue::Gauge32(2));
        assert_eq!(vbs[1].value, BerValue::Gauge32(1));
        assert_eq!(vbs[2].value, BerValue::Counter32(1));
        assert_eq!(vbs[3].value, BerValue::TimeTicks(100));
    }

    #[test]
    fn device_and_server_data_share_one_mib() {
        let p = ElasticProcess::new(ElasticConfig::default());
        snmp::mib2::install_system(p.mib(), "device", "d1").unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        // A walk from the mib-2 root sees device data; from the private
        // root it sees server state.
        let rows = mgr.walk(&snmp::mib2::mib2_root(), |req| ocp.handle(req)).unwrap();
        assert!(rows.iter().any(|vb| vb.oid == snmp::mib2::sys_descr()));
        let rows = mgr.walk(&mbd_server_root(), |req| ocp.handle(req)).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn queue_losses_are_visible_to_snmp_managers() {
        let p = ElasticProcess::new(ElasticConfig {
            notification_capacity: 2,
            ..ElasticConfig::default()
        });
        p.delegate("chatty", "fn main(x) { notify(x); return 0; }").unwrap();
        let dpi = p.instantiate("chatty").unwrap();
        for i in 0..5 {
            p.invoke(dpi, "main", &[dpl::Value::Int(i)]).unwrap();
        }
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let req =
            mgr.get_request(&[instantiations(), notifications_dropped(), log_dropped()]).unwrap();
        let resp = ocp.handle(&req).unwrap();
        let vbs = mgr.parse_response(&resp).unwrap();
        assert_eq!(vbs[0].value, BerValue::Counter32(1));
        assert_eq!(vbs[1].value, BerValue::Counter32(3));
        assert_eq!(vbs[2].value, BerValue::Counter32(0));
    }

    #[test]
    fn counters_advance_with_activity() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        assert_eq!(p.mib().get(&invocations_failed()), Some(BerValue::Counter32(0)));
        p.delegate("f", "fn main() { return 1 / 0; }").unwrap();
        let dpi = p.instantiate("f").unwrap();
        let _ = p.invoke(dpi, "main", &[]);
        ocp.refresh();
        assert_eq!(p.mib().get(&invocations_failed()), Some(BerValue::Counter32(1)));
    }

    #[test]
    fn telemetry_subtree_exports_histograms_counters_and_gauges() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("a", "fn main() { notify(\"hi\"); return 0; }").unwrap();
        let dpi = p.instantiate("a").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        let mib = p.mib();

        // Find ep.invoke's histogram row by its name column.
        let names = mib.walk(&telemetry_hist_entry().child(1));
        let (name_oid, _) = names
            .iter()
            .find(|(_, v)| *v == BerValue::from("ep.invoke"))
            .expect("ep.invoke summary row");
        let idx = *name_oid.as_slice().last().unwrap();
        let col = |c: u32| mib.get(&telemetry_hist_entry().child(c).child(idx)).unwrap();
        assert_eq!(col(2), BerValue::Counter32(2), "count column");
        assert!(matches!(col(6), BerValue::Gauge32(_)), "p99 column");
        // Its cumulative bucket rows exist and end at the total count.
        let buckets = mib.walk(&telemetry_bucket_entry().child(2).child(idx));
        assert!(!buckets.is_empty());
        assert_eq!(buckets.last().unwrap().1, BerValue::Counter32(2));

        // The refreshed queue-depth gauge is visible with its name.
        let gauges = mib.walk(&telemetry_gauge_entry().child(1));
        let (g_oid, _) = gauges
            .iter()
            .find(|(_, v)| *v == BerValue::from("ep.notifications_queued"))
            .expect("gauge row");
        let g_idx = *g_oid.as_slice().last().unwrap();
        assert_eq!(
            mib.get(&telemetry_gauge_entry().child(2).child(g_idx)),
            Some(BerValue::Gauge32(2))
        );
    }

    #[test]
    fn telemetry_row_indices_are_stable_across_refreshes() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("a", "fn main() { return 0; }").unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        let find_invoke_row = || {
            p.mib()
                .walk(&telemetry_hist_entry().child(1))
                .into_iter()
                .find(|(_, v)| *v == BerValue::from("ep.delegate"))
                .map(|(oid, _)| oid)
        };
        let before = find_invoke_row().expect("row after first refresh");
        // New metrics appearing later must not shift existing rows.
        let dpi = p.instantiate("a").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        ocp.refresh();
        assert_eq!(find_invoke_row().unwrap(), before);
    }

    #[test]
    fn snmp_manager_walks_the_telemetry_subtree_cleanly() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("a", "fn main() { return 0; }").unwrap();
        let dpi = p.instantiate("a").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let rows = mgr.walk(&mbd_telemetry_root(), |req| ocp.handle(req)).unwrap();
        // Every row sits under the telemetry root and has a value.
        assert!(!rows.is_empty());
        for vb in &rows {
            assert!(vb.oid.starts_with(&mbd_telemetry_root()), "{} escaped the subtree", vb.oid);
        }
        // Counter, gauge, histogram and bucket tables all have rows.
        for arc in 1..=4u32 {
            let prefix = mbd_telemetry_root().child(arc);
            assert!(rows.iter().any(|vb| vb.oid.starts_with(&prefix)), "no rows under table {arc}");
        }
    }

    #[test]
    fn accounting_table_reports_per_dpi_usage() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("w", "fn main() { log(\"x\"); return 0; }").unwrap();
        let a = p.instantiate("w").unwrap();
        let b = p.instantiate("w").unwrap();
        p.invoke(a, "main", &[]).unwrap();
        p.invoke(a, "main", &[]).unwrap();
        p.invoke(b, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        let mib = p.mib();
        let col =
            |c: u32, id: crate::DpiId| mib.get(&accounting_entry().child(c).child(id.0 as u32));
        assert_eq!(col(1, a), Some(BerValue::from("w")));
        assert_eq!(col(3, a), Some(BerValue::Counter32(2)));
        assert_eq!(col(3, b), Some(BerValue::Counter32(1)));
        assert_eq!(col(4, a), Some(BerValue::Counter32(0)));
        assert_eq!(col(10, a), Some(BerValue::Counter32(2)), "two log lines");
        // Untraced local invocations leave an all-zero last trace id.
        assert_eq!(col(12, a), Some(BerValue::from("0000000000000000")));
        // Fuel was consumed and published.
        assert!(matches!(col(6, a), Some(BerValue::Counter32(f)) if f > 0));
    }

    #[test]
    fn snmp_manager_walks_the_accounting_subtree() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("w", "fn main() { return 0; }").unwrap();
        let dpi = p.instantiate("w").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let rows = mgr.walk(&mbd_accounting_root(), |req| ocp.handle(req)).unwrap();
        // Twelve columns for the one live dpi.
        assert_eq!(rows.len(), 12);
        for vb in &rows {
            assert!(vb.oid.starts_with(&mbd_accounting_root()), "{} escaped", vb.oid);
        }
    }

    #[test]
    fn a_terminated_dpi_leaves_no_accounting_row() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("w", "fn main() { return 0; }").unwrap();
        let (a, b) = (p.instantiate("w").unwrap(), p.instantiate("w").unwrap());
        p.invoke(a, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        assert_eq!(p.mib().walk(&mbd_accounting_root()).len(), 24, "two rows published");
        p.terminate(a).unwrap();
        ocp.refresh();
        let rows = p.mib().walk(&mbd_accounting_root());
        assert_eq!(rows.len(), 12, "only b's row is left");
        assert!(rows.iter().all(|(oid, _)| oid.as_slice().last() == Some(&(b.0 as u32))));
        p.terminate(b).unwrap();
        ocp.refresh();
        assert!(p.mib().walk(&mbd_accounting_root()).is_empty(), "stale rows were retracted");
    }

    #[test]
    fn profile_subtree_exports_block_samples_per_dpi() {
        let p =
            ElasticProcess::new(ElasticConfig { profile_sample: 1, ..ElasticConfig::default() });
        p.delegate("hot", "fn main(n) { var i = 0; while (i < n) { i = i + 1; } return i; }")
            .unwrap();
        let dpi = p.instantiate("hot").unwrap();
        p.invoke(dpi, "main", &[dpl::Value::Int(2_000)]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let rows = mgr.walk(&mbd_profile_root(), |req| ocp.handle(req)).unwrap();
        assert!(!rows.is_empty(), "profiled dpi published no rows");
        for vb in &rows {
            assert!(vb.oid.starts_with(&mbd_profile_root()), "{} escaped", vb.oid);
        }
        // The hottest row (rank 1) names main's loop and carries weight.
        let mib = p.mib();
        let col = |c: u32| mib.get(&profile_entry().child(c).child(dpi.0 as u32).child(1));
        assert_eq!(col(1), Some(BerValue::from("main")));
        assert!(matches!(col(3), Some(BerValue::Counter32(s)) if s > 1_000));
        assert!(matches!(col(4), Some(BerValue::Counter32(f)) if f > 0));
    }

    #[test]
    fn unprofiled_process_publishes_no_profile_rows() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("f", "fn main() { return 0; }").unwrap();
        let dpi = p.instantiate("f").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        assert!(p.mib().walk(&mbd_profile_root()).is_empty());
    }

    #[test]
    fn history_subtree_exports_windowed_summaries() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let tel = p.telemetry();
        tel.enable_history(mbd_telemetry::HistoryConfig::default());
        // Three deterministic gauge samples: window min 3, max 9, last 9.
        let h = tel.history().unwrap();
        for (t, v) in [(1u64, 3u64), (2, 6), (3, 9)] {
            h.record("ep.backlog", mbd_telemetry::SeriesKind::Gauge, t, v);
        }
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        let mib = p.mib();
        let names = mib.walk(&history_entry().child(1));
        let (oid, _) = names
            .iter()
            .find(|(_, v)| *v == BerValue::from("ep.backlog"))
            .expect("series row published");
        let idx = *oid.as_slice().last().unwrap();
        let col = |c: u32| mib.get(&history_entry().child(c).child(idx)).unwrap();
        assert_eq!(col(2), BerValue::from("gauge"));
        assert_eq!(col(3), BerValue::Gauge32(9), "last");
        assert_eq!(col(4), BerValue::Gauge32(6), "avg");
        assert_eq!(col(5), BerValue::Gauge32(3), "min");
        assert_eq!(col(6), BerValue::Gauge32(9), "max");
    }

    #[test]
    fn alerts_subtree_tracks_rule_state() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let tel = p.telemetry();
        tel.enable_history(mbd_telemetry::HistoryConfig::default());
        tel.enable_alerts(vec![
            mbd_telemetry::AlertRule::parse("ep.backlog>10:for=1,clear=1").unwrap()
        ]);
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        let mib = p.mib();
        let col = |c: u32| mib.get(&alerts_entry().child(c).child(1)).unwrap();
        assert_eq!(col(3), BerValue::Integer(0), "not firing before data");
        // Drive a breach and re-evaluate.
        tel.gauge("ep.backlog").set(99);
        let edges = tel.sample_and_evaluate();
        assert_eq!(edges.len(), 1);
        ocp.refresh();
        assert_eq!(col(1), BerValue::from("ep.backlog>10:for=1,clear=1"));
        assert_eq!(col(2), BerValue::from("ep.backlog"));
        assert_eq!(col(3), BerValue::Integer(1), "firing");
        assert_eq!(col(4), BerValue::Gauge32(99));
        assert_eq!(col(6), BerValue::Counter32(1));
    }

    #[test]
    fn snmp_manager_walks_the_history_subtree() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let tel = p.telemetry();
        tel.enable_history(mbd_telemetry::HistoryConfig::default());
        tel.enable_alerts(vec![
            mbd_telemetry::AlertRule::parse("ep.live_instances>100:for=2").unwrap()
        ]);
        p.delegate("w", "fn main() { return 0; }").unwrap();
        let dpi = p.instantiate("w").unwrap();
        p.invoke(dpi, "main", &[]).unwrap();
        p.refresh_gauges();
        tel.sample_and_evaluate();
        let ocp = SnmpOcp::new(p.clone(), "public");
        let mut mgr = SnmpManager::new("public");
        let rows = mgr.walk(&mbd_history_root(), |req| ocp.handle(req)).unwrap();
        assert!(!rows.is_empty(), "history subtree published no rows");
        for vb in &rows {
            assert!(vb.oid.starts_with(&mbd_history_root()), "{} escaped", vb.oid);
        }
        // Both the history table and the alerts table have rows.
        assert!(rows.iter().any(|vb| vb.oid.starts_with(&history_entry())));
        assert!(rows.iter().any(|vb| vb.oid.starts_with(&alerts_entry())));
    }

    #[test]
    fn history_off_publishes_no_rows() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let ocp = SnmpOcp::new(p.clone(), "public");
        ocp.refresh();
        assert!(p.mib().walk(&mbd_history_root()).is_empty());
    }

    #[test]
    fn wrong_community_still_dropped() {
        let p = ElasticProcess::new(ElasticConfig::default());
        let ocp = SnmpOcp::new(p, "private");
        let mut mgr = SnmpManager::new("public");
        let req = mgr.get_request(&[stored_programs()]).unwrap();
        assert!(ocp.handle(&req).is_none());
    }
}
