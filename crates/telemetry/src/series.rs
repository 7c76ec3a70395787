//! Metrics time-series history: multi-resolution rings over registry
//! snapshots.
//!
//! The registry (PR 2) answers "what is the value *now*"; a delegated
//! health function wants "what happened over the last two minutes". This
//! module retains that history in-server, the way the agent-based
//! MIB-collection literature delegates buffering to the element: once a
//! second a sample walks a [`RegistrySnapshot`] and
//! appends one point per metric into three fixed-capacity rings —
//! 1 s × 120, 10 s × 180 and 60 s × 240 by default — with coarser rings
//! downsampled to `min`/`max`/`avg`/`last`. Counters are recorded as
//! *derived per-second rates* (the delta between consecutive samples);
//! gauges as their value; histograms as their `p50`/`p99` quantiles in
//! nanoseconds (series `<name>.p50`, `<name>.p99`).
//!
//! Each resolution is a [`Ring`] — the same drop-oldest primitive as
//! the notification outbox and the trace ring — so `dropped = pushed -
//! len` is exact even under concurrent recorders.

use crate::{RegistrySnapshot, Ring};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// Ring resolutions, seconds per slot, finest first.
pub const RESOLUTIONS: [u64; 3] = [1, 10, 60];

/// Ring capacities (points per resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Points retained at 1 s / 10 s / 60 s resolution (each min 1).
    pub caps: [usize; 3],
}

impl Default for HistoryConfig {
    fn default() -> HistoryConfig {
        HistoryConfig { caps: [120, 180, 240] }
    }
}

impl HistoryConfig {
    /// Scales all three rings from one knob (the `--history-cap` flag):
    /// `cap` points at 1 s, `1.5 × cap` at 10 s, `2 × cap` at 60 s —
    /// the default shape (120/180/240) comes from `cap = 120`.
    pub fn with_base_cap(cap: usize) -> HistoryConfig {
        HistoryConfig { caps: [cap, cap + cap / 2, cap * 2] }
    }
}

/// One retained sample (or downsampled bucket of samples).
///
/// At 1 s resolution `min == max == avg == last`; coarser points
/// aggregate every finer sample that fell in their window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Window start, seconds since the telemetry epoch.
    pub t_s: u64,
    pub min: u64,
    pub max: u64,
    pub avg: u64,
    pub last: u64,
}

impl Point {
    fn of(t_s: u64, v: u64) -> Point {
        Point { t_s, min: v, max: v, avg: v, last: v }
    }
}

/// What a series' values mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Derived per-second counter rate.
    Rate,
    /// Sampled gauge value.
    Gauge,
    /// Sampled histogram quantile, nanoseconds.
    Quantile,
}

impl SeriesKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Quantile => "quantile",
        }
    }
}

/// A queried slice of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesView {
    pub name: String,
    pub kind: SeriesKind,
    pub points: Vec<Point>,
}

/// An in-progress downsampling bucket for one coarse resolution.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start_s: u64,
    min: u64,
    max: u64,
    sum: u128,
    count: u64,
    last: u64,
}

impl Bucket {
    fn open(start_s: u64, v: u64) -> Bucket {
        Bucket { start_s, min: v, max: v, sum: u128::from(v), count: 1, last: v }
    }

    fn add(&mut self, v: u64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v);
        self.count += 1;
        self.last = v;
    }

    fn finish(&self) -> Point {
        let avg = (self.sum / u128::from(self.count.max(1))) as u64;
        Point { t_s: self.start_s, min: self.min, max: self.max, avg, last: self.last }
    }
}

#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    rings: [Ring<Point>; 3],
    /// Open (not yet rolled) buckets for the 10 s and 60 s rings.
    open: [Option<Bucket>; 2],
}

impl Series {
    fn new(kind: SeriesKind, config: &HistoryConfig) -> Series {
        Series { kind, rings: config.caps.map(Ring::new), open: [None, None] }
    }

    fn record(&mut self, t_s: u64, v: u64) {
        self.rings[0].push(Point::of(t_s, v));
        for (i, res) in RESOLUTIONS.iter().enumerate().skip(1) {
            let start = t_s - t_s % res;
            match &mut self.open[i - 1] {
                Some(b) if b.start_s == start => b.add(v),
                slot => {
                    if let Some(b) = slot.take() {
                        self.rings[i].push(b.finish());
                    }
                    *slot = Some(Bucket::open(start, v));
                }
            }
        }
    }

    /// Points at ring `idx` no older than `cutoff_s`, including the
    /// still-open bucket (so coarse windows are visible before they
    /// roll).
    fn window(&self, idx: usize, cutoff_s: u64) -> Vec<Point> {
        let mut out: Vec<Point> = self.rings[idx]
            .read(|_, points| points.iter().filter(|p| p.t_s >= cutoff_s).copied().collect());
        if idx > 0 {
            if let Some(b) = &self.open[idx - 1] {
                if b.start_s >= cutoff_s {
                    out.push(b.finish());
                }
            }
        }
        out
    }
}

#[derive(Debug)]
struct HistoryInner {
    config: HistoryConfig,
    series: BTreeMap<String, Series>,
    /// Per-counter previous (t_s, cumulative) for rate derivation.
    prev: HashMap<String, (u64, u64)>,
    samples: u64,
}

/// The retained time-series store behind one telemetry domain.
///
/// Feed it with [`History::sample`] (typically once a second, through
/// [`crate::Telemetry::sample_and_evaluate`] from the `mbd-server` 1 s
/// loop) and read it back with [`History::query`].
#[derive(Debug)]
pub struct History {
    inner: Mutex<HistoryInner>,
}

impl History {
    pub fn new(config: HistoryConfig) -> History {
        History {
            inner: Mutex::new(HistoryInner {
                config,
                series: BTreeMap::new(),
                prev: HashMap::new(),
                samples: 0,
            }),
        }
    }

    /// Appends one explicit point (test and embedder hook; `sample` is
    /// the normal producer).
    pub fn record(&self, name: &str, kind: SeriesKind, t_s: u64, value: u64) {
        let mut g = self.inner.lock();
        let config = g.config;
        g.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(kind, &config))
            .record(t_s, value);
    }

    /// Ingests one registry snapshot taken at `t_s` seconds since the
    /// telemetry epoch: counters become per-second rates, gauges their
    /// value, histograms their `p50`/`p99` quantile series.
    pub fn sample(&self, snap: &RegistrySnapshot, t_s: u64) {
        let mut g = self.inner.lock();
        let config = g.config;
        g.samples += 1;
        for (name, value) in &snap.counters {
            let rate = match g.prev.insert(name.clone(), (t_s, *value)) {
                Some((pt, pv)) if t_s > pt => value.saturating_sub(pv) / (t_s - pt),
                Some(_) => continue, // zero-length interval: nothing to derive
                None => continue,    // first sample: no delta yet
            };
            g.series
                .entry(name.clone())
                .or_insert_with(|| Series::new(SeriesKind::Rate, &config))
                .record(t_s, rate);
        }
        for (name, value) in &snap.gauges {
            g.series
                .entry(name.clone())
                .or_insert_with(|| Series::new(SeriesKind::Gauge, &config))
                .record(t_s, *value);
        }
        for (name, hist) in &snap.histograms {
            if hist.is_empty() {
                continue;
            }
            for (suffix, q) in [(".p50", 0.50), (".p99", 0.99)] {
                g.series
                    .entry(format!("{name}{suffix}"))
                    .or_insert_with(|| Series::new(SeriesKind::Quantile, &config))
                    .record(t_s, hist.quantile_ns(q));
            }
        }
    }

    /// Series matching `pattern` (see [`pattern_matches`]), restricted
    /// to the last `range_s` seconds (0 = everything retained) at the
    /// ring whose resolution is closest to `res_s` from below.
    pub fn query(&self, pattern: &str, range_s: u64, res_s: u64, now_s: u64) -> Vec<SeriesView> {
        let idx = match res_s {
            r if r >= 60 => 2,
            r if r >= 10 => 1,
            _ => 0,
        };
        let cutoff = if range_s == 0 { 0 } else { now_s.saturating_sub(range_s) };
        let g = self.inner.lock();
        g.series
            .iter()
            .filter(|(name, _)| pattern_matches(pattern, name))
            .map(|(name, s)| SeriesView {
                name: name.clone(),
                kind: s.kind,
                points: s.window(idx, cutoff),
            })
            .filter(|v| !v.points.is_empty())
            .collect()
    }

    /// Every retained series name with its kind.
    pub fn names(&self) -> Vec<(String, SeriesKind)> {
        self.inner.lock().series.iter().map(|(n, s)| (n.clone(), s.kind)).collect()
    }

    /// Samples ingested so far.
    pub fn samples(&self) -> u64 {
        self.inner.lock().samples
    }

    /// Points evicted across all rings of all series (`pushed - len`
    /// summed; exact under concurrent recorders).
    pub fn total_dropped(&self) -> u64 {
        self.inner
            .lock()
            .series
            .values()
            .map(|s| s.rings.iter().map(Ring::dropped).sum::<u64>())
            .sum()
    }

    /// Total points pushed across all rings of all series.
    pub fn total_pushed(&self) -> u64 {
        self.inner
            .lock()
            .series
            .values()
            .map(|s| s.rings.iter().map(Ring::pushed).sum::<u64>())
            .sum()
    }
}

/// `*`-glob match: `*` matches any run (including empty); empty pattern
/// matches everything. `rds.verb.*` and `*.p99` work the way you expect.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    if pattern.is_empty() || pattern == "*" {
        return true;
    }
    if !pattern.contains('*') {
        return pattern == name;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut rest = name;
    if !parts[0].is_empty() {
        match rest.strip_prefix(parts[0]) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    let last = parts[parts.len() - 1];
    if !last.is_empty() {
        match rest.strip_suffix(last) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    for part in &parts[1..parts.len() - 1] {
        if part.is_empty() {
            continue;
        }
        match rest.find(part) {
            Some(at) => rest = &rest[at + part.len()..],
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn gauge_samples_land_in_the_fine_ring() {
        let h = History::new(HistoryConfig::default());
        for t in 0..5 {
            h.record("ep.live", SeriesKind::Gauge, t, t * 10);
        }
        let v = h.query("ep.live", 0, 1, 5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].points.len(), 5);
        assert_eq!(v[0].points[4].last, 40);
    }

    #[test]
    fn counters_become_rates_after_the_second_sample() {
        let reg = Registry::new();
        let h = History::new(HistoryConfig::default());
        let c = reg.counter("rds.request");
        c.add(100);
        h.sample(&reg.snapshot(), 10);
        assert!(h.query("rds.request", 0, 1, 10).is_empty(), "first sample has no delta");
        c.add(50);
        h.sample(&reg.snapshot(), 12);
        let v = h.query("rds.request", 0, 1, 12);
        assert_eq!(v[0].kind, SeriesKind::Rate);
        assert_eq!(v[0].points.last().unwrap().last, 25, "50 over 2 s");
    }

    #[test]
    fn histograms_sample_p50_and_p99() {
        let reg = Registry::new();
        let h = History::new(HistoryConfig::default());
        let hist = reg.histogram("rds.verb.invoke");
        for _ in 0..100 {
            hist.record(1_000);
        }
        h.sample(&reg.snapshot(), 1);
        let names: Vec<String> = h.names().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"rds.verb.invoke.p50".to_string()));
        assert!(names.contains(&"rds.verb.invoke.p99".to_string()));
    }

    #[test]
    fn downsampled_buckets_roll_into_coarse_rings() {
        let h = History::new(HistoryConfig::default());
        // 25 one-second samples: the 10 s ring gets two closed buckets
        // (0..10, 10..20) plus one open (20..25) visible in queries.
        for t in 0..25u64 {
            h.record("g", SeriesKind::Gauge, t, t);
        }
        let v = h.query("g", 0, 10, 25);
        let pts = &v[0].points;
        assert_eq!(pts.len(), 3);
        assert_eq!((pts[0].min, pts[0].max, pts[0].avg, pts[0].last), (0, 9, 4, 9));
        assert_eq!((pts[1].min, pts[1].max, pts[1].last), (10, 19, 19));
        assert_eq!(pts[2].t_s, 20, "open bucket surfaces before rolling");
    }

    #[test]
    fn range_queries_cut_old_points() {
        let h = History::new(HistoryConfig::default());
        for t in 0..100u64 {
            h.record("g", SeriesKind::Gauge, t, t);
        }
        let v = h.query("g", 10, 1, 100);
        assert_eq!(v[0].points.len(), 10);
        assert!(v[0].points.iter().all(|p| p.t_s >= 90));
    }

    #[test]
    fn glob_patterns() {
        assert!(pattern_matches("", "anything"));
        assert!(pattern_matches("*", "anything"));
        assert!(pattern_matches("rds.verb.*", "rds.verb.invoke"));
        assert!(!pattern_matches("rds.verb.*", "ep.invoke"));
        assert!(pattern_matches("*.p99", "rds.request.p99"));
        assert!(!pattern_matches("*.p99", "rds.request.p50"));
        assert!(pattern_matches("rds.*.p99", "rds.request.p99"));
        assert!(pattern_matches("ep.invoke", "ep.invoke"));
        assert!(!pattern_matches("ep.invoke", "ep.invoke.p50"));
    }

    #[test]
    fn zero_length_interval_derives_no_rate() {
        let reg = Registry::new();
        let h = History::new(HistoryConfig::default());
        reg.counter("c").add(5);
        h.sample(&reg.snapshot(), 3);
        reg.counter("c").add(5);
        h.sample(&reg.snapshot(), 3);
        assert!(h.query("c", 0, 1, 3).is_empty());
    }
}
