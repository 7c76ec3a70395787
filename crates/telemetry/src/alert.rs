//! Server-side SLO alert rules over the metrics history.
//!
//! The paper's thesis is that threshold watches belong *at the device*;
//! this engine evaluates them in-server against [`History`]
//! so a manager only hears about *transitions*. Two rule shapes:
//!
//! - **threshold** — the latest 1 s sample breaches a bound
//!   (`rds.request.p99>50ms`);
//! - **windowed burn-rate** — the average over a trailing window
//!   breaches it (`ep.quota_breaches>0@30s`: the per-second breach rate
//!   averaged over 30 s), the SLO burn-rate idiom.
//!
//! Both carry **hysteresis**: a rule must breach `for` consecutive
//! evaluations before it fires and hold clean for `clear` consecutive
//! evaluations before it clears, so a flapping metric produces one
//! fire/clear pair, not a storm. Transitions are returned to the caller
//! — `mbd-server`'s 1 s loop, which samples, evaluates, and then
//! journals, notifies and trips the flight recorder in one iteration.
//!
//! Rule grammar (the `mbd-server --alert` flag):
//!
//! ```text
//! METRIC(>|<)THRESHOLD[@WINDOWs][:for=N][,clear=M]
//! ```
//!
//! `THRESHOLD` takes latency suffixes `ns`/`us`/`ms`/`s` (stored as
//! nanoseconds, matching quantile series); bare integers for counts and
//! rates. Defaults: `for=2`, `clear=2`.

use crate::series::History;
use parking_lot::Mutex;

/// Breach direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertOp {
    Above,
    Below,
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// The series the rule watches (exact name, no globs).
    pub metric: String,
    pub op: AlertOp,
    pub threshold: u64,
    /// Trailing-average window in seconds; 0 = instantaneous threshold.
    pub window_s: u64,
    /// Consecutive breaching evaluations required to fire.
    pub for_n: u32,
    /// Consecutive clean evaluations required to clear.
    pub clear_n: u32,
    /// The rule as written (journal/display handle).
    pub text: String,
}

impl AlertRule {
    /// Parses the `--alert` grammar (see module docs).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax problem.
    pub fn parse(s: &str) -> Result<AlertRule, String> {
        let (op, at) = match (s.find('>'), s.find('<')) {
            (Some(g), Some(l)) if g < l => (AlertOp::Above, g),
            (Some(_), Some(l)) => (AlertOp::Below, l),
            (Some(g), None) => (AlertOp::Above, g),
            (None, Some(l)) => (AlertOp::Below, l),
            (None, None) => return Err(format!("rule '{s}': expected '>' or '<'")),
        };
        let metric = s[..at].trim();
        if metric.is_empty() {
            return Err(format!("rule '{s}': empty metric name"));
        }
        let rest = &s[at + 1..];
        let (value_part, hyst_part) = match rest.split_once(':') {
            Some((v, h)) => (v, Some(h)),
            None => (rest, None),
        };
        let (threshold_str, window_s) = match value_part.split_once('@') {
            Some((t, w)) => {
                let w = w.strip_suffix('s').unwrap_or(w);
                let w: u64 = w.parse().map_err(|_| format!("rule '{s}': bad window '{w}'"))?;
                (t.trim(), w)
            }
            None => (value_part.trim(), 0),
        };
        let threshold = parse_threshold(threshold_str)
            .ok_or_else(|| format!("rule '{s}': bad threshold '{threshold_str}'"))?;
        let (mut for_n, mut clear_n) = (2u32, 2u32);
        if let Some(h) = hyst_part {
            for kv in h.split(',') {
                match kv.trim().split_once('=') {
                    Some(("for", n)) => {
                        for_n = n.parse().map_err(|_| format!("rule '{s}': bad for={n}"))?;
                    }
                    Some(("clear", n)) => {
                        clear_n = n.parse().map_err(|_| format!("rule '{s}': bad clear={n}"))?;
                    }
                    _ => return Err(format!("rule '{s}': unknown option '{kv}'")),
                }
            }
        }
        if for_n == 0 || clear_n == 0 {
            return Err(format!("rule '{s}': for/clear must be >= 1"));
        }
        Ok(AlertRule {
            metric: metric.to_string(),
            op,
            threshold,
            window_s,
            for_n,
            clear_n,
            text: s.to_string(),
        })
    }
}

fn parse_threshold(s: &str) -> Option<u64> {
    for (suffix, scale) in [("ns", 1u64), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)] {
        if let Some(num) = s.strip_suffix(suffix) {
            return num.parse::<u64>().ok().map(|v| v.saturating_mul(scale));
        }
    }
    s.parse().ok()
}

/// A fire or clear edge, ready to journal / notify / freeze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// The rule as written.
    pub rule: String,
    pub metric: String,
    /// `true` = fired, `false` = cleared.
    pub fired: bool,
    /// The evaluated value at the edge.
    pub value: u64,
    pub threshold: u64,
    /// Evaluation time, seconds since the telemetry epoch.
    pub t_s: u64,
}

/// A rule's current state, for `ReadMetrics` / OCP / `mbdctl top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertStateView {
    pub rule: String,
    pub metric: String,
    pub firing: bool,
    /// Most recently evaluated value (0 before any data).
    pub value: u64,
    /// When the current firing episode began (0 when not firing).
    pub since_s: u64,
    /// Lifetime fire count.
    pub fired_count: u64,
}

#[derive(Debug)]
struct AlertState {
    rule: AlertRule,
    firing: bool,
    breach_streak: u32,
    clean_streak: u32,
    value: u64,
    since_s: u64,
    fired_count: u64,
}

/// Evaluates a fixed rule set against the history store.
#[derive(Debug, Default)]
pub struct AlertEngine {
    states: Mutex<Vec<AlertState>>,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let engine = AlertEngine::default();
        for r in rules {
            engine.add_rule(r);
        }
        engine
    }

    pub fn add_rule(&self, rule: AlertRule) {
        self.states.lock().push(AlertState {
            rule,
            firing: false,
            breach_streak: 0,
            clean_streak: 0,
            value: 0,
            since_s: 0,
            fired_count: 0,
        });
    }

    /// Evaluates every rule against `history` at `now_s`. Returns the
    /// transitions this evaluation produced.
    ///
    /// A rule whose series has no data in scope is skipped (streaks
    /// hold): absence of samples is not evidence of recovery.
    pub fn evaluate(&self, history: &History, now_s: u64) -> Vec<AlertTransition> {
        let mut edges = Vec::new();
        for st in self.states.lock().iter_mut() {
            let Some(value) = eval_value(history, &st.rule, now_s) else { continue };
            st.value = value;
            let breached = match st.rule.op {
                AlertOp::Above => value > st.rule.threshold,
                AlertOp::Below => value < st.rule.threshold,
            };
            if breached {
                st.breach_streak += 1;
                st.clean_streak = 0;
            } else {
                st.clean_streak += 1;
                st.breach_streak = 0;
            }
            if !st.firing && st.breach_streak >= st.rule.for_n {
                st.firing = true;
                st.since_s = now_s;
                st.fired_count += 1;
                edges.push(AlertTransition {
                    rule: st.rule.text.clone(),
                    metric: st.rule.metric.clone(),
                    fired: true,
                    value,
                    threshold: st.rule.threshold,
                    t_s: now_s,
                });
            } else if st.firing && st.clean_streak >= st.rule.clear_n {
                st.firing = false;
                st.since_s = 0;
                edges.push(AlertTransition {
                    rule: st.rule.text.clone(),
                    metric: st.rule.metric.clone(),
                    fired: false,
                    value,
                    threshold: st.rule.threshold,
                    t_s: now_s,
                });
            }
        }
        edges
    }

    /// Every rule's current state.
    pub fn states(&self) -> Vec<AlertStateView> {
        self.states
            .lock()
            .iter()
            .map(|st| AlertStateView {
                rule: st.rule.text.clone(),
                metric: st.rule.metric.clone(),
                firing: st.firing,
                value: st.value,
                since_s: st.since_s,
                fired_count: st.fired_count,
            })
            .collect()
    }

    /// Number of rules currently firing.
    pub fn firing_count(&self) -> usize {
        self.states.lock().iter().filter(|s| s.firing).count()
    }
}

/// The value a rule sees: the latest 1 s sample, or the mean of the
/// trailing `window_s` of 1 s samples for burn-rate rules.
fn eval_value(history: &History, rule: &AlertRule, now_s: u64) -> Option<u64> {
    if rule.window_s == 0 {
        let v = history.query(&rule.metric, 0, 1, now_s);
        return v.first().and_then(|s| s.points.last()).map(|p| p.last);
    }
    let v = history.query(&rule.metric, rule.window_s, 1, now_s);
    let points = &v.first()?.points;
    if points.is_empty() {
        return None;
    }
    let sum: u128 = points.iter().map(|p| u128::from(p.avg)).sum();
    Some((sum / points.len() as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{HistoryConfig, SeriesKind};

    fn rule(s: &str) -> AlertRule {
        AlertRule::parse(s).expect("rule parses")
    }

    #[test]
    fn parse_threshold_forms() {
        let r = rule("rds.request.p99>50ms");
        assert_eq!(r.metric, "rds.request.p99");
        assert_eq!(r.op, AlertOp::Above);
        assert_eq!(r.threshold, 50_000_000);
        assert_eq!((r.window_s, r.for_n, r.clear_n), (0, 2, 2));

        let r = rule("ep.quota_breaches>0@30s:for=1,clear=4");
        assert_eq!((r.window_s, r.for_n, r.clear_n), (30, 1, 4));

        let r = rule("ep.live_instances<2:for=3");
        assert_eq!(r.op, AlertOp::Below);
        assert_eq!((r.threshold, r.for_n, r.clear_n), (2, 3, 2));
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        for bad in ["", "no-op-here", ">5", "m>abc", "m>1@xs", "m>1:for=0", "m>1:wat=2"] {
            assert!(AlertRule::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn fires_after_for_and_clears_after_clear() {
        let h = History::new(HistoryConfig::default());
        let e = AlertEngine::new(vec![rule("g>10:for=2,clear=3")]);
        // Two breaching samples -> exactly one fire on the second.
        h.record("g", SeriesKind::Gauge, 1, 50);
        assert!(e.evaluate(&h, 1).is_empty(), "one breach is not enough");
        h.record("g", SeriesKind::Gauge, 2, 50);
        let edges = e.evaluate(&h, 2);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].fired);
        assert_eq!(edges[0].value, 50);
        // Two clean samples hold; the third clears.
        for t in 3..=4 {
            h.record("g", SeriesKind::Gauge, t, 1);
            assert!(e.evaluate(&h, t).is_empty());
            assert_eq!(e.firing_count(), 1);
        }
        h.record("g", SeriesKind::Gauge, 5, 1);
        let edges = e.evaluate(&h, 5);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].fired);
        assert_eq!(e.firing_count(), 0);
        assert_eq!(e.states()[0].fired_count, 1);
    }

    #[test]
    fn flapping_within_hysteresis_does_not_clear() {
        let h = History::new(HistoryConfig::default());
        let e = AlertEngine::new(vec![rule("g>10:for=1,clear=2")]);
        h.record("g", SeriesKind::Gauge, 1, 99);
        assert_eq!(e.evaluate(&h, 1).len(), 1);
        // clean, breach, clean, breach: the clean streak never reaches 2.
        for (t, v) in [(2, 0), (3, 99), (4, 0), (5, 99)] {
            h.record("g", SeriesKind::Gauge, t, v);
            assert!(e.evaluate(&h, t).is_empty(), "no edge at t={t}");
        }
        assert_eq!(e.firing_count(), 1);
    }

    #[test]
    fn burn_rate_uses_the_windowed_average() {
        let h = History::new(HistoryConfig::default());
        let e = AlertEngine::new(vec![rule("r>5@10s:for=1,clear=1")]);
        // Spike of 100 in a window of zeros: avg over 10 samples = 10 > 5.
        for t in 1..=9 {
            h.record("r", SeriesKind::Rate, t, 0);
        }
        h.record("r", SeriesKind::Rate, 10, 100);
        let edges = e.evaluate(&h, 10);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].value, 10);
        // The spike ages out of the window: clears.
        for t in 11..=21 {
            h.record("r", SeriesKind::Rate, t, 0);
        }
        let edges = e.evaluate(&h, 21);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].fired);
    }

    #[test]
    fn missing_data_holds_state() {
        let h = History::new(HistoryConfig::default());
        let e = AlertEngine::new(vec![rule("absent>1:for=1,clear=1")]);
        assert!(e.evaluate(&h, 5).is_empty());
        assert_eq!(e.states()[0].value, 0);
    }
}
