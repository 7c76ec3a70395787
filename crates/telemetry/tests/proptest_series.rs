//! Property tests for the metrics history rings: downsampled buckets
//! keep `min <= avg <= max` and reproduce a reference computation over
//! the raw points, and eviction accounting is exact — `pushed` minus
//! `dropped` always equals the points actually retained, sequentially
//! and under concurrent recorders.

use mbd_telemetry::{History, HistoryConfig, SeriesKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A monotone-timestamped trace: per step, a value and a 0..4 s gap to
/// the previous step (0 = several points in the same second).
fn arb_trace() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), 0u64..4), 1..200).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(v, gap)| {
                t += gap;
                (t, v)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn downsampled_buckets_match_a_reference_fold(trace in arb_trace()) {
        // Caps large enough that nothing is evicted: every closed and
        // open bucket must then agree exactly with a reference fold of
        // the raw points.
        let h = History::new(HistoryConfig { caps: [1024, 1024, 1024] });
        for &(t, v) in &trace {
            h.record("g", SeriesKind::Gauge, t, v);
        }
        let now = trace.last().map_or(0, |&(t, _)| t);
        for res in [10u64, 60] {
            // Reference: group raw points by bucket start.
            let mut expect: BTreeMap<u64, (u64, u64, u128, u64, u64)> = BTreeMap::new();
            for &(t, v) in &trace {
                let start = t - t % res;
                let e = expect.entry(start).or_insert((u64::MAX, 0, 0, 0, 0));
                e.0 = e.0.min(v);
                e.1 = e.1.max(v);
                e.2 += u128::from(v);
                e.3 += 1;
                e.4 = v;
            }
            let got = h.query("g", 0, res, now).pop().expect("series retained");
            prop_assert_eq!(got.points.len(), expect.len(), "bucket count at {res}s");
            for (p, (&start, &(min, max, sum, count, last))) in
                got.points.iter().zip(expect.iter())
            {
                prop_assert_eq!(p.t_s, start);
                prop_assert_eq!(p.min, min);
                prop_assert_eq!(p.max, max);
                prop_assert_eq!(p.avg, (sum / u128::from(count)) as u64);
                prop_assert_eq!(p.last, last);
                prop_assert!(p.min <= p.avg && p.avg <= p.max, "min <= avg <= max");
                prop_assert!(p.min <= p.last && p.last <= p.max, "last inside [min, max]");
            }
        }
    }

    #[test]
    fn eviction_accounting_is_exact(trace in arb_trace(), cap in 1usize..32) {
        let h = History::new(HistoryConfig { caps: [cap, cap, cap] });
        for &(t, v) in &trace {
            h.record("g", SeriesKind::Gauge, t, v);
        }
        let now = trace.last().map_or(0, |&(t, _)| t);
        // Retained per ring. Coarse queries also surface the still-open
        // bucket, which was never pushed to a ring — subtract it.
        let ring_len = |res: u64, open: usize| {
            h.query("g", 0, res, now).pop().map_or(0, |s| s.points.len() - open)
        };
        let retained = ring_len(1, 0) + ring_len(10, 1) + ring_len(60, 1);
        prop_assert_eq!(h.total_pushed() - h.total_dropped(), retained as u64);
        prop_assert!(ring_len(1, 0) <= cap, "1 s ring respects its cap");
        let fine = h.query("g", 0, 1, now).pop().map(|s| s.points.iter().map(|p| p.last).collect());
        let newest: Vec<u64> = trace[trace.len() - cap.min(trace.len())..].iter().map(|p| p.1).collect();
        prop_assert_eq!(fine, Some(newest), "the newest points survive eviction");
    }
}

/// Four recorder threads hammer one shared history; however the pushes
/// interleave, no point may be lost untracked: `pushed - dropped` must
/// equal exactly what a reader can still see, and the fine ring must
/// hold its cap's worth of points.
#[test]
fn accounting_stays_exact_under_concurrent_recorders() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    const CAP: usize = 64;
    let h = Arc::new(History::new(HistoryConfig { caps: [CAP, CAP, CAP] }));
    let handles: Vec<_> = (0..THREADS)
        .map(|k| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Interleaved seconds so buckets roll while other
                    // threads are mid-burst.
                    h.record("shared", SeriesKind::Gauge, i / 8, k * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let now = PER_THREAD / 8;
    let ring_len = |res: u64, open: usize| {
        h.query("shared", 0, res, now).pop().map_or(0, |s| s.points.len() - open)
    };
    // The fine ring saw every record: pushed there is exact even though
    // the recorders raced.
    assert_eq!(ring_len(1, 0), CAP, "fine ring is full");
    let retained = ring_len(1, 0) + ring_len(10, 1) + ring_len(60, 1);
    assert_eq!(
        h.total_pushed() - h.total_dropped(),
        retained as u64,
        "eviction accounting drifted under concurrency"
    );
    assert!(h.total_pushed() >= THREADS * PER_THREAD, "every record was pushed somewhere");
}
