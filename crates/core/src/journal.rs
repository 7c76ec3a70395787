//! The audit journal: a bounded ring of structured accountability
//! records.
//!
//! Delegated code is only trustworthy when its actions are accountable —
//! the journal records every RDS operation, lifecycle transition, quota
//! breach and handler panic, each stamped with the trace id of the
//! request that caused it, so a manager can reconstruct *who did what to
//! which dpi and how it ended* after the fact.
//!
//! Storage is the server's one drop-oldest [`Ring`], so a journal nobody
//! reads costs bounded memory. Seqs are assigned under the ring's lock:
//! they increase by one in ring order, and a gap is an honest record of
//! eviction.

use mbd_telemetry::Ring;
use rds::AuditRecord;

/// A bounded drop-oldest ring of [`AuditRecord`]s.
#[derive(Debug)]
pub struct Journal {
    ring: Ring<AuditRecord>,
}

impl Journal {
    /// An empty journal holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Journal {
        Journal { ring: Ring::new(capacity) }
    }

    /// Appends a record, assigning and returning its sequence number
    /// (evicting the oldest record at capacity). Seqs count from 1, so
    /// 0 is the [`Journal::since`] cursor of a reader that has read
    /// nothing.
    #[allow(clippy::too_many_arguments)] // one argument per AuditRecord field
    pub fn record(
        &self,
        ticks: u64,
        trace_id: u64,
        principal: &str,
        verb: &str,
        dpi: u64,
        ok: bool,
        detail: &str,
    ) -> u64 {
        let rec = AuditRecord {
            seq: 0,
            ticks,
            trace_id,
            principal: principal.to_string(),
            verb: verb.to_string(),
            dpi,
            ok,
            detail: detail.to_string(),
        };
        self.ring.push_with(|seq| AuditRecord { seq: seq + 1, ..rec }).0 + 1
    }

    /// The newest `max` records, oldest first (all of them when `max`
    /// is 0 or exceeds the ring).
    pub fn tail(&self, max: usize) -> Vec<AuditRecord> {
        self.ring.read(|_, records| {
            let take = if max == 0 { records.len() } else { max.min(records.len()) };
            records.range(records.len() - take..).cloned().collect()
        })
    }

    /// Records with `seq > after`, oldest first — the incremental read
    /// used by `mbd-server --journal` to append only new records. Found
    /// by position: the ring's seqs are contiguous, so a reader passing
    /// the last seq it saw gets every later record not yet evicted,
    /// exactly once.
    pub fn since(&self, after: u64) -> Vec<AuditRecord> {
        // Ring seq `s` is journal seq `s + 1`.
        self.ring.read(|first, records| {
            let skip = usize::try_from(after.saturating_sub(first)).unwrap_or(usize::MAX);
            records.iter().skip(skip).cloned().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    fn fill(j: &Journal, n: u64) {
        for i in 0..n {
            j.record(i, 0x100 + i, "mgr", "invoke", 1, true, "");
        }
    }

    #[test]
    fn records_are_sequenced_from_one() {
        let j = Journal::new(8);
        assert_eq!(j.record(5, 7, "mgr", "delegate", 0, true, ""), 1);
        assert_eq!(j.record(6, 8, "mgr", "instantiate", 0, true, ""), 2);
        let tail = j.tail(0);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 1);
        assert_eq!(tail[0].verb, "delegate");
        assert_eq!(tail[1].trace_id, 8);
    }

    #[test]
    fn tail_returns_the_newest_records() {
        let j = Journal::new(16);
        fill(&j, 5);
        let tail = j.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert_eq!(tail[1].seq, 5);
        assert_eq!(j.tail(99).len(), 5);
    }

    #[test]
    fn since_is_incremental() {
        let j = Journal::new(16);
        fill(&j, 5);
        assert_eq!(j.since(0).len(), 5);
        assert_eq!(j.since(3).iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert!(j.since(5).is_empty());
        let small = Journal::new(3);
        fill(&small, 10);
        let seqs: Vec<u64> = small.since(0).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10], "the gap 1..=7 is the eviction");
    }

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    const TOTAL: u64 = THREADS * PER_THREAD;

    /// Four recorders racing on one journal big enough to evict nothing.
    fn spawn_writers(j: &Arc<Journal>) -> Vec<JoinHandle<()>> {
        (0..THREADS)
            .map(|t| {
                let j = Arc::clone(j);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        j.record(i, t + 1, "mgr", "invoke", t, true, "");
                    }
                })
            })
            .collect()
    }

    #[test]
    fn concurrent_records_are_contiguous_in_ring_order() {
        let j = Arc::new(Journal::new(TOTAL as usize));
        for w in spawn_writers(&j) {
            w.join().unwrap();
        }
        let seqs: Vec<u64> = j.tail(0).iter().map(|r| r.seq).collect();
        let breaks = seqs.windows(2).filter(|w| w[1] != w[0] + 1).count();
        assert_eq!(breaks, 0, "ring order must be seq order, one apart");
        assert_eq!(seqs.len() as u64, TOTAL);
    }

    /// The `mbd-server --journal` export loop, run while the writers
    /// record: every seq must come out once — none skipped, none twice.
    #[test]
    fn since_reader_sees_every_seq_exactly_once() {
        let j = Arc::new(Journal::new(TOTAL as usize));
        let writers = spawn_writers(&j);
        let (mut seen, mut last) = (Vec::new(), 0);
        loop {
            let done = writers.iter().all(|w| w.is_finished());
            for r in j.since(last) {
                last = r.seq;
                seen.push(r.seq);
            }
            if done {
                break;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert!(seen == (1..=TOTAL).collect::<Vec<_>>(), "{} seqs read for {TOTAL}", seen.len());
    }
}
