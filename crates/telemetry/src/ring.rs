//! The one bounded drop-oldest ring under every retained stream: the
//! trace ring, the trace store's two tree windows, the history's
//! per-resolution point rings, the audit journal and the elastic
//! process's notification and log outboxes.
//!
//! A full ring evicts its *oldest* entry — the newest evidence is what a
//! reader most wants — so a consumer that stops reading costs bounded
//! memory and an honest loss count, never the server.
//!
//! Entries are numbered under the ring's own lock: the `n`-th entry ever
//! appended has sequence number `n - 1`, so the numbers of the retained
//! entries are contiguous in ring order and a gap between two reads
//! always means eviction. Accounting is exact: `pushed` counts every
//! append, `dropped` every eviction, and `pushed == dropped + drained +
//! len`; with no drain, `dropped == pushed - len`.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;

/// A bounded drop-oldest queue that numbers its entries.
pub struct Ring<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

struct Inner<T> {
    entries: VecDeque<T>,
    /// Entries ever appended — also the next entry's sequence number.
    pushed: u64,
    dropped: u64,
}

impl<T> Inner<T> {
    fn append(&mut self, item: T, capacity: usize) -> Option<T> {
        let evicted = if self.entries.len() >= capacity { self.entries.pop_front() } else { None };
        self.dropped += u64::from(evicted.is_some());
        self.entries.push_back(item);
        self.pushed += 1;
        evicted
    }
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            inner: Mutex::new(Inner { entries: VecDeque::new(), pushed: 0, dropped: 0 }),
            capacity: capacity.max(1),
        }
    }

    /// Appends `item`. At capacity the oldest entry is evicted, counted
    /// dropped, and returned so the caller can attribute the loss.
    pub fn push(&self, item: T) -> Option<T> {
        self.push_with(|_| item).1
    }

    /// Appends the entry `make` builds from its sequence number, and
    /// returns that number with the evicted entry, if any. `make` runs
    /// under the lock: build anything costly before the call and only
    /// stamp the number inside.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> (u64, Option<T>) {
        let mut g = self.inner.lock();
        let seq = g.pushed;
        let evicted = g.append(make(seq), self.capacity);
        (seq, evicted)
    }

    /// Appends a batch under one lock hold, each entry built by `stamp`
    /// from its sequence number and the batch item; evictions are
    /// counted as for [`Ring::push`].
    pub fn extend_with<I: IntoIterator>(&self, items: I, mut stamp: impl FnMut(u64, I::Item) -> T) {
        let mut g = self.inner.lock();
        for item in items {
            let seq = g.pushed;
            g.append(stamp(seq, item), self.capacity);
        }
    }

    /// Removes and returns every retained entry, oldest first. Drained
    /// entries are not counted as dropped.
    pub fn drain(&self) -> Vec<T> {
        self.inner.lock().entries.drain(..).collect()
    }

    /// Runs `f` under the lock over the sequence number of the oldest
    /// retained entry and the entries themselves, oldest first — a
    /// lookup that clones only what it returns.
    pub fn read<R>(&self, f: impl FnOnce(u64, &VecDeque<T>) -> R) -> R {
        let g = self.inner.lock();
        f(g.pushed - g.entries.len() as u64, &g.entries)
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries appended since creation.
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Entries evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

impl<T: Clone> Ring<T> {
    /// A copy of the retained entries, oldest first, without draining.
    pub fn snapshot(&self) -> Vec<T> {
        self.read(|_, entries| entries.iter().cloned().collect())
    }
}

impl<T> fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Ring")
            .field("len", &g.entries.len())
            .field("capacity", &self.capacity)
            .field("pushed", &g.pushed)
            .field("dropped", &g.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Append(Vec<u32>),
        Drain,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            any::<u32>().prop_map(Op::Push),
            proptest::collection::vec(any::<u32>(), 0..12).prop_map(Op::Append),
            Just(Op::Drain),
        ];
        proptest::collection::vec(op, 0..64)
    }

    proptest! {
        /// Against a plain `Vec` of everything appended since the last
        /// drain: the ring holds its newest `min(n, cap)` entries, each
        /// stamped with its contiguous sequence number, `push` hands
        /// back exactly the entry it evicts, and the counters balance.
        #[test]
        fn ring_matches_a_vec_model(cap in 0usize..9, ops in arb_ops()) {
            let ring: Ring<(u64, u32)> = Ring::new(cap);
            let cap = cap.max(1);
            let (mut model, mut seqs) = (Vec::new(), 0u64..);
            let mut drained = 0u64;
            for op in ops {
                match op {
                    Op::Push(v) => {
                        let seq = seqs.next().unwrap();
                        let (got, evicted) = ring.push_with(|s| (s, v));
                        prop_assert_eq!(got, seq);
                        model.push((seq, v));
                        let expect = (model.len() > cap).then(|| model[model.len() - cap - 1]);
                        prop_assert_eq!(evicted, expect);
                    }
                    Op::Append(batch) => {
                        ring.extend_with(batch.iter(), |s, &v| (s, v));
                        model.extend(batch.iter().map(|&v| (seqs.next().unwrap(), v)));
                    }
                    Op::Drain => {
                        let retained = model.split_off(model.len().saturating_sub(cap));
                        drained += retained.len() as u64;
                        prop_assert_eq!(ring.drain(), retained);
                        model.clear();
                    }
                }
                let newest = &model[model.len().saturating_sub(cap)..];
                prop_assert_eq!(ring.snapshot(), newest.to_vec());
                let first = ring.read(|first, entries| {
                    entries.iter().zip(first..).all(|(&(s, _), want)| s == want).then_some(first)
                });
                prop_assert!(first.is_some(), "seqs contiguous from the ring's first seq");
                prop_assert_eq!(ring.pushed(), seqs.start);
                prop_assert_eq!(ring.dropped(), ring.pushed() - drained - ring.len() as u64);
            }
        }
    }
}
