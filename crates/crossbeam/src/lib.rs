//! Offline stand-in for the `crossbeam` crate.
//!
//! Two slices of crossbeam are provided (all this workspace uses):
//! the [`channel`] module — cloneable senders, bounded and unbounded
//! queues, blocking and non-blocking receives over `std::sync::mpsc` —
//! and [`utils::CachePadded`], the cache-line padding wrapper the
//! elastic process uses to keep its lifetime counters off each other's
//! cache lines.

pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns `T` to (at least) its own cache line.
    ///
    /// 128 bytes rather than 64: x86_64 prefetches cache-line pairs and
    /// aarch64 big cores use 128-byte lines, so adjacent values one
    /// 64-byte line apart can still false-share. Matches upstream
    /// crossbeam's choice for these targets.
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in its own cache line.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }

        /// Unwraps the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> CachePadded<T> {
            CachePadded::new(value)
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_tuple("CachePadded").field(&self.value).finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn padded_values_land_on_distinct_cache_lines() {
            assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
            assert!(std::mem::size_of::<[CachePadded<u64>; 2]>() >= 256);
            let padded = CachePadded::new(7u64);
            assert_eq!(*padded, 7);
            assert_eq!(padded.into_inner(), 7);
        }
    }
}

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;

    /// Error returned when the receiving half has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when every sender has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message waiting right now.
        Empty,
        /// Every sender has hung up.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// The sending half of a channel; cloneable, like crossbeam's.
    pub enum Sender<T> {
        /// From [`unbounded`]: sends never block.
        Unbounded(mpsc::Sender<T>),
        /// From [`bounded`]: sends block while the queue is full.
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            match self {
                Sender::Unbounded(tx) => Sender::Unbounded(tx.clone()),
                Sender::Bounded(tx) => Sender::Bounded(tx.clone()),
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Delivers `value`, blocking on a full bounded queue.
        ///
        /// # Errors
        ///
        /// [`SendError`] if the receiver is gone (the value is returned).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self {
                Sender::Unbounded(tx) => tx.send(value).map_err(|e| SendError(e.0)),
                Sender::Bounded(tx) => tx.send(value).map_err(|e| SendError(e.0)),
            }
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// [`RecvError`] once every sender is gone and the queue is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Returns a waiting message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Iterates over messages until every sender hangs up.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender::Unbounded(tx), Receiver(rx))
    }

    /// A bounded FIFO channel holding at most `cap` queued messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender::Bounded(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_fifo_round_trip() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_reported_both_ways() {
            let (tx, rx) = bounded::<u8>(1);
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn cross_thread_request_reply() {
            let (tx, rx) = unbounded::<(u8, Sender<u8>)>();
            let server = std::thread::spawn(move || {
                while let Ok((n, reply)) = rx.recv() {
                    let _ = reply.send(n * 2);
                }
            });
            let (rtx, rrx) = bounded(1);
            tx.send((21, rtx)).unwrap();
            assert_eq!(rrx.recv(), Ok(42));
            drop(tx);
            server.join().unwrap();
        }
    }
}
