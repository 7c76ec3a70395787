//! Deterministic fault injection for any [`FrameDuplex`].
//!
//! [`FaultDuplex`] wraps a duplex and, driven by a seeded splitmix64
//! stream, injects the classic unreliable-channel faults at frame
//! granularity: dropped requests, dropped responses (the effect
//! executed but the answer is lost — the case that makes naive retry
//! double-execute), duplicated deliveries, delays, truncated responses
//! and broken connections. The schedule is a pure function of the seed,
//! so every chaos run replays bit-for-bit, and a bounded **fault
//! budget** guarantees the channel eventually heals.
//!
//! That budget is what lets the chaos proptests demand convergence for
//! *every* seed: each fault costs the [`RdsPipeline`](crate::RdsPipeline)
//! at most one re-send of the request it hits. A swallowed request or
//! reply shows up as a stall and is re-probed once; a truncated reply
//! fails to decode and is re-sent once after a reconnect; a disconnect
//! fails the send, and the reconnect that heals it re-sends once; a
//! duplicate or a delay costs nothing (the second reply is stale and
//! dropped by id). A broken channel draws no further faults, and the
//! pipeline reconnects at once. So a client allowed more attempts than
//! `max_faults` always sees a clean exchange.

use crate::retry::splitmix64;
use crate::{FrameDuplex, RdsError};
use std::time::Duration;

/// The fault kinds a [`FaultDuplex`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The request never reaches the server.
    DropRequest,
    /// The server executes the request but the response is lost.
    DropResponse,
    /// The request is delivered twice (with server-side dedup the
    /// second reply is a byte-identical replay).
    Duplicate,
    /// Delivery succeeds after a short deterministic delay.
    Delay,
    /// The response arrives damaged (truncated to half its length).
    Truncate,
    /// The connection breaks: this request is lost and the channel
    /// stays broken until it is reconnected.
    Disconnect,
}

const FAULT_KINDS: [Fault; 6] = [
    Fault::DropRequest,
    Fault::DropResponse,
    Fault::Duplicate,
    Fault::Delay,
    Fault::Truncate,
    Fault::Disconnect,
];

/// Shape of a [`FaultDuplex`]'s schedule.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability (per mille, 0..=1000) that a sent frame draws a fault.
    pub fault_per_mille: u32,
    /// Faults injected in total before the channel heals for good. A
    /// finite budget makes convergence provable: a client retrying more
    /// than `max_faults` times must eventually see a clean exchange.
    pub max_faults: u32,
    /// Upper bound on an injected [`Fault::Delay`] (the actual delay is
    /// deterministic per seed, 1..=this in milliseconds).
    pub max_delay_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig { fault_per_mille: 400, max_faults: 6, max_delay_ms: 2 }
    }
}

/// A [`FrameDuplex`] decorator injecting deterministic faults (see the
/// module docs). Faults are drawn per sent frame; because the halves
/// are decoupled, a dropped request is swallowed at send, a dropped or
/// truncated *response* is applied to the next received frame, and a
/// disconnect breaks the channel until the next `reconnect`.
pub struct FaultDuplex<D> {
    inner: D,
    config: FaultConfig,
    cursor: u64,
    seed: u64,
    injected: u64,
    /// The channel is broken until the next `reconnect`.
    broken: bool,
    /// Responses to swallow on arrival.
    drop_recvs: u32,
    /// Responses to truncate on arrival.
    truncate_recvs: u32,
    drops: u64,
    duplicates: u64,
    delays: u64,
    truncations: u64,
    disconnects: u64,
}

impl<D> FaultDuplex<D> {
    /// Wraps `inner` with the fault schedule derived from `seed`.
    pub fn new(inner: D, seed: u64, config: FaultConfig) -> FaultDuplex<D> {
        FaultDuplex {
            inner,
            config,
            cursor: 0,
            seed,
            injected: 0,
            broken: false,
            drop_recvs: 0,
            truncate_recvs: 0,
            drops: 0,
            duplicates: 0,
            delays: 0,
            truncations: 0,
            disconnects: 0,
        }
    }

    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Frames swallowed (requests at send, responses at receive).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Request frames delivered twice.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Sends delayed.
    pub fn delays(&self) -> u64 {
        self.delays
    }

    /// Response frames damaged.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Connections broken.
    pub fn disconnects(&self) -> u64 {
        self.disconnects
    }

    /// The next value of the seeded decision stream.
    fn draw(&mut self) -> u64 {
        let pos = self.cursor;
        self.cursor += 1;
        splitmix64(self.seed.wrapping_add(pos.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// Decides the fault (if any) for the current frame, consuming
    /// budget. `None` means deliver cleanly.
    fn next_fault(&mut self) -> Option<Fault> {
        if self.injected >= u64::from(self.config.max_faults) {
            return None;
        }
        let roll = self.draw() % 1000;
        if roll >= u64::from(self.config.fault_per_mille.min(1000)) {
            return None;
        }
        self.injected += 1;
        Some(FAULT_KINDS[(self.draw() % FAULT_KINDS.len() as u64) as usize])
    }
}

impl<D: std::fmt::Debug> std::fmt::Debug for FaultDuplex<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultDuplex")
            .field("inner", &self.inner)
            .field("seed", &self.seed)
            .field("injected", &self.injected)
            .finish()
    }
}

impl<D: FrameDuplex> FrameDuplex for FaultDuplex<D> {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), RdsError> {
        if self.broken {
            return Err(RdsError::Transport { message: "fault injected: channel broken".into() });
        }
        match self.next_fault() {
            None => self.inner.send_frame(bytes),
            Some(Fault::DropRequest) => {
                // Swallowed silently: the pipeline's stall probe will
                // re-send it — exactly the lost-datagram shape.
                self.drops += 1;
                Ok(())
            }
            Some(Fault::DropResponse) => {
                self.inner.send_frame(bytes)?;
                self.drop_recvs += 1;
                Ok(())
            }
            Some(Fault::Duplicate) => {
                self.duplicates += 1;
                self.inner.send_frame(bytes)?;
                self.inner.send_frame(bytes)
            }
            Some(Fault::Delay) => {
                self.delays += 1;
                let ms = 1 + self.draw() % self.config.max_delay_ms.max(1);
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.send_frame(bytes)
            }
            Some(Fault::Truncate) => {
                self.inner.send_frame(bytes)?;
                self.truncate_recvs += 1;
                Ok(())
            }
            Some(Fault::Disconnect) => {
                self.disconnects += 1;
                self.broken = true;
                Err(RdsError::Transport { message: "fault injected: connection broken".into() })
            }
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, RdsError> {
        if self.broken {
            return Err(RdsError::Transport { message: "fault injected: channel broken".into() });
        }
        let frame = self.inner.recv_frame(timeout)?;
        let Some(mut frame) = frame else { return Ok(None) };
        if self.drop_recvs > 0 {
            // The effect executed server-side; its answer evaporates.
            self.drop_recvs -= 1;
            self.drops += 1;
            return Ok(None);
        }
        if self.truncate_recvs > 0 {
            self.truncate_recvs -= 1;
            self.truncations += 1;
            frame.truncate(frame.len() / 2);
        }
        Ok(Some(frame))
    }

    fn reconnect(&mut self) -> Result<(), RdsError> {
        self.broken = false;
        // Pending drop/truncate markers referred to replies of the dead
        // connection.
        self.drop_recvs = 0;
        self.truncate_recvs = 0;
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopbackDuplex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn faulty(seed: u64, config: FaultConfig) -> FaultDuplex<LoopbackDuplex> {
        FaultDuplex::new(LoopbackDuplex::new(|bytes: &[u8]| bytes.to_vec()), seed, config)
    }

    fn always(max_faults: u32) -> FaultConfig {
        FaultConfig { fault_per_mille: 1000, max_faults, max_delay_ms: 1 }
    }

    /// One exchange of `bytes`: every reply that is ready, or `None`
    /// when the send failed (the channel is reconnected for the next).
    fn exchange(t: &mut FaultDuplex<LoopbackDuplex>, bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
        if t.send_frame(bytes).is_err() {
            t.reconnect().unwrap();
            return None;
        }
        let mut replies = Vec::new();
        while let Some(frame) = t.recv_frame(Duration::ZERO).unwrap() {
            replies.push(frame);
        }
        Some(replies)
    }

    #[test]
    fn clean_when_probability_is_zero() {
        let mut t = faulty(1, FaultConfig { fault_per_mille: 0, ..FaultConfig::default() });
        for _ in 0..50 {
            assert_eq!(exchange(&mut t, &[1, 2]), Some(vec![vec![1, 2]]));
        }
        assert_eq!(t.injected(), 0);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut t = faulty(seed, FaultConfig { max_delay_ms: 1, ..FaultConfig::default() });
            (0..30u8).map(|i| exchange(&mut t, &[i, i])).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn budget_exhaustion_heals_the_channel() {
        let mut t = faulty(3, always(5));
        // Every exchange draws a fault until the budget is gone; each
        // fault spoils at most that one exchange.
        let mut failures = 0;
        for i in 0..40u8 {
            let replies = exchange(&mut t, &[i, i]).unwrap_or_default();
            if !replies.contains(&vec![i, i]) {
                failures += 1;
            }
        }
        assert_eq!(t.injected(), 5);
        assert!(failures <= 5, "at most one failure per budgeted fault");
        assert_eq!(exchange(&mut t, &[99]), Some(vec![vec![99]]), "healed channel is clean");
    }

    #[test]
    fn disconnect_stays_broken_until_reconnect() {
        // Force Disconnect deterministically by scanning seeds.
        for seed in 0..200u64 {
            let mut t = faulty(seed, always(1));
            if t.send_frame(&[1]).is_ok() || t.disconnects() != 1 {
                continue;
            }
            assert!(t.send_frame(&[2]).is_err(), "sends fail while broken");
            assert!(t.recv_frame(Duration::ZERO).is_err(), "receives fail while broken");
            assert_eq!(t.injected(), 1, "a broken channel draws no further faults");
            t.reconnect().unwrap();
            assert_eq!(exchange(&mut t, &[3]), Some(vec![vec![3]]), "reconnect heals it");
            return;
        }
        panic!("no seed in 0..200 drew Disconnect first — schedule generator is broken");
    }

    #[test]
    fn duplicate_delivers_twice_to_the_inner_duplex() {
        for seed in 0..400u64 {
            let deliveries = Arc::new(AtomicU64::new(0));
            let seen = Arc::clone(&deliveries);
            let inner = LoopbackDuplex::new(move |bytes: &[u8]| {
                seen.fetch_add(1, Ordering::Relaxed);
                bytes.to_vec()
            });
            let mut t = FaultDuplex::new(inner, seed, always(1));
            let replies = exchange(&mut t, &[5]);
            if t.duplicates() == 1 {
                assert_eq!(deliveries.load(Ordering::Relaxed), 2);
                assert_eq!(replies, Some(vec![vec![5], vec![5]]));
                return;
            }
        }
        panic!("no seed in 0..400 drew Duplicate first");
    }

    #[test]
    fn truncate_halves_the_next_reply() {
        for seed in 0..400u64 {
            let mut t = faulty(seed, always(1));
            let replies = exchange(&mut t, &[1, 2, 3, 4]);
            if t.truncations() == 1 {
                assert_eq!(replies, Some(vec![vec![1, 2]]), "half the reply survives");
                return;
            }
        }
        panic!("no seed in 0..400 drew Truncate first");
    }
}
