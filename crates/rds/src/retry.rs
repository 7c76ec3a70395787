//! Client-side retry policy: bounded attempts, exponential backoff with
//! seeded jitter, and a per-request deadline.
//!
//! MbD's dependability story (thesis Ch. 2–3) assumes the manager can
//! resynchronize over an unreliable WAN; this module supplies the
//! client half. A retry **re-sends the identical encoded frame** — same
//! request id, same trace id — so the server's duplicate-suppression
//! cache can recognize it and replay the original response instead of
//! re-executing the effect (see [`crate::DedupCache`]).

use crate::RdsError;
use std::time::Duration;

/// The splitmix64 finalizer — a cheap, well-mixed hash used to derive
/// trace ids, backoff jitter and fault schedules from small seeds.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How an [`RdsPipeline`](crate::RdsPipeline) — and so an
/// [`RdsClient`](crate::RdsClient) — reacts to delivery failures.
///
/// The policy bounds *attempts* (first try included), spaces them with
/// exponential backoff whose jitter is derived deterministically from
/// `jitter_seed` (so tests replay byte-identical schedules), and gives
/// the whole request a wall-clock deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts, first try included (min 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry thereafter.
    pub base_backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Wall-clock budget for the whole request, retries included
    /// (`None` = only `max_attempts` bounds the retry loop).
    pub deadline: Option<Duration>,
    /// Seed for the jitter stream (each retry draws the next value).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 10 ms base backoff capped at 1 s, 30 s deadline.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: Some(Duration::from_secs(30)),
            jitter_seed: 0x9E37_79B9,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no backoff, no deadline: nothing is ever
    /// re-sent.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: None,
            jitter_seed: 0,
        }
    }

    /// Backoff before retry number `retry` (1-based): exponential from
    /// `base_backoff`, saturating at `max_backoff`, with ±50% jitter
    /// drawn deterministically from `jitter_seed` — full determinism
    /// keeps fault-injection runs replayable, while distinct seeds keep
    /// a fleet of managers from retrying in lockstep.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << exp).min(self.max_backoff);
        // Scale to 50%..150% of the nominal value.
        let jitter = splitmix64(self.jitter_seed ^ u64::from(retry)) % 1001;
        let scaled = raw.as_nanos() as u64 / 1000 * (500 + jitter) / 1000 * 1000;
        Duration::from_nanos(scaled.max(1))
    }

    /// Whether `err` describes a delivery failure worth retrying, as
    /// opposed to an authoritative answer. Retried frames are
    /// byte-identical, so an effect that *did* execute server-side is
    /// replayed from the dedup cache rather than re-run.
    pub fn is_retryable(err: &RdsError) -> bool {
        match err {
            // The request (or its response) may never have arrived.
            RdsError::Transport { .. } => true,
            // The response was damaged in flight; the request may or may
            // not have executed — dedup disambiguates.
            RdsError::Codec(_) => true,
            // The server shed the request before doing any work.
            RdsError::Remote { code, .. } => code.is_retryable(),
            // Authoritative failures (bad digest, unknown operation, …):
            // retrying cannot change the answer.
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorCode;

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_for(1), Duration::ZERO);
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            deadline: None,
            jitter_seed: 7,
        };
        // Jitter is ±50%, so each nominal value stays within [0.5x, 1.5x].
        let nominal = [10u64, 20, 40, 80, 80, 80];
        for (i, nom) in nominal.iter().enumerate() {
            let b = p.backoff_for(i as u32 + 1).as_millis() as u64;
            assert!(b >= nom / 2 && b <= nom * 3 / 2, "retry {}: {b} ms vs nominal {nom}", i + 1);
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        let q = RetryPolicy { jitter_seed: 42, ..RetryPolicy::default() };
        let r = RetryPolicy { jitter_seed: 43, ..RetryPolicy::default() };
        assert_eq!(p.backoff_for(3), q.backoff_for(3));
        assert_ne!(p.backoff_for(3), r.backoff_for(3), "different seeds, different jitter");
    }

    #[test]
    fn retryability_classification() {
        assert!(RetryPolicy::is_retryable(&RdsError::Transport { message: "gone".into() }));
        assert!(RetryPolicy::is_retryable(&RdsError::Remote {
            code: ErrorCode::Busy,
            message: String::new(),
        }));
        assert!(!RetryPolicy::is_retryable(&RdsError::Remote {
            code: ErrorCode::BadState,
            message: String::new(),
        }));
        assert!(!RetryPolicy::is_retryable(&RdsError::BadDigest));
    }
}
