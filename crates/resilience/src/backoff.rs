//! Retry pacing: exponential backoff with deterministic jitter.
//!
//! `htd query` retries backpressured requests (`rejected` with
//! `retry_after_ms`). The server's hint is the *floor*; the exponential
//! term spreads repeated retries out, and the jitter decorrelates
//! clients that were rejected by the same queue-full event so they don't
//! stampede back in lockstep. The jitter is a hash of `(seed, attempt)`
//! rather than an RNG, so a client's retry schedule is reproducible.

use std::time::Duration;

use crate::splitmix64;

/// The wait before retry number `attempt` (0-based).
///
/// Base wait is `hint` (the server's `retry_after_ms`, or the caller's
/// default when the server sent none) doubled per attempt and capped at
/// `max`; on top of that, ±25% jitter drawn from `(seed, attempt)`.
pub fn backoff_with_jitter(hint: Duration, attempt: u32, seed: u64, max: Duration) -> Duration {
    let base_ms = (hint.as_millis() as u64).max(1);
    let exp_ms = base_ms.saturating_mul(1u64 << attempt.min(16));
    let capped_ms = exp_ms.min(max.as_millis() as u64).max(1);
    // jitter in [-25%, +25%], deterministic in (seed, attempt)
    let h = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let half_span = (capped_ms / 4).max(1);
    let jitter = (h % (2 * half_span + 1)) as i64 - half_span as i64;
    Duration::from_millis(capped_ms.saturating_add_signed(jitter).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_exponentially_within_the_cap() {
        let hint = Duration::from_millis(100);
        let max = Duration::from_secs(10);
        let d0 = backoff_with_jitter(hint, 0, 1, max);
        let d3 = backoff_with_jitter(hint, 3, 1, max);
        // attempt 0 centers on 100ms, attempt 3 on 800ms; jitter is ±25%
        assert!(d0 >= Duration::from_millis(75) && d0 <= Duration::from_millis(125));
        assert!(d3 >= Duration::from_millis(600) && d3 <= Duration::from_millis(1000));
    }

    #[test]
    fn cap_bounds_the_wait() {
        let d = backoff_with_jitter(
            Duration::from_millis(500),
            12,
            9,
            Duration::from_millis(2000),
        );
        assert!(d <= Duration::from_millis(2500), "cap + 25% jitter");
    }

    #[test]
    fn deterministic_per_seed_and_spread_across_seeds() {
        let hint = Duration::from_millis(200);
        let max = Duration::from_secs(5);
        assert_eq!(
            backoff_with_jitter(hint, 2, 77, max),
            backoff_with_jitter(hint, 2, 77, max)
        );
        let distinct: std::collections::HashSet<Duration> = (0..20)
            .map(|seed| backoff_with_jitter(hint, 2, seed, max))
            .collect();
        assert!(distinct.len() > 10, "jitter must spread clients out");
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let d = backoff_with_jitter(
            Duration::from_millis(1000),
            u32::MAX,
            0,
            Duration::from_secs(30),
        );
        assert!(d <= Duration::from_millis(37_500));
    }
}
