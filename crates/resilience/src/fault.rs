//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes *how often* each fault class fires; a
//! [`FaultInjector`] turns the plan plus a request counter into a
//! per-request decision. The decision is a pure function of
//! `(seed, counter)`, so a chaos run is exactly reproducible from its
//! seed — a failing soak can be replayed request for request.
//!
//! Three fault classes, matching the failure model in
//! `docs/robustness.md`:
//!
//! * **panic** — one portfolio worker of the solve panics (exercises the
//!   quarantine and the circuit breaker);
//! * **delay** — the request is stalled before solving (exercises
//!   deadlines and backpressure);
//! * **allocation failure** — the solve runs under a near-zero memory
//!   budget (exercises the degradation ladder).
//!
//! [`InjectedFaults`] is the worker-side half: the service arms it on a
//! `SearchConfig` and the first portfolio worker that claims the pending
//! panic raises it *inside* its quarantined region.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often each fault class fires. A frequency of `0` disables the
/// class; `1` fires on (statistically) every request, `n` on roughly one
/// request in `n` — which requests is decided by the seeded hash, not by
/// a plain stride, so classes don't align in lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the decision hash; the whole run replays from it.
    pub seed: u64,
    /// Inject a worker panic into ~1/n of solves (0 = never).
    pub panic_every: u64,
    /// Stall ~1/n of requests before solving (0 = never).
    pub delay_every: u64,
    /// Length of an injected stall.
    pub delay_ms: u64,
    /// Run ~1/n of solves under a near-zero memory budget (0 = never).
    pub alloc_fail_every: u64,
}

impl FaultPlan {
    /// The chaos-smoke default: every solve gets a worker panic, one in
    /// five is stalled 20 ms, one in seven runs allocation-starved.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_every: 1,
            delay_every: 5,
            delay_ms: 20,
            alloc_fail_every: 7,
        }
    }
}

/// One request's injected faults. Classes are independent: a request can
/// be delayed *and* have a panicking worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fault {
    /// Panic one portfolio worker of this solve.
    pub panic_worker: bool,
    /// Stall the request this long before solving.
    pub delay: Option<Duration>,
    /// Run the solve under a near-zero memory budget.
    pub alloc_fail: bool,
}

impl Fault {
    /// `true` when no fault class fired.
    pub fn is_none(&self) -> bool {
        !self.panic_worker && self.delay.is_none() && !self.alloc_fail
    }
}

/// The SplitMix64 finalizer, a fast and well-mixed 64 → 64 bit hash: the
/// fault decisions, the backoff jitter and the cluster ring's placement
/// all draw from it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Turns a [`FaultPlan`] into per-request decisions.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counter: AtomicU64,
}

impl FaultInjector {
    /// A fresh injector; request numbering starts at 0.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan,
            counter: AtomicU64::new(0),
        })
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The decision for the next request (advances the counter).
    pub fn next_request(&self) -> Fault {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        self.decision(n)
    }

    /// The pure decision for request `n` — what [`next_request`] would
    /// have returned. Lets a replay harness audit a recorded run.
    ///
    /// [`next_request`]: FaultInjector::next_request
    pub fn decision(&self, n: u64) -> Fault {
        let p = &self.plan;
        let h = splitmix64(p.seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F));
        let fires = |every: u64, lane: u32| every > 0 && (h >> lane) % every == 0;
        Fault {
            panic_worker: fires(p.panic_every, 0),
            delay: fires(p.delay_every, 16).then(|| Duration::from_millis(p.delay_ms)),
            alloc_fail: fires(p.alloc_fail_every, 32),
        }
    }
}

/// The worker-side trigger: the service arms pending panics on the
/// `SearchConfig` and portfolio workers claim them one at a time, each
/// claimant panicking inside its quarantined region.
#[derive(Debug, Default)]
pub struct InjectedFaults {
    pending_panics: AtomicU32,
}

impl InjectedFaults {
    /// A trigger holding `panics` pending worker panics.
    pub fn with_panics(panics: u32) -> Arc<InjectedFaults> {
        Arc::new(InjectedFaults {
            pending_panics: AtomicU32::new(panics),
        })
    }

    /// Claims one pending panic; the caller that gets `true` must panic.
    pub fn take_panic(&self) -> bool {
        self.pending_panics
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = FaultInjector::new(FaultPlan::chaos(42));
        let b = FaultInjector::new(FaultPlan::chaos(42));
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn every_one_fires_every_time_and_zero_never() {
        let always = FaultInjector::new(FaultPlan {
            seed: 7,
            panic_every: 1,
            delay_every: 0,
            delay_ms: 10,
            alloc_fail_every: 0,
        });
        for _ in 0..50 {
            let f = always.next_request();
            assert!(f.panic_worker);
            assert!(f.delay.is_none());
            assert!(!f.alloc_fail);
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 99,
            panic_every: 4,
            delay_every: 4,
            delay_ms: 1,
            alloc_fail_every: 4,
        });
        let mut panics = 0;
        let mut delays = 0;
        let mut allocs = 0;
        for _ in 0..4000 {
            let f = inj.next_request();
            panics += f.panic_worker as u32;
            delays += f.delay.is_some() as u32;
            allocs += f.alloc_fail as u32;
        }
        for (what, n) in [("panic", panics), ("delay", delays), ("alloc", allocs)] {
            assert!(
                (600..=1400).contains(&n),
                "{what} fired {n}/4000 at rate 1/4"
            );
        }
    }

    #[test]
    fn injected_panics_are_claimed_once_each() {
        let t = InjectedFaults::with_panics(2);
        assert!(t.take_panic());
        assert!(t.take_panic());
        assert!(!t.take_panic());
        assert!(!InjectedFaults::default().take_panic());
    }
}
