//! The shared anytime state of a solver run.
//!
//! An [`Incumbent`] holds the best proven lower bound, the best achieved
//! upper bound with an ordering witnessing it, and a cooperative
//! cancellation flag. Every engine works against an incumbent — a run of a
//! single sequential engine gets a private one, while the portfolio hands
//! the same `Arc<Incumbent>` to all its workers, so a bound found by one
//! immediately tightens every other worker's pruning (the textbook
//! shared-bound parallel branch and bound).
//!
//! The moment `lower == upper` the optimum is proven: the incumbent marks
//! itself exact and trips the cancellation flag, which every engine's
//! budget check observes, so the first exact proof stops the whole run.
//!
//! Bounds are monotone (lower only rises, upper only falls) and an
//! incumbent must only be shared between engines optimizing the **same
//! objective** on the **same instance** — tw and ghw widths are not
//! comparable.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use htd_hypergraph::Vertex;
use htd_trace::{Event, Tracer};
use parking_lot::Mutex;

use crate::registry::Engine;

/// Sentinel for "no upper bound arrived yet" in the timestamp atomics.
const NEVER: u64 = u64::MAX;

/// Shared bounds + witness + cancellation for one solver run.
pub struct Incumbent {
    lower: AtomicU32,
    upper: AtomicU32,
    exact: AtomicBool,
    cancelled: AtomicBool,
    /// (width, witness ordering, attributed engine) — kept together under
    /// one lock so the stored ordering always matches the stored width
    /// even when two improvements race (the atomic `upper` alone cannot
    /// guarantee that). The engine is `None` for unattributed offers.
    best: Mutex<(u32, Vec<Vertex>, Option<Engine>)>,
    /// When this incumbent was created; anchors the convergence timestamps.
    created: Instant,
    /// Microseconds from `created` to the first accepted upper bound.
    first_upper_us: AtomicU64,
    /// Microseconds from `created` to the latest accepted upper bound.
    best_upper_us: AtomicU64,
}

impl Default for Incumbent {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Incumbent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Incumbent")
            .field("lower", &self.lower())
            .field("upper", &self.upper())
            .field("exact", &self.is_exact())
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl Incumbent {
    /// A fresh incumbent: bounds `[0, ∞)`, no witness, not cancelled.
    pub fn new() -> Self {
        Incumbent {
            lower: AtomicU32::new(0),
            upper: AtomicU32::new(u32::MAX),
            exact: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            best: Mutex::new((u32::MAX, Vec::new(), None)),
            created: Instant::now(),
            first_upper_us: AtomicU64::new(NEVER),
            best_upper_us: AtomicU64::new(NEVER),
        }
    }

    /// Current proven lower bound.
    #[inline]
    pub fn lower(&self) -> u32 {
        self.lower.load(Ordering::Acquire)
    }

    /// Current achieved upper bound (`u32::MAX` until a witness arrives).
    #[inline]
    pub fn upper(&self) -> u32 {
        self.upper.load(Ordering::Acquire)
    }

    /// Both bounds at once.
    pub fn bounds(&self) -> (u32, u32) {
        (self.lower(), self.upper())
    }

    /// Offers an achieved width with its witness ordering, unattributed.
    /// Returns `true` iff this improved the incumbent.
    pub fn offer_upper(&self, width: u32, order: &[Vertex]) -> bool {
        self.offer(width, order, None)
    }

    /// Offers an achieved width with its witness ordering, attributed to
    /// the engine `who`. Returns `true` iff this improved the incumbent.
    /// Proving `lower == upper` marks the run exact and cancels it.
    pub fn offer_upper_as(&self, width: u32, order: &[Vertex], who: Engine) -> bool {
        self.offer(width, order, Some(who))
    }

    fn offer(&self, width: u32, order: &[Vertex], who: Option<Engine>) -> bool {
        let mut cur = self.upper.load(Ordering::Acquire);
        loop {
            if width >= cur {
                return false;
            }
            match self
                .upper
                .compare_exchange(cur, width, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let now_us = self.created.elapsed().as_micros() as u64;
        self.first_upper_us.fetch_min(now_us, Ordering::AcqRel);
        {
            let mut best = self.best.lock();
            if width < best.0 {
                best.0 = width;
                best.1.clear();
                best.1.extend_from_slice(order);
                best.2 = who;
                self.best_upper_us.store(now_us, Ordering::Release);
            }
        }
        self.check_closed();
        true
    }

    /// [`Incumbent::offer_upper_as`] plus an `IncumbentImproved` trace
    /// event when the offer was accepted: the engines' offer path.
    pub(crate) fn offer_traced(&self, tracer: &Tracer, who: Engine, width: u32, order: &[Vertex]) {
        if self.offer_upper_as(width, order, who) {
            let worker = who.name();
            tracer.emit(Event::IncumbentImproved { worker, width });
        }
    }

    /// [`Incumbent::raise_lower`] plus a `BoundTightened` trace event when
    /// the bound actually rose.
    pub(crate) fn raise_traced(&self, tracer: &Tracer, who: Engine, lb: u32) {
        if self.raise_lower(lb) {
            let worker = who.name();
            tracer.emit(Event::BoundTightened { worker, lower: lb });
        }
    }

    /// Raises the proven lower bound. Returns `true` iff it rose. Proving
    /// `lower == upper` marks the run exact and cancels it.
    pub fn raise_lower(&self, lb: u32) -> bool {
        let mut cur = self.lower.load(Ordering::Acquire);
        loop {
            if lb <= cur {
                return false;
            }
            match self
                .lower
                .compare_exchange(cur, lb, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.check_closed();
        true
    }

    #[inline]
    fn check_closed(&self) {
        let upper = self.upper();
        if upper != u32::MAX && self.lower() >= upper {
            self.mark_exact();
        }
    }

    /// Declares the current upper bound optimal (e.g. a branch and bound
    /// exhausted its tree). Sets `lower = upper`, marks exact, cancels.
    pub fn mark_exact(&self) {
        let upper = self.upper();
        if upper != u32::MAX {
            // raise lower to meet upper without recursing through raise_lower
            self.lower.fetch_max(upper, Ordering::AcqRel);
        }
        self.exact.store(true, Ordering::Release);
        self.cancel();
    }

    /// `true` once some engine proved the optimum.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.exact.load(Ordering::Acquire)
    }

    /// Requests cooperative cancellation: every budget check observes this.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once cancellation was requested (deadline, or exact proof).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The witness ordering of the current upper bound, if any arrived.
    pub fn best_order(&self) -> Option<Vec<Vertex>> {
        let best = self.best.lock();
        (best.0 != u32::MAX).then(|| best.1.clone())
    }

    /// The engine whose offer produced the current upper bound, if any
    /// arrived and the offer was attributed (`None` for unattributed).
    pub fn winner(&self) -> Option<Engine> {
        let best = self.best.lock();
        best.2.filter(|_| best.0 != u32::MAX)
    }

    /// Time from creation to the first accepted upper bound, if any.
    pub fn time_to_first_upper(&self) -> Option<Duration> {
        match self.first_upper_us.load(Ordering::Acquire) {
            NEVER => None,
            us => Some(Duration::from_micros(us)),
        }
    }

    /// Time from creation to the upper bound that ended up best, if any.
    pub fn time_to_best_upper(&self) -> Option<Duration> {
        match self.best_upper_us.load(Ordering::Acquire) {
            NEVER => None,
            us => Some(Duration::from_micros(us)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounds_are_monotone() {
        let inc = Incumbent::new();
        assert_eq!(inc.bounds(), (0, u32::MAX));
        assert!(inc.offer_upper(10, &[0, 1, 2]));
        assert!(!inc.offer_upper(12, &[9]), "worse upper rejected");
        assert!(inc.offer_upper(7, &[2, 1, 0]));
        assert_eq!(inc.upper(), 7);
        assert_eq!(inc.best_order().unwrap(), vec![2, 1, 0]);
        assert!(inc.raise_lower(3));
        assert!(!inc.raise_lower(2), "weaker lower rejected");
        assert_eq!(inc.bounds(), (3, 7));
        assert!(!inc.is_exact() && !inc.is_cancelled());
    }

    #[test]
    fn meeting_bounds_proves_exact_and_cancels() {
        let inc = Incumbent::new();
        inc.offer_upper(5, &[0]);
        inc.raise_lower(5);
        assert!(inc.is_exact());
        assert!(inc.is_cancelled());
        assert_eq!(inc.bounds(), (5, 5));
    }

    #[test]
    fn mark_exact_closes_the_gap() {
        let inc = Incumbent::new();
        inc.offer_upper(9, &[1]);
        inc.raise_lower(4);
        inc.mark_exact();
        assert_eq!(inc.bounds(), (9, 9));
        assert!(inc.is_exact() && inc.is_cancelled());
    }

    #[test]
    fn attribution_and_convergence_times_track_the_best_offer() {
        let inc = Incumbent::new();
        assert_eq!(inc.winner(), None);
        assert_eq!(inc.time_to_first_upper(), None);
        assert_eq!(inc.time_to_best_upper(), None);
        assert!(inc.offer_upper_as(9, &[0], Engine::Heuristic));
        assert_eq!(inc.winner(), Some(Engine::Heuristic));
        let first = inc.time_to_first_upper().unwrap();
        assert!(inc.offer_upper_as(4, &[1], Engine::AStar));
        assert!(
            !inc.offer_upper_as(6, &[2], Engine::Genetic),
            "worse offer loses"
        );
        assert_eq!(inc.winner(), Some(Engine::AStar));
        assert!(inc.time_to_first_upper().unwrap() <= inc.time_to_best_upper().unwrap());
        assert_eq!(inc.time_to_first_upper().unwrap(), first);
        // unattributed offers win the bound but not the credit
        let inc2 = Incumbent::new();
        inc2.offer_upper(3, &[0]);
        assert_eq!(inc2.winner(), None);
        assert!(inc2.time_to_first_upper().is_some());
    }

    #[test]
    fn lower_alone_never_marks_exact() {
        let inc = Incumbent::new();
        inc.raise_lower(1_000);
        assert!(!inc.is_exact(), "no witness yet");
    }

    #[test]
    fn concurrent_offers_keep_width_and_order_consistent() {
        let inc = Arc::new(Incumbent::new());
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let inc = Arc::clone(&inc);
                s.spawn(move || {
                    for w in (10..200u32).rev() {
                        // each thread's witness encodes the width it offers
                        inc.offer_upper(w + t, &[w + t]);
                    }
                });
            }
        });
        assert_eq!(inc.upper(), 10);
        assert_eq!(inc.best_order().unwrap(), vec![10]);
    }
}
