//! Sharded LRU result cache keyed by canonical form.
//!
//! The key is the full canonical byte serialization (relabeling-invariant;
//! see `htd_hypergraph::canonical`) plus the objective — the 64-bit
//! fingerprint only picks the shard and labels log lines, because FNV can
//! collide and a cache that aliases non-isomorphic instances would serve
//! wrong answers.
//!
//! Admission is *objective-aware*: an exact entry answers every later
//! request for the same instance/objective, while an inexact (anytime
//! bound) entry only answers requests that tolerate inexact results and
//! whose own budget would not have bought a better answer — i.e. requests
//! whose deadline is at most the effort already spent producing the entry.
//! An exact entry is never replaced by an inexact one; merging two inexact
//! entries keeps the tighter bounds. An exact claim above a cached upper
//! bound is refused: the cached witness refutes it, and the refusal is
//! counted as a contradiction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htd_search::Outcome;
use parking_lot::Mutex;

const SHARDS: usize = 16;
/// Fixed bookkeeping charge per entry (map + queue + struct overhead).
const ENTRY_OVERHEAD: usize = 160;

/// One cached solve result.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The cached outcome (bounds, witness, accounting).
    pub outcome: Outcome,
    /// Milliseconds of solve effort that produced this entry; inexact
    /// entries only answer requests with deadlines ≤ this.
    pub effort_ms: u64,
    /// `outcome` rendered as JSON once, at admission, so a hit's response
    /// splices it in instead of rendering the outcome again.
    pub(crate) rendered: Arc<str>,
}

impl Entry {
    fn new(outcome: Outcome, effort_ms: u64) -> Entry {
        let rendered = outcome.to_json().to_string().into();
        Entry {
            outcome,
            effort_ms,
            rendered,
        }
    }

    fn cost(&self, key_len: usize) -> usize {
        let witness = self.outcome.witness.as_ref().map_or(0, |w| w.len() * 4);
        key_len
            + witness
            + self.outcome.per_engine.len() * 100
            + self.rendered.len()
            + ENTRY_OVERHEAD
    }

    /// Whether this entry may answer a request with the given tolerance.
    ///
    /// `deadline_ms` is the requester's budget (`None` = unbounded).
    pub fn answers(&self, accept_inexact: bool, deadline_ms: Option<u64>) -> bool {
        if self.outcome.exact {
            return true;
        }
        accept_inexact && deadline_ms.is_some_and(|d| d <= self.effort_ms)
    }
}

struct Stored {
    entry: Entry,
    seq: u64,
    cost: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Vec<u8>, Stored>,
    /// Lazy LRU: (seq, key) pushed on every touch; stale seqs skipped on
    /// eviction. Bounded by periodic compaction.
    queue: std::collections::VecDeque<(u64, Vec<u8>)>,
    bytes: usize,
    next_seq: u64,
}

impl Shard {
    fn touch(&mut self, key: &[u8]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(s) = self.map.get_mut(key) {
            s.seq = seq;
        }
        self.queue.push_back((seq, key.to_vec()));
        if self.queue.len() > 4 * self.map.len().max(16) {
            let map = &self.map;
            self.queue
                .retain(|(q, k)| map.get(k).is_some_and(|s| s.seq == *q));
        }
    }

    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            match self.queue.pop_front() {
                Some((seq, key)) => {
                    match self.map.get(&key) {
                        Some(s) if s.seq == seq => {}
                        _ => continue, // stale queue record
                    }
                    if let Some(s) = self.map.remove(&key) {
                        self.bytes -= s.cost;
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }
}

/// The sharded cache. All operations are per-shard locked; shard choice
/// comes from the canonical fingerprint, so lookups on distinct instances
/// rarely contend.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_budget: usize,
    entries: AtomicU64,
    contradictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to roughly `capacity_bytes` of estimated entry cost.
    pub fn new(capacity_bytes: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_budget: (capacity_bytes / SHARDS).max(ENTRY_OVERHEAD),
            entries: AtomicU64::new(0),
            contradictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[(fingerprint as usize) % SHARDS]
    }

    fn key(canonical: &[u8], objective_name: &str) -> Vec<u8> {
        let mut k = Vec::with_capacity(canonical.len() + objective_name.len() + 1);
        k.extend_from_slice(objective_name.as_bytes());
        k.push(0);
        k.extend_from_slice(canonical);
        k
    }

    /// Looks up an entry that may answer the request; touches LRU on hit.
    pub fn lookup(
        &self,
        fingerprint: u64,
        canonical: &[u8],
        objective_name: &str,
        accept_inexact: bool,
        deadline_ms: Option<u64>,
    ) -> Option<Entry> {
        let key = Self::key(canonical, objective_name);
        let mut shard = self.shard(fingerprint).lock();
        let hit = match shard.map.get(&key) {
            Some(s) if s.entry.answers(accept_inexact, deadline_ms) => Some(s.entry.clone()),
            _ => None,
        };
        if hit.is_some() {
            shard.touch(&key);
        }
        hit
    }

    /// Admits an outcome. Exact entries win over inexact ones; two inexact
    /// entries merge keeping the tighter bounds and larger effort. An
    /// exact claim above the cached upper bound is refused and counted as
    /// a contradiction: the cached entry's witness achieves a smaller
    /// width, so the claim cannot be exact.
    pub fn admit(
        &self,
        fingerprint: u64,
        canonical: &[u8],
        objective_name: &str,
        outcome: &Outcome,
        effort_ms: u64,
    ) {
        let key = Self::key(canonical, objective_name);
        // rendered before taking the lock that lookups on the event loop
        // wait for; only a merge of two inexact entries renders under it
        let fresh = Entry::new(outcome.clone(), effort_ms);
        let mut shard = self.shard(fingerprint).lock();
        let merged = match shard.map.get(&key) {
            Some(existing) => {
                let old = &existing.entry;
                if outcome.exact && old.outcome.upper < outcome.upper {
                    self.contradictions.fetch_add(1, Ordering::Relaxed);
                    None
                } else if old.outcome.exact && !outcome.exact {
                    // never downgrade an exact answer
                    None
                } else if !old.outcome.exact && !outcome.exact {
                    let mut m = if outcome.upper <= old.outcome.upper {
                        outcome.clone()
                    } else {
                        old.outcome.clone()
                    };
                    m.lower = m
                        .lower
                        .max(old.outcome.lower)
                        .max(outcome.lower)
                        .min(m.upper);
                    m.exact = m.lower == m.upper;
                    Some(Entry::new(m, effort_ms.max(old.effort_ms)))
                } else {
                    Some(fresh)
                }
            }
            None => Some(fresh),
        };
        let Some(entry) = merged else { return };
        let cost = entry.cost(key.len());
        if cost > self.per_shard_budget {
            return; // single oversized entry: never admit
        }
        let seq = shard.next_seq;
        let old_cost = shard
            .map
            .insert(key.clone(), Stored { entry, seq, cost })
            .map(|s| s.cost);
        shard.bytes += cost;
        if let Some(c) = old_cost {
            shard.bytes -= c;
        } else {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        shard.touch(&key);
        let budget = self.per_shard_budget;
        let evicted = shard.evict_to(budget);
        self.entries.fetch_sub(evicted, Ordering::Relaxed);
    }

    /// Number of live entries.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Approximate resident bytes, summed over the shards when asked:
    /// only [`ResultCache::admit`] changes them.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes as u64).sum()
    }

    /// Exact claims refused because a cached upper bound refutes them.
    pub(crate) fn contradictions(&self) -> u64 {
        self.contradictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_search::{Objective, Outcome};
    use std::time::Duration;

    fn outcome(lower: u32, upper: u32, exact: bool) -> Outcome {
        Outcome {
            objective: Objective::Treewidth,
            lower,
            upper,
            exact,
            witness: None,
            nodes: 0,
            elapsed: Duration::from_millis(1),
            per_engine: Vec::new(),
            winner: None,
            time_to_first_upper: None,
            time_to_best_upper: None,
            cover_cache_hits: 0,
            cover_cache_misses: 0,
            degraded: false,
            skipped_engines: Vec::new(),
            deadline_stopped: false,
            mem_budget_aborts: 0,
            detk: Default::default(),
        }
    }

    #[test]
    fn exact_answers_everything_inexact_is_effort_gated() {
        let c = ResultCache::new(1 << 20);
        c.admit(7, b"graph-a", "tw", &outcome(3, 3, true), 50);
        // exact: answers bounded and unbounded, inexact-tolerant or not
        assert!(c.lookup(7, b"graph-a", "tw", false, None).is_some());
        assert!(c.lookup(7, b"graph-a", "tw", true, Some(1)).is_some());

        c.admit(9, b"graph-b", "tw", &outcome(2, 5, false), 200);
        // must accept inexact AND have deadline <= recorded effort
        assert!(c.lookup(9, b"graph-b", "tw", false, None).is_none());
        assert!(c.lookup(9, b"graph-b", "tw", true, None).is_none());
        assert!(c.lookup(9, b"graph-b", "tw", true, Some(500)).is_none());
        assert!(c.lookup(9, b"graph-b", "tw", true, Some(100)).is_some());
        // objective is part of the key
        assert!(c.lookup(9, b"graph-b", "ghw", true, Some(100)).is_none());
    }

    #[test]
    fn exact_never_downgraded_and_inexact_merges_tighter() {
        let c = ResultCache::new(1 << 20);
        c.admit(1, b"g", "tw", &outcome(4, 4, true), 10);
        c.admit(1, b"g", "tw", &outcome(1, 9, false), 999);
        let e = c.lookup(1, b"g", "tw", false, None).unwrap();
        assert!(e.outcome.exact);
        assert_eq!(e.outcome.upper, 4);

        c.admit(2, b"h", "tw", &outcome(2, 8, false), 100);
        c.admit(2, b"h", "tw", &outcome(3, 6, false), 50);
        let e = c.lookup(2, b"h", "tw", true, Some(20)).unwrap();
        assert_eq!((e.outcome.lower, e.outcome.upper), (3, 6));
        assert_eq!(e.effort_ms, 100);
    }

    #[test]
    fn a_larger_exact_claim_is_a_contradiction_not_a_replacement() {
        let c = ResultCache::new(1 << 20);
        c.admit(1, b"g", "tw", &outcome(4, 4, true), 10);
        c.admit(1, b"g", "tw", &outcome(8, 8, true), 10);
        let e = c.lookup(1, b"g", "tw", false, None).unwrap();
        assert_eq!((e.outcome.lower, e.outcome.upper), (4, 4));
        assert_eq!(c.contradictions(), 1);
        // an inexact entry's witness refutes a larger exact claim too
        c.admit(2, b"h", "tw", &outcome(2, 5, false), 10);
        c.admit(2, b"h", "tw", &outcome(6, 6, true), 10);
        let e = c.lookup(2, b"h", "tw", true, Some(10)).unwrap();
        assert_eq!((e.outcome.lower, e.outcome.upper), (2, 5));
        assert_eq!(c.contradictions(), 2);
        // an exact claim at or below the cached upper bound is admitted
        c.admit(1, b"g", "tw", &outcome(3, 3, true), 10);
        let e = c.lookup(1, b"g", "tw", false, None).unwrap();
        assert_eq!(e.outcome.upper, 3);
        assert_eq!(c.contradictions(), 2);
        assert_eq!(c.entries(), 2);
    }

    #[test]
    fn lru_evicts_cold_entries_under_pressure() {
        // tiny cache: per-shard budget fits ~2 entries
        let entry_cost = Entry::new(outcome(1, 1, true), 1).cost("tw\0three".len());
        let c = ResultCache::new(SHARDS * 2 * entry_cost);
        // same shard (same fingerprint), distinct keys
        c.admit(3, b"one", "tw", &outcome(1, 1, true), 1);
        c.admit(3, b"two", "tw", &outcome(1, 1, true), 1);
        // touch "one" so "two" is the LRU victim
        assert!(c.lookup(3, b"one", "tw", false, None).is_some());
        c.admit(3, b"three", "tw", &outcome(1, 1, true), 1);
        assert!(c.lookup(3, b"one", "tw", false, None).is_some());
        assert!(c.lookup(3, b"two", "tw", false, None).is_none());
        assert!(c.entries() <= 2);
    }
}
