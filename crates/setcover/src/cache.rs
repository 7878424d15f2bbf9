//! A concurrent memoized set-cover cache, shared across every ghw
//! evaluation of a run.
//!
//! All ghw engines — BB-ghw, A*-ghw, the ordering evaluators and the GA
//! fitness loop — repeatedly solve minimum covers of *bags*, and distinct
//! orderings produce overwhelmingly overlapping bag sets (the thesis's
//! Fig. 7.1 evaluation recomputes them per ordering). The cache maps a
//! bag's bitset blocks to its minimum cover size once, under a sharded
//! lock map so concurrent portfolio workers share results without
//! contending on a single lock.
//!
//! Values are cover *sizes*; [`UNCOVERABLE`] marks bags no hyperedge set
//! covers. A cache must only be shared between evaluations over the same
//! hypergraph **and** the same covering strategy — greedy and exact sizes
//! differ, so the portfolio keeps one cache per strategy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htd_resilience::MemoryBudget;
use parking_lot::Mutex;

/// Sentinel cover size for uncoverable bags.
pub const UNCOVERABLE: u32 = u32::MAX;

const SHARDS: usize = 64;

/// FxHash — the compiler's multiply-xor hasher. Bag keys are short `u64`
/// slices, where SipHash's per-call setup dominates; Fx is ~5× faster and
/// collision quality is irrelevant for correctness here.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type Shard = HashMap<Box<[u64]>, u32, BuildHasherDefault<FxHasher>>;

/// Concurrent bag-bitset → minimum-cover-size map.
///
/// ```
/// use htd_setcover::cache::CoverCache;
/// let cache = CoverCache::new();
/// assert_eq!(cache.get(&[0b1011]), None);
/// let size = cache.get_or_insert_with(&[0b1011], || Some(2));
/// assert_eq!(size, Some(2));
/// assert_eq!(cache.get(&[0b1011]), Some(Some(2)));
/// assert_eq!(cache.hits(), 1);
/// ```
pub struct CoverCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Shared run-wide budget; when set, inserts that would exceed it are
    /// dropped (the cache degrades to a pass-through, never an error).
    budget: Option<Arc<MemoryBudget>>,
}

impl Default for CoverCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CoverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl CoverCache {
    /// An empty cache with the default shard count.
    pub fn new() -> Self {
        CoverCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: None,
        }
    }

    /// An empty cache whose inserts charge `budget`. Once the shared
    /// budget is exceeded the cache stops growing: lookups still hit
    /// existing entries, but new results are computed and returned
    /// without being retained.
    pub fn with_budget(budget: Arc<MemoryBudget>) -> Self {
        let mut c = CoverCache::new();
        c.budget = Some(budget);
        c
    }

    /// Approximate heap bytes retained per entry: the boxed key blocks
    /// plus hash-map entry overhead (key header, value, control bytes).
    #[inline]
    fn entry_cost(key: &[u64]) -> u64 {
        (key.len() as u64) * 8 + 48
    }

    #[inline]
    fn shard(&self, key: &[u64]) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        for &w in key {
            h.write_u64(w);
        }
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Looks up a bag. `None` = not cached; `Some(None)` = cached as
    /// uncoverable; `Some(Some(k))` = cached minimum cover size `k`.
    pub fn get(&self, key: &[u64]) -> Option<Option<u32>> {
        let found = self.shard(key).lock().get(key).copied();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((v != UNCOVERABLE).then_some(v))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a bag's cover size (`None` = uncoverable). Under an
    /// exceeded [`MemoryBudget`] the insert is silently dropped — the
    /// caller's computed value is still correct, it just isn't memoized.
    pub fn insert(&self, key: &[u64], size: Option<u32>) {
        if let Some(b) = &self.budget {
            if !b.charge(Self::entry_cost(key)) {
                return;
            }
        }
        let v = size.unwrap_or(UNCOVERABLE);
        self.shard(key).lock().insert(key.into(), v);
    }

    /// Returns the cached size or computes, caches and returns it. The
    /// computation runs *outside* the shard lock: a racing duplicate
    /// computation is possible and harmless (both write the same value),
    /// while holding the lock across an exponential cover search would
    /// serialize every worker hashing to the shard.
    pub fn get_or_insert_with(
        &self,
        key: &[u64],
        compute: impl FnOnce() -> Option<u32>,
    ) -> Option<u32> {
        if let Some(cached) = self.get(key) {
            return cached;
        }
        let size = compute();
        self.insert(key, size);
        size
    }

    /// Cache hits so far (both `get` paths).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached bags.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` iff no bag is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn miss_then_hit() {
        let c = CoverCache::new();
        assert_eq!(c.get(&[3, 0]), None);
        c.insert(&[3, 0], Some(2));
        assert_eq!(c.get(&[3, 0]), Some(Some(2)));
        assert_eq!(c.get(&[3, 1]), None);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn uncoverable_sentinel_round_trips() {
        let c = CoverCache::new();
        c.insert(&[7], None);
        assert_eq!(c.get(&[7]), Some(None));
    }

    #[test]
    fn get_or_insert_with_computes_once_per_key() {
        let c = CoverCache::new();
        let mut calls = 0;
        let v = c.get_or_insert_with(&[9], || {
            calls += 1;
            Some(4)
        });
        assert_eq!(v, Some(4));
        let v = c.get_or_insert_with(&[9], || {
            calls += 1;
            Some(99)
        });
        assert_eq!(v, Some(4));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhausted_budget_stops_growth_but_not_answers() {
        let budget = MemoryBudget::new(3 * (8 + 48));
        let c = CoverCache::with_budget(Arc::clone(&budget));
        for i in 0..10u64 {
            let got = c.get_or_insert_with(&[i], || Some(i as u32));
            assert_eq!(got, Some(i as u32), "pass-through must stay correct");
        }
        assert!(c.len() <= 4, "budget must bound retained entries");
        assert!(budget.exceeded());
        // retained entries still hit
        assert_eq!(c.get(&[0]), Some(Some(0)));
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let c = Arc::new(CoverCache::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = [i % 64, (i + t) % 8];
                        let got = c.get_or_insert_with(&key, || Some((key[0] + key[1]) as u32));
                        assert_eq!(got, Some((key[0] + key[1]) as u32));
                    }
                });
            }
        });
        assert!(c.len() <= 64 * 8);
        assert!(c.hits() + c.misses() >= 4000);
    }
}
