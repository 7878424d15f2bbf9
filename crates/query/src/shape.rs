//! The shape cache: decompositions keyed on the canonical form of the
//! query hypergraph.
//!
//! Two queries with the same *shape* — isomorphic constraint
//! hypergraphs, regardless of variable names or relation data — need
//! only one decomposition. The cache therefore keys on the canonical
//! bytes of [`htd_hypergraph::canonical::canonical_form`] and stores an
//! **elimination ordering** rather than a tree decomposition: equal
//! canonical bytes guarantee equal vertex counts, and *any* permutation
//! of the vertices is a valid elimination ordering of *any* hypergraph
//! on those vertices, so replaying a cached ordering through bucket
//! elimination always yields a valid decomposition for the new query.
//! The ordering's width is exactly reproduced when the hit comes from
//! the same literal labeling (the overwhelmingly common case: the same
//! prepared query re-sent with fresh data); for a differently-labeled
//! isomorphic shape the replayed ordering can in principle be wider,
//! but never *invalid* — correctness of answers is unaffected.
//!
//! The cache counts its own hits and misses ([`ShapeCache::counts`]);
//! a server that owns one reads them when `/metrics` is scraped
//! (`htd_answer_shape_cache_{hits,misses}_total`).

use std::collections::HashMap;
use std::sync::Mutex;

use htd_core::EliminationOrdering;

/// A bounded map from canonical hypergraph bytes to elimination
/// orderings, FIFO-evicted. All methods are thread-safe.
pub struct ShapeCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Vec<u8>, Vec<u32>>,
    order: std::collections::VecDeque<Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl ShapeCache {
    /// A cache holding at most `capacity` shapes (at least 1).
    pub fn new(capacity: usize) -> ShapeCache {
        ShapeCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up the ordering cached for `canonical_bytes`, counting the
    /// hit or miss.
    pub fn lookup(&self, canonical_bytes: &[u8]) -> Option<EliminationOrdering> {
        let mut inner = self.inner.lock().unwrap();
        match inner.map.get(canonical_bytes) {
            Some(order) => {
                let order = order.clone();
                inner.hits += 1;
                Some(EliminationOrdering::new_unchecked(order))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores `order` for `canonical_bytes`, evicting the oldest shape
    /// when full. Re-inserting an existing shape replaces its ordering.
    pub fn insert(&self, canonical_bytes: Vec<u8>, order: &EliminationOrdering) {
        let mut inner = self.inner.lock().unwrap();
        if inner
            .map
            .insert(canonical_bytes.clone(), order.as_slice().to_vec())
            .is_none()
        {
            inner.order.push_back(canonical_bytes);
            while inner.order.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                }
            }
        }
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// `true` iff no shape is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_fifo_eviction() {
        let cache = ShapeCache::new(2);
        assert!(cache.lookup(b"a").is_none());
        cache.insert(b"a".to_vec(), &EliminationOrdering::identity(3));
        assert_eq!(cache.lookup(b"a").unwrap().as_slice(), &[0, 1, 2]);
        cache.insert(b"b".to_vec(), &EliminationOrdering::identity(2));
        cache.insert(b"c".to_vec(), &EliminationOrdering::identity(1));
        assert!(cache.lookup(b"a").is_none(), "oldest shape evicted");
        assert!(cache.lookup(b"b").is_some());
        assert!(cache.lookup(b"c").is_some());
        assert_eq!(cache.len(), 2);
        let (hits, misses) = cache.counts();
        assert_eq!((hits, misses), (3, 2));
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let cache = ShapeCache::new(4);
        cache.insert(b"a".to_vec(), &EliminationOrdering::identity(2));
        cache.insert(
            b"a".to_vec(),
            &EliminationOrdering::new_unchecked(vec![1, 0]),
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(b"a").unwrap().as_slice(), &[1, 0]);
    }
}
