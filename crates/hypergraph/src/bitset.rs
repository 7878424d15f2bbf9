//! Fixed-capacity bitsets over `u64` blocks.
//!
//! [`VertexSet`] is the universal small-set type of the workspace: bags of
//! tree decompositions, neighborhoods of elimination graphs, hyperedge
//! scopes and set-cover states are all `VertexSet`s. The capacity is chosen
//! at construction and all binary operations require equal capacity, which
//! keeps the hot loops free of bounds decisions.

use std::fmt;

/// Number of bits per block.
const BITS: usize = 64;

/// A fixed-capacity set of vertices backed by `u64` blocks.
///
/// Invariant: bits at positions `>= capacity` are always zero, so block-wise
/// comparisons (`==`, `is_subset`) are exact.
///
/// ```
/// use htd_hypergraph::VertexSet;
/// let mut s = VertexSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(64));
/// let t = VertexSet::from_iter_with_capacity(100, [3, 5]);
/// assert_eq!(s.intersection(&t).to_vec(), vec![3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VertexSet {
    blocks: Vec<u64>,
    capacity: u32,
}

impl VertexSet {
    /// Creates an empty set with room for vertices `0..capacity`.
    pub fn new(capacity: u32) -> Self {
        let nblocks = (capacity as usize).div_ceil(BITS);
        VertexSet {
            blocks: vec![0; nblocks],
            capacity,
        }
    }

    /// Creates a set containing all vertices `0..capacity`.
    pub fn full(capacity: u32) -> Self {
        let mut s = Self::new(capacity);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of members.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = u32>>(capacity: u32, iter: I) -> Self {
        let mut s = Self::new(capacity);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// The capacity (universe size) of the set.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Clears all bits above `capacity` (restores the invariant).
    #[inline]
    fn trim(&mut self) {
        let rem = (self.capacity as usize) % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `v`. Returns `true` if `v` was not already present.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        debug_assert!(
            v < self.capacity,
            "vertex {v} out of capacity {}",
            self.capacity
        );
        let (b, m) = (v as usize / BITS, 1u64 << (v as usize % BITS));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] |= m;
        !was
    }

    /// Removes `v`. Returns `true` if `v` was present.
    #[inline]
    pub fn remove(&mut self, v: u32) -> bool {
        let (b, m) = (v as usize / BITS, 1u64 << (v as usize % BITS));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let (b, m) = (v as usize / BITS, 1u64 << (v as usize % BITS));
        self.blocks[b] & m != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u32 {
        self.blocks.iter().map(|b| b.count_ones()).sum()
    }

    /// `true` iff the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all members.
    #[inline]
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Makes `self` a copy of `other`, reusing `self`'s block buffer (no
    /// allocation once the buffer has grown to `other`'s size).
    #[inline]
    pub fn copy_from(&mut self, other: &VertexSet) {
        self.blocks.clear();
        self.blocks.extend_from_slice(&other.blocks);
        self.capacity = other.capacity;
    }

    /// In-place union: `self |= other`.
    #[inline]
    pub fn union_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    #[inline]
    pub fn difference_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns a new set `self | other`.
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns a new set `self & other`.
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns a new set `self \ other`.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// `true` iff every member of `self` is a member of `other`.
    #[inline]
    pub fn is_subset(&self, other: &VertexSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the sets share no member.
    #[inline]
    pub fn is_disjoint(&self, other: &VertexSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// `|self & other|` without allocating.
    #[inline]
    pub fn intersection_len(&self, other: &VertexSet) -> u32 {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_len(&self, other: &VertexSet) -> u32 {
        debug_assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & !b).count_ones())
            .sum()
    }

    /// The smallest member, or `None` if empty.
    #[inline]
    pub fn first(&self) -> Option<u32> {
        for (i, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some((i * BITS) as u32 + b.trailing_zeros());
            }
        }
        None
    }

    /// The largest member, or `None` if empty.
    #[inline]
    pub fn last(&self) -> Option<u32> {
        for (i, &b) in self.blocks.iter().enumerate().rev() {
            if b != 0 {
                return Some((i * BITS) as u32 + 63 - b.leading_zeros());
            }
        }
        None
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects members into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Raw block view (for hashing / canonical keys).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Mutable block view for word-level kernels. Callers keep the
    /// invariant: bits at positions `>= capacity` stay zero.
    #[inline]
    pub(crate) fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for VertexSet {
    /// Builds a set whose capacity is `max(members)+1` (or 0 when empty).
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let items: Vec<u32> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        Self::from_iter_with_capacity(cap, items)
    }
}

/// Iterator over the members of a [`VertexSet`].
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.block_idx * BITS) as u32 + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a VertexSet {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VertexSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.to_vec(), vec![0, 129]);
    }

    #[test]
    fn full_respects_capacity() {
        let s = VertexSet::full(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.last(), Some(69));
        let s = VertexSet::full(64);
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_iter_with_capacity(10, [1, 3, 5, 7]);
        let b = VertexSet::from_iter_with_capacity(10, [3, 4, 5]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 3, 4, 5, 7]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 5]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 7]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.difference_len(&b), 2);
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.is_disjoint(&VertexSet::from_iter_with_capacity(10, [0, 2])));
    }

    #[test]
    fn first_last_iter() {
        let s = VertexSet::from_iter_with_capacity(200, [5, 66, 199]);
        assert_eq!(s.first(), Some(5));
        assert_eq!(s.last(), Some(199));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 66, 199]);
        let e = VertexSet::new(8);
        assert_eq!(e.first(), None);
        assert_eq!(e.last(), None);
        assert!(e.is_empty());
    }

    #[test]
    fn from_iterator_infers_capacity() {
        let s: VertexSet = [2u32, 9, 4].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![2, 4, 9]);
        let e: VertexSet = std::iter::empty().collect();
        assert_eq!(e.capacity(), 0);
        assert!(e.is_empty());
    }
}
