//! Mutable elimination graphs with O(fill) undo.
//!
//! Eliminating a vertex `v` turns its neighborhood into a clique and removes
//! `v` — the basic step of every elimination-ordering algorithm (thesis
//! §2.5.3). The thesis implementation (§5.2.1) keeps matrices `A`, `E`, `T`
//! to restore eliminated vertices; [`EliminationGraph`] achieves the same
//! with an explicit undo log: each [`eliminate`](EliminationGraph::eliminate)
//! records the neighborhood it destroyed and, per neighbor, the fill bits it
//! added, and [`undo`](EliminationGraph::undo) pops the log. Depth-first
//! searches over orderings (branch and bound) pay O(fill) per backtrack
//! instead of rebuilding the graph.
//!
//! The kernels work on the rows' `u64` words: fill is added word by word
//! (`adj[u] |= nb & !adj[u]`), and the log's words live in one buffer that
//! undo truncates, so once a search has reached its deepest level nothing
//! here allocates.
//!
//! Invariant: the adjacency row of every **alive** vertex contains only
//! alive vertices, so degrees and neighborhoods are direct bitset reads.

use crate::bitset::VertexSet;
use crate::graph::Graph;
use crate::Vertex;

/// One entry of the undo log: the eliminated vertex and where its saved
/// words start in [`EliminationGraph::saved`].
#[derive(Clone, Copy, Debug)]
struct ElimRecord {
    vertex: Vertex,
    start: usize,
}

/// A graph under vertex elimination, supporting LIFO undo.
///
/// ```
/// use htd_hypergraph::{EliminationGraph, Graph};
/// // a 4-cycle: eliminating vertex 0 adds the fill edge {1, 3}
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let mut eg = EliminationGraph::new(&g);
/// assert_eq!(eg.eliminate(0), 2);
/// assert!(eg.has_edge(1, 3));
/// eg.undo();
/// assert!(!eg.has_edge(1, 3));
/// ```
#[derive(Clone, Debug)]
pub struct EliminationGraph {
    adj: Vec<VertexSet>,
    alive: VertexSet,
    /// `u64` words per adjacency row.
    words: usize,
    log: Vec<ElimRecord>,
    /// The words of every logged elimination, in log order: the eliminated
    /// vertex's row, then for each of its neighbors, in increasing order,
    /// the fill bits added to that neighbor's row.
    saved: Vec<u64>,
}

/// Calls `f` on the members in `bits`, block `i` of a set, in increasing
/// order. `bits` is a copy, so `f` may change the set it was read from.
#[inline]
fn for_each_bit(i: usize, mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(i * 64 + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Block index and mask of vertex `v`.
#[inline]
fn bit(v: usize) -> (usize, u64) {
    (v / 64, 1u64 << (v % 64))
}

impl EliminationGraph {
    /// Builds an elimination view of `g` with all vertices alive.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        EliminationGraph {
            adj: (0..n).map(|v| g.neighbors(v).clone()).collect(),
            alive: VertexSet::full(n),
            words: (n as usize).div_ceil(64),
            log: Vec::new(),
            saved: Vec::new(),
        }
    }

    /// Total number of vertices (alive and eliminated).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Number of alive vertices.
    #[inline]
    pub fn num_alive(&self) -> u32 {
        self.alive.len()
    }

    /// The set of alive vertices.
    #[inline]
    pub fn alive(&self) -> &VertexSet {
        &self.alive
    }

    /// `true` iff `v` has not been eliminated.
    #[inline]
    pub fn is_alive(&self, v: Vertex) -> bool {
        self.alive.contains(v)
    }

    /// Alive neighborhood of an alive vertex.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &VertexSet {
        debug_assert!(self.is_alive(v));
        &self.adj[v as usize]
    }

    /// Degree of an alive vertex.
    #[inline]
    pub fn degree(&self, v: Vertex) -> u32 {
        debug_assert!(self.is_alive(v));
        self.adj[v as usize].len()
    }

    /// `true` iff alive vertices `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.adj[u as usize].contains(v)
    }

    /// Number of eliminations currently on the undo log.
    #[inline]
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Number of fill edges `eliminate(v)` would add, without eliminating.
    pub fn fill_count(&self, v: Vertex) -> usize {
        let nb = &self.adj[v as usize];
        let mut missing = 0usize;
        for u in nb.iter() {
            // neighbors of v that are not neighbors of u (and not u itself)
            missing += nb.difference_len(&self.adj[u as usize]) as usize - 1;
        }
        missing / 2
    }

    /// `true` iff the neighborhood of alive vertex `v` is a clique.
    pub fn is_simplicial(&self, v: Vertex) -> bool {
        let nb = &self.adj[v as usize];
        nb.iter()
            .all(|u| nb.difference_len(&self.adj[u as usize]) == 1)
    }

    /// `true` iff all but one neighbor of `v` induce a clique
    /// (Definition 23 of the thesis). Simplicial vertices qualify too;
    /// callers that need strictness should test [`is_simplicial`] first.
    ///
    /// [`is_simplicial`]: Self::is_simplicial
    pub fn is_almost_simplicial(&self, v: Vertex) -> bool {
        let nb = &self.adj[v as usize];
        // a neighbor with a non-neighbor inside N(v); none: simplicial
        let Some(u) = nb
            .iter()
            .find(|&u| nb.difference_len(&self.adj[u as usize]) > 1)
        else {
            return true;
        };
        // the skipped neighbor is an endpoint of every missing edge, so it
        // is u, or u's only non-neighbor when u has just one
        if self.clique_skipping(nb, u) {
            return true;
        }
        let row = &self.adj[u as usize];
        let mut others = nb.iter().filter(|&w| w != u && !row.contains(w));
        match (others.next(), others.next()) {
            (Some(w), None) => self.clique_skipping(nb, w),
            _ => false,
        }
    }

    /// `true` iff `nb \ {skip}` is a clique.
    fn clique_skipping(&self, nb: &VertexSet, skip: Vertex) -> bool {
        nb.iter().filter(|&x| x != skip).all(|x| {
            let row = &self.adj[x as usize];
            // nb \ N(x) holds x itself, and skip when x misses it
            nb.difference_len(row) - u32::from(!row.contains(skip)) == 1
        })
    }

    /// Eliminates alive vertex `v`: connects its neighbors pairwise, removes
    /// `v`, and pushes an undo record. Returns the degree of `v` at
    /// elimination time (the bag size minus one).
    pub fn eliminate(&mut self, v: Vertex) -> u32 {
        debug_assert!(self.is_alive(v), "eliminate of dead vertex {v}");
        let words = self.words;
        let start = self.saved.len();
        let deg = self.adj[v as usize].len();
        self.saved.reserve(words * (deg as usize + 1));
        self.saved.extend_from_slice(self.adj[v as usize].blocks());
        let (vb, vm) = bit(v as usize);
        let (adj, saved) = (&mut self.adj, &mut self.saved);
        for i in 0..words {
            for_each_bit(i, saved[start + i], |u| {
                let (ub, um) = bit(u);
                let row = adj[u].blocks_mut();
                row[vb] &= !vm;
                for (j, w) in row.iter_mut().enumerate() {
                    // neighbors of v missing from u's row, u excluded
                    let mut fill = saved[start + j] & !*w;
                    if j == ub {
                        fill &= !um;
                    }
                    *w |= fill;
                    saved.push(fill);
                }
            });
        }
        self.alive.remove(v);
        self.log.push(ElimRecord { vertex: v, start });
        deg
    }

    /// Undoes the most recent elimination. Returns the restored vertex,
    /// or `None` if the log is empty.
    pub fn undo(&mut self) -> Option<Vertex> {
        let ElimRecord { vertex: v, start } = self.log.pop()?;
        let words = self.words;
        let (vb, vm) = bit(v as usize);
        let (adj, saved) = (&mut self.adj, &self.saved);
        let mut fill = start + words;
        for i in 0..words {
            for_each_bit(i, saved[start + i], |u| {
                let row = adj[u].blocks_mut();
                for (w, added) in row.iter_mut().zip(&saved[fill..fill + words]) {
                    *w &= !added;
                }
                row[vb] |= vm;
                fill += words;
            });
        }
        adj[v as usize]
            .blocks_mut()
            .copy_from_slice(&saved[start..start + words]);
        self.saved.truncate(start);
        self.alive.insert(v);
        Some(v)
    }

    /// Undoes eliminations until only `target_len` remain on the log.
    pub fn undo_to(&mut self, target_len: usize) {
        while self.log.len() > target_len {
            self.undo();
        }
    }

    /// Contracts alive vertex `remove` into alive neighbor `keep`
    /// (minor operation): `keep`'s neighborhood becomes
    /// `(N(keep) ∪ N(remove)) \ {keep, remove}` and `remove` disappears.
    ///
    /// Contractions are **not** undoable; they are meant for scratch copies
    /// inside lower-bound heuristics (minor-γR, degeneracy).
    pub fn contract_into(&mut self, keep: Vertex, remove: Vertex) {
        debug_assert!(self.is_alive(keep) && self.is_alive(remove));
        debug_assert!(self.log.is_empty(), "contract on a graph with undo log");
        let (kb, km) = bit(keep as usize);
        let (rb, rm) = bit(remove as usize);
        for i in 0..self.words {
            let bits = self.adj[remove as usize].blocks()[i];
            for_each_bit(i, bits, |u| {
                let row = self.adj[u].blocks_mut();
                row[rb] &= !rm;
                row[kb] |= km;
            });
            self.adj[keep as usize].blocks_mut()[i] |= bits;
        }
        let row = self.adj[keep as usize].blocks_mut();
        row[kb] &= !km;
        row[rb] &= !rm;
        self.adj[remove as usize].clear();
        self.alive.remove(remove);
    }

    /// Deletes alive vertex `v` and its incident edges without fill — the
    /// other minor operation. Like [`contract_into`](Self::contract_into),
    /// deletions are not undoable and are meant for scratch copies.
    pub fn delete_vertex(&mut self, v: Vertex) {
        debug_assert!(self.is_alive(v));
        debug_assert!(self.log.is_empty(), "delete on a graph with undo log");
        for i in 0..self.words {
            let bits = self.adj[v as usize].blocks()[i];
            for_each_bit(i, bits, |u| {
                self.adj[u].remove(v);
            });
        }
        self.adj[v as usize].clear();
        self.alive.remove(v);
    }

    /// Snapshot of the alive subgraph as an immutable [`Graph`] with the
    /// original vertex numbering (dead vertices become isolated).
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.capacity());
        for v in self.alive.iter() {
            for u in self.adj[v as usize].iter() {
                if u > v {
                    g.add_edge(v, u);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn eliminate_adds_fill_and_undo_restores() {
        // 4-cycle: eliminating 0 adds fill edge (1,3)
        let g = cycle(4);
        let mut eg = EliminationGraph::new(&g);
        let before = eg.clone();
        let deg = eg.eliminate(0);
        assert_eq!(deg, 2);
        assert!(!eg.is_alive(0));
        assert!(eg.has_edge(1, 3));
        assert_eq!(eg.num_alive(), 3);
        eg.undo();
        assert_eq!(eg.alive().to_vec(), before.alive().to_vec());
        for v in 0..4u32 {
            assert_eq!(
                eg.neighbors(v).to_vec(),
                before.neighbors(v).to_vec(),
                "row {v} not restored"
            );
        }
    }

    #[test]
    fn fill_count_matches_eliminate() {
        let g = cycle(5);
        let mut eg = EliminationGraph::new(&g);
        for v in 0..5 {
            let predicted = eg.fill_count(v);
            let log_before = eg.log_len();
            let edges_before = eg.to_graph().num_edges();
            let deg = eg.eliminate(v) as usize;
            let added = eg.to_graph().num_edges() + deg - edges_before;
            assert_eq!(predicted, added, "vertex {v}");
            eg.undo_to(log_before);
        }
    }

    #[test]
    fn nested_eliminate_undo_roundtrip() {
        let g = cycle(6);
        let mut eg = EliminationGraph::new(&g);
        let orig = eg.clone();
        eg.eliminate(0);
        eg.eliminate(2);
        eg.eliminate(4);
        assert_eq!(eg.num_alive(), 3);
        eg.undo_to(0);
        for v in 0..6u32 {
            assert_eq!(eg.neighbors(v).to_vec(), orig.neighbors(v).to_vec());
        }
        assert_eq!(eg.num_alive(), 6);
    }

    #[test]
    fn simplicial_detection() {
        // K3 plus pendant at 0
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(eg.is_simplicial(3));
        assert!(eg.is_simplicial(1));
        assert!(!eg.is_simplicial(0));
        assert!(eg.is_almost_simplicial(0)); // drop 3 → {1,2} clique
    }

    #[test]
    fn almost_simplicial_on_cycle() {
        // In C5 every vertex has 2 non-adjacent neighbors: almost simplicial
        // (drop one neighbor, the other is a singleton clique).
        let eg = EliminationGraph::new(&cycle(5));
        for v in 0..5 {
            assert!(!eg.is_simplicial(v));
            assert!(eg.is_almost_simplicial(v));
        }
    }

    #[test]
    fn contraction_merges_neighborhoods() {
        // path 0-1-2-3; contract 1 into 2 → path 0-2-3
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let mut eg = EliminationGraph::new(&g);
        eg.contract_into(2, 1);
        assert!(!eg.is_alive(1));
        assert!(eg.has_edge(0, 2));
        assert!(eg.has_edge(2, 3));
        assert_eq!(eg.degree(2), 2);
        assert_eq!(eg.degree(0), 1);
    }

    #[test]
    fn delete_removes_without_fill() {
        let mut eg = EliminationGraph::new(&cycle(4));
        eg.delete_vertex(0);
        assert!(!eg.is_alive(0));
        assert!(!eg.has_edge(1, 3)); // no fill, unlike eliminate
        assert_eq!(eg.degree(1), 1);
        assert_eq!(eg.num_alive(), 3);
    }

    #[test]
    fn to_graph_snapshots_alive_subgraph() {
        let mut eg = EliminationGraph::new(&cycle(4));
        eg.eliminate(0);
        let g = eg.to_graph();
        assert_eq!(g.degree(0), 0);
        assert!(g.has_edge(1, 3)); // fill edge present
        assert_eq!(g.num_edges(), 3);
    }
}
