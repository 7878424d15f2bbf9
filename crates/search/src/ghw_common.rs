//! Shared machinery of the generalized-hypertree-width searches.

use std::sync::Arc;

use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_hypergraph::{EliminationGraph, Hypergraph, Vertex, VertexSet};
use htd_setcover::exact::{CoverResult, ExactCover};
use htd_setcover::CoverCache;
use rand::rngs::StdRng;

/// Hypergraph context shared by BB-ghw and A*-ghw: edge scopes, incidence,
/// a memoized exact-cover oracle and the per-node lower bound, plus the
/// scratch buffers that keep those per-node calls allocation-free.
///
/// The cover memo is a concurrent [`CoverCache`]: a context created with
/// [`GhwContext::with_cache`] shares its memo with every other evaluation
/// holding the same cache (portfolio workers, the A* sibling search, the
/// GA fitness loop), so a bag's exact cover is solved once per run rather
/// than once per engine.
pub(crate) struct GhwContext {
    pub edges: Vec<VertexSet>,
    pub incident: Vec<Vec<u32>>,
    pub rank: u32,
    /// bag (bitset blocks) → exact minimum cover size, shared across a run
    cache: Arc<CoverCache>,
    mmw: MinorScratch,
    bag: VertexSet,
    /// greedy cover state: candidate edge ids, their marks, what is left
    cands: Vec<u32>,
    stamp: Vec<bool>,
    uncovered: VertexSet,
}

impl GhwContext {
    #[allow(dead_code)] // convenience constructor for tests and callers without a shared cache
    pub fn new(h: &Hypergraph) -> Self {
        Self::with_cache(h, Arc::new(CoverCache::new()))
    }

    /// A context whose exact-cover memo is the shared `cache`. The cache
    /// must only ever see bags of this hypergraph (exact strategy).
    pub fn with_cache(h: &Hypergraph, cache: Arc<CoverCache>) -> Self {
        GhwContext {
            edges: h.edges().to_vec(),
            incident: (0..h.num_vertices())
                .map(|v| h.incident_edges(v).to_vec())
                .collect(),
            rank: h.rank(),
            cache,
            mmw: MinorScratch::default(),
            bag: VertexSet::default(),
            cands: Vec::new(),
            stamp: vec![false; h.num_edges() as usize],
            uncovered: VertexSet::default(),
        }
    }

    /// Exact minimum cover of the bag `{v} ∪ N(v)` that eliminating `v`
    /// would produce, memoized. Returns `None` for uncoverable bags.
    pub fn cover_bag(&mut self, eg: &EliminationGraph, v: Vertex) -> Option<u32> {
        self.bag.copy_from(eg.neighbors(v));
        self.bag.insert(v);
        let bag = &self.bag;
        self.cache.get_or_insert_with(bag.blocks(), || {
            // candidates: edges touching the bag
            let mut cands: Vec<VertexSet> = Vec::new();
            let mut stamp = vec![false; self.edges.len()];
            for v in bag.iter() {
                for &e in &self.incident[v as usize] {
                    if !stamp[e as usize] {
                        stamp[e as usize] = true;
                        cands.push(self.edges[e as usize].clone());
                    }
                }
            }
            match ExactCover::new(&cands).cover(bag) {
                CoverResult::Optimal(c) => Some(c.len() as u32),
                CoverResult::Truncated(c) => Some(c.len() as u32), // unbudgeted: unreachable
                CoverResult::Uncoverable => None,
            }
        })
    }

    /// Greedy cover of `bag` — used for the PR1-style achievable bound on
    /// the whole alive set, where an exact cover would be exponential in
    /// the set size and only an *upper* bound is needed.
    pub fn cover_greedy(&mut self, bag: &VertexSet) -> Option<u32> {
        if bag.is_empty() {
            return Some(0);
        }
        self.cands.clear();
        for v in bag.iter() {
            for &e in &self.incident[v as usize] {
                if !self.stamp[e as usize] {
                    self.stamp[e as usize] = true;
                    self.cands.push(e);
                }
            }
        }
        for &e in &self.cands {
            self.stamp[e as usize] = false;
        }
        self.uncovered.copy_from(bag);
        let mut count = 0u32;
        while !self.uncovered.is_empty() {
            // the last candidate of largest gain, as `max_by_key` picks
            let best = self
                .cands
                .iter()
                .map(|&e| self.edges[e as usize].intersection_len(&self.uncovered))
                .enumerate()
                .max_by_key(|&(_, gain)| gain)?;
            if best.1 == 0 {
                return None;
            }
            let e = self.cands[best.0] as usize;
            self.uncovered.difference_with(&self.edges[e]);
            count += 1;
        }
        Some(count)
    }

    /// The ghw-simplicial reduction: a vertex whose closed neighborhood is
    /// contained in a single hyperedge may be eliminated immediately (its
    /// bag costs 1 and removing it cannot raise the optimum). The edges
    /// tried contain `v`, so testing `N(v)` suffices.
    pub fn find_ghw_reducible(&self, eg: &EliminationGraph) -> Option<Vertex> {
        eg.alive().iter().find(|&v| {
            let nb = eg.neighbors(v);
            self.incident[v as usize]
                .iter()
                .any(|&e| nb.is_subset(&self.edges[e as usize]))
        })
    }

    /// Per-node lower bound on the cover width of any completion: some
    /// future bag has at least `tw_lb(G') + 1` vertices (the completion is
    /// a tree decomposition of the current graph) and covering `s` vertices
    /// needs `⌈s / rank⌉` edges (§8.1).
    pub fn node_lower_bound(&mut self, eg: &EliminationGraph, rng: &mut StdRng) -> u32 {
        if eg.num_alive() == 0 {
            return 0;
        }
        let tw_lb = minor_min_width_alive(eg, &mut self.mmw, rng);
        htd_setcover::ksc_lower_bound(tw_lb + 1, self.rank)
    }

    /// Swap rule for ghw searches: only the **non-adjacent** case of PR2 is
    /// used — swapping two non-adjacent consecutive eliminations produces
    /// the identical bag *sets*, hence identical cover widths. (The
    /// adjacent case of PR2 only preserves bag cardinalities, which is
    /// enough for treewidth but not for cover width.)
    pub fn swappable_ghw(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool {
        !eg.has_edge(v, w)
    }
}
