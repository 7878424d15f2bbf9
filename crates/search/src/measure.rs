//! The bag measure that the exact searches minimise: treewidth or ghw.
//!
//! Branch and bound and A* search the elimination orderings of a graph,
//! and an ordering costs the largest measure of the bags it produces. A
//! bag's size minus one gives treewidth. Its exact cover number gives
//! generalized hypertree width, for which orderings are a complete search
//! space by Theorem 3 with Lemma 13, so BB-ghw (thesis Fig. 8.3) and
//! A*-ghw (Fig. 9.1) are BB-tw and A*-tw under the other measure. A
//! [`Measure`] owns exactly what the two differ in; the searches are
//! generic over it, so every per-node call is static.

use std::ops::ControlFlow;
use std::sync::Arc;

use htd_core::ordering::EliminationOrdering;
use htd_core::{CoverStrategy, GhwEvaluator};
use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_heuristics::reduce;
use htd_heuristics::upper::{min_degree, min_fill};
use htd_hypergraph::{EliminationGraph, Graph, Hypergraph, Vertex, VertexSet};
use htd_setcover::exact::{CoverResult, ExactCover};
use htd_setcover::CoverCache;
use rand::rngs::StdRng;

use crate::config::{SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::Incumbent;
use crate::registry::Engine;

/// What BB and A* need to know about the width they minimise.
pub(crate) trait Measure {
    /// Offers the initial upper bounds on `g` and returns the initial
    /// lower bound, drawing from `rng` in the measure's own order.
    fn initial_bounds(
        &mut self,
        g: &Graph,
        rng: &mut StdRng,
        offer: impl FnMut(u32, &[Vertex]),
    ) -> u32;

    /// The cost of the bag that eliminating `v` produces; `None` when no
    /// edges cover it.
    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> Option<u32>;

    /// A width within which every elimination order of the alive vertices
    /// stays. BB offers it as PR1; A* stops when it is at most `g`.
    fn completion(&mut self, eg: &EliminationGraph) -> Option<u32>;

    /// A lower bound on the width of the alive subgraph.
    fn alive_bound(&mut self, eg: &EliminationGraph, rng: &mut StdRng) -> u32;

    /// The one child a reduction rule forces, if any. `alive` is the
    /// node's [`Measure::alive_bound`] when the caller has drawn it.
    fn forced(
        &mut self,
        eg: &EliminationGraph,
        alive: Option<u32>,
        rng: &mut StdRng,
    ) -> Option<Vertex>;

    /// PR2: `true` iff eliminating `v` then `w` costs the same as `w`
    /// then `v`, evaluated on the graph in which both are still alive.
    fn swappable(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool;
}

/// Treewidth: a bag costs its size minus one.
#[derive(Default)]
pub(crate) struct Treewidth {
    mmw: MinorScratch,
}

impl Measure for Treewidth {
    fn initial_bounds(
        &mut self,
        g: &Graph,
        rng: &mut StdRng,
        mut offer: impl FnMut(u32, &[Vertex]),
    ) -> u32 {
        let lb0 = htd_heuristics::combined_lower_bound(g, rng);
        let h0 = min_fill(g, rng);
        offer(h0.width, h0.ordering.as_slice());
        lb0
    }

    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> Option<u32> {
        Some(eg.degree(v))
    }

    fn completion(&mut self, eg: &EliminationGraph) -> Option<u32> {
        Some(eg.num_alive().saturating_sub(1))
    }

    fn alive_bound(&mut self, eg: &EliminationGraph, rng: &mut StdRng) -> u32 {
        minor_min_width_alive(eg, &mut self.mmw, rng)
    }

    /// The (almost-)simplicial rules are only safe below a lower bound on
    /// the alive subgraph's treewidth, so A* draws one here.
    fn forced(
        &mut self,
        eg: &EliminationGraph,
        alive: Option<u32>,
        rng: &mut StdRng,
    ) -> Option<Vertex> {
        let low = alive.unwrap_or_else(|| self.alive_bound(eg, rng));
        reduce::find_reducible(eg, low)
    }

    /// Non-adjacent, or adjacent while each has a remaining neighbour that
    /// is not a neighbour of the other (thesis §4.4.5, [5]).
    fn swappable(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool {
        if !eg.has_edge(v, w) {
            return true;
        }
        // N(v) \ N(w) always holds w itself, and N(w) \ N(v) holds v
        let nv = eg.neighbors(v);
        let nw = eg.neighbors(w);
        nv.difference_len(nw) > 1 && nw.difference_len(nv) > 1
    }
}

/// Generalized hypertree width: a bag costs its exact cover number.
///
/// The cover memo is a concurrent [`CoverCache`]. The one in
/// `cfg.cover_cache` is shared with every other evaluation that holds it
/// (portfolio workers, the sibling search, the GA fitness loop), so a
/// bag's exact cover is solved once per run rather than once per engine.
/// Without one, the memo is private and charges `cfg.memory_budget`.
pub(crate) struct Ghw<'a> {
    h: &'a Hypergraph,
    rank: u32,
    /// bag (bitset blocks) → exact minimum cover size
    cache: Arc<CoverCache>,
    mmw: MinorScratch,
    bag: VertexSet,
    /// greedy cover state: candidate edge ids, their marks, what is left
    cands: Vec<u32>,
    stamp: Vec<bool>,
    uncovered: VertexSet,
}

impl<'a> Ghw<'a> {
    pub(crate) fn new(h: &'a Hypergraph, cfg: &SearchConfig) -> Self {
        Ghw {
            h,
            rank: h.rank(),
            cache: cfg.exact_cover_cache(),
            mmw: MinorScratch::default(),
            bag: VertexSet::default(),
            cands: Vec::new(),
            stamp: vec![false; h.num_edges() as usize],
            uncovered: VertexSet::default(),
        }
    }

    /// Greedy cover of `bag`: only an upper bound is needed where it is
    /// used, and an exact cover would be exponential in the set size.
    fn cover_greedy(&mut self, bag: &VertexSet) -> Option<u32> {
        if bag.is_empty() {
            return Some(0);
        }
        self.cands.clear();
        for v in bag.iter() {
            for &e in self.h.incident_edges(v) {
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
        let edges = self.h.edges();
        let mut count = 0u32;
        while !self.uncovered.is_empty() {
            // the last candidate of largest gain, as `max_by_key` picks
            let best = self
                .cands
                .iter()
                .map(|&e| edges[e as usize].intersection_len(&self.uncovered))
                .enumerate()
                .max_by_key(|&(_, gain)| gain)?;
            if best.1 == 0 {
                return None;
            }
            self.uncovered
                .difference_with(&edges[self.cands[best.0] as usize]);
            count += 1;
        }
        Some(count)
    }
}

impl Measure for Ghw<'_> {
    /// The best of the min-fill and min-degree orderings under exact
    /// covering, memoized in the search's cache, and the ghw lower bound.
    fn initial_bounds(
        &mut self,
        g: &Graph,
        rng: &mut StdRng,
        mut offer: impl FnMut(u32, &[Vertex]),
    ) -> u32 {
        let mut ev =
            GhwEvaluator::with_cache(self.h, CoverStrategy::Exact, Arc::clone(&self.cache));
        for c in [min_fill(g, rng).ordering, min_degree(g, rng).ordering] {
            if let Some(w) = ev.width(c.as_slice()) {
                offer(w, c.as_slice());
            }
        }
        htd_heuristics::ghw_lower_bound(self.h, rng)
    }

    fn bag_cost(&mut self, eg: &EliminationGraph, v: Vertex) -> Option<u32> {
        self.bag.copy_from(eg.neighbors(v));
        self.bag.insert(v);
        let (h, bag) = (self.h, &self.bag);
        self.cache.get_or_insert_with(bag.blocks(), || {
            let mut cands: Vec<VertexSet> = Vec::new();
            let mut stamp = vec![false; h.edges().len()];
            for v in bag.iter() {
                for &e in h.incident_edges(v) {
                    if !stamp[e as usize] {
                        stamp[e as usize] = true;
                        cands.push(h.edge(e).clone());
                    }
                }
            }
            match ExactCover::new(&cands).cover(bag) {
                CoverResult::Optimal(c) | CoverResult::Truncated(c) => Some(c.len() as u32),
                CoverResult::Uncoverable => None,
            }
        })
    }

    /// Covers are monotone, so every future bag costs at most a cover of
    /// the alive set.
    fn completion(&mut self, eg: &EliminationGraph) -> Option<u32> {
        self.cover_greedy(eg.alive())
    }

    /// Some future bag has at least `mmw + 1` vertices, and covering `s`
    /// vertices needs `⌈s / rank⌉` edges (§8.1).
    fn alive_bound(&mut self, eg: &EliminationGraph, rng: &mut StdRng) -> u32 {
        if eg.num_alive() == 0 {
            return 0;
        }
        let tw_lb = minor_min_width_alive(eg, &mut self.mmw, rng);
        htd_setcover::ksc_lower_bound(tw_lb + 1, self.rank)
    }

    /// The ghw-simplicial rule (§8.2): a vertex whose closed neighbourhood
    /// lies in one hyperedge costs 1, and eliminating it first cannot
    /// raise the optimum. The edges tried contain `v`, so testing `N(v)`
    /// suffices.
    fn forced(&mut self, eg: &EliminationGraph, _: Option<u32>, _: &mut StdRng) -> Option<Vertex> {
        eg.alive().iter().find(|&v| {
            let nb = eg.neighbors(v);
            self.h
                .incident_edges(v)
                .iter()
                .any(|&e| nb.is_subset(self.h.edge(e)))
        })
    }

    /// Only PR2's non-adjacent case (PR 2a, §8.3): swapping two
    /// non-adjacent eliminations produces the same bag sets. The adjacent
    /// case only keeps bag sizes, which is enough for treewidth but not
    /// for covers.
    fn swappable(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool {
        !eg.has_edge(v, w)
    }
}

/// PR2's filter on the children after eliminating `prev`: child `c` is
/// pruned when `(prev, c)` is swappable and `c < prev`, because the branch
/// `…, c, prev, …` is explored under the sibling order. Of each pair the
/// search keeps the one that eliminates the smaller id first.
pub(crate) fn keep_child(prev: Vertex, c: Vertex, swappable_with_prev: bool) -> bool {
    !(swappable_with_prev && c < prev)
}

/// The start both searches share. An empty graph is exact at width 0.
/// Otherwise the measure's initial bounds go to the incumbent, and when
/// they already meet the run is exact without a search. `Continue`
/// carries the initial lower bound of a run that must search.
pub(crate) fn start<M: Measure>(
    g: &Graph,
    m: &mut M,
    rng: &mut StdRng,
    inc: &Incumbent,
    cfg: &SearchConfig,
    who: Engine,
) -> ControlFlow<SearchOutcome, u32> {
    if g.num_vertices() == 0 {
        inc.offer_upper(0, &[]);
        inc.mark_exact();
        return ControlFlow::Break(SearchOutcome {
            lower: 0,
            upper: 0,
            exact: true,
            ordering: Some(EliminationOrdering::identity(0)),
            stats: SearchStats::default(),
        });
    }
    let lb0 = m.initial_bounds(g, rng, |w, order| {
        inc.offer_traced(&cfg.tracer, who, w, order);
    });
    inc.raise_traced(&cfg.tracer, who, lb0);
    if lb0 < inc.upper() {
        return ControlFlow::Continue(lb0);
    }
    inc.mark_exact();
    ControlFlow::Break(finish(inc, true, lb0, SearchStats::default()))
}

/// The outcome the incumbent holds: exact at its upper bound, or else
/// bracketed from below by `lower`.
pub(crate) fn finish(
    inc: &Incumbent,
    exact: bool,
    lower: u32,
    stats: SearchStats,
) -> SearchOutcome {
    let upper = inc.upper();
    SearchOutcome {
        lower: if exact { upper } else { lower.min(upper) },
        upper,
        exact,
        ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::TwEvaluator;
    use htd_hypergraph::gen;
    use rand::{Rng, SeedableRng};

    #[test]
    fn non_adjacent_always_swappable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let eg = EliminationGraph::new(&g);
        for (v, w) in [(0, 2), (1, 3)] {
            assert!(Treewidth::swappable(&eg, v, w));
            assert!(Ghw::swappable(&eg, v, w));
        }
        assert!(!Ghw::swappable(&eg, 0, 1), "ghw never swaps adjacent");
    }

    #[test]
    fn adjacent_with_private_neighbors_swappable() {
        // path 2-0-1-3: v=0, w=1 adjacent; 0 has private neighbor 2,
        // 1 has private neighbor 3
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(Treewidth::swappable(&eg, 0, 1));
        assert!(Treewidth::swappable(&eg, 1, 0));
    }

    #[test]
    fn adjacent_without_private_neighbor_not_swappable() {
        // triangle: neighbors of 0 and 1 coincide (vertex 2)
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let eg = EliminationGraph::new(&g);
        assert!(!Treewidth::swappable(&eg, 0, 1));
        // pendant edge: 0-1 only
        let g = Graph::from_edges(2, [(0, 1)]);
        let eg = EliminationGraph::new(&g);
        assert!(!Treewidth::swappable(&eg, 0, 1));
    }

    #[test]
    fn keep_child_canonical_direction() {
        assert!(keep_child(1, 2, true)); // larger child always kept
        assert!(!keep_child(2, 1, true)); // smaller child pruned when swappable
        assert!(keep_child(2, 1, false)); // not swappable: kept
    }

    /// The tw swap rule spelled out with set differences, as first written.
    fn naive_swappable(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool {
        if !eg.has_edge(v, w) {
            return true;
        }
        let private = |a: Vertex, b: Vertex| {
            let mut p = eg.neighbors(a).difference(eg.neighbors(b));
            p.remove(a);
            p.remove(b);
            !p.is_empty()
        };
        private(v, w) && private(w, v)
    }

    #[test]
    fn swappable_matches_naive_across_word_boundaries() {
        let (mut adjacent, mut swaps) = (0, 0);
        for n in [10u32, 64, 65, 130] {
            for seed in 0..4u64 {
                let p = [0.1, 0.3, 0.6][seed as usize % 3];
                let g = gen::random_gnp(n, p, seed * 17 + n as u64);
                let mut eg = EliminationGraph::new(&g);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..rng.gen_range(0..n) {
                    let alive = eg.alive().to_vec();
                    eg.eliminate(alive[rng.gen_range(0..alive.len())]);
                }
                for v in eg.alive().iter() {
                    for w in eg.alive().iter().filter(|&w| w != v) {
                        let got = Treewidth::swappable(&eg, v, w);
                        assert_eq!(got, naive_swappable(&eg, v, w), "n={n} ({v},{w})");
                        if eg.has_edge(v, w) {
                            adjacent += 1;
                            swaps += usize::from(got);
                        }
                    }
                }
            }
        }
        // both outcomes of the adjacent case were exercised
        assert!(swaps > 0 && swaps < adjacent);
    }

    #[test]
    fn swaps_preserve_the_width_under_both_measures() {
        // for every swappable pair (v, w), eliminating v, w, rest has the
        // same width as w, v, rest
        let swapped = |v: u32, w: u32, n: u32| -> [Vec<u32>; 2] {
            let rest = (0..n).filter(|&x| x != v && x != w);
            [
                [v, w].into_iter().chain(rest.clone()).collect(),
                [w, v].into_iter().chain(rest).collect(),
            ]
        };
        for seed in 0..20u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let eg = EliminationGraph::new(&g);
            let mut ev = TwEvaluator::new(&g);
            for v in 0..8u32 {
                for w in (0..8u32).filter(|&w| w != v && Treewidth::swappable(&eg, v, w)) {
                    let [a, b] = swapped(v, w, 8);
                    assert_eq!(ev.width(&a), ev.width(&b), "seed {seed}, ({v},{w})");
                }
            }
            let h = gen::random_uniform(8, 9, 3, seed);
            let g = h.primal_graph();
            let eg = EliminationGraph::new(&g);
            let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
            for v in 0..8u32 {
                for w in (0..8u32).filter(|&w| w != v && Ghw::swappable(&eg, v, w)) {
                    let [a, b] = swapped(v, w, 8);
                    assert_eq!(ev.width(&a), ev.width(&b), "seed {seed}, ({v},{w})");
                }
            }
        }
    }
}
