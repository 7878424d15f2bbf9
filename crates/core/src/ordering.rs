//! Elimination orderings and their width evaluation.
//!
//! An elimination ordering is a permutation of the vertices; this crate
//! eliminates **front to back** (index 0 first). The thesis writes
//! orderings the other way around (σ's last vertex is eliminated first);
//! reverse when comparing pseudo code.
//!
//! [`TwEvaluator`] computes the treewidth-style width of an ordering
//! (Fig. 6.2) and [`GhwEvaluator`] the generalized-hypertree width-style
//! width (Fig. 7.1), i.e. the maximum set-cover size over the bags the
//! ordering produces. The evaluators, the fractional evaluator and
//! [`vertex_elimination`](crate::bucket::vertex_elimination) all run the
//! one elimination loop here, and every bag cover goes through
//! [`htd_setcover::BagCover`]. Both evaluators own their scratch space:
//! evaluating millions of orderings (the GA fitness loop) allocates
//! nothing once warm, apart from exact covers and cache inserts.

use std::sync::Arc;

use htd_hypergraph::{Graph, Hypergraph, Vertex, VertexSet};
pub use htd_setcover::CoverStrategy;
use htd_setcover::{BagCover, CoverCache};
use rand::seq::SliceRandom;
use rand::Rng;

/// A permutation of `0..n`; vertices are eliminated in vector order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EliminationOrdering(Vec<Vertex>);

impl EliminationOrdering {
    /// Wraps a permutation, checking that it is one.
    pub fn try_new(order: Vec<Vertex>) -> Result<Self, String> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &v in &order {
            if (v as usize) >= n || seen[v as usize] {
                return Err(format!(
                    "not a permutation of 0..{n}: duplicate/out-of-range {v}"
                ));
            }
            seen[v as usize] = true;
        }
        Ok(EliminationOrdering(order))
    }

    /// Wraps a permutation without checking. Caller guarantees validity.
    pub fn new_unchecked(order: Vec<Vertex>) -> Self {
        debug_assert!(EliminationOrdering::try_new(order.clone()).is_ok());
        EliminationOrdering(order)
    }

    /// The identity ordering `0, 1, …, n-1`.
    pub fn identity(n: u32) -> Self {
        EliminationOrdering((0..n).collect())
    }

    /// A uniformly random ordering.
    pub fn random<R: Rng>(n: u32, rng: &mut R) -> Self {
        let mut v: Vec<Vertex> = (0..n).collect();
        v.shuffle(rng);
        EliminationOrdering(v)
    }

    /// The permutation as a slice (elimination order, front first).
    pub fn as_slice(&self) -> &[Vertex] {
        &self.0
    }

    /// Consumes into the underlying vector.
    pub fn into_vec(self) -> Vec<Vertex> {
        self.0
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Position of each vertex in the ordering (the inverse permutation).
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.0.len()];
        for (i, &v) in self.0.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        pos
    }
}

impl std::ops::Index<usize> for EliminationOrdering {
    type Output = Vertex;
    fn index(&self, i: usize) -> &Vertex {
        &self.0[i]
    }
}

/// Scratch adjacency shared by the evaluators: a copy-on-evaluate image of
/// the base graph's rows.
#[derive(Clone, Debug)]
pub(crate) struct Scratch {
    base: Vec<VertexSet>,
    rows: Vec<VertexSet>,
}

impl Scratch {
    pub(crate) fn new(g: &Graph) -> Self {
        let base = rows_of(g);
        let rows = base.clone();
        Scratch { base, rows }
    }

    /// Restores the base rows in place: `copy_from` reuses each row's
    /// blocks, where `VertexSet`'s derived `clone_from` allocates anew.
    #[inline]
    pub(crate) fn reset(&mut self) {
        for (row, base) in self.rows.iter_mut().zip(&self.base) {
            row.copy_from(base);
        }
    }

    #[inline]
    pub(crate) fn eliminate(&mut self, v: Vertex, bag: &mut VertexSet) {
        eliminate(&mut self.rows, v, bag);
    }
}

/// The adjacency rows of `g`, one neighbourhood per vertex.
pub(crate) fn rows_of(g: &Graph) -> Vec<VertexSet> {
    (0..g.num_vertices())
        .map(|v| g.neighbors(v).clone())
        .collect()
}

/// The one elimination loop: eliminates `v` in the adjacency `rows`,
/// returning its bag `{v} ∪ N(v)` by writing it into `bag`. Rows of dead
/// vertices are left stale and must not be read again.
#[inline]
pub(crate) fn eliminate(rows: &mut [VertexSet], v: Vertex, bag: &mut VertexSet) {
    bag.copy_from(&rows[v as usize]);
    for u in bag.iter() {
        let row = &mut rows[u as usize];
        row.union_with(bag);
        row.remove(u);
        row.remove(v);
    }
    bag.insert(v);
}

/// Width evaluator for simple graphs: the width of the tree decomposition
/// that bucket/vertex elimination builds from an ordering (Fig. 6.2).
///
/// ```
/// use htd_core::TwEvaluator;
/// use htd_hypergraph::Graph;
/// // a path has treewidth 1 under the leaf-first ordering
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let mut ev = TwEvaluator::new(&g);
/// assert_eq!(ev.width(&[0, 1, 2, 3]), 1);
/// assert_eq!(ev.width(&[1, 2, 0, 3]), 2); // interior-first is worse
/// ```
#[derive(Clone, Debug)]
pub struct TwEvaluator {
    scratch: Scratch,
    bag: VertexSet,
}

impl TwEvaluator {
    /// Creates an evaluator for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        TwEvaluator {
            scratch: Scratch::new(g),
            bag: VertexSet::new(n),
        }
    }

    /// The width of `order` — an upper bound on the treewidth of the graph,
    /// tight for at least one ordering. Stops early once the remaining
    /// vertices cannot increase the width (the `while width < i` guard of
    /// the thesis's evaluation function).
    pub fn width(&mut self, order: &[Vertex]) -> u32 {
        let n = order.len() as u32;
        self.scratch.reset();
        let mut width = 0u32;
        for (i, &v) in order.iter().enumerate() {
            let remaining = n - i as u32;
            if width + 1 >= remaining {
                break;
            }
            let deg = self.scratch.rows[v as usize].len();
            self.scratch.eliminate(v, &mut self.bag);
            width = width.max(deg);
        }
        width
    }
}

/// Width evaluator for hypergraphs: the maximum cover size over the bags
/// an ordering produces (Definition 17 / Fig. 7.1).
///
/// ```
/// use htd_core::{CoverStrategy, GhwEvaluator};
/// use htd_hypergraph::Hypergraph;
/// // the thesis's running example has generalized hypertree width 2
/// let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
/// let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
/// assert_eq!(ev.width(&[5, 4, 3, 2, 1, 0]), Some(2));
/// ```
pub struct GhwEvaluator<'h> {
    scratch: Scratch,
    cover: BagCover<'h>,
    strategy: CoverStrategy,
    bag: VertexSet,
    /// `false` iff some vertex is in no hyperedge: every ordering puts it
    /// in a bag no edge covers.
    coverable: bool,
    /// Optional shared bag → cover-size memo. Must be dedicated to this
    /// hypergraph *and* this strategy (greedy and exact sizes differ).
    cache: Option<Arc<CoverCache>>,
}

impl<'h> GhwEvaluator<'h> {
    /// Creates an evaluator for `h` with the given covering strategy.
    pub fn new(h: &'h Hypergraph, strategy: CoverStrategy) -> Self {
        GhwEvaluator {
            scratch: Scratch::new(&h.primal_graph()),
            cover: BagCover::new(h),
            strategy,
            bag: VertexSet::new(h.num_vertices()),
            coverable: h.covers_all_vertices(),
            cache: None,
        }
    }

    /// Creates an evaluator whose bag covers are memoized in `cache`.
    /// Evaluators in different threads holding the same cache share covers;
    /// distinct orderings of the same hypergraph produce overwhelmingly
    /// overlapping bag sets, so sharing typically removes most cover work.
    pub fn with_cache(h: &'h Hypergraph, strategy: CoverStrategy, cache: Arc<CoverCache>) -> Self {
        let mut ev = Self::new(h, strategy);
        ev.cache = Some(cache);
        ev
    }

    /// The width of `order`: `max` over produced bags of the bag's cover
    /// size. With [`CoverStrategy::Exact`] this is `width(σ, H)` of
    /// Definition 17, whose minimum over all orderings is exactly
    /// `ghw(H)` (Theorem 3).
    ///
    /// Returns `None` if some vertex is in no hyperedge (uncoverable bag).
    pub fn width(&mut self, order: &[Vertex]) -> Option<u32> {
        if !self.coverable {
            return None;
        }
        self.scratch.reset();
        let mut width = 0u32;
        for &v in order {
            let deg = self.scratch.rows[v as usize].len();
            self.scratch.eliminate(v, &mut self.bag);
            // a bag of b vertices never needs more than b edges, so skip
            // covering when it cannot raise the maximum
            if deg < width {
                continue;
            }
            let bag = std::mem::take(&mut self.bag);
            let cover = self.cover_bag(&bag);
            self.bag = bag;
            width = width.max(cover?);
        }
        Some(width)
    }

    /// Covers a single bag using the configured strategy.
    pub fn cover_bag(&mut self, bag: &VertexSet) -> Option<u32> {
        let (cover, strategy) = (&mut self.cover, self.strategy);
        let mut size = || cover.cover(bag, strategy).map(|c| c.len() as u32);
        match &self.cache {
            Some(cache) => cache.get_or_insert_with(bag.blocks(), size),
            None => size(),
        }
    }
}

/// Exhaustive treewidth by enumerating all `n!` orderings (Heap's
/// algorithm). Ground-truth baseline for the exact searches; practical for
/// `n ≲ 10`.
pub fn exhaustive_tw(g: &Graph) -> u32 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut ev = TwEvaluator::new(g);
    let mut perm: Vec<Vertex> = (0..n).collect();
    let mut best = ev.width(&perm);
    heaps(&mut perm, &mut |p| {
        let w = ev.width(p);
        if w < best {
            best = w;
        }
    });
    best
}

/// Exhaustive generalized hypertree width over all orderings with exact
/// per-bag covers — by Theorem 3 this equals `ghw(H)`. Returns `None` when
/// some vertex is in no hyperedge. Practical for `n ≲ 8`.
pub fn exhaustive_ghw(h: &Hypergraph) -> Option<u32> {
    let n = h.num_vertices();
    if n == 0 {
        return Some(0);
    }
    let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
    let mut perm: Vec<Vertex> = (0..n).collect();
    let mut best = ev.width(&perm)?;
    let mut ok = true;
    heaps(&mut perm, &mut |p| match ev.width(p) {
        Some(w) => {
            if w < best {
                best = w;
            }
        }
        None => ok = false,
    });
    ok.then_some(best)
}

/// Heap's permutation algorithm, calling `f` on every permutation except
/// the initial one (the caller evaluates that itself).
pub(crate) fn for_each_permutation(perm: &mut [Vertex], f: &mut impl FnMut(&[Vertex])) {
    heaps(perm, f)
}

fn heaps(perm: &mut [Vertex], f: &mut impl FnMut(&[Vertex])) {
    let n = perm.len();
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            f(perm);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cycle(n: u32) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn ordering_validation() {
        assert!(EliminationOrdering::try_new(vec![0, 1, 2]).is_ok());
        assert!(EliminationOrdering::try_new(vec![0, 0, 2]).is_err());
        assert!(EliminationOrdering::try_new(vec![0, 3]).is_err());
        let o = EliminationOrdering::identity(4);
        assert_eq!(o.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(o.positions(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_ordering_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let o = EliminationOrdering::random(12, &mut rng);
            assert!(EliminationOrdering::try_new(o.clone().into_vec()).is_ok());
        }
    }

    #[test]
    fn path_has_width_1_cycle_width_2() {
        let p = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let mut ev = TwEvaluator::new(&p);
        assert_eq!(ev.width(&[0, 1, 2, 3, 4]), 1);
        let c = cycle(5);
        let mut ev = TwEvaluator::new(&c);
        assert_eq!(ev.width(&[0, 1, 2, 3, 4]), 2);
    }

    #[test]
    fn bad_ordering_on_path_costs_more() {
        // eliminating the middle of a star first gives its full degree
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut ev = TwEvaluator::new(&star);
        assert_eq!(ev.width(&[0, 1, 2, 3, 4]), 4); // center first: bag of 5
        assert_eq!(ev.width(&[1, 2, 3, 4, 0]), 1); // leaves first: width 1
    }

    #[test]
    fn width_matches_max_bag_minus_one() {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..30 {
            let g = htd_hypergraph::gen::random_gnp(12, 0.3, rng.next_u64());
            let o = EliminationOrdering::random(12, &mut rng);
            let mut ev = TwEvaluator::new(&g);
            let w = ev.width(o.as_slice());
            assert_eq!(w, crate::bucket::vertex_elimination(&g, &o).width());
        }
    }

    #[test]
    fn complete_graph_width_is_n_minus_1() {
        let g = htd_hypergraph::gen::complete_graph(6);
        let mut ev = TwEvaluator::new(&g);
        assert_eq!(ev.width(&[0, 1, 2, 3, 4, 5]), 5);
    }

    #[test]
    fn ghw_evaluator_on_thesis_example() {
        // hyperedges {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5}; ghw = 2
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        // the thesis's ordering σ = (x6,...,x1) eliminates x6 first; ours is
        // front-first, so the same ordering is [5,4,3,2,1,0]
        let w = ev.width(&[5, 4, 3, 2, 1, 0]).unwrap();
        assert_eq!(w, 2);
    }

    #[test]
    fn ghw_greedy_never_below_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..20 {
            let h = htd_hypergraph::gen::random_uniform(10, 12, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let o = EliminationOrdering::random(10, &mut rng);
            let mut ge = GhwEvaluator::new(&h, CoverStrategy::Greedy);
            let mut ee = GhwEvaluator::new(&h, CoverStrategy::Exact);
            let g = ge.width(o.as_slice()).unwrap();
            let e = ee.width(o.as_slice()).unwrap();
            assert!(g >= e, "greedy {g} < exact {e} (seed {seed})");
        }
    }

    #[test]
    fn uncovered_vertex_yields_none() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Greedy);
        assert_eq!(ev.width(&[2, 0, 1]), None);
        // an isolated vertex eliminated last sits in a bag smaller than the
        // width so far, which a width-only check would skip covering
        let h = Hypergraph::new(4, vec![vec![0, 1, 2]]);
        for strategy in [CoverStrategy::Greedy, CoverStrategy::Exact] {
            let mut ev = GhwEvaluator::new(&h, strategy);
            assert_eq!(ev.width(&[3, 0, 1, 2]), None);
            assert_eq!(ev.width(&[0, 1, 2, 3]), None);
        }
    }

    #[test]
    fn acyclic_hypergraph_has_ghw_1_ordering() {
        // a path of overlapping edges is acyclic: ghw = 1
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        assert_eq!(ev.width(&[0, 1, 2, 3, 4]).unwrap(), 1);
    }

    #[test]
    fn exhaustive_tw_on_known_families() {
        assert_eq!(
            exhaustive_tw(&Graph::from_edges(5, (0..4).map(|i| (i, i + 1)))),
            1
        );
        assert_eq!(exhaustive_tw(&cycle(6)), 2);
        assert_eq!(exhaustive_tw(&htd_hypergraph::gen::complete_graph(5)), 4);
        assert_eq!(exhaustive_tw(&htd_hypergraph::gen::grid_graph(3, 3)), 3);
        assert_eq!(exhaustive_tw(&Graph::new(4)), 0);
    }

    #[test]
    fn exhaustive_ghw_on_known_families() {
        // acyclic chain: ghw 1
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert_eq!(exhaustive_ghw(&h), Some(1));
        // triangle of binary edges: cyclic, ghw 2? cover {0,1,2} needs 2 edges
        let t = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(exhaustive_ghw(&t), Some(2));
        // thesis example: ghw 2
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(exhaustive_ghw(&th), Some(2));
        // uncovered vertex
        let u = Hypergraph::new(2, vec![vec![0]]);
        assert_eq!(exhaustive_ghw(&u), None);
    }

    #[test]
    fn clique_hypergraph_ghw_is_half() {
        // K6 as binary edges: ghw = 3 (cover 6 vertices with 2-edges)
        let h = htd_hypergraph::gen::clique_hypergraph(6);
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        let order: Vec<u32> = (0..6).collect();
        assert_eq!(ev.width(&order).unwrap(), 3);
    }
}
