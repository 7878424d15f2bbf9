//! Covers of one bag by the hyperedges that touch it.
//!
//! Generalized hypertree width is the least, over elimination orderings,
//! of the largest exact cover of a bag by hyperedges (thesis Def. 17 and
//! Theorem 3). A GHD's λ labels are those covers, and fractional hypertree
//! width takes the fractional cover instead. [`BagCover`] makes the one
//! decision the three share: which edges may cover a bag, and how they
//! cover it. The ordering evaluators, the GHD construction and the exact
//! searches' bag measure all go through it.

use htd_hypergraph::{EdgeId, Hypergraph, VertexSet};

use crate::exact::{CoverResult, ExactCover};
use crate::fractional::fractional_cover;

/// How a bag is covered with hyperedges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverStrategy {
    /// Greedy set cover (fast; an upper bound on the optimal cover).
    Greedy,
    /// Exact branch-and-bound set cover (the width of the ordering in the
    /// sense of Definition 17; needed for exactness proofs).
    Exact,
    /// Exact with a per-bag node budget; falls back to the best cover
    /// found, so results remain upper bounds.
    ExactBudget(u64),
}

/// Covers bags of one hypergraph with the edges that touch them.
///
/// A bag's candidates are its vertices' incident edges, collected in one
/// order: bag vertices ascending, each vertex's incident edges ascending,
/// each edge once. Greedy covers take the first candidate of largest gain,
/// so on equal gains an edge found through a lower bag vertex wins over a
/// lower edge id. Exact and fractional covers run over copies of the
/// candidates' scopes. Every buffer is reused: once warm, collecting
/// candidates and covering greedily allocate nothing.
///
/// ```
/// use htd_hypergraph::{Hypergraph, VertexSet};
/// use htd_setcover::{BagCover, CoverStrategy};
/// let h = Hypergraph::new(4, vec![vec![2, 3], vec![0, 1], vec![1, 2]]);
/// let mut cover = BagCover::new(&h);
/// let bag = VertexSet::full(4);
/// assert_eq!(cover.candidates(&bag), &[1, 2, 0]);
/// assert_eq!(cover.cover(&bag, CoverStrategy::Greedy), Some(&[1, 0][..]));
/// assert_eq!(cover.fractional(&bag), Some(2.0));
/// ```
pub struct BagCover<'h> {
    h: &'h Hypergraph,
    /// `marked[e]` only while `candidates` runs
    marked: Vec<bool>,
    cands: Vec<EdgeId>,
    /// copies of the candidates' scopes, the edge set of exact and
    /// fractional covers (a prefix is in use)
    scopes: Vec<VertexSet>,
    uncovered: VertexSet,
    chosen: Vec<EdgeId>,
}

impl<'h> BagCover<'h> {
    /// Creates a bag cover over the edges of `h`.
    pub fn new(h: &'h Hypergraph) -> Self {
        BagCover {
            h,
            marked: vec![false; h.num_edges() as usize],
            cands: Vec::new(),
            scopes: Vec::new(),
            uncovered: VertexSet::default(),
            chosen: Vec::new(),
        }
    }

    /// The edges touching `bag`, in candidate order.
    pub fn candidates(&mut self, bag: &VertexSet) -> &[EdgeId] {
        self.cands.clear();
        for v in bag.iter() {
            for &e in self.h.incident_edges(v) {
                if !self.marked[e as usize] {
                    self.marked[e as usize] = true;
                    self.cands.push(e);
                }
            }
        }
        for &e in &self.cands {
            self.marked[e as usize] = false;
        }
        &self.cands
    }

    /// Covers `bag` with its candidates and returns the chosen edge ids,
    /// or `None` when some vertex of `bag` lies in no edge.
    pub fn cover(&mut self, bag: &VertexSet, strategy: CoverStrategy) -> Option<&[EdgeId]> {
        self.candidates(bag);
        self.chosen.clear();
        let budget = match strategy {
            CoverStrategy::Greedy => return self.greedy(bag),
            CoverStrategy::Exact => u64::MAX,
            CoverStrategy::ExactBudget(b) => b,
        };
        let result = ExactCover::new(self.load_scopes())
            .with_node_budget(budget)
            .cover(bag);
        match result {
            CoverResult::Optimal(c) | CoverResult::Truncated(c) => {
                let cands = &self.cands;
                self.chosen.extend(c.iter().map(|&i| cands[i as usize]));
                Some(&self.chosen)
            }
            CoverResult::Uncoverable => None,
        }
    }

    /// The fractional cover number of `bag` over its candidates, or `None`
    /// when some vertex of `bag` lies in no edge.
    pub fn fractional(&mut self, bag: &VertexSet) -> Option<f64> {
        self.candidates(bag);
        fractional_cover(bag, self.load_scopes())
    }

    /// The first-max greedy of [`greedy_cover`](crate::greedy_cover) over
    /// the candidates collected for `bag`.
    fn greedy(&mut self, bag: &VertexSet) -> Option<&[EdgeId]> {
        let edges = self.h.edges();
        self.uncovered.copy_from(bag);
        while !self.uncovered.is_empty() {
            let (mut best, mut best_gain) = (0, 0);
            for &e in &self.cands {
                let gain = edges[e as usize].intersection_len(&self.uncovered);
                if gain > best_gain {
                    (best, best_gain) = (e, gain);
                }
            }
            if best_gain == 0 {
                return None;
            }
            self.uncovered.difference_with(&edges[best as usize]);
            self.chosen.push(best);
        }
        Some(&self.chosen)
    }

    /// Copies the candidates' scopes into the reused scope buffers.
    fn load_scopes(&mut self) -> &[VertexSet] {
        let k = self.cands.len();
        if self.scopes.len() < k {
            self.scopes.resize_with(k, VertexSet::default);
        }
        for (scope, &e) in self.scopes.iter_mut().zip(&self.cands) {
            scope.copy_from(self.h.edge(e));
        }
        &self.scopes[..k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn candidates_follow_bag_vertices_and_greedy_keeps_the_first_max() {
        // edge 1 is found through vertex 0, edge 0 only through vertex 2
        let h = Hypergraph::new(5, vec![vec![2, 3], vec![0, 1], vec![1, 4]]);
        let bag = VertexSet::from_iter_with_capacity(5, [0, 1, 2, 3]);
        let mut cover = BagCover::new(&h);
        assert_eq!(cover.candidates(&bag), &[1, 2, 0]);
        // edges 1 and 0 both gain 2: the one found first wins
        assert_eq!(cover.cover(&bag, CoverStrategy::Greedy), Some(&[1, 0][..]));
        // over all edges in id order, the lower id wins instead
        assert_eq!(crate::greedy_cover(&bag, h.edges()), Some(vec![0, 1]));
        assert_eq!(
            cover.cover(&bag, CoverStrategy::Exact).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn a_vertex_in_no_edge_is_uncoverable() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let mut cover = BagCover::new(&h);
        let bag = VertexSet::full(3);
        assert_eq!(cover.cover(&bag, CoverStrategy::Greedy), None);
        assert_eq!(cover.cover(&bag, CoverStrategy::Exact), None);
        assert_eq!(cover.fractional(&bag), None);
        let empty = VertexSet::new(3);
        assert_eq!(cover.cover(&empty, CoverStrategy::Exact), Some(&[][..]));
        assert_eq!(cover.fractional(&empty), Some(0.0));
    }

    fn random_instance(rng: &mut StdRng) -> (Hypergraph, VertexSet) {
        let n = rng.gen_range(1..=12u32);
        let m = rng.gen_range(1..=10usize);
        let edges: Vec<Vec<u32>> = (0..m)
            .map(|_| {
                let k = rng.gen_range(1..=n.min(4));
                (0..k).map(|_| rng.gen_range(0..n)).collect()
            })
            .collect();
        let h = Hypergraph::new(n, edges);
        let bag = VertexSet::from_iter_with_capacity(
            n,
            (0..rng.gen_range(0..=n)).map(|_| rng.gen_range(0..n)),
        );
        (h, bag)
    }

    fn is_cover(h: &Hypergraph, bag: &VertexSet, chosen: &[EdgeId]) -> bool {
        let mut union = VertexSet::new(h.num_vertices());
        for &e in chosen {
            union.union_with(h.edge(e));
        }
        bag.is_subset(&union)
    }

    #[test]
    fn exact_and_fractional_sizes_match_covers_over_all_edges() {
        let mut rng = StdRng::seed_from_u64(25);
        for trial in 0..300 {
            let (h, bag) = random_instance(&mut rng);
            let mut cover = BagCover::new(&h);
            let exact = cover.cover(&bag, CoverStrategy::Exact).map(<[_]>::to_vec);
            assert_eq!(
                exact.as_ref().map(|c| c.len() as u32),
                ExactCover::new(h.edges()).cover_size(&bag),
                "trial {trial}"
            );
            assert!(
                exact.is_none_or(|c| is_cover(&h, &bag, &c)),
                "trial {trial}"
            );
            let frac = cover.fractional(&bag);
            match (frac, fractional_cover(&bag, h.edges())) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "trial {trial}: {a} vs {b}"),
                (a, b) => assert_eq!(a, b, "trial {trial}"),
            }
        }
    }

    #[test]
    fn greedy_covers_are_covers_no_smaller_than_exact() {
        let mut rng = StdRng::seed_from_u64(26);
        for trial in 0..300 {
            let (h, bag) = random_instance(&mut rng);
            let mut cover = BagCover::new(&h);
            let exact = cover.cover(&bag, CoverStrategy::Exact).map(<[_]>::len);
            for strategy in [CoverStrategy::Greedy, CoverStrategy::ExactBudget(2)] {
                let chosen = cover.cover(&bag, strategy).map(<[_]>::to_vec);
                assert_eq!(chosen.is_some(), exact.is_some(), "trial {trial}");
                if let (Some(c), Some(e)) = (chosen, exact) {
                    assert!(is_cover(&h, &bag, &c), "trial {trial} {strategy:?}");
                    assert!(c.len() >= e, "trial {trial} {strategy:?}");
                }
            }
        }
    }
}
