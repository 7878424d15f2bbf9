//! Simplicial and strongly-almost-simplicial reductions (thesis §4.4.3).
//!
//! Eliminating a simplicial vertex, or an almost-simplicial vertex whose
//! degree does not exceed a known treewidth lower bound, never increases
//! the treewidth (Bodlaender et al. \[8\]). Searches therefore eliminate such
//! vertices immediately — shrinking the branch-and-bound tree to a single
//! child — and the same rules preprocess the graph before search starts.

use htd_hypergraph::{EliminationGraph, Graph, Vertex};

/// Finds an alive simplicial vertex, preferring low degree.
pub fn find_simplicial(eg: &EliminationGraph) -> Option<Vertex> {
    let mut best: Option<(u32, Vertex)> = None;
    for v in eg.alive().iter() {
        if eg.is_simplicial(v) {
            let d = eg.degree(v);
            if best.map_or(true, |(bd, _)| d < bd) {
                best = Some((d, v));
            }
        }
    }
    best.map(|(_, v)| v)
}

/// Finds an alive strongly almost simplicial vertex: almost simplicial
/// with `degree ≤ lb` (Definition 24).
pub fn find_strongly_almost_simplicial(eg: &EliminationGraph, lb: u32) -> Option<Vertex> {
    eg.alive()
        .iter()
        .find(|&v| eg.degree(v) <= lb && !eg.is_simplicial(v) && eg.is_almost_simplicial(v))
}

/// A vertex the reduction rules force next, if any: simplicial first, then
/// strongly almost simplicial under the lower bound `lb`.
pub fn find_reducible(eg: &EliminationGraph, lb: u32) -> Option<Vertex> {
    find_simplicial(eg).or_else(|| find_strongly_almost_simplicial(eg, lb))
}

/// Outcome of [`preprocess`]: a forced elimination prefix and bounds.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Vertices forced by the reduction rules, in elimination order.
    pub prefix: Vec<Vertex>,
    /// Lower bound on the treewidth of the *original* graph implied by the
    /// eliminated degrees (each eliminated bag is a clique in a minor).
    pub lb: u32,
    /// The reduced graph with the prefix eliminated.
    pub reduced: EliminationGraph,
}

/// Exhaustively applies the reduction rules to `g`, starting from lower
/// bound `lb0`. The treewidth of `g` equals
/// `max(lb, treewidth(reduced graph))`.
pub fn preprocess(g: &Graph, lb0: u32) -> Preprocessed {
    let mut eg = EliminationGraph::new(g);
    let mut prefix = Vec::new();
    let mut lb = lb0;
    while let Some(v) = find_reducible(&eg, lb) {
        lb = lb.max(eg.degree(v));
        eg.eliminate(v);
        prefix.push(v);
    }
    Preprocessed {
        prefix,
        lb,
        reduced: eg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trees_reduce_completely() {
        let g = gen::path_graph(10);
        let p = preprocess(&g, 0);
        assert_eq!(p.prefix.len(), 10);
        assert_eq!(p.lb, 1);
        assert_eq!(p.reduced.num_alive(), 0);
    }

    #[test]
    fn chordal_graphs_reduce_completely() {
        let g = gen::random_ktree(15, 3, 7);
        let p = preprocess(&g, 0);
        assert_eq!(p.reduced.num_alive(), 0);
        assert_eq!(p.lb, 3);
    }

    #[test]
    fn cycles_reduce_via_almost_simplicial() {
        // C6 has no simplicial vertex, but every vertex is almost
        // simplicial with degree 2 — reducible once lb ≥ 2.
        let g = gen::cycle_graph(6);
        let p0 = preprocess(&g, 0);
        assert!(p0.prefix.is_empty(), "no reduction below the degree bound");
        let p2 = preprocess(&g, 2);
        assert_eq!(p2.reduced.num_alive(), 0);
        assert_eq!(p2.lb, 2);
    }

    #[test]
    fn reduction_preserves_treewidth() {
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..12u64 {
            let g = gen::random_gnp(8, 0.35, seed);
            let tw = exhaustive_tw(&g);
            let lb0 = crate::lower::degeneracy(&g);
            let p = preprocess(&g, lb0);
            // treewidth of original = max(lb, tw(reduced))
            let reduced_tw = exhaustive_tw(&p.reduced.to_graph());
            // to_graph keeps isolated dead vertices: bags of size 1 don't
            // change the width unless the reduced graph is empty
            let combined = if p.reduced.num_alive() == 0 {
                p.lb
            } else {
                p.lb.max(reduced_tw)
            };
            assert_eq!(combined, tw.max(lb0), "seed {seed}");
            let _ = &mut rng;
        }
    }

    #[test]
    fn find_simplicial_prefers_low_degree() {
        // K3 with pendant at 0: both 3 (deg 1) and 1,2 (deg 2) simplicial
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let eg = EliminationGraph::new(&g);
        assert_eq!(find_simplicial(&eg), Some(3));
    }

    #[test]
    fn strongly_almost_simplicial_requires_degree_bound() {
        let g = gen::cycle_graph(5);
        let eg = EliminationGraph::new(&g);
        assert_eq!(find_strongly_almost_simplicial(&eg, 1), None);
        assert!(find_strongly_almost_simplicial(&eg, 2).is_some());
    }
}
