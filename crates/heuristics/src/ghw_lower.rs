//! Lower bounds for generalized hypertree width (thesis §8.1).
//!
//! The thesis's `tw-ksc-width` heuristic (Fig. 8.1) combines two facts:
//!
//! 1. every GHD is a tree decomposition, so some bag has at least
//!    `tw(H) + 1` vertices (and any treewidth lower bound stands in for
//!    `tw`);
//! 2. covering `s` vertices with hyperedges of rank `k` needs at least
//!    `⌈s / k⌉` edges (the k-set-cover lower bound).
//!
//! Together: `ghw(H) ≥ ⌈(tw_lb(H) + 1) / rank(H)⌉`. We additionally use a
//! clique-based bound: any clique of the primal graph sits inside a single
//! bag, so the minimum cover of the clique by hyperedges lower-bounds
//! `ghw` too — with the *actual* intersections, not just the rank.

use htd_hypergraph::{Graph, Hypergraph, VertexSet};
use htd_setcover::lower_bound::{cover_lower_bound, packing_lower_bound};
use rand::Rng;

use crate::lower::combined_lower_bound;

/// The `tw-ksc-width` style bound: `⌈(tw_lb + 1) / rank⌉`, and 0 for a
/// hypergraph with no vertices (whose rank is 0).
pub fn tw_ksc_width<R: Rng>(h: &Hypergraph, rng: &mut R) -> u32 {
    if h.num_vertices() == 0 {
        return 0;
    }
    let g = h.primal_graph();
    let tw_lb = combined_lower_bound(&g, rng);
    let k = h.rank();
    htd_setcover::ksc_lower_bound(tw_lb + 1, k)
}

/// Clique cover bound: grow a greedy clique in the primal graph (seeded at
/// each vertex in turn, capped for cost) and lower-bound the cover of the
/// best clique using both the ratio and the packing bound.
pub fn clique_cover_bound(h: &Hypergraph) -> u32 {
    let g = h.primal_graph();
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut best = if h.num_edges() > 0 { 1 } else { 0 };
    for seed in 0..n {
        let clique = greedy_clique(&g, seed);
        let ratio = cover_lower_bound(&clique, h.edges());
        let pack = packing_lower_bound(&clique, h.edges());
        let bound = ratio.max(pack);
        if bound != u32::MAX && bound > best {
            best = bound;
        }
    }
    best
}

/// The combined generalized hypertree width lower bound used by BB-ghw and
/// A*-ghw: `max(tw-ksc-width, clique cover bound)`.
pub fn ghw_lower_bound<R: Rng>(h: &Hypergraph, rng: &mut R) -> u32 {
    tw_ksc_width(h, rng).max(clique_cover_bound(h))
}

/// Grows a clique greedily from `seed`: repeatedly add the common neighbor
/// of the current clique with the highest degree.
fn greedy_clique(g: &Graph, seed: u32) -> VertexSet {
    let n = g.num_vertices();
    let mut clique = VertexSet::new(n);
    clique.insert(seed);
    let mut common = g.neighbors(seed).clone();
    while let Some(v) = {
        let mut best: Option<(u32, u32)> = None;
        for v in common.iter() {
            let d = g.degree(v);
            if best.map_or(true, |(bd, _)| d > bd) {
                best = Some((d, v));
            }
        }
        best.map(|(_, v)| v)
    } {
        clique.insert(v);
        common.intersect_with(g.neighbors(v));
    }
    clique
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clique_hypergraph_bound_is_half_k() {
        // clique_k with binary edges: ghw = ⌈k/2⌉ and the clique bound
        // finds it exactly
        for k in [4u32, 6, 8, 10] {
            let h = gen::clique_hypergraph(k);
            assert_eq!(clique_cover_bound(&h), k.div_ceil(2), "clique_{k}");
        }
    }

    #[test]
    fn bounds_never_exceed_true_ghw() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..15u64 {
            let h = gen::random_uniform(7, 9, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let ghw = exhaustive_ghw(&h).unwrap();
            for _ in 0..3 {
                let lb = ghw_lower_bound(&h, &mut rng);
                assert!(lb <= ghw, "seed {seed}: lb {lb} > ghw {ghw}");
            }
        }
    }

    #[test]
    fn acyclic_hypergraphs_bound_at_one() {
        let h = gen::random_acyclic(10, 3, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let lb = ghw_lower_bound(&h, &mut rng);
        assert!(lb <= 1);
    }

    #[test]
    fn tw_ksc_consistent_with_rank() {
        let mut rng = StdRng::seed_from_u64(4);
        // grid graph as hypergraph of binary edges: tw lb ~ n, rank 2
        let g = gen::grid_graph(4, 4);
        let h = htd_hypergraph::Hypergraph::from_graph(&g);
        let lb = tw_ksc_width(&h, &mut rng);
        // tw(grid4) = 4 so lb ≥ ceil((lb_tw+1)/2) ≥ 2 when lb_tw ≥ 3
        assert!(lb >= 2);
    }

    #[test]
    fn empty_hypergraph_bound_zero() {
        let h = htd_hypergraph::Hypergraph::new(0, vec![]);
        assert_eq!(clique_cover_bound(&h), 0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(tw_ksc_width(&h, &mut rng), 0);
        assert_eq!(ghw_lower_bound(&h, &mut rng), 0);
    }
}
