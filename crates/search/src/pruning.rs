//! Pruning rule 2: adjacent-swap symmetry breaking (thesis §4.4.5, [5]).
//!
//! If two consecutively eliminated vertices `v`, `w` are non-adjacent — or
//! adjacent while each has a remaining neighbor that is not a neighbor of
//! the other — then swapping them leaves the width unchanged. Of each such
//! pair of sibling branches the search keeps only one, canonically the one
//! eliminating the smaller-id vertex first.

use htd_hypergraph::{EliminationGraph, Vertex};

/// `true` iff eliminating `v` then `w` has the same width as `w` then `v`,
/// evaluated on the graph in which **both** are still alive.
pub fn swappable(eg: &EliminationGraph, v: Vertex, w: Vertex) -> bool {
    if !eg.has_edge(v, w) {
        return true;
    }
    // v needs a private neighbor (≠ w, not adjacent to w) and vice versa;
    // N(v) \ N(w) always holds w itself, and N(w) \ N(v) holds v
    let nv = eg.neighbors(v);
    let nw = eg.neighbors(w);
    nv.difference_len(nw) > 1 && nw.difference_len(nv) > 1
}

/// Filters the candidate children after eliminating `prev`: child `c` is
/// pruned when `(prev, c)` is swappable and `c < prev` — the branch
/// `…, c, prev, …` was (or will be) explored under the sibling order.
///
/// `swap_ok[c]` must hold the result of [`swappable`]`(eg, prev, c)`
/// computed **before** `prev` was eliminated.
pub fn keep_child(prev: Vertex, c: Vertex, swappable_with_prev: bool) -> bool {
    !(swappable_with_prev && c < prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_hypergraph::Graph;

    #[test]
    fn non_adjacent_always_swappable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(swappable(&eg, 0, 2));
        assert!(swappable(&eg, 1, 3));
    }

    #[test]
    fn adjacent_with_private_neighbors_swappable() {
        // path 2-0-1-3: v=0, w=1 adjacent; 0 has private neighbor 2,
        // 1 has private neighbor 3
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(swappable(&eg, 0, 1));
        assert!(swappable(&eg, 1, 0));
    }

    #[test]
    fn adjacent_without_private_neighbor_not_swappable() {
        // triangle: neighbors of 0 and 1 coincide (vertex 2)
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let eg = EliminationGraph::new(&g);
        assert!(!swappable(&eg, 0, 1));
        // pendant edge: 0-1 only
        let g = Graph::from_edges(2, [(0, 1)]);
        let eg = EliminationGraph::new(&g);
        assert!(!swappable(&eg, 0, 1));
    }

    #[test]
    fn keep_child_canonical_direction() {
        assert!(keep_child(1, 2, true)); // larger child always kept
        assert!(!keep_child(2, 1, true)); // smaller child pruned when swappable
        assert!(keep_child(2, 1, false)); // not swappable: kept
    }

    /// `swappable` spelled out with set differences, as first written.
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
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut adjacent, mut swaps) = (0, 0);
        for n in [10u32, 64, 65, 130] {
            for seed in 0..4u64 {
                let p = [0.1, 0.3, 0.6][seed as usize % 3];
                let g = htd_hypergraph::gen::random_gnp(n, p, seed * 17 + n as u64);
                let mut eg = EliminationGraph::new(&g);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..rng.gen_range(0..n) {
                    let alive = eg.alive().to_vec();
                    eg.eliminate(alive[rng.gen_range(0..alive.len())]);
                }
                for v in eg.alive().iter() {
                    for w in eg.alive().iter().filter(|&w| w != v) {
                        let got = swappable(&eg, v, w);
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
    fn swap_preserves_width_property() {
        // for random graphs and all swappable pairs (v,w), the width of
        // eliminating v,w,rest equals w,v,rest
        use htd_core::ordering::TwEvaluator;
        for seed in 0..20u64 {
            let g = htd_hypergraph::gen::random_gnp(8, 0.4, seed);
            let eg = EliminationGraph::new(&g);
            let mut ev = TwEvaluator::new(&g);
            for v in 0..8u32 {
                for w in 0..8u32 {
                    if v == w || !swappable(&eg, v, w) {
                        continue;
                    }
                    let rest: Vec<u32> = (0..8).filter(|&x| x != v && x != w).collect();
                    let mut a = vec![v, w];
                    a.extend(&rest);
                    let mut b = vec![w, v];
                    b.extend(&rest);
                    assert_eq!(ev.width(&a), ev.width(&b), "seed {seed}, pair ({v},{w})");
                }
            }
        }
    }
}
