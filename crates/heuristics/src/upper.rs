//! Greedy ordering heuristics — treewidth upper bounds.

use htd_core::ordering::EliminationOrdering;
use htd_hypergraph::{EliminationGraph, Graph, Vertex, VertexSet};
use rand::Rng;

/// Result of an ordering heuristic: the ordering and the width it achieves.
#[derive(Clone, Debug)]
pub struct HeuristicOrdering {
    /// The produced elimination ordering (front eliminated first).
    pub ordering: EliminationOrdering,
    /// The width of the tree decomposition this ordering induces.
    pub width: u32,
}

/// The min-fill heuristic (thesis §4.4.2): repeatedly eliminate the vertex
/// that adds the fewest fill edges, breaking ties randomly.
pub fn min_fill<R: Rng>(g: &Graph, rng: &mut R) -> HeuristicOrdering {
    greedy_ordering(g, rng, |eg, v| eg.fill_count(v) as u64)
}

/// The min-degree heuristic: repeatedly eliminate a minimum-degree vertex.
pub fn min_degree<R: Rng>(g: &Graph, rng: &mut R) -> HeuristicOrdering {
    greedy_ordering(g, rng, |eg, v| eg.degree(v) as u64)
}

/// Eliminates a best-scoring vertex until none is left, ties broken by
/// `rng` among the best in increasing vertex order.
///
/// `score(eg, v)` may depend only on `v`'s neighborhood and the edges
/// inside it. Eliminating `v` changes those only for `v`'s neighbors and
/// their neighbors, so only they are rescored.
fn greedy_ordering<R: Rng>(
    g: &Graph,
    rng: &mut R,
    mut score: impl FnMut(&EliminationGraph, Vertex) -> u64,
) -> HeuristicOrdering {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut order = Vec::with_capacity(n as usize);
    let mut width = 0u32;
    let mut ties: Vec<Vertex> = Vec::new();
    let mut scores: Vec<u64> = (0..n).map(|v| score(&eg, v)).collect();
    let mut nb = VertexSet::new(n);
    let mut stale = VertexSet::new(n);
    for _ in 0..n {
        let mut best = u64::MAX;
        ties.clear();
        for v in eg.alive().iter() {
            let s = scores[v as usize];
            if s < best {
                best = s;
                ties.clear();
                ties.push(v);
            } else if s == best {
                ties.push(v);
            }
        }
        let v = ties[rng.gen_range(0..ties.len())];
        width = width.max(eg.degree(v));
        nb.copy_from(eg.neighbors(v));
        eg.eliminate(v);
        order.push(v);
        stale.copy_from(&nb);
        for u in nb.iter() {
            stale.union_with(eg.neighbors(u));
        }
        for w in stale.iter() {
            scores[w as usize] = score(&eg, w);
        }
    }
    HeuristicOrdering {
        ordering: EliminationOrdering::new_unchecked(order),
        width,
    }
}

/// Maximum cardinality search: numbers vertices from last to first,
/// always picking the vertex with the most already-numbered neighbors.
/// On chordal graphs the resulting ordering is perfect (width = treewidth).
pub fn max_cardinality_search<R: Rng>(g: &Graph, rng: &mut R) -> HeuristicOrdering {
    let n = g.num_vertices();
    let mut numbered = htd_hypergraph::VertexSet::new(n);
    let mut weight = vec![0u32; n as usize];
    // positions filled back to front
    let mut order: Vec<Vertex> = vec![0; n as usize];
    let mut ties: Vec<Vertex> = Vec::new();
    for slot in (0..n as usize).rev() {
        let mut best = 0u32;
        ties.clear();
        for v in 0..n {
            if numbered.contains(v) {
                continue;
            }
            let w = weight[v as usize];
            if w > best || ties.is_empty() {
                if w > best {
                    ties.clear();
                }
                best = w;
                ties.push(v);
            } else if w == best {
                ties.push(v);
            }
        }
        let v = ties[rng.gen_range(0..ties.len())];
        numbered.insert(v);
        order[slot] = v;
        for u in g.neighbors(v).iter() {
            if !numbered.contains(u) {
                weight[u as usize] += 1;
            }
        }
    }
    // evaluate the width of the produced ordering
    let mut ev = htd_core::ordering::TwEvaluator::new(g);
    let width = ev.width(&order);
    HeuristicOrdering {
        ordering: EliminationOrdering::new_unchecked(order),
        width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The greedy rule spelled out: every alive vertex is rescored at
    /// every step.
    fn rescoring_every_step<R: Rng>(
        g: &Graph,
        rng: &mut R,
        score: impl Fn(&EliminationGraph, Vertex) -> u64,
    ) -> Vec<Vertex> {
        let mut eg = EliminationGraph::new(g);
        let mut order = Vec::new();
        while eg.num_alive() > 0 {
            let best = eg.alive().iter().map(|v| score(&eg, v)).min().unwrap();
            let ties: Vec<Vertex> = eg
                .alive()
                .iter()
                .filter(|&v| score(&eg, v) == best)
                .collect();
            let v = ties[rng.gen_range(0..ties.len())];
            eg.eliminate(v);
            order.push(v);
        }
        order
    }

    #[test]
    fn kept_scores_pick_what_rescoring_every_step_picks() {
        let fill = |eg: &EliminationGraph, v| eg.fill_count(v) as u64;
        let degree = |eg: &EliminationGraph, v| eg.degree(v) as u64;
        for seed in 0..40u64 {
            let g = match seed % 4 {
                0 => gen::random_gnp(30, 0.15, seed),
                1 => gen::random_gnp(24, 0.5, seed),
                2 => gen::random_partial_ktree(40, 5, 0.7, seed),
                _ => gen::grid_graph(5, 6),
            };
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                min_fill(&g, &mut a).ordering.into_vec(),
                rescoring_every_step(&g, &mut b, fill),
                "min-fill, seed {seed}"
            );
            assert_eq!(
                min_degree(&g, &mut a).ordering.into_vec(),
                rescoring_every_step(&g, &mut b, degree),
                "min-degree, seed {seed}"
            );
        }
    }

    #[test]
    fn min_fill_is_optimal_on_trees_and_cycles() {
        let mut rng = StdRng::seed_from_u64(1);
        let path = gen::path_graph(8);
        assert_eq!(min_fill(&path, &mut rng).width, 1);
        let cyc = gen::cycle_graph(8);
        assert_eq!(min_fill(&cyc, &mut rng).width, 2);
    }

    #[test]
    fn min_fill_solves_ktrees_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        for k in 2..5u32 {
            let g = gen::random_ktree(14, k, k as u64);
            assert_eq!(min_fill(&g, &mut rng).width, k, "k-tree width {k}");
        }
    }

    #[test]
    fn heuristics_upper_bound_the_true_treewidth() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..10u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let tw = exhaustive_tw(&g);
            for h in [
                min_fill(&g, &mut rng),
                min_degree(&g, &mut rng),
                max_cardinality_search(&g, &mut rng),
            ] {
                assert!(h.width >= tw, "seed {seed}: heuristic below treewidth");
                // the ordering's evaluated width must equal the reported one
                let mut ev = htd_core::ordering::TwEvaluator::new(&g);
                assert_eq!(ev.width(h.ordering.as_slice()), h.width, "seed {seed}");
            }
        }
    }

    #[test]
    fn mcs_is_exact_on_chordal_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        // k-trees are chordal
        let g = gen::random_ktree(12, 3, 9);
        assert_eq!(max_cardinality_search(&g, &mut rng).width, 3);
    }

    #[test]
    fn orderings_are_permutations() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::queen_graph(4);
        for h in [min_fill(&g, &mut rng), min_degree(&g, &mut rng)] {
            assert!(EliminationOrdering::try_new(h.ordering.into_vec()).is_ok());
        }
    }

    #[test]
    fn empty_graph() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = Graph::new(4);
        let h = min_fill(&g, &mut rng);
        assert_eq!(h.width, 0);
        assert_eq!(h.ordering.len(), 4);
    }
}
