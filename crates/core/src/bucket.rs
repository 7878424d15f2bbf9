//! Bucket elimination and vertex elimination (thesis Fig. 2.10 / 2.12).
//!
//! Both algorithms turn an elimination ordering into a tree decomposition
//! with identical labels; vertex elimination works on the primal graph
//! (through the evaluators' one elimination loop), bucket elimination
//! directly on the hyperedges, and stays as the reference the tests
//! compare against. A covering step through [`BagCover`] lifts the result
//! to a generalized hypertree decomposition (§2.5.2). A graph with no
//! vertices gets the one-node decomposition of width 0.

use htd_hypergraph::{EdgeId, Graph, Hypergraph, VertexSet};
use htd_setcover::BagCover;

use crate::ghd::GeneralizedHypertreeDecomposition;
use crate::ordering::{eliminate, rows_of, CoverStrategy, EliminationOrdering};
use crate::tree_decomposition::TreeDecomposition;

/// Vertex elimination on a simple graph: eliminates vertices in order,
/// each elimination producing the bag `{v} ∪ N(v)`; bucket `v` is attached
/// to the bucket of its earliest-eliminated remaining neighbor.
///
/// Node `i` of the result is the bucket of `order[i]`; node `n-1` (the last
/// eliminated vertex) is the root. Buckets of isolated vertices attach to
/// the next bucket to keep the result a single tree.
pub fn vertex_elimination(g: &Graph, order: &EliminationOrdering) -> TreeDecomposition {
    let n = g.num_vertices();
    assert_eq!(order.len() as u32, n, "ordering must cover all vertices");
    if n == 0 {
        return TreeDecomposition::trivial(0);
    }
    let pos = order.positions();
    let mut rows = rows_of(g);
    let mut bags: Vec<VertexSet> = Vec::with_capacity(n as usize);
    let mut parent: Vec<Option<usize>> = vec![None; n as usize];
    for (i, &v) in order.as_slice().iter().enumerate() {
        // parent: earliest-eliminated remaining neighbor, i.e. the neighbor
        // with the smallest position (> i since eliminated neighbors were
        // already removed from the row)
        if let Some(j) = rows[v as usize].iter().map(|u| pos[u as usize]).min() {
            parent[i] = Some(j as usize);
        } else if (i as u32) + 1 < n {
            parent[i] = Some(i + 1);
        }
        let mut bag = VertexSet::default();
        eliminate(&mut rows, v, &mut bag);
        bags.push(bag);
    }
    TreeDecomposition::new(bags, parent).expect("vertex elimination builds a tree")
}

/// Bucket elimination on a hypergraph (Fig. 2.10): each hyperedge is placed
/// in the bucket of its earliest-eliminated vertex; processing buckets in
/// elimination order, the residue `A = χ(B_v) \ {v}` moves to the bucket of
/// its earliest-eliminated member.
pub fn bucket_elimination(h: &Hypergraph, order: &EliminationOrdering) -> TreeDecomposition {
    let n = h.num_vertices();
    assert_eq!(order.len() as u32, n);
    if n == 0 {
        return TreeDecomposition::trivial(0);
    }
    let pos = order.positions();
    let mut bags: Vec<VertexSet> = (0..n).map(|_| VertexSet::new(n)).collect();
    // fill buckets: each edge to its earliest-eliminated member's bucket
    for e in h.edges() {
        if let Some(p) = e.iter().map(|v| pos[v as usize]).min() {
            bags[p as usize].union_with(e);
        }
    }
    let mut parent: Vec<Option<usize>> = vec![None; n as usize];
    for i in 0..n as usize {
        let v = order[i];
        bags[i].insert(v); // ensure the bucket's own vertex is present
        let mut residue = bags[i].clone();
        residue.remove(v);
        if let Some(j) = residue.iter().map(|u| pos[u as usize]).min() {
            let j = j as usize;
            let res = residue.clone();
            bags[j].union_with(&res);
            parent[i] = Some(j);
        } else if i + 1 < n as usize {
            parent[i] = Some(i + 1);
        }
    }
    TreeDecomposition::new(bags, parent).expect("bucket elimination builds a tree")
}

/// Lifts a tree decomposition of `h` to a generalized hypertree
/// decomposition by covering every bag with hyperedges using `strategy`.
///
/// Returns `None` if some bag is uncoverable (a vertex in no hyperedge).
pub fn cover_decomposition(
    h: &Hypergraph,
    td: &TreeDecomposition,
    strategy: CoverStrategy,
) -> Option<GeneralizedHypertreeDecomposition> {
    let mut cover = BagCover::new(h);
    let mut lambda: Vec<Vec<EdgeId>> = Vec::with_capacity(td.num_nodes());
    for p in 0..td.num_nodes() {
        lambda.push(cover.cover(td.bag(p), strategy)?.to_vec());
    }
    Some(GeneralizedHypertreeDecomposition::new(td.clone(), lambda))
}

/// Builds a GHD from an ordering: bucket elimination + per-bag covers
/// (the construction of §2.5.2). With [`CoverStrategy::Exact`] and an
/// optimal ordering this reaches `ghw(H)` (Theorem 3).
///
/// ```
/// use htd_core::bucket::ghd_via_elimination;
/// use htd_core::ordering::EliminationOrdering;
/// use htd_core::CoverStrategy;
/// use htd_hypergraph::Hypergraph;
/// let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
/// let order = EliminationOrdering::new_unchecked(vec![5, 4, 3, 2, 1, 0]);
/// let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).unwrap();
/// ghd.validate(&h).unwrap();
/// assert_eq!(ghd.width(), 2);
/// ```
pub fn ghd_via_elimination(
    h: &Hypergraph,
    order: &EliminationOrdering,
    strategy: CoverStrategy,
) -> Option<GeneralizedHypertreeDecomposition> {
    let td = bucket_elimination(h, order);
    cover_decomposition(h, &td, strategy)
}

/// Convenience: tree decomposition of a hypergraph from an ordering via
/// the primal graph (Lemma 1: identical to a TD of the hypergraph).
pub fn td_of_hypergraph(h: &Hypergraph, order: &EliminationOrdering) -> TreeDecomposition {
    vertex_elimination(&h.primal_graph(), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::GhwEvaluator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn thesis_hypergraph() -> Hypergraph {
        Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]])
    }

    #[test]
    fn vertex_elimination_on_thesis_ordering() {
        // thesis Fig. 2.11 uses σ = (x6,...,x1): eliminate x6 first.
        let h = thesis_hypergraph();
        let g = h.primal_graph();
        let order = EliminationOrdering::new_unchecked(vec![5, 4, 3, 2, 1, 0]);
        let td = vertex_elimination(&g, &order);
        td.validate(&h).unwrap();
        td.validate_graph(&g).unwrap();
        assert_eq!(td.width(), 3); // Fig 2.11(b): biggest bag {x1,x3,x4,x5}
    }

    #[test]
    fn bucket_and_vertex_elimination_agree() {
        let mut rng = StdRng::seed_from_u64(23);
        for seed in 0..25u64 {
            let h = htd_hypergraph::gen::random_uniform(9, 10, 3, seed);
            let g = h.primal_graph();
            let order = EliminationOrdering::random(9, &mut rng);
            let a = vertex_elimination(&g, &order);
            let b = bucket_elimination(&h, &order);
            assert_eq!(a.num_nodes(), b.num_nodes());
            for p in 0..a.num_nodes() {
                assert_eq!(
                    a.bag(p).to_vec(),
                    b.bag(p).to_vec(),
                    "bag {p} differs (seed {seed})"
                );
                assert_eq!(a.parent(p), b.parent(p), "parent {p} differs (seed {seed})");
            }
        }
    }

    #[test]
    fn elimination_td_always_validates() {
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..25u64 {
            let g = htd_hypergraph::gen::random_gnp(11, 0.35, seed);
            let h = Hypergraph::from_graph(&g);
            let order = EliminationOrdering::random(11, &mut rng);
            let td = vertex_elimination(&g, &order);
            td.validate(&h)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn no_vertices_give_one_node_of_width_zero() {
        let order = EliminationOrdering::identity(0);
        for td in [
            vertex_elimination(&Graph::new(0), &order),
            bucket_elimination(&Hypergraph::new(0, vec![]), &order),
        ] {
            assert_eq!(td.num_nodes(), 1);
            assert_eq!(td.width(), 0);
            assert!(td.bag(0).is_empty());
        }
    }

    #[test]
    fn disconnected_graph_still_yields_tree() {
        let g = Graph::from_edges(5, [(0, 1), (3, 4)]); // vertex 2 isolated
        let order = EliminationOrdering::identity(5);
        let td = vertex_elimination(&g, &order);
        td.validate_graph(&g).unwrap();
        assert_eq!(td.num_nodes(), 5);
    }

    #[test]
    fn ghd_via_elimination_validates_and_has_ghw_width() {
        let h = thesis_hypergraph();
        // eliminate x6 first (thesis example reaches width 2)
        let order = EliminationOrdering::new_unchecked(vec![5, 4, 3, 2, 1, 0]);
        let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).unwrap();
        ghd.validate(&h).unwrap();
        assert_eq!(ghd.width(), 2);
        let complete = ghd.complete(&h);
        complete.validate(&h).unwrap();
        assert!(complete.is_complete(&h));
    }

    #[test]
    fn ghd_width_matches_evaluator() {
        let mut rng = StdRng::seed_from_u64(41);
        for seed in 0..15u64 {
            let h = htd_hypergraph::gen::random_uniform(8, 9, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let order = EliminationOrdering::random(8, &mut rng);
            let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).unwrap();
            ghd.validate(&h).unwrap();
            let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
            let w = ev.width(order.as_slice()).unwrap();
            // the decomposition's width equals the evaluator's width
            assert_eq!(ghd.width(), w, "seed {seed}");
        }
    }

    #[test]
    fn uncoverable_hypergraph_returns_none() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let order = EliminationOrdering::identity(3);
        assert!(ghd_via_elimination(&h, &order, CoverStrategy::Greedy).is_none());
    }
}
