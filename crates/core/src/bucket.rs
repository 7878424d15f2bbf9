//! Bucket elimination and vertex elimination (thesis Fig. 2.10 / 2.12).
//!
//! Both algorithms turn an elimination ordering into a tree decomposition
//! with identical labels; vertex elimination works on the primal graph,
//! bucket elimination directly on the hyperedges. We implement both (the
//! equivalence is a test) and a covering step that lifts the result to a
//! generalized hypertree decomposition (§2.5.2).

use htd_hypergraph::{EdgeId, Graph, Hypergraph, VertexSet};

use crate::ghd::GeneralizedHypertreeDecomposition;
use crate::ordering::{CoverStrategy, EliminationOrdering};
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
    let pos = order.positions();
    // scratch adjacency
    let mut rows: Vec<VertexSet> = (0..n).map(|v| g.neighbors(v).clone()).collect();
    let mut bags: Vec<VertexSet> = Vec::with_capacity(n as usize);
    let mut parent: Vec<Option<usize>> = vec![None; n as usize];
    for (i, &v) in order.as_slice().iter().enumerate() {
        let nb = rows[v as usize].clone();
        // bag
        let mut bag = nb.clone();
        bag.insert(v);
        bags.push(bag);
        // parent: earliest-eliminated remaining neighbor, i.e. the neighbor
        // with the smallest position (> i since eliminated neighbors were
        // already removed from the row)
        if let Some(j) = nb.iter().map(|u| pos[u as usize]).min() {
            parent[i] = Some(j as usize);
        } else if (i as u32) + 1 < n {
            parent[i] = Some(i + 1);
        }
        // eliminate v
        for u in nb.iter() {
            let row = &mut rows[u as usize];
            row.union_with(&nb);
            row.remove(u);
            row.remove(v);
        }
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
    let mut lambda: Vec<Vec<EdgeId>> = Vec::with_capacity(td.num_nodes());
    for p in 0..td.num_nodes() {
        lambda.push(cover_bag_edges(h, strategy, td.bag(p))?);
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

/// Covers one bag and returns the chosen edge ids (not just the count).
fn cover_bag_edges(
    h: &Hypergraph,
    strategy: CoverStrategy,
    bag: &VertexSet,
) -> Option<Vec<EdgeId>> {
    // candidates: the edges touching the bag
    let mut cands: Vec<EdgeId> = Vec::new();
    let mut seen = vec![false; h.num_edges() as usize];
    for v in bag.iter() {
        for &e in h.incident_edges(v) {
            if !seen[e as usize] {
                seen[e as usize] = true;
                cands.push(e);
            }
        }
    }
    let cand_scopes: Vec<VertexSet> = cands.iter().map(|&e| h.edge(e).clone()).collect();
    let chosen = match strategy {
        CoverStrategy::Greedy => htd_setcover::greedy_cover(bag, &cand_scopes)?,
        CoverStrategy::Exact => match htd_setcover::ExactCover::new(&cand_scopes).cover(bag) {
            htd_setcover::exact::CoverResult::Optimal(c)
            | htd_setcover::exact::CoverResult::Truncated(c) => c,
            htd_setcover::exact::CoverResult::Uncoverable => return None,
        },
        CoverStrategy::ExactBudget(b) => {
            match htd_setcover::ExactCover::new(&cand_scopes)
                .with_node_budget(b)
                .cover(bag)
            {
                htd_setcover::exact::CoverResult::Optimal(c)
                | htd_setcover::exact::CoverResult::Truncated(c) => c,
                htd_setcover::exact::CoverResult::Uncoverable => return None,
            }
        }
    };
    Some(chosen.into_iter().map(|i| cands[i as usize]).collect())
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
