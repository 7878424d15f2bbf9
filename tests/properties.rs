//! Property-based tests (proptest) on the workspace's core invariants.

use htd::core::bucket::{
    bucket_elimination, cover_decomposition, td_of_hypergraph, vertex_elimination,
};
use htd::core::leaf_normal_form::{ordering_from_td, to_leaf_normal_form};
use htd::core::ordering::{CoverStrategy, EliminationOrdering, GhwEvaluator, TwEvaluator};
use htd::hypergraph::{canonical_form, EliminationGraph, Graph, Hypergraph, VertexSet};
use proptest::prelude::*;

/// A relabeled copy of `h`: vertices permuted, edge order shuffled.
fn relabel_hypergraph(h: &Hypergraph, seed: u64) -> Hypergraph {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = h.num_vertices();
    let mut perm: Vec<u32> = (0..n).collect();
    perm.shuffle(&mut rng);
    let mut edges: Vec<Vec<u32>> = h
        .edges()
        .iter()
        .map(|e| e.iter().map(|v| perm[v as usize]).collect())
        .collect();
    edges.shuffle(&mut rng);
    Hypergraph::new(n, edges)
}

/// Strategy: a random graph on `n ∈ [1, 12]` vertices as an edge mask.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1u32..=12).prop_flat_map(|n| {
        let max_edges = (n * (n - 1) / 2) as usize;
        proptest::collection::vec(any::<bool>(), max_edges).prop_map(move |mask| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for u in 0..n {
                for v in u + 1..n {
                    if mask[k] {
                        g.add_edge(u, v);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// Strategy: a random covering hypergraph on `n ∈ [2, 9]` vertices.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2u32..=9).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0..n, 1..=3), 1..=8).prop_map(
            move |mut edges| {
                // ensure every vertex is covered so GHDs exist
                let mut covered = vec![false; n as usize];
                for e in &edges {
                    for &v in e {
                        covered[v as usize] = true;
                    }
                }
                for (v, &c) in covered.iter().enumerate() {
                    if !c {
                        edges.push(vec![v as u32]);
                    }
                }
                Hypergraph::new(n, edges)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// eliminate/undo on any prefix restores the graph exactly.
    #[test]
    fn eliminate_undo_roundtrip(g in arb_graph()) {
        let mut eg = EliminationGraph::new(&g);
        let orig = eg.clone();
        let n = g.num_vertices();
        for v in 0..n.min(6) {
            eg.eliminate(v);
        }
        eg.undo_to(0);
        for v in 0..n {
            prop_assert_eq!(eg.neighbors(v).to_vec(), orig.neighbors(v).to_vec());
        }
        prop_assert_eq!(eg.num_alive(), n);
    }

    /// Bucket elimination and vertex elimination produce identical
    /// decompositions (thesis §2.5.3).
    #[test]
    fn bucket_equals_vertex_elimination(h in arb_hypergraph()) {
        let n = h.num_vertices();
        let order = EliminationOrdering::identity(n);
        let a = bucket_elimination(&h, &order);
        let b = vertex_elimination(&h.primal_graph(), &order);
        prop_assert_eq!(a.num_nodes(), b.num_nodes());
        for p in 0..a.num_nodes() {
            prop_assert_eq!(a.bag(p).to_vec(), b.bag(p).to_vec());
            prop_assert_eq!(a.parent(p), b.parent(p));
        }
    }

    /// Every ordering yields a *valid* tree decomposition whose width the
    /// evaluator predicts exactly.
    #[test]
    fn any_ordering_gives_valid_td((g, seed) in (arb_graph(), any::<u64>())) {
        use rand::SeedableRng;
        let n = g.num_vertices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = EliminationOrdering::random(n, &mut rng);
        let td = vertex_elimination(&g, &order);
        prop_assert!(td.validate_graph(&g).is_ok());
        let mut ev = TwEvaluator::new(&g);
        prop_assert_eq!(ev.width(order.as_slice()), td.width());
    }

    /// Covering any ordering's decomposition yields a valid GHD, and the
    /// evaluator's width matches the decomposition's.
    #[test]
    fn any_ordering_gives_valid_ghd(h in arb_hypergraph()) {
        let n = h.num_vertices();
        let order = EliminationOrdering::identity(n);
        let td = td_of_hypergraph(&h, &order);
        let ghd = cover_decomposition(&h, &td, CoverStrategy::Exact).unwrap();
        prop_assert!(ghd.validate(&h).is_ok());
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        prop_assert_eq!(ev.width(order.as_slice()).unwrap(), ghd.width());
        // greedy is an upper bound on exact
        let mut gv = GhwEvaluator::new(&h, CoverStrategy::Greedy);
        prop_assert!(gv.width(order.as_slice()).unwrap() >= ghd.width());
        // completion preserves validity and width
        let complete = ghd.complete(&h);
        prop_assert!(complete.validate(&h).is_ok());
        prop_assert!(complete.is_complete(&h));
        prop_assert_eq!(complete.width(), ghd.width());
    }

    /// Chapter 3 pipeline: the ordering extracted from any decomposition's
    /// leaf normal form never widens it (Theorem 2).
    #[test]
    fn lnf_ordering_never_widens((h, seed) in (arb_hypergraph(), any::<u64>())) {
        use rand::SeedableRng;
        let n = h.num_vertices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let base = EliminationOrdering::random(n, &mut rng);
        let td = td_of_hypergraph(&h, &base);
        let lnf = to_leaf_normal_form(&h, &td);
        prop_assert!(lnf.td.validate(&h).is_ok());
        // every normalized bag fits into some original bag (Theorem 1)
        for p in 0..lnf.td.num_nodes() {
            let fits = (0..td.num_nodes()).any(|q| lnf.td.bag(p).is_subset(td.bag(q)));
            prop_assert!(fits);
        }
        // the extracted ordering's bags fit too (Lemma 13) — hence width
        // never grows, for tw and for ghw
        let sigma = ordering_from_td(&h, &td);
        let derived = td_of_hypergraph(&h, &sigma);
        prop_assert!(derived.width() <= td.width());
        let ghd = cover_decomposition(&h, &td, CoverStrategy::Exact).unwrap();
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        prop_assert!(ev.width(sigma.as_slice()).unwrap() <= ghd.width());
    }

    /// VertexSet algebra laws on random sets.
    #[test]
    fn vertex_set_algebra(mask_a in proptest::collection::vec(any::<bool>(), 80),
                          mask_b in proptest::collection::vec(any::<bool>(), 80)) {
        let cap = 80u32;
        let a = VertexSet::from_iter_with_capacity(cap, (0..cap).filter(|&i| mask_a[i as usize]));
        let b = VertexSet::from_iter_with_capacity(cap, (0..cap).filter(|&i| mask_b[i as usize]));
        prop_assert_eq!(a.union(&b).len(), a.len() + b.len() - a.intersection_len(&b));
        prop_assert_eq!(a.difference_len(&b), a.len() - a.intersection_len(&b));
        prop_assert!(a.intersection(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
        prop_assert_eq!(a.is_disjoint(&b), a.intersection_len(&b) == 0);
        // iteration is sorted and consistent with membership
        let items = a.to_vec();
        prop_assert!(items.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(items.iter().all(|&v| a.contains(v)));
    }

    /// Exact set cover is never larger than greedy and both cover.
    #[test]
    fn exact_cover_dominates_greedy(h in arb_hypergraph()) {
        use htd::setcover::{greedy_cover, ExactCover};
        let target = VertexSet::full(h.num_vertices());
        let edges = h.edges();
        let greedy = greedy_cover(&target, edges).unwrap();
        let exact = ExactCover::new(edges).cover_size(&target).unwrap();
        prop_assert!(exact <= greedy.len() as u32);
        // lower bounds hold
        let lb = htd::setcover::cover_lower_bound(&target, edges);
        prop_assert!(lb <= exact);
        // the fractional relaxation sits between the un-ceiled ratio and
        // the integral optimum
        let frac = htd::setcover::fractional_cover(&target, edges).unwrap();
        prop_assert!(frac <= exact as f64 + 1e-6);
    }

    /// The fractional width of any ordering never exceeds the exact-cover
    /// (ghw-style) width of the same ordering.
    #[test]
    fn fhw_below_ghw_per_ordering(h in arb_hypergraph()) {
        use htd::core::fractional::FhwEvaluator;
        use htd::core::ordering::{CoverStrategy, GhwEvaluator};
        let n = h.num_vertices();
        let order: Vec<u32> = (0..n).collect();
        let f = FhwEvaluator::new(&h).width(&order).unwrap();
        let g = GhwEvaluator::new(&h, CoverStrategy::Exact)
            .width(&order)
            .unwrap();
        prop_assert!(f <= g as f64 + 1e-6, "fhw {f} > ghw {g}");
    }

    /// PACE .td round trip preserves structure and validity.
    #[test]
    fn pace_td_roundtrip((g, seed) in (arb_graph(), any::<u64>())) {
        use rand::SeedableRng;
        use htd::core::pace::{parse_td, write_td};
        let n = g.num_vertices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let order = EliminationOrdering::random(n, &mut rng);
        let td = vertex_elimination(&g, &order);
        let parsed = parse_td(&write_td(&td, n)).unwrap();
        prop_assert_eq!(parsed.width(), td.width());
        prop_assert_eq!(parsed.num_nodes(), td.num_nodes());
        prop_assert!(parsed.validate_graph(&g).is_ok());
    }

    /// Relational algebra laws on small random relations: join symmetry
    /// (up to column order), semijoin absorption, projection idempotence.
    #[test]
    fn relation_algebra_laws(
        ta in proptest::collection::vec(proptest::collection::vec(0u32..3, 2), 0..6),
        tb in proptest::collection::vec(proptest::collection::vec(0u32..3, 2), 0..6),
    ) {
        use htd::csp::Relation;
        let a = Relation::new(vec![0, 1], ta);
        let b = Relation::new(vec![1, 2], tb);
        // |a ⋈ b| = |b ⋈ a|
        let ab = a.join(&b);
        let ba = b.join(&a);
        prop_assert_eq!(ab.len(), ba.len());
        // a ⋉ b ⊆ a, and (a ⋉ b) ⋉ b = a ⋉ b
        let s = a.semijoin(&b);
        prop_assert!(s.len() <= a.len());
        let ss = s.semijoin(&b);
        prop_assert_eq!(s.len(), ss.len());
        // projection to own schema only deduplicates
        let p = a.project(&[0, 1]);
        prop_assert!(p.len() <= a.len());
        let pp = p.project(&[0, 1]);
        prop_assert_eq!(p.len(), pp.len());
        // join with unit is identity (modulo dedup-free copy)
        let u = Relation::unit().join(&a);
        prop_assert_eq!(u.len(), a.len());
    }

    /// The canonical fingerprint (the service's cache key) is invariant
    /// under arbitrary vertex relabelings and edge reorderings.
    #[test]
    fn canonical_fingerprint_relabeling_invariant(
        (h, seed) in (arb_hypergraph(), any::<u64>()),
    ) {
        let base = canonical_form(&h);
        for round in 0..4u64 {
            let relabeled = relabel_hypergraph(&h, seed.wrapping_add(round));
            let other = canonical_form(&relabeled);
            prop_assert_eq!(other.fingerprint, base.fingerprint);
            // the full key, not just the 64-bit hash, must agree
            prop_assert_eq!(&other.bytes, &base.bytes);
            prop_assert_eq!(other.complete, base.complete);
        }
    }

    /// The canonical form distinguishes non-isomorphic generator families
    /// of identical size — including the classic refinement-equivalent
    /// pair C_{2k} vs. two disjoint C_k (both 2-regular).
    #[test]
    fn canonical_form_distinguishes_families((k, seed) in (3u32..=6, any::<u64>())) {
        use htd::hypergraph::gen;
        let cycle = Hypergraph::from_graph(&gen::cycle_graph(2 * k));
        let mut two_cycles_edges: Vec<Vec<u32>> = Vec::new();
        for off in [0, k] {
            for i in 0..k {
                two_cycles_edges.push(vec![off + i, off + (i + 1) % k]);
            }
        }
        let two_cycles = Hypergraph::new(2 * k, two_cycles_edges);
        let a = canonical_form(&cycle);
        let b = canonical_form(&two_cycles);
        prop_assert!(a.bytes != b.bytes, "C_{} aliased 2xC_{}", 2 * k, k);
        // …and stays distinguishing under relabeling of either side
        let a2 = canonical_form(&relabel_hypergraph(&cycle, seed));
        prop_assert_eq!(&a2.bytes, &a.bytes);
        prop_assert!(a2.bytes != b.bytes);
        // distinct families of the same vertex count differ too
        let grid = Hypergraph::from_graph(&gen::grid_graph(2, k));
        let path_like = canonical_form(&grid);
        prop_assert!(path_like.bytes != b.bytes);
    }
}
