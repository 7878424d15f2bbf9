//! Property tests for component splitting — the machinery the
//! balanced-separator engine's recursion stands on.
//!
//! The workspace vendors no property-testing framework, so these are
//! seeded randomized properties in the style of the rest of the repo:
//! many small random instances, deterministic seeds, exhaustive
//! assertions per instance.

use htd_hypergraph::{gen, Hypergraph, VertexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Disjoint union of hypergraphs, parts offset into one vertex space.
fn disjoint_union(parts: &[Hypergraph]) -> Hypergraph {
    let n: u32 = parts.iter().map(Hypergraph::num_vertices).sum();
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut offset = 0;
    for h in parts {
        for e in h.edges() {
            edges.push(e.iter().map(|v| v + offset).collect());
        }
        offset += h.num_vertices();
    }
    Hypergraph::new(n, edges)
}

fn random_part(rng: &mut StdRng) -> Hypergraph {
    match rng.gen_range(0..4u32) {
        0 => gen::grid2d(rng.gen_range(2..=3)),
        1 => gen::clique_hypergraph(rng.gen_range(3..=5)),
        2 => gen::adder(rng.gen_range(1..=2)),
        _ => gen::random_uniform(rng.gen_range(4..=8), rng.gen_range(3..=6), 3, rng.gen()),
    }
}

/// A disconnected hypergraph splits into exactly the concatenation of its
/// parts' components, offset into the union's vertex space — the property
/// the balsep engine relies on when it cuts on the empty separator.
#[test]
fn disjoint_unions_split_into_exactly_their_parts_components() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let parts: Vec<Hypergraph> = (0..rng.gen_range(2..=4))
            .map(|_| random_part(&mut rng))
            .collect();
        let union = disjoint_union(&parts);

        let mut expected: Vec<Vec<u32>> = Vec::new();
        let mut offset = 0;
        for h in &parts {
            for comp in h.connected_components() {
                expected.push(comp.iter().map(|v| v + offset).collect());
            }
            offset += h.num_vertices();
        }
        let got: Vec<Vec<u32>> = union
            .connected_components()
            .iter()
            .map(VertexSet::to_vec)
            .collect();
        // both sides emit components in ascending order of their smallest
        // vertex, so the comparison is order-sensitive on purpose
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// `connected_components_within` yields a partition of `within` in which
/// no hyperedge (restricted to `within`) crosses two blocks, and agrees
/// with the primal graph's notion of connectivity.
#[test]
fn components_within_partition_and_agree_with_the_primal_graph() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let h = random_part(&mut rng);
        let n = h.num_vertices();
        // a random "alive" set, as the recursion would leave after
        // removing a separator
        let mut within = VertexSet::new(n);
        for v in 0..n {
            if rng.gen_bool(0.7) {
                within.insert(v);
            }
        }
        let comps = h.connected_components_within(&within);

        // partition: union is `within`, blocks are pairwise disjoint
        let mut union = VertexSet::new(n);
        let mut total = 0;
        for c in &comps {
            assert!(!c.is_empty(), "seed {seed}: empty component");
            total += c.len();
            union.union_with(c);
        }
        assert_eq!(union.to_vec(), within.to_vec(), "seed {seed}");
        assert_eq!(total, within.len(), "seed {seed}: blocks overlap");

        // no restricted hyperedge touches two different blocks
        for e in h.edges() {
            let e_in = e.intersection(&within);
            if e_in.is_empty() {
                continue;
            }
            let touched = comps
                .iter()
                .filter(|c| !c.intersection(&e_in).is_empty())
                .count();
            assert_eq!(touched, 1, "seed {seed}: edge crosses a separator-free cut");
        }

        // the primal graph sees exactly the same partition
        let via_primal: Vec<Vec<u32>> = h
            .primal_graph()
            .connected_components_within(&within)
            .iter()
            .map(VertexSet::to_vec)
            .collect();
        let via_hyper: Vec<Vec<u32>> = comps.iter().map(VertexSet::to_vec).collect();
        assert_eq!(via_hyper, via_primal, "seed {seed}");
    }
}

/// `within = full` degenerates to plain `connected_components`, and a
/// graph restricted to one component stays connected.
#[test]
fn full_within_is_plain_components_and_blocks_are_connected() {
    for seed in 0..30u64 {
        let g = gen::random_gnp(12, 0.15, seed);
        let full = VertexSet::full(g.num_vertices());
        let a: Vec<Vec<u32>> = g
            .connected_components()
            .iter()
            .map(VertexSet::to_vec)
            .collect();
        let b: Vec<Vec<u32>> = g
            .connected_components_within(&full)
            .iter()
            .map(VertexSet::to_vec)
            .collect();
        assert_eq!(a, b, "seed {seed}");
        for comp in g.connected_components_within(&full) {
            assert_eq!(
                g.connected_components_within(&comp).len(),
                1,
                "seed {seed}: a component re-split"
            );
        }
    }
}

/// Splitting a connected graph on any separator leaves components that
/// are separator-free: re-adding the separator reconnects everything —
/// the soundness core of the nested-dissection recursion.
#[test]
fn separator_removal_components_never_cross_the_separator() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xBA15E9 ^ seed);
        let g = gen::grid_graph(rng.gen_range(3..=5), rng.gen_range(3..=5));
        let n = g.num_vertices();
        let mut sep = VertexSet::new(n);
        for v in 0..n {
            if rng.gen_bool(0.25) {
                sep.insert(v);
            }
        }
        let rest = VertexSet::full(n).difference(&sep);
        let comps = g.connected_components_within(&rest);
        for (i, a) in comps.iter().enumerate() {
            for b in comps.iter().skip(i + 1) {
                for u in a.iter() {
                    // no edge from one block may land in another
                    assert!(
                        g.neighbors(u).intersection(b).is_empty(),
                        "seed {seed}: blocks touch without the separator"
                    );
                }
            }
        }
    }
}
