//! Differential tests of the word-level elimination kernels against naive
//! set-difference references, on graphs whose rows span one, two and three
//! `u64` words (n = 10, 64, 65, 130), after random elimination prefixes.

use htd_hypergraph::{gen, EliminationGraph, Graph, Vertex, VertexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [u32; 4] = [10, 64, 65, 130];

/// Seeded random graphs of every size and a spread of densities.
fn cases() -> impl Iterator<Item = (String, Graph, StdRng)> {
    SIZES.into_iter().flat_map(|n| {
        (0..6u64).map(move |seed| {
            let p = [0.05, 0.15, 0.4][seed as usize % 3];
            let g = gen::random_gnp(n, p, seed * 1009 + n as u64);
            (format!("n={n} seed={seed}"), g, StdRng::seed_from_u64(seed))
        })
    })
}

/// Eliminates a random prefix of random length; returns its vertices.
fn random_prefix(eg: &mut EliminationGraph, rng: &mut StdRng) -> Vec<Vertex> {
    let len = rng.gen_range(0..eg.num_alive());
    (0..len)
        .map(|_| {
            let alive = eg.alive().to_vec();
            let v = alive[rng.gen_range(0..alive.len())];
            eg.eliminate(v);
            v
        })
        .collect()
}

fn rows(eg: &EliminationGraph) -> Vec<Vec<Vertex>> {
    eg.alive()
        .iter()
        .map(|v| eg.neighbors(v).to_vec())
        .collect()
}

fn num_edges(eg: &EliminationGraph) -> usize {
    eg.alive()
        .iter()
        .map(|v| eg.degree(v) as usize)
        .sum::<usize>()
        / 2
}

/// `nb` minus `skip` is a clique in `eg`.
fn naive_clique(eg: &EliminationGraph, nb: &VertexSet, skip: Option<Vertex>) -> bool {
    let mut rest = nb.clone();
    if let Some(s) = skip {
        rest.remove(s);
    }
    rest.iter().all(|u| {
        let mut missing = rest.difference(eg.neighbors(u));
        missing.remove(u);
        missing.is_empty()
    })
}

#[test]
fn eliminate_undo_restores_every_row_and_the_alive_set() {
    for (name, g, mut rng) in cases() {
        let mut eg = EliminationGraph::new(&g);
        let before = (rows(&eg), eg.alive().clone());
        let prefix = random_prefix(&mut eg, &mut rng);
        // undo half the prefix and redo it, then undo everything
        let full = (rows(&eg), eg.alive().clone());
        let half = prefix.len() / 2;
        eg.undo_to(half);
        for &v in &prefix[half..] {
            eg.eliminate(v);
        }
        assert_eq!((rows(&eg), eg.alive().clone()), full, "{name}");
        eg.undo_to(0);
        assert_eq!((rows(&eg), eg.alive().clone()), before, "{name}");
    }
}

#[test]
fn fill_count_equals_the_fill_added() {
    for (name, g, mut rng) in cases() {
        let mut eg = EliminationGraph::new(&g);
        random_prefix(&mut eg, &mut rng);
        for v in eg.alive().to_vec() {
            let predicted = eg.fill_count(v);
            let edges = num_edges(&eg);
            let deg = eg.eliminate(v) as usize;
            assert_eq!(num_edges(&eg) + deg - edges, predicted, "{name} v={v}");
            eg.undo();
        }
    }
}

#[test]
fn simplicial_tests_match_naive_references() {
    let (mut simplicial, mut almost, mut neither) = (0, 0, 0);
    for (name, g, mut rng) in cases() {
        let mut eg = EliminationGraph::new(&g);
        random_prefix(&mut eg, &mut rng);
        for v in eg.alive().iter() {
            let nb = eg.neighbors(v);
            let want_s = naive_clique(&eg, nb, None);
            let want_a = nb.len() <= 1 || nb.iter().any(|s| naive_clique(&eg, nb, Some(s)));
            assert_eq!(eg.is_simplicial(v), want_s, "{name} v={v}");
            assert_eq!(eg.is_almost_simplicial(v), want_a, "{name} v={v}");
            match (want_s, want_a) {
                (true, _) => simplicial += 1,
                (false, true) => almost += 1,
                (false, false) => neither += 1,
            }
        }
    }
    // all three outcomes were exercised
    assert!(simplicial > 0 && almost > 0 && neither > 0);
}

#[test]
fn minor_operations_match_naive_references() {
    for (name, g, mut rng) in cases() {
        let mut eg = EliminationGraph::new(&g);
        let mut adj: Vec<VertexSet> = (0..g.num_vertices())
            .map(|v| g.neighbors(v).clone())
            .collect();
        while eg.num_alive() > 0 {
            let alive = eg.alive().to_vec();
            let v = alive[rng.gen_range(0..alive.len())];
            let nb = adj[v as usize].clone();
            match nb.iter().nth(rng.gen_range(0..nb.len() as usize + 1)) {
                Some(keep) => {
                    eg.contract_into(keep, v);
                    for u in nb.iter() {
                        adj[u as usize].remove(v);
                        if u != keep {
                            adj[u as usize].insert(keep);
                            adj[keep as usize].insert(u);
                        }
                    }
                }
                None => {
                    eg.delete_vertex(v);
                    for u in nb.iter() {
                        adj[u as usize].remove(v);
                    }
                }
            }
            adj[v as usize].clear();
            let want: Vec<Vec<Vertex>> = eg
                .alive()
                .iter()
                .map(|u| adj[u as usize].to_vec())
                .collect();
            assert_eq!(rows(&eg), want, "{name} after removing {v}");
        }
    }
}
