//! Graph generators: exact families and seeded random substitutes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::Graph;

/// The `n×n` queen graph: one vertex per board square, edges between
/// squares sharing a row, column or diagonal. `queen5_5` … `queen16_16`
/// of the DIMACS suite are exactly these graphs.
pub fn queen_graph(n: u32) -> Graph {
    let id = |r: u32, c: u32| r * n + c;
    let mut g = Graph::new(n * n);
    for r1 in 0..n {
        for c1 in 0..n {
            for r2 in 0..n {
                for c2 in 0..n {
                    if (r1, c1) >= (r2, c2) {
                        continue;
                    }
                    let same_row = r1 == r2;
                    let same_col = c1 == c2;
                    let same_diag = (r1 as i64 - r2 as i64).abs() == (c1 as i64 - c2 as i64).abs();
                    if same_row || same_col || same_diag {
                        g.add_edge(id(r1, c1), id(r2, c2));
                    }
                }
            }
        }
    }
    g
}

/// The Mycielski construction applied to a graph `g`:
/// vertices `V ∪ V' ∪ {z}`, edges of `g`, plus `u'–v` for every edge `u–v`,
/// plus `z–v'` for all `v'`. Raises the chromatic number while keeping the
/// graph triangle-free.
pub fn mycielskian(g: &Graph) -> Graph {
    let n = g.num_vertices();
    let mut m = Graph::new(2 * n + 1);
    let z = 2 * n;
    for (u, v) in g.edges() {
        m.add_edge(u, v);
        m.add_edge(u + n, v);
        m.add_edge(u, v + n);
    }
    for v in 0..n {
        m.add_edge(z, v + n);
    }
    m
}

/// The DIMACS graph `myciel{k}`: the Mycielskian applied `k-1` times to
/// `K2`. `myciel3` is the Grötzsch-graph-sized instance (11 vertices,
/// 20 edges); `myciel7` has 191 vertices and 2360 edges.
pub fn myciel(k: u32) -> Graph {
    assert!(k >= 2, "myciel needs k >= 2");
    let mut g = Graph::from_edges(2, [(0, 1)]);
    for _ in 1..k {
        g = mycielskian(&g);
    }
    g
}

/// The `rows × cols` grid graph. The treewidth of the `n×n` grid is `n`.
pub fn grid_graph(rows: u32, cols: u32) -> Graph {
    let id = |r: u32, c: u32| r * cols + c;
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

/// The complete graph `K_n` (treewidth `n-1`).
pub fn complete_graph(n: u32) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// A cycle `C_n` (treewidth 2 for `n >= 3`).
pub fn cycle_graph(n: u32) -> Graph {
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// A path `P_n` (treewidth 1 for `n >= 2`).
pub fn path_graph(n: u32) -> Graph {
    Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
}

/// Erdős–Rényi `G(n, p)`; the regime of the DIMACS `DSJC` instances
/// (`DSJC125.5` ≈ `G(125, 0.5)`).
pub fn random_gnp(n: u32, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A uniformly random graph with exactly `m` distinct edges.
pub fn random_gnm(n: u32, m: usize, seed: u64) -> Graph {
    let max = (n as usize) * (n as usize - 1) / 2;
    assert!(m <= max, "requested {m} edges, only {max} possible");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    while g.num_edges() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// A Leighton-style `k`-colorable random graph with `m` edges: the vertex
/// set is split into `k` color classes and edges are drawn only between
/// distinct classes — the regime of the DIMACS `le450_k` instances.
pub fn random_k_colorable(n: u32, k: u32, m: usize, seed: u64) -> Graph {
    assert!(k >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut color: Vec<u32> = (0..n).map(|v| v % k).collect();
    color.shuffle(&mut rng);
    let mut g = Graph::new(n);
    let mut guard = 0usize;
    while g.num_edges() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && color[u as usize] != color[v as usize] {
            g.add_edge(u, v);
        }
        guard += 1;
        assert!(guard < 200 * m + 10_000, "edge target unreachable");
    }
    g
}

/// The `d`-dimensional hypercube graph `Q_d` (`2^d` vertices; treewidth
/// grows as `Θ(2^d / √d)`).
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 20);
    let n = 1u32 << d;
    let mut g = Graph::new(n);
    for v in 0..n {
        for b in 0..d {
            let u = v ^ (1 << b);
            if u > v {
                g.add_edge(v, u);
            }
        }
    }
    g
}

/// A `k`-tree on `n ≥ k+1` vertices (treewidth exactly `k`): start from
/// `K_{k+1}`, then repeatedly attach a new vertex to a random existing
/// `k`-clique. Ideal as a ground-truth family for exact solvers.
pub fn random_ktree(n: u32, k: u32, seed: u64) -> Graph {
    assert!(n > k);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = complete_graph(k + 1);
    let mut g_full = Graph::new(n);
    for (u, v) in g.edges() {
        g_full.add_edge(u, v);
    }
    g = g_full;
    // cliques: list of k-subsets usable as attachment points
    let mut cliques: Vec<Vec<u32>> = Vec::new();
    let base: Vec<u32> = (0..=k).collect();
    for skip in 0..=k {
        let mut c = base.clone();
        c.remove(skip as usize);
        cliques.push(c);
    }
    for v in k + 1..n {
        let c = cliques[rng.gen_range(0..cliques.len())].clone();
        for &u in &c {
            g.add_edge(v, u);
        }
        // new cliques: c with one vertex swapped for v
        for skip in 0..c.len() {
            let mut nc = c.clone();
            nc[skip] = v;
            cliques.push(nc);
        }
    }
    g
}

/// A partial `k`-tree: a random `k`-tree with each edge kept with
/// probability `keep` (treewidth ≤ k; usually close to k).
pub fn random_partial_ktree(n: u32, k: u32, keep: f64, seed: u64) -> Graph {
    let full = random_ktree(n, k, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let mut g = Graph::new(n);
    for (u, v) in full.edges() {
        if rng.gen_bool(keep) {
            g.add_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queen_counts_match_dimacs() {
        // Published DIMACS instance sizes.
        let g = queen_graph(5);
        assert_eq!(g.num_vertices(), 25);
        assert_eq!(g.num_edges(), 320 / 2); // DIMACS counts directed pairs: 160 undirected
        let g = queen_graph(6);
        assert_eq!(g.num_vertices(), 36);
        assert_eq!(g.num_edges(), 580 / 2);
        let g = queen_graph(7);
        assert_eq!(g.num_vertices(), 49);
        assert_eq!(g.num_edges(), 952 / 2);
    }

    #[test]
    fn myciel_counts_match_dimacs() {
        for (k, v, e) in [
            (3, 11, 20),
            (4, 23, 71),
            (5, 47, 236),
            (6, 95, 755),
            (7, 191, 2360),
        ] {
            let g = myciel(k);
            assert_eq!(g.num_vertices(), v, "myciel{k} vertices");
            assert_eq!(g.num_edges(), e, "myciel{k} edges");
        }
    }

    #[test]
    fn mycielskian_is_triangle_free_from_k2() {
        // myciel4 is triangle-free by construction
        let g = myciel(4);
        for (u, v) in g.edges() {
            let common = g.neighbors(u).intersection_len(g.neighbors(v));
            assert_eq!(common, 0, "triangle at edge ({u},{v})");
        }
    }

    #[test]
    fn grid_structure() {
        let g = grid_graph(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 4));
        assert!(!g.has_edge(3, 4)); // row wrap must not exist
    }

    #[test]
    fn random_generators_are_deterministic() {
        let a = random_gnp(40, 0.3, 7);
        let b = random_gnp(40, 0.3, 7);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        let c = random_gnp(40, 0.3, 8);
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = random_gnm(30, 100, 3);
        assert_eq!(g.num_edges(), 100);
    }

    #[test]
    fn k_colorable_has_no_intra_class_edges() {
        // verify it is k-colorable by checking a proper coloring exists:
        // regenerate classes with same seed logic is internal, so instead
        // just check edge count and bipartite-ness for k=2.
        let g = random_k_colorable(20, 2, 40, 11);
        assert_eq!(g.num_edges(), 40);
        // 2-colorable = bipartite: BFS 2-coloring must succeed
        let n = g.num_vertices();
        let mut color = vec![-1i8; n as usize];
        for s in 0..n {
            if color[s as usize] != -1 {
                continue;
            }
            color[s as usize] = 0;
            let mut q = vec![s];
            while let Some(v) = q.pop() {
                for w in g.neighbors(v).iter() {
                    if color[w as usize] == -1 {
                        color[w as usize] = 1 - color[v as usize];
                        q.push(w);
                    } else {
                        assert_ne!(color[w as usize], color[v as usize], "odd cycle");
                    }
                }
            }
        }
    }

    #[test]
    fn ktree_is_chordal_with_clique_number_k_plus_1() {
        let g = random_ktree(20, 3, 5);
        assert_eq!(g.num_vertices(), 20);
        // every k-tree on n vertices has exactly k*n - k(k+1)/2 edges
        assert_eq!(g.num_edges(), (3 * 20 - 3 * 4 / 2) as usize);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(3);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 12);
        for v in 0..8 {
            assert_eq!(g.degree(v), 3);
        }
        assert_eq!(hypercube(0).num_edges(), 0);
    }
}
