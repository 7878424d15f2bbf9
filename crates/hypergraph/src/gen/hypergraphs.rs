//! Hypergraph generators: circuit families and structured grids from the
//! CSP hypergraph library, plus seeded random substitutes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hypergraph::Hypergraph;

/// The `adder_k` constraint hypergraph: a ripple-carry chain of `k` full
/// adders. Cell `i` introduces vertices `a_i, b_i, t_i, s_i, c_i` (inputs,
/// internal xor, sum, carry-out) and constrains them against the previous
/// carry `c_{i-1}`; one extra vertex is the initial carry.
///
/// Sizes match the published library: `5k + 1` vertices, `7k + 1`
/// hyperedges (`adder_75`: 376/526, `adder_99`: 496/694). The generalized
/// hypertree width of the family is 2.
pub fn adder(k: u32) -> Hypergraph {
    // vertex layout: c_0 = 0; cell i in 1..=k: a=5i-4, b=5i-3, t=5i-2,
    // s=5i-1, c=5i
    let n = 5 * k + 1;
    let carry = |i: u32| if i == 0 { 0 } else { 5 * i };
    let mut edges: Vec<Vec<u32>> = Vec::with_capacity((7 * k + 1) as usize);
    let mut names: Vec<String> = Vec::with_capacity(edges.capacity());
    edges.push(vec![0]);
    names.push("init_c0".into());
    for i in 1..=k {
        let (a, b, t, s, c) = (5 * i - 4, 5 * i - 3, 5 * i - 2, 5 * i - 1, 5 * i);
        let cin = carry(i - 1);
        let cell: [(&str, Vec<u32>); 7] = [
            ("xor1", vec![a, b, t]),
            ("xor2", vec![t, cin, s]),
            ("maj", vec![a, b, cin, c]),
            ("in_ab", vec![a, b]),
            ("prop_at", vec![a, t]),
            ("prop_bt", vec![b, t]),
            ("out_sc", vec![s, c]),
        ];
        for (g, scope) in cell {
            names.push(format!("{g}_{i}"));
            edges.push(scope);
        }
    }
    let mut h = Hypergraph::new(n, edges);
    h.set_edge_names(names);
    h
}

/// The `bridge_k` constraint hypergraph: a chain of `k` Wheatstone-bridge
/// cells. Each cell introduces 9 new vertices and 9 hyperedges (the five
/// bridge branches, expressed over node potentials, plus coupling
/// constraints); two global terminals complete the chain.
///
/// Sizes match the published library: `9k + 2` vertices and `9k + 2`
/// hyperedges (`bridge_50`: 452/452). ghw of the family is 2.
pub fn bridge(k: u32) -> Hypergraph {
    // terminals: src = 0, sink = 1; cell i (0-based) vertices:
    // 2 + 9i .. 2 + 9i + 8 = [nl, nr, nt, nb, i1..i5]
    let n = 9 * k + 2;
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut left = 0u32; // entry node of current cell
    for i in 0..k {
        let base = 2 + 9 * i;
        let (nt, nb, nr) = (base, base + 1, base + 2);
        let (b1, b2, b3, b4, b5, link) =
            (base + 3, base + 4, base + 5, base + 6, base + 7, base + 8);
        // five branches of the bridge: left-top, left-bottom, middle,
        // top-right, bottom-right; each branch couples its current variable
        // with the two node potentials it connects.
        let cell: [(&str, Vec<u32>); 9] = [
            ("lt", vec![left, nt, b1]),
            ("lb", vec![left, nb, b2]),
            ("mid", vec![nt, nb, b3]),
            ("tr", vec![nt, nr, b4]),
            ("br", vec![nb, nr, b5]),
            ("kcl_t", vec![b1, b3, b4]),
            ("kcl_b", vec![b2, b3, b5]),
            ("link", vec![nr, link]),
            ("pass", vec![link, left]),
        ];
        for (g, scope) in cell {
            names.push(format!("{g}_{i}"));
            edges.push(scope);
        }
        left = nr;
    }
    names.push("src_t0".into());
    edges.push(vec![0]);
    names.push("sink".into());
    edges.push(vec![left, 1]);
    let mut h = Hypergraph::new(n, edges);
    h.set_edge_names(names);
    h
}

/// The `grid2d_k` hypergraph: color the `k×k` board like a checkerboard;
/// black cells are vertices and every white cell becomes a hyperedge over
/// its (up to 4) black orthogonal neighbors.
///
/// Sizes match the library: `⌈k²/2⌉` vertices and `⌊k²/2⌋` hyperedges
/// (`grid2d_20`: 200/200).
pub fn grid2d(k: u32) -> Hypergraph {
    let is_black = |r: u32, c: u32| (r + c) % 2 == 0;
    // number black cells row-major
    let mut black_id = vec![u32::MAX; (k * k) as usize];
    let mut next = 0u32;
    for r in 0..k {
        for c in 0..k {
            if is_black(r, c) {
                black_id[(r * k + c) as usize] = next;
                next += 1;
            }
        }
    }
    let mut edges = Vec::new();
    for r in 0..k {
        for c in 0..k {
            if is_black(r, c) {
                continue;
            }
            let mut scope = Vec::new();
            let mut push = |rr: i64, cc: i64| {
                if rr >= 0 && cc >= 0 && (rr as u32) < k && (cc as u32) < k {
                    scope.push(black_id[(rr as u32 * k + cc as u32) as usize]);
                }
            };
            push(r as i64 - 1, c as i64);
            push(r as i64 + 1, c as i64);
            push(r as i64, c as i64 - 1);
            push(r as i64, c as i64 + 1);
            edges.push(scope);
        }
    }
    Hypergraph::new(next, edges)
}

/// The `grid3d_k` hypergraph: the same parity construction on the `k×k×k`
/// lattice, hyperedges over up to 6 orthogonal neighbors
/// (`grid3d_8`: 256/256).
pub fn grid3d(k: u32) -> Hypergraph {
    let is_black = |x: u32, y: u32, z: u32| (x + y + z) % 2 == 0;
    let idx = |x: u32, y: u32, z: u32| (x * k + y) * k + z;
    let mut black_id = vec![u32::MAX; (k * k * k) as usize];
    let mut next = 0u32;
    for x in 0..k {
        for y in 0..k {
            for z in 0..k {
                if is_black(x, y, z) {
                    black_id[idx(x, y, z) as usize] = next;
                    next += 1;
                }
            }
        }
    }
    let mut edges = Vec::new();
    for x in 0..k {
        for y in 0..k {
            for z in 0..k {
                if is_black(x, y, z) {
                    continue;
                }
                let mut scope = Vec::new();
                let mut push = |xx: i64, yy: i64, zz: i64| {
                    if xx >= 0
                        && yy >= 0
                        && zz >= 0
                        && (xx as u32) < k
                        && (yy as u32) < k
                        && (zz as u32) < k
                    {
                        scope.push(black_id[idx(xx as u32, yy as u32, zz as u32) as usize]);
                    }
                };
                push(x as i64 - 1, y as i64, z as i64);
                push(x as i64 + 1, y as i64, z as i64);
                push(x as i64, y as i64 - 1, z as i64);
                push(x as i64, y as i64 + 1, z as i64);
                push(x as i64, y as i64, z as i64 - 1);
                push(x as i64, y as i64, z as i64 + 1);
                edges.push(scope);
            }
        }
    }
    Hypergraph::new(next, edges)
}

/// The `clique_k` hypergraph: `k` vertices and all `k(k-1)/2` pairs as
/// binary hyperedges (`clique_20`: 20/190). Its generalized hypertree
/// width is `⌈k/2⌉`.
pub fn clique_hypergraph(k: u32) -> Hypergraph {
    let mut edges = Vec::new();
    for u in 0..k {
        for v in u + 1..k {
            edges.push(vec![u, v]);
        }
    }
    Hypergraph::new(k, edges)
}

/// A seeded random combinational-circuit hypergraph substituting the ISCAS
/// instances (`b06` … `c880`): a DAG of `num_gates` gates over
/// `num_inputs` primary inputs; each gate draws 1–`max_fanin` inputs from a
/// recent window of existing signals (circuit locality) and contributes the
/// hyperedge `{inputs…, output}`.
///
/// Vertices: `num_inputs + num_gates`; hyperedges: `num_gates + extra`
/// output-tap edges, letting callers match the published (V, H) counts.
/// An input that no gate or tap reads joins the scope of the gate with its
/// index (modulo `num_gates`), without a random draw, so every vertex lies
/// in some hyperedge.
pub fn random_circuit(
    num_inputs: u32,
    num_gates: u32,
    extra_taps: u32,
    max_fanin: u32,
    window: u32,
    seed: u64,
) -> Hypergraph {
    assert!(num_inputs >= 1 && num_gates >= 1 && max_fanin >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = num_inputs + num_gates;
    let mut edges: Vec<Vec<u32>> = Vec::new();
    for g in 0..num_gates {
        let out = num_inputs + g;
        let fanin = rng.gen_range(1..=max_fanin).min(out);
        let lo = out.saturating_sub(window.max(fanin));
        let mut scope = vec![out];
        let mut guard = 0;
        while (scope.len() as u32) < fanin + 1 && guard < 1000 {
            let v = rng.gen_range(lo..out);
            if !scope.contains(&v) {
                scope.push(v);
            }
            guard += 1;
        }
        edges.push(scope);
    }
    for _ in 0..extra_taps {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push(vec![u, v]);
        } else {
            edges.push(vec![u]);
        }
    }
    let mut read = vec![false; num_inputs as usize];
    for &v in edges.iter().flatten() {
        if v < num_inputs {
            read[v as usize] = true;
        }
    }
    for i in (0..num_inputs).filter(|&i| !read[i as usize]) {
        edges[(i % num_gates) as usize].push(i);
    }
    Hypergraph::new(n, edges)
}

/// A random `k`-uniform hypergraph: `m` hyperedges of exactly `k` distinct
/// vertices each — the regime of random CSPs / random k-SAT instances.
pub fn random_uniform(n: u32, m: u32, k: u32, seed: u64) -> Hypergraph {
    assert!(k <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let mut scope: Vec<u32> = Vec::with_capacity(k as usize);
        while (scope.len() as u32) < k {
            let v = rng.gen_range(0..n);
            if !scope.contains(&v) {
                scope.push(v);
            }
        }
        edges.push(scope);
    }
    Hypergraph::new(n, edges)
}

/// An acyclic (α-acyclic) hypergraph built as a random join tree: edge
/// scopes of size up to `k` where each new edge shares a random subset with
/// one previous edge. Ground truth `ghw = 1` for testing.
pub fn random_acyclic(num_edges: u32, k: u32, seed: u64) -> Hypergraph {
    assert!(k >= 2 && num_edges >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut next_vertex = 0u32;
    let fresh = |next_vertex: &mut u32| {
        let v = *next_vertex;
        *next_vertex += 1;
        v
    };
    let first: Vec<u32> = (0..k).map(|_| fresh(&mut next_vertex)).collect();
    edges.push(first);
    for _ in 1..num_edges {
        let parent = &edges[rng.gen_range(0..edges.len())];
        let shared = rng.gen_range(1..=(parent.len().min(k as usize - 1)));
        let mut scope: Vec<u32> = Vec::new();
        // random distinct subset of the parent
        let mut pool = parent.clone();
        for _ in 0..shared {
            let i = rng.gen_range(0..pool.len());
            scope.push(pool.swap_remove(i));
        }
        while scope.len() < k as usize {
            scope.push(fresh(&mut next_vertex));
        }
        edges.push(scope);
    }
    Hypergraph::new(next_vertex, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_counts_match_library() {
        for (k, v, h) in [(75u32, 376u32, 526u32), (99, 496, 694)] {
            let a = adder(k);
            assert_eq!(a.num_vertices(), v, "adder_{k} vertices");
            assert_eq!(a.num_edges(), h, "adder_{k} edges");
        }
    }

    #[test]
    fn bridge_counts_match_library() {
        let b = bridge(50);
        assert_eq!(b.num_vertices(), 452);
        assert_eq!(b.num_edges(), 452);
    }

    #[test]
    fn grid_hypergraph_counts_match_library() {
        let g = grid2d(20);
        assert_eq!(g.num_vertices(), 200);
        assert_eq!(g.num_edges(), 200);
        let g = grid3d(8);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 256);
    }

    #[test]
    fn clique_counts() {
        let c = clique_hypergraph(20);
        assert_eq!(c.num_vertices(), 20);
        assert_eq!(c.num_edges(), 190);
        assert_eq!(c.rank(), 2);
    }

    #[test]
    fn adder_covers_all_vertices() {
        assert!(adder(5).covers_all_vertices());
        assert!(bridge(3).covers_all_vertices());
        assert!(grid2d(6).covers_all_vertices());
        assert!(grid3d(4).covers_all_vertices());
    }

    #[test]
    fn circuit_is_deterministic_and_sized() {
        let a = random_circuit(8, 42, 5, 3, 16, 1);
        let b = random_circuit(8, 42, 5, 3, 16, 1);
        assert_eq!(a.num_vertices(), 50);
        assert_eq!(a.num_edges(), 47);
        assert_eq!(b.num_edges(), a.num_edges());
        for e in 0..a.num_edges() {
            assert_eq!(a.edge(e).to_vec(), b.edge(e).to_vec());
        }
    }

    #[test]
    fn uniform_hypergraph_has_uniform_rank() {
        let h = random_uniform(30, 40, 3, 9);
        assert_eq!(h.num_edges(), 40);
        for e in 0..40 {
            assert_eq!(h.edge(e).len(), 3);
        }
    }

    #[test]
    fn acyclic_generator_produces_connected_scopes() {
        let h = random_acyclic(10, 3, 4);
        assert_eq!(h.num_edges(), 10);
        assert!(h.rank() <= 3);
        // every later edge shares a vertex with an earlier one
        for e in 1..h.num_edges() {
            let shares = (0..e).any(|f| !h.edge(e).is_disjoint(h.edge(f)));
            assert!(shares, "edge {e} disconnected");
        }
    }
}
