//! Minor-based treewidth lower bounds.
//!
//! Contracting edges produces minors, and the treewidth of a minor never
//! exceeds the treewidth of the graph — so any degree statistic that lower
//! bounds the treewidth of *some* minor lower bounds the treewidth of the
//! graph. The thesis uses two such heuristics inside its searches:
//! minor-min-width (Fig. 4.7, = MMD+least-c) and minor-γR (Fig. 4.8).

use htd_hypergraph::{EliminationGraph, Graph, Vertex};
use rand::Rng;

/// The minimum degree of the graph is a treewidth lower bound; taking the
/// maximum over a min-degree *removal* sequence gives the degeneracy bound
/// (MMD). No contractions — the weakest but cheapest bound here.
pub fn degeneracy(g: &Graph) -> u32 {
    let mut eg = EliminationGraph::new(g);
    let mut lb = 0u32;
    while eg.num_alive() > 0 {
        let v = min_degree_vertex(&eg, &mut |_| 0).expect("alive");
        lb = lb.max(eg.degree(v));
        // removal, not elimination: delete v without adding fill
        remove_vertex(&mut eg, v);
    }
    lb
}

/// Algorithm minor-min-width (thesis Fig. 4.7): repeatedly contract a
/// minimum-degree vertex `v` with its least-degree neighbor, tracking
/// `max degree(v)`. Ties broken randomly.
pub fn minor_min_width<R: Rng>(g: &Graph, rng: &mut R) -> u32 {
    minor_min_width_alive(&EliminationGraph::new(g), &mut MinorScratch::default(), rng)
}

/// Minor-min-width of the subgraph induced by `eg`'s alive vertices,
/// computed on a copy of their rows in `scratch`; `eg` is left untouched.
///
/// Ties are taken in increasing vertex id, so ties and RNG draws are those
/// of [`minor_min_width`] on the renumbered alive subgraph. The searches
/// own one scratch each and call this at every node: once the scratch has
/// grown to the graph's size it allocates nothing.
pub fn minor_min_width_alive<R: Rng>(
    eg: &EliminationGraph,
    scratch: &mut MinorScratch,
    rng: &mut R,
) -> u32 {
    scratch.load(eg);
    let mut lb = 0u32;
    for _ in 0..eg.num_alive() {
        let (v, d) = scratch.min_degree_vertex(rng);
        lb = lb.max(d);
        scratch.bucket_flip(v, d);
        if d == 0 {
            continue;
        }
        let u = scratch.least_degree_neighbor(v, rng);
        scratch.contract(v, u);
    }
    lb
}

/// Reusable buffers of [`minor_min_width_alive`]: a copy of the alive rows,
/// their degrees, the alive vertices bucketed by degree, and a tie list.
#[derive(Clone, Debug, Default)]
pub struct MinorScratch {
    /// `u64` words per row (and per bucket).
    words: usize,
    /// Row `v` is `rows[v * words..(v + 1) * words]`.
    rows: Vec<u64>,
    degree: Vec<u32>,
    /// Bucket `d` is `buckets[d * words..(d + 1) * words]`: the alive
    /// vertices of degree `d`, so ties come out in increasing id.
    buckets: Vec<u64>,
    /// No alive vertex has a lower degree: a contraction lowers degrees by
    /// at most one, so the next minimum is at least the last one minus one.
    floor: usize,
    ties: Vec<usize>,
}

impl MinorScratch {
    fn load(&mut self, eg: &EliminationGraph) {
        let n = eg.capacity() as usize;
        let words = n.div_ceil(64);
        self.words = words;
        self.rows.clear();
        self.rows.resize(n * words, 0);
        self.degree.clear();
        self.degree.resize(n, 0);
        self.buckets.clear();
        self.buckets.resize(n * words, 0);
        self.floor = 0;
        for v in eg.alive().iter() {
            let row = eg.neighbors(v);
            let (v, d) = (v as usize, row.len());
            self.rows[v * words..(v + 1) * words].copy_from_slice(row.blocks());
            self.degree[v] = d;
            self.bucket_flip(v, d);
        }
    }

    /// Adds `v` to bucket `d`, or takes it out.
    #[inline]
    fn bucket_flip(&mut self, v: usize, d: u32) {
        self.buckets[d as usize * self.words + v / 64] ^= 1u64 << (v % 64);
    }

    /// Sets the degree of alive vertex `v`, moving it between buckets.
    #[inline]
    fn set_degree(&mut self, v: usize, d: u32) {
        self.bucket_flip(v, self.degree[v]);
        self.bucket_flip(v, d);
        self.degree[v] = d;
    }

    /// An alive vertex of minimum degree (ties drawn from `rng`) and its
    /// degree.
    fn min_degree_vertex<R: Rng>(&mut self, rng: &mut R) -> (usize, u32) {
        let words = self.words;
        let buckets = self.buckets.chunks_exact(words).enumerate();
        for (d, bucket) in buckets.skip(self.floor) {
            let count: u32 = bucket.iter().map(|w| w.count_ones()).sum();
            if count == 0 {
                continue;
            }
            self.floor = d.saturating_sub(1);
            // the k-th member of the bucket, in increasing order
            let mut k = rng.gen_range(0..count as usize) as u32;
            for (i, &w) in bucket.iter().enumerate() {
                let c = w.count_ones();
                if k < c {
                    let mut w = w;
                    for _ in 0..k {
                        w &= w - 1;
                    }
                    return (i * 64 + w.trailing_zeros() as usize, d as u32);
                }
                k -= c;
            }
        }
        unreachable!("min_degree_vertex with no alive vertex")
    }

    /// A least-degree neighbor of `v` (ties drawn from `rng`).
    fn least_degree_neighbor<R: Rng>(&mut self, v: usize, rng: &mut R) -> usize {
        let mut best = u32::MAX;
        self.ties.clear();
        for (i, &w) in self.rows[v * self.words..(v + 1) * self.words]
            .iter()
            .enumerate()
        {
            let mut bits = w;
            while bits != 0 {
                let u = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = self.degree[u];
                if d < best {
                    best = d;
                    self.ties.clear();
                }
                if d == best {
                    self.ties.push(u);
                }
            }
        }
        self.ties[rng.gen_range(0..self.ties.len())]
    }

    /// Contracts `remove` into its neighbor `keep`, which the caller has
    /// already taken out of its bucket; keeps degrees and buckets.
    fn contract(&mut self, keep: usize, remove: usize) {
        let words = self.words;
        let (kb, km) = (keep / 64, 1u64 << (keep % 64));
        let (rb, rm) = (remove / 64, 1u64 << (remove % 64));
        self.bucket_flip(remove, self.degree[remove]);
        for i in 0..words {
            let mut bits = self.rows[remove * words + i];
            while bits != 0 {
                let x = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if x == keep {
                    continue;
                }
                // x trades its edge to `remove` for one to `keep`
                let row = &mut self.rows[x * words..(x + 1) * words];
                row[rb] &= !rm;
                if row[kb] & km != 0 {
                    self.set_degree(x, self.degree[x] - 1);
                } else {
                    row[kb] |= km;
                }
            }
        }
        let mut degree = 0;
        for i in 0..words {
            let mut w = self.rows[keep * words + i] | self.rows[remove * words + i];
            if i == kb {
                w &= !km;
            }
            if i == rb {
                w &= !rm;
            }
            self.rows[keep * words + i] = w;
            degree += w.count_ones();
        }
        self.degree[keep] = degree;
        self.bucket_flip(keep, degree);
    }
}

/// Algorithm minor-γR (thesis Fig. 4.8, after [35]): the Ramachandramurthi
/// parameter γR of a non-complete graph — the minimum degree among vertices
/// not adjacent to every other vertex — is a treewidth lower bound;
/// maximize it over a contraction sequence.
pub fn minor_gamma_r<R: Rng>(g: &Graph, rng: &mut R) -> u32 {
    let mut eg = EliminationGraph::new(g);
    let mut lb = 0u32;
    while eg.num_alive() > 0 {
        let alive = eg.num_alive();
        // the least-degree vertex (ties: least id) not adjacent to all
        // other alive vertices
        let candidate = eg
            .alive()
            .iter()
            .map(|v| (eg.degree(v), v))
            .filter(|&(d, _)| d + 1 < alive)
            .min();
        match candidate {
            None => {
                // complete graph: γR degenerates to n-1 and we are done
                lb = lb.max(alive - 1);
                break;
            }
            Some((d, v)) => {
                lb = lb.max(d);
                if d == 0 {
                    remove_vertex(&mut eg, v);
                } else {
                    let u = least_degree_neighbor(&eg, v, &mut |k| rng.gen_range(0..k));
                    eg.contract_into(v, u);
                }
            }
        }
    }
    lb
}

/// The combined lower bound the searches use: the max of minor-min-width
/// and minor-γR (thesis §5.1).
pub fn combined_lower_bound<R: Rng>(g: &Graph, rng: &mut R) -> u32 {
    minor_min_width(g, rng).max(minor_gamma_r(g, rng))
}

/// Picks an alive vertex of minimum degree; `pick` resolves ties given the
/// tie-count.
fn min_degree_vertex(
    eg: &EliminationGraph,
    pick: &mut impl FnMut(usize) -> usize,
) -> Option<Vertex> {
    let mut best = u32::MAX;
    let mut ties: Vec<Vertex> = Vec::new();
    for v in eg.alive().iter() {
        let d = eg.degree(v);
        if d < best {
            best = d;
            ties.clear();
            ties.push(v);
        } else if d == best {
            ties.push(v);
        }
    }
    if ties.is_empty() {
        None
    } else {
        Some(ties[pick(ties.len())])
    }
}

fn least_degree_neighbor(
    eg: &EliminationGraph,
    v: Vertex,
    pick: &mut impl FnMut(usize) -> usize,
) -> Vertex {
    let mut best = u32::MAX;
    let mut ties: Vec<Vertex> = Vec::new();
    for u in eg.neighbors(v).iter() {
        let d = eg.degree(u);
        if d < best {
            best = d;
            ties.clear();
            ties.push(u);
        } else if d == best {
            ties.push(u);
        }
    }
    ties[pick(ties.len())]
}

/// Deletes `v` (and its incident edges) without fill — a minor operation.
fn remove_vertex(eg: &mut EliminationGraph, v: Vertex) {
    eg.delete_vertex(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::{gen, VertexSet};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy(&gen::path_graph(6)), 1);
        assert_eq!(degeneracy(&gen::cycle_graph(6)), 2);
        assert_eq!(degeneracy(&gen::complete_graph(5)), 4);
        assert_eq!(degeneracy(&gen::grid_graph(4, 4)), 2);
        assert_eq!(degeneracy(&Graph::new(3)), 0);
    }

    #[test]
    fn minor_min_width_of_known_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(minor_min_width(&gen::complete_graph(6), &mut rng), 5);
        assert!(minor_min_width(&gen::grid_graph(4, 4), &mut rng) >= 2);
        assert_eq!(minor_min_width(&gen::path_graph(7), &mut rng), 1);
    }

    #[test]
    fn gamma_r_of_known_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(minor_gamma_r(&gen::complete_graph(6), &mut rng), 5);
        assert!(minor_gamma_r(&gen::cycle_graph(7), &mut rng) >= 2);
    }

    #[test]
    fn lower_bounds_never_exceed_treewidth() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..15u64 {
            let g = gen::random_gnp(8, 0.45, seed);
            let tw = exhaustive_tw(&g);
            for _ in 0..3 {
                assert!(degeneracy(&g) <= tw, "degeneracy seed {seed}");
                assert!(minor_min_width(&g, &mut rng) <= tw, "mmw seed {seed}");
                assert!(minor_gamma_r(&g, &mut rng) <= tw, "γR seed {seed}");
                assert!(
                    combined_lower_bound(&g, &mut rng) <= tw,
                    "combined seed {seed}"
                );
            }
        }
    }

    /// The induced alive subgraph, renumbered: what every search node built
    /// before the bound ran on the elimination graph's rows.
    fn alive_graph(eg: &EliminationGraph) -> Graph {
        eg.to_graph().induced_subgraph(eg.alive()).0
    }

    /// Minor-min-width as computed before the scratch kernel: clone-based
    /// contractions on per-vertex bitsets, same scan order and draws.
    fn reference_minor_min_width<R: Rng>(g: &Graph, rng: &mut R) -> u32 {
        let n = g.num_vertices();
        let mut adj: Vec<VertexSet> = (0..n).map(|v| g.neighbors(v).clone()).collect();
        let mut alive = VertexSet::full(n);
        let mut lb = 0u32;
        let mut pick = |ties: &[Vertex]| ties[rng.gen_range(0..ties.len())];
        let least = |cands: &VertexSet, adj: &[VertexSet]| {
            let best = cands.iter().map(|v| adj[v as usize].len()).min();
            let ties: Vec<Vertex> = cands
                .iter()
                .filter(|&v| Some(adj[v as usize].len()) == best)
                .collect();
            ties
        };
        while !alive.is_empty() {
            let v = pick(&least(&alive, &adj));
            let d = adj[v as usize].len();
            lb = lb.max(d);
            let nb = adj[v as usize].clone();
            if d == 0 {
                alive.remove(v);
                continue;
            }
            let u = pick(&least(&nb, &adj));
            let nu = adj[u as usize].clone();
            for x in nu.iter() {
                adj[x as usize].remove(u);
                if x != v {
                    adj[x as usize].insert(v);
                    adj[v as usize].insert(x);
                }
            }
            adj[v as usize].remove(v);
            adj[v as usize].remove(u);
            adj[u as usize].clear();
            alive.remove(u);
        }
        lb
    }

    #[test]
    fn alive_minor_min_width_matches_reference_across_word_boundaries() {
        let mut scratch = MinorScratch::default();
        for n in [10u32, 64, 65, 130] {
            for seed in 0..6u64 {
                let p = [0.08, 0.2, 0.5][seed as usize % 3];
                let g = gen::random_gnp(n, p, seed * 31 + n as u64);
                let mut eg = EliminationGraph::new(&g);
                let mut pre = StdRng::seed_from_u64(seed);
                for _ in 0..pre.gen_range(0..n) {
                    let alive = eg.alive().to_vec();
                    eg.eliminate(alive[pre.gen_range(0..alive.len())]);
                }
                let mut fast = StdRng::seed_from_u64(seed + 100);
                let mut slow = StdRng::seed_from_u64(seed + 100);
                let got = minor_min_width_alive(&eg, &mut scratch, &mut fast);
                let want = reference_minor_min_width(&alive_graph(&eg), &mut slow);
                assert_eq!(got, want, "n={n} seed={seed}");
                assert_eq!(fast.next_u64(), slow.next_u64(), "rng n={n} seed={seed}");
                // the wrapper runs the same kernel on the whole graph
                let mut fast = StdRng::seed_from_u64(seed);
                let mut slow = StdRng::seed_from_u64(seed);
                assert_eq!(
                    minor_min_width(&g, &mut fast),
                    reference_minor_min_width(&g, &mut slow)
                );
                assert_eq!(fast.next_u64(), slow.next_u64());
            }
        }
    }

    #[test]
    fn contraction_bounds_dominate_degeneracy_on_grids() {
        // on grids minor-min-width reaches the true treewidth-ish bound
        // while plain degeneracy stalls at 2
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::grid_graph(5, 5);
        let mmw = minor_min_width(&g, &mut rng);
        assert!(mmw >= degeneracy(&g));
        assert!(mmw >= 3);
    }
}
