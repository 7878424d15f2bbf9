//! Canonical forms and fingerprints of hypergraphs.
//!
//! The decomposition service caches solved instances, and the cache key
//! must identify a hypergraph *up to relabeling*: HyperBench-style corpora
//! are dominated by recurring shapes that differ only in vertex/edge names
//! and orderings, and a decomposition of one relabeling is (after renaming)
//! a decomposition of every other. This module computes:
//!
//! * a **canonical serialization** ([`CanonicalForm::bytes`]) — a byte
//!   string that faithfully encodes the unlabeled structure (equal bytes ⟺
//!   isomorphic hypergraphs), and is *canonical* (every relabeling maps to
//!   the same bytes) whenever the search completes within its budget
//!   ([`CanonicalForm::complete`]);
//! * a **64-bit fingerprint** ([`CanonicalForm::fingerprint`]) — an
//!   FNV-1a hash of the serialization, used for sharding and log lines.
//!   Collisions are possible in principle, so correctness-critical
//!   consumers (the service cache) compare the full byte string.
//!
//! The algorithm is the textbook individualization–refinement scheme:
//! iterated equitable color refinement over the vertex/edge incidence
//! structure, branching on the smallest non-singleton color class,
//! pruning branches whose refined partition invariant is not minimal, and
//! taking the lexicographically smallest leaf serialization. Two
//! mitigations keep it practical:
//!
//! * **true-twin pruning** — vertices with identical incident-edge sets
//!   are automorphic, so only one representative per twin class is
//!   individualized (this makes cliques and edgeless classes linear
//!   instead of factorial);
//! * a **refinement budget** — if the search exceeds it, the best leaf
//!   found so far is returned with `complete = false`. The result is then
//!   still a *sound* cache key (it faithfully encodes the structure), it
//!   merely may differ between relabelings, costing cache hits, never
//!   correctness.
//!
//! Names are deliberately ignored: the canonical form is of the unlabeled
//! hypergraph.

use crate::hypergraph::Hypergraph;
use crate::Vertex;

/// Default refinement budget for [`canonical_form`]. Each unit is one
/// equitable-refinement pass (O((n + sum of edge sizes) log n)).
pub const DEFAULT_REFINE_BUDGET: u64 = 10_000;

/// The canonical form of a hypergraph. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CanonicalForm {
    /// Faithful byte serialization of the unlabeled structure; canonical
    /// when `complete` is true.
    pub bytes: Vec<u8>,
    /// FNV-1a hash of `bytes`.
    pub fingerprint: u64,
    /// `true` iff the individualization search finished within budget, in
    /// which case `bytes` is identical across all relabelings.
    pub complete: bool,
}

impl CanonicalForm {
    /// The fingerprint as fixed-width hex (for logs and metrics labels).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// Computes the canonical form with the default budget.
pub fn canonical_form(h: &Hypergraph) -> CanonicalForm {
    canonical_form_budgeted(h, DEFAULT_REFINE_BUDGET)
}

/// Computes the canonical form with an explicit refinement budget.
pub fn canonical_form_budgeted(h: &Hypergraph, budget: u64) -> CanonicalForm {
    let mut s = Search::new(h, budget);
    let colors = s.refine(initial_colors(h));
    s.dfs(colors);
    let bytes = s.best.expect("at least the leftmost leaf is explored");
    let fingerprint = fnv1a(&bytes);
    CanonicalForm {
        bytes,
        fingerprint,
        complete: s.complete,
    }
}

// ---------------------------------------------------------------------------
// hashing

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// The 64-bit FNV-1a hash of `bytes`: the fingerprint of a canonical
/// form, the checksum of a certificate-store record, and the hash of the
/// names behind ring placement and generated-suite seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut x = FNV_OFFSET;
    for &b in bytes {
        x ^= b as u64;
        x = x.wrapping_mul(FNV_PRIME);
    }
    x
}

/// splitmix64 finalizer — mixes one word into a running hash.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// refinement

fn initial_colors(h: &Hypergraph) -> Vec<u32> {
    vec![0; h.num_vertices() as usize]
}

fn distinct(colors: &[u32]) -> usize {
    let mut seen: Vec<bool> = vec![false; colors.len()];
    let mut k = 0;
    for &c in colors {
        if !seen[c as usize] {
            seen[c as usize] = true;
            k += 1;
        }
    }
    k
}

struct Search<'a> {
    h: &'a Hypergraph,
    /// Per vertex, its sorted incident-edge list doubles as the true-twin
    /// key: identical lists ⇒ swapping the two vertices is an automorphism.
    budget: u64,
    refines: u64,
    best: Option<Vec<u8>>,
    complete: bool,
    /// Signature of each vertex's class after the last refine (used for
    /// the partition invariant).
    vsig: Vec<u64>,
}

impl<'a> Search<'a> {
    fn new(h: &'a Hypergraph, budget: u64) -> Self {
        Search {
            h,
            budget,
            refines: 0,
            best: None,
            complete: true,
            vsig: vec![0; h.num_vertices() as usize],
        }
    }

    /// One equitable-refinement fixpoint: repeatedly split vertex classes
    /// by the multiset of their incident edges' signatures, where an edge's
    /// signature is the multiset of its members' colors. Returns the
    /// stabilized (ordered) coloring; class order is label-invariant
    /// because classes are ordered by (previous rank, signature hash).
    fn refine(&mut self, mut colors: Vec<u32>) -> Vec<u32> {
        self.refines += 1;
        let h = self.h;
        let n = h.num_vertices() as usize;
        if n == 0 {
            return colors;
        }
        let mut k = distinct(&colors);
        loop {
            // edge signatures from member colors
            let edge_sigs: Vec<u64> = h
                .edges()
                .iter()
                .map(|e| {
                    let mut cs: Vec<u32> = e.iter().map(|v| colors[v as usize]).collect();
                    cs.sort_unstable();
                    let mut s = mix(FNV_OFFSET, cs.len() as u64);
                    for c in cs {
                        s = mix(s, c as u64);
                    }
                    s
                })
                .collect();
            // vertex signatures from incident edge signatures
            for (v, &cv) in colors.iter().enumerate() {
                let mut es: Vec<u64> = h
                    .incident_edges(v as Vertex)
                    .iter()
                    .map(|&e| edge_sigs[e as usize])
                    .collect();
                es.sort_unstable();
                let mut s = mix(0x5ca1ab1e, cv as u64);
                for e in es {
                    s = mix(s, e);
                }
                self.vsig[v] = s;
            }
            // new ranks: lexicographic on (old rank, signature)
            let mut keys: Vec<(u32, u64)> = (0..n).map(|v| (colors[v], self.vsig[v])).collect();
            keys.sort_unstable();
            keys.dedup();
            for (v, c) in colors.iter_mut().enumerate() {
                let key = (*c, self.vsig[v]);
                *c = keys.binary_search(&key).unwrap() as u32;
            }
            let k2 = keys.len();
            if k2 == k {
                return colors;
            }
            k = k2;
        }
    }

    /// Label-invariant hash of a refined ordered partition: the sequence
    /// of (rank, class size, class signature) in rank order.
    fn partition_invariant(&self, colors: &[u32]) -> u64 {
        let n = colors.len();
        let mut size = vec![0u64; n];
        let mut sig = vec![0u64; n];
        let mut ranks = 0u32;
        for (v, &cv) in colors.iter().enumerate() {
            let c = cv as usize;
            size[c] += 1;
            sig[c] = self.vsig[v]; // equal within a class by construction
            ranks = ranks.max(cv + 1);
        }
        let mut inv = FNV_OFFSET;
        for c in 0..ranks as usize {
            inv = mix(inv, c as u64);
            inv = mix(inv, size[c]);
            inv = mix(inv, sig[c]);
        }
        inv
    }

    fn dfs(&mut self, colors: Vec<u32>) {
        let n = colors.len();
        let k = distinct(&colors);
        if k == n {
            // discrete: rank IS the canonical position
            let ser = serialize(self.h, &colors);
            let improved = match &self.best {
                Some(b) => ser < *b,
                None => true,
            };
            if improved {
                self.best = Some(ser);
            }
            return;
        }
        // target cell: smallest non-singleton class, lowest rank on ties
        let mut count = vec![0u32; n];
        for &c in &colors {
            count[c as usize] += 1;
        }
        let cell_rank = (0..n as u32)
            .filter(|&c| count[c as usize] > 1)
            .min_by_key(|&c| (count[c as usize], c))
            .expect("non-discrete partition has a non-singleton class");
        let cell: Vec<Vertex> = (0..n as u32)
            .filter(|&v| colors[v as usize] == cell_rank)
            .collect();
        // transposition pruning: if swapping two cell members is an
        // automorphism (true twins, clique members, star leaves, …), the
        // two branches yield identical leaf sets — keep one representative
        let mut reps: Vec<Vertex> = Vec::with_capacity(cell.len());
        for &v in &cell {
            if !reps
                .iter()
                .any(|&r| self.transposition_is_automorphism(r, v))
            {
                reps.push(v);
            }
        }
        let cell = reps;
        // individualize each representative, refine, keep min-invariant
        let mut children: Vec<(u64, Vec<u32>)> = Vec::with_capacity(cell.len());
        for &v in &cell {
            if self.refines >= self.budget && self.best.is_some() {
                self.complete = false;
                break;
            }
            let child = self.refine(individualize(&colors, cell_rank, v));
            children.push((self.partition_invariant(&child), child));
        }
        let min_inv = match children.iter().map(|(i, _)| *i).min() {
            Some(m) => m,
            None => return,
        };
        for (inv, child) in children {
            if inv != min_inv {
                continue;
            }
            if self.refines >= self.budget && self.best.is_some() {
                self.complete = false;
                return;
            }
            self.dfs(child);
        }
    }
}

impl Search<'_> {
    /// `true` iff the transposition `(u v)` is an automorphism: the
    /// multiset of edges containing `u` but not `v`, with `u` renamed to
    /// `v`, equals the multiset of edges containing `v` but not `u`
    /// (edges containing both or neither are fixed points).
    fn transposition_is_automorphism(&self, u: Vertex, v: Vertex) -> bool {
        // one_sided(x, y, rename): edges containing x but not y, with x
        // renamed to y when `rename`, as a sorted multiset
        let one_sided = |x: Vertex, y: Vertex, rename: bool| -> Vec<Vec<u32>> {
            let mut out: Vec<Vec<u32>> = self
                .h
                .incident_edges(x)
                .iter()
                .filter(|&&e| !self.h.edge(e).contains(y))
                .map(|&e| {
                    let mut l: Vec<u32> = self
                        .h
                        .edge(e)
                        .iter()
                        .map(|w| if rename && w == x { y } else { w })
                        .collect();
                    l.sort_unstable();
                    l
                })
                .collect();
            out.sort_unstable();
            out
        };
        // (u v) maps {edges ∋ u, ∌ v} onto {edges ∋ v, ∌ u}; equality of
        // the two multisets is exactly the automorphism condition
        one_sided(u, v, true) == one_sided(v, u, false)
    }
}

/// Splits vertex `v` out of its class: `v` keeps the class's rank, every
/// other member and every higher class shifts up by one.
fn individualize(colors: &[u32], cell_rank: u32, v: Vertex) -> Vec<u32> {
    colors
        .iter()
        .enumerate()
        .map(|(w, &c)| {
            if c > cell_rank || (c == cell_rank && w as u32 != v) {
                c + 1
            } else {
                c
            }
        })
        .collect()
}

/// Serializes the hypergraph under the discrete coloring `perm`
/// (`perm[v]` = canonical id of `v`): header `n m`, then each edge as its
/// sorted canonical-id list, edges sorted lexicographically. Everything is
/// little-endian `u32`, so equal bytes ⟺ equal relabeled structure.
fn serialize(h: &Hypergraph, perm: &[u32]) -> Vec<u8> {
    let mut edges: Vec<Vec<u32>> = h
        .edges()
        .iter()
        .map(|e| {
            let mut ids: Vec<u32> = e.iter().map(|v| perm[v as usize]).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    edges.sort_unstable();
    let total: usize = edges.iter().map(|e| e.len() + 1).sum();
    let mut out = Vec::with_capacity(4 * (2 + total));
    let push = |x: u32, out: &mut Vec<u8>| out.extend_from_slice(&x.to_le_bytes());
    push(h.num_vertices(), &mut out);
    push(h.num_edges(), &mut out);
    for e in &edges {
        push(e.len() as u32, &mut out);
        for &v in e {
            push(v, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Rebuilds `h` under a random vertex relabeling, random edge order
    /// and random within-edge order.
    pub(crate) fn relabel(h: &Hypergraph, seed: u64) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = h.num_vertices();
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut lists: Vec<Vec<u32>> = h
            .edges()
            .iter()
            .map(|e| {
                let mut l: Vec<u32> = e.iter().map(|v| perm[v as usize]).collect();
                for i in (1..l.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    l.swap(i, j);
                }
                l
            })
            .collect();
        for i in (1..lists.len()).rev() {
            let j = rng.gen_range(0..=i);
            lists.swap(i, j);
        }
        Hypergraph::new(n, lists)
    }

    #[test]
    fn invariant_under_relabeling() {
        let instances = [
            gen::grid2d(3),
            gen::adder(3),
            gen::bridge(2),
            gen::random_uniform(12, 9, 3, 7),
            Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]),
        ];
        for (i, h) in instances.iter().enumerate() {
            let base = canonical_form(h);
            assert!(base.complete, "instance {i} should canonicalize fully");
            for seed in 0..5 {
                let r = relabel(h, seed * 31 + i as u64);
                let rf = canonical_form(&r);
                assert_eq!(rf.bytes, base.bytes, "instance {i} seed {seed}");
                assert_eq!(rf.fingerprint, base.fingerprint);
            }
        }
    }

    #[test]
    fn distinguishes_wl_equivalent_structures() {
        // C6 vs two disjoint triangles: both 2-regular, so pure color
        // refinement cannot separate them — individualization must.
        let c6 = Hypergraph::new(
            6,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 3],
                vec![3, 4],
                vec![4, 5],
                vec![5, 0],
            ],
        );
        let two_c3 = Hypergraph::new(
            6,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 0],
                vec![3, 4],
                vec![4, 5],
                vec![5, 3],
            ],
        );
        let a = canonical_form(&c6);
        let b = canonical_form(&two_c3);
        assert!(a.complete && b.complete);
        assert_ne!(a.bytes, b.bytes);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn clique_canonicalizes_linearly() {
        // all vertices are true twins inside the one big edge — twin
        // pruning must keep this well under the budget
        let h = gen::clique_hypergraph(40);
        let f = canonical_form_budgeted(&h, 500);
        assert!(f.complete);
        let r = relabel(&h, 99);
        assert_eq!(canonical_form_budgeted(&r, 500).bytes, f.bytes);
    }

    #[test]
    fn structure_changes_change_the_form() {
        let h = gen::grid2d(3);
        let mut lists: Vec<Vec<u32>> = h.edges().iter().map(|e| e.to_vec()).collect();
        lists.pop();
        let smaller = Hypergraph::new(h.num_vertices(), lists);
        assert_ne!(canonical_form(&h).bytes, canonical_form(&smaller).bytes);
    }

    #[test]
    fn empty_and_tiny() {
        let empty = Hypergraph::new(0, vec![]);
        let f = canonical_form(&empty);
        assert!(f.complete);
        assert_eq!(f.bytes.len(), 8); // just the n/m header
        let single = Hypergraph::new(1, vec![vec![0]]);
        assert!(canonical_form(&single).complete);
        assert_ne!(canonical_form(&single).bytes, f.bytes);
    }

    #[test]
    fn budget_exhaustion_still_sound() {
        let h = gen::random_uniform(20, 15, 3, 3);
        let f = canonical_form_budgeted(&h, 1);
        // may or may not be complete, but must faithfully encode the
        // structure: recompute with full budget and compare structure size
        assert_eq!(&f.bytes[0..4], &20u32.to_le_bytes());
        assert_eq!(fnv1a(&f.bytes), f.fingerprint);
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn names_are_ignored() {
        let mut a = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]);
        a.set_vertex_names(vec!["x".into(), "y".into(), "z".into()]);
        let b = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(canonical_form(&a).bytes, canonical_form(&b).bytes);
    }
}
