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
//! taking the lexicographically smallest leaf serialization. Three
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
//!   correctness;
//! * **automorphism pruning**, as in nauty and Traces (McKay & Piperno,
//!   *Practical graph isomorphism, II*, 2014) — a leaf whose
//!   serialization equals the first or the least leaf's (compared in
//!   full, never by fingerprint) yields an automorphism, the map between
//!   the two labelings, which is recorded. The search then returns to the
//!   node where the two leaves' paths part. At every node, a child that a
//!   recorded automorphism fixing the node's path maps onto a sibling
//!   already refined is neither refined nor explored. This makes
//!   vertex-transitive shapes without twins (cycles, circulants,
//!   hypercubes, the Petersen graph) cheap: C₁₀(1, 3) takes 32
//!   refinements instead of 412.
//!
//! Automorphism pruning only removes work: orbit-mates have equal
//! invariants and isomorphic subtrees, so the minimum-invariant choice and
//! the least leaf are unchanged, and the search refines a subset of the
//! nodes the unpruned search refines, in the same order. So for every
//! input whose unpruned search completes within the budget, `bytes` and
//! `fingerprint` are byte for byte what that search returns, and
//! `complete` can only go from false to true. Service cache keys,
//! certificate-store records and cluster ring placement depend on these
//! bytes; `tests/canonical_pins.rs` pins them.
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
    let bytes = s
        .best
        .expect("at least the leftmost leaf is explored")
        .bytes;
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

/// A leaf of the search: a discrete coloring and its serialization.
#[derive(Clone)]
struct Leaf {
    bytes: Vec<u8>,
    /// `labeling[v]` is the canonical position of vertex `v`.
    labeling: Vec<u32>,
    /// The vertices individualized on the way from the root.
    path: Vec<Vertex>,
}

struct Search<'a> {
    h: &'a Hypergraph,
    budget: u64,
    refines: u64,
    complete: bool,
    /// The vertices individualized from the root to the current node.
    path: Vec<Vertex>,
    /// The first leaf found.
    first: Option<Leaf>,
    /// The least leaf found so far.
    best: Option<Leaf>,
    /// Automorphisms found at leaves, each as a vertex map `v ↦ γ[v]`.
    automorphisms: Vec<Vec<Vertex>>,
    /// Signature of each vertex's class after the last refine (used for
    /// the partition invariant).
    vsig: Vec<u64>,
    // Buffers `refine` and `partition_invariant` reuse across rounds.
    edge_sigs: Vec<u64>,
    member_colors: Vec<u32>,
    incident_sigs: Vec<u64>,
    keys: Vec<(u32, u64)>,
    class_size: Vec<u64>,
    class_sig: Vec<u64>,
}

impl<'a> Search<'a> {
    fn new(h: &'a Hypergraph, budget: u64) -> Self {
        let n = h.num_vertices() as usize;
        Search {
            h,
            budget,
            refines: 0,
            complete: true,
            path: Vec::new(),
            first: None,
            best: None,
            automorphisms: Vec::new(),
            vsig: vec![0; n],
            edge_sigs: Vec::with_capacity(h.num_edges() as usize),
            member_colors: Vec::new(),
            incident_sigs: Vec::new(),
            keys: Vec::with_capacity(n),
            class_size: vec![0; n],
            class_sig: vec![0; n],
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
        let n = colors.len();
        if n == 0 {
            return colors;
        }
        let mut k = self.distinct(&colors);
        loop {
            // edge signatures from member colors
            self.edge_sigs.clear();
            for e in h.edges() {
                self.member_colors.clear();
                self.member_colors
                    .extend(e.iter().map(|v| colors[v as usize]));
                self.member_colors.sort_unstable();
                let mut s = mix(FNV_OFFSET, self.member_colors.len() as u64);
                for &c in &self.member_colors {
                    s = mix(s, c as u64);
                }
                self.edge_sigs.push(s);
            }
            // vertex signatures from incident edge signatures
            for (v, &cv) in colors.iter().enumerate() {
                self.incident_sigs.clear();
                self.incident_sigs.extend(
                    h.incident_edges(v as Vertex)
                        .iter()
                        .map(|&e| self.edge_sigs[e as usize]),
                );
                self.incident_sigs.sort_unstable();
                let mut s = mix(0x5ca1ab1e, cv as u64);
                for &e in &self.incident_sigs {
                    s = mix(s, e);
                }
                self.vsig[v] = s;
            }
            // new ranks: lexicographic on (old rank, signature)
            self.keys.clear();
            self.keys
                .extend(colors.iter().zip(&self.vsig).map(|(&c, &s)| (c, s)));
            self.keys.sort_unstable();
            self.keys.dedup();
            for (c, &s) in colors.iter_mut().zip(&self.vsig) {
                *c = self.keys.binary_search(&(*c, s)).unwrap() as u32;
            }
            let k2 = self.keys.len();
            if k2 == k {
                return colors;
            }
            k = k2;
        }
    }

    /// The number of classes of `colors`, whose ranks are `0..n`.
    fn distinct(&mut self, colors: &[u32]) -> usize {
        self.class_size.fill(0);
        let mut k = 0;
        for &c in colors {
            if self.class_size[c as usize] == 0 {
                self.class_size[c as usize] = 1;
                k += 1;
            }
        }
        k
    }

    /// Label-invariant hash of a refined ordered partition: the sequence
    /// of (rank, class size, class signature) in rank order.
    fn partition_invariant(&mut self, colors: &[u32]) -> u64 {
        self.class_size.fill(0);
        let mut ranks = 0u32;
        for (v, &cv) in colors.iter().enumerate() {
            let c = cv as usize;
            self.class_size[c] += 1;
            self.class_sig[c] = self.vsig[v]; // equal within a class by construction
            ranks = ranks.max(cv + 1);
        }
        let mut inv = FNV_OFFSET;
        for c in 0..ranks as usize {
            inv = mix(inv, c as u64);
            inv = mix(inv, self.class_size[c]);
            inv = mix(inv, self.class_sig[c]);
        }
        inv
    }

    /// Explores the node that `self.path` reaches, whose refined coloring
    /// is `colors`. Returns `Some(level)` when a leaf below it proved the
    /// rest of the subtree automorphic to one already explored: the search
    /// then resumes at the ancestor at depth `level`.
    fn dfs(&mut self, colors: Vec<u32>) -> Option<usize> {
        let n = colors.len();
        if self.distinct(&colors) == n {
            // discrete: rank IS the canonical position
            return self.leaf(colors);
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
        let mut orbits = Orbits::new(cell);
        // transposition pruning: if swapping two cell members is an
        // automorphism (true twins, clique members, star leaves, …), the
        // two branches yield identical leaf sets — keep one representative
        let mut reps: Vec<Vertex> = Vec::with_capacity(orbits.cell.len());
        for i in 0..orbits.cell.len() {
            let v = orbits.cell[i];
            match reps
                .iter()
                .find(|&&r| self.transposition_is_automorphism(r, v))
            {
                Some(&r) => orbits.union(r, v),
                None => reps.push(v),
            }
        }
        // orbit pruning: a representative that a recorded automorphism
        // fixing the path maps onto a refined sibling is neither refined
        // nor explored; orbit-mates have equal invariants and isomorphic
        // subtrees
        orbits.absorb(&self.automorphisms, &self.path);
        // individualize each representative, refine, keep min-invariant
        let mut children: Vec<(u64, Vertex, Vec<u32>)> = Vec::with_capacity(reps.len());
        for &v in &reps {
            if orbits.marked(v, REFINED) {
                continue;
            }
            if self.refines >= self.budget && self.best.is_some() {
                self.complete = false;
                break;
            }
            orbits.mark(v, REFINED);
            let child = self.refine(individualize(&colors, cell_rank, v));
            children.push((self.partition_invariant(&child), v, child));
        }
        let min_inv = children.iter().map(|c| c.0).min()?;
        let depth = self.path.len();
        for (inv, v, child) in children {
            if inv != min_inv {
                continue;
            }
            orbits.absorb(&self.automorphisms, &self.path);
            if orbits.marked(v, EXPLORED) {
                continue;
            }
            if self.refines >= self.budget && self.best.is_some() {
                self.complete = false;
                return None;
            }
            orbits.mark(v, EXPLORED);
            self.path.push(v);
            let resume = self.dfs(child);
            self.path.pop();
            if resume.is_some_and(|level| level < depth) {
                return resume;
            }
        }
        None
    }

    /// Records the discrete coloring `labeling` as a leaf. A leaf that
    /// serializes like the first or the least leaf is their image under
    /// the automorphism between the two labelings, which maps the older
    /// leaf's path onto this one's: it is recorded, and the search returns
    /// to the node where the two paths part, whose child on the older path
    /// is explored and isomorphic to the one being abandoned.
    fn leaf(&mut self, labeling: Vec<u32>) -> Option<usize> {
        let bytes = serialize(self.h, &labeling);
        let (Some(first), Some(best)) = (&self.first, &self.best) else {
            let leaf = Leaf {
                bytes,
                labeling,
                path: self.path.clone(),
            };
            self.best = Some(leaf.clone());
            self.first = Some(leaf);
            return None;
        };
        let twin = if bytes == first.bytes {
            first
        } else if bytes == best.bytes {
            best
        } else {
            if bytes < best.bytes {
                self.best = Some(Leaf {
                    bytes,
                    labeling,
                    path: self.path.clone(),
                });
            }
            return None;
        };
        // γ = π_leaf⁻¹ ∘ π_twin: γ[v] takes in this leaf the canonical
        // position v takes in the twin, so γ maps the twin's path onto this
        // leaf's path
        let mut at = vec![0; labeling.len()];
        for (v, &p) in labeling.iter().enumerate() {
            at[p as usize] = v as Vertex;
        }
        let gamma: Vec<Vertex> = twin.labeling.iter().map(|&p| at[p as usize]).collect();
        let level = twin
            .path
            .iter()
            .zip(&self.path)
            .take_while(|(a, b)| a == b)
            .count();
        if gamma.iter().enumerate().any(|(v, &w)| v as Vertex != w) {
            self.automorphisms.push(gamma);
        }
        Some(level)
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

/// Orbit flag: the orbit holds a child that was refined.
const REFINED: u8 = 1;
/// Orbit flag: the orbit holds a child that was explored.
const EXPLORED: u8 = 2;

/// The orbits of one node's target cell under the twin transpositions and
/// the recorded automorphisms that fix the node's path pointwise (those
/// map the cell onto itself), as a union-find over the sorted cell.
struct Orbits {
    cell: Vec<Vertex>,
    parent: Vec<u32>,
    /// [`REFINED`]/[`EXPLORED`] bits, kept at each orbit's root.
    flags: Vec<u8>,
    /// How many recorded automorphisms were absorbed already.
    seen: usize,
}

impl Orbits {
    fn new(cell: Vec<Vertex>) -> Self {
        let k = cell.len();
        Orbits {
            cell,
            parent: (0..k as u32).collect(),
            flags: vec![0; k],
            seen: 0,
        }
    }

    fn root(&mut self, v: Vertex) -> usize {
        let mut i = self.cell.binary_search(&v).expect("a cell member");
        while self.parent[i] as usize != i {
            let up = self.parent[self.parent[i] as usize];
            self.parent[i] = up;
            i = up as usize;
        }
        i
    }

    fn union(&mut self, u: Vertex, v: Vertex) {
        let (a, b) = (self.root(u), self.root(v));
        if a != b {
            self.parent[b] = a as u32;
            self.flags[a] |= self.flags[b];
        }
    }

    fn mark(&mut self, v: Vertex, flag: u8) {
        let r = self.root(v);
        self.flags[r] |= flag;
    }

    fn marked(&mut self, v: Vertex, flag: u8) -> bool {
        let r = self.root(v);
        self.flags[r] & flag != 0
    }

    /// Merges the orbits of the automorphisms recorded since the last call
    /// that fix every vertex of `path`.
    fn absorb(&mut self, automorphisms: &[Vec<Vertex>], path: &[Vertex]) {
        for gamma in &automorphisms[self.seen..] {
            if path.iter().all(|&p| gamma[p as usize] == p) {
                for i in 0..self.cell.len() {
                    let v = self.cell[i];
                    self.union(v, gamma[v as usize]);
                }
            }
        }
        self.seen = automorphisms.len();
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

    /// C_n(1, s) as a binary-edge hypergraph.
    fn circulant(n: u32, s: u32) -> Hypergraph {
        let edges = (0..n).flat_map(|i| [vec![i, (i + 1) % n], vec![i, (i + s) % n]]);
        Hypergraph::new(n, edges.collect())
    }

    fn petersen() -> Hypergraph {
        let edges = (0..5).flat_map(|i| {
            [
                vec![i, (i + 1) % 5],
                vec![i, i + 5],
                vec![5 + i, 5 + (i + 2) % 5],
            ]
        });
        Hypergraph::new(10, edges.collect())
    }

    // Vertex-transitive graphs without twins: only automorphism pruning
    // keeps the search from visiting every automorphic leaf. Without it
    // they need 412, 6594 and 222 refinements.

    #[test]
    fn circulant_completes_within_100_refinements() {
        assert!(canonical_form_budgeted(&circulant(10, 3), 100).complete);
    }

    #[test]
    fn hypercube_completes_within_200_refinements() {
        let h = Hypergraph::from_graph(&gen::hypercube(5));
        assert!(canonical_form_budgeted(&h, 200).complete);
    }

    #[test]
    fn petersen_completes_within_100_refinements() {
        assert!(canonical_form_budgeted(&petersen(), 100).complete);
    }

    #[test]
    fn bridge_25_completes_and_is_canonical() {
        // without automorphism pruning it is still incomplete at 32768
        let h = gen::bridge(25);
        let f = canonical_form(&h);
        assert!(f.complete);
        for seed in 0..3 {
            assert_eq!(
                canonical_form(&relabel(&h, seed)).bytes,
                f.bytes,
                "seed {seed}"
            );
        }
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
