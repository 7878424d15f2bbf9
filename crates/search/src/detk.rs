//! det-k-decomp: hypertree decompositions of width ≤ k.
//!
//! The canonical backtracking algorithm for *hypertree* decompositions
//! (Gottlob & Samer's DetKDecomp, deciding `hw(H) ≤ k`), the reference
//! method of the hypertree-decomposition literature the thesis builds on
//! (`ghw(H) ≤ hw(H) ≤ tw(H) + 1`-style comparisons).
//!
//! The algorithm decomposes *edge components*: given a component `comp`
//! (a set of hyperedges) and the `conn` vertices connecting it to its
//! parent separator, it guesses a separator `λ` of at most `k` edges that
//! covers `conn`, splits `comp` at `χ = var(λ) ∩ (var(comp) ∪ conn)` into
//! sub-components, and recurses. Candidate separator edges are restricted
//! to `comp ∪ {edges of the parent separator meeting conn}`, which is what
//! enforces the descendant condition (condition 4) of hypertree
//! decompositions. Failed `(comp, conn)` pairs are memoized.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use htd_core::tree_decomposition::{NodeId, TreeDecomposition};
use htd_core::GeneralizedHypertreeDecomposition;
use htd_hypergraph::{EdgeId, Hypergraph, VertexSet};
use htd_setcover::cache::FxHasher;

/// Decides `hw(h) ≤ k` and constructs a witness hypertree decomposition.
///
/// Returns `None` when no width-`k` hypertree decomposition exists (or
/// when a vertex lies in no edge, in which case none exists for any `k`).
///
/// ```
/// use htd_search::det_k_decomp;
/// use htd_hypergraph::Hypergraph;
/// // an acyclic chain has hypertree width 1
/// let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
/// let hd = det_k_decomp(&h, 1).expect("hw = 1");
/// hd.validate_hypertree(&h).unwrap();
/// // a cycle of binary edges needs width 2
/// let c = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
/// assert!(det_k_decomp(&c, 1).is_none());
/// assert!(det_k_decomp(&c, 2).is_some());
/// ```
pub fn det_k_decomp(h: &Hypergraph, k: u32) -> Option<GeneralizedHypertreeDecomposition> {
    match det_k_decomp_until(h, k, &|| false, &mut DetkEffort::default()) {
        DetK::Found(hd) => Some(hd),
        DetK::Refuted | DetK::Stopped => None,
    }
}

/// Partial separators det-k extends between two calls of its stop
/// condition: often enough to stop within a millisecond or so, rarely
/// enough that the check costs nothing.
const STOP_CHECK_PERIOD: u32 = 4096;

/// What det-k searched: its effort counters, summed over every width a
/// run tried. An `hw` solve reports them in its `Outcome`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetkEffort {
    /// `decompose` calls — the paper's primary cost measure for DetKDecomp.
    pub subproblems: u64,
    /// Separators split and recursed on (`try_separator` calls).
    pub separators_tried: u64,
    /// Failed-(comp, conn) memo hits.
    pub memo_hits: u64,
}

/// How a det-k run that may be stopped ended.
pub(crate) enum DetK {
    /// A hypertree decomposition of width at most `k`.
    Found(GeneralizedHypertreeDecomposition),
    /// No hypertree decomposition of width at most `k` exists.
    Refuted,
    /// `stop` returned `true` before the search finished.
    Stopped,
}

/// [`det_k_decomp`] that calls `stop` every [`STOP_CHECK_PERIOD`]
/// partial separators and gives up once it returns `true`. Adds the
/// run's search effort to `effort`.
pub(crate) fn det_k_decomp_until(
    h: &Hypergraph,
    k: u32,
    stop: &dyn Fn() -> bool,
    effort: &mut DetkEffort,
) -> DetK {
    if h.num_vertices() == 0 || h.num_edges() == 0 {
        // degenerate: a single empty node decomposes the empty hypergraph
        if h.num_vertices() == 0 && h.num_edges() == 0 {
            let tree = TreeDecomposition::new(vec![VertexSet::new(0)], vec![None])
                .expect("one root node is a tree");
            return DetK::Found(GeneralizedHypertreeDecomposition::new(tree, vec![vec![]]));
        }
        return DetK::Refuted;
    }
    if !h.covers_all_vertices() || k == 0 {
        return DetK::Refuted;
    }
    let m = h.num_edges();
    let mut ctx = Ctx {
        h,
        k,
        failed: HashSet::default(),
        key: Vec::new(),
        nodes: Vec::new(),
        effort,
        stop,
        until_check: STOP_CHECK_PERIOD,
        stopped: false,
    };
    let all = VertexSet::full(m);
    let root = ctx.decompose(&all, &VertexSet::new(h.num_vertices()), &VertexSet::new(m));
    let root = match root {
        _ if ctx.stopped => return DetK::Stopped,
        None => return DetK::Refuted,
        Some(root) => root,
    };
    // assemble the tree
    let bags: Vec<VertexSet> = ctx.nodes.iter().map(|n| n.chi.clone()).collect();
    let mut parent: Vec<Option<NodeId>> = vec![None; ctx.nodes.len()];
    for (p, node) in ctx.nodes.iter().enumerate() {
        for &c in &node.children {
            parent[c] = Some(p);
        }
    }
    debug_assert_eq!(root, find_root(&parent));
    let tree = TreeDecomposition::new(bags, parent).expect("det-k builds a tree");
    let lambda = ctx.nodes.into_iter().map(|n| n.lambda).collect();
    DetK::Found(GeneralizedHypertreeDecomposition::new(tree, lambda))
}

fn find_root(parent: &[Option<NodeId>]) -> NodeId {
    parent
        .iter()
        .position(|p| p.is_none())
        .expect("one root exists")
}

/// Computes the hypertree width by trying `k = lb, lb+1, …` with
/// [`det_k_decomp`]. `lb` may be any valid lower bound (e.g. the ghw lower
/// bound — `ghw ≤ hw`); pass 1 when in doubt.
pub fn hypertree_width(
    h: &Hypergraph,
    lb: u32,
) -> Option<(u32, GeneralizedHypertreeDecomposition)> {
    match hypertree_width_until(h, lb, &|| false, &mut DetkEffort::default()) {
        Width::Exact(k, hd) => Some((k, hd)),
        Width::Stopped { .. } | Width::Undecomposable => None,
    }
}

/// How a hypertree-width search that may be stopped ended.
pub(crate) enum Width {
    /// The hypertree width, with a decomposition of that width.
    Exact(u32, GeneralizedHypertreeDecomposition),
    /// `stop` returned `true` first; every width below `lower` is refuted.
    Stopped { lower: u32 },
    /// No hypertree decomposition exists.
    Undecomposable,
}

/// [`hypertree_width`] that gives up once `stop` returns `true`, checked
/// before each width and every [`STOP_CHECK_PERIOD`] partial separators
/// within one. Adds the effort of every width it tries to `effort`.
pub(crate) fn hypertree_width_until(
    h: &Hypergraph,
    lb: u32,
    stop: &dyn Fn() -> bool,
    effort: &mut DetkEffort,
) -> Width {
    let mut k = lb.max(1);
    loop {
        if stop() {
            return Width::Stopped { lower: k };
        }
        match det_k_decomp_until(h, k, stop, effort) {
            DetK::Found(hd) => return Width::Exact(k, hd),
            DetK::Stopped => return Width::Stopped { lower: k },
            DetK::Refuted => {}
        }
        if k > h.num_edges() {
            // uncoverable (defensive; covers_all would have caught it)
            return Width::Undecomposable;
        }
        k += 1;
    }
}

struct BuiltNode {
    chi: VertexSet,
    lambda: Vec<EdgeId>,
    children: Vec<NodeId>,
}

struct Ctx<'a> {
    h: &'a Hypergraph,
    k: u32,
    /// memoized failures: component blocks followed by conn blocks
    failed: HashSet<Box<[u64]>, BuildHasherDefault<FxHasher>>,
    /// scratch for building a memo key
    key: Vec<u64>,
    nodes: Vec<BuiltNode>,
    /// the caller's effort counters, counted into during the recursion
    effort: &'a mut DetkEffort,
    /// asked every [`STOP_CHECK_PERIOD`] partial separators
    stop: &'a dyn Fn() -> bool,
    /// partial separators left until `stop` is asked again
    until_check: u32,
    /// set once `stop` returned `true`; every search loop then unwinds
    stopped: bool,
}

impl Ctx<'_> {
    /// Counts one partial separator; `true` once the run must stop.
    fn should_stop(&mut self) -> bool {
        if !self.stopped {
            self.until_check -= 1;
            if self.until_check == 0 {
                self.until_check = STOP_CHECK_PERIOD;
                self.stopped = (self.stop)();
            }
        }
        self.stopped
    }

    /// Union of edge scopes of a component.
    fn vars_of(&self, comp: &VertexSet) -> VertexSet {
        let mut v = VertexSet::new(self.h.num_vertices());
        for e in comp.iter() {
            v.union_with(self.h.edge(e));
        }
        v
    }

    /// Writes the failure-memo key of `(comp, conn)` into `self.key`.
    fn fill_key(&mut self, comp: &VertexSet, conn: &VertexSet) {
        self.key.clear();
        self.key.extend_from_slice(comp.blocks());
        self.key.extend_from_slice(conn.blocks());
    }

    /// Decomposes `comp` whose interface to the parent separator is
    /// `conn`; `old_sep` is the parent's λ (as an edge set). Returns the
    /// root node id of the built subtree.
    fn decompose(
        &mut self,
        comp: &VertexSet,
        conn: &VertexSet,
        old_sep: &VertexSet,
    ) -> Option<NodeId> {
        self.effort.subproblems += 1;
        // base case: the whole component fits into one node
        if comp.len() <= self.k {
            let chi = {
                let mut c = self.vars_of(comp);
                c.union_with(conn);
                c
            };
            // conn ⊆ var(comp) holds by construction, so λ = comp covers χ
            let id = self.nodes.len();
            self.nodes.push(BuiltNode {
                chi,
                lambda: comp.to_vec(),
                children: Vec::new(),
            });
            return Some(id);
        }
        self.fill_key(comp, conn);
        if self.failed.contains(self.key.as_slice()) {
            self.effort.memo_hits += 1;
            return None;
        }
        // candidate separator edges: edges of the component plus parent
        // separator edges meeting conn (the DetKDecomp restriction that
        // yields the descendant condition)
        let mut cands: Vec<EdgeId> = comp.to_vec();
        for e in old_sep.iter() {
            if !comp.contains(e) && !self.h.edge(e).is_disjoint(conn) {
                cands.push(e);
            }
        }
        // enumerate λ ⊆ cands, |λ| ≤ k, conn ⊆ var(λ), with at least one
        // component edge (guarantees progress into comp). `lam[d]` holds
        // var(λ) of the first d chosen edges.
        let mut scope = self.vars_of(comp);
        scope.union_with(conn);
        let sub = Subproblem {
            comp,
            conn,
            scope: &scope,
            cands: &cands,
        };
        let mut chosen: Vec<EdgeId> = Vec::with_capacity(self.k as usize);
        let mut lam = vec![VertexSet::new(self.h.num_vertices()); self.k as usize + 1];
        let node = self.enumerate_separators(&sub, 0, &mut chosen, &mut lam, false);
        // a stopped search refuted nothing
        if node.is_none() && !self.stopped {
            self.fill_key(comp, conn);
            self.failed.insert(self.key.as_slice().into());
        }
        node
    }

    /// Extends the separator `chosen` (whose vertices are
    /// `lam[chosen.len()]`) by candidates from `start` on, depth first.
    fn enumerate_separators(
        &mut self,
        sub: &Subproblem<'_>,
        start: usize,
        chosen: &mut Vec<EdgeId>,
        lam: &mut [VertexSet],
        touches_comp: bool,
    ) -> Option<NodeId> {
        if self.should_stop() {
            return None;
        }
        let depth = chosen.len();
        // try the current choice if it covers conn and touches the component
        if depth > 0 && touches_comp && sub.conn.is_subset(&lam[depth]) {
            if let Some(id) = self.try_separator(sub, chosen, &lam[depth]) {
                return Some(id);
            }
        }
        if depth as u32 >= self.k {
            return None;
        }
        for (i, &e) in sub.cands.iter().enumerate().skip(start) {
            let touches = touches_comp || sub.comp.contains(e);
            let (done, next) = lam.split_at_mut(depth + 1);
            // a full-size choice is only tried, so one that cannot be tried
            // is skipped before its vertex set is built
            if depth + 1 == self.k as usize
                && !(touches && covered_by_union(sub.conn, &done[depth], self.h.edge(e)))
            {
                continue;
            }
            next[0].copy_from(&done[depth]);
            next[0].union_with(self.h.edge(e));
            chosen.push(e);
            let r = self.enumerate_separators(sub, i + 1, chosen, lam, touches);
            chosen.pop();
            if r.is_some() || self.stopped {
                return r;
            }
        }
        None
    }

    /// Splits the component at the separator and recurses.
    fn try_separator(
        &mut self,
        sub: &Subproblem<'_>,
        lambda: &[EdgeId],
        lam_vars: &VertexSet,
    ) -> Option<NodeId> {
        self.effort.separators_tried += 1;
        let (comp, conn) = (sub.comp, sub.conn);
        // χ = var(λ) ∩ (var(comp) ∪ conn)
        let mut chi = lam_vars.clone();
        chi.intersect_with(sub.scope);
        // split the edges not fully inside χ into connected components
        // via vertices outside χ
        let subcomps = split_components(self.h, comp, &chi);
        // progress check: every sub-component must shrink, or keep size
        // with a strictly larger connection (bounded, hence terminating)
        let lambda_set =
            VertexSet::from_iter_with_capacity(self.h.num_edges(), lambda.iter().copied());
        let mut children = Vec::new();
        for part in &subcomps {
            let mut part_conn = self.vars_of(part);
            part_conn.intersect_with(&chi);
            if part.len() >= comp.len() && part_conn.is_subset(conn) && conn.is_subset(&part_conn) {
                return None; // no progress: same component, same interface
            }
            let child = self.decompose(part, &part_conn, &lambda_set)?;
            children.push(child);
        }
        let id = self.nodes.len();
        self.nodes.push(BuiltNode {
            chi,
            lambda: lambda.to_vec(),
            children,
        });
        Some(id)
    }
}

/// One `(comp, conn)` subproblem, with what its separator search reuses.
struct Subproblem<'s> {
    comp: &'s VertexSet,
    conn: &'s VertexSet,
    /// `var(comp) ∪ conn`, which every χ is cut from
    scope: &'s VertexSet,
    /// candidate separator edges
    cands: &'s [EdgeId],
}

/// `conn ⊆ a ∪ b`, without building the union.
fn covered_by_union(conn: &VertexSet, a: &VertexSet, b: &VertexSet) -> bool {
    let words = a.blocks().iter().zip(b.blocks());
    conn.blocks()
        .iter()
        .zip(words)
        .all(|(c, (a, b))| c & !(a | b) == 0)
}

/// Partitions the edges of `comp` not inside `chi` into components: two
/// edges are connected when they share a vertex not in `chi`. Components
/// come out in the order of their smallest edge id.
fn split_components(h: &Hypergraph, comp: &VertexSet, chi: &VertexSet) -> Vec<VertexSet> {
    let m = h.num_edges();
    let mut left = VertexSet::new(m);
    for e in comp.iter() {
        if !h.edge(e).is_subset(chi) {
            left.insert(e);
        }
    }
    let mut comps = Vec::new();
    let mut stack = Vec::new();
    while let Some(seed) = left.first() {
        left.remove(seed);
        let mut part = VertexSet::new(m);
        part.insert(seed);
        stack.push(seed);
        while let Some(e) = stack.pop() {
            for x in h.edge(e).iter().filter(|&x| !chi.contains(x)) {
                for &f in h.incident_edges(x) {
                    if left.remove(f) {
                        part.insert(f);
                        stack.push(f);
                    }
                }
            }
        }
        comps.push(part);
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::join_tree::is_acyclic;
    use htd_core::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;

    fn hw_of(h: &Hypergraph) -> u32 {
        let (w, hd) = hypertree_width(h, 1).expect("coverable");
        hd.validate_hypertree(h)
            .unwrap_or_else(|e| panic!("invalid HD: {e}"));
        assert!(hd.width() <= w);
        w
    }

    #[test]
    fn acyclic_iff_hw_1() {
        for seed in 0..8 {
            let h = gen::random_acyclic(8, 3, seed);
            assert!(is_acyclic(&h));
            assert_eq!(hw_of(&h), 1, "seed {seed}");
        }
        // cycles of binary edges have hw 2
        for n in [3u32, 4, 6] {
            let h = Hypergraph::new(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect());
            assert!(!is_acyclic(&h));
            assert!(det_k_decomp(&h, 1).is_none(), "C{n} must not have hw 1");
            assert_eq!(hw_of(&h), 2, "C{n}");
        }
    }

    #[test]
    fn thesis_example_has_hw_2() {
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(hw_of(&h), 2);
    }

    #[test]
    fn clique_hypergraph_widths() {
        for k in [4u32, 5, 6] {
            let h = gen::clique_hypergraph(k);
            assert_eq!(hw_of(&h), k.div_ceil(2), "clique_{k}");
        }
    }

    #[test]
    fn hw_at_least_ghw_on_random_instances() {
        for seed in 0..10u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let ghw = exhaustive_ghw(&h).unwrap();
            let hw = hw_of(&h);
            assert!(hw >= ghw, "seed {seed}: hw {hw} < ghw {ghw}");
            // the known bound hw ≤ 3·ghw + 1 (loose sanity check)
            assert!(hw <= 3 * ghw + 1, "seed {seed}");
        }
    }

    #[test]
    fn adder_and_grid_families() {
        assert!(hw_of(&gen::adder(3)) <= 2);
        assert!(hw_of(&gen::grid2d(4)) <= 4);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Hypergraph::new(0, vec![]);
        assert!(det_k_decomp(&empty, 1).is_some());
        let uncovered = Hypergraph::new(2, vec![vec![0]]);
        assert!(det_k_decomp(&uncovered, 3).is_none());
        let h = Hypergraph::new(2, vec![vec![0, 1]]);
        assert!(det_k_decomp(&h, 0).is_none());
        assert_eq!(hw_of(&h), 1);
    }

    /// Pins det-k's search on a fixed instance: a change to the separator
    /// enumeration must not change how many separators it tries or how
    /// many subproblems it decomposes, only how fast.
    #[test]
    fn bridge10_k2_effort_is_pinned() {
        let h = gen::named_hypergraph("bridge_10").expect("suite hypergraph");
        let mut effort = DetkEffort::default();
        let refuted = det_k_decomp_until(&h, 2, &|| false, &mut effort);
        assert!(matches!(refuted, DetK::Refuted), "hw(bridge_10) = 3");
        assert_eq!(effort.separators_tried, 12056);
        assert_eq!(effort.subproblems, 12057);
    }

    #[test]
    fn width_k_witness_is_within_k() {
        let h = gen::clique_hypergraph(6);
        // hw = 3; asking for k = 4 must also succeed with width ≤ 4
        let hd = det_k_decomp(&h, 4).expect("hw 3 ≤ 4");
        hd.validate_hypertree(&h).unwrap();
        assert!(hd.width() <= 4);
    }
}
