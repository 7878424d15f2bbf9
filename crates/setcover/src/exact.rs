//! Exact set cover by branch and bound.
//!
//! The original system shells out to an IP solver for the exact covers that
//! make bucket elimination reach the generalized hypertree width (thesis
//! §2.5.2). Bags are small (tens of vertices) and candidate edges few, so a
//! fail-first branch and bound with a greedy incumbent matches the IP
//! solver's optima at a fraction of the machinery.

use htd_hypergraph::{EdgeId, VertexSet};

use crate::greedy::greedy_cover;

/// Reusable exact-cover engine over a fixed edge set.
///
/// Construct once per hypergraph and call [`cover_size`](Self::cover_size) /
/// [`cover`](Self::cover) per bag; the engine owns its scratch space, so
/// repeated queries don't allocate.
pub struct ExactCover<'a> {
    edges: &'a [VertexSet],
    /// node budget per query; `u64::MAX` = unlimited
    node_budget: u64,
}

/// Result of a budgeted exact cover query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverResult {
    /// Optimal cover found, with the chosen edge ids.
    Optimal(Vec<EdgeId>),
    /// Budget exhausted; the best cover found so far (still a valid cover).
    Truncated(Vec<EdgeId>),
    /// The target is not coverable by the edge set.
    Uncoverable,
}

impl CoverResult {
    /// The cover size, if any cover was found.
    pub fn size(&self) -> Option<u32> {
        match self {
            CoverResult::Optimal(c) | CoverResult::Truncated(c) => Some(c.len() as u32),
            CoverResult::Uncoverable => None,
        }
    }
}

impl<'a> ExactCover<'a> {
    /// Creates an engine over `edges` with unlimited node budget.
    pub fn new(edges: &'a [VertexSet]) -> Self {
        ExactCover {
            edges,
            node_budget: u64::MAX,
        }
    }

    /// Sets a per-query node budget; queries that exceed it return
    /// [`CoverResult::Truncated`] with the greedy-or-better incumbent.
    pub fn with_node_budget(mut self, budget: u64) -> Self {
        self.node_budget = budget;
        self
    }

    /// The minimum number of edges covering `target`, or `None` if
    /// uncoverable. Exact when the node budget is unlimited.
    pub fn cover_size(&self, target: &VertexSet) -> Option<u32> {
        self.cover(target).size()
    }

    /// Finds a minimum cover of `target`.
    pub fn cover(&self, target: &VertexSet) -> CoverResult {
        // Greedy incumbent gives the initial upper bound (and proves
        // coverability).
        let greedy = match greedy_cover(target, self.edges) {
            Some(c) => c,
            None => return CoverResult::Uncoverable,
        };
        if greedy.len() as u32 <= 1 || greedy.len() as u32 <= lower_bound(target, self.edges) {
            return CoverResult::Optimal(greedy);
        }
        let mut best = greedy;
        let mut nodes = 0u64;
        let mut chosen: Vec<EdgeId> = Vec::new();
        let mut uncovered = target.clone();
        let exhausted = self.branch(&mut uncovered, &mut chosen, &mut best, &mut nodes);
        if exhausted {
            CoverResult::Truncated(best)
        } else {
            CoverResult::Optimal(best)
        }
    }

    /// Depth-first branch and bound. Returns `true` iff the node budget was
    /// exhausted (result possibly suboptimal).
    fn branch(
        &self,
        uncovered: &mut VertexSet,
        chosen: &mut Vec<EdgeId>,
        best: &mut Vec<EdgeId>,
        nodes: &mut u64,
    ) -> bool {
        *nodes += 1;
        if *nodes > self.node_budget {
            return true;
        }
        if uncovered.is_empty() {
            if chosen.len() < best.len() {
                *best = chosen.clone();
            }
            return false;
        }
        // prune: even one more edge can't beat the incumbent
        let limit = best.len() as u32 - 1;
        if chosen.len() as u32 >= limit {
            return false;
        }
        // admissible remaining-cost bound: max gain per edge
        let max_gain = self
            .edges
            .iter()
            .map(|e| e.intersection_len(uncovered))
            .max()
            .unwrap_or(0);
        if max_gain == 0 {
            return false; // dead end (shouldn't happen: greedy proved coverable)
        }
        let need = uncovered.len().div_ceil(max_gain);
        if chosen.len() as u32 + need > limit {
            return false;
        }
        // fail-first: branch on the uncovered vertex with fewest covering
        // edges; every cover must contain one of them.
        let (_, branch_vertex) = uncovered
            .iter()
            .map(|v| {
                let cnt = self.edges.iter().filter(|e| e.contains(v)).count();
                (cnt, v)
            })
            .min()
            .expect("uncovered nonempty");
        // candidate edges sorted by gain, descending — try promising first
        let mut cands: Vec<(u32, EdgeId)> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.contains(branch_vertex))
            .map(|(i, e)| (e.intersection_len(uncovered), i as EdgeId))
            .collect();
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut exhausted = false;
        for (_, e) in cands {
            let saved = uncovered.clone();
            uncovered.difference_with(&self.edges[e as usize]);
            chosen.push(e);
            exhausted |= self.branch(uncovered, chosen, best, nodes);
            chosen.pop();
            *uncovered = saved;
            if exhausted {
                break;
            }
        }
        exhausted
    }
}

/// Cheap lower bound used to certify greedy optimality early:
/// `ceil(|target| / max edge-gain)`.
fn lower_bound(target: &VertexSet, edges: &[VertexSet]) -> u32 {
    let max_gain = edges
        .iter()
        .map(|e| e.intersection_len(target))
        .max()
        .unwrap_or(0);
    if max_gain == 0 {
        u32::MAX
    } else {
        target.len().div_ceil(max_gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(cap: u32, items: &[u32]) -> VertexSet {
        VertexSet::from_iter_with_capacity(cap, items.iter().copied())
    }

    #[test]
    fn beats_greedy_on_classic_trap() {
        let edges = vec![
            vs(8, &[0, 1, 2, 3]),
            vs(8, &[4, 5, 6, 7]),
            vs(8, &[1, 2, 4, 5, 6]),
        ];
        let engine = ExactCover::new(&edges);
        let r = engine.cover(&VertexSet::full(8));
        assert!(matches!(r, CoverResult::Optimal(_)));
        assert_eq!(r.size(), Some(2));
    }

    #[test]
    fn uncoverable() {
        let edges = vec![vs(4, &[0])];
        assert_eq!(
            ExactCover::new(&edges).cover(&vs(4, &[0, 1])),
            CoverResult::Uncoverable
        );
    }

    #[test]
    fn empty_target_is_zero() {
        let edges = vec![vs(4, &[0])];
        assert_eq!(ExactCover::new(&edges).cover_size(&vs(4, &[])), Some(0));
    }

    #[test]
    fn cover_is_valid() {
        let edges = vec![
            vs(10, &[0, 1, 2]),
            vs(10, &[2, 3, 4]),
            vs(10, &[4, 5, 6]),
            vs(10, &[6, 7, 8]),
            vs(10, &[8, 9, 0]),
        ];
        let t = VertexSet::full(10);
        if let CoverResult::Optimal(c) = ExactCover::new(&edges).cover(&t) {
            let mut u = VertexSet::new(10);
            for e in &c {
                u.union_with(&edges[*e as usize]);
            }
            assert!(t.is_subset(&u), "not a cover");
            // odd vertices 1,3,5,7,9 each live in exactly one edge,
            // so all five edges are required
            assert_eq!(c.len(), 5);
        } else {
            panic!("expected optimal");
        }
    }

    /// Brute force over all subsets for cross-checking.
    fn brute_force(target: &VertexSet, edges: &[VertexSet]) -> Option<u32> {
        let m = edges.len();
        let mut best: Option<u32> = None;
        for mask in 0u32..(1 << m) {
            let mut u = VertexSet::new(target.capacity());
            for (i, e) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    u.union_with(e);
                }
            }
            if target.is_subset(&u) {
                let k = mask.count_ones();
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n = rng.gen_range(1..=10u32);
            let m = rng.gen_range(1..=8usize);
            let edges: Vec<VertexSet> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..=n);
                    VertexSet::from_iter_with_capacity(n, (0..k).map(|_| rng.gen_range(0..n)))
                })
                .collect();
            let tsize = rng.gen_range(0..=n);
            let target =
                VertexSet::from_iter_with_capacity(n, (0..tsize).map(|_| rng.gen_range(0..n)));
            let expected = brute_force(&target, &edges);
            let got = ExactCover::new(&edges).cover_size(&target);
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    fn budget_truncation_still_returns_a_cover() {
        let edges: Vec<VertexSet> = (0..12)
            .map(|i| vs(24, &[i * 2, i * 2 + 1, (i * 2 + 2) % 24]))
            .collect();
        let t = VertexSet::full(24);
        let engine = ExactCover::new(&edges).with_node_budget(3);
        let r = engine.cover(&t);
        let c = match &r {
            CoverResult::Optimal(c) | CoverResult::Truncated(c) => c,
            CoverResult::Uncoverable => panic!("coverable"),
        };
        let mut u = VertexSet::new(24);
        for e in c {
            u.union_with(&edges[*e as usize]);
        }
        assert!(t.is_subset(&u));
    }
}
