//! Depth-first branch and bound for treewidth (thesis §4.4, after
//! QuickBB [24] and BB-tw [5]).

use htd_core::ordering::EliminationOrdering;
use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_heuristics::{reduce, upper::min_fill};
use htd_hypergraph::{EliminationGraph, Graph, Vertex, VertexSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, raise_traced, Incumbent};
use crate::pruning::{keep_child, swappable};

const WHO: &str = "branch_bound";

/// Computes the treewidth of `g` by branch and bound over elimination
/// orderings. Within budget the result is exact; otherwise `lower`/`upper`
/// are valid anytime bounds.
///
/// With `cfg.shared` set, the search prunes against and publishes to the
/// shared [`Incumbent`], and stops early when it is cancelled.
///
/// ```
/// use htd_search::{bb_tw, SearchConfig};
/// use htd_hypergraph::gen;
/// let out = bb_tw(&gen::grid_graph(4, 4), &SearchConfig::default());
/// assert_eq!(out.exact_width(), Some(4));
/// ```
pub fn bb_tw(g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let inc = cfg.incumbent();
    if n == 0 {
        inc.offer_upper(0, &[]);
        inc.mark_exact();
        return SearchOutcome {
            lower: 0,
            upper: 0,
            exact: true,
            ordering: Some(EliminationOrdering::identity(0)),
            stats: SearchStats::default(),
        };
    }
    // initial bounds
    let lb0 = htd_heuristics::combined_lower_bound(g, &mut rng);
    let h0 = min_fill(g, &mut rng);
    offer_traced(&inc, &cfg.tracer, WHO, h0.width, h0.ordering.as_slice());
    raise_traced(&inc, &cfg.tracer, WHO, lb0);
    if lb0 >= inc.upper() {
        let upper = inc.upper();
        inc.mark_exact();
        return SearchOutcome {
            lower: upper,
            upper,
            exact: true,
            ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
            stats: SearchStats::default(),
        };
    }

    let mut budget = Budget::new(cfg, "branch_bound");
    let mut stats = SearchStats::default();
    let mut eg = EliminationGraph::new(g);
    let mut order: Vec<Vertex> = Vec::with_capacity(n as usize);
    let mut searcher = Searcher {
        cfg,
        rng,
        stats: &mut stats,
        inc: &inc,
        mmw: MinorScratch::default(),
        children: Vec::with_capacity(n as usize),
        swap_sets: Vec::new(),
    };
    // a cancelled run is still exact when cancellation *was* the exact
    // proof (this search or a sibling closed the gap)
    let _sp = htd_trace::span!("bb.search", &cfg.tracer);
    let completed = searcher.dfs(&mut eg, 0, &mut order, None, &mut budget, lb0) || inc.is_exact();
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    if completed {
        inc.mark_exact();
    }
    let upper = inc.upper();
    SearchOutcome {
        lower: if completed {
            upper
        } else {
            inc.lower().min(upper)
        },
        upper,
        exact: completed,
        ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
        stats,
    }
}

struct Searcher<'a> {
    cfg: &'a SearchConfig,
    rng: StdRng,
    stats: &'a mut SearchStats,
    inc: &'a Incumbent,
    mmw: MinorScratch,
    /// The children of every open node, deepest last.
    children: Vec<Vertex>,
    /// `swap_sets[d]`: at depth `d`, the vertices that were swappable with
    /// the one just eliminated (read when the node's `swap_prev` is set).
    swap_sets: Vec<VertexSet>,
}

impl Searcher<'_> {
    /// Depth-first search. Returns `false` iff the budget was exhausted or
    /// the run cancelled somewhere below (result no longer guaranteed
    /// exact). Best-so-far lives in the incumbent, never in locals, so
    /// bounds found by sibling workers prune this search too.
    fn dfs(
        &mut self,
        eg: &mut EliminationGraph,
        g_width: u32,
        order: &mut Vec<Vertex>,
        // the vertex eliminated to reach this node, when its swap set
        // (`swap_sets[order.len()]`) filters the children
        swap_prev: Option<Vertex>,
        budget: &mut Budget,
        lb0: u32,
    ) -> bool {
        if !budget.tick() {
            return false;
        }
        // one span per branching node; paths nest with recursion depth
        let _sp = htd_trace::span!("bb.branch");
        let remaining = eg.num_alive();
        if remaining == 0 {
            offer_traced(self.inc, &self.cfg.tracer, WHO, g_width, order);
            return true;
        }
        // PR1: any completion has width ≤ max(g, remaining-1); record it.
        let w = g_width.max(remaining - 1);
        if w < self.inc.upper() {
            let mut o = order.clone();
            o.extend(eg.alive().iter());
            offer_traced(self.inc, &self.cfg.tracer, WHO, w, &o);
        }
        if remaining - 1 <= g_width {
            return true; // subtree width is exactly g, already recorded
        }
        // node lower bound: h_sub bounds the *alive subgraph*'s treewidth;
        // any completion additionally costs at least g_width and lb0
        let h_sub = minor_min_width_alive(eg, &mut self.mmw, &mut self.rng);
        let f = g_width.max(h_sub).max(lb0);
        if f >= self.inc.upper() {
            self.stats.pruned += 1;
            return true;
        }
        // children: reduction-forced single child, or all alive vertices.
        // The almost-simplicial rule is only safe below a lower bound on
        // the alive subgraph's treewidth — not below f, whose g_width/lb0
        // parts say nothing about the subgraph.
        let start = self.children.len();
        let forced = if self.cfg.use_reductions {
            reduce::find_reducible(eg, h_sub)
        } else {
            None
        };
        let reduced = forced.is_some();
        match forced {
            Some(v) => self.children.push(v),
            None => push_sorted_children(eg, &mut self.children),
        }
        let end = self.children.len();
        let depth = order.len();
        if self.swap_sets.len() < depth + 2 {
            self.swap_sets
                .resize(depth + 2, VertexSet::new(eg.capacity()));
        }
        let mut completed = true;
        for i in start..end {
            let v = self.children[i];
            // PR2: skip children that are canonical-order duplicates
            if self.cfg.use_pr2 && !reduced {
                if let Some(prev) = swap_prev {
                    if !keep_child(prev, v, self.swap_sets[depth].contains(v)) {
                        self.stats.pruned += 1;
                        continue;
                    }
                }
            }
            // precompute swappability of v with the surviving vertices
            // (both alive here) for the child's own PR2 filter. A forced
            // (reduction) child must NOT seed the filter: its siblings
            // were never branched on, so the canonical-order argument
            // has no other branch to defer to.
            let child_prev = if self.cfg.use_pr2 && !reduced {
                let s = &mut self.swap_sets[depth + 1];
                s.clear();
                for u in eg.alive().iter() {
                    if u != v && swappable(eg, v, u) {
                        s.insert(u);
                    }
                }
                Some(v)
            } else {
                None
            };
            let d = eg.degree(v);
            let log_mark = eg.log_len();
            eg.eliminate(v);
            order.push(v);
            self.stats.generated += 1;
            let child_g = g_width.max(d);
            if child_g < self.inc.upper() {
                completed &= self.dfs(eg, child_g, order, child_prev, budget, lb0);
            } else {
                self.stats.pruned += 1;
            }
            order.pop();
            eg.undo_to(log_mark);
            if !completed && (budget.expanded > self.cfg.max_nodes || self.inc.is_cancelled()) {
                break; // hard stop
            }
        }
        self.children.truncate(start);
        completed
    }
}

/// Appends the alive vertices sorted by ascending degree, ties by id (cheap
/// value ordering: low-degree vertices rarely hurt and find good
/// incumbents early).
pub(crate) fn push_sorted_children(eg: &EliminationGraph, out: &mut Vec<Vertex>) {
    let start = out.len();
    out.extend(eg.alive().iter());
    out[start..].sort_unstable_by_key(|&v| (eg.degree(v), v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::{exhaustive_tw, TwEvaluator};
    use htd_hypergraph::gen;

    fn exact(g: &Graph, cfg: &SearchConfig) -> u32 {
        let out = bb_tw(g, cfg);
        assert!(out.exact, "expected exact result");
        // the returned ordering must achieve the reported upper bound
        let o = out.ordering.as_ref().unwrap();
        let mut ev = TwEvaluator::new(g);
        assert!(ev.width(o.as_slice()) <= out.upper);
        out.upper
    }

    #[test]
    fn known_families() {
        let cfg = SearchConfig::default();
        assert_eq!(exact(&gen::path_graph(8), &cfg), 1);
        assert_eq!(exact(&gen::cycle_graph(8), &cfg), 2);
        assert_eq!(exact(&gen::complete_graph(7), &cfg), 6);
        assert_eq!(exact(&gen::grid_graph(3, 3), &cfg), 3);
        assert_eq!(exact(&gen::grid_graph(4, 4), &cfg), 4);
        assert_eq!(exact(&gen::random_ktree(16, 4, 3), &cfg), 4);
    }

    #[test]
    fn matches_exhaustive_all_toggle_combinations() {
        for seed in 0..12u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let truth = exhaustive_tw(&g);
            for pr2 in [false, true] {
                for red in [false, true] {
                    let cfg = SearchConfig {
                        use_pr2: pr2,
                        use_reductions: red,
                        ..SearchConfig::default()
                    };
                    let got = exact(&g, &cfg);
                    assert_eq!(
                        got, truth,
                        "seed {seed} pr2={pr2} red={red}: {got} != {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn queen5_is_18() {
        // the thesis's Table 5.1 reports tw(queen5_5) = 18
        let g = gen::queen_graph(5);
        let out = bb_tw(&g, &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.upper, 18);
    }

    #[test]
    fn budget_exhaustion_gives_valid_bounds() {
        let g = gen::queen_graph(6);
        let out = bb_tw(&g, &SearchConfig::budgeted(50));
        assert!(!out.exact);
        assert!(out.lower <= out.upper);
        // Table 5.1: tw(queen6_6) = 25
        assert!(out.lower <= 25);
        assert!(out.upper >= 25);
    }

    #[test]
    fn empty_and_single_vertex() {
        let cfg = SearchConfig::default();
        assert_eq!(exact(&Graph::new(1), &cfg), 0);
        assert_eq!(exact(&Graph::new(5), &cfg), 0);
        let out = bb_tw(&Graph::new(0), &cfg);
        assert!(out.exact);
        assert_eq!(out.upper, 0);
    }

    #[test]
    fn pruning_reduces_work() {
        let g = gen::queen_graph(4);
        let full = bb_tw(&g, &SearchConfig::default());
        let bare = bb_tw(&g, &SearchConfig::default().without_pruning());
        assert!(full.exact && bare.exact);
        assert_eq!(full.upper, bare.upper);
        assert!(
            full.stats.expanded <= bare.stats.expanded,
            "pruning should not expand more nodes ({} vs {})",
            full.stats.expanded,
            bare.stats.expanded
        );
    }
}
