//! Depth-first branch and bound over elimination orderings: BB-tw (thesis
//! §4.4, after QuickBB [24] and BB-tw [5]) and BB-ghw (Fig. 8.3), one
//! search over a [`Measure`].
//!
//! Pruning: the node lower bound (minor-min-width, or `tw-ksc` for ghw),
//! PR1 (every completion stays within the measure's completion bound),
//! PR2 (the measure's swap rule) and the measure's reduction rule.

use std::ops::ControlFlow;

use htd_hypergraph::{EliminationGraph, Graph, Vertex, VertexSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::Incumbent;
use crate::measure::{finish, keep_child, start, Measure};
use crate::registry::Engine;

/// Branch and bound on `g` under the measure `m`. Within budget the
/// result is exact; otherwise `lower`/`upper` are valid anytime bounds.
pub(crate) fn search<M: Measure>(g: &Graph, m: &mut M, cfg: &SearchConfig) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let inc = cfg.incumbent();
    let lb0 = match start(g, m, &mut rng, &inc, cfg, Engine::BranchBound) {
        ControlFlow::Break(done) => return done,
        ControlFlow::Continue(lb0) => lb0,
    };
    let n = g.num_vertices() as usize;
    let mut budget = Budget::new(cfg, Engine::BranchBound);
    let mut stats = SearchStats::default();
    let mut searcher = Searcher {
        cfg,
        m,
        rng,
        stats: &mut stats,
        inc: &inc,
        lb0,
        children: Vec::with_capacity(n),
        swap_sets: Vec::new(),
    };
    let mut eg = EliminationGraph::new(g);
    let mut order = Vec::with_capacity(n);
    // a cancelled run is still exact when cancellation *was* the exact
    // proof (this search or a sibling closed the gap)
    let _sp = htd_trace::span!("bb.search", &cfg.tracer);
    let completed = searcher.dfs(&mut eg, 0, &mut order, None, &mut budget) || inc.is_exact();
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    if completed {
        inc.mark_exact();
    }
    finish(&inc, completed, inc.lower(), stats)
}

struct Searcher<'a, M> {
    cfg: &'a SearchConfig,
    m: &'a mut M,
    rng: StdRng,
    stats: &'a mut SearchStats,
    inc: &'a Incumbent,
    lb0: u32,
    /// The children of every open node, deepest last.
    children: Vec<Vertex>,
    /// `swap_sets[d]`: at depth `d`, the vertices that were swappable with
    /// the one just eliminated (read when the node's `swap_prev` is set).
    swap_sets: Vec<VertexSet>,
}

impl<M: Measure> Searcher<'_, M> {
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
    ) -> bool {
        if !budget.tick() {
            return false;
        }
        // one span per branching node; paths nest with recursion depth
        let _sp = htd_trace::span!("bb.branch");
        if eg.num_alive() == 0 {
            self.inc
                .offer_traced(&self.cfg.tracer, Engine::BranchBound, g_width, order);
            return true;
        }
        // PR1: any completion has width ≤ max(g, completion); record it.
        if let Some(rest) = self.m.completion(eg) {
            let w = g_width.max(rest);
            if w < self.inc.upper() {
                let mut o = order.clone();
                o.extend(eg.alive().iter());
                self.inc
                    .offer_traced(&self.cfg.tracer, Engine::BranchBound, w, &o);
            }
            if rest <= g_width {
                return true; // subtree width is exactly g, already recorded
            }
        }
        // node lower bound: h_sub bounds the *alive subgraph*'s width;
        // any completion additionally costs at least g_width and lb0
        let h_sub = self.m.alive_bound(eg, &mut self.rng);
        if g_width.max(h_sub).max(self.lb0) >= self.inc.upper() {
            self.stats.pruned += 1;
            return true;
        }
        // children: reduction-forced single child, or all alive vertices.
        // A reduction is only safe below a bound on the alive subgraph —
        // not below f, whose g_width/lb0 parts say nothing about it.
        let start = self.children.len();
        let forced = if self.cfg.use_reductions {
            self.m.forced(eg, Some(h_sub), &mut self.rng)
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
                    if u != v && M::swappable(eg, v, u) {
                        s.insert(u);
                    }
                }
                Some(v)
            } else {
                None
            };
            let Some(cost) = self.m.bag_cost(eg, v) else {
                continue; // an uncoverable bag: not when every vertex is covered
            };
            let child_g = g_width.max(cost);
            if child_g >= self.inc.upper() {
                self.stats.pruned += 1;
                continue;
            }
            let mark = eg.log_len();
            eg.eliminate(v);
            order.push(v);
            self.stats.generated += 1;
            completed &= self.dfs(eg, child_g, order, child_prev, budget);
            order.pop();
            eg.undo_to(mark);
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
fn push_sorted_children(eg: &EliminationGraph, out: &mut Vec<Vertex>) {
    let start = out.len();
    out.extend(eg.alive().iter());
    out[start..].sort_unstable_by_key(|&v| (eg.degree(v), v));
}
