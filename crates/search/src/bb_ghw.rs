//! Branch and bound for generalized hypertree width (thesis Fig. 8.3).
//!
//! Searches elimination orderings of the primal graph; the cost of a
//! partial ordering is the maximum **exact** cover size of the bags it has
//! produced (Definition 17), so by Theorem 3 the minimum over complete
//! orderings is `ghw(H)`. Pruning: the `tw-ksc` node lower bound (§8.1),
//! the cover-monotonicity analogue of PR1, the non-adjacent swap rule
//! (PR 2a, §8.3) and the ghw-simplicial reduction (§8.2).

use htd_core::ordering::EliminationOrdering;
use htd_core::{CoverStrategy, GhwEvaluator};
use htd_heuristics::upper::{min_degree, min_fill};
use htd_hypergraph::{EliminationGraph, Hypergraph, Vertex, VertexSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bb_tw::push_sorted_children;
use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::ghw_common::GhwContext;
use crate::incumbent::{offer_traced, raise_traced, Incumbent};
use crate::pruning::keep_child;

const WHO: &str = "branch_bound";

/// Computes `ghw(h)` by branch and bound. Returns `None` when some vertex
/// lies in no hyperedge (no GHD exists). Within budget the result is exact.
///
/// With `cfg.shared` set, the search prunes against and publishes to the
/// shared [`Incumbent`](crate::Incumbent); with `cfg.cover_cache` set, bag
/// covers are memoized in the shared [`CoverCache`](htd_setcover::CoverCache)
/// (which must be dedicated to `h` and the exact strategy).
pub fn bb_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    if !h.covers_all_vertices() {
        return None;
    }
    let n = h.num_vertices();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = SearchStats::default();
    let inc = cfg.incumbent();
    if n == 0 {
        inc.offer_upper(0, &[]);
        inc.mark_exact();
        return Some(SearchOutcome {
            lower: 0,
            upper: 0,
            exact: true,
            ordering: Some(EliminationOrdering::identity(0)),
            stats,
        });
    }
    let cache = cfg
        .cover_cache
        .clone()
        .unwrap_or_else(|| std::sync::Arc::new(htd_setcover::CoverCache::new()));
    let g = h.primal_graph();
    // initial upper bound: best of min-fill / min-degree orderings under
    // exact covering (memoized in the same cache the search uses)
    let mut ev = GhwEvaluator::with_cache(h, CoverStrategy::Exact, std::sync::Arc::clone(&cache));
    let cands = [
        min_fill(&g, &mut rng).ordering,
        min_degree(&g, &mut rng).ordering,
    ];
    for c in &cands {
        if let Some(w) = ev.width(c.as_slice()) {
            offer_traced(&inc, &cfg.tracer, WHO, w, c.as_slice());
        }
    }
    let lb0 = htd_heuristics::ghw_lower_bound(h, &mut rng);
    raise_traced(&inc, &cfg.tracer, WHO, lb0);
    if lb0 >= inc.upper() {
        let upper = inc.upper();
        inc.mark_exact();
        return Some(SearchOutcome {
            lower: upper,
            upper,
            exact: true,
            ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
            stats,
        });
    }

    let mut ctx = GhwContext::with_cache(h, cache);
    let mut budget = Budget::new(cfg, "branch_bound");
    let mut eg = EliminationGraph::new(&g);
    let mut order = Vec::with_capacity(n as usize);
    let mut searcher = GhwSearcher {
        cfg,
        rng,
        stats: &mut stats,
        lb0,
        inc: &inc,
        children: Vec::with_capacity(n as usize),
        swap_sets: Vec::new(),
    };
    let _sp = htd_trace::span!("bb.search", &cfg.tracer);
    let completed =
        searcher.dfs(&mut ctx, &mut eg, 0, &mut order, None, &mut budget) || inc.is_exact();
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    if completed {
        inc.mark_exact();
    }
    let upper = inc.upper();
    Some(SearchOutcome {
        lower: if completed {
            upper
        } else {
            inc.lower().min(upper)
        },
        upper,
        exact: completed,
        ordering: inc.best_order().map(EliminationOrdering::new_unchecked),
        stats,
    })
}

struct GhwSearcher<'a> {
    cfg: &'a SearchConfig,
    rng: StdRng,
    stats: &'a mut SearchStats,
    lb0: u32,
    inc: &'a Incumbent,
    /// The children of every open node, deepest last.
    children: Vec<Vertex>,
    /// `swap_sets[d]`: at depth `d`, the vertices that were swappable with
    /// the one just eliminated (read when the node's `swap_prev` is set).
    swap_sets: Vec<VertexSet>,
}

impl GhwSearcher<'_> {
    fn dfs(
        &mut self,
        ctx: &mut GhwContext,
        eg: &mut EliminationGraph,
        g_width: u32,
        order: &mut Vec<Vertex>,
        swap_prev: Option<Vertex>,
        budget: &mut Budget,
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
        // PR1 analogue: covers are monotone, so any completion's bags cost
        // at most cover(alive set); greedy is enough for an upper bound
        if let Some(alive_cover) = ctx.cover_greedy(eg.alive()) {
            let w = g_width.max(alive_cover);
            if w < self.inc.upper() {
                let mut o = order.clone();
                o.extend(eg.alive().iter());
                offer_traced(self.inc, &self.cfg.tracer, WHO, w, &o);
            }
            if alive_cover <= g_width {
                return true; // subtree width is exactly g, recorded above
            }
        }
        // node lower bound
        let h_val = ctx.node_lower_bound(eg, &mut self.rng).max(self.lb0);
        let f = g_width.max(h_val);
        if f >= self.inc.upper() {
            self.stats.pruned += 1;
            return true;
        }
        // children
        let start = self.children.len();
        let forced = if self.cfg.use_reductions {
            ctx.find_ghw_reducible(eg)
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
            if self.cfg.use_pr2 && !reduced {
                if let Some(prev) = swap_prev {
                    if !keep_child(prev, v, self.swap_sets[depth].contains(v)) {
                        self.stats.pruned += 1;
                        continue;
                    }
                }
            }
            // a forced (reduction) child must not seed the PR2 filter:
            // its siblings were never branched on, so the canonical-order
            // argument has no other branch to defer to
            let child_prev = if self.cfg.use_pr2 && !reduced {
                let s = &mut self.swap_sets[depth + 1];
                s.clear();
                for u in eg.alive().iter() {
                    if u != v && GhwContext::swappable_ghw(eg, v, u) {
                        s.insert(u);
                    }
                }
                Some(v)
            } else {
                None
            };
            let Some(bag_cover) = ctx.cover_bag(eg, v) else {
                // uncoverable bag cannot happen when all vertices covered
                continue;
            };
            let child_g = g_width.max(bag_cover);
            if child_g >= self.inc.upper() {
                self.stats.pruned += 1;
                continue;
            }
            let mark = eg.log_len();
            eg.eliminate(v);
            order.push(v);
            self.stats.generated += 1;
            completed &= self.dfs(ctx, eg, child_g, order, child_prev, budget);
            order.pop();
            eg.undo_to(mark);
            if !completed && (budget.expanded > self.cfg.max_nodes || self.inc.is_cancelled()) {
                break;
            }
        }
        self.children.truncate(start);
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;

    fn exact(h: &Hypergraph, cfg: &SearchConfig) -> u32 {
        let out = bb_ghw(h, cfg).expect("coverable");
        assert!(out.exact, "expected exact");
        // verify the ordering really achieves the upper bound
        let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
        let achieved = ev.width(out.ordering.as_ref().unwrap().as_slice()).unwrap();
        assert!(achieved <= out.upper);
        out.upper
    }

    #[test]
    fn known_families() {
        let cfg = SearchConfig::default();
        // acyclic chain
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert_eq!(exact(&h, &cfg), 1);
        // thesis example
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(exact(&th, &cfg), 2);
        // triangle of binary edges
        let t = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(exact(&t, &cfg), 2);
        // clique hypergraphs: ghw = ⌈k/2⌉
        assert_eq!(exact(&gen::clique_hypergraph(6), &cfg), 3);
        assert_eq!(exact(&gen::clique_hypergraph(7), &cfg), 4);
    }

    #[test]
    fn adder_family_has_small_ghw() {
        let cfg = SearchConfig::default();
        let w = exact(&gen::adder(3), &cfg);
        assert!(w <= 2, "adder(3) ghw = {w}");
        assert!(w >= 1);
    }

    #[test]
    fn matches_exhaustive_all_toggle_combinations() {
        for seed in 0..10u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let truth = exhaustive_ghw(&h).unwrap();
            for pr2 in [false, true] {
                for red in [false, true] {
                    let cfg = SearchConfig {
                        use_pr2: pr2,
                        use_reductions: red,
                        ..SearchConfig::default()
                    };
                    assert_eq!(exact(&h, &cfg), truth, "seed {seed} pr2={pr2} red={red}");
                }
            }
        }
    }

    #[test]
    fn acyclic_generated_instances_have_ghw_1() {
        let cfg = SearchConfig::default();
        for seed in 0..5 {
            let h = gen::random_acyclic(8, 3, seed);
            assert_eq!(exact(&h, &cfg), 1, "seed {seed}");
        }
    }

    #[test]
    fn uncoverable_returns_none() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(bb_ghw(&h, &SearchConfig::default()).is_none());
    }

    #[test]
    fn budget_exhaustion_gives_valid_bounds() {
        let h = gen::grid2d(6);
        let out = bb_ghw(&h, &SearchConfig::budgeted(20)).unwrap();
        assert!(out.lower <= out.upper);
    }
}
