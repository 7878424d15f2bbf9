//! A* for generalized hypertree width (thesis Fig. 9.1).
//!
//! The best-first counterpart of [`bb_ghw`](crate::bb_ghw): states are
//! partial orderings, `g` the maximum exact bag-cover so far, `h` the
//! `tw-ksc` bound on the remaining graph and `f = max(g, h, parent.f)`.
//! Like A*-tw, interrupted runs report the largest visited `f` as a proven
//! lower bound — the thesis's Tables 9.1–9.2 obtain several improved ghw
//! lower bounds exactly this way.

use std::collections::BinaryHeap;
use std::rc::Rc;

use htd_core::ordering::EliminationOrdering;
use htd_core::{CoverStrategy, GhwEvaluator};
use htd_heuristics::upper::{min_degree, min_fill};
use htd_hypergraph::{EliminationGraph, Hypergraph, Vertex, VertexSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::astar_tw::{path_into, ClosedSet, PathNode, State};
use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::ghw_common::GhwContext;
use crate::incumbent::{offer_traced, raise_traced};
use crate::pruning::keep_child;

const WHO: &str = "astar";

/// Computes `ghw(h)` with A*. Returns `None` when some vertex lies in no
/// hyperedge. Within budget the result is exact; otherwise `lower` is the
/// largest visited `f`.
///
/// With `cfg.shared` set, the open-list threshold is the shared
/// [`Incumbent`](crate::Incumbent)'s upper bound and the rising min-`f` is
/// published as a proven ghw lower bound; with `cfg.cover_cache` set, bag
/// covers are memoized in the shared cache.
pub fn astar_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
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
    let cache = cfg.cover_cache.clone().unwrap_or_else(|| {
        std::sync::Arc::new(match &cfg.memory_budget {
            Some(m) => htd_setcover::CoverCache::with_budget(std::sync::Arc::clone(m)),
            None => htd_setcover::CoverCache::new(),
        })
    });
    let g = h.primal_graph();
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
    let finish =
        |lower: u32, upper: u32, exact: bool, order: Option<Vec<Vertex>>, stats: SearchStats| {
            Some(SearchOutcome {
                lower,
                upper,
                exact,
                ordering: order.map(EliminationOrdering::new_unchecked),
                stats,
            })
        };
    if lb0 >= inc.upper() {
        let ub = inc.upper();
        inc.mark_exact();
        return finish(ub, ub, true, inc.best_order(), stats);
    }

    let mut ctx = GhwContext::with_cache(h, cache);
    let mut budget = Budget::new(cfg, "astar");
    let mut queue: BinaryHeap<State> = BinaryHeap::new();
    let mut seen = ClosedSet::default();
    let mut seq = 0u64;
    queue.push(State {
        f: lb0,
        g: 0,
        depth: 0,
        seq,
        path: None,
        eliminated: VertexSet::new(n),
        prev: None,
        swap_with_prev: VertexSet::new(n),
        forced: false,
    });

    let mut eg = EliminationGraph::new(&g);
    let mut current_path: Vec<Vertex> = Vec::new();
    let mut global_lb = lb0;
    // per-expansion scratch, as in A*-tw
    let mut target: Vec<Vertex> = Vec::with_capacity(n as usize);
    let mut children: Vec<Vertex> = Vec::with_capacity(n as usize);
    let mut swap = VertexSet::new(n);
    let mut child_elim = VertexSet::new(n);

    while let Some(s) = queue.pop() {
        // aggregate-only hot-path span (see astar_tw)
        let _sp_expand = htd_trace::span!("astar.expand");
        let ub = inc.upper();
        if s.f >= ub {
            break;
        }
        if !budget.tick() {
            stats.expanded = budget.expanded - 1;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            // cancellation may itself have been a sibling's exact proof
            let exact = inc.is_exact();
            let upper = inc.upper();
            return finish(
                if exact { upper } else { global_lb.min(upper) },
                upper,
                exact,
                inc.best_order(),
                stats,
            );
        }
        global_lb = global_lb.max(s.f);
        // min over open f is a valid lower bound on min(ghw, ub) (§5.3)
        raise_traced(&inc, &cfg.tracer, WHO, global_lb.min(ub));
        path_into(&s.path, &mut target);
        let common = current_path
            .iter()
            .zip(&target)
            .take_while(|(a, b)| a == b)
            .count();
        eg.undo_to(common);
        current_path.truncate(common);
        for &v in &target[common..] {
            eg.eliminate(v);
            current_path.push(v);
        }
        // goal test: the whole remainder can be covered within width g
        // (greedy suffices: it only has to certify achievability)
        let goal = match ctx.cover_greedy(eg.alive()) {
            Some(c) => c <= s.g || eg.num_alive() == 0,
            None => false,
        };
        if goal {
            let mut order = target.clone();
            order.extend(eg.alive().iter());
            stats.expanded = budget.expanded;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            offer_traced(&inc, &cfg.tracer, WHO, s.g, &order);
            inc.mark_exact();
            return finish(s.g, s.g, true, Some(order), stats);
        }
        let _sp_eval = htd_trace::span!("astar.evaluate");
        children.clear();
        let forced = if cfg.use_reductions {
            ctx.find_ghw_reducible(&eg)
        } else {
            None
        };
        let forced_child = forced.is_some();
        match forced {
            Some(v) => children.push(v),
            None => children.extend(eg.alive().iter()),
        }
        for &v in &children {
            if cfg.use_pr2 && !s.forced && !forced_child {
                if let Some(prev) = s.prev {
                    if !keep_child(prev, v, s.swap_with_prev.contains(v)) {
                        stats.pruned += 1;
                        continue;
                    }
                }
            }
            swap.clear();
            if cfg.use_pr2 {
                for u in eg.alive().iter() {
                    if u != v && GhwContext::swappable_ghw(&eg, v, u) {
                        swap.insert(u);
                    }
                }
            }
            let Some(bag_cover) = ctx.cover_bag(&eg, v) else {
                continue;
            };
            let mark = eg.log_len();
            eg.eliminate(v);
            let t_g = s.g.max(bag_cover);
            let t_h = ctx.node_lower_bound(&eg, &mut rng).max(lb0);
            let t_f = t_g.max(t_h).max(s.f);
            if t_f < ub {
                child_elim.copy_from(&s.eliminated);
                child_elim.insert(v);
                let key = child_elim.blocks();
                let dominated = if cfg.use_duplicate_detection {
                    match seen.get_mut(key) {
                        Some(best) if *best <= t_g => true,
                        Some(best) => {
                            *best = t_g;
                            false
                        }
                        None => {
                            // account the closed-set entry; a failed charge
                            // latches the budget and the next tick degrades
                            budget.charge((key.len() * 8 + 48) as u64);
                            seen.insert(key.into(), t_g);
                            false
                        }
                    }
                } else {
                    false
                };
                if !dominated {
                    // account the open-list node; never drop a push — the
                    // drained-queue exactness proof needs every child queued
                    budget.charge((key.len() * 16 + 80) as u64);
                    seq += 1;
                    stats.generated += 1;
                    queue.push(State {
                        f: t_f,
                        g: t_g,
                        depth: s.depth + 1,
                        seq,
                        path: Some(Rc::new(PathNode {
                            v,
                            parent: s.path.clone(),
                        })),
                        eliminated: child_elim.clone(),
                        prev: Some(v),
                        swap_with_prev: swap.clone(),
                        forced: forced_child,
                    });
                } else {
                    stats.pruned += 1;
                }
            } else {
                stats.pruned += 1;
            }
            eg.undo_to(mark);
        }
        stats.max_queue = stats.max_queue.max(queue.len());
    }
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    inc.mark_exact();
    let ub = inc.upper();
    finish(ub, ub, true, inc.best_order(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;

    fn exact(h: &Hypergraph, cfg: &SearchConfig) -> u32 {
        let out = astar_ghw(h, cfg).expect("coverable");
        assert!(out.exact, "expected exact");
        let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
        let achieved = ev.width(out.ordering.as_ref().unwrap().as_slice()).unwrap();
        assert!(achieved <= out.upper);
        out.upper
    }

    #[test]
    fn known_families() {
        let cfg = SearchConfig::default();
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(exact(&th, &cfg), 2);
        assert_eq!(exact(&gen::clique_hypergraph(6), &cfg), 3);
        let chain = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert_eq!(exact(&chain, &cfg), 1);
    }

    #[test]
    fn matches_exhaustive_all_toggle_combinations() {
        for seed in 0..8u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let truth = exhaustive_ghw(&h).unwrap();
            for pr2 in [false, true] {
                for red in [false, true] {
                    for dup in [false, true] {
                        let cfg = SearchConfig {
                            use_pr2: pr2,
                            use_reductions: red,
                            use_duplicate_detection: dup,
                            ..SearchConfig::default()
                        };
                        assert_eq!(
                            exact(&h, &cfg),
                            truth,
                            "seed {seed} pr2={pr2} red={red} dup={dup}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_bb_ghw() {
        for seed in 10..16u64 {
            let h = gen::random_uniform(8, 9, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let cfg = SearchConfig::default();
            let a = astar_ghw(&h, &cfg).unwrap();
            let b = crate::bb_ghw::bb_ghw(&h, &cfg).unwrap();
            assert!(a.exact && b.exact);
            assert_eq!(a.upper, b.upper, "seed {seed}");
        }
    }

    #[test]
    fn uncoverable_returns_none() {
        let h = Hypergraph::new(2, vec![vec![0]]);
        assert!(astar_ghw(&h, &SearchConfig::default()).is_none());
    }

    #[test]
    fn budget_exhaustion_reports_bounds() {
        let h = gen::grid2d(6);
        let out = astar_ghw(&h, &SearchConfig::budgeted(10)).unwrap();
        assert!(out.lower <= out.upper);
        assert!(out.lower >= 1);
    }
}
