//! A* for treewidth (thesis Fig. 5.1).
//!
//! Best-first search over the elimination-ordering tree. Each state is a
//! partial ordering; `g` is its width so far, `h` a minor-based lower bound
//! on the remaining graph, and `f = max(g, h, parent.f)` — nondecreasing
//! along paths, so the `f` of the last visited state is a valid treewidth
//! lower bound when the budget runs out (§5.3). States with `f ≥ ub` are
//! never queued (memory measure, §5.2.3); the graph of the visited state is
//! rebuilt by undoing to the common prefix with the previous state
//! (§5.2.1).

use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use htd_core::ordering::EliminationOrdering;
use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_heuristics::{reduce, upper::min_fill};
use htd_hypergraph::{EliminationGraph, Graph, Vertex, VertexSet};
use htd_setcover::cache::FxHasher;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, raise_traced};
use crate::pruning::{keep_child, swappable};

const WHO: &str = "astar";

/// Reverse-linked elimination path.
pub(crate) struct PathNode {
    pub(crate) v: Vertex,
    pub(crate) parent: Option<Rc<PathNode>>,
}

/// Writes the elimination path ending at `p` into `out`, root first.
pub(crate) fn path_into(p: &Option<Rc<PathNode>>, out: &mut Vec<Vertex>) {
    out.clear();
    let mut cur = p.as_deref();
    while let Some(n) = cur {
        out.push(n.v);
        cur = n.parent.as_deref();
    }
    out.reverse();
}

/// A* closed set: eliminated-set blocks → best `g` seen, looked up by the
/// borrowed blocks of a scratch set.
pub(crate) type ClosedSet = HashMap<Box<[u64]>, u32, BuildHasherDefault<FxHasher>>;

/// An open state of A*-tw and A*-ghw.
pub(crate) struct State {
    pub(crate) f: u32,
    pub(crate) g: u32,
    pub(crate) depth: u32,
    pub(crate) seq: u64,
    pub(crate) path: Option<Rc<PathNode>>,
    pub(crate) eliminated: VertexSet,
    /// vertex eliminated to create this state (root: none)
    pub(crate) prev: Option<Vertex>,
    /// vertices that were swappable with `prev` in the parent's graph
    pub(crate) swap_with_prev: VertexSet,
    /// this state was generated as a reduction-forced only child
    pub(crate) forced: bool,
}

impl State {
    /// Min order on f; among equal f prefer deeper states (§5.3), then FIFO.
    fn cmp_key(&self) -> (u32, std::cmp::Reverse<u32>, u64) {
        (self.f, std::cmp::Reverse(self.depth), self.seq)
    }
}
impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse for a min-f queue
        other.cmp_key().cmp(&self.cmp_key())
    }
}

/// Computes the treewidth of `graph` with A*. Within budget the result is
/// exact; otherwise `lower` is the largest proven `f` and `upper` the
/// initial min-fill bound (the thesis's anytime behaviour).
///
/// With `cfg.shared` set, the open-list threshold is the shared
/// [`Incumbent`](crate::Incumbent)'s upper bound — states are discarded
/// against bounds found by sibling engines — and the rising min-`f` is
/// published as the run's proven lower bound.
pub fn astar_tw(graph: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = SearchStats::default();
    let inc = cfg.incumbent();
    if n == 0 {
        inc.offer_upper(0, &[]);
        inc.mark_exact();
        return SearchOutcome {
            lower: 0,
            upper: 0,
            exact: true,
            ordering: Some(EliminationOrdering::identity(0)),
            stats,
        };
    }
    let lb0 = htd_heuristics::combined_lower_bound(graph, &mut rng);
    let h0 = min_fill(graph, &mut rng);
    offer_traced(&inc, &cfg.tracer, WHO, h0.width, h0.ordering.as_slice());
    raise_traced(&inc, &cfg.tracer, WHO, lb0);
    let finish =
        |lower: u32, upper: u32, exact: bool, order: Option<Vec<Vertex>>, stats: SearchStats| {
            SearchOutcome {
                lower,
                upper,
                exact,
                ordering: order.map(EliminationOrdering::new_unchecked),
                stats,
            }
        };
    if lb0 >= inc.upper() {
        let ub = inc.upper();
        inc.mark_exact();
        return finish(ub, ub, true, inc.best_order(), stats);
    }

    let mut budget = Budget::new(cfg, "astar");
    let mut queue: BinaryHeap<State> = BinaryHeap::new();
    let mut seq = 0u64;
    // duplicate detection: eliminated-set → best g seen
    let mut seen = ClosedSet::default();

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

    let mut eg = EliminationGraph::new(graph);
    let mut current_path: Vec<Vertex> = Vec::new();
    let mut global_lb = lb0;
    // per-expansion scratch: the state's path, its children, and each
    // child's swap set and eliminated set before they are queued
    let mut target: Vec<Vertex> = Vec::with_capacity(n as usize);
    let mut children: Vec<Vertex> = Vec::with_capacity(n as usize);
    let mut swap = VertexSet::new(n);
    let mut child_elim = VertexSet::new(n);
    let mut mmw = MinorScratch::default();

    while let Some(s) = queue.pop() {
        // hot-path span: aggregate-only (no tracer), so the cost stays
        // at two clock reads + a thread-cache hit per expansion
        let _sp_expand = htd_trace::span!("astar.expand");
        let ub = inc.upper();
        if s.f >= ub {
            break; // all open states are ≥ ub: ub is the treewidth
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
        // min over open f is a valid lower bound on min(tw, ub) (§5.3)
        raise_traced(&inc, &cfg.tracer, WHO, global_lb.min(ub));
        // rebuild graph: undo to common prefix, then eliminate the rest
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
        let remaining = eg.num_alive();
        // goal test: every completion stays within width g
        if remaining == 0 || s.g >= remaining - 1 {
            let mut order = target.clone();
            order.extend(eg.alive().iter());
            stats.expanded = budget.expanded;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            offer_traced(&inc, &cfg.tracer, WHO, s.g, &order);
            inc.mark_exact();
            return finish(s.g, s.g, true, Some(order), stats);
        }
        // children. The almost-simplicial rule needs a lower bound on the
        // *alive subgraph*'s treewidth — s.f also carries g and lb0, which
        // bound the completion, not the subgraph, so recompute locally.
        let _sp_eval = htd_trace::span!("astar.evaluate");
        children.clear();
        let forced = if cfg.use_reductions {
            let h_sub = minor_min_width_alive(&eg, &mut mmw, &mut rng);
            reduce::find_reducible(&eg, h_sub)
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
                    if u != v && swappable(&eg, v, u) {
                        swap.insert(u);
                    }
                }
            }
            let d = eg.degree(v);
            let mark = eg.log_len();
            eg.eliminate(v);
            let t_g = s.g.max(d);
            let t_h = minor_min_width_alive(&eg, &mut mmw, &mut rng).max(lb0);
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
                    // account the open-list node (two bitsets + headers).
                    // Never *drop* a push on failure — the drained-queue
                    // exactness proof needs every child queued; degradation
                    // happens at the next tick instead.
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
    // queue drained of states below ub: ub is the treewidth
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    inc.mark_exact();
    let ub = inc.upper();
    finish(ub, ub, true, inc.best_order(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::{exhaustive_tw, TwEvaluator};
    use htd_hypergraph::gen;

    fn exact(g: &Graph, cfg: &SearchConfig) -> u32 {
        let out = astar_tw(g, cfg);
        assert!(out.exact, "expected exact");
        let o = out.ordering.as_ref().unwrap();
        let mut ev = TwEvaluator::new(g);
        assert!(ev.width(o.as_slice()) <= out.upper);
        out.upper
    }

    #[test]
    fn known_families() {
        let cfg = SearchConfig::default();
        assert_eq!(exact(&gen::path_graph(8), &cfg), 1);
        assert_eq!(exact(&gen::cycle_graph(9), &cfg), 2);
        assert_eq!(exact(&gen::complete_graph(6), &cfg), 5);
        assert_eq!(exact(&gen::grid_graph(3, 3), &cfg), 3);
        assert_eq!(exact(&gen::grid_graph(4, 4), &cfg), 4);
    }

    #[test]
    fn matches_exhaustive_all_toggle_combinations() {
        for seed in 0..8u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let truth = exhaustive_tw(&g);
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
                            exact(&g, &cfg),
                            truth,
                            "seed {seed} pr2={pr2} red={red} dup={dup}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn queen5_is_18() {
        let out = astar_tw(&gen::queen_graph(5), &SearchConfig::default());
        assert!(out.exact);
        assert_eq!(out.upper, 18);
    }

    #[test]
    fn agrees_with_bb() {
        for seed in 20..28u64 {
            let g = gen::random_gnp(10, 0.3, seed);
            let cfg = SearchConfig::default();
            let a = astar_tw(&g, &cfg);
            let b = crate::bb_tw::bb_tw(&g, &cfg);
            assert!(a.exact && b.exact);
            assert_eq!(a.upper, b.upper, "seed {seed}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_lower_bound() {
        let g = gen::queen_graph(6);
        let out = astar_tw(&g, &SearchConfig::budgeted(30));
        assert!(!out.exact);
        assert!(out.lower <= 25 && out.upper >= 25);
        assert!(out.lower >= 1);
    }

    #[test]
    fn trivial_graphs() {
        let cfg = SearchConfig::default();
        assert_eq!(exact(&Graph::new(3), &cfg), 0);
        assert_eq!(exact(&Graph::from_edges(2, [(0, 1)]), &cfg), 1);
    }
}
