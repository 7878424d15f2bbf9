//! A* over elimination orderings: A*-tw (thesis Fig. 5.1) and A*-ghw
//! (Fig. 9.1), one best-first search over a [`Measure`].
//!
//! Each state is a partial ordering; `g` is its width so far, `h` the
//! measure's lower bound on the remaining graph, and
//! `f = max(g, h, parent.f)` — nondecreasing along paths, so the `f` of
//! the last visited state is a valid lower bound when the budget runs out
//! (§5.3); Tables 9.1–9.2 obtain several improved ghw lower bounds this
//! way. States with `f ≥ ub` are never queued (memory measure, §5.2.3);
//! the graph of the visited state is rebuilt by undoing to the common
//! prefix with the previous state (§5.2.1).

use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::ops::ControlFlow;
use std::rc::Rc;

use htd_core::ordering::EliminationOrdering;
use htd_hypergraph::{EliminationGraph, Graph, Vertex, VertexSet};
use htd_setcover::cache::FxHasher;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Budget, SearchConfig, SearchOutcome, SearchStats};
use crate::incumbent::{offer_traced, raise_traced};
use crate::measure::{finish, keep_child, start, Measure};

const WHO: &str = "astar";

/// Reverse-linked elimination path.
struct PathNode {
    v: Vertex,
    parent: Option<Rc<PathNode>>,
}

/// Writes the elimination path ending at `p` into `out`, root first.
fn path_into(p: &Option<Rc<PathNode>>, out: &mut Vec<Vertex>) {
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
type ClosedSet = HashMap<Box<[u64]>, u32, BuildHasherDefault<FxHasher>>;

/// An open state.
struct State {
    f: u32,
    g: u32,
    depth: u32,
    seq: u64,
    path: Option<Rc<PathNode>>,
    eliminated: VertexSet,
    /// vertex eliminated to create this state (root: none)
    prev: Option<Vertex>,
    /// vertices that were swappable with `prev` in the parent's graph
    swap_with_prev: VertexSet,
    /// this state was generated as a reduction-forced only child
    forced: bool,
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

/// A* on `graph` under the measure `m`. Within budget the result is exact;
/// otherwise `lower` is the largest proven `f` and `upper` the best
/// initial bound (the thesis's anytime behaviour).
pub(crate) fn search<M: Measure>(graph: &Graph, m: &mut M, cfg: &SearchConfig) -> SearchOutcome {
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let inc = cfg.incumbent();
    let lb0 = match start(graph, m, &mut rng, &inc, cfg, WHO) {
        ControlFlow::Break(done) => return done,
        ControlFlow::Continue(lb0) => lb0,
    };
    let mut stats = SearchStats::default();
    let mut budget = Budget::new(cfg, WHO);
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

    while let Some(s) = queue.pop() {
        // hot-path span: aggregate-only (no tracer), so the cost stays
        // at two clock reads + a thread-cache hit per expansion
        let _sp_expand = htd_trace::span!("astar.expand");
        let ub = inc.upper();
        if s.f >= ub {
            break; // all open states are ≥ ub: ub is the width
        }
        if !budget.tick() {
            stats.expanded = budget.expanded - 1;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            // cancellation may itself have been a sibling's exact proof
            return finish(&inc, inc.is_exact(), global_lb, stats);
        }
        global_lb = global_lb.max(s.f);
        // min over open f is a valid lower bound on min(width, ub) (§5.3)
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
        // goal test: every completion stays within width g
        if m.completion(&eg).is_some_and(|rest| rest <= s.g) {
            let mut order = target.clone();
            order.extend(eg.alive().iter());
            stats.expanded = budget.expanded;
            stats.elapsed = budget.elapsed();
            stats.max_queue = stats.max_queue.max(queue.len());
            offer_traced(&inc, &cfg.tracer, WHO, s.g, &order);
            inc.mark_exact();
            return SearchOutcome {
                lower: s.g,
                upper: s.g,
                exact: true,
                ordering: Some(EliminationOrdering::new_unchecked(order)),
                stats,
            };
        }
        let _sp_eval = htd_trace::span!("astar.evaluate");
        children.clear();
        let forced = if cfg.use_reductions {
            m.forced(&eg, None, &mut rng)
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
                    if u != v && M::swappable(&eg, v, u) {
                        swap.insert(u);
                    }
                }
            }
            let Some(cost) = m.bag_cost(&eg, v) else {
                continue;
            };
            let mark = eg.log_len();
            eg.eliminate(v);
            let t_g = s.g.max(cost);
            let t_h = m.alive_bound(&eg, &mut rng).max(lb0);
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
    // queue drained of states below ub: ub is the width
    stats.expanded = budget.expanded;
    stats.elapsed = budget.elapsed();
    inc.mark_exact();
    finish(&inc, true, global_lb, stats)
}
