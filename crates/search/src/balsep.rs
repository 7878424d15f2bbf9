//! Balanced-separator nested dissection with parallel recursion.
//!
//! The BalancedGo scheme ("Fast Parallel Hypertree Decompositions in
//! Logarithmic Recursion Depth") brought parallelism *inside* a single
//! solve: find a balanced separator, split the instance into the
//! disconnected components it leaves behind, decompose the components in
//! parallel, and hang the component trees under the separator node. Every
//! split keeps each component at most a constant fraction of its part, so
//! the recursion depth is `O(log n)` and the work at each depth spreads
//! across a bounded pool of workers.
//!
//! This engine reproduces that scheme over elimination orderings, the
//! witness format shared by every other engine in the workspace: a nested
//! dissection of the vertex set — components first, their separator last,
//! recursively — *is* an elimination ordering, and evaluating it with the
//! standard evaluators yields a certified upper bound that the incumbent,
//! the `htd-check` oracle and the differential harness all understand
//! unchanged.
//!
//! Separator candidates are BFS layers of the part, optionally widened to
//! a union of few hyperedges by a greedy set cover of the layer
//! ([`htd_setcover::greedy_cover`]) — a separator that few hyperedges
//! cover keeps the ghw of the bags it lands in small. The recursion runs
//! level-synchronously: all parts at one depth split concurrently on a
//! pool bounded by the portfolio's thread budget (`num_threads` of the
//! whole run); the memory governor and the node budget are observed per
//! worker through the search budget every engine uses, so a truncated run
//! still returns a complete (if coarser) ordering.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use htd_core::ordering::{CoverStrategy, GhwEvaluator, TwEvaluator};
use htd_hypergraph::{Graph, Hypergraph, Vertex, VertexSet};
use htd_setcover::{greedy_cover, CoverCache};
use htd_trace::Event;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Budget, SearchConfig};
use crate::incumbent::Incumbent;
use crate::portfolio::{EngineReport, Objective, Problem};
use crate::registry::Engine;

/// Parts at or below this size are ordered directly with min-fill.
const LEAF_SIZE: u32 = 32;
/// A separator is balanced when every component it leaves keeps at most
/// `ALPHA_NUM/ALPHA_DEN` of the part it split.
const ALPHA_NUM: u32 = 3;
const ALPHA_DEN: u32 = 4;
/// BFS roots tried per part when hunting for a separator.
const ROOTS: usize = 3;
/// Construction rounds (fresh seeds) per engine run.
const ROUNDS: u64 = 4;

/// The balsep engine's run: a few nested-dissection constructions with
/// fresh seeds, each evaluated and offered to the incumbent.
pub(crate) fn run(
    problem: &Problem,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    greedy_cache: &Arc<CoverCache>,
    pool_threads: usize,
    report: &mut EngineReport,
) {
    let g = problem.graph();
    let n = g.num_vertices();
    if n == 0 {
        return;
    }
    let h = problem.hypergraph();
    let ghw = problem.objective() == Objective::GeneralizedHypertreeWidth;
    let expanded = AtomicU64::new(0);
    for round in 0..ROUNDS {
        if inc.is_cancelled() {
            break;
        }
        if round > 0 {
            cfg.tracer.emit(Event::RestartTriggered {
                worker: Engine::BalSep.name(),
                round: round as u32,
            });
        }
        let seed = cfg.seed ^ (round << 48) | 0xB5;
        let Some(order) = build_ordering(g, h, cfg, inc, pool_threads, seed, &expanded) else {
            break; // cancelled mid-construction
        };
        debug_assert_eq!(order.len() as u32, n, "nested dissection is a permutation");
        let width = {
            let _sp = htd_trace::span!("balsep.evaluate", &cfg.tracer);
            if ghw {
                let mut ev = GhwEvaluator::with_cache(
                    h.expect("validated"),
                    CoverStrategy::Greedy,
                    Arc::clone(greedy_cache),
                );
                match ev.width(&order) {
                    Some(w) => w,
                    None => continue, // uncoverable bag: validation forbids this
                }
            } else {
                TwEvaluator::new(g).width(&order)
            }
        };
        report.offer(inc, &cfg.tracer, width, &order);
        report.stats.generated += 1;
    }
    report.stats.expanded = expanded.load(AtomicOrdering::Relaxed);
}

/// One node of the dissection tree: its children's vertices are eliminated
/// before `tail` (the node's separator, or a leaf's whole ordering).
struct NodePlan {
    tail: Vec<Vertex>,
    children: Vec<usize>,
}

/// How one part split.
enum Split {
    /// The part is ordered outright (small, budget-exhausted, or no
    /// useful separator exists).
    Leaf(Vec<Vertex>),
    /// The part splits into `comps` around `sep` (empty `sep` = the part
    /// was already disconnected).
    Cut {
        sep: Vec<Vertex>,
        comps: Vec<VertexSet>,
    },
}

/// Builds one nested-dissection elimination ordering, splitting all parts
/// of a recursion level concurrently. Returns `None` when cancelled.
fn build_ordering(
    g: &Graph,
    h: Option<&Hypergraph>,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    pool_threads: usize,
    seed: u64,
    expanded: &AtomicU64,
) -> Option<Vec<Vertex>> {
    let n = g.num_vertices();
    // each balanced cut shrinks parts by >= 1/4; the slack absorbs
    // unbalanced cuts that still made progress before the cap leafs out
    let max_depth = 2 * (32 - n.leading_zeros()) + 8;
    let mut nodes: Vec<NodePlan> = vec![NodePlan {
        tail: Vec::new(),
        children: Vec::new(),
    }];
    let mut frontier: Vec<(usize, VertexSet, u32)> = vec![(0, VertexSet::full(n), 0)];
    let stop = AtomicBool::new(false);
    while !frontier.is_empty() {
        if inc.is_cancelled() {
            return None;
        }
        // one span per recursion level of the dissection
        let _sp_level = htd_trace::span!("balsep.level", &cfg.tracer);
        let splits = process_level(
            g,
            h,
            cfg,
            pool_threads,
            seed,
            max_depth,
            &frontier,
            &stop,
            expanded,
        );
        let mut next = Vec::new();
        for ((node_id, _alive, depth), split) in frontier.iter().zip(splits) {
            match split {
                Split::Leaf(order) => nodes[*node_id].tail = order,
                Split::Cut { sep, comps } => {
                    nodes[*node_id].tail = sep;
                    for comp in comps {
                        let child = nodes.len();
                        nodes.push(NodePlan {
                            tail: Vec::new(),
                            children: Vec::new(),
                        });
                        nodes[*node_id].children.push(child);
                        next.push((child, comp, depth + 1));
                    }
                }
            }
        }
        frontier = next;
    }
    let mut order = Vec::with_capacity(n as usize);
    assemble(&nodes, 0, &mut order);
    Some(order)
}

/// Post-order walk: a node's components come out before its separator,
/// recursively — the nested-dissection elimination ordering.
fn assemble(nodes: &[NodePlan], idx: usize, out: &mut Vec<Vertex>) {
    for &c in &nodes[idx].children {
        assemble(nodes, c, out);
    }
    out.extend_from_slice(&nodes[idx].tail);
}

/// Splits every part of one recursion level, on up to `pool_threads`
/// workers. Tasks a lost worker leaves behind degrade to trivial leaves,
/// so the level always produces a complete answer.
#[allow(clippy::too_many_arguments)]
fn process_level(
    g: &Graph,
    h: Option<&Hypergraph>,
    cfg: &SearchConfig,
    pool_threads: usize,
    seed: u64,
    max_depth: u32,
    frontier: &[(usize, VertexSet, u32)],
    stop: &AtomicBool,
    expanded: &AtomicU64,
) -> Vec<Split> {
    let workers = pool_threads.min(frontier.len()).max(1);
    if workers == 1 {
        let mut budget = Budget::new(cfg, Engine::BalSep);
        let splits = frontier
            .iter()
            .map(|task| split_task(g, h, seed, max_depth, task, stop, &mut budget))
            .collect();
        expanded.fetch_add(budget.expanded, AtomicOrdering::Relaxed);
        return splits;
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Split)>> = Mutex::new(Vec::with_capacity(frontier.len()));
    let _ = crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                htd_trace::set_worker(Engine::BalSep.name());
                let mut budget = Budget::new(cfg, Engine::BalSep);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                    if i >= frontier.len() {
                        break;
                    }
                    local.push((
                        i,
                        split_task(g, h, seed, max_depth, &frontier[i], stop, &mut budget),
                    ));
                }
                expanded.fetch_add(budget.expanded, AtomicOrdering::Relaxed);
                done.lock().expect("level results").extend(local);
            });
        }
    });
    let mut slots: Vec<Option<Split>> = (0..frontier.len()).map(|_| None).collect();
    for (i, split) in done.into_inner().expect("level results") {
        slots[i] = Some(split);
    }
    slots
        .into_iter()
        .enumerate()
        // a slot a panicked worker abandoned still gets a valid ordering
        .map(|(i, s)| s.unwrap_or_else(|| Split::Leaf(frontier[i].1.to_vec())))
        .collect()
}

/// Decides how one part splits: already disconnected → cut on the empty
/// separator; small / capped / out of budget → leaf; otherwise the best
/// separator candidate from BFS layers and their set-cover widenings.
#[allow(clippy::too_many_arguments)]
fn split_task(
    g: &Graph,
    h: Option<&Hypergraph>,
    seed: u64,
    max_depth: u32,
    task: &(usize, VertexSet, u32),
    stop: &AtomicBool,
    budget: &mut Budget,
) -> Split {
    let (node_id, alive, depth) = task;
    if !budget.tick() {
        stop.store(true, AtomicOrdering::Relaxed);
    }
    if stop.load(AtomicOrdering::Relaxed) {
        // out of budget: finish the ordering cheaply, don't search
        return Split::Leaf(alive.to_vec());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ ((*node_id as u64) << 8) | 1);
    let comps = components_within(g, h, alive);
    if comps.len() > 1 {
        return Split::Cut {
            sep: Vec::new(),
            comps,
        };
    }
    if alive.len() <= LEAF_SIZE || *depth >= max_depth {
        return Split::Leaf(leaf_order(g, alive, &mut rng));
    }
    // a new level of parts retains about one bitset per component; charge
    // the expansion before doing it
    let part_bytes = (alive.capacity() as u64 / 8 + 16) * 4;
    if !budget.charge(part_bytes) {
        stop.store(true, AtomicOrdering::Relaxed);
        return Split::Leaf(alive.to_vec());
    }

    // candidate separators: per BFS root, a balanced layer and (when a
    // hypergraph is present) its greedy-cover widening
    let _sp = htd_trace::span!("balsep.search");
    let total = alive.len();
    let av: Vec<Vertex> = alive.to_vec();
    // score: balanced first, then thinner separator, then smaller parts
    type Candidate = (bool, u32, u32, Vec<Vertex>, Vec<VertexSet>);
    let mut best: Option<Candidate> = None;
    for _ in 0..ROOTS {
        let root = av[rng.gen_range(0..av.len())];
        let layers = bfs_layers(g, alive, root);
        if layers.len() < 2 {
            continue; // the part is a single clique ball: no layer cuts it
        }
        for layer in candidate_layers(&layers, total) {
            let mut cands: Vec<VertexSet> = vec![layer.clone()];
            if let Some(h) = h {
                let _sp = htd_trace::span!("balsep.widen");
                if let Some(cover) = greedy_cover(layer, h.edges()) {
                    let mut widened = VertexSet::new(alive.capacity());
                    for e in cover {
                        widened.union_with(h.edge(e));
                    }
                    widened.intersect_with(alive);
                    cands.push(widened);
                }
            }
            for sep in cands {
                if sep.len() >= total {
                    continue;
                }
                let rest = alive.difference(&sep);
                let comps = components_within(g, h, &rest);
                let Some(max_comp) = comps.iter().map(|c| c.len()).max() else {
                    continue;
                };
                let balanced = max_comp * ALPHA_DEN <= total * ALPHA_NUM;
                let key = (!balanced, sep.len(), max_comp);
                if best
                    .as_ref()
                    .map_or(true, |(b, s, m, _, _)| key < (!b, *s, *m))
                {
                    best = Some((balanced, sep.len(), max_comp, sep.to_vec(), comps));
                }
            }
        }
    }
    match best {
        // an unbalanced cut still recurses if it sheds at least 1/8 of the
        // part — the depth cap bounds the damage; below that, min-fill
        // does better than a degenerate dissection
        Some((balanced, _, max_comp, sep, comps)) if balanced || max_comp * 8 <= total * 7 => {
            Split::Cut { sep, comps }
        }
        _ => Split::Leaf(leaf_order(g, alive, &mut rng)),
    }
}

/// Connected components of `within`, through hyperedges when the problem
/// has them, else through primal adjacency (identical partitions).
fn components_within(g: &Graph, h: Option<&Hypergraph>, within: &VertexSet) -> Vec<VertexSet> {
    match h {
        Some(h) => h.connected_components_within(within),
        None => g.connected_components_within(within),
    }
}

/// BFS layers of `alive` from `root` (layer 0 = `{root}`); stops at the
/// component's edge, which for the callers equals `alive` itself.
fn bfs_layers(g: &Graph, alive: &VertexSet, root: Vertex) -> Vec<VertexSet> {
    let n = g.num_vertices();
    let mut seen = VertexSet::new(n);
    seen.insert(root);
    let mut cur = VertexSet::new(n);
    cur.insert(root);
    let mut layers = Vec::new();
    while !cur.is_empty() {
        let mut nxt = VertexSet::new(n);
        for v in cur.iter() {
            nxt.union_with(g.neighbors(v));
        }
        nxt.intersect_with(alive);
        nxt.difference_with(&seen);
        seen.union_with(&nxt);
        layers.push(cur);
        cur = nxt;
    }
    layers
}

/// Layer candidates worth cutting on: the thinnest balanced interior
/// layer, plus the layer at the cumulative midpoint as a fallback.
fn candidate_layers(layers: &[VertexSet], total: u32) -> Vec<&VertexSet> {
    let mut thinnest: Option<(u32, usize)> = None;
    let mut midpoint = layers.len() / 2;
    let mut before = 0u32;
    for (i, layer) in layers.iter().enumerate() {
        let after = total - before - layer.len();
        if before + layer.len() > total / 2 && before <= total / 2 {
            midpoint = i;
        }
        let balanced =
            before * ALPHA_DEN <= total * ALPHA_NUM && after * ALPHA_DEN <= total * ALPHA_NUM;
        if i > 0 && balanced && thinnest.map_or(true, |(sz, _)| layer.len() < sz) {
            thinnest = Some((layer.len(), i));
        }
        before += layer.len();
    }
    let mut picks = vec![midpoint.min(layers.len() - 1)];
    if let Some((_, i)) = thinnest {
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    picks.into_iter().map(|i| &layers[i]).collect()
}

/// Orders a leaf part with min-fill on its induced subgraph, mapped back
/// to original vertex ids.
fn leaf_order(g: &Graph, alive: &VertexSet, rng: &mut StdRng) -> Vec<Vertex> {
    if alive.len() <= 2 {
        return alive.to_vec();
    }
    let _sp = htd_trace::span!("balsep.leaf");
    let (sub, map) = g.induced_subgraph(alive);
    let ho = htd_heuristics::upper::min_fill(&sub, rng);
    ho.ordering
        .as_slice()
        .iter()
        .map(|&v| map[v as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{solve, Problem};
    use htd_hypergraph::gen;

    fn balsep_cfg(threads: usize) -> SearchConfig {
        SearchConfig::default()
            .with_engines(vec![Engine::BalSep])
            .with_threads(threads)
    }

    #[test]
    fn produces_a_valid_ordering_on_grids() {
        let g = gen::grid_graph(8, 8);
        let out = solve(&Problem::treewidth(g.clone()), &balsep_cfg(2)).unwrap();
        let w = out.upper;
        assert!(w < u32::MAX, "balsep found an upper bound");
        // the witness must achieve the claimed width
        let mut ev = htd_core::ordering::TwEvaluator::new(&g);
        assert!(ev.width(out.witness.expect("witness").as_slice()) <= w);
        // nested dissection on an 8x8 grid stays in the right ballpark
        // (tw = 8; min-fill leaves alone would find ~8-10)
        assert!((8..=16).contains(&w), "width {w}");
    }

    #[test]
    fn ghw_orderings_are_sound_and_agree_with_portfolio_on_thesis_example() {
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let bal = solve(&Problem::ghw(h.clone()), &balsep_cfg(2)).unwrap();
        assert!(bal.upper >= 2, "cannot beat the optimum");
        let exact = solve(&Problem::ghw(h), &SearchConfig::default()).unwrap();
        assert_eq!(exact.exact_width(), Some(2));
        assert!(bal.upper >= exact.upper);
    }

    #[test]
    fn disconnected_instances_split_on_the_empty_separator() {
        // two disjoint 4x4 grids
        let a = gen::grid_graph(4, 4);
        let n = a.num_vertices();
        let mut edges: Vec<(u32, u32)> = a.edges().collect();
        edges.extend(a.edges().map(|(u, v)| (u + n, v + n)));
        let g = Graph::from_edges(2 * n, edges);
        let out = solve(&Problem::treewidth(g.clone()), &balsep_cfg(2)).unwrap();
        let w = out.upper;
        let mut ev = htd_core::ordering::TwEvaluator::new(&g);
        assert!(ev.width(out.witness.expect("witness").as_slice()) <= w);
        assert!((4..=8).contains(&w), "width {w}");
    }

    #[test]
    fn parallel_and_sequential_construction_agree() {
        let g = gen::queen_graph(6);
        let seq = solve(&Problem::treewidth(g.clone()), &balsep_cfg(1)).unwrap();
        let par = solve(&Problem::treewidth(g), &balsep_cfg(4)).unwrap();
        // same seeds, same splits: the construction is deterministic per
        // round regardless of worker count
        assert_eq!(seq.upper, par.upper);
    }

    #[test]
    fn respects_cancellation() {
        let g = gen::queen_graph(7);
        let inc = Arc::new(Incumbent::new());
        inc.cancel();
        let cfg = SearchConfig {
            shared: Some(Arc::clone(&inc)),
            ..balsep_cfg(2)
        };
        let out = solve(&Problem::treewidth(g), &cfg).unwrap();
        assert!(!out.exact);
    }
}
