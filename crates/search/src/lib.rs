//! Exact search algorithms for treewidth and generalized hypertree width.
//!
//! Two searches over elimination orderings, each run under two bag
//! measures (a bag costs its size minus one for treewidth, its exact cover
//! number for ghw; orderings are complete for ghw by Theorem 3):
//!
//! * [`bb_tw`] and [`bb_ghw`] — depth-first branch and bound (the QuickBB /
//!   BB-tw scheme of thesis §4.4, and BB-ghw of Fig. 8.3);
//! * [`astar_tw`] and [`astar_ghw`] — best-first A* (thesis Figs. 5.1 and
//!   9.1).
//!
//! Beside them: [`detk`], det-k-decomp, the canonical backtracking
//! algorithm for *hypertree* decompositions (`hw`), the literature
//! baseline satisfying `ghw ≤ hw`; [`balsep`], balanced-separator bounds;
//! and [`dp_tw`], the Held–Karp dynamic program for treewidth.
//!
//! They share [`SearchConfig`] (budgets and pruning toggles) and report a
//! [`SearchOutcome`] with anytime lower/upper bounds: interrupted runs
//! still return valid bounds, exactly as the thesis's one-hour-limit runs
//! report the `f`-value of the last visited state as a lower bound (§5.3).
//!
//! The preferred entry point is the unified API in [`portfolio`]: build a
//! [`Problem`], pick a [`SearchConfig`], call [`solve`], read an
//! [`Outcome`]. With `num_threads > 1` it runs all engines concurrently
//! against a shared [`Incumbent`]. The per-engine functions above remain
//! available.

#![warn(missing_docs)]

#[cfg(test)]
mod alloc_tests;
mod astar;
pub mod balsep;
mod bb;
pub mod config;
pub mod detk;
pub mod dp_tw;
pub mod incumbent;
mod measure;
pub mod portfolio;
pub mod registry;

use htd_hypergraph::{Graph, Hypergraph};
use measure::{Ghw, Treewidth};

pub use config::{SearchConfig, SearchOutcome, SearchStats};
pub use detk::{det_k_decomp, hypertree_width, DetkEffort};
pub use dp_tw::{dp_treewidth, dp_treewidth_budgeted};
pub use incumbent::Incumbent;
pub use portfolio::{solve, EngineReport, Objective, Outcome, Problem};
pub use registry::{engine_list, engines_from_names, Engine};

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
    bb::search(g, &mut Treewidth::default(), cfg)
}

/// Computes `ghw(h)` by branch and bound. Returns `None` when some vertex
/// lies in no hyperedge (no GHD exists). Within budget the result is exact.
///
/// With `cfg.shared` set, the search prunes against and publishes to the
/// shared [`Incumbent`]; with `cfg.cover_cache` set, bag covers are
/// memoized in that [`CoverCache`](htd_setcover::CoverCache), which must be
/// dedicated to `h` and the exact strategy. Otherwise the memo is private
/// and charges `cfg.memory_budget`.
pub fn bb_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    let g = h.covers_all_vertices().then(|| h.primal_graph())?;
    Some(bb::search(&g, &mut Ghw::new(h, cfg), cfg))
}

/// Computes the treewidth of `g` with A*. Within budget the result is
/// exact; otherwise `lower` is the largest proven `f` and `upper` the
/// initial min-fill bound (the thesis's anytime behaviour).
///
/// With `cfg.shared` set, the open-list threshold is the shared
/// [`Incumbent`]'s upper bound — states are discarded against bounds found
/// by sibling engines — and the rising min-`f` is published as the run's
/// proven lower bound.
pub fn astar_tw(g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    astar::search(g, &mut Treewidth::default(), cfg)
}

/// Computes `ghw(h)` with A*. Returns `None` when some vertex lies in no
/// hyperedge. Within budget the result is exact; otherwise `lower` is the
/// largest visited `f`. Shared incumbent and cover memo as for [`bb_ghw`].
pub fn astar_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    let g = h.covers_all_vertices().then(|| h.primal_graph())?;
    Some(astar::search(&g, &mut Ghw::new(h, cfg), cfg))
}
