//! Exact search algorithms for treewidth and generalized hypertree width.
//!
//! Four algorithms, all searching the space of elimination orderings:
//!
//! * [`bb_tw`] — depth-first branch and bound for treewidth
//!   (the QuickBB / BB-tw scheme of thesis §4.4);
//! * [`astar_tw`] — best-first A* for treewidth (thesis Fig. 5.1);
//! * [`bb_ghw`] — branch and bound for generalized hypertree width
//!   (thesis Fig. 8.3), sound and complete by Theorem 3;
//! * [`astar_ghw`] — A* for generalized hypertree width (thesis Fig. 9.1).
//! * [`detk`] — det-k-decomp, the canonical backtracking algorithm for
//!   *hypertree* decompositions (`hw`), included as the literature
//!   baseline satisfying `ghw ≤ hw`.
//!
//! All four share [`SearchConfig`] (budgets and pruning toggles) and report
//! a [`SearchOutcome`] with anytime lower/upper bounds: interrupted runs
//! still return valid bounds, exactly as the thesis's one-hour-limit runs
//! report the `f`-value of the last visited state as a lower bound (§5.3).
//!
//! The preferred entry point is the unified API in [`portfolio`]: build a
//! [`Problem`], pick a [`SearchConfig`], call [`solve`], read an
//! [`Outcome`]. With `num_threads > 1` it runs all engines concurrently
//! against a shared [`Incumbent`]. The per-engine functions above remain
//! available as modules; their old crate-root re-exports are deprecated.

#![warn(missing_docs)]

#[cfg(test)]
mod alloc_tests;
pub mod astar_ghw;
pub mod astar_tw;
pub mod balsep;
pub mod bb_ghw;
pub mod bb_tw;
pub mod config;
pub mod detk;
pub mod dp_tw;
pub(crate) mod ghw_common;
pub mod incumbent;
pub mod portfolio;
pub mod pruning;
pub mod registry;

pub use config::{Engine, SearchConfig, SearchOutcome, SearchStats};
pub use detk::{det_k_decomp, hypertree_width};
pub use dp_tw::{dp_treewidth, dp_treewidth_budgeted};
pub use incumbent::Incumbent;
pub use portfolio::{solve, EngineReport, Objective, Outcome, Problem};
pub use registry::{
    engine_specs, engines_from_names, register_engine, registered_engine_names, EngineContext,
    EngineSpec,
};

use htd_hypergraph::{Graph, Hypergraph};

// Deprecated per-engine entry points. These shadow the module names in the
// value namespace only, so `crate::bb_tw::bb_tw` paths keep working.

/// Deprecated alias for [`bb_tw::bb_tw`]; prefer [`solve`].
#[deprecated(
    since = "0.2.0",
    note = "use htd_search::solve with Problem::treewidth"
)]
pub fn bb_tw(g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    bb_tw::bb_tw(g, cfg)
}

/// Deprecated alias for [`astar_tw::astar_tw`]; prefer [`solve`].
#[deprecated(
    since = "0.2.0",
    note = "use htd_search::solve with Problem::treewidth"
)]
pub fn astar_tw(g: &Graph, cfg: &SearchConfig) -> SearchOutcome {
    astar_tw::astar_tw(g, cfg)
}

/// Deprecated alias for [`bb_ghw::bb_ghw`]; prefer [`solve`].
#[deprecated(since = "0.2.0", note = "use htd_search::solve with Problem::ghw")]
pub fn bb_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    bb_ghw::bb_ghw(h, cfg)
}

/// Deprecated alias for [`astar_ghw::astar_ghw`]; prefer [`solve`].
#[deprecated(since = "0.2.0", note = "use htd_search::solve with Problem::ghw")]
pub fn astar_ghw(h: &Hypergraph, cfg: &SearchConfig) -> Option<SearchOutcome> {
    astar_ghw::astar_ghw(h, cfg)
}
