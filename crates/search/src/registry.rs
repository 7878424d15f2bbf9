//! The engine table.
//!
//! [`Engine`] names every engine the portfolio can launch, and this module
//! is the one place that knows the engine set: each per-engine fact (its
//! name, its claim on scarce worker slots, whether the `htd-check`
//! differential harness gives it an arm, and how it runs) is one `match`
//! on the enum. The launch order is the order of [`Engine::ALL`].

use std::sync::Arc;

use htd_core::error::HtdError;
use htd_setcover::CoverCache;

use crate::config::SearchConfig;
use crate::incumbent::Incumbent;
use crate::portfolio::{self, run_search, EngineReport, Problem};
use crate::{astar_ghw, astar_tw, balsep, bb_ghw, bb_tw};

/// A solver engine of the portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Greedy upper-bound heuristics (min-fill / min-degree / MCS) plus
    /// iterated local search — fast first incumbents.
    Heuristic,
    /// Dedicated lower-bound worker (minor-min-width / tw-ksc families).
    LowerBound,
    /// Depth-first branch and bound over elimination orderings.
    BranchBound,
    /// Best-first A* over elimination orderings.
    AStar,
    /// Balanced-separator nested dissection with parallel recursion on
    /// disconnected components (log-depth, BalancedGo-style).
    BalSep,
    /// Genetic algorithm upper-bound worker.
    Genetic,
    /// Simulated-annealing upper-bound worker.
    Annealing,
}

impl Engine {
    /// Every engine, in launch order.
    pub const ALL: [Engine; 7] = [
        Engine::Heuristic,
        Engine::LowerBound,
        Engine::BranchBound,
        Engine::AStar,
        Engine::BalSep,
        Engine::Genetic,
        Engine::Annealing,
    ];

    /// The stable snake_case name used in JSON reports, trace events and
    /// metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Heuristic => "heuristic",
            Engine::LowerBound => "lower_bound",
            Engine::BranchBound => "branch_bound",
            Engine::AStar => "astar",
            Engine::BalSep => "balsep",
            Engine::Genetic => "genetic",
            Engine::Annealing => "annealing",
        }
    }

    /// The engine called `name`, if any.
    pub fn from_name(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The default portfolio lineup, in launch order: every engine.
    pub fn default_lineup() -> Vec<Engine> {
        Engine::ALL.to_vec()
    }

    /// Priority when worker slots are scarcer than the lineup (lower
    /// claims a slot first): the exact searches, then the bracketing
    /// heuristics, then balsep and the metaheuristics.
    pub(crate) fn claim_rank(self) -> u32 {
        match self {
            Engine::BranchBound => 0,
            Engine::AStar => 1,
            Engine::Heuristic => 2,
            Engine::LowerBound => 3,
            Engine::BalSep => 4,
            Engine::Genetic => 5,
            Engine::Annealing => 6,
        }
    }

    /// Whether the `htd-check` differential harness gives this engine its
    /// own single-engine arm. The cheap bracketing heuristics run there as
    /// one combined arm, and the stochastic metaheuristics (budget-hungry,
    /// upper-bound only) get none.
    pub fn differential_arm(self) -> bool {
        match self {
            Engine::BranchBound | Engine::AStar | Engine::BalSep => true,
            Engine::Heuristic | Engine::LowerBound | Engine::Genetic | Engine::Annealing => false,
        }
    }

    /// Runs the engine to completion or cooperative cancellation, offering
    /// every bound it proves to `inc`, the incumbent `cfg.shared` holds.
    /// `greedy_cache` is the run's greedy cover memo; `pool_threads` is the
    /// run's thread budget, which bounds balsep's own worker pool. The
    /// caller times the run.
    pub(crate) fn run(
        self,
        problem: &Problem,
        cfg: &SearchConfig,
        inc: &Arc<Incumbent>,
        greedy_cache: &Arc<CoverCache>,
        pool_threads: usize,
    ) -> EngineReport {
        let mut report = portfolio::blank_report(self);
        let r = &mut report;
        match self {
            Engine::Heuristic => portfolio::run_heuristic(problem, cfg, inc, r),
            Engine::LowerBound => portfolio::run_lower_bound(problem, cfg, inc, r),
            Engine::BranchBound => run_search(problem, cfg, bb_tw, bb_ghw, r),
            Engine::AStar => run_search(problem, cfg, astar_tw, astar_ghw, r),
            Engine::BalSep => balsep::run(problem, cfg, inc, greedy_cache, pool_threads, r),
            Engine::Genetic => portfolio::run_genetic(problem, cfg, inc, greedy_cache, r),
            Engine::Annealing => portfolio::run_annealing(problem, cfg, inc, r),
        }
        report
    }
}

/// Resolves a list of engine names; the error names every unknown engine
/// and lists the engines there are.
pub fn engines_from_names<S: AsRef<str>>(names: &[S]) -> Result<Vec<Engine>, HtdError> {
    let mut engines = Vec::with_capacity(names.len());
    let mut unknown: Vec<&str> = Vec::new();
    for n in names {
        match Engine::from_name(n.as_ref()) {
            Some(e) => engines.push(e),
            None => unknown.push(n.as_ref()),
        }
    }
    if !unknown.is_empty() {
        return Err(HtdError::Unsupported(format!(
            "unknown engine{} '{}'; registered engines: {}",
            if unknown.len() > 1 { "s" } else { "" },
            unknown.join("', '"),
            engine_list()
        )));
    }
    Ok(engines)
}

/// Every engine name in launch order, comma-separated: the list that
/// engine-selection errors print.
pub fn engine_list() -> String {
    Engine::ALL.map(Engine::name).join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in Engine::ALL {
            assert_eq!(Engine::from_name(e.name()), Some(e));
        }
        assert_eq!(Engine::BranchBound.name(), "branch_bound");
        assert_ne!(Engine::BranchBound, Engine::AStar);
        assert!(Engine::from_name("no_such_engine").is_none());
    }

    #[test]
    fn default_lineup_is_launch_ordered_and_claims_favour_the_searches() {
        assert_eq!(
            Engine::default_lineup(),
            vec![
                Engine::Heuristic,
                Engine::LowerBound,
                Engine::BranchBound,
                Engine::AStar,
                Engine::BalSep,
                Engine::Genetic,
                Engine::Annealing,
            ]
        );
        let mut claim = Engine::ALL;
        claim.sort_by_key(|e| e.claim_rank());
        assert_eq!(
            &claim[..4],
            &[
                Engine::BranchBound,
                Engine::AStar,
                Engine::Heuristic,
                Engine::LowerBound
            ]
        );
    }

    #[test]
    fn unknown_names_error_lists_the_engines() {
        let err = engines_from_names(&["balsep", "warp_drive"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp_drive"), "{msg}");
        assert!(msg.contains("branch_bound"), "{msg}");
        assert!(msg.contains("balsep"), "{msg}");
        let ok = engines_from_names(&["astar", "balsep"]).unwrap();
        assert_eq!(ok, vec![Engine::AStar, Engine::BalSep]);
    }
}
