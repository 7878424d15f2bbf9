//! Shared search configuration, budgets and outcome reporting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use htd_core::ordering::EliminationOrdering;
use htd_resilience::{InjectedFaults, MemoryBudget};
use htd_setcover::CoverCache;
use htd_trace::{metrics::Counter, registry, Event, Tracer};

use crate::incumbent::Incumbent;
use crate::registry::Engine;

/// Toggles and budgets shared by all searches.
///
/// The pruning toggles exist both because they are the thesis's knobs and
/// because the ablation benches measure each rule's contribution.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum number of expanded nodes before giving up (anytime result).
    pub max_nodes: u64,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Apply pruning rule 2 (adjacent-swap symmetry breaking, §4.4.5).
    pub use_pr2: bool,
    /// Apply simplicial / strongly-almost-simplicial reductions (§4.4.3).
    pub use_reductions: bool,
    /// A* only: detect duplicate eliminated-vertex sets and keep the best.
    pub use_duplicate_detection: bool,
    /// Seed for the randomized bound heuristics.
    pub seed: u64,
    /// Worker threads for portfolio / parallel runs (1 = sequential).
    pub num_threads: usize,
    /// Engines the portfolio launches; `None` = the default lineup.
    pub engines: Option<Vec<Engine>>,
    /// Shared bounds + cancellation. Engines given the same incumbent
    /// prune against each other's bounds; `None` = a private incumbent.
    pub shared: Option<Arc<Incumbent>>,
    /// Shared bag → exact-cover-size memo for ghw evaluations; `None` = a
    /// private memo per engine.
    pub cover_cache: Option<Arc<CoverCache>>,
    /// Event tracer. Defaults to the disabled tracer, whose emit path is
    /// a single branch — instrumentation is always compiled in.
    pub tracer: Arc<Tracer>,
    /// Shared memory budget for the memory-hungry structures (A* open /
    /// closed sets, Held–Karp tables, the cover cache). `None` = no
    /// governor. Once exceeded, anytime engines return their best bounds
    /// (a *degraded* outcome) and all-or-nothing engines refuse upfront
    /// with `HtdError::ResourceExhausted`.
    pub memory_budget: Option<Arc<MemoryBudget>>,
    /// Fault-injection trigger: portfolio workers that claim a pending
    /// fault panic inside their quarantined region. Test/chaos only;
    /// `None` (the default) everywhere else.
    pub fault: Option<Arc<InjectedFaults>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_nodes: 10_000_000,
            time_limit: None,
            use_pr2: true,
            use_reductions: true,
            use_duplicate_detection: true,
            seed: 0x5EED,
            num_threads: 1,
            engines: None,
            shared: None,
            cover_cache: None,
            tracer: Tracer::disabled(),
            memory_budget: None,
            fault: None,
        }
    }
}

impl SearchConfig {
    /// A configuration with a small node budget, for quick anytime runs.
    pub fn budgeted(max_nodes: u64) -> Self {
        SearchConfig {
            max_nodes,
            ..SearchConfig::default()
        }
    }

    /// The default portfolio preset: every engine, one worker per
    /// available core (capped at 8 — the lineup isn't longer).
    pub fn portfolio() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4);
        SearchConfig::default().with_threads(threads)
    }

    /// Sets the wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the node budget.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for portfolio / parallel runs.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads.max(1);
        self
    }

    /// Restricts the portfolio to the given engines.
    pub fn with_engines(mut self, engines: Vec<Engine>) -> Self {
        self.engines = Some(engines);
        self
    }

    /// Attaches an event tracer (see `htd_trace::Tracer::new`).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Caps the run's tracked memory at `bytes` (a fresh shared budget).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(MemoryBudget::new(bytes));
        self
    }

    /// Arms fault injection: workers that claim a pending fault panic.
    pub fn with_faults(mut self, faults: Arc<InjectedFaults>) -> Self {
        self.fault = Some(faults);
        self
    }

    /// Disables every optional pruning rule (for ablations / baselines).
    pub fn without_pruning(mut self) -> Self {
        self.use_pr2 = false;
        self.use_reductions = false;
        self.use_duplicate_detection = false;
        self
    }

    /// The exact-cover memo of a ghw run: the shared one if set, else a
    /// fresh private one that charges the run's memory budget (a shared
    /// cache is long-lived and governed by whoever owns it).
    pub(crate) fn exact_cover_cache(&self) -> Arc<CoverCache> {
        self.cover_cache
            .clone()
            .unwrap_or_else(|| self.private_cover_cache())
    }

    /// A fresh cover memo that charges the run's memory budget, if any.
    pub(crate) fn private_cover_cache(&self) -> Arc<CoverCache> {
        Arc::new(match &self.memory_budget {
            Some(m) => CoverCache::with_budget(Arc::clone(m)),
            None => CoverCache::new(),
        })
    }

    /// The incumbent this run publishes to: the shared one if set, else a
    /// fresh private one. Engines always work against an incumbent, so the
    /// sequential and portfolio code paths are identical.
    pub(crate) fn incumbent(&self) -> Arc<Incumbent> {
        self.shared
            .clone()
            .unwrap_or_else(|| Arc::new(Incumbent::new()))
    }
}

/// Counters reported by every search.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Nodes expanded (states visited).
    pub expanded: u64,
    /// Nodes generated (states evaluated and queued/recursed).
    pub generated: u64,
    /// Nodes discarded by pruning rules.
    pub pruned: u64,
    /// Peak size of the A* priority queue (0 for depth-first searches).
    pub max_queue: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// The anytime result of a search: a certified interval on the width.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Proven lower bound.
    pub lower: u32,
    /// Achieved upper bound (a decomposition of this width exists).
    pub upper: u32,
    /// `true` iff `lower == upper` was proven before the budget ran out.
    pub exact: bool,
    /// An ordering achieving `upper`, when one was constructed.
    pub ordering: Option<EliminationOrdering>,
    /// Search counters.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The width if proven exact.
    pub fn exact_width(&self) -> Option<u32> {
        self.exact.then_some(self.upper)
    }
}

/// Expansions are reported to the metric registry and trace stream in
/// batches of this size, so the per-tick overhead is a local increment.
const EXPANSION_BATCH: u64 = 4096;

/// Internal deadline/budget tracker.
///
/// Also the cancellation observer: when the run has a shared incumbent,
/// every tick checks its flag, so a worker stops within one node expansion
/// of another worker's exact proof (or the portfolio's deadline).
///
/// And the expansion reporter: every [`EXPANSION_BATCH`] ticks it adds the
/// batch to the global expansion counters and (when tracing) emits one
/// `NodeExpanded` event; `Drop` flushes the remainder, so totals are exact
/// however the search exits.
#[derive(Debug)]
pub(crate) struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    max_nodes: u64,
    cancel: Option<Arc<Incumbent>>,
    mem: Option<Arc<MemoryBudget>>,
    mem_abort_reported: bool,
    pub(crate) expanded: u64,
    flushed: u64,
    label: &'static str,
    tracer: Arc<Tracer>,
    total_counter: &'static Counter,
    engine_counter: &'static Counter,
}

impl Budget {
    pub(crate) fn new(cfg: &SearchConfig, engine: Engine) -> Self {
        let (start, label) = (Instant::now(), engine.name());
        Budget {
            start,
            deadline: cfg.time_limit.map(|d| start + d),
            max_nodes: cfg.max_nodes,
            cancel: cfg.shared.clone(),
            mem: cfg.memory_budget.clone(),
            mem_abort_reported: false,
            expanded: 0,
            flushed: 0,
            label,
            tracer: Arc::clone(&cfg.tracer),
            // Resolved once here; each flush is then two relaxed adds.
            total_counter: registry().counter("htd_solver_expansions_total"),
            engine_counter: registry().labeled_counter("htd_solver_expansions", "engine", label),
        }
    }

    /// Counts one expansion; `true` while within budget and not cancelled.
    /// The time check is amortized (every 256 expansions); the cancel check
    /// is a single relaxed load and runs every tick.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        self.expanded += 1;
        if self.expanded & (EXPANSION_BATCH - 1) == 0 {
            self.flush_expansions();
        }
        if self.expanded > self.max_nodes {
            return false;
        }
        if let Some(inc) = &self.cancel {
            if inc.is_cancelled() {
                return false;
            }
        }
        if let Some(m) = &self.mem {
            if m.exceeded() {
                self.report_mem_abort();
                return false;
            }
        }
        if self.expanded & 0xFF == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    return false;
                }
            }
        }
        true
    }

    /// Charges `bytes` of retained search state (an open-queue node, a
    /// `seen`-map entry, a DP row) against the shared memory budget.
    /// `true` while within budget — or always, when no budget is set.
    /// A failed charge makes every subsequent [`Budget::tick`] fail, so
    /// engines that only check `tick` still degrade promptly.
    #[inline]
    pub(crate) fn charge(&mut self, bytes: u64) -> bool {
        match &self.mem {
            None => true,
            Some(m) => {
                if m.charge(bytes) {
                    true
                } else {
                    self.report_mem_abort();
                    false
                }
            }
        }
    }

    /// `true` once the shared memory budget has been exceeded — the
    /// engine's result is degraded (bounds are valid; exactness is not
    /// claimable from an exhausted search).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn mem_exceeded(&self) -> bool {
        self.mem.as_ref().is_some_and(|m| m.exceeded())
    }

    /// Counts the budget abort once per engine, however often the
    /// exceeded latch is observed afterwards.
    #[cold]
    fn report_mem_abort(&mut self) {
        if self.mem_abort_reported {
            return;
        }
        self.mem_abort_reported = true;
        registry().counter("htd_mem_budget_aborts_total").add(1);
    }

    #[cold]
    fn flush_expansions(&mut self) {
        let batch = self.expanded - self.flushed;
        if batch == 0 {
            return;
        }
        self.flushed = self.expanded;
        self.total_counter.add(batch);
        self.engine_counter.add(batch);
        let label = self.label;
        self.tracer.emit_with(|| Event::NodeExpanded {
            worker: label,
            count: batch,
        });
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        self.flush_expansions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_node_limit() {
        let cfg = SearchConfig::budgeted(3);
        let mut b = Budget::new(&cfg, Engine::BranchBound);
        assert!(b.tick());
        assert!(b.tick());
        assert!(b.tick());
        assert!(!b.tick());
    }

    #[test]
    fn budget_time_limit() {
        let cfg = SearchConfig::default().with_time_limit(Duration::from_millis(0));
        let mut b = Budget::new(&cfg, Engine::BranchBound);
        // the amortized check fires at expansion 256
        let mut stopped = false;
        for _ in 0..1000 {
            if !b.tick() {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
    }

    #[test]
    fn budget_observes_cancellation() {
        let inc = Arc::new(Incumbent::new());
        let cfg = SearchConfig {
            shared: Some(Arc::clone(&inc)),
            ..SearchConfig::default()
        };
        let mut b = Budget::new(&cfg, Engine::BranchBound);
        assert!(b.tick());
        inc.cancel();
        assert!(!b.tick(), "cancel observed on the very next tick");
    }

    #[test]
    fn memory_budget_failure_degrades_ticks() {
        let cfg = SearchConfig::default().with_memory_budget(100);
        let mut b = Budget::new(&cfg, Engine::BranchBound);
        assert!(b.charge(60));
        assert!(b.tick());
        assert!(!b.charge(60), "160 > 100");
        assert!(b.mem_exceeded());
        assert!(!b.tick(), "exceeded budget fails every later tick");
        // no budget configured: charges are free
        let mut free = Budget::new(&SearchConfig::default(), Engine::BranchBound);
        assert!(free.charge(u64::MAX));
        assert!(!free.mem_exceeded());
    }

    #[test]
    fn without_pruning_clears_toggles() {
        let cfg = SearchConfig::default().without_pruning();
        assert!(!cfg.use_pr2 && !cfg.use_reductions && !cfg.use_duplicate_detection);
    }

    #[test]
    fn builders_compose() {
        let cfg = SearchConfig::budgeted(100)
            .with_time_limit(Duration::from_secs(1))
            .with_seed(7)
            .with_threads(3);
        assert_eq!(cfg.max_nodes, 100);
        assert_eq!(cfg.time_limit, Some(Duration::from_secs(1)));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.num_threads, 3);
        assert!(SearchConfig::portfolio().num_threads >= 1);
        assert_eq!(cfg.with_threads(0).num_threads, 1);
    }
}
