//! The anytime portfolio solver and the unified solver API.
//!
//! One entry point — [`solve`] — replaces the four per-engine functions:
//! a [`Problem`] names the instance and the objective (`tw`, `ghw` or
//! `hw`), a [`SearchConfig`] carries budgets and the thread count, and the
//! result is always an [`Outcome`] with certified anytime bounds.
//!
//! With `num_threads > 1` the solver launches a **portfolio**: heuristic
//! upper-bound, lower-bound, branch-and-bound, A* and (optionally) GA/SA
//! workers run concurrently on scoped threads against one shared
//! [`Incumbent`]. Every bound any worker proves immediately tightens every
//! other worker's pruning; the first exact proof — or the wall-clock
//! budget — cancels the whole run cooperatively. All ghw workers share one
//! concurrent [`CoverCache`] per covering strategy, so a bag's set cover
//! is solved once per run rather than once per engine.
//!
//! This is the thesis's systems chapters in one place: the searches
//! (Chapters 4–9), the heuristics feeding them initial bounds, and the
//! GA (Chapters 6–7) demoted from standalone experiment to incumbent
//! supplier.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htd_core::error::HtdError;
use htd_core::json::Json;
use htd_core::ordering::{CoverStrategy, EliminationOrdering, GhwEvaluator};
use htd_ga::engine::GaParams;
use htd_ga::sa::SaParams;
use htd_hypergraph::{Graph, Hypergraph, Vertex};
use htd_setcover::CoverCache;
use htd_trace::{Event, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{SearchConfig, SearchOutcome, SearchStats};
use crate::detk::{DetkEffort, Width};
use crate::incumbent::Incumbent;
use crate::registry::{engine_list, Engine};

/// What to minimize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Treewidth of a graph (or of a hypergraph's primal graph).
    Treewidth,
    /// Generalized hypertree width (Definition 13).
    GeneralizedHypertreeWidth,
    /// Hypertree width (adds the descendant condition; `ghw ≤ hw`).
    HypertreeWidth,
}

impl Objective {
    /// The short name used in CLI arguments and JSON (`tw`/`ghw`/`hw`).
    pub fn name(self) -> &'static str {
        match self {
            Objective::Treewidth => "tw",
            Objective::GeneralizedHypertreeWidth => "ghw",
            Objective::HypertreeWidth => "hw",
        }
    }

    /// Parses a short name.
    pub fn from_name(s: &str) -> Option<Objective> {
        match s {
            "tw" => Some(Objective::Treewidth),
            "ghw" => Some(Objective::GeneralizedHypertreeWidth),
            "hw" => Some(Objective::HypertreeWidth),
            _ => None,
        }
    }

    /// Checks that the objective is defined on `h`: every hypergraph has a
    /// treewidth (of its primal graph), but a ghw or hw decomposition must
    /// cover every vertex with some hyperedge.
    pub fn check_instance(self, h: &Hypergraph) -> Result<(), HtdError> {
        if self != Objective::Treewidth && !h.covers_all_vertices() {
            return Err(HtdError::Invalid(
                "some vertex lies in no hyperedge: no decomposition exists".into(),
            ));
        }
        Ok(())
    }
}

/// An instance plus an objective: the input of [`solve`].
#[derive(Clone, Debug)]
pub struct Problem {
    objective: Objective,
    /// The graph searched over (for ghw/hw: the primal graph).
    graph: Graph,
    /// Present for hypergraph objectives (ghw / hw) and for treewidth of
    /// a hypergraph's primal graph.
    hypergraph: Option<Hypergraph>,
}

impl Problem {
    /// Treewidth of a graph.
    pub fn treewidth(graph: Graph) -> Self {
        Problem {
            objective: Objective::Treewidth,
            graph,
            hypergraph: None,
        }
    }

    /// Treewidth of a hypergraph's primal graph.
    pub fn treewidth_of_hypergraph(h: Hypergraph) -> Self {
        Problem {
            objective: Objective::Treewidth,
            graph: h.primal_graph(),
            hypergraph: Some(h),
        }
    }

    /// Generalized hypertree width of a hypergraph.
    pub fn ghw(h: Hypergraph) -> Self {
        Problem {
            objective: Objective::GeneralizedHypertreeWidth,
            graph: h.primal_graph(),
            hypergraph: Some(h),
        }
    }

    /// Hypertree width of a hypergraph.
    pub fn hw(h: Hypergraph) -> Self {
        Problem {
            objective: Objective::HypertreeWidth,
            graph: h.primal_graph(),
            hypergraph: Some(h),
        }
    }

    /// The objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The graph searched over (for ghw/hw: the primal graph).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The hypergraph, when the problem has one.
    pub fn hypergraph(&self) -> Option<&Hypergraph> {
        self.hypergraph.as_ref()
    }

    /// Checks the semantic requirements of the objective.
    pub fn validate(&self) -> Result<(), HtdError> {
        match (self.objective, &self.hypergraph) {
            (Objective::Treewidth, _) => Ok(()),
            (objective, Some(h)) => objective.check_instance(h),
            (objective, None) => Err(HtdError::Invalid(format!(
                "{} needs a hypergraph",
                objective.name()
            ))),
        }
    }
}

/// What one engine contributed to a solve.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The engine.
    pub engine: Engine,
    /// Lower bound this engine proved on its own.
    pub lower: u32,
    /// Upper bound this engine achieved on its own (`u32::MAX` = none).
    pub upper: u32,
    /// Whether this engine finished with an exactness proof.
    pub exact: bool,
    /// Whether this engine panicked and was quarantined: its slot
    /// contributed nothing, but the portfolio carried on without it.
    pub panicked: bool,
    /// Its search counters.
    pub stats: SearchStats,
}

impl EngineReport {
    /// Records an upper bound this engine achieved and offers it, with its
    /// witness ordering, to the run's incumbent.
    pub(crate) fn offer(&mut self, inc: &Incumbent, tracer: &Tracer, width: u32, order: &[Vertex]) {
        self.upper = self.upper.min(width);
        inc.offer_traced(tracer, self.engine, width, order);
    }
}

/// The unified result of [`solve`]: certified anytime bounds, a witness,
/// and per-engine accounting.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The objective solved.
    pub objective: Objective,
    /// Proven lower bound.
    pub lower: u32,
    /// Achieved upper bound.
    pub upper: u32,
    /// `true` iff `lower == upper` was proven within budget.
    pub exact: bool,
    /// An elimination ordering achieving `upper` (absent for `hw`, whose
    /// witness is a decomposition tree, not an ordering).
    pub witness: Option<EliminationOrdering>,
    /// Total nodes expanded across every engine.
    pub nodes: u64,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
    /// Per-engine accounting, in launch order.
    pub per_engine: Vec<EngineReport>,
    /// The engine whose offer produced the final upper bound, when known
    /// (portfolio runs attribute every accepted offer).
    pub winner: Option<Engine>,
    /// Time from solve start to the first accepted upper bound.
    pub time_to_first_upper: Option<Duration>,
    /// Time from solve start to the upper bound that ended up best.
    pub time_to_best_upper: Option<Duration>,
    /// Exact-cover cache hits during this solve (ghw objectives; 0 for tw).
    pub cover_cache_hits: u64,
    /// Exact-cover cache misses during this solve.
    pub cover_cache_misses: u64,
    /// `true` when the memory budget was exhausted mid-run: the bounds
    /// are still certified, but the search was truncated by the governor
    /// rather than by its node/time budget. Degraded results never claim
    /// exactness they didn't prove before the truncation.
    pub degraded: bool,
    /// Lineup engines that never got a worker slot (fewer threads than
    /// engines). They contributed nothing — a run that looks oddly narrow
    /// was not a silent truncation, it is recorded here and in the trace
    /// stream.
    pub skipped_engines: Vec<Engine>,
    /// `true` when the solve's time limit stopped it: a portfolio whose
    /// deadline passed with workers still searching, or an `hw` search
    /// that stopped there. A solve cancelled first (an exact proof, a
    /// caller's cancel) was not stopped by its deadline. Not on the wire.
    pub deadline_stopped: bool,
    /// Engine searches the memory governor stopped, each counted once by
    /// its search budget. Not on the wire.
    pub mem_budget_aborts: u64,
    /// det-k's search effort over every width an `hw` solve tried; zero
    /// for the other objectives. Not on the wire.
    pub detk: DetkEffort,
}

impl Outcome {
    /// The width if proven exact.
    pub fn exact_width(&self) -> Option<u32> {
        self.exact.then_some(self.upper)
    }

    /// The documented JSON schema, one object per solve:
    ///
    /// ```json
    /// {"objective":"tw","lower":18,"upper":18,"exact":true,
    ///  "witness":[3,1,0,2],"nodes":4212,"elapsed_ms":10.3,
    ///  "engines":[{"engine":"branch_bound","lower":18,"upper":18,
    ///              "exact":true,"expanded":4212,"generated":9121,
    ///              "pruned":380,"max_queue":0,"elapsed_ms":10.1}]}
    /// ```
    ///
    /// `witness` is omitted when absent; `upper` of an engine that never
    /// found one is omitted likewise.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("objective".into(), Json::Str(self.objective.name().into())),
            ("lower".into(), Json::Num(self.lower as f64)),
            ("upper".into(), Json::Num(self.upper as f64)),
            ("exact".into(), Json::Bool(self.exact)),
        ];
        if self.degraded {
            members.push(("degraded".into(), Json::Bool(true)));
        }
        if let Some(w) = &self.witness {
            members.push((
                "witness".into(),
                Json::Arr(w.as_slice().iter().map(|&v| Json::Num(v as f64)).collect()),
            ));
        }
        members.push(("nodes".into(), Json::Num(self.nodes as f64)));
        members.push((
            "elapsed_ms".into(),
            Json::Num(self.elapsed.as_secs_f64() * 1e3),
        ));
        members.push((
            "engines".into(),
            Json::Arr(self.per_engine.iter().map(engine_report_json).collect()),
        ));
        if !self.skipped_engines.is_empty() {
            members.push((
                "skipped_engines".into(),
                Json::Arr(
                    self.skipped_engines
                        .iter()
                        .map(|e| Json::Str(e.name().into()))
                        .collect(),
                ),
            ));
        }
        let mut ts = Vec::new();
        if let Some(w) = self.winner {
            ts.push(("winner".into(), Json::Str(w.name().into())));
        }
        if let Some(t) = self.time_to_first_upper {
            ts.push((
                "time_to_first_upper_ms".into(),
                Json::Num(t.as_secs_f64() * 1e3),
            ));
        }
        if let Some(t) = self.time_to_best_upper {
            ts.push((
                "time_to_best_upper_ms".into(),
                Json::Num(t.as_secs_f64() * 1e3),
            ));
        }
        ts.push(("expansions".into(), Json::Num(self.nodes as f64)));
        ts.push((
            "pruned".into(),
            Json::Num(self.per_engine.iter().map(|r| r.stats.pruned).sum::<u64>() as f64),
        ));
        ts.push((
            "cover_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(self.cover_cache_hits as f64)),
                ("misses".into(), Json::Num(self.cover_cache_misses as f64)),
            ]),
        ));
        members.push(("trace_summary".into(), Json::Obj(ts)));
        Json::Obj(members)
    }

    /// Parses a document produced by [`Outcome::to_json`].
    pub fn from_json(doc: &Json) -> Result<Outcome, HtdError> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| HtdError::Parse(format!("outcome json missing '{k}'")))
        };
        let objective = Objective::from_name(field("objective")?.as_str().unwrap_or(""))
            .ok_or_else(|| HtdError::Parse("bad objective".into()))?;
        let num = |k: &str| -> Result<u64, HtdError> {
            field(k)?
                .as_u64()
                .ok_or_else(|| HtdError::Parse(format!("'{k}' is not a number")))
        };
        let width = |k: &str| -> Result<u32, HtdError> {
            field(k)?
                .as_u32()
                .ok_or_else(|| HtdError::Parse(format!("'{k}' is not a u32")))
        };
        let witness = match doc.get("witness") {
            None => None,
            Some(w) => {
                let items = w
                    .as_arr()
                    .ok_or_else(|| HtdError::Parse("witness is not an array".into()))?;
                let order: Option<Vec<u32>> = items.iter().map(Json::as_u32).collect();
                Some(EliminationOrdering::new_unchecked(order.ok_or_else(
                    || HtdError::Parse("witness holds a non-u32".into()),
                )?))
            }
        };
        let per_engine = match doc.get("engines") {
            None => Vec::new(),
            Some(engines) => engines
                .as_arr()
                .ok_or_else(|| HtdError::Parse("engines is not an array".into()))?
                .iter()
                .map(engine_report_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let ts = doc.get("trace_summary");
        let ts_ms = |k: &str| {
            ts.and_then(|t| t.get(k))
                .and_then(|v| v.as_f64())
                .map(|m| Duration::from_secs_f64(m.max(0.0) / 1e3))
        };
        let cover = |k: &str| {
            ts.and_then(|t| t.get("cover_cache"))
                .and_then(|c| c.get(k))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        Ok(Outcome {
            objective,
            lower: width("lower")?,
            upper: width("upper")?,
            exact: field("exact")?
                .as_bool()
                .ok_or_else(|| HtdError::Parse("'exact' is not a bool".into()))?,
            witness,
            nodes: num("nodes")?,
            elapsed: Duration::from_secs_f64(
                field("elapsed_ms")?
                    .as_f64()
                    .ok_or_else(|| HtdError::Parse("'elapsed_ms' is not a number".into()))?
                    .max(0.0)
                    / 1e3,
            ),
            per_engine,
            winner: ts
                .and_then(|t| t.get("winner"))
                .and_then(|v| v.as_str())
                .and_then(Engine::from_name),
            time_to_first_upper: ts_ms("time_to_first_upper_ms"),
            time_to_best_upper: ts_ms("time_to_best_upper_ms"),
            cover_cache_hits: cover("hits"),
            cover_cache_misses: cover("misses"),
            // absent in pre-resilience documents: default to not degraded
            degraded: doc
                .get("degraded")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            // absent in pre-registry documents: default to none skipped
            skipped_engines: doc
                .get("skipped_engines")
                .and_then(|v| v.as_arr())
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|v| v.as_str().and_then(Engine::from_name))
                        .collect()
                })
                .unwrap_or_default(),
            deadline_stopped: false,
            mem_budget_aborts: 0,
            detk: DetkEffort::default(),
        })
    }
}

fn engine_report_json(r: &EngineReport) -> Json {
    let mut members = vec![
        ("engine".into(), Json::Str(r.engine.name().into())),
        ("lower".into(), Json::Num(r.lower as f64)),
    ];
    if r.upper != u32::MAX {
        members.push(("upper".into(), Json::Num(r.upper as f64)));
    }
    members.push(("exact".into(), Json::Bool(r.exact)));
    if r.panicked {
        members.push(("panicked".into(), Json::Bool(true)));
    }
    members.push(("expanded".into(), Json::Num(r.stats.expanded as f64)));
    members.push(("generated".into(), Json::Num(r.stats.generated as f64)));
    members.push(("pruned".into(), Json::Num(r.stats.pruned as f64)));
    members.push(("max_queue".into(), Json::Num(r.stats.max_queue as f64)));
    members.push((
        "elapsed_ms".into(),
        Json::Num(r.stats.elapsed.as_secs_f64() * 1e3),
    ));
    Json::Obj(members)
}

fn engine_report_from_json(doc: &Json) -> Result<EngineReport, HtdError> {
    let engine = Engine::from_name(
        doc.get("engine")
            .and_then(|v| v.as_str())
            .unwrap_or_default(),
    )
    .ok_or_else(|| HtdError::Parse("bad engine name".into()))?;
    let num = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    // a bound is read exactly or refused, never truncated
    let bound = |k: &str| {
        doc.get(k)
            .map(|v| {
                v.as_u32()
                    .ok_or_else(|| HtdError::Parse(format!("engine '{k}' is not a u32")))
            })
            .transpose()
    };
    Ok(EngineReport {
        engine,
        lower: bound("lower")?.unwrap_or(0),
        upper: bound("upper")?.unwrap_or(u32::MAX),
        exact: doc.get("exact").and_then(|v| v.as_bool()).unwrap_or(false),
        panicked: doc
            .get("panicked")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        stats: SearchStats {
            expanded: num("expanded"),
            generated: num("generated"),
            pruned: num("pruned"),
            max_queue: num("max_queue") as usize,
            elapsed: Duration::from_secs_f64(
                doc.get("elapsed_ms")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
                    .max(0.0)
                    / 1e3,
            ),
        },
    })
}

/// Solves a [`Problem`] under a [`SearchConfig`].
///
/// `cfg.num_threads <= 1` runs the strongest sequential engine for the
/// objective (branch and bound; det-k-decomp for `hw`). More threads run
/// the anytime portfolio described in the module docs. Either way the
/// returned bounds are certified: `lower ≤ width ≤ upper`, with
/// `exact` iff the gap closed within budget.
pub fn solve(problem: &Problem, cfg: &SearchConfig) -> Result<Outcome, HtdError> {
    problem.validate()?;
    if problem.objective != Objective::HypertreeWidth
        && cfg.engines.as_ref().is_some_and(Vec::is_empty)
    {
        return Err(HtdError::Unsupported(format!(
            "the engine lineup is empty; registered engines: {}",
            engine_list()
        )));
    }
    let start = Instant::now();
    cfg.tracer.emit_with(|| Event::SolveStarted {
        objective: problem.objective.name(),
        vertices: problem.graph().num_vertices() as usize,
        edges: problem
            .hypergraph()
            .map(|h| h.num_edges() as usize)
            .unwrap_or_else(|| problem.graph().num_edges()),
    });
    let mut outcome = match problem.objective {
        Objective::HypertreeWidth => solve_hw(problem, cfg),
        _ => solve_portfolio(problem, cfg),
    }?;
    outcome.elapsed = start.elapsed();
    cfg.tracer.emit_with(|| Event::SolveFinished {
        lower: outcome.lower,
        upper: (outcome.upper != u32::MAX).then_some(outcome.upper),
        exact: outcome.exact,
        winner: outcome.winner.map(Engine::name),
        expanded: outcome.nodes,
    });
    cfg.tracer.flush();
    Ok(outcome)
}

/// Picks the engines that get a worker slot and the ones that don't.
///
/// A lineup that fits the portfolio's threads launches in lineup order;
/// otherwise the engines' claim ranks decide who wins a slot. Whatever
/// falls off is *returned*, not dropped: the caller records it in the
/// trace stream and the outcome's diagnostics.
fn pick_engines(cfg: &SearchConfig) -> (Vec<Engine>, Vec<Engine>) {
    let mut picked = cfg.engines.clone().unwrap_or_else(Engine::default_lineup);
    let slots = cfg.num_threads.max(1);
    if picked.len() <= slots {
        return (picked, Vec::new());
    }
    picked.sort_by_key(|e| e.claim_rank());
    let skipped = picked.split_off(slots);
    (picked, skipped)
}

fn solve_portfolio(problem: &Problem, cfg: &SearchConfig) -> Result<Outcome, HtdError> {
    // Zero wall-clock budget: don't launch engines at all (the deadline
    // would have to race them down). Return the cheap heuristic incumbent
    // immediately, never claiming exactness.
    if cfg.time_limit.is_some_and(|d| d.is_zero()) {
        return Ok(zero_budget_outcome(problem, cfg));
    }
    let (engines, skipped) = pick_engines(cfg);
    if !skipped.is_empty() {
        cfg.tracer.emit_with(|| Event::EnginesSkipped {
            engines: skipped
                .iter()
                .map(|e| e.name())
                .collect::<Vec<_>>()
                .join(","),
            slots: cfg.num_threads.max(1) as u64,
        });
    }
    let inc = cfg.incumbent();
    // one cover cache per covering strategy: exact for the searches,
    // greedy for GA/SA fitness (their sizes differ, so they never share)
    let exact_cache = cfg.exact_cover_cache();
    let greedy_cache = cfg.private_cover_cache();

    let worker_cfg = SearchConfig {
        shared: Some(Arc::clone(&inc)),
        cover_cache: Some(Arc::clone(&exact_cache)),
        num_threads: 1,
        ..cfg.clone()
    };

    let start = Instant::now();
    let (cover_h0, cover_m0) = (exact_cache.hits(), exact_cache.misses());
    let (reports, deadline_stopped) = crossbeam::thread::scope(|scope| {
        // every worker holds a sender and never sends: the channel
        // disconnects the moment the last worker returns, which is what
        // the caller's timed wait below listens for
        let (running, all_returned) = mpsc::channel::<()>();
        let handles: Vec<_> = engines
            .iter()
            .enumerate()
            .map(|(i, &engine)| {
                let worker_cfg = &worker_cfg;
                let inc = &inc;
                let greedy_cache = &greedy_cache;
                let pool_threads = cfg.num_threads.max(1);
                let running = running.clone();
                scope.spawn(move |_| {
                    let _running = running;
                    let mut cfg_i = worker_cfg.clone();
                    cfg_i.seed = worker_cfg.seed.wrapping_add((i as u64) << 40);
                    let who = engine.name();
                    htd_trace::set_worker(who);
                    cfg_i.tracer.emit(Event::WorkerStarted { worker: who });
                    let wstart = Instant::now();
                    // Quarantine: a panicking engine (a bug, or an injected
                    // fault) loses only its own slot — the shared incumbent
                    // keeps every bound it offered before dying, and the
                    // siblings keep searching.
                    let quarantined = htd_resilience::quarantined(|| {
                        if let Some(f) = &cfg_i.fault {
                            if f.take_panic() {
                                panic!("injected fault: worker panic");
                            }
                        }
                        engine.run(problem, &cfg_i, inc, greedy_cache, pool_threads)
                    });
                    let elapsed = wstart.elapsed();
                    let mut report = quarantined.unwrap_or_else(|message| {
                        cfg_i.tracer.emit_with(|| Event::WorkerPanicked {
                            worker: who,
                            message,
                        });
                        panicked_report(engine)
                    });
                    report.stats.elapsed = elapsed;
                    if report.panicked {
                        return report;
                    }
                    // a worker that returns without its own exactness proof
                    // while the run is cancelled was cut short from outside
                    // (the deadline or a sibling's proof)
                    let cancelled = inc.is_cancelled() && !report.exact;
                    cfg_i.tracer.emit_with(|| {
                        let elapsed_us = elapsed.as_micros() as u64;
                        let upper = (report.upper != u32::MAX).then_some(report.upper);
                        if cancelled {
                            Event::WorkerCancelled {
                                worker: who,
                                lower: report.lower,
                                upper,
                                expanded: report.stats.expanded,
                                elapsed_us,
                            }
                        } else {
                            Event::WorkerFinished {
                                worker: who,
                                lower: report.lower,
                                upper,
                                exact: report.exact,
                                expanded: report.stats.expanded,
                                elapsed_us,
                            }
                        }
                    });
                    report
                })
            })
            .collect();
        drop(running);
        let deadline_stopped = cfg
            .time_limit
            .is_some_and(|limit| await_workers_or_cancel(&all_returned, start + limit, &inc));
        // The quarantine above means worker threads never unwind, but a
        // join failure still must not take down the portfolio: a lost
        // slot degrades to a panicked report.
        let reports: Vec<EngineReport> = engines
            .iter()
            .zip(handles)
            .map(|(&engine, h)| h.join().unwrap_or_else(|_| panicked_report(engine)))
            .collect();
        (reports, deadline_stopped)
    })
    // every worker is joined above, so the scope itself never fails
    .unwrap_or_default();

    let exact = inc.is_exact() || reports.iter().any(|r| r.exact);
    if exact {
        inc.mark_exact();
    }
    // The degradation marker: the governor truncated at least one
    // engine's search, so a non-exact interval may be looser than the
    // node/time budget alone would have produced.
    let degraded = cfg.memory_budget.as_ref().is_some_and(|m| m.exceeded());
    // this solve's cover-cache traffic (the cache may be shared/long-lived)
    let cover_cache_hits = exact_cache.hits().saturating_sub(cover_h0);
    let cover_cache_misses = exact_cache.misses().saturating_sub(cover_m0);
    if cover_cache_hits + cover_cache_misses > 0 {
        cfg.tracer.emit_with(|| Event::CacheStats {
            cache: "cover_exact",
            hits: cover_cache_hits,
            misses: cover_cache_misses,
            entries: exact_cache.len() as u64,
        });
    }
    let upper = inc.upper();
    Ok(Outcome {
        objective: problem.objective,
        lower: if exact { upper } else { inc.lower().min(upper) },
        upper,
        exact,
        witness: inc.best_order().map(EliminationOrdering::new_unchecked),
        nodes: reports.iter().map(|r| r.stats.expanded).sum(),
        elapsed: start.elapsed(),
        per_engine: reports,
        winner: inc.winner(),
        time_to_first_upper: inc.time_to_first_upper(),
        time_to_best_upper: inc.time_to_best_upper(),
        cover_cache_hits,
        cover_cache_misses,
        degraded,
        skipped_engines: skipped,
        deadline_stopped,
        mem_budget_aborts: inc.mem_aborts(),
        detk: DetkEffort::default(),
    })
}

/// The deadline of a portfolio run, kept by the thread that called
/// [`solve`] while its workers search: it waits until every worker has
/// returned (`all_returned` disconnects) or `deadline` passes, and in the
/// latter case cancels the incumbent, so engines that only poll the
/// cancel flag at coarse boundaries (GA batches, lower-bound rounds) stop
/// too. Returns `true` iff the deadline stopped the run: a run already
/// cancelled by then (an exact proof, or a caller's own cancel) was not.
fn await_workers_or_cancel(
    all_returned: &Receiver<()>,
    deadline: Instant,
    inc: &Incumbent,
) -> bool {
    loop {
        let now = Instant::now();
        if now >= deadline {
            if inc.is_cancelled() {
                return false;
            }
            inc.cancel();
            return true;
        }
        match all_returned.recv_timeout(deadline - now) {
            Err(RecvTimeoutError::Disconnected) => return false,
            Ok(()) | Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// The report of a quarantined worker: an empty contribution, flagged.
fn panicked_report(engine: Engine) -> EngineReport {
    EngineReport {
        panicked: true,
        ..blank_report(engine)
    }
}

/// The `--time 0` fast path: one greedy upper bound (min-fill; greedy
/// covers for ghw — sound and far cheaper than exact ones) plus one
/// lower-bound round, reported as a non-exact anytime interval.
fn zero_budget_outcome(problem: &Problem, cfg: &SearchConfig) -> Outcome {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = problem.graph();
    let ho = htd_heuristics::upper::min_fill(g, &mut rng);
    let (upper, witness) = match problem.objective {
        Objective::Treewidth => (ho.width, Some(ho.ordering)),
        _ => {
            let h = problem.hypergraph().expect("validated");
            let mut ev = GhwEvaluator::new(h, CoverStrategy::Greedy);
            match ev.width(ho.ordering.as_slice()) {
                Some(w) => (w, Some(ho.ordering)),
                None => (u32::MAX, None),
            }
        }
    };
    let lower = match problem.objective {
        Objective::Treewidth => htd_heuristics::combined_lower_bound(g, &mut rng),
        _ => htd_heuristics::ghw_lower_bound(problem.hypergraph().expect("validated"), &mut rng),
    };
    let report = EngineReport {
        lower,
        upper,
        stats: SearchStats {
            generated: 1,
            elapsed: start.elapsed(),
            ..SearchStats::default()
        },
        ..blank_report(Engine::Heuristic)
    };
    Outcome {
        objective: problem.objective,
        lower: lower.min(upper),
        upper,
        exact: false,
        witness,
        nodes: 0,
        elapsed: start.elapsed(),
        per_engine: vec![report],
        winner: (upper != u32::MAX).then_some(Engine::Heuristic),
        time_to_first_upper: None,
        time_to_best_upper: None,
        cover_cache_hits: 0,
        cover_cache_misses: 0,
        degraded: false,
        skipped_engines: Vec::new(),
        deadline_stopped: false,
        mem_budget_aborts: 0,
        detk: DetkEffort::default(),
    }
}

/// A fresh, empty report for `engine`.
pub(crate) fn blank_report(engine: Engine) -> EngineReport {
    EngineReport {
        engine,
        lower: 0,
        upper: u32::MAX,
        exact: false,
        panicked: false,
        stats: SearchStats::default(),
    }
}

// ---------------------------------------------------------------------
// Engine runners: `Engine::run` (`crate::registry`) dispatches to these,
// each filling in the report the worker hands it.

/// One exact search, with its measure picked by the problem's objective.
pub(crate) fn run_search(
    problem: &Problem,
    cfg: &SearchConfig,
    tw: fn(&Graph, &SearchConfig) -> SearchOutcome,
    ghw: fn(&Hypergraph, &SearchConfig) -> Option<SearchOutcome>,
    report: &mut EngineReport,
) {
    let out = match problem.objective {
        Objective::GeneralizedHypertreeWidth => {
            ghw(problem.hypergraph().expect("validated"), cfg).expect("validated: coverable")
        }
        _ => tw(problem.graph(), cfg),
    };
    report.lower = out.lower;
    report.upper = out.upper;
    report.exact = out.exact;
    report.stats = out.stats;
}

/// Upper-bound heuristics: greedy orderings, then iterated local search
/// rounds with fresh seeds, each offered to the incumbent.
pub(crate) fn run_heuristic(
    problem: &Problem,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    report: &mut EngineReport,
) {
    use htd_heuristics::{improve_ordering_until, upper, IlsParams};
    let g = problem.graph();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ghw_ev = || {
        let h = problem.hypergraph().expect("validated");
        GhwEvaluator::with_cache(h, CoverStrategy::Exact, cfg.exact_cover_cache())
    };
    let offer = |ordering: &EliminationOrdering,
                 tw_width: u32,
                 ev: &mut Option<GhwEvaluator>,
                 report: &mut EngineReport| {
        let width = match problem.objective {
            Objective::Treewidth => tw_width,
            _ => match ev
                .as_mut()
                .expect("ghw evaluator")
                .width(ordering.as_slice())
            {
                Some(w) => w,
                None => return,
            },
        };
        report.offer(inc, &cfg.tracer, width, ordering.as_slice());
        report.stats.generated += 1;
    };
    let mut ev = (problem.objective != Objective::Treewidth).then(ghw_ev);
    let seeds: Vec<_> = [
        upper::min_fill(g, &mut rng),
        upper::min_degree(g, &mut rng),
        upper::max_cardinality_search(g, &mut rng),
    ]
    .into_iter()
    .collect();
    for ho in &seeds {
        offer(&ho.ordering, ho.width, &mut ev, report);
    }
    // ILS rounds (treewidth only — the ILS objective is bag size): keep
    // improving from the greedy seeds until cancelled or out of rounds
    if problem.objective == Objective::Treewidth {
        let params = IlsParams::default();
        for round in 0..8u64 {
            if inc.is_cancelled() {
                break;
            }
            if round > 0 {
                cfg.tracer.emit(Event::RestartTriggered {
                    worker: Engine::Heuristic.name(),
                    round: round as u32,
                });
            }
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (round << 16) | 1);
            let start = &seeds[(round as usize) % seeds.len()].ordering;
            // a single ILS pass can outlast the deadline on dense graphs,
            // so the cancel flag is polled inside the pass, not just here
            let (ordering, width) =
                improve_ordering_until(g, start, &params, &|| inc.is_cancelled(), &mut rng);
            offer(&ordering, width, &mut ev, report);
        }
    }
}

/// Lower-bound worker: randomized minor-based bounds over several seeds.
pub(crate) fn run_lower_bound(
    problem: &Problem,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    report: &mut EngineReport,
) {
    for round in 0..4u64 {
        if inc.is_cancelled() {
            break;
        }
        if round > 0 {
            cfg.tracer.emit(Event::RestartTriggered {
                worker: Engine::LowerBound.name(),
                round: round as u32,
            });
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (round << 8) | 3);
        let lb = match problem.objective {
            Objective::Treewidth => htd_heuristics::combined_lower_bound(problem.graph(), &mut rng),
            _ => {
                htd_heuristics::ghw_lower_bound(problem.hypergraph().expect("validated"), &mut rng)
            }
        };
        report.lower = report.lower.max(lb);
        inc.raise_traced(&cfg.tracer, Engine::LowerBound, lb);
        report.stats.generated += 1;
    }
}

/// GA worker: small-generation batches with fresh seeds, each batch's best
/// offered to the incumbent, until cancelled or out of batches.
pub(crate) fn run_genetic(
    problem: &Problem,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    greedy_cache: &Arc<CoverCache>,
    report: &mut EngineReport,
) {
    let params = GaParams {
        population: 48,
        generations: 30,
        ..GaParams::default()
    };
    for batch in 0..16u64 {
        if inc.is_cancelled() {
            break;
        }
        if batch > 0 {
            cfg.tracer.emit(Event::RestartTriggered {
                worker: Engine::Genetic.name(),
                round: batch as u32,
            });
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (batch << 24) | 5);
        match problem.objective {
            Objective::Treewidth => {
                let r = htd_ga::ga_tw(problem.graph(), &params, &mut rng);
                report.offer(inc, &cfg.tracer, r.width, r.ordering.as_slice());
                report.stats.generated += r.inner.evaluations;
            }
            _ => {
                let h = problem.hypergraph().expect("validated");
                // greedy covers: still sound upper bounds, far cheaper
                if let Some(r) =
                    htd_ga::ga_ghw_cached(h, &params, Arc::clone(greedy_cache), &mut rng)
                {
                    report.offer(inc, &cfg.tracer, r.width, r.ordering.as_slice());
                    report.stats.generated += r.inner.evaluations;
                }
            }
        }
    }
}

/// SA worker: a few annealing runs with fresh seeds.
pub(crate) fn run_annealing(
    problem: &Problem,
    cfg: &SearchConfig,
    inc: &Arc<Incumbent>,
    report: &mut EngineReport,
) {
    let params = SaParams::default();
    for round in 0..8u64 {
        if inc.is_cancelled() {
            break;
        }
        if round > 0 {
            cfg.tracer.emit(Event::RestartTriggered {
                worker: Engine::Annealing.name(),
                round: round as u32,
            });
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (round << 32) | 7);
        match problem.objective {
            Objective::Treewidth => {
                let (ordering, width) = htd_ga::sa::sa_tw(problem.graph(), &params, &mut rng);
                report.offer(inc, &cfg.tracer, width, ordering.as_slice());
            }
            _ => {
                let h = problem.hypergraph().expect("validated");
                if let Some((ordering, width)) = htd_ga::sa::sa_ghw(h, &params, &mut rng) {
                    report.offer(inc, &cfg.tracer, width, ordering.as_slice());
                }
            }
        }
        report.stats.generated += 1;
    }
}

/// `hw` runs det-k-decomp sequentially (its witness is a decomposition
/// tree, not an ordering, and it has no anytime interior). The ghw lower
/// bound primes the iteration since `ghw ≤ hw`.
///
/// The search stops at `cfg.time_limit` or when the run's incumbent is
/// cancelled. A stopped search proves no decomposition, so its outcome is
/// not exact, has no upper bound, and its lower bound is the smallest
/// width it had not refuted yet.
fn solve_hw(problem: &Problem, cfg: &SearchConfig) -> Result<Outcome, HtdError> {
    let h = problem.hypergraph().expect("validated");
    let start = Instant::now();
    let deadline = cfg.time_limit.map(|limit| start + limit);
    let inc = cfg.incumbent();
    let stop = || inc.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let lb = if h.num_vertices() == 0 {
        0
    } else {
        htd_heuristics::ghw_lower_bound(h, &mut rng).max(1)
    };
    let mut detk = DetkEffort::default();
    let (lower, upper, exact) = match crate::detk::hypertree_width_until(h, lb, &stop, &mut detk) {
        Width::Exact(width, _hd) => (width, width, true),
        Width::Stopped { lower } => (lower, u32::MAX, false),
        Width::Undecomposable => {
            return Err(HtdError::Invalid(
                "no hypertree decomposition exists".into(),
            ))
        }
    };
    Ok(Outcome {
        objective: Objective::HypertreeWidth,
        lower,
        upper,
        exact,
        witness: None,
        nodes: 0,
        elapsed: start.elapsed(),
        // det-k is no portfolio engine: no engine ran, none is credited
        per_engine: Vec::new(),
        winner: None,
        time_to_first_upper: None,
        time_to_best_upper: None,
        cover_cache_hits: 0,
        cover_cache_misses: 0,
        degraded: false,
        skipped_engines: Vec::new(),
        // a stopped det-k search was stopped by the deadline unless the
        // caller cancelled it first
        deadline_stopped: !exact && !inc.is_cancelled(),
        mem_budget_aborts: 0,
        detk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::TwEvaluator;
    use htd_hypergraph::gen;

    #[test]
    fn tw_sequential_matches_bb() {
        let g = gen::grid_graph(4, 4);
        let out = solve(&Problem::treewidth(g.clone()), &SearchConfig::default()).unwrap();
        assert_eq!(out.exact_width(), Some(4));
        let mut ev = TwEvaluator::new(&g);
        assert!(ev.width(out.witness.unwrap().as_slice()) <= 4);
    }

    #[test]
    fn tw_portfolio_agrees_with_sequential() {
        for seed in 0..4u64 {
            let g = gen::random_gnp(10, 0.35, seed);
            let seq = solve(&Problem::treewidth(g.clone()), &SearchConfig::default()).unwrap();
            let par = solve(
                &Problem::treewidth(g.clone()),
                &SearchConfig::default().with_threads(4),
            )
            .unwrap();
            assert!(par.exact, "seed {seed}");
            assert_eq!(par.upper, seq.upper, "seed {seed}");
            assert!(!par.per_engine.is_empty());
        }
    }

    #[test]
    fn ghw_portfolio_agrees_with_sequential() {
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let seq = solve(&Problem::ghw(th.clone()), &SearchConfig::default()).unwrap();
        let par = solve(&Problem::ghw(th), &SearchConfig::default().with_threads(4)).unwrap();
        assert_eq!(seq.exact_width(), Some(2));
        assert_eq!(par.exact_width(), Some(2));
    }

    #[test]
    fn hw_solves_exactly() {
        let c = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let out = solve(&Problem::hw(c), &SearchConfig::default()).unwrap();
        assert_eq!(out.exact_width(), Some(2));
        assert!(out.witness.is_none());
        assert!(!out.deadline_stopped);
        // det-k refuted width 1 and then decomposed at width 2
        assert!(out.detk.subproblems >= 2, "{:?}", out.detk);
    }

    #[test]
    fn uncoverable_is_invalid() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let err = solve(&Problem::ghw(h), &SearchConfig::default()).unwrap_err();
        assert!(matches!(err, HtdError::Invalid(_)));
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let g = gen::queen_graph(4);
        let out = solve(
            &Problem::treewidth(g),
            &SearchConfig::default().with_threads(2),
        )
        .unwrap();
        let doc = out.to_json().to_string();
        let back = Outcome::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.lower, out.lower);
        assert_eq!(back.upper, out.upper);
        assert_eq!(back.exact, out.exact);
        assert_eq!(
            back.witness.map(|w| w.into_vec()),
            out.witness.map(|w| w.into_vec())
        );
        assert_eq!(back.per_engine.len(), out.per_engine.len());
        for (a, b) in back.per_engine.iter().zip(&out.per_engine) {
            assert_eq!(a.engine, b.engine);
            assert_eq!(a.stats.expanded, b.stats.expanded);
        }
    }

    #[test]
    fn bounds_above_u32_are_refused_not_truncated() {
        let out = solve(
            &Problem::treewidth(gen::cycle_graph(5)),
            &SearchConfig::default(),
        )
        .unwrap();
        let doc = out.to_json();
        let with = |key: &str, value: Json| {
            let Json::Obj(mut members) = doc.clone() else {
                unreachable!("an outcome is an object")
            };
            for (k, v) in &mut members {
                if k == key {
                    *v = value.clone();
                }
            }
            Json::Obj(members)
        };
        // 4294967298 as u32 is 2: a claim with lower > upper must not
        // turn into one with lower < upper
        for (key, value) in [
            ("lower", Json::uint(4_294_967_298)),
            ("upper", Json::uint(1 << 32)),
            ("witness", Json::Arr(vec![Json::uint(1 << 32)])),
        ] {
            let err = Outcome::from_json(&with(key, value)).unwrap_err();
            assert!(matches!(err, HtdError::Parse(_)), "{key}: {err:?}");
        }
        let mut engines = doc.get("engines").unwrap().as_arr().unwrap().to_vec();
        let Json::Obj(report) = &mut engines[0] else {
            unreachable!("an engine report is an object")
        };
        report.retain(|(k, _)| k != "upper");
        report.push(("upper".into(), Json::uint(u64::from(u32::MAX) + 1)));
        assert!(Outcome::from_json(&with("engines", Json::Arr(engines))).is_err());
    }

    #[test]
    fn zero_time_budget_returns_heuristic_incumbent_immediately() {
        let g = gen::queen_graph(6);
        let started = std::time::Instant::now();
        let out = solve(
            &Problem::treewidth(g.clone()),
            &SearchConfig::default().with_time_limit(Duration::from_millis(0)),
        )
        .unwrap();
        // immediately = no engines launched, just greedy bounds; generous
        // wall-clock guard so the test never flakes under load
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(!out.exact, "zero budget must never claim exactness");
        assert!(out.upper < u32::MAX, "heuristic incumbent present");
        assert!(out.lower <= out.upper);
        assert!(out.witness.is_some());
        assert_eq!(out.nodes, 0, "no search nodes under a zero budget");
        // same contract for ghw, with greedy covers
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let out = solve(
            &Problem::ghw(th),
            &SearchConfig::default()
                .with_time_limit(Duration::from_millis(0))
                .with_threads(4),
        )
        .unwrap();
        assert!(!out.exact);
        assert!(out.upper < u32::MAX);
        assert!(out.lower <= out.upper);
    }

    #[test]
    fn injected_worker_panic_is_quarantined() {
        use htd_resilience::InjectedFaults;
        let g = gen::random_gnp(10, 0.35, 3);
        let out = solve(
            &Problem::treewidth(g.clone()),
            &SearchConfig::default()
                .with_threads(4)
                .with_faults(InjectedFaults::with_panics(1)),
        )
        .unwrap();
        assert_eq!(
            out.per_engine.iter().filter(|r| r.panicked).count(),
            1,
            "exactly one worker claims the injected panic"
        );
        // the survivors still close the gap on a 10-vertex instance
        let clean = solve(&Problem::treewidth(g), &SearchConfig::default()).unwrap();
        assert!(out.exact, "portfolio survives a quarantined worker");
        assert_eq!(out.upper, clean.upper);
        // panicked engines round-trip through JSON
        let doc = out.to_json().to_string();
        let back = Outcome::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.per_engine.iter().filter(|r| r.panicked).count(), 1);
    }

    #[test]
    fn exhausted_memory_budget_degrades_but_stays_sound() {
        let g = gen::queen_graph(5);
        // a budget far below what A*'s open/closed sets need
        let cfg = SearchConfig::default()
            .with_threads(2)
            .with_engines(vec![Engine::Heuristic, Engine::AStar])
            .with_memory_budget(2_000);
        let out = solve(&Problem::treewidth(g.clone()), &cfg).unwrap();
        assert!(out.degraded, "tiny budget must mark the outcome degraded");
        assert!(out.mem_budget_aborts >= 1, "A*'s budget counts its abort");
        assert!(out.lower <= out.upper);
        let clean = solve(&Problem::treewidth(g), &SearchConfig::default()).unwrap();
        assert!(out.lower <= clean.upper && out.upper >= clean.upper);
        // degraded flag round-trips
        let doc = out.to_json().to_string();
        let back = Outcome::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert!(back.degraded);
        assert_eq!(back.mem_budget_aborts, 0, "the count stays off the wire");
        // a generous budget does not degrade
        let roomy = solve(
            &Problem::treewidth(gen::cycle_graph(8)),
            &SearchConfig::default().with_memory_budget(1 << 30),
        )
        .unwrap();
        assert!(!roomy.degraded);
        assert_eq!(roomy.mem_budget_aborts, 0);
        assert!(roomy.exact);
    }

    #[test]
    fn engine_selection_is_honored() {
        let g = gen::cycle_graph(8);
        let out = solve(
            &Problem::treewidth(g),
            &SearchConfig::default()
                .with_threads(2)
                .with_engines(vec![Engine::Heuristic, Engine::LowerBound]),
        )
        .unwrap();
        assert_eq!(out.per_engine.len(), 2);
        assert!(out.lower <= 2 && out.upper >= 2);
    }

    #[test]
    fn an_empty_lineup_is_an_error() {
        let cfg = SearchConfig::default().with_engines(vec![]);
        for problem in [
            Problem::treewidth(gen::cycle_graph(6)),
            Problem::ghw(gen::adder(2)),
        ] {
            let err = solve(&problem, &cfg).unwrap_err();
            assert!(matches!(err, HtdError::Unsupported(_)), "{err:?}");
            assert!(err.to_string().contains("branch_bound"), "{err}");
        }
        // hw runs det-k-decomp, which takes no lineup
        assert!(solve(&Problem::hw(gen::adder(2)), &cfg).unwrap().exact);
    }
}
