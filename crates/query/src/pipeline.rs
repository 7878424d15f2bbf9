//! The answering pipeline: decompose (shape-cache first), then run
//! Yannakakis semijoin passes over the join tree.
//!
//! One call to [`answer`] runs the whole chain of thesis §2.4 for one
//! query:
//!
//! 1. **decompose** — canonicalize the query hypergraph, consult the
//!    [`ShapeCache`], otherwise solve a treewidth problem through the
//!    engine portfolio (any configured lineup, balanced separators
//!    included) and fall back to min-fill when the portfolio yields no
//!    witness ordering;
//! 2. **refuse-or-run** — place every constraint at a node of the tree
//!    decomposition and bound the tuples the node relations could
//!    materialize ([`htd_csp::yannakakis::estimate`]); if a memory
//!    budget is set and the bound blows it, *refuse* with the estimate
//!    ([`HtdError::ResourceExhausted`]) rather than risk the evaluation:
//!    a refusal is degraded service, a wrong answer is not;
//! 3. **semijoin + extract** — build the node relations once from that
//!    placement ([`NodeRelations`]) and evaluate in one of three modes
//!    ([`AnswerMode`]): boolean/first-answer via full semijoin
//!    reduction, exact count via sum–product message passing when the
//!    head keeps every variable (a count above `u64::MAX` is refused
//!    with [`HtdError::Unsupported`], never wrapped), and bounded-delay
//!    enumeration otherwise. Projection heads (`Q(x) :- R(x,y), ...`)
//!    answer with *distinct* head assignments; the deduplication set is
//!    charged against the memory budget tuple by tuple, so even
//!    enumeration degrades to a refusal instead of an over-budget answer.
//!
//! Decomposition runs under the `answer.decompose` span and evaluation
//! under `answer.evaluate`; with the search config's tracer on, both
//! write `span_enter`/`span_exit` events into its stream (the caller
//! times parsing under `answer.parse`). The pipeline counts nothing
//! itself: a server counts answers, tuples scanned and refusals from the
//! results it returns.

use std::sync::Arc;
use std::time::Instant;

use htd_core::bucket::td_of_hypergraph;
use htd_core::{EliminationOrdering, HtdError, Json, TreeDecomposition};
use htd_csp::yannakakis::{estimate, place};
use htd_csp::{NodeRelations, Value};
use htd_hypergraph::io::{self, MAX_EDGE_SET_BYTES, MAX_VERTICES};
use htd_hypergraph::{canonical_form, Hypergraph};
use htd_resilience::{quarantined, MemoryBudget};
use htd_search::{solve, Problem, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::parse::Query;
use crate::shape::ShapeCache;

/// How many answers the caller wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerMode {
    /// Satisfiability plus one witness answer.
    Boolean,
    /// The exact number of distinct head assignments.
    Count,
    /// The distinct head assignments themselves, up to a limit.
    Enumerate,
}

impl AnswerMode {
    /// Stable name used on the wire and the CLI (`bool`/`count`/`enum`).
    pub fn name(self) -> &'static str {
        match self {
            AnswerMode::Boolean => "bool",
            AnswerMode::Count => "count",
            AnswerMode::Enumerate => "enum",
        }
    }

    /// Parses [`AnswerMode::name`] (plus the unabbreviated spellings).
    pub fn from_name(s: &str) -> Option<AnswerMode> {
        match s {
            "bool" | "boolean" | "sat" => Some(AnswerMode::Boolean),
            "count" => Some(AnswerMode::Count),
            "enum" | "enumerate" | "all" => Some(AnswerMode::Enumerate),
            _ => None,
        }
    }
}

/// Everything [`answer`] needs besides the query itself.
#[derive(Clone)]
pub struct AnswerOptions {
    /// What to compute.
    pub mode: AnswerMode,
    /// Maximum answers returned in [`AnswerMode::Enumerate`].
    pub limit: u64,
    /// Decomposition search configuration (engines, budgets, tracer —
    /// the tracer also receives the pipeline's `answer.*` span events).
    pub search: SearchConfig,
    /// Memory budget for the evaluation; `None` never refuses.
    pub memory_budget: Option<Arc<MemoryBudget>>,
    /// Decomposition reuse across queries of the same shape.
    pub shape_cache: Option<Arc<ShapeCache>>,
    /// Wall-clock cut-off for the evaluation passes. Counting aborts
    /// with an error at the deadline (a partial count would be wrong);
    /// enumeration returns what it has, marked truncated.
    pub deadline: Option<Instant>,
}

impl Default for AnswerOptions {
    fn default() -> AnswerOptions {
        AnswerOptions {
            mode: AnswerMode::Enumerate,
            limit: u64::MAX,
            search: SearchConfig::default().with_max_nodes(200_000),
            memory_budget: None,
            shape_cache: None,
            deadline: None,
        }
    }
}

/// Pipeline bookkeeping attached to every answer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnswerStats {
    /// Microseconds spent obtaining the decomposition (0 on a cache hit).
    pub decompose_us: u64,
    /// Microseconds spent in the semijoin/extraction passes.
    pub eval_us: u64,
    /// Input relation tuples plus solutions walked during extraction.
    pub tuples_scanned: u64,
    /// `true` iff the decomposition came from the shape cache.
    pub shape_cache_hit: bool,
    /// Width of the decomposition used.
    pub width: u32,
    /// Nodes of the decomposition used.
    pub nodes: u64,
    /// Hex canonical fingerprint of the query hypergraph (the shape key).
    pub fingerprint: String,
    /// `true` iff canonicalization ran to completion.
    pub canonical_complete: bool,
}

/// The result of answering one query.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Head variable names, labelling the tuple columns.
    pub head: Vec<String>,
    /// The mode that produced this answer.
    pub mode: AnswerMode,
    /// `true` iff at least one answer exists.
    pub satisfiable: bool,
    /// Distinct-answer count: always set for [`AnswerMode::Count`], set
    /// for a complete (untruncated) enumeration, absent otherwise.
    pub count: Option<u64>,
    /// Rendered answer tuples: the witness in boolean mode, up to
    /// `limit` distinct answers in enumeration mode.
    pub tuples: Vec<Vec<String>>,
    /// `true` iff enumeration stopped early (limit or deadline).
    pub truncated: bool,
    /// Pipeline bookkeeping.
    pub stats: AnswerStats,
}

impl Answer {
    /// Serializes for the service wire:
    /// `{"head":[..],"mode":..,"satisfiable":..,"count":..,"tuples":[[..]],
    /// "truncated":..,"stats":{..}}` (`count` omitted when unknown).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "head".to_string(),
                Json::Arr(self.head.iter().cloned().map(Json::Str).collect()),
            ),
            ("mode".to_string(), Json::Str(self.mode.name().into())),
            ("satisfiable".to_string(), Json::Bool(self.satisfiable)),
        ];
        if let Some(c) = self.count {
            fields.push(("count".to_string(), Json::uint(c)));
        }
        fields.push((
            "tuples".to_string(),
            Json::Arr(
                self.tuples
                    .iter()
                    .map(|t| Json::Arr(t.iter().cloned().map(Json::Str).collect()))
                    .collect(),
            ),
        ));
        fields.push(("truncated".to_string(), Json::Bool(self.truncated)));
        fields.push((
            "stats".to_string(),
            Json::Obj(vec![
                (
                    "decompose_us".to_string(),
                    Json::Num(self.stats.decompose_us as f64),
                ),
                ("eval_us".to_string(), Json::Num(self.stats.eval_us as f64)),
                (
                    "tuples_scanned".to_string(),
                    Json::Num(self.stats.tuples_scanned as f64),
                ),
                (
                    "shape_cache_hit".to_string(),
                    Json::Bool(self.stats.shape_cache_hit),
                ),
                ("width".to_string(), Json::Num(self.stats.width as f64)),
                ("nodes".to_string(), Json::Num(self.stats.nodes as f64)),
                (
                    "fingerprint".to_string(),
                    Json::Str(self.stats.fingerprint.clone()),
                ),
                (
                    "canonical_complete".to_string(),
                    Json::Bool(self.stats.canonical_complete),
                ),
            ]),
        ));
        Json::Obj(fields)
    }

    /// Parses [`Answer::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Answer, HtdError> {
        let bad = |what: &str| HtdError::Parse(format!("answer JSON: missing or bad '{what}'"));
        let head = match json.get("head") {
            Some(Json::Arr(vs)) => vs
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or_else(|| bad("head")))
                .collect::<Result<_, _>>()?,
            _ => return Err(bad("head")),
        };
        let mode = json
            .get("mode")
            .and_then(Json::as_str)
            .and_then(AnswerMode::from_name)
            .ok_or_else(|| bad("mode"))?;
        let satisfiable = json
            .get("satisfiable")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("satisfiable"))?;
        let count = json.get("count").and_then(Json::as_u64);
        let tuples = match json.get("tuples") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|row| match row {
                    Json::Arr(vs) => vs
                        .iter()
                        .map(|v| v.as_str().map(str::to_string).ok_or_else(|| bad("tuples")))
                        .collect::<Result<Vec<_>, _>>(),
                    _ => Err(bad("tuples")),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(bad("tuples")),
        };
        let truncated = json
            .get("truncated")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let stats = json.get("stats").ok_or_else(|| bad("stats"))?;
        let num = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(Answer {
            head,
            mode,
            satisfiable,
            count,
            tuples,
            truncated,
            stats: AnswerStats {
                decompose_us: num("decompose_us"),
                eval_us: num("eval_us"),
                tuples_scanned: num("tuples_scanned"),
                shape_cache_hit: stats
                    .get("shape_cache_hit")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                width: match stats.get("width") {
                    None => 0,
                    Some(w) => w.as_u32().ok_or_else(|| bad("width"))?,
                },
                nodes: num("nodes"),
                fingerprint: stats
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                canonical_complete: stats
                    .get("canonical_complete")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            },
        })
    }
}

/// Obtains an elimination ordering for the query hypergraph: portfolio
/// witness first, min-fill fallback (the portfolio may prove bounds
/// without surfacing an ordering, e.g. when every engine is cancelled).
fn compute_ordering(h: &Hypergraph, cfg: &SearchConfig) -> Result<EliminationOrdering, HtdError> {
    if h.num_vertices() == 0 {
        return Ok(EliminationOrdering::identity(0));
    }
    let outcome = solve(&Problem::treewidth_of_hypergraph(h.clone()), cfg)?;
    Ok(match outcome.witness {
        Some(w) => w,
        None => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            htd_heuristics::upper::min_fill(&h.primal_graph(), &mut rng).ordering
        }
    })
}

/// Why an evaluation pass stopped before exhausting the search space.
enum Stop {
    Limit,
    Deadline,
    Memory(u64),
}

struct EvalOut {
    satisfiable: bool,
    count: Option<u64>,
    tuples: Vec<Vec<Value>>,
    truncated: bool,
    /// Solutions walked by the extraction pass.
    walked: u64,
}

/// Releases dedup-set charges when evaluation ends, success or not.
struct ChargeGuard<'a> {
    budget: Option<&'a Arc<MemoryBudget>>,
    charged: u64,
}

impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.budget {
            b.release(self.charged);
        }
    }
}

fn eval_query(
    q: &Query,
    td: &TreeDecomposition,
    placed: &[Vec<usize>],
    opts: &AnswerOptions,
) -> Result<EvalOut, HtdError> {
    let head = &q.head;
    let mut rels = NodeRelations::build(&q.csp, td, placed);
    match opts.mode {
        AnswerMode::Boolean => {
            let witness = rels.solve();
            Ok(EvalOut {
                satisfiable: witness.is_some(),
                count: None,
                tuples: witness
                    .map(|a| vec![head.iter().map(|&v| a[v as usize]).collect()])
                    .unwrap_or_default(),
                truncated: false,
                walked: 0,
            })
        }
        AnswerMode::Count if q.head_covers_all_vars() => {
            // full join: sum–product message passing, no materialization
            let count = rels.count().ok_or_else(|| {
                HtdError::Unsupported(format!(
                    "the answer count exceeds 2^64 - 1 = {}, the largest count an answer \
                     can carry",
                    u64::MAX
                ))
            })?;
            Ok(EvalOut {
                satisfiable: count > 0,
                count: Some(count),
                tuples: Vec::new(),
                truncated: false,
                walked: 0,
            })
        }
        AnswerMode::Count | AnswerMode::Enumerate => {
            let enumerate = opts.mode == AnswerMode::Enumerate;
            // a full-join head cannot repeat answers; projections can
            let dedup = !q.head_covers_all_vars();
            let per_key = 32 + 4 * head.len() as u64;
            let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
            let mut guard = ChargeGuard {
                budget: opts.memory_budget.as_ref(),
                charged: 0,
            };
            let mut tuples: Vec<Vec<Value>> = Vec::new();
            let mut distinct: u64 = 0;
            let mut stop: Option<Stop> = None;
            let mut visits: u64 = 0;
            // the projection of the solution at hand; copied only when new
            let mut proj: Vec<Value> = Vec::with_capacity(head.len());
            let visit = |a: &[Value]| {
                visits += 1;
                if visits % 1024 == 0 {
                    if let Some(d) = opts.deadline {
                        if Instant::now() >= d {
                            stop = Some(Stop::Deadline);
                            return false;
                        }
                    }
                }
                proj.clear();
                proj.extend(head.iter().map(|&v| a[v as usize]));
                if dedup {
                    if seen.contains(&proj[..]) {
                        return true;
                    }
                    if let Some(b) = guard.budget {
                        if !b.charge(per_key) {
                            stop = Some(Stop::Memory(distinct));
                            return false;
                        }
                        guard.charged += per_key;
                    }
                    seen.insert(proj.clone());
                }
                distinct += 1;
                if enumerate {
                    tuples.push(proj.clone());
                    if distinct >= opts.limit {
                        stop = Some(Stop::Limit);
                        return false;
                    }
                }
                true
            };
            let walked = if rels.reduce() {
                rels.for_each(visit)
            } else {
                0
            };
            drop(guard);
            match stop {
                Some(Stop::Memory(found)) => Err(HtdError::ResourceExhausted(format!(
                    "answer deduplication blew the memory budget after {found} distinct \
                     answers ({walked} solutions walked); re-run with a larger budget"
                ))),
                Some(Stop::Deadline) if !enumerate => Err(HtdError::Io(format!(
                    "deadline expired during counting after {walked} solutions; \
                     a partial count would be wrong"
                ))),
                Some(stop @ (Stop::Deadline | Stop::Limit)) => Ok(EvalOut {
                    satisfiable: distinct > 0,
                    count: None,
                    tuples,
                    truncated: matches!(stop, Stop::Deadline | Stop::Limit),
                    walked,
                }),
                None => Ok(EvalOut {
                    satisfiable: distinct > 0,
                    count: Some(distinct),
                    tuples,
                    truncated: false,
                    walked,
                }),
            }
        }
    }
}

/// Refuses a query too large to decompose, before anything dense is built
/// for it: decomposing builds the query hypergraph, one vertex set of
/// ⌈n/64⌉ words per atom, and its primal graph, n² bits for n variables.
/// A query over the instance parsers' caps ([`io::check_size`]) is
/// [`HtdError::ResourceExhausted`]. [`answer`] checks it first.
pub fn check_query_size(q: &Query) -> Result<(), HtdError> {
    let (vars, atoms) = (q.csp.num_vars(), q.csp.constraints.len());
    if io::check_size(vars.into(), atoms as u64).is_ok() {
        return Ok(());
    }
    Err(HtdError::ResourceExhausted(format!(
        "refusing decomposition: the query has {vars} variables and {atoms} atoms, more than \
         a decomposition may have ({MAX_VERTICES} variables, {MAX_EDGE_SET_BYTES} bytes of \
         atom sets)"
    )))
}

/// Answers `q` end to end: decompose (shape-cache aware), estimate,
/// evaluate. See the module docs for the stage breakdown; errors are
/// structured [`HtdError`]s — notably [`HtdError::ResourceExhausted`]
/// for a refusal with a size estimate, never a wrong answer.
pub fn answer(q: &Query, opts: &AnswerOptions) -> Result<Answer, HtdError> {
    check_query_size(q)?;
    let h = q.csp.hypergraph();
    let canon = canonical_form(&h);
    let mut stats = AnswerStats {
        fingerprint: canon.hex(),
        canonical_complete: canon.complete,
        ..AnswerStats::default()
    };

    // a failed variable-free guard falsifies the query before any data
    // is consulted; no decomposition needed
    if q.trivially_false || q.csp.num_vars() == 0 {
        let satisfiable = !q.trivially_false;
        let tuples = if satisfiable && opts.mode != AnswerMode::Count {
            vec![Vec::new()]
        } else {
            Vec::new()
        };
        return Ok(Answer {
            head: q.head_names(),
            mode: opts.mode,
            satisfiable,
            count: Some(u64::from(satisfiable)),
            tuples,
            truncated: false,
            stats,
        });
    }

    let t_decompose = Instant::now();
    let sp_decompose = htd_trace::span!("answer.decompose", &opts.search.tracer);
    let cached = opts
        .shape_cache
        .as_ref()
        .and_then(|c| c.lookup(&canon.bytes));
    stats.shape_cache_hit = cached.is_some();
    let order = match cached {
        Some(order) => order,
        None => {
            let order = compute_ordering(&h, &opts.search)?;
            if let Some(c) = &opts.shape_cache {
                c.insert(canon.bytes.clone(), &order);
            }
            order
        }
    };
    let td = td_of_hypergraph(&h, &order);
    drop(sp_decompose);
    stats.decompose_us = t_decompose.elapsed().as_micros() as u64;
    stats.width = td.width();
    stats.nodes = td.num_nodes() as u64;

    // refuse rather than materialize over budget (joins only shrink, so
    // the estimate is an upper bound — see yannakakis::estimate)
    let placed = place(&q.csp, &td);
    if let Some(budget) = &opts.memory_budget {
        let est = estimate(&q.csp, &td, &placed);
        let per_tuple = 4 * (u128::from(td.width()) + 1) + 24;
        let est_bytes = est.saturating_mul(per_tuple);
        if est_bytes > u128::from(u64::MAX) || !budget.would_fit(est_bytes as u64) {
            return Err(HtdError::ResourceExhausted(format!(
                "refusing evaluation: join-tree materialization may reach {est} tuples \
                 (~{} MiB) against a {} MiB budget; decompose with a smaller width or \
                 raise --memory-mb",
                est_bytes >> 20,
                budget.limit() >> 20,
            )));
        }
    }

    let t_eval = Instant::now();
    let sp_eval = htd_trace::span!("answer.evaluate", &opts.search.tracer);
    let eval = quarantined(|| eval_query(q, &td, &placed, opts))
        .map_err(|m| HtdError::Io(format!("query evaluation panicked: {m}")))??;
    drop(sp_eval);
    stats.eval_us = t_eval.elapsed().as_micros() as u64;
    let input_tuples: u64 = q
        .csp
        .constraints
        .iter()
        .map(|c| c.tuples.len() as u64)
        .sum();
    stats.tuples_scanned = input_tuples + eval.walked;

    Ok(Answer {
        head: q.head_names(),
        mode: opts.mode,
        satisfiable: eval.satisfiable,
        count: eval.count,
        tuples: eval
            .tuples
            .into_iter()
            .map(|t| t.into_iter().map(|v| q.render_value(v)).collect())
            .collect(),
        truncated: eval.truncated,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_query, FileAccess};

    fn q(text: &str) -> Query {
        parse_query(text, &FileAccess::Deny).expect("query parses")
    }

    fn opts(mode: AnswerMode) -> AnswerOptions {
        AnswerOptions {
            mode,
            ..AnswerOptions::default()
        }
    }

    const PATH: &str = "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 2 5 ; 9 9 .\nS: 2 7 ; 5 7 .";

    #[test]
    fn enumerates_path_join() {
        let ans = answer(&q(PATH), &opts(AnswerMode::Enumerate)).unwrap();
        assert!(ans.satisfiable);
        assert_eq!(ans.count, Some(2));
        let mut got = ans.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec!["1", "7"], vec!["2", "7"]]);
        assert!(!ans.truncated);
        assert_eq!(ans.head, vec!["x", "y"]);
        assert!(ans.stats.tuples_scanned >= 5);
    }

    #[test]
    fn counts_distinct_projections() {
        // distinct x with an R-successor: 1, 2 (not 9)
        let ans = answer(
            &q("Q(x) :- R(x, z), S(z, y).\nR: 1 2 ; 2 5 ; 9 9 .\nS: 2 7 ; 5 7 ."),
            &opts(AnswerMode::Count),
        )
        .unwrap();
        assert_eq!(ans.count, Some(2));
        assert!(ans.tuples.is_empty());
    }

    #[test]
    fn boolean_yields_a_witness() {
        let ans = answer(&q(PATH), &opts(AnswerMode::Boolean)).unwrap();
        assert!(ans.satisfiable);
        assert_eq!(ans.tuples.len(), 1);
        let unsat = answer(
            &q("Q(x) :- R(x), S(x).\nR: 1 .\nS: 2 ."),
            &opts(AnswerMode::Boolean),
        )
        .unwrap();
        assert!(!unsat.satisfiable);
        assert!(unsat.tuples.is_empty());
    }

    #[test]
    fn limit_truncates_enumeration() {
        let ans = answer(
            &q(PATH),
            &AnswerOptions {
                limit: 1,
                ..opts(AnswerMode::Enumerate)
            },
        )
        .unwrap();
        assert_eq!(ans.tuples.len(), 1);
        assert!(ans.truncated);
        assert_eq!(ans.count, None);
    }

    #[test]
    fn trivially_false_guard_short_circuits() {
        let ans = answer(
            &q("Q(x) :- R(x), S(9).\nR: 1 .\nS: 1 ."),
            &opts(AnswerMode::Count),
        )
        .unwrap();
        assert!(!ans.satisfiable);
        assert_eq!(ans.count, Some(0));
    }

    #[test]
    fn shape_cache_reuses_decomposition_across_data() {
        let cache = Arc::new(ShapeCache::new(16));
        let with_cache = |text: &str, mode| {
            answer(
                &q(text),
                &AnswerOptions {
                    shape_cache: Some(Arc::clone(&cache)),
                    ..opts(mode)
                },
            )
            .unwrap()
        };
        let a = with_cache(PATH, AnswerMode::Count);
        assert!(!a.stats.shape_cache_hit);
        // same shape, different data AND different variable names
        let b = with_cache(
            "Q(a, b) :- R(a, c), S(c, b).\nR: 4 4 .\nS: 4 8 ; 4 6 .",
            AnswerMode::Enumerate,
        );
        assert!(b.stats.shape_cache_hit, "isomorphic shape must hit");
        assert_eq!(a.stats.fingerprint, b.stats.fingerprint);
        assert_eq!(a.count, Some(2));
        let mut got = b.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec!["4", "6"], vec!["4", "8"]]);
    }

    #[test]
    fn queries_over_the_vertex_cap_are_refused_before_decomposing() {
        let atoms: Vec<String> = (0..MAX_VERTICES)
            .map(|i| format!("R(v{i}, v{})", i + 1))
            .collect();
        let text = format!("Q() :- {}.\nR: 1 2 .", atoms.join(", "));
        let query = q(&text);
        assert_eq!(query.csp.num_vars(), MAX_VERTICES + 1);
        match answer(&query, &opts(AnswerMode::Count)).unwrap_err() {
            HtdError::ResourceExhausted(msg) => {
                assert!(msg.contains("16385") && msg.contains("16384"), "{msg}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // at the cap, 2 KiB per atom: 32769 atoms take more than 64 MiB
        let atoms: Vec<String> = (0..2 * MAX_VERTICES + 1)
            .map(|i| format!("R(v{}, v{})", i % MAX_VERTICES, (i + 1) % MAX_VERTICES))
            .collect();
        let query = q(&format!("Q() :- {}.\nR: 1 2 .", atoms.join(", ")));
        assert_eq!(query.csp.num_vars(), MAX_VERTICES);
        match answer(&query, &opts(AnswerMode::Count)).unwrap_err() {
            HtdError::ResourceExhausted(msg) => assert!(msg.contains("32769 atoms"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_refuses_with_estimate() {
        // 3-clique of full binary relations: node estimates explode
        let mut big = String::from("Q(x, y, z) :- R(x, y), S(y, z), T(z, x).\n");
        for rel in ["R", "S", "T"] {
            big.push_str(&format!("{rel}:"));
            for i in 0..40 {
                for j in 0..40 {
                    big.push_str(&format!(" {i} {j} ;"));
                }
            }
            big.push_str(" .\n");
        }
        let err = answer(
            &q(&big),
            &AnswerOptions {
                memory_budget: Some(MemoryBudget::new(1024)),
                ..opts(AnswerMode::Count)
            },
        )
        .unwrap_err();
        match err {
            HtdError::ResourceExhausted(msg) => {
                assert!(msg.contains("refusing") || msg.contains("budget"), "{msg}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn answers_agree_with_brute_force() {
        let query = q(PATH);
        let ans = answer(&query, &opts(AnswerMode::Count)).unwrap();
        // brute force over all assignments
        let csp = &query.csp;
        let n = csp.variables.len();
        let mut expected = std::collections::HashSet::new();
        let mut assignment = vec![0u32; n];
        loop {
            if csp.is_solution(&assignment) {
                expected.insert(
                    query
                        .head
                        .iter()
                        .map(|&v| assignment[v as usize])
                        .collect::<Vec<_>>(),
                );
            }
            let mut i = 0;
            loop {
                if i == n {
                    break;
                }
                assignment[i] += 1;
                if assignment[i] < csp.domain_sizes[i] {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
            if i == n {
                break;
            }
        }
        assert_eq!(ans.count, Some(expected.len() as u64));
    }

    #[test]
    fn json_round_trip() {
        let ans = answer(&q(PATH), &opts(AnswerMode::Enumerate)).unwrap();
        let back = Answer::from_json(&ans.to_json()).unwrap();
        assert_eq!(ans, back);
    }
}
