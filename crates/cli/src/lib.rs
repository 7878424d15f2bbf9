//! Implementation of the `htd` command-line tool.
//!
//! Subcommands:
//!
//! * `htd info <file>` — instance statistics and quick bounds;
//! * `htd tw <file>` — treewidth (exact by default; `--fast` for
//!   heuristic-only bounds);
//! * `htd ghw <file>` — generalized hypertree width (likewise);
//! * `htd hw <file>` — hypertree width via det-k-decomp;
//! * `htd decompose <file> [--format td|dot|cert]` — emit a tree
//!   decomposition (`cert` emits a self-contained JSON certificate for
//!   `htd check`);
//! * `htd check <file>` — re-verify a decomposition certificate with the
//!   independent oracle of `htd-check`, printing a condition-level
//!   violation report and exiting nonzero when it fails;
//! * `htd solve <file.csp> [--count] [--all N]` — solve a CSP (text
//!   format of `htd_csp::io`) through a tree decomposition;
//! * `htd answer <file.cq> [--mode bool|count|enum] [--limit N]` —
//!   answer a conjunctive query (rule + relations, format of
//!   `htd-query`; see `docs/answering.md`) through the decompose-then-
//!   semijoin pipeline, locally or (`--addr`) against a server;
//! * `htd gen <name>` — print a named benchmark instance;
//! * `htd serve [--addr A] [--threads N] [--cache-mb N] [--queue N]` —
//!   run the decomposition server of `htd_service` (newline-JSON over
//!   TCP plus `/healthz` and `/metrics` HTTP probes; unix only);
//! * `htd query <file> --addr A [--objective tw|ghw|hw] [--time MS]` —
//!   solve an instance against a running server.
//!
//! Global flags: `--format human|json` (width commands; json emits one
//! [`Outcome`] object per line in the schema documented on
//! [`Outcome::to_json`]), `--quiet`, `--threads N` (N > 1 runs the anytime
//! portfolio), `--seed N`, `--budget N` (node budget), `--time MS`
//! (wall-clock budget in milliseconds), `--trace FILE` (write the solver's
//! structured JSONL event stream — schema v3 of `htd_trace`, documented in
//! `docs/observability.md`). `--help` after a subcommand prints its usage.
//!
//! Instance files go through `htd_hypergraph::io::read`, the reader the
//! service uses too. The content decides first: a `p tw` (PACE) or
//! `p edge` / `p col` (DIMACS) header picks the graph parser whatever the
//! extension. Headerless text goes by extension: `.gr`, `.col` and
//! `.dimacs` to their graph parser, anything else to the HyperBench
//! atom-list parser. `-` reads stdin. A repeated header in a `.gr`, `.col`
//! or `.csp` file, and an atom list with no atoms, are parse errors
//! whatever the file name, stdin included.
//!
//! Errors never panic: every failure is an [`HtdError`], and the binary
//! maps the variant to a distinct nonzero exit code (parse → 2,
//! invalid instance → 3, unsupported request → 4, io → 5, resource
//! exhausted → 6; see `docs/robustness.md`).

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Duration;

use htd_check::Certificate;
use htd_core::bucket::{td_of_hypergraph, vertex_elimination};
use htd_core::ordering::EliminationOrdering;
use htd_core::{dot, pace, CoverStrategy, HtdError, Json};
use htd_hypergraph::gen;
use htd_hypergraph::io::{self, Instance};
use htd_query::{parse_query, Answer, AnswerMode, AnswerOptions, FileAccess, Query};
use htd_resilience::MemoryBudget;
use htd_search::{dp_treewidth_budgeted, solve, Engine, Objective, Outcome, Problem, SearchConfig};
use htd_service::{Client, ServeOptions, Status};
use htd_trace::{JsonlSink, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parses instance `text` named `name` with [`io::read`], in the format
/// [`io::Format::of`] reads from the content and the name.
pub fn parse_instance(name: &str, text: &str) -> Result<Instance, HtdError> {
    io::read(io::Format::of(name, text), text).map_err(|e| HtdError::Parse(e.to_string()))
}

/// Output format of the width subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// Prose lines (the default).
    Human,
    /// One [`Outcome`] JSON object per line.
    Json,
}

/// Options shared by the subcommands.
#[derive(Clone, Debug)]
pub struct Options {
    /// Heuristic-only bounds instead of the default exact search.
    pub fast: bool,
    /// Explicit engine lineup (engine names, launch order); `None` means
    /// the default lineup. Overrides `--fast`.
    pub engines: Option<Vec<String>>,
    /// Node budget for exact searches.
    pub budget: u64,
    /// Wall-clock budget.
    pub time_limit: Option<Duration>,
    /// Output format; width commands accept `human`/`json`, `decompose`
    /// accepts `td`/`dot`. `None` means the command's default.
    pub format: Option<String>,
    /// Print only the essential result line.
    pub quiet: bool,
    /// Worker threads; more than one runs the anytime portfolio.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// `solve`: report the solution count instead of one solution.
    pub count: bool,
    /// `solve`: list up to this many solutions.
    pub all: Option<u64>,
    /// `serve`/`query`: server address.
    pub addr: Option<String>,
    /// `serve`: result-cache capacity in MiB.
    pub cache_mb: usize,
    /// `serve`: bounded work-queue capacity.
    pub queue: usize,
    /// `query`: objective name (`tw`/`ghw`/`hw`).
    pub objective: Option<String>,
    /// Write the solver's structured event stream (JSONL, schema v3 of
    /// `htd_trace`) to this file.
    pub trace: Option<String>,
    /// Enable the span profiler and write folded stacks
    /// (`worker;span;child self_us` per line, flamegraph-ready) to this
    /// file after the command finishes.
    pub profile: Option<String>,
    /// `serve`: oracle-verify every response before caching it.
    pub verify: bool,
    /// Memory budget in MiB for solves (`tw`/`ghw` locally, or per
    /// request under `serve`); exceeding it degrades to anytime bounds.
    pub memory_mb: Option<u64>,
    /// `serve`: seeded chaos-mode fault injection (testing only).
    pub chaos_seed: Option<u64>,
    /// `tw`: use the all-or-nothing Held–Karp subset DP instead of the
    /// portfolio. Under `--memory-mb` it refuses upfront (exit code 6)
    /// when its table estimate does not fit.
    pub dp: bool,
    /// `answer`: what to compute (`bool`/`count`/`enum`).
    pub mode: Option<String>,
    /// `answer`: maximum enumerated answers.
    pub limit: Option<u64>,
    /// `serve`: directory of the persistent verified certificate store;
    /// loaded entries are oracle-re-verified before warming the cache.
    pub store: Option<String>,
    /// `serve`: this node's stable cluster id (required with `--peers`).
    pub node_id: Option<String>,
    /// `serve`: the other cluster members as `id=host:port,..`.
    pub peers: Option<String>,
    /// `serve`: owners per key (primary + replicas) on the cluster ring.
    pub replication: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            fast: false,
            engines: None,
            budget: 1_000_000,
            time_limit: None,
            format: None,
            quiet: false,
            threads: 1,
            seed: 1,
            count: false,
            all: None,
            addr: None,
            cache_mb: 64,
            queue: 64,
            objective: None,
            trace: None,
            profile: None,
            verify: false,
            memory_mb: None,
            chaos_seed: None,
            dp: false,
            mode: None,
            limit: None,
            store: None,
            node_id: None,
            peers: None,
            replication: None,
        }
    }
}

impl Options {
    fn search_config(&self) -> Result<SearchConfig, HtdError> {
        let mut cfg = SearchConfig::default()
            .with_max_nodes(self.budget)
            .with_seed(self.seed)
            .with_threads(self.threads);
        if let Some(t) = self.time_limit {
            cfg = cfg.with_time_limit(t);
        }
        if let Some(mb) = self.memory_mb {
            cfg = cfg.with_memory_budget(mb << 20);
        }
        if let Some(names) = &self.engines {
            cfg = cfg.with_engines(htd_search::engines_from_names(names)?);
        } else if self.fast {
            cfg = cfg.with_engines(vec![Engine::Heuristic, Engine::LowerBound]);
        }
        if let Some(path) = &self.trace {
            let sink = JsonlSink::create(path)
                .map_err(|e| HtdError::Io(format!("--trace {path}: {e}")))?;
            cfg = cfg.with_tracer(Tracer::new(Box::new(sink)));
        }
        Ok(cfg)
    }

    fn output_format(&self) -> Result<OutputFormat, HtdError> {
        match self.format.as_deref() {
            None | Some("human") => Ok(OutputFormat::Human),
            Some("json") => Ok(OutputFormat::Json),
            Some(f) => Err(HtdError::Unsupported(format!(
                "format '{f}' (expected human|json)"
            ))),
        }
    }
}

/// Parses trailing flags into [`Options`].
pub fn parse_options(args: &[String]) -> Result<Options, HtdError> {
    let mut o = Options::default();
    let mut it = args.iter();
    let numeric = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, HtdError> {
        it.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HtdError::Unsupported(format!("{flag} needs a number")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => o.fast = true,
            "--engines" => {
                let list = it.next().ok_or_else(|| {
                    HtdError::Unsupported(format!(
                        "--engines needs a comma-separated list; registered engines: {}",
                        htd_search::engine_list()
                    ))
                })?;
                o.engines = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--quiet" | "-q" => o.quiet = true,
            "--budget" => o.budget = numeric(&mut it, "--budget")?,
            "--time" => {
                o.time_limit = Some(Duration::from_millis(numeric(&mut it, "--time")?));
            }
            "--threads" => {
                o.threads = (numeric(&mut it, "--threads")? as usize).max(1);
            }
            "--seed" => o.seed = numeric(&mut it, "--seed")?,
            "--format" => {
                o.format = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--format needs a value".into()))?
                        .clone(),
                );
            }
            "--count" => o.count = true,
            "--verify" => o.verify = true,
            "--all" => o.all = Some(numeric(&mut it, "--all")?),
            "--limit" => o.limit = Some(numeric(&mut it, "--limit")?),
            "--mode" => {
                o.mode = Some(
                    it.next()
                        .ok_or_else(|| {
                            HtdError::Unsupported("--mode needs bool|count|enum".into())
                        })?
                        .clone(),
                );
            }
            "--addr" => {
                o.addr = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--addr needs host:port".into()))?
                        .clone(),
                );
            }
            "--cache-mb" => o.cache_mb = (numeric(&mut it, "--cache-mb")? as usize).max(1),
            "--memory-mb" => o.memory_mb = Some(numeric(&mut it, "--memory-mb")?.max(1)),
            "--chaos" => o.chaos_seed = Some(numeric(&mut it, "--chaos")?),
            "--store" => {
                o.store = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--store needs a directory".into()))?
                        .clone(),
                )
            }
            "--node-id" => {
                o.node_id = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--node-id needs a name".into()))?
                        .clone(),
                );
            }
            "--peers" => {
                o.peers = Some(
                    it.next()
                        .ok_or_else(|| {
                            HtdError::Unsupported("--peers needs id=host:port,..".into())
                        })?
                        .clone(),
                );
            }
            "--replication" => {
                o.replication = Some((numeric(&mut it, "--replication")? as usize).max(1));
            }
            "--dp" => o.dp = true,
            "--queue" => o.queue = (numeric(&mut it, "--queue")? as usize).max(1),
            "--objective" => {
                o.objective = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--objective needs tw|ghw|hw".into()))?
                        .clone(),
                );
            }
            "--trace" => {
                o.trace = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--trace needs a file path".into()))?
                        .clone(),
                );
            }
            "--profile" => {
                o.profile = Some(
                    it.next()
                        .ok_or_else(|| HtdError::Unsupported("--profile needs a file path".into()))?
                        .clone(),
                );
            }
            other => return Err(HtdError::Unsupported(format!("unknown flag {other}"))),
        }
    }
    Ok(o)
}

/// `htd info`: instance statistics and quick bounds.
pub fn cmd_info(inst: &Instance, o: &Options) -> Result<String, HtdError> {
    let h = inst.hypergraph();
    let g = inst.graph();
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut out = String::new();
    let _ = writeln!(out, "vertices:   {}", h.num_vertices());
    let _ = writeln!(out, "hyperedges: {}", h.num_edges());
    let _ = writeln!(out, "rank:       {}", h.rank());
    let _ = writeln!(out, "primal edges: {}", g.num_edges());
    let _ = writeln!(out, "acyclic:    {}", htd_core::join_tree::is_acyclic(&h));
    let lb = htd_heuristics::combined_lower_bound(&g, &mut rng);
    let ub = htd_heuristics::upper::min_fill(&g, &mut rng).width;
    let _ = writeln!(out, "treewidth:  in [{lb}, {ub}] (minor bounds / min-fill)");
    if h.covers_all_vertices() {
        let ghw_lb = htd_heuristics::ghw_lower_bound(&h, &mut rng);
        let _ = writeln!(out, "ghw:        ≥ {ghw_lb} (tw-ksc + clique cover)");
    }
    Ok(out)
}

/// Renders an [`Outcome`] per the selected format.
fn render_outcome(outcome: &Outcome, o: &Options) -> Result<String, HtdError> {
    match o.output_format()? {
        OutputFormat::Json => Ok(format!("{}\n", outcome.to_json())),
        OutputFormat::Human => {
            let name = match outcome.objective {
                Objective::Treewidth => "treewidth",
                Objective::GeneralizedHypertreeWidth => "ghw",
                Objective::HypertreeWidth => "hypertree width",
            };
            if o.quiet {
                return Ok(if outcome.exact {
                    format!("{}\n", outcome.upper)
                } else {
                    format!("{} {}\n", outcome.lower, outcome.upper)
                });
            }
            let mut out = if outcome.exact {
                format!("{name} {}\n", outcome.upper)
            } else if outcome.upper == u32::MAX {
                format!(
                    "{name} ≥ {} (budget exhausted, no decomposition found)\n",
                    outcome.lower
                )
            } else {
                format!(
                    "{name} in [{}, {}] ({})\n",
                    outcome.lower,
                    outcome.upper,
                    if outcome.degraded {
                        "degraded: memory budget exceeded"
                    } else {
                        "budget exhausted"
                    }
                )
            };
            let _ = writeln!(
                out,
                "  nodes {}  elapsed {:.1}ms  engines {}",
                outcome.nodes,
                outcome.elapsed.as_secs_f64() * 1e3,
                outcome.per_engine.len()
            );
            if let Some(w) = outcome.winner {
                let conv = match (outcome.time_to_first_upper, outcome.time_to_best_upper) {
                    (Some(f), Some(b)) => format!(
                        "  first bound {:.1}ms  best bound {:.1}ms",
                        f.as_secs_f64() * 1e3,
                        b.as_secs_f64() * 1e3
                    ),
                    _ => String::new(),
                };
                let _ = writeln!(out, "  winner {}{conv}", w.name());
            }
            Ok(out)
        }
    }
}

/// Runs [`solve`] on the instance under `objective` and renders the result.
fn cmd_width(inst: &Instance, o: &Options, objective: Objective) -> Result<String, HtdError> {
    if o.dp {
        if objective != Objective::Treewidth {
            return Err(HtdError::Unsupported(
                "--dp only applies to treewidth".into(),
            ));
        }
        // the all-or-nothing arm: refuses upfront (exit code 6) when its
        // table estimate exceeds --memory-mb, instead of degrading
        let w = dp_treewidth_budgeted(&inst.graph(), &o.search_config()?)?;
        return Ok(match o.output_format()? {
            OutputFormat::Json => {
                format!("{{\"objective\":\"tw\",\"lower\":{w},\"upper\":{w},\"exact\":true}}\n")
            }
            OutputFormat::Human if o.quiet => format!("{w}\n"),
            OutputFormat::Human => format!("treewidth {w} (subset DP, exact)\n"),
        });
    }
    let problem = match objective {
        Objective::Treewidth => match inst {
            Instance::Graph(g) => Problem::treewidth(g.clone()),
            Instance::Hypergraph(h) => Problem::treewidth_of_hypergraph(h.clone()),
        },
        Objective::GeneralizedHypertreeWidth => Problem::ghw(inst.hypergraph()),
        Objective::HypertreeWidth => Problem::hw(inst.hypergraph()),
    };
    let outcome = solve(&problem, &o.search_config()?)?;
    render_outcome(&outcome, o)
}

/// `htd tw`: treewidth bounds or exact value.
pub fn cmd_tw(inst: &Instance, o: &Options) -> Result<String, HtdError> {
    cmd_width(inst, o, Objective::Treewidth)
}

/// `htd ghw`: generalized hypertree width bounds or exact value.
pub fn cmd_ghw(inst: &Instance, o: &Options) -> Result<String, HtdError> {
    cmd_width(inst, o, Objective::GeneralizedHypertreeWidth)
}

/// `htd hw`: hypertree width via det-k-decomp.
pub fn cmd_hw(inst: &Instance, o: &Options) -> Result<String, HtdError> {
    cmd_width(inst, o, Objective::HypertreeWidth)
}

/// `htd decompose`: emit a tree decomposition in PACE `.td` or DOT format.
pub fn cmd_decompose(inst: &Instance, o: &Options) -> Result<String, HtdError> {
    let mut rng = StdRng::seed_from_u64(o.seed);
    let format = o.format.as_deref().unwrap_or("td");
    // with --engines, the requested lineup searches for the ordering the
    // decomposition is built from; the min-fill default stays instant
    let searched_order = |problem: Problem| -> Result<Option<EliminationOrdering>, HtdError> {
        match o.engines {
            Some(_) => Ok(solve(&problem, &o.search_config()?)?.witness),
            None => Ok(None),
        }
    };
    match inst {
        Instance::Graph(g) => {
            let order = match searched_order(Problem::treewidth(g.clone()))? {
                Some(w) => w,
                None => htd_heuristics::upper::min_fill(g, &mut rng).ordering,
            };
            let td = vertex_elimination(g, &order).simplify();
            match format {
                "td" => Ok(pace::write_td(&td, g.num_vertices())),
                "dot" => Ok(dot::tree_decomposition_to_dot(&td, |v| g.name(v))),
                "cert" => {
                    let mut cert = Certificate::for_graph_td(g, &td);
                    if let Some(mb) = o.memory_mb {
                        cert = cert.with_budget(mb << 20, false, false);
                    }
                    Ok(format!("{}\n", cert.to_json()))
                }
                f => Err(HtdError::Unsupported(format!(
                    "format '{f}' (expected td|dot|cert)"
                ))),
            }
        }
        Instance::Hypergraph(h) => {
            let order = match searched_order(Problem::ghw(h.clone()))? {
                Some(w) => w,
                None => htd_heuristics::upper::min_fill(&h.primal_graph(), &mut rng).ordering,
            };
            match format {
                "td" => {
                    let td = td_of_hypergraph(h, &order).simplify();
                    Ok(pace::write_td(&td, h.num_vertices()))
                }
                "dot" => {
                    let ghd =
                        htd_core::bucket::ghd_via_elimination(h, &order, CoverStrategy::Exact)
                            .ok_or_else(|| {
                                HtdError::Invalid("uncoverable vertex: no GHD exists".into())
                            })?;
                    Ok(dot::ghd_to_dot(&ghd, h))
                }
                "cert" => {
                    let ghd =
                        htd_core::bucket::ghd_via_elimination(h, &order, CoverStrategy::Exact)
                            .ok_or_else(|| {
                                HtdError::Invalid("uncoverable vertex: no GHD exists".into())
                            })?;
                    let mut cert = Certificate::for_ghd(h, &ghd, htd_check::Level::Ghd);
                    if let Some(mb) = o.memory_mb {
                        cert = cert.with_budget(mb << 20, false, false);
                    }
                    Ok(format!("{}\n", cert.to_json()))
                }
                f => Err(HtdError::Unsupported(format!(
                    "format '{f}' (expected td|dot|cert)"
                ))),
            }
        }
    }
}

/// `htd check`: re-verify a decomposition certificate (the JSON emitted
/// by `htd decompose --format cert`, format documented in
/// `htd_check::certificate`) with the independent oracle. Valid
/// certificates print a one-line verdict (or the full JSON report with
/// `--format json`); invalid ones return [`HtdError::Invalid`] carrying
/// the condition-level violation list, so the process exits nonzero.
pub fn cmd_check(text: &str, o: &Options) -> Result<String, HtdError> {
    let doc = Json::parse(text).map_err(|e| HtdError::Parse(format!("certificate: {e}")))?;
    let cert = Certificate::from_json(&doc)?;
    let mut report = cert.check();
    report.subject = format!(
        "{} certificate ({} vertices, {} edges, claimed width {}{})",
        cert.objective_name(),
        cert.num_vertices,
        cert.edges.len(),
        cert.claimed_width
            .map_or_else(|| "-".into(), |w| w.to_string()),
        if cert.degraded {
            ", degraded producer — width is bracketing-only"
        } else {
            ""
        },
    );
    let rendered = match o.output_format()? {
        OutputFormat::Json => format!("{}\n", report.to_json()),
        OutputFormat::Human => format!("{}\n", report.to_string().trim_end()),
    };
    if report.is_valid() {
        Ok(rendered)
    } else {
        Err(HtdError::Invalid(rendered))
    }
}

/// Builds the [`AnswerOptions`] shared by `htd solve` and `htd answer`:
/// `--engines`, `--trace`, `--threads`, `--time`, `--seed` flow through
/// [`Options::search_config`]; `--memory-mb` becomes a refusal budget on
/// the evaluation. Without `--threads N > 1`, `--engines` or `--fast`
/// the decomposition search is pinned to the heuristic engine, so the
/// default path stays a single min-fill pass; `--trace` observes that
/// same lineup and never changes it.
fn answer_options(o: &Options, mode: AnswerMode, limit: u64) -> Result<AnswerOptions, HtdError> {
    let mut search = o.search_config()?;
    if o.threads <= 1 && o.engines.is_none() && !o.fast {
        search = search.with_engines(vec![Engine::Heuristic]);
    }
    Ok(AnswerOptions {
        mode,
        limit,
        search,
        memory_budget: o.memory_mb.map(|mb| MemoryBudget::new(mb << 20)),
        shape_cache: None,
        deadline: o.time_limit.map(|t| std::time::Instant::now() + t),
    })
}

/// `htd solve`: solve a CSP file via join-tree clustering; `--count`
/// reports the number of solutions, `--all N` lists up to `N`. Routed
/// through the same `htd-query` answering pipeline as `htd answer`
/// (with the trivial head keeping every variable), so `--engines`,
/// `--trace` and `--memory-mb` behave identically on both commands.
pub fn cmd_solve(text: &str, o: &Options) -> Result<String, HtdError> {
    let csp = htd_csp::parse_csp(text).map_err(|e| HtdError::Parse(e.to_string()))?;
    let q = Query::from_csp(csp);
    let mode = if o.count {
        AnswerMode::Count
    } else if o.all.is_some() {
        AnswerMode::Enumerate
    } else {
        AnswerMode::Boolean
    };
    let opts = answer_options(o, mode, o.all.unwrap_or(u64::MAX))?;
    let ans = htd_query::answer(&q, &opts)?;
    let mut out = String::new();
    if o.count {
        let _ = writeln!(out, "solutions: {}", ans.count.unwrap_or(0));
        return Ok(out);
    }
    if o.all.is_some() {
        for t in &ans.tuples {
            let _ = writeln!(out, "{}", t.join(" "));
        }
        if ans.tuples.is_empty() {
            out.push_str("UNSAT\n");
        }
        return Ok(out);
    }
    match ans.tuples.first() {
        Some(t) => {
            for (name, val) in ans.head.iter().zip(t) {
                let _ = writeln!(out, "{name} = {val}");
            }
        }
        None => out.push_str("UNSAT\n"),
    }
    Ok(out)
}

/// Renders an [`Answer`] per the selected output format. `served` carries
/// the service response when the answer came from `--addr`.
fn render_answer(
    ans: &Answer,
    o: &Options,
    served: Option<&htd_service::Response>,
) -> Result<String, HtdError> {
    if o.output_format()? == OutputFormat::Json {
        return Ok(format!("{}\n", ans.to_json()));
    }
    let mut out = String::new();
    match ans.mode {
        AnswerMode::Count => {
            let _ = writeln!(out, "answers: {}", ans.count.unwrap_or(0));
        }
        AnswerMode::Boolean => {
            let _ = writeln!(out, "{}", ans.satisfiable);
            if let (false, Some(t)) = (o.quiet || ans.head.is_empty(), ans.tuples.first()) {
                let pairs: Vec<String> = ans
                    .head
                    .iter()
                    .zip(t)
                    .map(|(h, v)| format!("{h}={v}"))
                    .collect();
                let _ = writeln!(out, "  witness {}", pairs.join(" "));
            }
        }
        AnswerMode::Enumerate => {
            if !o.quiet && !ans.head.is_empty() {
                let _ = writeln!(out, "# {}", ans.head.join(" "));
            }
            for t in &ans.tuples {
                let _ = writeln!(out, "{}", t.join(" "));
            }
            if ans.truncated {
                out.push_str("# truncated\n");
            } else if !o.quiet {
                let _ = writeln!(out, "# {} answers", ans.count.unwrap_or(0));
            }
        }
    }
    if !o.quiet {
        let s = &ans.stats;
        let _ = writeln!(
            out,
            "# width {}  decompose {:.1}ms{}  eval {:.1}ms  tuples {}  fp {}",
            s.width,
            s.decompose_us as f64 / 1e3,
            if s.shape_cache_hit {
                " (shape cache)"
            } else {
                ""
            },
            s.eval_us as f64 / 1e3,
            s.tuples_scanned,
            s.fingerprint,
        );
        if let Some(r) = served {
            let _ = writeln!(
                out,
                "# served {}  round-trip {:.1}ms",
                if r.cached {
                    "with cached decomposition"
                } else {
                    "cold"
                },
                r.elapsed_ms
            );
        }
    }
    Ok(out)
}

/// Maps a service error response onto the structured [`HtdError`] that
/// reproduces the server-side exit code locally.
fn service_error(r: htd_service::Response) -> HtdError {
    let msg = r.error.unwrap_or_else(|| "server error".into());
    // a response without a code maps like an unknown one, to Io
    HtdError::from_code(r.code.unwrap_or_default(), msg)
}

/// `htd answer`: answer a conjunctive query (`Q(x,y) :- R(x,z), S(z,y).`
/// plus relations, text or JSON format of `htd-query`), locally or —
/// with `--addr` — against a running server's shape-cached pipeline.
pub fn cmd_answer(file: &str, text: &str, o: &Options) -> Result<String, HtdError> {
    let mode = match (o.mode.as_deref(), o.count) {
        (Some(m), _) => AnswerMode::from_name(m).ok_or_else(|| {
            HtdError::Unsupported(format!("mode '{m}' (expected bool|count|enum)"))
        })?,
        (None, true) => AnswerMode::Count,
        (None, false) => AnswerMode::Enumerate,
    };
    if let Some(addr) = o.addr.as_deref() {
        let deadline_ms = o.time_limit.map(|t| (t.as_millis() as u64).max(1));
        let mut client = Client::connect(addr).map_err(|e| HtdError::Io(format!("{addr}: {e}")))?;
        let r = client.answer(text, mode, o.limit, deadline_ms)?;
        return match r.status {
            Status::Ok => {
                let ans = r
                    .answer
                    .clone()
                    .ok_or_else(|| HtdError::Io("ok response without answer".into()))?;
                render_answer(&ans, o, Some(&r))
            }
            Status::Error => Err(service_error(r)),
            s => Err(HtdError::Io(format!(
                "server answered {}{}",
                s.name(),
                r.error.map_or(String::new(), |e| format!(": {e}"))
            ))),
        };
    }
    let opts = answer_options(o, mode, o.limit.unwrap_or(u64::MAX))?;
    let ans = answer_local(file, text, &opts)?;
    render_answer(&ans, o, None)
}

/// Answers the query in `text` in this process. Parsing runs under the
/// `answer.parse` span, traced into `opts`' tracer like the pipeline's
/// `answer.decompose` and `answer.evaluate`.
fn answer_local(file: &str, text: &str, opts: &AnswerOptions) -> Result<Answer, HtdError> {
    // relation file references resolve relative to the query file's
    // directory (or the working directory for stdin)
    let base = if file == "-" {
        std::path::PathBuf::from(".")
    } else {
        std::path::Path::new(file)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or_else(|| std::path::PathBuf::from("."), |p| p.to_path_buf())
    };
    let q = {
        let _sp = htd_trace::span!("answer.parse", &opts.search.tracer);
        parse_query(text, &FileAccess::Allow { base })?
    };
    htd_query::answer(&q, opts)
}

/// `htd gen`: print a named benchmark instance.
pub fn cmd_gen(name: &str) -> Result<String, HtdError> {
    if let Some(g) = gen::named_graph(name) {
        return Ok(io::write_dimacs(&g));
    }
    if let Some(h) = gen::named_hypergraph(name) {
        return Ok(io::write_hg(&h));
    }
    Err(HtdError::Unsupported(format!(
        "unknown instance name {name}"
    )))
}

/// `htd serve`: run the decomposition server until `shutdown`/SIGINT,
/// then drain gracefully.
pub fn cmd_serve(o: &Options) -> Result<String, HtdError> {
    let cluster = parse_cluster(o)?;
    let opts = ServeOptions {
        addr: o.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".into()),
        threads: o.threads,
        cache_mb: o.cache_mb,
        queue_capacity: o.queue,
        default_deadline_ms: o
            .time_limit
            .map_or(10_000, |t| (t.as_millis() as u64).max(1)),
        log: !o.quiet,
        verify_responses: o.verify,
        memory_mb: o.memory_mb,
        chaos: o.chaos_seed.map(htd_service::FaultPlan::chaos),
        store_dir: o.store.as_ref().map(std::path::PathBuf::from),
        cluster,
        ..ServeOptions::default()
    };
    htd_service::run_until_shutdown(opts).map_err(|e| HtdError::Io(e.to_string()))?;
    Ok("server drained\n".into())
}

/// Builds the node's [`ClusterConfig`] from `--node-id`, `--peers` and
/// `--replication`. Every member must be started with the same peer set
/// (minus itself) and replication factor, or the rings diverge.
fn parse_cluster(o: &Options) -> Result<Option<htd_service::ClusterConfig>, HtdError> {
    let Some(spec) = o.peers.as_deref() else {
        if o.node_id.is_some() || o.replication.is_some() {
            return Err(HtdError::Unsupported(
                "--node-id/--replication require --peers id=host:port,..".into(),
            ));
        }
        return Ok(None);
    };
    let node_id = o.node_id.as_deref().ok_or_else(|| {
        HtdError::Unsupported("--peers requires --node-id (this node's stable name)".into())
    })?;
    let mut peers = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (id, addr) = part.trim().split_once('=').ok_or_else(|| {
            HtdError::Unsupported(format!("--peers entry '{part}' is not id=host:port"))
        })?;
        if id.is_empty() || addr.is_empty() {
            return Err(HtdError::Unsupported(format!(
                "--peers entry '{part}' is not id=host:port"
            )));
        }
        if id == node_id {
            return Err(HtdError::Unsupported(format!(
                "--peers must list the *other* members; '{id}' is this node"
            )));
        }
        peers.push(htd_service::PeerSpec {
            id: id.to_string(),
            addr: addr.to_string(),
        });
    }
    if peers.is_empty() {
        return Err(HtdError::Unsupported(
            "--peers lists no members; expected id=host:port,..".into(),
        ));
    }
    let mut cfg = htd_service::ClusterConfig::new(node_id, peers);
    if let Some(r) = o.replication {
        cfg.replication = r;
    }
    Ok(Some(cfg))
}

/// `htd query`: solve one instance against a running server.
pub fn cmd_query(file: &str, text: &str, o: &Options) -> Result<String, HtdError> {
    let addr = o
        .addr
        .as_deref()
        .ok_or_else(|| HtdError::Unsupported("query needs --addr host:port".into()))?;
    let objective = match o.objective.as_deref() {
        None | Some("tw") => Objective::Treewidth,
        Some("ghw") => Objective::GeneralizedHypertreeWidth,
        Some("hw") => Objective::HypertreeWidth,
        Some(x) => {
            return Err(HtdError::Unsupported(format!(
                "objective '{x}' (expected tw|ghw|hw)"
            )))
        }
    };
    // a file the server would refuse fails here, reachable server or not
    let format = io::Format::of(file, text);
    io::read(format, text).map_err(|e| HtdError::Parse(e.to_string()))?;
    let deadline_ms = o.time_limit.map(|t| (t.as_millis() as u64).max(1));
    let mut client = Client::connect(addr).map_err(|e| HtdError::Io(format!("{addr}: {e}")))?;
    // backpressure rejections retry with jittered exponential backoff
    // seeded from --seed, honoring the server's retry_after_ms hint
    let r = client.solve_with_retry(objective, format.into(), text, deadline_ms, 4, o.seed)?;
    match r.status {
        Status::Ok => {
            let outcome = r
                .outcome
                .ok_or_else(|| HtdError::Io("ok response without outcome".into()))?;
            let mut out = render_outcome(&outcome, o)?;
            if o.output_format()? == OutputFormat::Human && !o.quiet {
                let _ = writeln!(
                    out,
                    "  served {} fp {}  round-trip {:.1}ms",
                    if r.cached { "from cache" } else { "cold" },
                    r.fingerprint.as_deref().unwrap_or("?"),
                    r.elapsed_ms
                );
            }
            Ok(out)
        }
        Status::Error => Err(service_error(r)),
        s => Err(HtdError::Io(format!(
            "server answered {}{}",
            s.name(),
            r.error.map_or(String::new(), |e| format!(": {e}"))
        ))),
    }
}

const USAGE: &str =
    "usage: htd <info|tw|ghw|hw|decompose|check|solve|answer|gen|serve|query> <file|-|name> [flags]
global flags: --format human|json  --quiet  --threads N  --seed N
              --budget N (nodes)   --time MS (wall clock)  --fast
              --engines NAME[,NAME...] (explicit lineup from the engine table)
              --memory-mb N (degrade to anytime bounds past this budget)
              --dp (tw: all-or-nothing subset DP; exit 6 when over budget)
              --trace FILE.jsonl (solver event stream, schema v3)
              --profile FILE.folded (span profiler; folded stacks for flamegraphs)
answer:       --mode bool|count|enum  --limit N  (--addr to use a server)
serve/query:  --addr HOST:PORT  --cache-mb N  --queue N  --objective tw|ghw|hw
              --verify (serve: oracle-check responses before caching)
              --chaos SEED (serve: deterministic fault injection, testing)
              --store DIR (serve: persistent verified certificate store)
              --node-id ID --peers ID=HOST:PORT,.. (serve: join a cluster)
              --replication N (serve: owners per key on the ring, default 2)
`htd <command> --help` prints command-specific usage.";

/// Per-command usage text (`htd <cmd> --help`).
pub fn help_for(cmd: &str) -> Option<&'static str> {
    match cmd {
        "info" => Some("usage: htd info <file|-> [--seed N]\n\
            Prints instance statistics and quick width bounds."),
        "tw" => Some("usage: htd tw <file|-> [--fast] [--dp] [--engines NAME[,NAME...]] [--budget N] [--time MS] [--threads N] [--seed N] [--memory-mb N] [--trace FILE] [--format human|json] [--quiet]\n\
            Treewidth. Exact branch and bound by default; --threads N > 1 runs the\n\
            anytime portfolio (BB, A*, heuristics, lower bounds sharing one incumbent);\n\
            --fast computes heuristic bounds only. --dp runs the all-or-nothing\n\
            Held\u{2013}Karp subset DP: exact, but under --memory-mb it refuses upfront\n\
            with exit code 6 when its table does not fit (docs/robustness.md).\n\
            --format json emits one Outcome\n\
            object per line: {\"objective\",\"lower\",\"upper\",\"exact\",\"witness\",\n\
            \"nodes\",\"elapsed_ms\",\"engines\":[...],\"trace_summary\":{...}}.\n\
            --trace FILE writes the solver's structured event stream (one JSON\n\
            object per line, schema v3: incumbent improvements with worker\n\
            attribution, bound tightenings, node-expansion batches, worker\n\
            lifecycle, span enter/exit; see docs/observability.md).\n\
            --profile FILE enables the span profiler and writes folded stacks\n\
            consumable by flamegraph tools (docs/observability.md)."),
        "ghw" => Some("usage: htd ghw <file|-> [--fast] [--budget N] [--time MS] [--threads N] [--seed N] [--format human|json] [--quiet]\n\
            Generalized hypertree width over elimination orderings (exact covers,\n\
            shared across engines through a concurrent set-cover cache). Flags as\n\
            for `htd tw`."),
        "hw" => Some("usage: htd hw <file|-> [--time MS] [--seed N] [--format human|json] [--quiet]\n\
            Hypertree width via det-k-decomp, primed with the ghw lower bound;\n\
            a search stopped by --time reports only the lower bound it reached."),
        "decompose" => Some("usage: htd decompose <file|-> [--format td|dot|cert] [--engines NAME[,NAME...]] [--threads N] [--seed N]\n\
            Emits a tree decomposition of the instance from a min-fill ordering.\n\
            --engines runs the named engines (e.g. balsep,branch_bound;\n\
            see docs/parallelism.md) and decomposes from the best ordering they\n\
            find; unknown names list the registered engines. With --threads N\n\
            the lineup races in the anytime portfolio.\n\
            --format td   PACE 2017 .td text (default)\n\
            --format dot  Graphviz; for hypergraphs the bags show their edge\n\
                          covers λ, i.e. a generalized hypertree decomposition.\n\
            --format cert self-contained JSON certificate (instance + bags +\n\
                          λ + claimed width) for later `htd check`."),
        "check" => Some("usage: htd check <cert.json|-> [--format human|json]\n\
            Re-verifies a decomposition certificate (emitted by `htd decompose\n\
            --format cert`) with the independent oracle of htd-check: vertex and\n\
            edge coverage, connectedness, tree shape, λ bag-covers, the claimed\n\
            width. Prints every violated condition and exits nonzero (code 3)\n\
            when the certificate is invalid; --format json prints the\n\
            structured CheckReport instead."),
        "solve" => Some("usage: htd solve <file.csp|-> [--count] [--all N] [--seed N] [--threads N] [--engines NAME[,NAME...]] [--memory-mb N] [--trace FILE]\n\
            Solves a CSP through a tree decomposition (join-tree clustering),\n\
            routed through the same answering pipeline as `htd answer` with\n\
            the trivial head keeping every variable. With --threads N > 1\n\
            or --engines the clustering ordering comes from the anytime\n\
            portfolio, otherwise from one min-fill pass; --trace FILE\n\
            receives the solver's JSONL event stream of that same lineup;\n\
            --memory-mb refuses (exit 6) when the join-tree\n\
            materialization estimate exceeds the budget."),
        "answer" => Some("usage: htd answer <file.cq|-> [--mode bool|count|enum] [--count] [--limit N] [--time MS] [--memory-mb N] [--engines NAME[,NAME...]] [--threads N] [--trace FILE] [--addr HOST:PORT] [--format human|json] [--quiet]\n\
            Answers a conjunctive query: a Datalog-style rule\n\
            `Q(x,y) :- R(x,z), S(z,y).` followed by its relations (inline\n\
            `R: 1 2 ; 3 4 .` or `R @ file.csv .`), or the equivalent JSON\n\
            envelope — see docs/answering.md. The pipeline decomposes the\n\
            query hypergraph and runs Yannakakis semijoin passes; --mode\n\
            picks boolean satisfiability (with a witness), the exact count\n\
            of distinct head assignments, or their enumeration (default,\n\
            bounded by --limit). --memory-mb refuses over-budget queries\n\
            with a size estimate (exit 6) instead of risking a wrong\n\
            answer. With --addr the query is answered by a running\n\
            `htd serve`, whose shape cache lets repeated query shapes skip\n\
            decomposition; --format json prints the Answer object."),
        "gen" => Some("usage: htd gen <name>\n\
            Prints a named benchmark instance (e.g. queen5_5, adder_3, grid2d_4)."),
        "serve" => Some("usage: htd serve [--addr HOST:PORT] [--threads N] [--cache-mb N] [--queue N] [--time MS] [--memory-mb N] [--chaos SEED] [--store DIR] [--node-id ID --peers ID=HOST:PORT,..] [--replication N] [--verify] [--quiet]\n\
            Runs the decomposition server (htd-service): newline-delimited JSON\n\
            requests over TCP, canonical-form result caching, per-request\n\
            deadlines, bounded-queue backpressure, and HTTP GET /healthz and\n\
            /metrics (Prometheus text) on the same port. One non-blocking\n\
            poll(2) loop serves every connection, with pipelined batches\n\
            (responses matched by request id; see docs/service.md), so the\n\
            server runs on unix only. --time sets the default deadline for\n\
            requests that carry none (default 10000);\n\
            --verify runs the htd-check oracle on every response before\n\
            caching it (violations are served but not cached, and tick\n\
            htd_oracle_failures_total); --memory-mb caps each solve's\n\
            tracked memory (over-budget solves degrade to anytime bounds\n\
            and are marked degraded:true); --chaos SEED turns on seeded\n\
            fault injection — panicking workers, stalls, allocation\n\
            starvation — for resilience testing (see docs/robustness.md);\n\
            --store DIR backs the cache with an append-only certificate\n\
            store so restarts serve warm (every loaded entry is re-verified\n\
            by the htd-check oracle; tampered entries are dropped and tick\n\
            htd_store_rejects_total);\n\
            --node-id/--peers join an N-node cluster: a consistent-hash\n\
            ring shards the fingerprint keyspace, owners replicate\n\
            verified certificates (--replication, default 2), a failure\n\
            detector probes peers and forwarding fails over when owners\n\
            die (see docs/cluster.md);\n\
            --quiet disables per-request log\n\
            lines. Shut down with SIGINT or a {\"cmd\":\"shutdown\"} request:\n\
            the server drains in-flight work and exits."),
        "query" => Some("usage: htd query <file|-> --addr HOST:PORT [--objective tw|ghw|hw] [--time MS] [--format human|json] [--quiet]\n\
            Solves one instance against a running `htd serve`. --time is the\n\
            request deadline in milliseconds; the answer may be an anytime\n\
            bound (exact:false) if the deadline preempts the solve. --format\n\
            json prints the Outcome object exactly as `htd tw` would."),
        _ => None,
    }
}

/// Dispatches a full argv (without the program name).
pub fn run(args: &[String]) -> Result<String, HtdError> {
    let cmd = args
        .first()
        .ok_or_else(|| HtdError::Unsupported(USAGE.into()))?;
    if cmd == "--help" || cmd == "help" {
        return Ok(format!("{USAGE}\n"));
    }
    if args.get(1).is_some_and(|a| a == "--help") {
        return match help_for(cmd) {
            Some(h) => Ok(format!("{h}\n")),
            None => Err(HtdError::Unsupported(USAGE.into())),
        };
    }
    if cmd == "gen" {
        return cmd_gen(
            args.get(1)
                .ok_or_else(|| HtdError::Unsupported("gen needs an instance name".into()))?,
        );
    }
    if cmd == "serve" {
        return cmd_serve(&parse_options(&args[1..])?);
    }
    let file = args
        .get(1)
        .ok_or_else(|| HtdError::Unsupported(USAGE.into()))?;
    let text = if file == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(file).map_err(|e| HtdError::Io(format!("{file}: {e}")))?
    };
    let o = parse_options(&args[2..])?;
    if o.profile.is_none() {
        return dispatch(cmd, file, &text, &o);
    }
    // --profile: run the whole command under one root span so the
    // folded stacks account for (nearly) the full wall time, then dump
    // them and the aggregate
    htd_trace::span::reset();
    htd_trace::set_spans_enabled(true);
    let started = std::time::Instant::now();
    let result = {
        let _root = htd_trace::span!(root_span_name(cmd));
        dispatch(cmd, file, &text, &o)
    };
    let wall = started.elapsed();
    htd_trace::set_spans_enabled(false);
    result.and_then(|out| finish_profile(out, &o, wall))
}

fn dispatch(cmd: &str, file: &str, text: &str, o: &Options) -> Result<String, HtdError> {
    if cmd == "solve" {
        return cmd_solve(text, o);
    }
    if cmd == "answer" {
        return cmd_answer(file, text, o);
    }
    if cmd == "query" {
        return cmd_query(file, text, o);
    }
    if cmd == "check" {
        return cmd_check(text, o);
    }
    let inst = parse_instance(file, text)?;
    match cmd {
        "info" => cmd_info(&inst, o),
        "tw" => cmd_tw(&inst, o),
        "ghw" => cmd_ghw(&inst, o),
        "hw" => cmd_hw(&inst, o),
        "decompose" => cmd_decompose(&inst, o),
        _ => Err(HtdError::Unsupported(USAGE.into())),
    }
}

/// The `--profile` root span covering one whole command.
fn root_span_name(cmd: &str) -> &'static str {
    match cmd {
        "tw" => "htd.tw",
        "ghw" => "htd.ghw",
        "hw" => "htd.hw",
        "decompose" => "htd.decompose",
        "solve" => "htd.solve",
        "answer" => "htd.answer",
        "query" => "htd.query",
        "check" => "htd.check",
        "info" => "htd.info",
        _ => "htd.run",
    }
}

/// Writes the folded stacks to the `--profile` file, reports root-span
/// wall coverage on stderr, and (under `--format json`) appends a
/// `profile` JSONL object after the command's own output.
fn finish_profile(mut output: String, o: &Options, wall: Duration) -> Result<String, HtdError> {
    let path = o.profile.as_deref().expect("only called with --profile");
    let folded = htd_trace::span::folded();
    std::fs::write(path, &folded).map_err(|e| HtdError::Io(format!("--profile {path}: {e}")))?;
    let stats = htd_trace::span::snapshot();
    // coverage: the main thread's htd.* root span against process wall.
    // Worker-thread roots overlap it in time, so they are excluded.
    let root_us: u64 = stats
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("htd."))
        .map(|s| s.wall_us)
        .sum();
    let coverage = 100.0 * root_us as f64 / (wall.as_micros() as f64).max(1.0);
    eprintln!(
        "profile: {} spans, {} stacks -> {path} (root spans cover {coverage:.1}% of {:.1}ms wall)",
        stats.iter().filter(|s| s.count > 0).count(),
        folded.lines().count(),
        wall.as_secs_f64() * 1e3,
    );
    if o.format.as_deref() == Some("json") {
        let spans: Vec<Json> = stats
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| {
                Json::Obj(vec![
                    ("span".into(), Json::Str(s.name.into())),
                    (
                        "worker".into(),
                        Json::Str(
                            if s.worker.is_empty() {
                                "main"
                            } else {
                                s.worker
                            }
                            .into(),
                        ),
                    ),
                    ("count".into(), Json::Num(s.count as f64)),
                    ("wall_ms".into(), Json::Num(round3(s.wall_us as f64 / 1e3))),
                    ("self_ms".into(), Json::Num(round3(s.self_us as f64 / 1e3))),
                    ("cpu_ms".into(), Json::Num(round3(s.cpu_us as f64 / 1e3))),
                ])
            })
            .collect();
        let block = Json::Obj(vec![
            ("profile".into(), Json::Arr(spans)),
            (
                "wall_ms".into(),
                Json::Num(round3(wall.as_secs_f64() * 1e3)),
            ),
            ("root_coverage_pct".into(), Json::Num(round3(coverage))),
        ]);
        let _ = writeln!(output, "{block}");
    }
    Ok(output)
}

/// Milliseconds rounded to 3 decimals so reported numbers diff cleanly.
fn round3(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

/// The process exit code for an error (documented in the module docs).
pub fn exit_code(e: &HtdError) -> i32 {
    e.code()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::Json;
    use htd_hypergraph::Hypergraph;

    fn graph_text() -> &'static str {
        "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n"
    }

    fn hyper_text() -> &'static str {
        "e1(a,b,c),\ne2(a,e,f),\ne3(c,d,e).\n"
    }

    #[test]
    fn parse_by_extension() {
        assert!(matches!(
            parse_instance("x.gr", graph_text()),
            Ok(Instance::Graph(_))
        ));
        assert!(matches!(
            parse_instance("x.col", "p edge 2 1\ne 1 2\n"),
            Ok(Instance::Graph(_))
        ));
        assert!(matches!(
            parse_instance("x.hg", hyper_text()),
            Ok(Instance::Hypergraph(_))
        ));
        assert!(matches!(
            parse_instance("x.gr", "garbage"),
            Err(HtdError::Parse(_))
        ));
        // a graph header wins over the extension
        assert!(matches!(
            parse_instance("x.hg", "p edge 2 1\ne 1 2\n"),
            Ok(Instance::Graph(_))
        ));
        assert!(matches!(
            parse_instance("x.col", graph_text()),
            Ok(Instance::Graph(_))
        ));
    }

    #[test]
    fn tw_exact_on_cycle() {
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let out = cmd_tw(&inst, &Options::default()).unwrap();
        assert!(out.starts_with("treewidth 2\n"), "{out}");
        let fast = cmd_tw(
            &inst,
            &Options {
                fast: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(fast.contains("treewidth in ["), "{fast}");
    }

    #[test]
    fn tw_quiet_prints_number_only() {
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let out = cmd_tw(
            &inst,
            &Options {
                quiet: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(out, "2\n");
    }

    #[test]
    fn tw_json_round_trips_outcome() {
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let out = cmd_tw(
            &inst,
            &Options {
                format: Some("json".into()),
                threads: 2,
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(out.lines().count(), 1);
        let back = Outcome::from_json(&Json::parse(out.trim()).unwrap()).unwrap();
        assert!(back.exact);
        assert_eq!(back.upper, 2);
        assert!(!back.per_engine.is_empty());
    }

    #[test]
    fn ghw_and_hw_on_thesis_example() {
        let inst = parse_instance("t.hg", hyper_text()).unwrap();
        let o = Options::default();
        assert!(cmd_ghw(&inst, &o).unwrap().starts_with("ghw 2\n"));
        assert!(cmd_hw(&inst, &o)
            .unwrap()
            .starts_with("hypertree width 2\n"));
    }

    #[test]
    fn hw_json_credits_no_engine() {
        let inst = parse_instance("t.hg", hyper_text()).unwrap();
        let out = cmd_hw(
            &inst,
            &Options {
                format: Some("json".into()),
                ..Options::default()
            },
        )
        .unwrap();
        let doc = Json::parse(out.trim()).unwrap();
        assert_eq!(doc.get("upper").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("engines").and_then(Json::as_arr), Some(&[][..]));
        assert!(!out.contains("winner"), "{out}");
    }

    #[test]
    fn hw_stopped_by_its_time_limit_reports_a_lower_bound() {
        // an exact hw of grid2d_10 takes seconds
        let h = htd_hypergraph::gen::named_hypergraph("grid2d_10").unwrap();
        let o = Options {
            time_limit: Some(Duration::from_millis(50)),
            ..Options::default()
        };
        let out = cmd_hw(&Instance::Hypergraph(h), &o).unwrap();
        assert!(out.starts_with("hypertree width ≥ "), "{out}");
        assert!(out.contains("no decomposition found"), "{out}");
    }

    #[test]
    fn uncovered_vertex_is_invalid_not_panic() {
        // the hyperedge text format cannot express an uncovered vertex,
        // so build the instance by hand: vertex 2 lies in no hyperedge
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        let inst = Instance::Hypergraph(h);
        let err = cmd_ghw(&inst, &Options::default()).unwrap_err();
        assert!(matches!(err, HtdError::Invalid(_)));
        assert_eq!(exit_code(&err), 3);
    }

    #[test]
    fn bad_format_is_unsupported() {
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let err = cmd_tw(
            &inst,
            &Options {
                format: Some("xml".into()),
                ..Options::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, HtdError::Unsupported(_)));
        assert_eq!(exit_code(&err), 4);
    }

    #[test]
    fn engines_flag_drives_the_registry_lineup() {
        let o = parse_options(&["--engines".into(), "balsep, branch_bound".into()]).unwrap();
        assert_eq!(
            o.engines,
            Some(vec!["balsep".to_string(), "branch_bound".to_string()])
        );
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let out = cmd_tw(&inst, &o).unwrap();
        assert!(out.starts_with("treewidth 2\n"), "{out}");
        // decompose searches with the requested lineup and still emits a
        // decomposition that verifies against the instance
        let td_text = cmd_decompose(&inst, &o).unwrap();
        let td = pace::parse_td(&td_text).unwrap();
        td.validate_graph(&inst.graph()).unwrap();
    }

    #[test]
    fn unknown_engine_name_lists_the_registered_engines() {
        let o = parse_options(&["--engines".into(), "warp_drive".into()]).unwrap();
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let err = cmd_tw(&inst, &o).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp_drive"), "{msg}");
        assert!(msg.contains("registered engines"), "{msg}");
        assert!(msg.contains("balsep"), "{msg}");
        assert!(matches!(err, HtdError::Unsupported(_)), "{err:?}");
    }

    #[test]
    fn decompose_roundtrips_through_pace() {
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let td_text = cmd_decompose(&inst, &Options::default()).unwrap();
        let td = pace::parse_td(&td_text).unwrap();
        td.validate_graph(&inst.graph()).unwrap();
        // dot output renders
        let o = Options {
            format: Some("dot".into()),
            ..Options::default()
        };
        assert!(cmd_decompose(&inst, &o).unwrap().starts_with("digraph"));
        // hypergraph dot shows λ
        let hinst = parse_instance("t.hg", hyper_text()).unwrap();
        assert!(cmd_decompose(&hinst, &o).unwrap().contains("λ"));
    }

    #[test]
    fn check_accepts_and_rejects_certificates() {
        // graph certificate round-trips through decompose --format cert
        let inst = parse_instance("c.gr", graph_text()).unwrap();
        let o = Options {
            format: Some("cert".into()),
            ..Options::default()
        };
        let cert_text = cmd_decompose(&inst, &o).unwrap();
        let verdict = cmd_check(&cert_text, &Options::default()).unwrap();
        assert!(verdict.contains("valid"), "{verdict}");

        // hypergraph certificate too
        let hinst = parse_instance("t.hg", hyper_text()).unwrap();
        let hcert = cmd_decompose(&hinst, &o).unwrap();
        assert!(hcert.contains("\"objective\":\"ghw\""), "{hcert}");
        cmd_check(&hcert, &Options::default()).unwrap();

        // tamper with a bag: the oracle names the violated condition and
        // the command exits through HtdError::Invalid (exit code 3)
        let tampered = hcert.replace("\"claimed_width\":2", "\"claimed_width\":1");
        let err = cmd_check(&tampered, &Options::default()).unwrap_err();
        match &err {
            HtdError::Invalid(msg) => assert!(msg.contains("claimed_width"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(exit_code(&err), 3);

        // structural garbage is a parse error (exit code 2)
        let err = cmd_check("{\"schema\":1}", &Options::default()).unwrap_err();
        assert_eq!(exit_code(&err), 2);

        // json report format
        let json = cmd_check(
            &cert_text,
            &Options {
                format: Some("json".into()),
                ..Options::default()
            },
        )
        .unwrap();
        assert!(json.contains("\"valid\":true"), "{json}");
    }

    #[test]
    fn info_reports_bounds() {
        let inst = parse_instance("t.hg", hyper_text()).unwrap();
        let info = cmd_info(&inst, &Options::default()).unwrap();
        assert!(info.contains("vertices:   6"));
        assert!(info.contains("hyperedges: 3"));
        assert!(info.contains("acyclic:    false"));
    }

    #[test]
    fn gen_produces_known_instances() {
        let out = cmd_gen("queen5_5").unwrap();
        assert!(out.starts_with("p edge 25"));
        let out = cmd_gen("adder_3").unwrap();
        assert!(out.contains("xor1_1"));
        assert!(io::parse_hg(&out).is_ok());
        assert!(cmd_gen("nope").is_err());
    }

    #[test]
    fn solve_subcommand() {
        // x0 != x1 over 2 values
        let text = "csp 2 2\ncon neq 0 1 : 0 1 ; 1 0 ;\n";
        let one = cmd_solve(text, &Options::default()).unwrap();
        assert!(one.contains("x0 = "));
        let count = cmd_solve(
            text,
            &Options {
                count: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(count, "solutions: 2\n");
        let all = cmd_solve(
            text,
            &Options {
                all: Some(10),
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(all.lines().count(), 2);
        // unsat
        let unsat = "csp 1 1\ncon no 0 :\n";
        let r = cmd_solve(unsat, &Options::default()).unwrap();
        assert!(r.contains("UNSAT"));
    }

    #[test]
    fn solve_counts_never_wrap() {
        let count = Options {
            count: true,
            ..Options::default()
        };
        // 30 variables of domain 10 and one constraint x0 = x1 = 0: 10^28
        let err = cmd_solve("csp 30 10\ncon c 0 1 : 0 0 ;\n", &count).unwrap_err();
        assert_eq!(exit_code(&err), 4, "{err}");
        assert!(err.to_string().contains("2^64 - 1"), "{err}");
        // 19 variables: exactly 10^17
        let out = cmd_solve("csp 19 10\ncon c 0 1 : 0 0 ;\n", &count).unwrap();
        assert_eq!(out, "solutions: 100000000000000000\n");
        // Q(x0,y0,..) :- R0(x0,y0), .., R20(x20,y20), 10 tuples each: 10^21
        let atoms: Vec<String> = (0..21).map(|i| format!("R{i}(x{i}, y{i})")).collect();
        let head: Vec<String> = (0..21).map(|i| format!("x{i}, y{i}")).collect();
        let tuples: Vec<String> = (0..10).map(|v| format!("{v} {v}")).collect();
        let mut cq = format!("Q({}) :- {}.\n", head.join(", "), atoms.join(", "));
        for i in 0..21 {
            cq.push_str(&format!("R{i}: {} .\n", tuples.join(" ; ")));
        }
        let err = cmd_answer("q.cq", &cq, &count).unwrap_err();
        assert_eq!(exit_code(&err), 4, "{err}");
        assert!(err.to_string().contains("2^64 - 1"), "{err}");
    }

    #[test]
    fn solve_repeated_scope_variable() {
        // c(x0, x0) allows (0, 1) and (1, 1): only x0 = 1, and x1 is free
        let text = "csp 2 2\ncon c 0 0 : 0 1 ; 1 1 ;\n";
        let count = Options {
            count: true,
            ..Options::default()
        };
        assert_eq!(cmd_solve(text, &count).unwrap(), "solutions: 2\n");
        let all = Options {
            all: Some(10),
            ..Options::default()
        };
        assert_eq!(cmd_solve(text, &all).unwrap(), "1 0\n1 1\n");
        assert_eq!(
            cmd_solve(text, &Options::default()).unwrap(),
            "x0 = 1\nx1 = 0\n"
        );
    }

    #[test]
    fn answer_subcommand_modes() {
        let cq = "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .\n";
        // enumeration (default): distinct head assignments with a header
        let out = cmd_answer("q.cq", cq, &Options::default()).unwrap();
        assert!(out.contains("# x y"), "{out}");
        assert!(out.contains("1 5") && out.contains("1 6"), "{out}");
        assert!(out.contains("# 2 answers"), "{out}");
        // count mode via --count
        let count = cmd_answer(
            "q.cq",
            cq,
            &Options {
                count: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(count.starts_with("answers: 2\n"), "{count}");
        // boolean mode via --mode, quiet prints just the verdict line
        let sat = cmd_answer(
            "q.cq",
            cq,
            &Options {
                mode: Some("bool".into()),
                quiet: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert_eq!(sat, "true\n");
        // --limit truncates enumeration
        let limited = cmd_answer(
            "q.cq",
            cq,
            &Options {
                limit: Some(1),
                ..Options::default()
            },
        )
        .unwrap();
        assert!(limited.contains("# truncated"), "{limited}");
        // --format json emits the Answer object
        let json = cmd_answer(
            "q.cq",
            cq,
            &Options {
                format: Some("json".into()),
                count: true,
                ..Options::default()
            },
        )
        .unwrap();
        let ans = Answer::from_json(&Json::parse(json.trim()).unwrap()).unwrap();
        assert_eq!(ans.count, Some(2));
        // a bad mode is unsupported (exit 4), a bad query a parse error
        let err = cmd_answer(
            "q.cq",
            cq,
            &Options {
                mode: Some("maybe".into()),
                ..Options::default()
            },
        )
        .unwrap_err();
        assert_eq!(exit_code(&err), 4);
        let err = cmd_answer("q.cq", "Q(x :-", &Options::default()).unwrap_err();
        assert_eq!(exit_code(&err), 2);
    }

    #[test]
    fn answer_memory_budget_refuses_not_lies() {
        // a dense triangle query against a tiny budget must refuse with
        // a resource error (exit 6), never return a wrong answer
        let mut cq = String::from("Q(x, y, z) :- R(x, y), S(y, z), T(z, x).\n");
        for rel in ["R", "S", "T"] {
            let _ = write!(cq, "{rel}:");
            for i in 0..40 {
                for j in 0..40 {
                    let _ = write!(cq, " {i} {j} ;");
                }
            }
            cq.push_str(" .\n");
        }
        let err = cmd_answer(
            "q.cq",
            &cq,
            &Options {
                memory_mb: Some(1),
                ..Options::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, HtdError::ResourceExhausted(_)), "{err:?}");
        assert_eq!(exit_code(&err), 6);
    }

    #[test]
    fn traced_local_answer_spans_each_stage_once() {
        let ring = htd_trace::RingBuffer::new(4096);
        let mut opts =
            answer_options(&Options::default(), AnswerMode::Enumerate, u64::MAX).unwrap();
        opts.search = opts
            .search
            .with_tracer(Tracer::new(Box::new(std::sync::Arc::clone(&ring))));
        let cq = "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .";
        let ans = answer_local("q.cq", cq, &opts).unwrap();
        assert_eq!(ans.count, Some(2));
        let records = ring.records();
        htd_trace::validate_stream(&records).unwrap();
        for stage in ["answer.parse", "answer.decompose", "answer.evaluate"] {
            let (mut enters, mut exits) = (0, 0);
            for r in &records {
                match r.event {
                    htd_trace::Event::SpanEnter { span, .. } if span == stage => enters += 1,
                    htd_trace::Event::SpanExit { span, .. } if span == stage => exits += 1,
                    _ => {}
                }
            }
            assert_eq!((enters, exits), (1, 1), "{stage}");
        }
    }

    #[test]
    fn options_parsing() {
        let o = parse_options(&[
            "--fast".into(),
            "--budget".into(),
            "123".into(),
            "--threads".into(),
            "4".into(),
            "--time".into(),
            "250".into(),
            "--format".into(),
            "json".into(),
            "--quiet".into(),
            "--trace".into(),
            "out.jsonl".into(),
            "--verify".into(),
        ])
        .unwrap();
        assert!(o.fast);
        assert!(o.quiet);
        assert!(o.verify);
        assert_eq!(o.budget, 123);
        assert_eq!(o.threads, 4);
        assert_eq!(o.time_limit, Some(Duration::from_millis(250)));
        assert_eq!(o.format.as_deref(), Some("json"));
        assert_eq!(o.trace.as_deref(), Some("out.jsonl"));
        assert!(parse_options(&["--what".into()]).is_err());
        assert!(parse_options(&["--budget".into()]).is_err());
        assert!(parse_options(&["--trace".into()]).is_err());
    }

    #[test]
    fn help_texts_exist() {
        for cmd in [
            "info",
            "tw",
            "ghw",
            "hw",
            "decompose",
            "check",
            "solve",
            "answer",
            "gen",
            "serve",
            "query",
        ] {
            assert!(help_for(cmd).is_some(), "{cmd}");
        }
        assert!(help_for("nope").is_none());
        let decompose = help_for("decompose").unwrap();
        assert!(decompose.contains("td") && decompose.contains("dot"));
    }
}
