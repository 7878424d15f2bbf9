//! Service observability: each node's lock-free counters, latency/width
//! histograms, and the one Prometheus writer behind `GET /metrics`.
//!
//! A node owns every metric it renders, so in-process cluster nodes keep
//! their own. Everything is plain atomics so the hot path (one solve)
//! costs a handful of relaxed increments. Solver counts come from the
//! [`Outcome`] each of the node's solves returns, folded in once per
//! solve; the parts of a node that count for themselves (the result
//! cache, the store, the breakers, the shape cache) are read at scrape
//! time. The one process-wide family is
//! `htd_span_seconds`, which the span collector writes. The latency
//! histograms are [`htd_trace::HistogramMetric`]s; quantiles (p50/p95)
//! are interpolated from their buckets at scrape time, never maintained
//! online.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use htd_core::{HtdError, Json};
use htd_query::Answer;
use htd_search::{Engine, Outcome};
use htd_trace::HistogramMetric;

use crate::protocol::Status;
use crate::store::StoreStats;

/// Upper bounds (ms) of the request-latency histogram buckets; the last
/// bucket is +Inf.
pub const LATENCY_BUCKETS_MS: [f64; 14] = [
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Upper bounds (seconds) for the queue-wait / solve-time split. Finer at
/// the low end: queue waits on a healthy server are sub-millisecond.
pub const SECONDS_BUCKETS: [f64; 12] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
];

/// Widths `0..=MAX_TRACKED_WIDTH-1` get their own counter; anything wider
/// lands in the overflow bucket.
pub const MAX_TRACKED_WIDTH: usize = 32;

/// All counters and gauges of one server instance.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// Total requests by kind.
    pub solve_requests: AtomicU64,
    /// `answer` (conjunctive-query) requests.
    pub answer_requests: AtomicU64,
    /// `ping` requests.
    pub ping_requests: AtomicU64,
    /// `stats` requests.
    pub stats_requests: AtomicU64,
    /// `put_cert` pushes received from cluster peers.
    pub put_cert_requests: AtomicU64,
    /// HTTP scrapes (`/healthz` + `/metrics`).
    pub http_requests: AtomicU64,
    /// Responses with status `ok`.
    pub ok_responses: AtomicU64,
    /// Responses with status `rejected` (backpressure).
    pub rejected_responses: AtomicU64,
    /// Responses with status `timeout` (deadline expired in queue).
    pub timeout_responses: AtomicU64,
    /// Responses with status `error`.
    pub error_responses: AtomicU64,
    /// Responses with status `shutting_down`.
    pub shedding_responses: AtomicU64,
    /// Cache hits / misses (solve requests with cache enabled).
    pub cache_hits: AtomicU64,
    /// Cache misses.
    pub cache_misses: AtomicU64,
    /// Requests currently waiting in the work queue.
    pub queue_depth: AtomicI64,
    /// Solves currently running on workers.
    pub inflight: AtomicI64,
    /// End-to-end service latency of `ok` responses (incl. cache hits), ms.
    pub request_latency: HistogramMetric,
    /// Time a job spent waiting in the work queue, seconds.
    pub queue_wait: HistogramMetric,
    /// Time a solve or an answer spent on a worker, seconds. Together
    /// with [`Metrics::queue_wait`] this splits end-to-end latency into
    /// its queueing and compute parts.
    pub solve_time: HistogramMetric,
    /// Upper widths served, by value (capped at [`MAX_TRACKED_WIDTH`]).
    pub widths: Vec<AtomicU64>,
    /// Exact answers served.
    pub exact_served: AtomicU64,
    /// Inexact (anytime-bound) answers served.
    pub inexact_served: AtomicU64,
    /// Cluster: non-owned requests forwarded to a ring owner.
    pub cluster_forwards: AtomicU64,
    /// Cluster: forwards that failed over past at least one owner.
    pub cluster_failovers: AtomicU64,
    /// Cluster: every owner unusable — the request was solved locally.
    pub cluster_local_fallbacks: AtomicU64,
    /// Cluster: certificates replicated to a live replica.
    pub cluster_replications: AtomicU64,
    /// Cluster: certificates queued as hints for unreachable owners.
    pub cluster_handoffs_queued: AtomicU64,
    /// Cluster: hinted certificates delivered after recovery.
    pub cluster_handoffs_delivered: AtomicU64,
    /// Cluster: pushed certificates the local oracle verified + admitted.
    pub cluster_certs_accepted: AtomicU64,
    /// Cluster: pushed certificates the local oracle rejected.
    pub cluster_cert_rejects: AtomicU64,
    /// Cluster: failed peer health probes.
    pub cluster_probe_failures: AtomicU64,
    /// Cluster: ring membership size (self included; 0 = not clustered).
    pub cluster_ring_nodes: AtomicI64,
    /// Cluster: peers currently in each failure-detector state.
    pub cluster_peers_alive: AtomicI64,
    /// Peers the detector currently suspects.
    pub cluster_peers_suspect: AtomicI64,
    /// Peers the detector declared down.
    pub cluster_peers_down: AtomicI64,
    /// Peers that announced a graceful drain (leave-intent).
    pub cluster_peers_leaving: AtomicI64,
    /// Solver: node expansions of this node's solves per engine, in
    /// [`Engine::ALL`] order.
    pub(crate) expansions: [AtomicU64; Engine::ALL.len()],
    /// Solver: solves whose final upper bound came from each engine, in
    /// [`Engine::ALL`] order.
    pub(crate) wins: [AtomicU64; Engine::ALL.len()],
    /// Solver: lineup engines that got no worker slot.
    pub(crate) engines_skipped: AtomicU64,
    /// Solver: exact set-cover cache hits during ghw solves.
    pub(crate) cover_cache_hits: AtomicU64,
    /// Solver: exact set-cover cache misses during ghw solves.
    pub(crate) cover_cache_misses: AtomicU64,
    /// Solver: solves their time limit stopped.
    pub(crate) deadline_stops: AtomicU64,
    /// Solver: engine searches the memory governor stopped.
    pub(crate) mem_budget_aborts: AtomicU64,
    /// Solver: det-k subproblems decomposed by `hw` solves.
    pub(crate) detk_subproblems: AtomicU64,
    /// Solver: det-k separators tried by `hw` solves.
    pub(crate) detk_separators: AtomicU64,
    /// Solver: det-k failure-memo hits of `hw` solves.
    pub(crate) detk_memo_hits: AtomicU64,
    /// Panics quarantined: a portfolio engine's, or a whole solve's or
    /// answer's.
    pub(crate) worker_panics: AtomicU64,
    /// Solves answered with degraded bounds (memory governor, or an
    /// engine that panicked).
    pub(crate) degraded: AtomicU64,
    /// Solved outcomes the `--verify` oracle rejected.
    pub(crate) oracle_failures: AtomicU64,
    /// Answers: pipeline runs that produced an answer.
    pub(crate) answers: AtomicU64,
    /// Answers: tuples scanned by semijoin and enumeration passes.
    pub(crate) answer_tuples: AtomicU64,
    /// Answers: queries refused as too large or over the memory budget.
    pub(crate) answer_refusals: AtomicU64,
    /// Event loop: open connections.
    pub(crate) loop_connections: AtomicI64,
    /// Event loop: returns from `poll(2)`.
    pub(crate) loop_wakeups: AtomicU64,
    /// Event loop: buffered frames processed without a readiness event.
    pub(crate) loop_salvaged: AtomicU64,
    /// Event loop: requests queued while their connection had another in
    /// flight.
    pub(crate) pipelined: AtomicU64,
}

/// What `/metrics` reads at scrape time from the parts of a node that
/// count for themselves.
#[derive(Debug, Default)]
pub(crate) struct NodeReadings {
    pub(crate) cache_entries: u64,
    pub(crate) cache_bytes: u64,
    /// Exact claims the result cache refused because a cached witness
    /// refutes them.
    pub(crate) cache_contradictions: u64,
    pub(crate) draining: bool,
    /// Engines whose circuit breaker is not closed.
    pub(crate) engines_quarantined: u64,
    pub(crate) shape_hits: u64,
    pub(crate) shape_misses: u64,
    /// Load statistics of the store, zero without one.
    pub(crate) store: StoreStats,
    pub(crate) store_appends: u64,
    pub(crate) store_bytes: u64,
}

/// The index of `engine` in [`Engine::ALL`].
fn slot(engine: Engine) -> usize {
    Engine::ALL
        .iter()
        .position(|&e| e == engine)
        .expect("every engine is in Engine::ALL")
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics anchored at "now".
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            solve_requests: AtomicU64::new(0),
            answer_requests: AtomicU64::new(0),
            ping_requests: AtomicU64::new(0),
            put_cert_requests: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            rejected_responses: AtomicU64::new(0),
            timeout_responses: AtomicU64::new(0),
            error_responses: AtomicU64::new(0),
            shedding_responses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            inflight: AtomicI64::new(0),
            request_latency: HistogramMetric::new(&LATENCY_BUCKETS_MS),
            queue_wait: HistogramMetric::new(&SECONDS_BUCKETS),
            solve_time: HistogramMetric::new(&SECONDS_BUCKETS),
            widths: (0..=MAX_TRACKED_WIDTH).map(|_| AtomicU64::new(0)).collect(),
            exact_served: AtomicU64::new(0),
            inexact_served: AtomicU64::new(0),
            cluster_forwards: AtomicU64::new(0),
            cluster_failovers: AtomicU64::new(0),
            cluster_local_fallbacks: AtomicU64::new(0),
            cluster_replications: AtomicU64::new(0),
            cluster_handoffs_queued: AtomicU64::new(0),
            cluster_handoffs_delivered: AtomicU64::new(0),
            cluster_certs_accepted: AtomicU64::new(0),
            cluster_cert_rejects: AtomicU64::new(0),
            cluster_probe_failures: AtomicU64::new(0),
            cluster_ring_nodes: AtomicI64::new(0),
            cluster_peers_alive: AtomicI64::new(0),
            cluster_peers_suspect: AtomicI64::new(0),
            cluster_peers_down: AtomicI64::new(0),
            cluster_peers_leaving: AtomicI64::new(0),
            expansions: Engine::ALL.map(|_| AtomicU64::new(0)),
            wins: Engine::ALL.map(|_| AtomicU64::new(0)),
            engines_skipped: AtomicU64::new(0),
            cover_cache_hits: AtomicU64::new(0),
            cover_cache_misses: AtomicU64::new(0),
            deadline_stops: AtomicU64::new(0),
            mem_budget_aborts: AtomicU64::new(0),
            detk_subproblems: AtomicU64::new(0),
            detk_separators: AtomicU64::new(0),
            detk_memo_hits: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            oracle_failures: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            answer_tuples: AtomicU64::new(0),
            answer_refusals: AtomicU64::new(0),
            loop_connections: AtomicI64::new(0),
            loop_wakeups: AtomicU64::new(0),
            loop_salvaged: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
        }
    }

    /// Milliseconds since server start.
    pub fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Counts one response by its status: the only code that moves the
    /// five `htd_responses_total` counters. `pong`, `stats` and the reply
    /// to `shutdown` are never counted.
    pub(crate) fn count(&self, status: Status) {
        let counter = match status {
            Status::Ok => &self.ok_responses,
            Status::Rejected => &self.rejected_responses,
            Status::Timeout => &self.timeout_responses,
            Status::Error => &self.error_responses,
            Status::ShuttingDown => &self.shedding_responses,
            Status::Pong | Status::Stats => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a served outcome (width + exactness).
    pub fn record_served(&self, upper: u32, exact: bool) {
        let idx = (upper as usize).min(MAX_TRACKED_WIDTH);
        self.widths[idx].fetch_add(1, Ordering::Relaxed);
        if exact {
            self.exact_served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inexact_served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one of this node's solves into the solver families: each
    /// engine's expansions and panics, the winner, the skipped engines,
    /// the cover-cache traffic, a deadline stop, the governor's aborts
    /// and det-k's effort. Called once per solve the node ran.
    pub(crate) fn fold(&self, outcome: &Outcome) {
        let add = |counter: &AtomicU64, n: u64| {
            counter.fetch_add(n, Ordering::Relaxed);
        };
        for report in &outcome.per_engine {
            add(&self.expansions[slot(report.engine)], report.stats.expanded);
            add(&self.worker_panics, u64::from(report.panicked));
        }
        if let Some(winner) = outcome.winner {
            add(&self.wins[slot(winner)], 1);
        }
        add(&self.engines_skipped, outcome.skipped_engines.len() as u64);
        add(&self.cover_cache_hits, outcome.cover_cache_hits);
        add(&self.cover_cache_misses, outcome.cover_cache_misses);
        add(&self.deadline_stops, u64::from(outcome.deadline_stopped));
        add(&self.mem_budget_aborts, outcome.mem_budget_aborts);
        add(&self.detk_subproblems, outcome.detk.subproblems);
        add(&self.detk_separators, outcome.detk.separators_tried);
        add(&self.detk_memo_hits, outcome.detk.memo_hits);
    }

    /// Counts what one run of the answer pipeline returned: an answer and
    /// the tuples it scanned, or a refusal (a query over the memory
    /// budget is refused with [`HtdError::ResourceExhausted`], never
    /// answered wrongly).
    pub(crate) fn count_answer(&self, result: &Result<Answer, HtdError>) {
        match result {
            Ok(answer) => {
                self.answers.fetch_add(1, Ordering::Relaxed);
                self.answer_tuples
                    .fetch_add(answer.stats.tuples_scanned, Ordering::Relaxed);
            }
            Err(HtdError::ResourceExhausted(_)) => {
                self.answer_refusals.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    /// The Prometheus text exposition (version 0.0.4) for `GET /metrics`:
    /// every family this node renders, from the first scrape on.
    pub(crate) fn render_prometheus(&self, node: &NodeReadings) -> String {
        let mut o = String::with_capacity(4096);
        let c = |o: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} counter");
            let _ = writeln!(o, "{name} {v}");
        };
        let g = |o: &mut String, name: &str, help: &str, v: f64| {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} gauge");
            let _ = writeln!(o, "{name} {v}");
        };
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);

        let _ = writeln!(o, "# HELP htd_requests_total Requests by command.");
        let _ = writeln!(o, "# TYPE htd_requests_total counter");
        for (k, v) in [
            ("solve", ld(&self.solve_requests)),
            ("answer", ld(&self.answer_requests)),
            ("ping", ld(&self.ping_requests)),
            ("stats", ld(&self.stats_requests)),
            ("put_cert", ld(&self.put_cert_requests)),
            ("http", ld(&self.http_requests)),
        ] {
            let _ = writeln!(o, "htd_requests_total{{cmd=\"{k}\"}} {v}");
        }
        let _ = writeln!(o, "# HELP htd_responses_total Responses by status.");
        let _ = writeln!(o, "# TYPE htd_responses_total counter");
        for (k, v) in [
            ("ok", ld(&self.ok_responses)),
            ("rejected", ld(&self.rejected_responses)),
            ("timeout", ld(&self.timeout_responses)),
            ("error", ld(&self.error_responses)),
            ("shutting_down", ld(&self.shedding_responses)),
        ] {
            let _ = writeln!(o, "htd_responses_total{{status=\"{k}\"}} {v}");
        }
        c(
            &mut o,
            "htd_cache_hits_total",
            "Result-cache hits.",
            ld(&self.cache_hits),
        );
        c(
            &mut o,
            "htd_cache_misses_total",
            "Result-cache misses.",
            ld(&self.cache_misses),
        );
        g(
            &mut o,
            "htd_cache_entries",
            "Entries in the result cache.",
            node.cache_entries as f64,
        );
        g(
            &mut o,
            "htd_cache_bytes",
            "Approximate result-cache size.",
            node.cache_bytes as f64,
        );
        c(
            &mut o,
            "htd_cache_contradictions_total",
            "Exact claims the result cache refused because a cached witness refutes them.",
            node.cache_contradictions,
        );
        g(
            &mut o,
            "htd_queue_depth",
            "Requests waiting in the work queue.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        g(
            &mut o,
            "htd_inflight",
            "Solves currently running.",
            self.inflight.load(Ordering::Relaxed) as f64,
        );
        g(
            &mut o,
            "htd_draining",
            "1 while a graceful shutdown drains in-flight work.",
            if node.draining { 1.0 } else { 0.0 },
        );
        g(
            &mut o,
            "htd_uptime_ms",
            "Milliseconds since start.",
            self.uptime_ms() as f64,
        );
        c(
            &mut o,
            "htd_exact_served_total",
            "Exact answers served.",
            ld(&self.exact_served),
        );
        c(
            &mut o,
            "htd_inexact_served_total",
            "Anytime-bound answers served.",
            ld(&self.inexact_served),
        );

        // cluster series, zero outside cluster mode (stable schema)
        for (name, help, v) in [
            (
                "htd_cluster_forwards_total",
                "Non-owned requests forwarded to their ring owner.",
                ld(&self.cluster_forwards),
            ),
            (
                "htd_cluster_failovers_total",
                "Forwards that failed over past at least one owner.",
                ld(&self.cluster_failovers),
            ),
            (
                "htd_cluster_local_fallbacks_total",
                "Requests solved locally because every owner was unusable.",
                ld(&self.cluster_local_fallbacks),
            ),
            (
                "htd_cluster_replications_total",
                "Certificates replicated to live replicas.",
                ld(&self.cluster_replications),
            ),
            (
                "htd_cluster_handoffs_queued_total",
                "Certificates queued as hints for unreachable owners.",
                ld(&self.cluster_handoffs_queued),
            ),
            (
                "htd_cluster_handoffs_delivered_total",
                "Hinted certificates delivered after peer recovery.",
                ld(&self.cluster_handoffs_delivered),
            ),
            (
                "htd_cluster_certs_accepted_total",
                "Pushed certificates the local oracle verified and admitted.",
                ld(&self.cluster_certs_accepted),
            ),
            (
                "htd_cluster_cert_rejects_total",
                "Pushed certificates the local oracle rejected.",
                ld(&self.cluster_cert_rejects),
            ),
            (
                "htd_cluster_probe_failures_total",
                "Failed peer health probes.",
                ld(&self.cluster_probe_failures),
            ),
        ] {
            c(&mut o, name, help, v);
        }
        g(
            &mut o,
            "htd_cluster_ring_size",
            "Ring membership size, self included (0 = not clustered).",
            self.cluster_ring_nodes.load(Ordering::Relaxed) as f64,
        );
        let _ = writeln!(
            o,
            "# HELP htd_cluster_peers Peers by failure-detector state."
        );
        let _ = writeln!(o, "# TYPE htd_cluster_peers gauge");
        for (state, v) in [
            ("alive", &self.cluster_peers_alive),
            ("suspect", &self.cluster_peers_suspect),
            ("down", &self.cluster_peers_down),
            ("leaving", &self.cluster_peers_leaving),
        ] {
            let _ = writeln!(
                o,
                "htd_cluster_peers{{state=\"{state}\"}} {}",
                v.load(Ordering::Relaxed)
            );
        }

        for (hist, name, help) in [
            (
                &self.request_latency,
                "htd_request_latency_ms",
                "End-to-end request latency of ok responses, ms.",
            ),
            (
                &self.queue_wait,
                "htd_queue_seconds",
                "Time jobs waited in the work queue, seconds.",
            ),
            (
                &self.solve_time,
                "htd_solve_seconds",
                "Time jobs spent solving on a worker, seconds.",
            ),
        ] {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} histogram");
            hist.render_prometheus(name, &mut o);
            let _ = writeln!(o, "{name}_p50 {}", hist.quantile(0.5));
            let _ = writeln!(o, "{name}_p95 {}", hist.quantile(0.95));
        }

        let _ = writeln!(o, "# HELP htd_width_served_total Served upper widths.");
        let _ = writeln!(o, "# TYPE htd_width_served_total counter");
        for (w, v) in self.widths.iter().enumerate() {
            let v = v.load(Ordering::Relaxed);
            if v > 0 {
                if w == MAX_TRACKED_WIDTH {
                    let _ = writeln!(
                        o,
                        "htd_width_served_total{{width=\"{MAX_TRACKED_WIDTH}+\"}} {v}"
                    );
                } else {
                    let _ = writeln!(o, "htd_width_served_total{{width=\"{w}\"}} {v}");
                }
            }
        }

        // folded from the outcomes of this node's solves, counted by its
        // workers and event loop, or read from the parts that count
        // for themselves
        let (hits, misses) = (ld(&self.cover_cache_hits), ld(&self.cover_cache_misses));
        g(
            &mut o,
            "htd_cover_cache_hit_ratio",
            "Hit fraction of the exact cover cache.",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let expansions = self.expansions.iter().map(ld).sum();
        let counters = [
            ("htd_solver_expansions_total", expansions),
            ("htd_cover_cache_hits_total", hits),
            ("htd_cover_cache_misses_total", misses),
            (
                "htd_solver_deadline_cancellations_total",
                ld(&self.deadline_stops),
            ),
            ("htd_engines_skipped_total", ld(&self.engines_skipped)),
            ("htd_detk_subproblems_total", ld(&self.detk_subproblems)),
            ("htd_detk_separators_tried_total", ld(&self.detk_separators)),
            ("htd_detk_memo_hits_total", ld(&self.detk_memo_hits)),
            ("htd_worker_panics_total", ld(&self.worker_panics)),
            ("htd_mem_budget_aborts_total", ld(&self.mem_budget_aborts)),
            ("htd_degraded_responses_total", ld(&self.degraded)),
            ("htd_oracle_failures_total", ld(&self.oracle_failures)),
            ("htd_answers_total", ld(&self.answers)),
            ("htd_answer_tuples_scanned_total", ld(&self.answer_tuples)),
            ("htd_answer_refusals_total", ld(&self.answer_refusals)),
            ("htd_answer_shape_cache_hits_total", node.shape_hits),
            ("htd_answer_shape_cache_misses_total", node.shape_misses),
            ("htd_eventloop_wakeups_total", ld(&self.loop_wakeups)),
            (
                "htd_eventloop_salvaged_frames_total",
                ld(&self.loop_salvaged),
            ),
            ("htd_pipelined_requests_total", ld(&self.pipelined)),
            ("htd_store_loaded_total", node.store.loaded),
            ("htd_store_rejects_total", node.store.rejected),
            ("htd_store_truncated_total", node.store.truncated),
            ("htd_store_appends_total", node.store_appends),
        ];
        for (name, v) in counters {
            let _ = writeln!(o, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, per_engine) in [
            ("htd_solver_expansions", &self.expansions),
            ("htd_solver_wins", &self.wins),
        ] {
            let _ = writeln!(o, "# TYPE {name} counter");
            for (engine, v) in Engine::ALL.iter().zip(per_engine) {
                let _ = writeln!(o, "{name}{{engine=\"{}\"}} {}", engine.name(), ld(v));
            }
        }
        let connections = self.loop_connections.load(Ordering::Relaxed);
        for (name, v) in [
            ("htd_engine_quarantined", node.engines_quarantined as i64),
            ("htd_eventloop_connections", connections),
            ("htd_store_bytes", node.store_bytes as i64),
        ] {
            let _ = writeln!(o, "# TYPE {name} gauge\n{name} {v}");
        }
        htd_trace::span::render_prometheus(&mut o);
        o
    }

    /// The JSON snapshot behind the `stats` command.
    /// `solve_p50_ms`/`solve_p95_ms` are quantiles of
    /// [`Metrics::solve_time`], the worker time of solves and answers.
    pub fn snapshot_json(&self, cache_entries: u64, cache_bytes: u64, draining: bool) -> Json {
        let ld = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            ("uptime_ms".into(), Json::Num(self.uptime_ms() as f64)),
            ("draining".into(), Json::Bool(draining)),
            ("solve_requests".into(), ld(&self.solve_requests)),
            ("answer_requests".into(), ld(&self.answer_requests)),
            ("ok".into(), ld(&self.ok_responses)),
            ("rejected".into(), ld(&self.rejected_responses)),
            ("timeouts".into(), ld(&self.timeout_responses)),
            ("errors".into(), ld(&self.error_responses)),
            ("cache_hits".into(), ld(&self.cache_hits)),
            ("cache_misses".into(), ld(&self.cache_misses)),
            ("cache_entries".into(), Json::Num(cache_entries as f64)),
            ("cache_bytes".into(), Json::Num(cache_bytes as f64)),
            (
                "queue_depth".into(),
                Json::Num(self.queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "inflight".into(),
                Json::Num(self.inflight.load(Ordering::Relaxed) as f64),
            ),
            (
                "solve_p50_ms".into(),
                Json::Num(self.solve_time.quantile(0.5) * 1e3),
            ),
            (
                "solve_p95_ms".into(),
                Json::Num(self.solve_time.quantile(0.95) * 1e3),
            ),
            (
                "queue_p95_ms".into(),
                Json::Num(self.queue_wait.quantile(0.95) * 1e3),
            ),
            ("cluster_forwards".into(), ld(&self.cluster_forwards)),
            ("cluster_failovers".into(), ld(&self.cluster_failovers)),
            (
                "cluster_cert_rejects".into(),
                ld(&self.cluster_cert_rejects),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let h = HistogramMetric::new(&LATENCY_BUCKETS_MS);
        for _ in 0..90 {
            h.observe(1.5); // bucket (1, 2]
        }
        for _ in 0..10 {
            h.observe(400.0); // bucket (250, 500]
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!(p50 > 1.0 && p50 <= 2.0, "{p50}");
        let p95 = h.quantile(0.95);
        assert!(p95 > 250.0 && p95 <= 500.0, "{p95}");
        assert_eq!(HistogramMetric::new(&LATENCY_BUCKETS_MS).quantile(0.5), 0.0);
    }

    #[test]
    fn seconds_histograms_render_with_their_own_buckets() {
        let m = Metrics::new();
        m.queue_wait.observe(0.0007); // bucket (0.0005, 0.001]
        m.solve_time.observe(0.3); // bucket (0.25, 0.5]
        let text = m.render_prometheus(&NodeReadings::default());
        assert!(text.contains("htd_queue_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("htd_queue_seconds_count 1"));
        assert!(text.contains("htd_solve_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("htd_solve_seconds_sum 0.3"));
        let snap = m.snapshot_json(0, 0, false);
        let q = snap.get("queue_p95_ms").unwrap().as_f64().unwrap();
        assert!(q > 0.5 && q <= 1.0, "{q}");
        let p50 = snap.get("solve_p50_ms").unwrap().as_f64().unwrap();
        assert!(p50 > 250.0 && p50 <= 500.0, "{p50}");
    }

    #[test]
    fn cluster_series_render_with_states() {
        let m = Metrics::new();
        m.cluster_forwards.fetch_add(3, Ordering::Relaxed);
        m.cluster_cert_rejects.fetch_add(1, Ordering::Relaxed);
        m.cluster_peers_down.store(2, Ordering::Relaxed);
        m.cluster_ring_nodes.store(3, Ordering::Relaxed);
        let text = m.render_prometheus(&NodeReadings::default());
        assert!(text.contains("htd_cluster_forwards_total 3"));
        assert!(text.contains("htd_cluster_cert_rejects_total 1"));
        assert!(text.contains("htd_cluster_peers{state=\"down\"} 2"));
        assert!(text.contains("htd_cluster_peers{state=\"alive\"} 0"));
        assert!(text.contains("htd_cluster_ring_size 3"));
        let snap = m.snapshot_json(0, 0, false);
        assert_eq!(snap.get("cluster_forwards").unwrap().as_u64(), Some(3));
        assert_eq!(snap.get("cluster_cert_rejects").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn prometheus_rendering_contains_series() {
        let m = Metrics::new();
        m.solve_requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.request_latency.observe(7.0);
        m.record_served(4, true);
        m.record_served(100, false);
        let text = m.render_prometheus(&NodeReadings {
            cache_entries: 5,
            cache_bytes: 1024,
            ..NodeReadings::default()
        });
        assert!(text.contains("htd_requests_total{cmd=\"solve\"} 3"));
        assert!(text.contains("htd_cache_hits_total 2"));
        assert!(text.contains("htd_request_latency_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("htd_request_latency_ms_count 1"));
        assert!(text.contains("htd_width_served_total{width=\"4\"} 1"));
        assert!(text.contains("htd_width_served_total{width=\"32+\"} 1"));
        assert!(text.contains("htd_cache_entries 5"));
        // snapshot mirrors the counters
        let snap = m.snapshot_json(5, 1024, true);
        assert_eq!(snap.get("cache_hits").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("draining").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn folded_outcomes_render_per_engine_and_in_total() {
        use htd_search::{EngineReport, SearchStats};
        let report = |engine, expanded, panicked| EngineReport {
            engine,
            lower: 0,
            upper: u32::MAX,
            exact: false,
            panicked,
            stats: SearchStats {
                expanded,
                ..SearchStats::default()
            },
        };
        let doc = r#"{"objective":"tw","lower":3,"upper":3,"exact":true,"nodes":0,"elapsed_ms":1}"#;
        let mut o = Outcome::from_json(&Json::parse(doc).unwrap()).unwrap();
        o.per_engine = vec![
            report(Engine::BranchBound, 40, false),
            report(Engine::AStar, 2, true),
        ];
        o.winner = Some(Engine::BranchBound);
        o.skipped_engines = vec![Engine::Genetic];
        o.deadline_stopped = true;
        o.detk.separators_tried = 9;
        let m = Metrics::new();
        m.fold(&o);
        m.fold(&o);
        let text = m.render_prometheus(&NodeReadings::default());
        for line in [
            "htd_solver_expansions_total 84",
            "htd_solver_expansions{engine=\"branch_bound\"} 80",
            "htd_solver_expansions{engine=\"astar\"} 4",
            "htd_solver_expansions{engine=\"genetic\"} 0",
            "htd_solver_wins{engine=\"branch_bound\"} 2",
            "htd_solver_wins{engine=\"astar\"} 0",
            "htd_worker_panics_total 2",
            "htd_engines_skipped_total 2",
            "htd_solver_deadline_cancellations_total 2",
            "htd_detk_separators_tried_total 18",
        ] {
            assert!(text.contains(line), "missing {line} in:\n{text}");
        }
    }
}
