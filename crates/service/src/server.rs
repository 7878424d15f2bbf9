//! The decomposition server: request lifecycle, worker pool, deadlines,
//! backpressure and graceful shutdown.
//!
//! Connections are served by one front end, the `poll(2)` event loop of
//! [`crate::event_loop`], so the server runs on unix targets only:
//! elsewhere [`Server::start`] fails with [`std::io::ErrorKind::Unsupported`].
//!
//! ## Lifecycle of a solve request
//!
//! 1. The event loop frames the line; admission parses the instance as
//!    far as its cache key and canonicalizes that.
//! 2. Cache lookup — a hit answers immediately without queueing, with the
//!    outcome JSON its cache entry rendered on admission.
//! 3. A miss builds the [`Problem`] and enters the bounded work queue; a
//!    full queue means an immediate `rejected` response with
//!    `retry_after_ms` (backpressure) rather than unbounded buffering.
//! 4. A worker pops the job. If its deadline already expired in the queue
//!    the job is dropped with a `timeout` response (cooperative
//!    cancellation of evicted requests); otherwise the remaining time is
//!    mapped onto the solver's [`SearchConfig`] time limit, which the
//!    solve keeps itself — so a cold solve never overshoots its deadline
//!    by more than the engines' cancellation granularity (a few
//!    milliseconds). The solve's shared [`Incumbent`] sits on the
//!    in-flight list, through which [`Server::kill`] cancels it.
//! 5. The result is admitted to the cache and the response handed back
//!    to the event loop, which writes it on the requesting connection.
//!
//! `answer` (conjunctive-query) requests ride the same queue, deadlines
//! and backpressure: admission parses the query,
//! a worker runs the `htd-query` pipeline, and a per-server
//! [`ShapeCache`] lets repeated query *shapes* skip decomposition while
//! every answer is still evaluated against its own relations.
//!
//! ## Graceful shutdown
//!
//! `shutdown` (or SIGINT/SIGTERM under [`run_until_shutdown`]) flips the
//! server into *draining*: new solve requests are refused with
//! `shutting_down`, queued and in-flight work runs to completion, probes
//! (`/healthz`, `/metrics`, `ping`, `stats`) keep answering, and once the
//! queue is empty and no solve is in flight the workers and event loop
//! exit and a final metrics summary is flushed to the log.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use htd_core::{HtdError, Json};
use htd_hypergraph::canonical::canonical_form;
use htd_query::{parse_query, AnswerMode, AnswerOptions, FileAccess, Query, ShapeCache};
use htd_resilience::{
    quarantined, CircuitBreaker, Fault, FaultInjector, FaultPlan, InjectedFaults, MemoryBudget,
};
use htd_search::{solve, Engine, Incumbent, Problem, SearchConfig};
use parking_lot::Mutex;

use crate::cache::ResultCache;
use crate::client::Client;
use crate::cluster::{Cluster, ClusterConfig};
use crate::metrics::Metrics;
use crate::protocol::{
    AnswerRequest, CertPush, Command, InstanceFormat, KeyedInstance, Request, Response,
    SolveRequest, Status,
};
use crate::store::{CertStore, StoreRecord};

/// Slack subtracted from the remaining deadline when budgeting a solve,
/// covering admission/serialization overhead around the engine run.
const DEADLINE_SLACK: Duration = Duration::from_millis(10);
/// Extra time the event loop waits for a worker's reply beyond the
/// request's deadline before it answers `timeout` itself.
pub(crate) const REPLY_GRACE: Duration = Duration::from_secs(2);
/// Largest accepted request frame. A line still unfinished at this many
/// bytes gets a structured protocol error instead of buffering without
/// bound, and the connection is closed (the remainder of the oversized
/// frame is never read).
pub(crate) const MAX_FRAME: u64 = 8 << 20;
/// Largest serialized response written back on a connection; anything
/// bigger is replaced by a structured internal error.
pub(crate) const MAX_RESPONSE: usize = 32 << 20;
/// Query shapes kept in the answer shape cache. Each entry is one
/// elimination ordering (a few dozen bytes), so the cache is cheap; the
/// bound only guards against unbounded shape churn.
const SHAPE_CACHE_CAPACITY: usize = 1024;
/// Server-side cap on enumerated answer tuples when the request names no
/// limit, keeping one answer under [`MAX_RESPONSE`].
const DEFAULT_ANSWER_LIMIT: u64 = 100_000;

/// Configuration of a server instance.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads solving requests.
    pub threads: usize,
    /// Result-cache capacity in mebibytes.
    pub cache_mb: usize,
    /// Bounded work-queue capacity; beyond it requests are rejected.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry one.
    pub default_deadline_ms: u64,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
    /// Debug option: oracle-verify every solved outcome with `htd-check`
    /// before admitting it to the result cache. An outcome that fails the
    /// independent re-verification is still returned to the client (marked
    /// in the log and counted in `htd_oracle_failures_total`) but never
    /// cached, so one bad solve cannot poison repeat queries.
    pub verify_responses: bool,
    /// Per-request memory budget in mebibytes; solves that outgrow it
    /// degrade to their best anytime bounds (`outcome.degraded = true`)
    /// instead of growing without bound. `None` = ungoverned.
    pub memory_mb: Option<u64>,
    /// Deterministic fault injection: each solve consults the plan and may
    /// get a panicking worker, an injected stall, or an allocation-starved
    /// budget. `None` (production) injects nothing.
    pub chaos: Option<FaultPlan>,
    /// Consecutive panicked reports after which an engine's circuit
    /// breaker opens and the engine is benched from the lineup.
    pub breaker_threshold: u32,
    /// How long a benched engine stays out before the breaker half-opens
    /// and lets one probe solve try it again.
    pub breaker_probe_ms: u64,
    /// Directory of the persistent verified certificate store. `Some`
    /// opens (creating if absent) `store.log` under it, re-verifies every
    /// record with the `htd-check` oracle, warms the result cache with
    /// the survivors, and appends every new cacheable solve — so a
    /// restarted node serves warm without ever trusting disk.
    pub store_dir: Option<PathBuf>,
    /// Ignored: the event loop ([`crate::event_loop`]) is the only front
    /// end. Kept so that code which still sets it keeps compiling.
    #[deprecated(note = "the event loop is the only front end; this field is ignored")]
    pub event_loop: bool,
    /// Cluster membership: `Some` makes this node one of N peers sharding
    /// the keyspace over a consistent-hash ring (see [`crate::cluster`]).
    pub cluster: Option<ClusterConfig>,
    /// Bind with `SO_REUSEADDR` so a restarted node can reclaim its port
    /// immediately (lingering connections of a killed predecessor
    /// otherwise hold it in `TIME_WAIT`). Off by default: in production
    /// the guard against two servers on one port is worth the wait.
    pub reuse_addr: bool,
}

impl Default for ServeOptions {
    #[allow(deprecated)]
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            threads: 2,
            cache_mb: 64,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            log: false,
            verify_responses: false,
            memory_mb: None,
            chaos: None,
            breaker_threshold: 3,
            breaker_probe_ms: 500,
            store_dir: None,
            event_loop: false,
            cluster: None,
            reuse_addr: false,
        }
    }
}

/// Where a worker's finished [`Response`] goes: the event loop's
/// completion queue, tagged with the connection id and per-connection
/// token, to be written when the connection is next writable.
pub(crate) struct ReplySink {
    pub(crate) conn: u64,
    pub(crate) token: u64,
    pub(crate) completions: Arc<crate::event_loop::Completions>,
}

impl ReplySink {
    /// Pushes the response and wakes the loop. A connection that went
    /// away meanwhile drops it there; the result is already cached.
    pub(crate) fn send(&self, response: Response) {
        self.completions.push(self.conn, self.token, response);
    }
}

/// What admission decided about a request, before any worker ran.
// `Ready` dwarfs `Queued`, but an `Admission` lives only for the few
// instructions between `admit_request` and the caller's `match`; boxing
// would put an allocation on the cache-hit fast path for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Admission {
    /// Answered on the spot: probe, cache hit, parse error, backpressure
    /// rejection, or drain refusal.
    Ready(Response),
    /// Queued for a worker; the response will arrive on the job's
    /// [`ReplySink`] no later than `deadline + REPLY_GRACE`.
    Queued {
        id: Option<String>,
        fingerprint: Option<String>,
        deadline: Instant,
        received: Instant,
    },
}

/// A unit of queued work: a decomposition solve or a conjunctive-query
/// answer. Both share the bounded queue, the deadlines and the
/// backpressure machinery.
struct Job {
    id: Option<String>,
    work: Work,
    deadline: Instant,
    deadline_ms: u64,
    threads: usize,
    engines: Option<Vec<Engine>>,
    received: Instant,
    /// When the job entered the work queue; the pop-to-push delta is the
    /// queue-wait component of the latency split.
    enqueued: Instant,
    reply: ReplySink,
}

/// What a queued job actually computes.
enum Work {
    Solve(SolveWork),
    Answer(AnswerWork),
    /// Cluster mode: the request belongs to another node's shard; try
    /// the owners in order, fall back to computing locally.
    Forward(ForwardWork),
    /// Cluster mode: a peer pushed a certificate; re-verify it with the
    /// oracle before admitting it to cache and store.
    PutCert(CertPush),
}

struct ForwardWork {
    /// The command re-sent to the owner, its `forwarded` flag set so the
    /// receiver always computes locally (one hop, no forwarding loops).
    cmd: Command,
    /// Owner candidates in preference order (`(id, addr)`; ring order,
    /// alive before suspect, down/leaving excluded).
    candidates: Vec<(String, String)>,
    /// The local fallback when every owner is unusable.
    local: Box<Work>,
}

struct SolveWork {
    problem: Problem,
    fingerprint: u64,
    fingerprint_hex: String,
    canonical: Vec<u8>,
    canonical_complete: bool,
    objective_name: &'static str,
    budget: Option<u64>,
    /// The original instance text + format, kept so a cacheable outcome
    /// can be appended to the certificate store (whose loader re-parses
    /// the instance to re-verify the certificate from scratch). Empty
    /// when no store is configured.
    instance: String,
    format: InstanceFormat,
}

struct AnswerWork {
    query: Query,
    mode: AnswerMode,
    limit: Option<u64>,
    use_shape_cache: bool,
    /// Microseconds admission spent parsing the query,
    /// forwarded into the pipeline's `parse` stage event.
    parse_us: u64,
}

impl Work {
    /// Short label for log lines (the solve objective, or `answer`).
    fn label(&self) -> &'static str {
        match self {
            Work::Solve(w) => w.objective_name,
            Work::Answer(_) => "answer",
            Work::Forward(_) => "forward",
            Work::PutCert(_) => "put_cert",
        }
    }

    /// The instance fingerprint when already known: solves canonicalize
    /// on admission, answers learn theirs from the pipeline afterwards.
    fn fingerprint_hex(&self) -> Option<&str> {
        match self {
            Work::Solve(w) => Some(&w.fingerprint_hex),
            Work::Answer(_) => None,
            Work::Forward(f) => f.local.fingerprint_hex(),
            Work::PutCert(p) => Some(&p.fingerprint_hex),
        }
    }
}

/// Bounded MPMC queue on std `Mutex` + `Condvar` (the vendored
/// `parking_lot` has no condvar).
struct WorkQueue {
    jobs: StdMutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl WorkQueue {
    fn new(capacity: usize) -> WorkQueue {
        WorkQueue {
            jobs: StdMutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless full; never blocks the submitting connection.
    /// Returns `false` (dropping the job) when the queue is at capacity.
    /// A poisoned mutex (a thread panicked while holding it) is recovered
    /// rather than propagated: the queue of `Job`s has no invariant a
    /// half-finished critical section can break, and one panicked worker
    /// must not take the whole intake path down with it.
    fn try_push(&self, job: Job) -> bool {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        true
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Job> {
        let mut q = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if q.is_empty() {
            q = match self.ready.wait_timeout(q, timeout) {
                Ok((guard, _)) => guard,
                Err(p) => p.into_inner().0,
            };
        }
        q.pop_front()
    }

    fn len(&self) -> usize {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// State shared by every thread of one server.
pub(crate) struct Inner {
    opts: ServeOptions,
    cache: ResultCache,
    /// Decompositions shared across `answer` requests of the same query
    /// *shape* (canonical hypergraph): repeated shapes with different
    /// relation data skip decomposition entirely. Only the decomposition
    /// is shared — answers are always evaluated against the request's
    /// own data.
    shapes: Arc<ShapeCache>,
    pub(crate) metrics: Arc<Metrics>,
    queue: WorkQueue,
    /// Draining: refuse new solves, finish queued + in-flight work.
    draining: AtomicBool,
    /// Final stop: workers and event loop exit.
    pub(crate) shutdown: AtomicBool,
    /// Abrupt stop ([`Server::kill`]): exit without draining, dropping
    /// queued work and open connections — the in-process analog of
    /// `kill -9`, for crash testing.
    pub(crate) killed: AtomicBool,
    /// Cluster membership + failure detector (`opts.cluster`).
    pub(crate) cluster: Option<Arc<Cluster>>,
    /// The shared incumbents of in-flight jobs, which [`Server::kill`]
    /// cancels.
    in_flight: Mutex<Vec<Arc<Incumbent>>>,
    pub(crate) conn_seq: AtomicU64,
    /// Seeded fault injector (`opts.chaos`); `None` in production.
    injector: Option<Arc<FaultInjector>>,
    /// One circuit breaker per portfolio engine: engines whose reports
    /// keep coming back `panicked` are benched from the lineup until the
    /// probe interval passes.
    breakers: Vec<(Engine, CircuitBreaker)>,
    /// Persistent verified certificate store (`opts.store_dir`); `None`
    /// when the server runs memory-only.
    store: Option<CertStore>,
}

impl Inner {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Builds the engine lineup for a solve with `slots` portfolio slots:
    /// closed-breaker engines run freely, and at most one benched engine
    /// whose probe interval has elapsed is admitted — with a slot reserved
    /// for it, so a claimed probe is guaranteed to actually run and report
    /// back (otherwise the breaker would wedge half-open). `None` means
    /// the default lineup: either everything is healthy, or everything is
    /// benched with no probe ready, in which case we fail open — a
    /// degraded portfolio beats no portfolio, and successes re-close the
    /// breakers.
    fn allowed_engines(&self, slots: usize) -> Option<Vec<Engine>> {
        let closed: Vec<Engine> = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state() == htd_resilience::BreakerState::Closed)
            .map(|(e, _)| *e)
            .collect();
        if closed.len() == self.breakers.len() {
            return None; // all healthy: default lineup
        }
        let probe = self.breakers.iter().find_map(|(e, b)| {
            (b.state() != htd_resilience::BreakerState::Closed && b.allow()).then_some(*e)
        });
        match probe {
            None if closed.is_empty() => None, // all benched, none probeable: fail open
            None => Some(closed),
            Some(p) => {
                // strongest closed engines first (lineup order is claim
                // order), truncated so the probe keeps a guaranteed slot
                let mut lineup: Vec<Engine> =
                    closed.into_iter().take(slots.saturating_sub(1)).collect();
                lineup.push(p);
                Some(lineup)
            }
        }
    }

    /// Records per-engine panic attribution into the breakers and
    /// refreshes the `htd_engine_quarantined` gauge (benched engines:
    /// breakers not currently closed).
    fn record_engine_outcomes(&self, reports: &[htd_search::EngineReport]) {
        for (engine, b) in &self.breakers {
            match reports.iter().find(|r| r.engine == *engine) {
                Some(rep) if rep.panicked => b.record_failure(),
                Some(_) => b.record_success(),
                None => {
                    // a half-open breaker whose probe produced no report
                    // (e.g. a zero-budget solve skipped the engines) must
                    // not wedge: re-open it so it probes again later
                    if b.state() == htd_resilience::BreakerState::HalfOpen {
                        b.record_failure();
                    }
                }
            }
        }
        self.refresh_quarantine_gauge();
    }

    fn refresh_quarantine_gauge(&self) {
        let open = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state() != htd_resilience::BreakerState::Closed)
            .count();
        htd_trace::registry()
            .gauge("htd_engine_quarantined")
            .set(open as i64);
    }

    pub(crate) fn log(&self, line: std::fmt::Arguments<'_>) {
        if self.opts.log {
            eprintln!("[htd-service +{}ms] {line}", self.metrics.uptime_ms());
        }
    }

    /// Cluster mode: stamps the id of the node that produced `r`.
    /// Forwarded responses arrive already stamped by the owner that
    /// computed them and keep that stamp — it is the client-visible
    /// evidence of where the work actually ran.
    fn stamp(&self, r: &mut Response) {
        if r.node.is_none() {
            if let Some(cluster) = &self.cluster {
                r.node = Some(cluster.node_id().to_string());
            }
        }
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::request_shutdown`] then [`Server::wait`].
pub struct Server {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    workers: Vec<JoinHandle<()>>,
    event_loop: Option<JoinHandle<()>>,
    agent: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the event loop and workers. On non-unix targets, which have no `poll(2)`, it fails
    /// with [`std::io::ErrorKind::Unsupported`] before binding.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        if cfg!(not(unix)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "htd-service needs poll(2) and runs on unix targets only",
            ));
        }
        let listener = if opts.reuse_addr {
            bind_reusable(&opts.addr)?
        } else {
            TcpListener::bind(&opts.addr)?
        };
        listener.set_nonblocking(true)?;
        widen_accept_backlog(&listener);
        let addr = listener.local_addr()?;
        let threads = opts.threads.max(1);
        let injector = opts.chaos.map(FaultInjector::new);
        let breakers = Engine::default_lineup()
            .into_iter()
            .map(|e| {
                (
                    e,
                    CircuitBreaker::new(
                        opts.breaker_threshold,
                        Duration::from_millis(opts.breaker_probe_ms),
                    ),
                )
            })
            .collect();
        // open the certificate store (if any) before serving: every
        // record is re-verified by the oracle inside `CertStore::open`,
        // and only survivors warm the result cache
        let cache = ResultCache::new(opts.cache_mb.max(1) * (1 << 20));
        let store = match &opts.store_dir {
            Some(dir) => {
                let (store, records) = CertStore::open(dir)?;
                for rec in &records {
                    cache.admit(
                        rec.fingerprint,
                        &rec.canonical,
                        rec.objective,
                        &rec.outcome,
                        rec.effort_ms,
                    );
                }
                Some(store)
            }
            None => None,
        };
        let metrics = Arc::new(Metrics::new());
        let cluster = opts
            .cluster
            .clone()
            .map(|cfg| Arc::new(Cluster::new(cfg, Arc::clone(&metrics), opts.log)));
        let inner = Arc::new(Inner {
            cache,
            shapes: Arc::new(ShapeCache::new(SHAPE_CACHE_CAPACITY)),
            metrics,
            queue: WorkQueue::new(opts.queue_capacity),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            cluster,
            in_flight: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
            injector,
            breakers,
            store,
            opts,
        });
        inner.log(format_args!(
            "listening on {addr} workers={threads} cache_mb={} queue={} chaos={} memory_mb={} \
             store={}",
            inner.opts.cache_mb,
            inner.opts.queue_capacity,
            inner
                .opts
                .chaos
                .map_or("off".to_string(), |p| format!("seed:{}", p.seed)),
            inner
                .opts
                .memory_mb
                .map_or("-".to_string(), |m| m.to_string()),
            inner
                .opts
                .store_dir
                .as_deref()
                .map_or("-".to_string(), |d| d.display().to_string()),
        ));
        if let Some(store) = &inner.store {
            let st = store.stats();
            inner.log(format_args!(
                "store warm: loaded={} rejected={} truncated={} bytes={}",
                st.loaded,
                st.rejected,
                st.truncated,
                store.bytes(),
            ));
        }
        // pre-register the solver-level series so `/metrics` exposes them
        // (at zero) before the first solve instead of popping in later
        let reg = htd_trace::registry();
        reg.counter("htd_solver_expansions_total");
        reg.counter("htd_cover_cache_hits_total");
        reg.counter("htd_cover_cache_misses_total");
        reg.counter("htd_solver_deadline_cancellations_total");
        reg.counter("htd_oracle_failures_total");
        reg.counter("htd_worker_panics_total");
        reg.counter("htd_mem_budget_aborts_total");
        reg.counter("htd_degraded_responses_total");
        reg.gauge("htd_engine_quarantined");
        // certificate-store + event-loop series (zero when those
        // subsystems are off, so dashboards see a stable schema)
        reg.counter("htd_store_loaded_total");
        reg.counter("htd_store_rejects_total");
        reg.counter("htd_store_truncated_total");
        reg.counter("htd_store_appends_total");
        reg.gauge("htd_store_bytes");
        reg.gauge("htd_eventloop_connections");
        reg.counter("htd_eventloop_wakeups_total");
        reg.counter("htd_pipelined_requests_total");
        // ... and the answer-pipeline series of htd-query
        reg.counter("htd_answers_total");
        reg.counter("htd_answer_shape_cache_hits_total");
        reg.counter("htd_answer_shape_cache_misses_total");
        reg.counter("htd_answer_tuples_scanned_total");
        reg.counter("htd_answer_refusals_total");
        reg.histogram(
            "htd_answer_latency_ms",
            htd_query::ANSWER_LATENCY_BUCKETS_MS,
        );
        // the service keeps span aggregation on for the whole process:
        // per-stage spans feed the htd_span_seconds{span=...} histograms
        // on /metrics at bounded (counter-batch-like) cost
        htd_trace::set_spans_enabled(true);
        let workers = (0..threads)
            .map(|w| {
                let inner = Arc::clone(&inner);
                let label: &'static str = Box::leak(format!("svc-{w}").into_boxed_str());
                thread::Builder::new()
                    .name(format!("htd-worker-{w}"))
                    .spawn(move || {
                        htd_trace::set_worker(label);
                        worker_loop(&inner)
                    })
                    .expect("spawn worker")
            })
            .collect();
        let event_loop = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("htd-event-loop".into())
                .spawn(move || {
                    if let Err(e) = crate::event_loop::run(&inner, listener) {
                        inner.log(format_args!("event loop exited with error: {e}"));
                    }
                })
                .expect("spawn event loop")
        };
        let agent = inner.cluster.as_ref().map(|cluster| {
            inner.log(format_args!(
                "cluster node={} ring={} replication={} peers={}",
                cluster.node_id(),
                cluster.ring().len(),
                cluster.config().replication,
                cluster
                    .config()
                    .peers
                    .iter()
                    .map(|p| format!("{}={}", p.id, p.addr))
                    .collect::<Vec<_>>()
                    .join(","),
            ));
            let inner = Arc::clone(&inner);
            let cluster = Arc::clone(cluster);
            thread::Builder::new()
                .name("htd-cluster".into())
                .spawn(move || {
                    crate::cluster::run_agent(&cluster, inner.store.as_ref(), &inner.shutdown)
                })
                .expect("spawn cluster agent")
        });
        Ok(Server {
            inner,
            addr,
            workers,
            event_loop: Some(event_loop),
            agent,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Shared metrics of this instance.
    pub fn metrics(&self) -> &Metrics {
        self.inner.metrics.as_ref()
    }

    /// The cluster layer, when this node runs as part of one.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.inner.cluster.as_ref()
    }

    /// Begins a graceful drain: refuse new solves, finish running work.
    pub fn request_shutdown(&self) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            self.inner.log(format_args!("drain requested"));
        }
    }

    /// `true` once a drain has been requested (by command or signal).
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Blocks until the drain completes: the event loop delivers every
    /// in-flight response, then every thread is stopped and joined and a
    /// final metrics summary is flushed to the log.
    pub fn wait(mut self) {
        loop {
            if self.inner.draining()
                && self.inner.queue.len() == 0
                && self.inner.metrics.inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.join_all();
        let m = &self.inner.metrics;
        self.inner.log(format_args!(
            "drained; served={} hits={} misses={} timeouts={} rejected={} p50={:.1}ms p95={:.1}ms",
            m.ok_responses.load(Ordering::Relaxed),
            m.cache_hits.load(Ordering::Relaxed),
            m.cache_misses.load(Ordering::Relaxed),
            m.timeout_responses.load(Ordering::Relaxed),
            m.rejected_responses.load(Ordering::Relaxed),
            m.solve_latency.quantile(0.5),
            m.solve_latency.quantile(0.95),
        ));
    }

    /// Stops the node *abruptly*: no drain, queued work dropped,
    /// in-flight solves cancelled, connections severed mid-request — the
    /// in-process analog of `kill -9`, for crash and failover testing.
    /// Every open connection dies with the event loop, so clients see a
    /// reset. The certificate store's exclusive lock is released on
    /// return, so a replacement node can reopen the same `--store`
    /// directory.
    pub fn kill(mut self) {
        self.inner
            .log(format_args!("killed (abrupt stop, no drain)"));
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for incumbent in self.inner.in_flight.lock().iter() {
            incumbent.cancel();
        }
        self.join_all();
    }

    /// Wakes and joins every thread once `shutdown` is set, then releases
    /// the store's single-writer lock: the workers, its only appenders,
    /// are gone, and a same-process reopen of the same `--store`
    /// directory must not wait for the last `Arc<Inner>` to drop.
    fn join_all(&mut self) {
        self.inner.queue.wake_all();
        let threads = self
            .workers
            .drain(..)
            .chain(self.event_loop.take())
            .chain(self.agent.take());
        for t in threads {
            let _ = t.join();
        }
        if let Some(store) = self.inner.store.as_ref() {
            store.unlock();
        }
    }
}

/// `std::net` listens with a fixed backlog of 128, which a connection
/// storm (hundreds of clients dialing the same instant) overflows —
/// the kernel then drops or resets handshakes before the loop ever
/// sees them. Linux allows re-calling `listen(2)` on a listening
/// socket to widen the queue; ask for more and let the kernel clamp
/// to `somaxconn`. Best-effort: a failure leaves the default backlog.
#[cfg(unix)]
fn widen_accept_backlog(listener: &TcpListener) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: `listen(2)` takes two integers and touches no memory of
    // ours. The fd comes from `listener`, which the borrow keeps open
    // for the duration of the call; a bad fd only yields an error return.
    unsafe {
        listen(listener.as_raw_fd(), 4096);
    }
}

#[cfg(not(unix))]
fn widen_accept_backlog(_listener: &TcpListener) {}

/// Binds with `SO_REUSEADDR` ([`ServeOptions::reuse_addr`]): a node
/// restarted after a crash must reclaim its port immediately even while
/// connections of its killed predecessor linger in `TIME_WAIT`. `std`'s
/// `TcpListener::bind` sets no socket options, so the v4 path builds the
/// socket by hand; anything else falls back to the plain bind.
#[cfg(target_os = "linux")]
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    use std::net::{SocketAddr, ToSocketAddrs};
    use std::os::unix::io::FromRawFd;
    let Some(SocketAddr::V4(v4)) = addr.to_socket_addrs()?.next() else {
        return TcpListener::bind(addr);
    };
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    // SAFETY: every pointer handed to the kernel points to a live local
    // (`one`, `sin`), and each length argument is that local's size;
    // `SockaddrIn` is `repr(C)` with the layout of `struct sockaddr_in`.
    // The fd is checked after `socket`, closed on every error path, and
    // on success owned by exactly one `TcpListener`.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let one: i32 = 1;
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4);
        let sin = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if bind(fd, &sin, std::mem::size_of::<SockaddrIn>() as u32) != 0 || listen(fd, 4096) != 0 {
            let e = std::io::Error::last_os_error();
            close(fd);
            return Err(e);
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(not(target_os = "linux"))]
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

#[cfg(unix)]
fn install_signal_drain() -> &'static AtomicBool {
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGINT = 2, SIGTERM = 15 on every unix the workspace targets
    // SAFETY: `on_signal` is an `extern "C" fn(i32)`, the handler type
    // `signal(2)` expects, and lives for the whole program. It only
    // stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
    &SIGNALLED
}

/// The CLI entry point: serve until a `shutdown` command or (on unix)
/// SIGINT/SIGTERM, then drain and exit.
pub fn run_until_shutdown(opts: ServeOptions) -> std::io::Result<()> {
    let server = Server::start(opts)?;
    println!("htd-service listening on {}", server.addr());
    #[cfg(unix)]
    let signalled = install_signal_drain();
    loop {
        #[cfg(unix)]
        if signalled.load(Ordering::SeqCst) {
            server.request_shutdown();
        }
        if server.is_draining() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    server.wait();
    Ok(())
}

fn worker_loop(inner: &Inner) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst)
            && (inner.killed.load(Ordering::SeqCst) || inner.queue.len() == 0)
        {
            return;
        }
        let Some(job) = inner.queue.pop_timeout(Duration::from_millis(50)) else {
            continue;
        };
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let now = Instant::now();
        let queued = now.saturating_duration_since(job.enqueued);
        inner.metrics.queue_wait.observe(queued.as_secs_f64());
        if now >= job.deadline {
            // expired while queued: evict without running
            inner
                .metrics
                .timeout_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Timeout);
            inner.stamp(&mut r);
            r.fingerprint = job.work.fingerprint_hex().map(str::to_string);
            r.canonical = matches!(&job.work, Work::Solve(w) if w.canonical_complete);
            r.error = Some("deadline expired in queue".into());
            r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj={} fp={} status=timeout queued_ms={:.1}",
                job.id.as_deref().unwrap_or("-"),
                job.work.label(),
                job.work.fingerprint_hex().unwrap_or("-"),
                r.elapsed_ms
            ));
            job.reply.send(r);
            continue;
        }
        inner.metrics.inflight.fetch_add(1, Ordering::SeqCst);
        let incumbent = Arc::new(Incumbent::new());
        inner.in_flight.lock().push(Arc::clone(&incumbent));

        // seeded fault injection (chaos mode): a request may be stalled,
        // allocation-starved, or handed a panicking portfolio worker
        let fault = inner
            .injector
            .as_ref()
            .map(|i| i.next_request())
            .unwrap_or_default();
        if let Some(d) = fault.delay {
            thread::sleep(d);
        }

        let mut r = match &job.work {
            Work::Solve(w) => {
                let _sp = htd_trace::span!("service.solve");
                run_solve(inner, &job, w, &incumbent, &fault, queued)
            }
            Work::Answer(w) => {
                let _sp = htd_trace::span!("service.answer");
                run_answer(inner, &job, w, &incumbent, &fault, queued)
            }
            Work::Forward(f) => {
                let _sp = htd_trace::span!("cluster.forward");
                run_forward(inner, &job, f, &incumbent, &fault, queued)
            }
            Work::PutCert(p) => {
                let _sp = htd_trace::span!("cluster.put_cert");
                run_put_cert(inner, &job, p)
            }
        };

        inner
            .in_flight
            .lock()
            .retain(|i| !Arc::ptr_eq(i, &incumbent));
        inner.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
        if r.status == Status::Ok {
            inner.metrics.request_latency.observe(r.elapsed_ms);
        }
        inner.stamp(&mut r);
        let _sp = htd_trace::span!("service.respond");
        job.reply.send(r);
    }
}

/// Runs one solve job on a worker: budget the remaining deadline into
/// the search, quarantine the solve, verify/admit the outcome, respond.
fn run_solve(
    inner: &Inner,
    job: &Job,
    w: &SolveWork,
    incumbent: &Arc<Incumbent>,
    fault: &Fault,
    queued: Duration,
) -> Response {
    let remaining = job.deadline.saturating_duration_since(Instant::now());
    let mut cfg = match w.budget {
        Some(b) => SearchConfig::budgeted(b),
        None => SearchConfig::portfolio(),
    };
    cfg = cfg
        .with_time_limit(remaining.saturating_sub(DEADLINE_SLACK))
        .with_threads(job.threads);
    cfg.shared = Some(Arc::clone(incumbent));
    if fault.alloc_fail {
        // near-zero budget: the solve degrades to its anytime bounds
        cfg = cfg.with_memory_budget(16 << 10);
    } else if let Some(mb) = inner.opts.memory_mb {
        cfg = cfg.with_memory_budget(mb << 20);
    }
    if fault.panic_worker {
        cfg = cfg.with_faults(InjectedFaults::with_panics(1));
    }
    // an explicit per-request lineup wins; otherwise bench engines
    // with open breakers (and admit at most one probe)
    let lineup = job
        .engines
        .clone()
        .or_else(|| inner.allowed_engines(job.threads.max(1)));
    if let Some(engines) = lineup.clone() {
        cfg = cfg.with_engines(engines);
    }

    let solve_start = Instant::now();
    // last line of defense: a panic anywhere in the solve path is
    // quarantined into a structured internal error instead of taking
    // the worker thread (and with it the whole pool) down
    let result = quarantined(|| solve(&w.problem, &cfg)).unwrap_or_else(|message| {
        htd_trace::registry()
            .counter("htd_worker_panics_total")
            .inc();
        // the panic escaped per-engine attribution; charge the whole
        // lineup so a persistently crashing path still gets benched
        for (engine, b) in &inner.breakers {
            match lineup.as_ref() {
                Some(l) if !l.contains(engine) => {}
                _ => b.record_failure(),
            }
        }
        inner.refresh_quarantine_gauge();
        Err(HtdError::Io(format!(
            "solver panicked (quarantined): {message}"
        )))
    });
    let solve_elapsed = solve_start.elapsed();
    let solve_ms = solve_elapsed.as_secs_f64() * 1000.0;
    inner
        .metrics
        .solve_time
        .observe(solve_elapsed.as_secs_f64());

    let mut r = match result {
        Ok(outcome) => {
            inner.metrics.solve_latency.observe(solve_ms);
            inner.record_engine_outcomes(&outcome.per_engine);
            let survived_panic = outcome.per_engine.iter().any(|e| e.panicked);
            let degraded = outcome.degraded || survived_panic;
            if degraded {
                htd_trace::registry()
                    .counter("htd_degraded_responses_total")
                    .inc();
            }
            // degraded results carry weaker bounds than a healthy solve
            // of the same instance would; never let them shadow a
            // future clean answer in the cache
            let mut cacheable = !degraded;
            if inner.opts.verify_responses {
                let report = htd_check::verify_outcome(&w.problem, &outcome);
                if !report.is_valid() {
                    cacheable = false;
                    htd_trace::registry()
                        .counter("htd_oracle_failures_total")
                        .inc();
                    inner.log(format_args!(
                        "req={} obj={} fp={} ORACLE VIOLATION (response served, not cached): {}",
                        job.id.as_deref().unwrap_or("-"),
                        w.objective_name,
                        w.fingerprint_hex,
                        report
                    ));
                }
            }
            if cacheable {
                inner.cache.admit(
                    w.fingerprint,
                    &w.canonical,
                    w.objective_name,
                    &outcome,
                    solve_ms.ceil() as u64,
                );
                // persist what the cache learned: only clean, cacheable
                // outcomes reach the log, and `CertStore::append` itself
                // refuses anything the loader could not later re-verify
                if let Some(store) = &inner.store {
                    let rec = StoreRecord {
                        objective: w.objective_name,
                        format: w.format,
                        instance: w.instance.clone(),
                        fingerprint: w.fingerprint,
                        canonical: w.canonical.clone(),
                        effort_ms: solve_ms.ceil() as u64,
                        outcome: outcome.clone(),
                    };
                    if let Err(e) = store.append(&rec) {
                        inner.log(format_args!(
                            "store append failed fp={}: {e}",
                            w.fingerprint_hex
                        ));
                    }
                }
                // cluster mode: push the verified certificate to the
                // other owners of this fingerprint. Only store-admissible
                // outcomes travel (the receiver's oracle gate mirrors the
                // store's), and the push covers both steady-state
                // replication and the hinted handoff of a local-fallback
                // solve — the owners are exactly the nodes that need it.
                if let Some(cluster) = &inner.cluster {
                    if !w.instance.is_empty()
                        && w.objective_name != "hw"
                        && outcome.witness.is_some()
                    {
                        cluster.replicate(
                            w.fingerprint,
                            &CertPush {
                                objective: outcome.objective,
                                format: w.format,
                                instance: w.instance.clone(),
                                fingerprint_hex: w.fingerprint_hex.clone(),
                                effort_ms: solve_ms.ceil() as u64,
                                outcome: outcome.clone(),
                                from: Some(cluster.node_id().to_string()),
                            },
                        );
                    }
                }
            }
            inner.metrics.record_served(outcome.upper, outcome.exact);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            r.outcome = Some(outcome);
            r
        }
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            Response::from_error(job.id.clone(), &e)
        }
    };
    r.fingerprint = Some(w.fingerprint_hex.clone());
    r.canonical = w.canonical_complete;
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "req={} obj={} fp={} cache=miss status={} width={} exact={} winner={} queued_ms={:.2} solve_ms={:.1} total_ms={:.1} deadline_ms={}",
        job.id.as_deref().unwrap_or("-"),
        w.objective_name,
        w.fingerprint_hex,
        r.status.name(),
        r.outcome.as_ref().map_or(0, |o| o.upper),
        r.outcome.as_ref().is_some_and(|o| o.exact),
        r.outcome
            .as_ref()
            .and_then(|o| o.winner)
            .map_or("-", |w| w.name()),
        queued.as_secs_f64() * 1e3,
        solve_ms,
        r.elapsed_ms,
        job.deadline_ms,
    ));
    r
}

/// Runs one answer job through the `htd-query` pipeline: decomposition
/// (shape-cache first), then Yannakakis evaluation against the
/// request's own relations — under the same deadline, thread and
/// memory governance as a solve. A memory-budget overrun *refuses* the
/// query with a size estimate ([`HtdError::ResourceExhausted`]) rather
/// than returning a wrong answer.
fn run_answer(
    inner: &Inner,
    job: &Job,
    w: &AnswerWork,
    incumbent: &Arc<Incumbent>,
    fault: &Fault,
    queued: Duration,
) -> Response {
    let remaining = job.deadline.saturating_duration_since(Instant::now());
    let mut cfg = SearchConfig::default()
        .with_max_nodes(200_000)
        .with_time_limit(remaining.saturating_sub(DEADLINE_SLACK))
        .with_threads(job.threads);
    cfg.shared = Some(Arc::clone(incumbent));
    if fault.panic_worker {
        cfg = cfg.with_faults(InjectedFaults::with_panics(1));
    }
    if let Some(engines) = job.engines.clone() {
        cfg = cfg.with_engines(engines);
    }
    let budget = if fault.alloc_fail {
        // allocation starvation: the evaluation must refuse, never lie
        Some(MemoryBudget::new(16 << 10))
    } else {
        inner.opts.memory_mb.map(|mb| MemoryBudget::new(mb << 20))
    };
    let opts = AnswerOptions {
        mode: w.mode,
        limit: w.limit.unwrap_or(DEFAULT_ANSWER_LIMIT),
        search: cfg,
        memory_budget: budget,
        shape_cache: w.use_shape_cache.then(|| Arc::clone(&inner.shapes)),
        deadline: Some(
            job.deadline
                .checked_sub(DEADLINE_SLACK)
                .unwrap_or(job.deadline),
        ),
        parse_us: w.parse_us,
    };

    let eval_start = Instant::now();
    // the pipeline quarantines its evaluation pass; this outer
    // quarantine additionally covers the decomposition search
    let result = quarantined(|| htd_query::answer(&w.query, &opts)).unwrap_or_else(|message| {
        htd_trace::registry()
            .counter("htd_worker_panics_total")
            .inc();
        Err(HtdError::Io(format!(
            "answer pipeline panicked (quarantined): {message}"
        )))
    });
    let eval_elapsed = eval_start.elapsed();
    inner.metrics.solve_time.observe(eval_elapsed.as_secs_f64());

    let mut r = match result {
        Ok(ans) => {
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            // `cached` on an answer means the *decomposition* was reused;
            // the semijoin passes always ran against this request's data
            r.cached = ans.stats.shape_cache_hit;
            r.fingerprint = Some(ans.stats.fingerprint.clone());
            r.canonical = ans.stats.canonical_complete;
            r.answer = Some(ans);
            r
        }
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            Response::from_error(job.id.clone(), &e)
        }
    };
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "req={} obj=answer mode={} fp={} shape_cache={} status={} tuples={} queued_ms={:.2} eval_ms={:.1} total_ms={:.1} deadline_ms={}",
        job.id.as_deref().unwrap_or("-"),
        w.mode.name(),
        r.fingerprint.as_deref().unwrap_or("-"),
        if r.cached { "hit" } else { "miss" },
        r.status.name(),
        r.answer.as_ref().map_or(0, |a| a.stats.tuples_scanned),
        queued.as_secs_f64() * 1e3,
        eval_elapsed.as_secs_f64() * 1e3,
        r.elapsed_ms,
        job.deadline_ms,
    ));
    r
}

/// Runs one forwarded request on a worker: dial the owners in order and
/// relay the first usable response; when every owner is unreachable,
/// shutting down or partitioned away, compute locally (the certificate
/// then travels to the owners as a hint via the replication path).
/// Forwarding runs on the worker pool — never on the event loop — so a
/// slow peer stalls one worker slot, not the whole front end.
fn run_forward(
    inner: &Inner,
    job: &Job,
    f: &ForwardWork,
    incumbent: &Arc<Incumbent>,
    fault: &Fault,
    queued: Duration,
) -> Response {
    let cluster = inner
        .cluster
        .as_ref()
        .expect("forward work queued without a cluster");
    let dial_timeout = Duration::from_millis(cluster.config().probe_timeout_ms);
    for (hop, (peer, addr)) in f.candidates.iter().enumerate() {
        let attempt = (|| -> Option<Response> {
            if cluster.is_peer_partitioned(peer) {
                return None;
            }
            let mut c = Client::connect_timeout(addr, dial_timeout).ok()?;
            let remaining = job.deadline.saturating_duration_since(Instant::now());
            c.set_read_timeout(Some(remaining + REPLY_GRACE));
            let r = c
                .request(&Request {
                    id: job.id.clone(),
                    cmd: f.cmd.clone(),
                })
                .ok()?;
            // a draining owner refuses new work; treat like a dead one
            (r.status != Status::ShuttingDown).then_some(r)
        })();
        match attempt {
            Some(mut r) => {
                inner
                    .metrics
                    .cluster_forwards
                    .fetch_add(1, Ordering::Relaxed);
                r.id = job.id.clone();
                r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
                inner.log(format_args!(
                    "req={} fp={} forwarded to={} hop={hop} status={} ms={:.1}",
                    job.id.as_deref().unwrap_or("-"),
                    f.local.fingerprint_hex().unwrap_or("-"),
                    peer,
                    r.status.name(),
                    r.elapsed_ms,
                ));
                return r;
            }
            None => {
                inner
                    .metrics
                    .cluster_failovers
                    .fetch_add(1, Ordering::Relaxed);
                inner.log(format_args!(
                    "req={} fp={} owner={peer} unreachable, failing over",
                    job.id.as_deref().unwrap_or("-"),
                    f.local.fingerprint_hex().unwrap_or("-"),
                ));
            }
        }
    }
    // last rung of the ladder: every owner unusable — answer the client
    // from here rather than failing, and let replication hint the owner
    inner
        .metrics
        .cluster_local_fallbacks
        .fetch_add(1, Ordering::Relaxed);
    inner.log(format_args!(
        "req={} fp={} all {} owner(s) unusable: solving locally",
        job.id.as_deref().unwrap_or("-"),
        f.local.fingerprint_hex().unwrap_or("-"),
        f.candidates.len(),
    ));
    match &*f.local {
        Work::Solve(w) => run_solve(inner, job, w, incumbent, fault, queued),
        Work::Answer(w) => run_answer(inner, job, w, incumbent, fault, queued),
        // admission never nests Forward/PutCert inside a fallback
        Work::Forward(_) | Work::PutCert(_) => unreachable!("invalid forward fallback"),
    }
}

/// Handles a `put_cert` push from a peer: the claim is re-verified from
/// scratch (re-parse, re-canonicalize, oracle re-proof) before anything
/// is admitted — a remote peer is exactly as untrusted as bytes on disk.
fn run_put_cert(inner: &Inner, job: &Job, p: &CertPush) -> Response {
    let claimed = u64::from_str_radix(&p.fingerprint_hex, 16).unwrap_or(0);
    let mut r = match crate::store::verify_claim(
        p.objective,
        p.format,
        p.instance.clone(),
        claimed,
        p.effort_ms,
        p.outcome.clone(),
    ) {
        Some(rec) => {
            inner.cache.admit(
                rec.fingerprint,
                &rec.canonical,
                rec.objective,
                &rec.outcome,
                rec.effort_ms,
            );
            if let Some(store) = &inner.store {
                if let Err(e) = store.append(&rec) {
                    inner.log(format_args!(
                        "store append of pushed cert failed fp={}: {e}",
                        p.fingerprint_hex
                    ));
                }
            }
            inner
                .metrics
                .cluster_certs_accepted
                .fetch_add(1, Ordering::Relaxed);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(job.id.clone(), Status::Ok);
            r.fingerprint = Some(p.fingerprint_hex.clone());
            r
        }
        None => {
            inner
                .metrics
                .cluster_cert_rejects
                .fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let e =
                HtdError::Invalid("pushed certificate failed oracle re-verification".to_string());
            let mut r = Response::from_error(job.id.clone(), &e);
            r.fingerprint = Some(p.fingerprint_hex.clone());
            r
        }
    };
    r.elapsed_ms = job.received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "put_cert from={} fp={} status={} ms={:.1}",
        p.from.as_deref().unwrap_or("-"),
        p.fingerprint_hex,
        r.status.name(),
        r.elapsed_ms,
    ));
    r
}

/// Serializes one response line (newline included), enforcing
/// [`MAX_RESPONSE`]: an oversized body is replaced by a structured
/// internal error so a single pathological result cannot monopolize the
/// connection.
pub(crate) fn response_line(response: &Response) -> Vec<u8> {
    let mut body = response.to_line();
    if body.len() > MAX_RESPONSE {
        let e = HtdError::Io(format!(
            "response of {} bytes exceeds the {} byte limit",
            body.len(),
            MAX_RESPONSE
        ));
        let mut r = Response::from_error(response.id.clone(), &e);
        r.elapsed_ms = response.elapsed_ms;
        body = r.to_json().to_string();
    }
    body.push('\n');
    body.into_bytes()
}

/// Non-blocking admission, called by the event loop for every request
/// frame: probes answer on the spot, solves/answers either answer
/// immediately (cache hit, parse error, drain refusal, backpressure
/// rejection) or enter the bounded work queue with their reply routed
/// to `sink`.
pub(crate) fn admit_request(inner: &Arc<Inner>, req: Request, sink: ReplySink) -> Admission {
    match admit_request_inner(inner, req, sink) {
        Admission::Ready(mut r) => {
            inner.stamp(&mut r);
            Admission::Ready(r)
        }
        queued => queued,
    }
}

fn admit_request_inner(inner: &Arc<Inner>, req: Request, sink: ReplySink) -> Admission {
    match req.cmd {
        Command::Ping => {
            inner.metrics.ping_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Pong);
            // leave-intent signal: the cluster failure detector reads this
            // to mark a draining peer `Leaving` instead of failing it
            r.draining = inner.draining();
            Admission::Ready(r)
        }
        Command::Stats => {
            inner.metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Stats);
            r.stats = Some(inner.metrics.snapshot_json(
                inner.cache.entries(),
                inner.cache.bytes(),
                inner.draining(),
            ));
            Admission::Ready(r)
        }
        Command::Shutdown => {
            if !inner.draining.swap(true, Ordering::SeqCst) {
                inner.log(format_args!("drain requested by client"));
            }
            Admission::Ready(Response::new(req.id, Status::ShuttingDown))
        }
        Command::Solve(s) => admit_solve(inner, req.id, s, sink),
        Command::Answer(a) => admit_answer(inner, req.id, a, sink),
        Command::PutCert(p) => admit_put_cert(inner, req.id, p, sink),
    }
}

/// Admission path of a peer's `put_cert` push: the oracle re-proof is
/// real work (a full `htd check` of the claimed decomposition), so it
/// rides the bounded queue like any other job instead of stalling the
/// event loop.
fn admit_put_cert(
    inner: &Arc<Inner>,
    id: Option<String>,
    p: CertPush,
    sink: ReplySink,
) -> Admission {
    let received = Instant::now();
    inner
        .metrics
        .put_cert_requests
        .fetch_add(1, Ordering::Relaxed);
    if inner.draining() {
        inner
            .metrics
            .shedding_responses
            .fetch_add(1, Ordering::Relaxed);
        let mut r = Response::new(id, Status::ShuttingDown);
        r.error = Some("server is draining".into());
        return Admission::Ready(r);
    }
    let deadline_ms = inner.opts.default_deadline_ms;
    let deadline = received + Duration::from_millis(deadline_ms);
    let fingerprint_hex = p.fingerprint_hex.clone();
    let job = Job {
        id: id.clone(),
        work: Work::PutCert(p),
        deadline,
        deadline_ms,
        threads: 1,
        engines: None,
        received,
        enqueued: Instant::now(),
        reply: sink,
    };
    inner.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
    if !inner.queue.try_push(job) {
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        inner
            .metrics
            .rejected_responses
            .fetch_add(1, Ordering::Relaxed);
        // the sender's outbox redelivers with backoff; a plain rejection
        // is all the backpressure signal it needs
        let mut r = Response::new(id, Status::Rejected);
        r.error = Some("work queue full".into());
        r.fingerprint = Some(fingerprint_hex);
        r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
        return Admission::Ready(r);
    }
    Admission::Queued {
        id,
        fingerprint: Some(fingerprint_hex),
        deadline,
        received,
    }
}

fn admit_solve(
    inner: &Arc<Inner>,
    id: Option<String>,
    s: SolveRequest,
    sink: ReplySink,
) -> Admission {
    let received = Instant::now();
    inner.metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
    let deadline_ms = s.deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
    let deadline = received + Duration::from_millis(deadline_ms);
    let objective_name = s.objective.name();

    // a hit needs only the key: the problem is built below, on a miss
    let instance = match KeyedInstance::parse(s.format, &s.instance, s.objective) {
        Ok(instance) => instance,
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::from_error(id.clone(), &e);
            r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj={objective_name} status=error err={:?}",
                id.as_deref().unwrap_or("-"),
                r.error.as_deref().unwrap_or("")
            ));
            return Admission::Ready(r);
        }
    };
    let canon = canonical_form(instance.key());
    let fingerprint_hex = canon.hex();

    if s.use_cache {
        if let Some(hit) = inner.cache.lookup(
            canon.fingerprint,
            &canon.bytes,
            objective_name,
            true,
            Some(deadline_ms),
        ) {
            inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.metrics.ok_responses.fetch_add(1, Ordering::Relaxed);
            inner
                .metrics
                .record_served(hit.outcome.upper, hit.outcome.exact);
            let mut r = Response::new(id.clone(), Status::Ok);
            r.cached = true;
            r.outcome = Some(hit.outcome);
            r.rendered_outcome = Some(hit.rendered);
            r.fingerprint = Some(fingerprint_hex.clone());
            r.canonical = canon.complete;
            r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
            inner.metrics.request_latency.observe(r.elapsed_ms);
            inner.log(format_args!(
                "req={} obj={objective_name} fp={fingerprint_hex} cache=hit status=ok width={} ms={:.2}",
                id.as_deref().unwrap_or("-"),
                r.outcome.as_ref().map_or(0, |o| o.upper),
                r.elapsed_ms
            ));
            return Admission::Ready(r);
        }
    }
    inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    if inner.draining() {
        inner
            .metrics
            .shedding_responses
            .fetch_add(1, Ordering::Relaxed);
        let mut r = Response::new(id, Status::ShuttingDown);
        r.error = Some("server is draining".into());
        return Admission::Ready(r);
    }

    let solve_work = SolveWork {
        problem: instance.into_problem(),
        fingerprint: canon.fingerprint,
        fingerprint_hex: fingerprint_hex.clone(),
        canonical: canon.bytes,
        canonical_complete: canon.complete,
        objective_name,
        budget: s.budget,
        // the instance text is only re-read by the store's loader and
        // the cluster's replication push; keep the job lean otherwise
        instance: if inner.store.is_some() || inner.cluster.is_some() {
            s.instance.clone()
        } else {
            String::new()
        },
        format: s.format,
    };
    let threads = s.threads.unwrap_or(1).max(1);
    let engines = s.engines.clone();
    // keys this node does not own route to their owners; the `forwarded`
    // flag breaks the cycle (a forwarded request always computes where
    // it lands). Cache hits above stay local either way — replicas hold
    // verified entries legitimately.
    let work = match &inner.cluster {
        Some(cl) if !s.forwarded && !cl.owns(canon.fingerprint) => {
            let candidates = cl.forward_candidates(canon.fingerprint);
            let mut fwd = s;
            fwd.forwarded = true;
            Work::Forward(ForwardWork {
                cmd: Command::Solve(fwd),
                candidates,
                local: Box::new(Work::Solve(solve_work)),
            })
        }
        _ => Work::Solve(solve_work),
    };
    let job = Job {
        id: id.clone(),
        work,
        deadline,
        deadline_ms,
        threads,
        engines,
        received,
        enqueued: Instant::now(),
        reply: sink,
    };
    inner.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
    if !inner.queue.try_push(job) {
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        inner
            .metrics
            .rejected_responses
            .fetch_add(1, Ordering::Relaxed);
        // hint: half the median solve so retries spread out, floor 10ms
        let p50 = inner.metrics.solve_latency.quantile(0.5);
        let mut r = Response::new(id.clone(), Status::Rejected);
        r.error = Some("work queue full".into());
        r.retry_after_ms = Some(((p50 / 2.0) as u64).clamp(10, 1000));
        r.fingerprint = Some(fingerprint_hex.clone());
        r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
        inner.log(format_args!(
            "req={} obj={objective_name} fp={fingerprint_hex} status=rejected retry_after_ms={}",
            id.as_deref().unwrap_or("-"),
            r.retry_after_ms.unwrap_or(0)
        ));
        return Admission::Ready(r);
    }

    Admission::Queued {
        id,
        fingerprint: Some(fingerprint_hex),
        deadline,
        received,
    }
}

/// Admission path of an `answer` request: parse the query on the
/// event loop (cheap, and a parse error must not occupy a worker), then
/// queue the evaluation under the same backpressure and deadline rules
/// as a solve. Unlike the solve result cache, the shape cache cannot
/// answer from the event loop — a shape hit only
/// skips the decomposition, the semijoin passes still run against this
/// request's own relations — so the lookup happens inside the pipeline
/// on the worker.
fn admit_answer(
    inner: &Arc<Inner>,
    id: Option<String>,
    a: AnswerRequest,
    sink: ReplySink,
) -> Admission {
    let received = Instant::now();
    inner
        .metrics
        .answer_requests
        .fetch_add(1, Ordering::Relaxed);
    let deadline_ms = a.deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
    let deadline = received + Duration::from_millis(deadline_ms);

    // the service never reads relation files on behalf of a remote peer
    let query = match parse_query(&a.query, &FileAccess::Deny) {
        Ok(q) => q,
        Err(e) => {
            inner
                .metrics
                .error_responses
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::from_error(id.clone(), &e);
            r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
            inner.log(format_args!(
                "req={} obj=answer status=error err={:?}",
                id.as_deref().unwrap_or("-"),
                r.error.as_deref().unwrap_or("")
            ));
            return Admission::Ready(r);
        }
    };
    let parse_us = received.elapsed().as_micros() as u64;

    if inner.draining() {
        inner
            .metrics
            .shedding_responses
            .fetch_add(1, Ordering::Relaxed);
        let mut r = Response::new(id, Status::ShuttingDown);
        r.error = Some("server is draining".into());
        return Admission::Ready(r);
    }

    // answers route on the same key the shape cache uses: the canonical
    // fingerprint of the query's hypergraph (only computed when clustered)
    let routing_key = inner
        .cluster
        .as_ref()
        .map(|_| canonical_form(&query.csp.hypergraph()).fingerprint);
    let answer_work = AnswerWork {
        query,
        mode: a.mode,
        limit: a.limit,
        use_shape_cache: a.use_cache,
        parse_us,
    };
    let threads = a.threads.unwrap_or(1).max(1);
    let engines = a.engines.clone();
    let work = match (&inner.cluster, routing_key) {
        (Some(cl), Some(key)) if !a.forwarded && !cl.owns(key) => {
            let candidates = cl.forward_candidates(key);
            let mut fwd = a;
            fwd.forwarded = true;
            Work::Forward(ForwardWork {
                cmd: Command::Answer(fwd),
                candidates,
                local: Box::new(Work::Answer(answer_work)),
            })
        }
        _ => Work::Answer(answer_work),
    };
    let job = Job {
        id: id.clone(),
        work,
        deadline,
        deadline_ms,
        threads,
        engines,
        received,
        enqueued: Instant::now(),
        reply: sink,
    };
    inner.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
    if !inner.queue.try_push(job) {
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        inner
            .metrics
            .rejected_responses
            .fetch_add(1, Ordering::Relaxed);
        // hint: half the median solve so retries spread out, floor 10ms
        let p50 = inner.metrics.solve_latency.quantile(0.5);
        let mut r = Response::new(id.clone(), Status::Rejected);
        r.error = Some("work queue full".into());
        r.retry_after_ms = Some(((p50 / 2.0) as u64).clamp(10, 1000));
        r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
        inner.log(format_args!(
            "req={} obj=answer status=rejected retry_after_ms={}",
            id.as_deref().unwrap_or("-"),
            r.retry_after_ms.unwrap_or(0)
        ));
        return Admission::Ready(r);
    }

    Admission::Queued {
        id,
        fingerprint: None,
        deadline,
        received,
    }
}

/// Renders a full HTTP probe response (status line + headers + body) for
/// `/healthz`, `/metrics` and friends.
pub(crate) fn http_response_bytes(inner: &Inner, request_line: &str) -> Vec<u8> {
    inner.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/healthz" => {
            let draining = inner.draining();
            let mut fields = vec![
                (
                    "status".to_string(),
                    Json::Str(if draining { "draining" } else { "ok" }.into()),
                ),
                (
                    "uptime_ms".into(),
                    Json::Num(inner.metrics.uptime_ms() as f64),
                ),
                (
                    "queue_depth".into(),
                    Json::Num(inner.metrics.queue_depth.load(Ordering::SeqCst) as f64),
                ),
                (
                    "inflight".into(),
                    Json::Num(inner.metrics.inflight.load(Ordering::SeqCst) as f64),
                ),
                ("draining".into(), Json::Bool(draining)),
            ];
            if let Some(cluster) = &inner.cluster {
                fields.push(("node".into(), Json::Str(cluster.node_id().to_string())));
                fields.push(("ring_nodes".into(), Json::Num(cluster.ring().len() as f64)));
                fields.push((
                    "peers".into(),
                    Json::Obj(
                        cluster
                            .peer_states()
                            .into_iter()
                            .map(|(id, st)| (id, Json::Str(st.name().into())))
                            .collect(),
                    ),
                ));
            }
            let body = Json::Obj(fields).to_string();
            // 503 while draining: load balancers and the cluster failure
            // detector both read drain as leave-intent, not liveness
            let status = if draining {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "application/json", body)
        }
        "/metrics" => {
            let mut body = inner.metrics.render_prometheus(
                inner.cache.entries(),
                inner.cache.bytes(),
                inner.draining(),
            );
            // solver-level series (expansions, per-engine wins, cover-cache
            // traffic) live in the process-wide htd-trace registry
            let reg = htd_trace::registry();
            let hits = reg.counter_value("htd_cover_cache_hits_total").unwrap_or(0);
            let misses = reg
                .counter_value("htd_cover_cache_misses_total")
                .unwrap_or(0);
            use std::fmt::Write as _;
            let _ = writeln!(
                body,
                "# HELP htd_cover_cache_hit_ratio Hit fraction of the exact cover cache.\n\
                 # TYPE htd_cover_cache_hit_ratio gauge\n\
                 htd_cover_cache_hit_ratio {}",
                hits as f64 / (hits + misses).max(1) as f64
            );
            reg.render_prometheus(&mut body);
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    if !request_line.starts_with("HEAD ") {
        out.extend_from_slice(body.as_bytes());
    }
    out
}
