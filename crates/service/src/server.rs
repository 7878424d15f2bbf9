//! The decomposition server: request lifecycle, worker pool, deadlines,
//! backpressure and graceful shutdown.
//!
//! Connections are served by one front end, the `poll(2)` event loop of
//! [`crate::event_loop`], so the server runs on unix targets only:
//! elsewhere [`Server::start`] fails with [`std::io::ErrorKind::Unsupported`].
//!
//! ## Lifecycle of a request
//!
//! `ping`, `stats` and `shutdown` are answered on the event loop. Every
//! command a worker runs — `solve`, `answer` and a peer's `put_cert` —
//! takes one path:
//!
//! 1. Its own step, on the event loop. A solve parses the instance as far
//!    as its cache key and canonicalizes that; a cache hit is answered on
//!    the spot with the outcome JSON its cache entry rendered on
//!    admission. An answer parses its query. A parse error, and an
//!    instance key or query too large to build, is answered here. None
//!    of this is refused while draining.
//! 2. The one way into the queue. A draining server refuses with
//!    `shutting_down`. Otherwise the work is built (a solve's [`Problem`]
//!    only now), a key this node does not own is routed to its owners
//!    (cluster mode, unless a peer forwarded the request already), and
//!    the job enters the bounded work queue. A full queue means an
//!    immediate `rejected` response rather than unbounded buffering;
//!    solves and answers carry a `retry_after_ms` hint (backpressure).
//! 3. A worker pops the job. If its deadline already expired in the queue
//!    the job is dropped with a `timeout` response (cooperative
//!    cancellation of evicted requests). Otherwise the remaining time is
//!    mapped onto the job's [`SearchConfig`] time limit, which the search
//!    keeps itself — so a cold job never overshoots its deadline by more
//!    than the engines' cancellation granularity (a few milliseconds).
//!    The search's shared [`Incumbent`] sits on the in-flight list,
//!    through which [`Server::kill`] cancels it.
//! 4. A verified outcome — a clean solve, or a pushed certificate the
//!    oracle re-proved — is admitted to the cache and appended to the
//!    store, and the response is handed back to the event loop, which
//!    writes it on the requesting connection.
//!
//! An `answer` runs the `htd-query` pipeline on the worker; a per-server
//! [`ShapeCache`] lets repeated query *shapes* skip decomposition while
//! every answer is still evaluated against its own relations.
//!
//! Every response is counted once by its status: admission counts those
//! it answers, the worker those it computes, and the event loop those it
//! synthesizes. A response relayed from a key's owner was counted there.
//!
//! ## Graceful shutdown
//!
//! `shutdown` (or SIGINT/SIGTERM under [`run_until_shutdown`]) flips the
//! server into *draining*: new work is refused with `shutting_down`,
//! queued and in-flight work runs to completion, probes (`/healthz`,
//! `/metrics`, `ping`, `stats`) keep answering, and once the queue is
//! empty and no job is in flight the workers and event loop exit and a
//! final metrics summary is flushed to the log.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use htd_core::{HtdError, Json};
use htd_hypergraph::canonical::canonical_form;
use htd_query::{
    check_query_size, parse_query, AnswerMode, AnswerOptions, FileAccess, Query, ShapeCache,
};
use htd_resilience::{
    quarantined, CircuitBreaker, Fault, FaultInjector, FaultPlan, InjectedFaults, MemoryBudget,
};
use htd_search::{solve, Engine, Incumbent, Objective, Problem, SearchConfig};
use parking_lot::Mutex;

use crate::cache::ResultCache;
use crate::cluster::{Cluster, ClusterConfig};
use crate::metrics::{Metrics, NodeReadings};
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
/// Consecutive panicked reports after which an engine's circuit breaker
/// opens and the engine is benched from the lineup.
const BREAKER_THRESHOLD: u32 = 3;
/// How long a benched engine stays out before its breaker half-opens and
/// lets one probe solve try it again.
const BREAKER_PROBE: Duration = Duration::from_millis(500);
/// Node budget of the decomposition search behind an `answer`.
const ANSWER_MAX_NODES: u64 = 200_000;

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
            store_dir: None,
            event_loop: false,
            cluster: None,
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

    /// The ring key a cluster routes the work by: a solve's instance
    /// fingerprint, and for an answer the canonical fingerprint of the
    /// query's hypergraph, the key the shape cache uses.
    fn routing_key(&self) -> u64 {
        match self {
            Work::Solve(w) => w.fingerprint,
            Work::Answer(w) => canonical_form(&w.query.csp.hypergraph()).fingerprint,
            Work::Forward(_) | Work::PutCert(_) => unreachable!("only solves and answers route"),
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

    /// Records per-engine panic attribution into the breakers.
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
    }

    /// What `/metrics` reads from the parts of this node that count for
    /// themselves: the result cache, the breakers (an engine is benched
    /// while its breaker is not closed), the shape cache and the store.
    fn readings(&self) -> NodeReadings {
        let (shape_hits, shape_misses) = self.shapes.counts();
        let store = self.store.as_ref();
        NodeReadings {
            cache_entries: self.cache.entries(),
            cache_bytes: self.cache.bytes(),
            cache_contradictions: self.cache.contradictions(),
            draining: self.draining(),
            engines_quarantined: self
                .breakers
                .iter()
                .filter(|(_, b)| b.state() != htd_resilience::BreakerState::Closed)
                .count() as u64,
            shape_hits,
            shape_misses,
            store: store.map(CertStore::stats).unwrap_or_default(),
            store_appends: store.map_or(0, CertStore::appended),
            store_bytes: store.map_or(0, CertStore::bytes),
        }
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

    /// Admits a verified outcome — a clean solve, or a pushed certificate
    /// the oracle re-proved — to the cache, then appends it to the store
    /// when there is one. `CertStore::append` itself refuses anything the
    /// loader could not later re-verify.
    fn remember(&self, rec: &StoreRecord) {
        self.cache.admit(
            rec.fingerprint,
            &rec.canonical,
            rec.objective,
            &rec.outcome,
            rec.effort_ms,
        );
        if let Some(store) = &self.store {
            if let Err(e) = store.append(rec) {
                self.log(format_args!(
                    "store append failed fp={:016x}: {e}",
                    rec.fingerprint
                ));
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
        // std binds with SO_REUSEADDR on unix: a node restarted after a
        // crash reclaims its port at once, while a second server on a
        // port that a socket is listening on still fails with AddrInUse
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        widen_accept_backlog(&listener);
        let addr = listener.local_addr()?;
        let threads = opts.threads.max(1);
        let injector = opts.chaos.map(FaultInjector::new);
        let breakers = Engine::default_lineup()
            .into_iter()
            .map(|e| (e, CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_PROBE)))
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
            m.solve_time.quantile(0.5) * 1e3,
            m.solve_time.quantile(0.95) * 1e3,
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
            inner.metrics.count(Status::Timeout);
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

        let run = Run {
            inner,
            job: &job,
            incumbent: &incumbent,
            fault: &fault,
            queued,
        };
        let mut relayed = false;
        let mut r = match &job.work {
            Work::Solve(w) => {
                let _sp = htd_trace::span!("service.solve");
                run.solve(w)
            }
            Work::Answer(w) => {
                let _sp = htd_trace::span!("service.answer");
                run.answer(w)
            }
            Work::Forward(f) => {
                let _sp = htd_trace::span!("cluster.forward");
                match run.forward(f) {
                    Some(r) => {
                        relayed = true;
                        r
                    }
                    // last rung of the ladder: every owner unusable —
                    // answer from here, and let replication hint the owner
                    None => match &*f.local {
                        Work::Solve(w) => run.solve(w),
                        Work::Answer(w) => run.answer(w),
                        // admission never nests Forward/PutCert in a fallback
                        Work::Forward(_) | Work::PutCert(_) => {
                            unreachable!("invalid forward fallback")
                        }
                    },
                }
            }
            Work::PutCert(p) => {
                let _sp = htd_trace::span!("cluster.put_cert");
                run.put_cert(p)
            }
        };

        inner
            .in_flight
            .lock()
            .retain(|i| !Arc::ptr_eq(i, &incumbent));
        inner.metrics.inflight.fetch_sub(1, Ordering::SeqCst);
        // the owner that computed a relayed response counted it
        if !relayed {
            inner.metrics.count(r.status);
        }
        if r.status == Status::Ok {
            inner.metrics.request_latency.observe(r.elapsed_ms);
        }
        inner.stamp(&mut r);
        let _sp = htd_trace::span!("service.respond");
        job.reply.send(r);
    }
}

/// One job on a worker: what every kind of work reads besides its own
/// payload.
struct Run<'a> {
    inner: &'a Inner,
    job: &'a Job,
    /// The search's shared incumbent, on the in-flight list.
    incumbent: &'a Arc<Incumbent>,
    /// What the seeded fault injector drew for this job.
    fault: &'a Fault,
    /// Time the job waited in the queue.
    queued: Duration,
}

impl Run<'_> {
    /// The job's search settings: the remaining deadline less
    /// [`DEADLINE_SLACK`], the request's threads, the in-flight incumbent,
    /// an injected panic, a node budget (`None`: the default) and a
    /// lineup (`None`: the default lineup).
    fn search_config(&self, max_nodes: Option<u64>, lineup: Option<Vec<Engine>>) -> SearchConfig {
        let remaining = self.job.deadline.saturating_duration_since(Instant::now());
        let mut cfg = SearchConfig::default()
            .with_time_limit(remaining.saturating_sub(DEADLINE_SLACK))
            .with_threads(self.job.threads);
        cfg.shared = Some(Arc::clone(self.incumbent));
        if let Some(nodes) = max_nodes {
            cfg = cfg.with_max_nodes(nodes);
        }
        if self.fault.panic_worker {
            cfg = cfg.with_faults(InjectedFaults::with_panics(1));
        }
        if let Some(engines) = lineup {
            cfg = cfg.with_engines(engines);
        }
        cfg
    }

    /// Bytes the job may allocate: next to none under an injected
    /// allocation failure (a solve degrades to its anytime bounds, an
    /// answer refuses — neither may lie), else `--memory-mb`; `None` is
    /// ungoverned.
    fn memory_budget(&self) -> Option<u64> {
        if self.fault.alloc_fail {
            Some(16 << 10)
        } else {
            self.inner.opts.memory_mb.map(|mb| mb << 20)
        }
    }

    /// Runs one solve: budget the remaining deadline into the search,
    /// quarantine the solve, verify/admit the outcome, respond.
    fn solve(&self, w: &SolveWork) -> Response {
        let (inner, job) = (self.inner, self.job);
        // det-k answers hw alone: no portfolio engine runs, so none is
        // benched, probed or credited by an hw solve
        let portfolio = w.problem.objective() != Objective::HypertreeWidth;
        // an explicit per-request lineup wins; otherwise bench engines
        // with open breakers (and admit at most one probe)
        let lineup = match &job.engines {
            Some(engines) => Some(engines.clone()),
            None if portfolio => inner.allowed_engines(job.threads.max(1)),
            None => None,
        };
        let mut cfg = self.search_config(w.budget, lineup.clone());
        if let Some(bytes) = self.memory_budget() {
            cfg = cfg.with_memory_budget(bytes);
        }

        let solve_start = Instant::now();
        // last line of defense: a panic anywhere in the solve path is
        // quarantined into a structured internal error instead of taking
        // the worker thread (and with it the whole pool) down
        let result = quarantined(|| solve(&w.problem, &cfg)).unwrap_or_else(|message| {
            inner.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            // the panic escaped per-engine attribution; charge the whole
            // lineup so a persistently crashing path still gets benched
            if portfolio {
                for (engine, b) in &inner.breakers {
                    match lineup.as_ref() {
                        Some(l) if !l.contains(engine) => {}
                        _ => b.record_failure(),
                    }
                }
            }
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
            Ok(mut outcome) => {
                inner.metrics.fold(&outcome);
                if portfolio {
                    inner.record_engine_outcomes(&outcome.per_engine);
                }
                let survived_panic = outcome.per_engine.iter().any(|e| e.panicked);
                let degraded = outcome.degraded || survived_panic;
                if degraded {
                    inner.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                }
                // degraded results carry weaker bounds than a healthy solve
                // of the same instance would; never let them shadow a
                // future clean answer in the cache
                let mut cacheable = !degraded;
                if inner.opts.verify_responses {
                    let report = htd_check::verify_outcome(&w.problem, &outcome);
                    if !report.is_valid() {
                        cacheable = false;
                        inner
                            .metrics
                            .oracle_failures
                            .fetch_add(1, Ordering::Relaxed);
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
                    let rec = StoreRecord {
                        objective: w.objective_name,
                        format: w.format,
                        instance: w.instance.clone(),
                        fingerprint: w.fingerprint,
                        canonical: w.canonical.clone(),
                        effort_ms: solve_ms.ceil() as u64,
                        outcome,
                    };
                    inner.remember(&rec);
                    // cluster mode: push the verified certificate to the
                    // other owners of this fingerprint. Only
                    // store-admissible outcomes travel (the receiver's
                    // oracle gate mirrors the store's), and the push covers
                    // both steady-state replication and the hinted handoff
                    // of a local-fallback solve — the owners are exactly
                    // the nodes that need it.
                    if let Some(cluster) = &inner.cluster {
                        if !rec.instance.is_empty()
                            && rec.objective != "hw"
                            && rec.outcome.witness.is_some()
                        {
                            cluster.replicate(
                                rec.fingerprint,
                                &CertPush {
                                    objective: rec.outcome.objective,
                                    format: rec.format,
                                    instance: rec.instance.clone(),
                                    fingerprint_hex: w.fingerprint_hex.clone(),
                                    effort_ms: rec.effort_ms,
                                    outcome: rec.outcome.clone(),
                                    from: Some(cluster.node_id().to_string()),
                                },
                            );
                        }
                    }
                    outcome = rec.outcome;
                }
                inner.metrics.record_served(outcome.upper, outcome.exact);
                let mut r = Response::new(job.id.clone(), Status::Ok);
                r.outcome = Some(outcome);
                r
            }
            Err(e) => Response::from_error(job.id.clone(), &e),
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
            self.queued.as_secs_f64() * 1e3,
            solve_ms,
            r.elapsed_ms,
            job.deadline_ms,
        ));
        r
    }

    /// Runs one answer through the `htd-query` pipeline: decomposition
    /// (shape-cache first), then Yannakakis evaluation against the
    /// request's own relations — under the same deadline, thread and
    /// memory governance as a solve, but with the requested lineup and
    /// no breaker filtering. A memory-budget overrun *refuses* the query
    /// with a size estimate ([`HtdError::ResourceExhausted`]) rather than
    /// returning a wrong answer.
    fn answer(&self, w: &AnswerWork) -> Response {
        let (inner, job) = (self.inner, self.job);
        let opts = AnswerOptions {
            mode: w.mode,
            limit: w.limit.unwrap_or(DEFAULT_ANSWER_LIMIT),
            search: self.search_config(Some(ANSWER_MAX_NODES), job.engines.clone()),
            memory_budget: self.memory_budget().map(MemoryBudget::new),
            shape_cache: w.use_shape_cache.then(|| Arc::clone(&inner.shapes)),
            deadline: Some(
                job.deadline
                    .checked_sub(DEADLINE_SLACK)
                    .unwrap_or(job.deadline),
            ),
        };

        let eval_start = Instant::now();
        // the pipeline quarantines its evaluation pass; this outer
        // quarantine additionally covers the decomposition search
        let result = quarantined(|| htd_query::answer(&w.query, &opts)).unwrap_or_else(|message| {
            inner.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            Err(HtdError::Io(format!(
                "answer pipeline panicked (quarantined): {message}"
            )))
        });
        let eval_elapsed = eval_start.elapsed();
        inner.metrics.solve_time.observe(eval_elapsed.as_secs_f64());

        inner.metrics.count_answer(&result);
        let mut r = match result {
            Ok(ans) => {
                let mut r = Response::new(job.id.clone(), Status::Ok);
                // `cached` on an answer means the *decomposition* was
                // reused; the semijoin passes always ran against this
                // request's data
                r.cached = ans.stats.shape_cache_hit;
                r.fingerprint = Some(ans.stats.fingerprint.clone());
                r.canonical = ans.stats.canonical_complete;
                r.answer = Some(ans);
                r
            }
            Err(e) => Response::from_error(job.id.clone(), &e),
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
            self.queued.as_secs_f64() * 1e3,
            eval_elapsed.as_secs_f64() * 1e3,
            r.elapsed_ms,
            job.deadline_ms,
        ));
        r
    }

    /// Tries the owners of a forwarded request in order and relays the
    /// first usable response. `None` when every owner is unreachable,
    /// shutting down or partitioned away: the caller then computes
    /// locally, and the certificate travels to the owners as a hint via
    /// the replication path. Forwarding runs on the worker pool — never
    /// on the event loop — so a slow peer stalls one worker slot, not the
    /// whole front end.
    fn forward(&self, f: &ForwardWork) -> Option<Response> {
        let (inner, job) = (self.inner, self.job);
        let cluster = inner
            .cluster
            .as_ref()
            .expect("forward work queued without a cluster");
        let request = Request {
            id: job.id.clone(),
            cmd: f.cmd.clone(),
        };
        for (hop, (peer, addr)) in f.candidates.iter().enumerate() {
            let remaining = job.deadline.saturating_duration_since(Instant::now());
            // a draining owner refuses new work; treat like a dead one
            match cluster
                .call_peer(peer, addr, remaining + REPLY_GRACE, &request)
                .filter(|r| r.status != Status::ShuttingDown)
            {
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
                    return Some(r);
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
        None
    }

    /// Handles a `put_cert` push from a peer: the claim is re-verified
    /// from scratch (re-parse, re-canonicalize, oracle re-proof) before
    /// anything is admitted — a remote peer is exactly as untrusted as
    /// bytes on disk.
    fn put_cert(&self, p: &CertPush) -> Response {
        let (inner, job) = (self.inner, self.job);
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
                inner.remember(&rec);
                inner
                    .metrics
                    .cluster_certs_accepted
                    .fetch_add(1, Ordering::Relaxed);
                Response::new(job.id.clone(), Status::Ok)
            }
            None => {
                inner
                    .metrics
                    .cluster_cert_rejects
                    .fetch_add(1, Ordering::Relaxed);
                let e = HtdError::Invalid(
                    "pushed certificate failed oracle re-verification".to_string(),
                );
                Response::from_error(job.id.clone(), &e)
            }
        };
        r.fingerprint = Some(p.fingerprint_hex.clone());
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
/// frame: probes answer on the spot, and every other command either
/// answers immediately (cache hit, parse error, drain refusal,
/// backpressure rejection) or enters the bounded work queue with its
/// reply routed to `sink`.
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
    let admission = match req.cmd {
        Command::Ping => {
            inner.metrics.ping_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Pong);
            // leave-intent signal: the cluster failure detector reads this
            // to mark a draining peer `Leaving` instead of failing it
            r.draining = inner.draining();
            return Admission::Ready(r);
        }
        Command::Stats => {
            inner.metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
            let mut r = Response::new(req.id, Status::Stats);
            r.stats = Some(inner.metrics.snapshot_json(
                inner.cache.entries(),
                inner.cache.bytes(),
                inner.draining(),
            ));
            return Admission::Ready(r);
        }
        Command::Shutdown => {
            if !inner.draining.swap(true, Ordering::SeqCst) {
                inner.log(format_args!("drain requested by client"));
            }
            return Admission::Ready(Response::new(req.id, Status::ShuttingDown));
        }
        Command::Solve(s) => admit_solve(inner, req.id, s, sink),
        Command::Answer(a) => admit_answer(inner, req.id, a, sink),
        Command::PutCert(p) => {
            inner
                .metrics
                .put_cert_requests
                .fetch_add(1, Ordering::Relaxed);
            // the oracle re-proof is real work (a full `htd check` of the
            // claimed decomposition), so it rides the bounded queue like
            // any other job instead of stalling the event loop
            enqueue(inner, req.id, Instant::now(), None, sink, || {
                Work::PutCert(p)
            })
        }
    };
    // the probes aside, every response admission gives is counted here
    if let Admission::Ready(r) = &admission {
        inner.metrics.count(r.status);
    }
    admission
}

/// Admission of a `solve`: parse the instance as far as its cache key,
/// answer a hit on the spot, and queue a miss.
fn admit_solve(
    inner: &Arc<Inner>,
    id: Option<String>,
    s: SolveRequest,
    sink: ReplySink,
) -> Admission {
    let received = Instant::now();
    inner.metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
    let objective_name = s.objective.name();
    // a hit needs only the key: the problem is built on a miss
    let instance = match KeyedInstance::parse(s.format, &s.instance, s.objective) {
        Ok(instance) => instance,
        Err(e) => return parse_error(inner, id, objective_name, &e, received),
    };
    let canon = canonical_form(instance.key());
    let fingerprint_hex = canon.hex();

    if s.use_cache {
        let deadline_ms = s.deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
        if let Some(hit) = inner.cache.lookup(
            canon.fingerprint,
            &canon.bytes,
            objective_name,
            true,
            Some(deadline_ms),
        ) {
            inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
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

    // the instance text is only re-read by the store's loader and the
    // cluster's replication push; keep the job lean otherwise
    let text = if inner.store.is_some() || inner.cluster.is_some() {
        s.instance.clone()
    } else {
        String::new()
    };
    let (budget, format) = (s.budget, s.format);
    enqueue(
        inner,
        id,
        received,
        Some(Command::Solve(s)),
        sink,
        move || {
            Work::Solve(SolveWork {
                problem: instance.into_problem(),
                fingerprint: canon.fingerprint,
                fingerprint_hex,
                canonical: canon.bytes,
                canonical_complete: canon.complete,
                objective_name,
                budget,
                instance: text,
                format,
            })
        },
    )
}

/// Admission of an `answer`: parse the query on the event loop (cheap,
/// and a parse error must not occupy a worker), then queue the
/// evaluation. Unlike the solve result cache, the shape cache cannot
/// answer from the event loop — a shape hit only skips the
/// decomposition, the semijoin passes still run against this request's
/// own relations — so the lookup happens inside the pipeline on the
/// worker.
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
    // the service never reads relation files on behalf of a remote peer;
    // an oversized query is refused before routing builds its hypergraph
    let query = match parse_query(&a.query, &FileAccess::Deny) {
        Ok(q) => q,
        Err(e) => return parse_error(inner, id, "answer", &e, received),
    };
    if let Err(e) = check_query_size(&query) {
        inner
            .metrics
            .answer_refusals
            .fetch_add(1, Ordering::Relaxed);
        return parse_error(inner, id, "answer", &e, received);
    }
    let (mode, limit, use_shape_cache) = (a.mode, a.limit, a.use_cache);
    enqueue(
        inner,
        id,
        received,
        Some(Command::Answer(a)),
        sink,
        move || {
            Work::Answer(AnswerWork {
                query,
                mode,
                limit,
                use_shape_cache,
            })
        },
    )
}

/// The `error` response to a request whose instance or query does not
/// parse or is too large to take in; admission counts it like every
/// answer it gives.
fn parse_error(
    inner: &Inner,
    id: Option<String>,
    label: &str,
    e: &HtdError,
    received: Instant,
) -> Admission {
    let mut r = Response::from_error(id, e);
    r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
    inner.log(format_args!(
        "req={} obj={label} status=error err={:?}",
        r.id.as_deref().unwrap_or("-"),
        r.error.as_deref().unwrap_or("")
    ));
    Admission::Ready(r)
}

/// The one way into the work queue, for every command a worker runs.
/// A draining server refuses new work here. Otherwise `build` makes the
/// work, and the job takes its deadline, threads and lineup from
/// `request` (`None`, a `put_cert`, gets one thread and the default
/// deadline). A key this node does not own goes to its owners instead,
/// unless a peer forwarded the request already: the copy an owner
/// receives has `forwarded` set, so it computes where it lands (one hop,
/// no loops). Cache hits never get here, so they stay local either way —
/// replicas hold verified entries legitimately. A full queue answers
/// `rejected`, with a `retry_after_ms` hint for solves and answers; a
/// `put_cert`'s sender redelivers with its own backoff.
fn enqueue(
    inner: &Inner,
    id: Option<String>,
    received: Instant,
    mut request: Option<Command>,
    sink: ReplySink,
    build: impl FnOnce() -> Work,
) -> Admission {
    if inner.draining() {
        let mut r = Response::new(id, Status::ShuttingDown);
        r.error = Some("server is draining".into());
        return Admission::Ready(r);
    }
    let (deadline_ms, threads, engines, route) = match &mut request {
        Some(
            Command::Solve(SolveRequest {
                deadline_ms,
                threads,
                engines,
                forwarded,
                ..
            })
            | Command::Answer(AnswerRequest {
                deadline_ms,
                threads,
                engines,
                forwarded,
                ..
            }),
        ) => (
            *deadline_ms,
            *threads,
            engines.clone(),
            !std::mem::replace(forwarded, true),
        ),
        _ => (None, None, None, false),
    };
    let work = build();
    let (label, fingerprint) = (work.label(), work.fingerprint_hex().map(str::to_string));
    let hint = !matches!(work, Work::PutCert(_));
    let work = match (request, &inner.cluster) {
        (Some(cmd), Some(cluster)) if route => {
            let key = work.routing_key();
            if cluster.owns(key) {
                work
            } else {
                Work::Forward(ForwardWork {
                    cmd,
                    candidates: cluster.forward_candidates(key),
                    local: Box::new(work),
                })
            }
        }
        _ => work,
    };
    let deadline_ms = deadline_ms.unwrap_or(inner.opts.default_deadline_ms);
    let deadline = received + Duration::from_millis(deadline_ms);
    let job = Job {
        id: id.clone(),
        work,
        deadline,
        deadline_ms,
        threads: threads.unwrap_or(1).max(1),
        engines,
        received,
        enqueued: Instant::now(),
        reply: sink,
    };
    inner.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
    if !inner.queue.try_push(job) {
        inner.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let mut r = Response::new(id, Status::Rejected);
        r.error = Some("work queue full".into());
        if hint {
            // half the median worker time so retries spread out, floor 10ms
            let p50 = inner.metrics.solve_time.quantile(0.5) * 1e3;
            r.retry_after_ms = Some(((p50 / 2.0) as u64).clamp(10, 1000));
        }
        r.fingerprint = fingerprint;
        r.elapsed_ms = received.elapsed().as_secs_f64() * 1000.0;
        inner.log(format_args!(
            "req={} obj={label}{} status=rejected retry_after_ms={}",
            r.id.as_deref().unwrap_or("-"),
            r.fingerprint
                .as_deref()
                .map_or(String::new(), |fp| format!(" fp={fp}")),
            r.retry_after_ms.unwrap_or(0)
        ));
        return Admission::Ready(r);
    }
    Admission::Queued {
        id,
        fingerprint,
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
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            inner.metrics.render_prometheus(&inner.readings()),
        ),
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
