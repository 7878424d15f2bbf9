//! Hierarchical RAII spans: where does the time go *inside* a solve?
//!
//! A [`SpanGuard`] marks one timed region on the current thread; guards
//! nest lexically, so the collector learns the call tree
//! (`htd.decompose` → `balsep.level` → `balsep.widen`, ...). Each
//! distinct (worker, path) node aggregates call count, wall time,
//! thread-CPU time and *self* time (wall minus enclosed child wall)
//! into relaxed atomics — the steady-state cost of a span is two clock
//! reads, one thread-local cache hit and a handful of atomic adds, so
//! even per-expansion spans stay within the same overhead envelope as
//! the batched expansion counters.
//!
//! Spans are off by default ([`spans_enabled`] is a single atomic
//! load). They turn on two ways:
//!
//! - globally, via [`set_spans_enabled`] (the CLI `--profile` flag and
//!   the service do this) — aggregation only, no event traffic;
//! - per-site, by passing an enabled [`Tracer`] to coarse spans —
//!   those additionally emit `span_enter`/`span_exit` events into the
//!   JSONL stream. Hot per-node spans never take a tracer;
//!   the event stream stays phase-grained while the aggregate sees
//!   everything.
//!
//! Exports: [`snapshot`] for the `profile` JSON block, [`render_prometheus`]
//! for `/metrics` (the collector owns one `htd_span_seconds{span="..."}`
//! histogram per span name), [`folded`] for flamegraph tools
//! (`worker;parent;child self_us` lines), [`reset`] between runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::Event;
use crate::metrics::HistogramMetric;
use crate::tracer::Tracer;

/// Bucket bounds (seconds) for the per-span `htd_span_seconds`
/// histograms: 10µs .. 10s, decade steps — spans range from a single
/// A* expansion to a whole service solve.
pub const SPAN_SECONDS_BUCKETS: &[f64] = &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global span aggregation on or off. Cheap to call; guards
/// created while disabled (and without an enabled tracer) are inert.
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global span aggregation is on.
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Per-node aggregate, updated lock-free on span exit.
struct NodeAgg {
    count: AtomicU64,
    wall_us: AtomicU64,
    cpu_us: AtomicU64,
    self_us: AtomicU64,
    hist: Arc<HistogramMetric>,
}

struct NodeInfo {
    name: &'static str,
    worker: &'static str,
    /// Interned id of the enclosing span node, if any.
    parent: Option<u32>,
    agg: Arc<NodeAgg>,
}

#[derive(Default)]
struct Inner {
    nodes: Vec<NodeInfo>,
    /// (parent id + 1, or 0 for roots; worker; name) → node id.
    index: HashMap<(u32, &'static str, &'static str), u32>,
    /// The `htd_span_seconds` histogram of each span name, shared by
    /// every node of that name. [`reset`] keeps them: the family counts
    /// for the life of the process, like any Prometheus counter.
    hists: BTreeMap<&'static str, Arc<HistogramMetric>>,
}

/// The process-global span collector: interns (worker, call-path)
/// nodes and owns their aggregates.
pub struct SpanCollector {
    inner: Mutex<Inner>,
    /// Bumped by [`reset`]; thread caches self-invalidate on mismatch.
    epoch: AtomicU64,
}

fn collector() -> &'static SpanCollector {
    static GLOBAL: OnceLock<SpanCollector> = OnceLock::new();
    GLOBAL.get_or_init(|| SpanCollector {
        inner: Mutex::new(Inner::default()),
        epoch: AtomicU64::new(0),
    })
}

impl SpanCollector {
    /// Interns (parent, worker, name), creating the node (and its
    /// `htd_span_seconds` histogram series) on first sight. Called only
    /// on a thread-cache miss — once per distinct path per thread.
    fn intern(
        &self,
        parent_key: u32,
        worker: &'static str,
        name: &'static str,
    ) -> (u32, Arc<NodeAgg>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = inner.index.get(&(parent_key, worker, name)) {
            return (id, Arc::clone(&inner.nodes[id as usize].agg));
        }
        let hist = Arc::clone(
            inner
                .hists
                .entry(name)
                .or_insert_with(|| Arc::new(HistogramMetric::new(SPAN_SECONDS_BUCKETS))),
        );
        let id = inner.nodes.len() as u32;
        let agg = Arc::new(NodeAgg {
            count: AtomicU64::new(0),
            wall_us: AtomicU64::new(0),
            cpu_us: AtomicU64::new(0),
            self_us: AtomicU64::new(0),
            hist,
        });
        inner.nodes.push(NodeInfo {
            name,
            worker,
            parent: parent_key.checked_sub(1),
            agg: Arc::clone(&agg),
        });
        inner.index.insert((parent_key, worker, name), id);
        (id, agg)
    }
}

/// One aggregated span node in a [`snapshot`].
#[derive(Debug, Clone)]
pub struct SpanStat {
    pub name: &'static str,
    /// Worker attribution (`""` = the unattributed main thread).
    pub worker: &'static str,
    /// Index of the parent node within the same snapshot, if any.
    pub parent: Option<usize>,
    pub count: u64,
    pub wall_us: u64,
    pub cpu_us: u64,
    /// Wall time not covered by enclosed child spans.
    pub self_us: u64,
}

/// A consistent copy of every span node seen so far (count > 0 only).
/// Indices are stable across snapshots until [`reset`].
pub fn snapshot() -> Vec<SpanStat> {
    let inner = collector().inner.lock().unwrap_or_else(|p| p.into_inner());
    let n = inner.nodes.len();
    inner
        .nodes
        .iter()
        .map(|node| SpanStat {
            name: node.name,
            worker: node.worker,
            parent: node.parent.map(|p| p as usize).filter(|&p| p < n),
            count: node.agg.count.load(Ordering::Relaxed),
            wall_us: node.agg.wall_us.load(Ordering::Relaxed),
            cpu_us: node.agg.cpu_us.load(Ordering::Relaxed),
            self_us: node.agg.self_us.load(Ordering::Relaxed),
        })
        .collect()
}

/// Drops all aggregates and interned paths. Call between runs, with no
/// spans in flight (in-flight guards finish into orphaned aggregates —
/// safe, but their time is lost).
pub fn reset() {
    let mut inner = collector().inner.lock().unwrap_or_else(|p| p.into_inner());
    inner.nodes.clear();
    inner.index.clear();
    collector().epoch.fetch_add(1, Ordering::Relaxed);
}

/// Writes the `htd_span_seconds` histogram family in Prometheus text
/// format: one series per span name, sorted. The family's header is
/// written even before any span has closed, so every scrape shows it.
pub fn render_prometheus(out: &mut String) {
    let _ = writeln!(
        out,
        "# HELP htd_span_seconds Wall time of each span, seconds.\n\
         # TYPE htd_span_seconds histogram"
    );
    let inner = collector().inner.lock().unwrap_or_else(|p| p.into_inner());
    for (name, hist) in &inner.hists {
        hist.render_prometheus(&format!("htd_span_seconds{{span=\"{name}\"}}"), out);
    }
}

/// Renders the aggregate as folded stacks — one
/// `worker;root;child;leaf self_us` line per node with calls, the
/// format `flamegraph.pl` / inferno consume directly. Sorted for
/// deterministic output.
pub fn folded() -> String {
    let stats = snapshot();
    let mut lines: Vec<String> = stats
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| {
            let mut path = vec![s.name];
            let mut cur = s.parent;
            while let Some(p) = cur {
                path.push(stats[p].name);
                cur = stats[p].parent;
            }
            path.reverse();
            let worker = if s.worker.is_empty() {
                "main"
            } else {
                s.worker
            };
            format!("{};{} {}", worker, path.join(";"), s.self_us)
        })
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Thread CPU time in microseconds (Linux; 0 elsewhere). `std` already
/// links libc, so declaring `clock_gettime` adds no dependency.
#[cfg(target_os = "linux")]
fn thread_cpu_us() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable local. `Timespec` is `repr(C)`
    // with two `i64`s: the 64-bit `struct timespec`, and no smaller than
    // the 32-bit one, so the kernel writes only inside it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1000
    } else {
        0
    }
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_us() -> u64 {
    0
}

struct Frame {
    node: u32,
    agg: Arc<NodeAgg>,
    name: &'static str,
    start: Instant,
    cpu_start: u64,
    /// Wall microseconds accumulated by direct children.
    child_us: u64,
}

#[derive(Default)]
struct ThreadSpans {
    worker: &'static str,
    stack: Vec<Frame>,
    /// (parent key, name address) → interned node. Name address is a
    /// fine key: distinct literals at worst duplicate an entry that
    /// interns to the same node.
    cache: HashMap<(u32, usize), (u32, Arc<NodeAgg>)>,
    epoch: u64,
}

thread_local! {
    static THREAD: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Attributes all subsequent spans on this thread to `worker` (an
/// engine or service-worker label). Call at thread start, before any
/// span opens.
pub fn set_worker(worker: &'static str) {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.worker = worker;
        t.cache.clear();
    });
}

/// An open span; closing (dropping) it records the elapsed time.
/// `!Send` by construction: a span lives and dies on one thread, which
/// is what makes the thread-local stack a faithful call stack.
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    tracer: Option<Arc<Tracer>>,
    _single_thread: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span. Inert (one atomic load) unless spans are enabled
    /// globally or `tracer` is enabled; pass a tracer only on coarse,
    /// phase-level spans — it routes `span_enter`/`span_exit` events
    /// into the JSONL stream in addition to the aggregate.
    pub fn enter(name: &'static str, tracer: Option<&Arc<Tracer>>) -> SpanGuard {
        let traced = tracer.is_some_and(|t| t.enabled());
        if !spans_enabled() && !traced {
            return SpanGuard {
                active: false,
                name,
                tracer: None,
                _single_thread: PhantomData,
            };
        }
        let depth = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let epoch = collector().epoch.load(Ordering::Relaxed);
            if t.epoch != epoch {
                t.cache.clear();
                t.epoch = epoch;
            }
            let parent_key = t.stack.last().map_or(0, |f| f.node + 1);
            let cache_key = (parent_key, name.as_ptr() as usize);
            let (node, agg) = match t.cache.get(&cache_key) {
                Some((id, agg)) => (*id, Arc::clone(agg)),
                None => {
                    let resolved = collector().intern(parent_key, t.worker, name);
                    t.cache
                        .insert(cache_key, (resolved.0, Arc::clone(&resolved.1)));
                    resolved
                }
            };
            let depth = t.stack.len() as u32;
            t.stack.push(Frame {
                node,
                agg,
                name,
                start: Instant::now(),
                cpu_start: thread_cpu_us(),
                child_us: 0,
            });
            depth
        });
        if traced {
            let tracer = tracer.unwrap();
            tracer.emit_with(|| Event::SpanEnter {
                span: name,
                worker: current_worker(),
                depth,
            });
            return SpanGuard {
                active: true,
                name,
                tracer: Some(Arc::clone(tracer)),
                _single_thread: PhantomData,
            };
        }
        SpanGuard {
            active: true,
            name,
            tracer: None,
            _single_thread: PhantomData,
        }
    }
}

/// The worker label spans on this thread are attributed to.
pub fn current_worker() -> &'static str {
    THREAD.with(|t| t.borrow().worker)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let (depth, wall_us) = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            // Guards are !Send and lexically scoped, so the top frame is
            // ours; a mismatch means an enter/exit imbalance upstream and
            // we prefer recording under the wrong name to unwinding.
            let frame = match t.stack.pop() {
                Some(f) => f,
                None => return (0, 0),
            };
            debug_assert_eq!(frame.name, self.name, "span stack imbalance");
            let wall_us = frame.start.elapsed().as_micros() as u64;
            let cpu_us = thread_cpu_us().saturating_sub(frame.cpu_start);
            let self_us = wall_us.saturating_sub(frame.child_us);
            frame.agg.count.fetch_add(1, Ordering::Relaxed);
            frame.agg.wall_us.fetch_add(wall_us, Ordering::Relaxed);
            frame.agg.cpu_us.fetch_add(cpu_us, Ordering::Relaxed);
            frame.agg.self_us.fetch_add(self_us, Ordering::Relaxed);
            frame.agg.hist.observe(wall_us as f64 / 1e6);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_us += wall_us;
            }
            (t.stack.len() as u32, wall_us)
        });
        if let Some(tracer) = &self.tracer {
            tracer.emit_with(|| Event::SpanExit {
                span: self.name,
                worker: current_worker(),
                depth,
                elapsed_us: wall_us,
            });
        }
    }
}

/// Opens a [`SpanGuard`] named by a `&'static str`. One argument
/// aggregates only; a second (an `&Arc<Tracer>`) additionally emits
/// `span_enter`/`span_exit` events when that tracer is enabled.
///
/// ```
/// let _span = htd_trace::span!("astar.expand");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, None)
    };
    ($name:expr, $tracer:expr) => {
        $crate::span::SpanGuard::enter($name, Some($tracer))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and the enable flag are process-global; the span
    // integration tests live in tests/spans.rs where each test uses
    // unique span names. Here: only the inert path, which is safe to
    // probe regardless of global state.
    #[test]
    fn disabled_guard_is_inert() {
        let before = snapshot().len();
        {
            let _g = SpanGuard::enter("unit.inert", None);
        }
        let stats = snapshot();
        assert_eq!(stats.len(), before, "inert guard must not intern nodes");
        assert!(stats.iter().all(|s| s.name != "unit.inert"));
    }

    #[test]
    fn thread_cpu_clock_is_monotonic() {
        let a = thread_cpu_us();
        // burn a little CPU so the clock can only move forward
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_cpu_us();
        assert!(b >= a, "thread CPU time went backwards: {a} -> {b}");
    }
}
