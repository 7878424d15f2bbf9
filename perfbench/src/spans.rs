//! The benchmark's own span recorder.
//!
//! Spans are recorded only in traced runs, around the benchmark's calls
//! into each crate. Every span has a name (`<layer>.<what>`), a start, an
//! end, a parent and a request id; spans of one operation share the id.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. A span named `op.*` is the root of one operation; every other
//! span belongs to the layer named before its first dot.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

/// Per-span-name totals over one run.
pub struct Row {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::starting_at(on, Instant::now())
    }

    /// A tracer whose time origin is `origin`, for spans recorded after
    /// the fact from timestamps taken earlier.
    pub fn starting_at(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations, so a traced run can
    /// interleave traced and untraced operations to measure the overhead.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a root `op.*` span for request `req`.
    pub fn begin_op(&mut self, name: &'static str, req: u64) -> Open {
        self.req = req;
        self.enter(name)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`] or [`Tracer::begin_op`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.ns(Instant::now());
            self.spans[idx].end_ns = end_ns;
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span whose times were taken elsewhere (another thread,
    /// or a duration the program reported); returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Per-name count, total and self time (duration minus the time its
    /// direct children cover), sorted by name.
    pub fn rows(&self) -> Vec<Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = by_name.entry(s.name).or_insert(Row {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(child_ns[i]);
        }
        by_name.into_values().collect()
    }

    /// Layer self time inside the `op.*` roots as a share of their
    /// duration, in percent: what the roots' own self time leaves over.
    pub fn coverage_pct(&self) -> f64 {
        let (own, total) = self
            .rows()
            .iter()
            .filter(|r| r.name.starts_with("op."))
            .fold((0, 0), |(o, t), r| (o + r.self_ns, t + r.total_ns));
        if total == 0 {
            0.0
        } else {
            100.0 * (1.0 - own as f64 / total as f64)
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
