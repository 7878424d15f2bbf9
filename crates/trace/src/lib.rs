//! `htd-trace`: zero-dependency solver instrumentation.
//!
//! Three layers, from always-on to opt-in:
//!
//! - **Metrics** ([`metrics`]): named atomic counters/gauges/histograms
//!   in a process-global [`registry`]. Handles are `&'static`; updates
//!   are single relaxed atomic ops, so hot paths keep them on even in
//!   production. Rendered as Prometheus text for `/metrics`.
//! - **Events** ([`event`]): a typed stream of solver happenings —
//!   incumbent improvements, bound tightenings, worker lifecycle,
//!   batched node expansions — stamped with contiguous sequence numbers
//!   and monotonic microsecond timestamps.
//! - **Sinks** ([`sink`]): where events go. [`NullSink`] (discard),
//!   [`JsonlSink`] (the versioned `--trace file.jsonl` format), or a
//!   [`RingBuffer`] for tests and in-process analysis.
//! - **Spans** ([`span`](mod@span)): hierarchical RAII profiling regions
//!   (`span!("astar.expand")`) aggregating per-path wall/CPU/self time
//!   and call counts, exported as a profile snapshot, folded stacks
//!   for flamegraphs, per-span histograms, and (for coarse spans fed a
//!   tracer) `span_enter`/`span_exit` events.
//!
//! The [`Tracer`] ties events to a sink. Everything defaults to
//! [`Tracer::disabled`], whose emit path is a single branch — solver
//! code is instrumented unconditionally and pays ~nothing unless a
//! trace was requested.
//!
//! The crate is deliberately std-only (no deps, not even the vendored
//! stand-ins): every solver crate links it, so it must stay
//! feather-weight and can never create a dependency cycle.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod tracer;

pub use event::{validate_stream, Event, Record, KNOWN_KINDS, SCHEMA_VERSION};
pub use metrics::{registry, Counter, Gauge, HistogramMetric, Registry};
pub use sink::{JsonlSink, NullSink, RingBuffer, Sink};
pub use span::{set_spans_enabled, set_worker, spans_enabled, SpanGuard, SpanStat};
pub use tracer::Tracer;
