//! `htd-service`: a long-running decomposition server.
//!
//! Answering "what is the (generalized hyper)tree width of this query's
//! hypergraph?" is the planning-time primitive of Section 5 of the paper:
//! a database optimizer asks it for *many* queries, *repeatedly*, with a
//! latency budget — not once from a CLI. This crate packages the
//! workspace's anytime portfolio solver as such a service:
//!
//! * **Canonical-form caching** — instances are keyed by the
//!   relabeling-invariant canonical form of their (normalized) hypergraph
//!   ([`htd_hypergraph::canonical`]), so the same query shape is solved
//!   once no matter how its variables happen to be numbered, and `tw`
//!   requests share entries across input formats via primal-graph
//!   normalization. Admission is objective-aware: exact answers serve
//!   every later request, anytime bounds only serve requests whose own
//!   budget could not have done better ([`cache`]).
//! * **Deadlines** — each request carries a wall-clock deadline mapped
//!   onto the solver's time limit, which every solve keeps itself;
//!   requests that age out while queued are evicted without running
//!   ([`server`]).
//! * **Backpressure** — a bounded work queue; a full queue rejects
//!   immediately with a retry hint instead of buffering unboundedly.
//! * **Observability** — `GET /healthz`, Prometheus-text `GET /metrics`
//!   (request/cache counters, queue depth, latency p50/p95, widths
//!   served) and structured per-request log lines ([`metrics`]).
//!
//! Beyond decomposition, the server *answers* conjunctive queries: the
//! `answer` command runs the full `htd-query` pipeline (decompose, then
//! Yannakakis semijoins) on a worker, with a per-server
//! [`htd_query::ShapeCache`] so repeated query shapes — same canonical
//! hypergraph, different relation data — skip decomposition entirely.
//!
//! The wire format is one JSON object per line over TCP ([`protocol`]),
//! reusing [`htd_search::Outcome`]'s documented schema for results; the
//! same socket also answers plain HTTP probes. `htd serve` / `htd query`
//! front this crate from the CLI, and the `service_load` and
//! `answer_load` benches replay generated corpora against it.
//!
//! One front end serves every connection: the event loop
//! ([`event_loop`]), a readiness-based non-blocking
//! acceptor/reader/writer loop (raw `poll(2)`, no runtime dependency)
//! with per-connection state machines, buffered partial-frame handling,
//! and a *pipelined batch mode*: multiple newline-JSON requests in
//! flight per connection, responses matched by request id. Because it
//! needs `poll(2)`, the server runs on unix targets only.
//!
//! Two subsystems extend the core server:
//!
//! * **Persistent verified certificate store** ([`store`]) — an
//!   append-only, crash-tolerant log of solved outcomes keyed by
//!   canonical fingerprint; every entry is re-proved by the `htd-check`
//!   oracle on load before it may warm the cache. Enabled with
//!   `htd serve --store DIR`.
//! * **Fault-tolerant cluster layer** ([`cluster`], [`ring`]) — N peers
//!   shard the fingerprint keyspace over a consistent-hash ring with
//!   R-way replication of verified certificates, a probing failure
//!   detector (`Alive → Suspect → Down`, drain as leave-intent), owner
//!   forwarding with failover, and hinted handoff on recovery; pushed
//!   certificates are re-verified by the oracle on receipt. Enabled
//!   with `htd serve --node-id ID --peers ID=ADDR,..`.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Without poll(2) `Server::start` refuses to run, so the request path
// behind the event loop is compiled but never called.
#![cfg_attr(not(unix), allow(dead_code))]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod event_loop;
pub mod metrics;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod store;

pub use cache::ResultCache;
pub use client::Client;
pub use cluster::{Cluster, ClusterConfig, PeerSpec, PeerState};
pub use htd_query::{Answer, AnswerMode};
pub use htd_resilience::FaultPlan;
pub use metrics::Metrics;
pub use protocol::{
    parse_problem, AnswerRequest, CertPush, Command, InstanceFormat, Request, Response,
    SolveRequest, Status,
};
pub use ring::Ring;
pub use server::{run_until_shutdown, ServeOptions, Server};
pub use store::{CertStore, StoreRecord, StoreStats};
