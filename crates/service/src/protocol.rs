//! The wire protocol of the decomposition service.
//!
//! One JSON object per line in both directions, reusing the workspace's
//! [`Json`] value type and the documented [`Outcome`] schema
//! ([`Outcome::to_json`]) verbatim for results.
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","cmd":"solve","objective":"ghw","format":"hg",
//!  "instance":"e1(a,b,c),\ne2(c,d).","deadline_ms":500,
//!  "budget":1000000,"threads":2,"engines":["balsep","branch_bound"],
//!  "cache":"use"}
//! {"id":"r2","cmd":"ping"}
//! {"id":"r3","cmd":"stats"}
//! {"id":"r4","cmd":"shutdown"}
//! {"id":"r5","cmd":"answer","mode":"count","query":
//!  "Q(x,y) :- R(x,z), S(z,y).\nR: 1 2 .\nS: 2 3 .","limit":10,
//!  "deadline_ms":500,"cache":"use"}
//! ```
//!
//! `format` is `auto` (default, sniffed), `gr` (PACE), `col` (DIMACS) or
//! `hg` (HyperBench). `cache` is `use` (default) or `off` (bypass lookup,
//! still admit the fresh result). `engines` (a non-empty array of engine
//! names, or one comma-separated string) pins the lineup for this
//! request; an empty array, a non-string entry or an unknown name is
//! rejected with an error listing the engines.
//!
//! ## Responses
//!
//! ```json
//! {"id":"r1","status":"ok","cached":false,"fingerprint":"0f3a…",
//!  "canonical":true,"elapsed_ms":12.4,"outcome":{…Outcome schema…}}
//! {"id":"r1","status":"rejected","retry_after_ms":50,"error":"queue full"}
//! {"id":"r1","status":"timeout","error":"deadline expired in queue"}
//! {"id":"r1","status":"error","code":2,"error":"…"}
//! ```
//!
//! `status` is one of `ok`, `rejected`, `timeout`, `error`,
//! `shutting_down`, `pong`, `stats`. `code` mirrors the CLI exit codes
//! (2 parse, 3 invalid, 4 unsupported, 5 io/internal, 6 resource
//! exhausted).
//!
//! An `answer` request runs a conjunctive query end to end (see
//! `htd-query`): `mode` is `bool`/`count`/`enum`, `query` the text or
//! JSON query format (file-referenced relations are always refused on
//! the wire), `limit` caps enumeration, and `cache` `use`/`off` controls
//! the *shape* cache — decompositions reused across queries with
//! isomorphic hypergraphs. The `ok` response carries the answer under
//! `"answer"` (`htd_query::Answer::to_json` schema), with `cached`
//! meaning the decomposition was a shape-cache hit.
//!
//! ## Cluster extensions
//!
//! When nodes run as a cluster (`htd serve --peers`), three small
//! extensions carry the routing and replication traffic over the same
//! newline-JSON protocol:
//!
//! * `"forwarded":true` on a `solve`/`answer` marks a request relayed
//!   by a peer; the receiver always executes it locally (forwarding is
//!   one hop, never a loop).
//! * `{"cmd":"put_cert",…}` pushes a solved certificate (replication or
//!   hinted handoff). The receiver **re-verifies it with the `htd-check`
//!   oracle before admitting it** — remote peers are untrusted exactly
//!   like disk — and answers `ok` on admission or `error` (code 3,
//!   counted in `htd_cluster_cert_rejects_total`) on rejection.
//! * Responses carry `"node":"<id>"` naming the node that actually
//!   computed/served the result, and `pong` responses carry
//!   `"draining":true` once a graceful drain starts, which the failure
//!   detector reads as leave-intent.
//!
//! ## Pipelined batches
//!
//! A client may write several request lines without waiting for
//! responses. The server admits them independently and writes each
//! response **as soon as it completes — possibly out of request
//! order**. The `id` field is therefore the correlation key: clients
//! that pipeline must send a distinct `id` per request and match
//! responses by it. Responses to protocol-level failures that could not
//! be parsed far enough to recover an `id` carry `"id":null`.

use std::sync::Arc;

use htd_core::{HtdError, Json};
use htd_hypergraph::{io, Hypergraph};
use htd_query::{Answer, AnswerMode};
use htd_search::{Engine, Objective, Outcome, Problem};

/// How the `instance` text of a solve request is to be parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceFormat {
    /// Sniff from the first non-comment line (default).
    Auto,
    /// PACE `.gr` (`p tw n m` header).
    PaceGr,
    /// DIMACS graph coloring (`p edge n m` header).
    Dimacs,
    /// HyperBench `.hg` atom list.
    Hg,
}

impl From<io::Format> for InstanceFormat {
    fn from(f: io::Format) -> Self {
        match f {
            io::Format::PaceGr => InstanceFormat::PaceGr,
            io::Format::Dimacs => InstanceFormat::Dimacs,
            io::Format::Hyperedges => InstanceFormat::Hg,
        }
    }
}

impl InstanceFormat {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            InstanceFormat::Auto => "auto",
            InstanceFormat::PaceGr => "gr",
            InstanceFormat::Dimacs => "col",
            InstanceFormat::Hg => "hg",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<InstanceFormat> {
        match s {
            "auto" => Some(InstanceFormat::Auto),
            "gr" => Some(InstanceFormat::PaceGr),
            "col" | "dimacs" => Some(InstanceFormat::Dimacs),
            "hg" => Some(InstanceFormat::Hg),
            _ => None,
        }
    }
}

/// A solve request's payload.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// What to minimize.
    pub objective: Objective,
    /// How to parse `instance`.
    pub format: InstanceFormat,
    /// The instance text.
    pub instance: String,
    /// Wall-clock deadline for the whole request; `None` = server default.
    pub deadline_ms: Option<u64>,
    /// Node budget; `None` = server default.
    pub budget: Option<u64>,
    /// Worker threads for this solve; `None` = 1.
    pub threads: Option<usize>,
    /// Explicit engine lineup (engine names, launch order); `None`
    /// runs the server's default (breaker-filtered) lineup. An explicit
    /// lineup overrides the circuit-breaker bench for this request.
    pub engines: Option<Vec<Engine>>,
    /// `false` bypasses the cache lookup (the result is still admitted).
    pub use_cache: bool,
    /// Set on a request relayed by a cluster peer: the receiver must
    /// execute it locally and never forward again (one hop, no loops).
    pub forwarded: bool,
}

/// An answer request's payload: a conjunctive query to evaluate.
#[derive(Clone, Debug)]
pub struct AnswerRequest {
    /// The query in the `htd-query` text or JSON format.
    pub query: String,
    /// What to compute.
    pub mode: AnswerMode,
    /// Maximum answers returned in enumeration mode; `None` = server cap.
    pub limit: Option<u64>,
    /// Wall-clock deadline for the whole request; `None` = server default.
    pub deadline_ms: Option<u64>,
    /// Worker threads for the decomposition; `None` = 1.
    pub threads: Option<usize>,
    /// Engine lineup for the decomposition (as in [`SolveRequest`]).
    pub engines: Option<Vec<Engine>>,
    /// `false` bypasses the shape-cache lookup (the fresh decomposition
    /// is still admitted).
    pub use_cache: bool,
    /// Set on a request relayed by a cluster peer (as in
    /// [`SolveRequest::forwarded`]).
    pub forwarded: bool,
}

/// A `put_cert` payload: one solved certificate pushed by a cluster
/// peer (R-way replication of fresh solves, or hinted handoff after a
/// failover). The fields mirror the certificate-store record — the
/// receiver re-parses the instance, re-derives the canonical form and
/// re-proves the outcome with the oracle before admitting anything.
#[derive(Clone, Debug)]
pub struct CertPush {
    /// Objective of the solved instance.
    pub objective: Objective,
    /// How `instance` parses.
    pub format: InstanceFormat,
    /// The original instance text (the oracle needs it to re-verify).
    pub instance: String,
    /// Claimed canonical fingerprint (hex); checked against the
    /// re-derived form, never trusted.
    pub fingerprint_hex: String,
    /// Solve effort behind the outcome (cache admission gate).
    pub effort_ms: u64,
    /// The claimed outcome.
    pub outcome: Outcome,
    /// Sending node id, for logs and peer accounting.
    pub from: Option<String>,
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen id echoed back on the response.
    pub id: Option<String>,
    /// The command.
    pub cmd: Command,
}

/// The commands the server understands.
#[derive(Clone, Debug)]
pub enum Command {
    /// Solve an instance.
    Solve(SolveRequest),
    /// Answer a conjunctive query.
    Answer(AnswerRequest),
    /// Admit a peer-pushed certificate (after oracle re-verification).
    PutCert(CertPush),
    /// Liveness probe.
    Ping,
    /// Metrics snapshot as JSON.
    Stats,
    /// Begin graceful shutdown (drain, then exit).
    Shutdown,
}

impl Request {
    /// Serializes the request to its wire object.
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            m.push(("id".into(), Json::Str(id.clone())));
        }
        match &self.cmd {
            Command::Ping => m.push(("cmd".into(), Json::Str("ping".into()))),
            Command::Stats => m.push(("cmd".into(), Json::Str("stats".into()))),
            Command::Shutdown => m.push(("cmd".into(), Json::Str("shutdown".into()))),
            Command::Solve(s) => {
                m.push(("cmd".into(), Json::Str("solve".into())));
                m.push(("objective".into(), Json::Str(s.objective.name().into())));
                m.push(("format".into(), Json::Str(s.format.name().into())));
                m.push(("instance".into(), Json::Str(s.instance.clone())));
                if let Some(d) = s.deadline_ms {
                    m.push(("deadline_ms".into(), Json::Num(d as f64)));
                }
                if let Some(b) = s.budget {
                    m.push(("budget".into(), Json::Num(b as f64)));
                }
                if let Some(t) = s.threads {
                    m.push(("threads".into(), Json::Num(t as f64)));
                }
                if let Some(engines) = &s.engines {
                    m.push((
                        "engines".into(),
                        Json::Arr(engines.iter().map(|e| Json::Str(e.name().into())).collect()),
                    ));
                }
                if !s.use_cache {
                    m.push(("cache".into(), Json::Str("off".into())));
                }
                if s.forwarded {
                    m.push(("forwarded".into(), Json::Bool(true)));
                }
            }
            Command::Answer(a) => {
                m.push(("cmd".into(), Json::Str("answer".into())));
                m.push(("mode".into(), Json::Str(a.mode.name().into())));
                m.push(("query".into(), Json::Str(a.query.clone())));
                if let Some(l) = a.limit {
                    m.push(("limit".into(), Json::Num(l as f64)));
                }
                if let Some(d) = a.deadline_ms {
                    m.push(("deadline_ms".into(), Json::Num(d as f64)));
                }
                if let Some(t) = a.threads {
                    m.push(("threads".into(), Json::Num(t as f64)));
                }
                if let Some(engines) = &a.engines {
                    m.push((
                        "engines".into(),
                        Json::Arr(engines.iter().map(|e| Json::Str(e.name().into())).collect()),
                    ));
                }
                if !a.use_cache {
                    m.push(("cache".into(), Json::Str("off".into())));
                }
                if a.forwarded {
                    m.push(("forwarded".into(), Json::Bool(true)));
                }
            }
            Command::PutCert(c) => {
                m.push(("cmd".into(), Json::Str("put_cert".into())));
                m.push(("objective".into(), Json::Str(c.objective.name().into())));
                m.push(("format".into(), Json::Str(c.format.name().into())));
                m.push(("instance".into(), Json::Str(c.instance.clone())));
                m.push(("fingerprint".into(), Json::Str(c.fingerprint_hex.clone())));
                m.push(("effort_ms".into(), Json::Num(c.effort_ms as f64)));
                m.push(("outcome".into(), c.outcome.to_json()));
                if let Some(from) = &c.from {
                    m.push(("from".into(), Json::Str(from.clone())));
                }
            }
        }
        Json::Obj(m)
    }

    /// Parses a request line.
    pub fn from_json(doc: &Json) -> Result<Request, HtdError> {
        let id = doc
            .get("id")
            .and_then(|v| v.as_str())
            .map(|s| s.to_string());
        let cmd = doc
            .get("cmd")
            .and_then(|v| v.as_str())
            .ok_or_else(|| HtdError::Parse("request missing 'cmd'".into()))?;
        let cmd = match cmd {
            "ping" => Command::Ping,
            "stats" => Command::Stats,
            "shutdown" => Command::Shutdown,
            "solve" => {
                let objective = doc
                    .get("objective")
                    .and_then(|v| v.as_str())
                    .and_then(Objective::from_name)
                    .ok_or_else(|| {
                        HtdError::Unsupported("solve needs 'objective' tw|ghw|hw".into())
                    })?;
                let format = match doc.get("format").and_then(|v| v.as_str()) {
                    None => InstanceFormat::Auto,
                    Some(f) => InstanceFormat::from_name(f).ok_or_else(|| {
                        HtdError::Unsupported(format!("format '{f}' (expected auto|gr|col|hg)"))
                    })?,
                };
                let instance = doc
                    .get("instance")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| HtdError::Parse("solve missing 'instance'".into()))?
                    .to_string();
                let engines = engines_from_doc(doc)?;
                let use_cache = cache_from_doc(doc)?;
                Command::Solve(SolveRequest {
                    objective,
                    format,
                    instance,
                    deadline_ms: doc.get("deadline_ms").and_then(|v| v.as_u64()),
                    budget: doc.get("budget").and_then(|v| v.as_u64()),
                    threads: doc
                        .get("threads")
                        .and_then(|v| v.as_u64())
                        .map(|t| t as usize),
                    engines,
                    use_cache,
                    forwarded: forwarded_from_doc(doc),
                })
            }
            "answer" => {
                let mode = match doc.get("mode").and_then(|v| v.as_str()) {
                    None => AnswerMode::Boolean,
                    Some(m) => AnswerMode::from_name(m).ok_or_else(|| {
                        HtdError::Unsupported(format!("mode '{m}' (expected bool|count|enum)"))
                    })?,
                };
                let query = doc
                    .get("query")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| HtdError::Parse("answer missing 'query'".into()))?
                    .to_string();
                Command::Answer(AnswerRequest {
                    query,
                    mode,
                    limit: doc.get("limit").and_then(|v| v.as_u64()),
                    deadline_ms: doc.get("deadline_ms").and_then(|v| v.as_u64()),
                    threads: doc
                        .get("threads")
                        .and_then(|v| v.as_u64())
                        .map(|t| t as usize),
                    engines: engines_from_doc(doc)?,
                    use_cache: cache_from_doc(doc)?,
                    forwarded: forwarded_from_doc(doc),
                })
            }
            "put_cert" => {
                let objective = doc
                    .get("objective")
                    .and_then(|v| v.as_str())
                    .and_then(Objective::from_name)
                    .ok_or_else(|| {
                        HtdError::Unsupported("put_cert needs 'objective' tw|ghw|hw".into())
                    })?;
                let format = match doc.get("format").and_then(|v| v.as_str()) {
                    None => InstanceFormat::Auto,
                    Some(f) => InstanceFormat::from_name(f).ok_or_else(|| {
                        HtdError::Unsupported(format!("format '{f}' (expected auto|gr|col|hg)"))
                    })?,
                };
                let instance = doc
                    .get("instance")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| HtdError::Parse("put_cert missing 'instance'".into()))?
                    .to_string();
                let fingerprint_hex = doc
                    .get("fingerprint")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| HtdError::Parse("put_cert missing 'fingerprint'".into()))?
                    .to_string();
                let outcome = Outcome::from_json(
                    doc.get("outcome")
                        .ok_or_else(|| HtdError::Parse("put_cert missing 'outcome'".into()))?,
                )?;
                Command::PutCert(CertPush {
                    objective,
                    format,
                    instance,
                    fingerprint_hex,
                    effort_ms: doc.get("effort_ms").and_then(|v| v.as_u64()).unwrap_or(0),
                    outcome,
                    from: doc
                        .get("from")
                        .and_then(|v| v.as_str())
                        .map(|s| s.to_string()),
                })
            }
            other => return Err(HtdError::Unsupported(format!("unknown cmd '{other}'"))),
        };
        Ok(Request { id, cmd })
    }
}

/// Shared `engines` field parsing of `solve` and `answer` requests.
fn engines_from_doc(doc: &Json) -> Result<Option<Vec<Engine>>, HtdError> {
    let names: Vec<&str> = match doc.get("engines") {
        None => return Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(Json::as_str)
            .collect::<Option<Vec<_>>>()
            .filter(|names| !names.is_empty())
            .ok_or_else(|| {
                HtdError::Unsupported(format!(
                    "engines must list at least one engine name; registered engines: {}",
                    htd_search::engine_list()
                ))
            })?,
        Some(Json::Str(list)) => list.split(',').map(str::trim).collect(),
        Some(_) => {
            return Err(HtdError::Unsupported(
                "engines must be a name array or comma-separated string".into(),
            ))
        }
    };
    htd_search::engines_from_names(&names).map(Some)
}

/// Shared `forwarded` marker parsing of `solve` and `answer` requests.
fn forwarded_from_doc(doc: &Json) -> bool {
    doc.get("forwarded")
        .and_then(|v| v.as_bool())
        .unwrap_or(false)
}

/// Shared `cache` field parsing of `solve` and `answer` requests.
fn cache_from_doc(doc: &Json) -> Result<bool, HtdError> {
    match doc.get("cache").and_then(|v| v.as_str()) {
        None | Some("use") => Ok(true),
        Some("off") => Ok(false),
        Some(c) => Err(HtdError::Unsupported(format!(
            "cache '{c}' (expected use|off)"
        ))),
    }
}

/// Response statuses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Solved (possibly from cache; possibly inexact bounds).
    Ok,
    /// Backpressure: the work queue is full, retry after `retry_after_ms`.
    Rejected,
    /// The deadline expired before a worker could start the solve.
    Timeout,
    /// The request failed (`code` mirrors the CLI exit codes).
    Error,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Reply to `ping`.
    Pong,
    /// Reply to `stats` (snapshot in `stats`).
    Stats,
}

impl Status {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Rejected => "rejected",
            Status::Timeout => "timeout",
            Status::Error => "error",
            Status::ShuttingDown => "shutting_down",
            Status::Pong => "pong",
            Status::Stats => "stats",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<Status> {
        match s {
            "ok" => Some(Status::Ok),
            "rejected" => Some(Status::Rejected),
            "timeout" => Some(Status::Timeout),
            "error" => Some(Status::Error),
            "shutting_down" => Some(Status::ShuttingDown),
            "pong" => Some(Status::Pong),
            "stats" => Some(Status::Stats),
            _ => None,
        }
    }
}

/// A response line.
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request id.
    pub id: Option<String>,
    /// Outcome class.
    pub status: Status,
    /// `true` iff served from the result cache.
    pub cached: bool,
    /// Canonical fingerprint of the instance (hex), when computed.
    pub fingerprint: Option<String>,
    /// Whether the canonical form was complete (fully relabeling-invariant).
    pub canonical: bool,
    /// The solve result (status `ok`, `solve` requests).
    pub outcome: Option<Outcome>,
    /// `outcome` already rendered as JSON: a cache hit carries its
    /// entry's rendering, which [`Response::to_line`] splices in instead
    /// of rendering `outcome` again. Never read from the wire.
    pub(crate) rendered_outcome: Option<Arc<str>>,
    /// The query answer (status `ok`, `answer` requests).
    pub answer: Option<Answer>,
    /// Error text (statuses `error`, `rejected`, `timeout`).
    pub error: Option<String>,
    /// CLI-style error code (status `error`).
    pub code: Option<i64>,
    /// Backpressure hint (status `rejected`).
    pub retry_after_ms: Option<u64>,
    /// Metrics snapshot (status `stats`).
    pub stats: Option<Json>,
    /// Server-side time spent on the request.
    pub elapsed_ms: f64,
    /// Cluster mode: the id of the node that computed/served the
    /// result (which may differ from the node the client dialed when
    /// the request was forwarded to its ring owner).
    pub node: Option<String>,
    /// On `pong`: `true` once the responding server started a graceful
    /// drain. The cluster failure detector reads this as leave-intent.
    pub draining: bool,
}

impl Response {
    /// A bare response with the given status.
    pub fn new(id: Option<String>, status: Status) -> Response {
        Response {
            id,
            status,
            cached: false,
            fingerprint: None,
            canonical: false,
            outcome: None,
            rendered_outcome: None,
            answer: None,
            error: None,
            code: None,
            retry_after_ms: None,
            stats: None,
            elapsed_ms: 0.0,
            node: None,
            draining: false,
        }
    }

    /// An error response carrying the CLI-style code for `e`.
    pub fn from_error(id: Option<String>, e: &HtdError) -> Response {
        let code = match e {
            HtdError::Parse(_) => 2,
            HtdError::Invalid(_) => 3,
            HtdError::Unsupported(_) => 4,
            HtdError::Io(_) => 5,
            HtdError::ResourceExhausted(_) => 6,
        };
        let mut r = Response::new(id, Status::Error);
        r.error = Some(e.to_string());
        r.code = Some(code);
        r
    }

    /// Serializes the response to its wire object.
    pub fn to_json(&self) -> Json {
        let mut m = self.members_before_result();
        if let Some(o) = &self.outcome {
            m.push(("outcome".into(), o.to_json()));
        }
        if let Some(a) = &self.answer {
            m.push(("answer".into(), a.to_json()));
        }
        Json::Obj(m)
    }

    /// The response as one line of wire JSON, without the newline:
    /// `to_json().to_string()`, with `rendered_outcome` spliced in when
    /// present.
    pub(crate) fn to_line(&self) -> String {
        let (Some(outcome), None) = (&self.rendered_outcome, &self.answer) else {
            return self.to_json().to_string();
        };
        // `status` is always written, so the object is never empty, and
        // `outcome` is the last member of a solve response
        let mut line = Json::Obj(self.members_before_result()).to_string();
        line.pop();
        line.push_str(",\"outcome\":");
        line.push_str(outcome);
        line.push('}');
        line
    }

    /// Every wire member except the result (`outcome` or `answer`),
    /// which `to_json` writes last.
    fn members_before_result(&self) -> Vec<(String, Json)> {
        let mut m: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            m.push(("id".into(), Json::Str(id.clone())));
        }
        m.push(("status".into(), Json::Str(self.status.name().into())));
        if self.status == Status::Ok {
            m.push(("cached".into(), Json::Bool(self.cached)));
        }
        if let Some(fp) = &self.fingerprint {
            m.push(("fingerprint".into(), Json::Str(fp.clone())));
            m.push(("canonical".into(), Json::Bool(self.canonical)));
        }
        if let Some(e) = &self.error {
            m.push(("error".into(), Json::Str(e.clone())));
        }
        if let Some(c) = self.code {
            m.push(("code".into(), Json::Num(c as f64)));
        }
        if let Some(r) = self.retry_after_ms {
            m.push(("retry_after_ms".into(), Json::Num(r as f64)));
        }
        if let Some(s) = &self.stats {
            m.push(("stats".into(), s.clone()));
        }
        if let Some(n) = &self.node {
            m.push(("node".into(), Json::Str(n.clone())));
        }
        if self.draining {
            m.push(("draining".into(), Json::Bool(true)));
        }
        m.push(("elapsed_ms".into(), Json::Num(self.elapsed_ms)));
        m
    }

    /// Parses a response line.
    pub fn from_json(doc: &Json) -> Result<Response, HtdError> {
        let status = doc
            .get("status")
            .and_then(|v| v.as_str())
            .and_then(Status::from_name)
            .ok_or_else(|| HtdError::Parse("response missing 'status'".into()))?;
        Ok(Response {
            id: doc
                .get("id")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string()),
            status,
            cached: doc.get("cached").and_then(|v| v.as_bool()).unwrap_or(false),
            fingerprint: doc
                .get("fingerprint")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string()),
            canonical: doc
                .get("canonical")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            outcome: match doc.get("outcome") {
                Some(o) => Some(Outcome::from_json(o)?),
                None => None,
            },
            rendered_outcome: None,
            answer: match doc.get("answer") {
                Some(a) => Some(Answer::from_json(a)?),
                None => None,
            },
            error: doc
                .get("error")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string()),
            code: doc.get("code").and_then(|v| v.as_u64()).map(|c| c as i64),
            retry_after_ms: doc.get("retry_after_ms").and_then(|v| v.as_u64()),
            stats: doc.get("stats").cloned(),
            elapsed_ms: doc
                .get("elapsed_ms")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
            node: doc
                .get("node")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string()),
            draining: doc
                .get("draining")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        })
    }
}

/// A solve instance parsed and checked as far as its cache key: what the
/// event loop needs to answer a cache hit. Only a miss goes on to
/// [`KeyedInstance::into_problem`].
#[derive(Debug)]
pub(crate) struct KeyedInstance {
    objective: Objective,
    /// The instance as read; graph formats give their binary-edge view.
    hypergraph: Hypergraph,
    /// The `tw` key of a hypergraph instance: the binary-edge view of its
    /// primal graph. `None` when the key is `hypergraph` itself.
    primal_key: Option<Hypergraph>,
}

impl KeyedInstance {
    /// Parses `text` and checks that `objective` is defined on it. For
    /// treewidth the key hypergraph is the binary-edge view of the primal
    /// graph, so `tw` requests share cache entries across every input
    /// format and every hypergraph with the same primal graph.
    pub(crate) fn parse(
        format: InstanceFormat,
        text: &str,
        objective: Objective,
    ) -> Result<KeyedInstance, HtdError> {
        let format = match format {
            InstanceFormat::Auto => io::sniff_format(text).into(),
            f => f,
        };
        let parse_error = |e: io::ParseError| HtdError::Parse(e.to_string());
        // a graph's binary-edge view is its own primal key
        let (hypergraph, is_graph) = match format {
            InstanceFormat::PaceGr => (
                Hypergraph::from_graph(&io::parse_pace_gr(text).map_err(parse_error)?),
                true,
            ),
            InstanceFormat::Dimacs => (
                Hypergraph::from_graph(&io::parse_dimacs(text).map_err(parse_error)?),
                true,
            ),
            InstanceFormat::Hg => (io::parse_hg(text).map_err(parse_error)?, false),
            InstanceFormat::Auto => unreachable!("resolved above"),
        };
        objective.check_instance(&hypergraph)?;
        let primal_key = (objective == Objective::Treewidth && !is_graph)
            .then(|| Hypergraph::from_graph(&hypergraph.primal_graph()));
        Ok(KeyedInstance {
            objective,
            hypergraph,
            primal_key,
        })
    }

    /// The hypergraph whose canonical form is the cache key.
    pub(crate) fn key(&self) -> &Hypergraph {
        self.primal_key.as_ref().unwrap_or(&self.hypergraph)
    }

    /// The [`Problem`] to solve, already checked by [`Self::parse`].
    pub(crate) fn into_problem(self) -> Problem {
        match self.objective {
            Objective::Treewidth => Problem::treewidth_of_hypergraph(self.hypergraph),
            Objective::GeneralizedHypertreeWidth => Problem::ghw(self.hypergraph),
            Objective::HypertreeWidth => Problem::hw(self.hypergraph),
        }
    }
}

/// Builds the [`Problem`] plus the hypergraph the cache key is computed
/// over (see `KeyedInstance::parse`).
pub fn parse_problem(
    format: InstanceFormat,
    text: &str,
    objective: Objective,
) -> Result<(Problem, Hypergraph), HtdError> {
    let instance = KeyedInstance::parse(format, text, objective)?;
    let key = instance.key().clone();
    Ok((instance.into_problem(), key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_engine_in_request_lists_the_registry() {
        let doc = Json::parse(
            r#"{"cmd":"solve","objective":"tw","instance":"p tw 1 0","engines":["balsep","warp"]}"#,
        )
        .unwrap();
        let err = Request::from_json(&doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp"), "{msg}");
        assert!(msg.contains("registered engines"), "{msg}");
        assert!(msg.contains("branch_bound"), "{msg}");
    }

    #[test]
    fn empty_or_non_string_engine_lists_are_refused() {
        for engines in ["[]", "[1,2]", r#"["balsep",7]"#] {
            for cmd in [
                r#""cmd":"solve","objective":"tw","instance":"p tw 1 0""#,
                r#""cmd":"answer","query":"Q() :- R(x).\nR: 1 .""#,
            ] {
                let doc = Json::parse(&format!(r#"{{{cmd},"engines":{engines}}}"#)).unwrap();
                let err = Request::from_json(&doc).unwrap_err();
                assert!(
                    matches!(err, HtdError::Unsupported(_)),
                    "{engines}: {err:?}"
                );
                let msg = err.to_string();
                assert!(msg.contains("registered engines"), "{engines}: {msg}");
                assert!(msg.contains("branch_bound"), "{engines}: {msg}");
            }
        }
    }

    #[test]
    fn request_round_trip() {
        let req = Request {
            id: Some("r1".into()),
            cmd: Command::Solve(SolveRequest {
                objective: Objective::GeneralizedHypertreeWidth,
                format: InstanceFormat::Hg,
                instance: "e1(a,b),\ne2(b,c).".into(),
                deadline_ms: Some(250),
                budget: Some(1000),
                threads: Some(2),
                engines: Some(vec![Engine::BalSep, Engine::BranchBound]),
                use_cache: false,
                forwarded: true,
            }),
        };
        let text = req.to_json().to_string();
        let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.id.as_deref(), Some("r1"));
        match back.cmd {
            Command::Solve(s) => {
                assert_eq!(s.objective, Objective::GeneralizedHypertreeWidth);
                assert_eq!(s.format, InstanceFormat::Hg);
                assert_eq!(s.deadline_ms, Some(250));
                assert_eq!(s.budget, Some(1000));
                assert_eq!(s.threads, Some(2));
                assert_eq!(s.engines, Some(vec![Engine::BalSep, Engine::BranchBound]));
                assert!(!s.use_cache);
                assert!(s.forwarded);
            }
            _ => panic!("wrong cmd"),
        }
    }

    #[test]
    fn answer_request_round_trip() {
        let req = Request {
            id: Some("a1".into()),
            cmd: Command::Answer(AnswerRequest {
                query: "Q(x) :- R(x).\nR: 1 ; 2 .".into(),
                mode: AnswerMode::Enumerate,
                limit: Some(10),
                deadline_ms: Some(250),
                threads: Some(2),
                engines: Some(vec![Engine::BalSep]),
                use_cache: false,
                forwarded: false,
            }),
        };
        let back = Request::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        match back.cmd {
            Command::Answer(a) => {
                assert_eq!(a.mode, AnswerMode::Enumerate);
                assert_eq!(a.limit, Some(10));
                assert_eq!(a.deadline_ms, Some(250));
                assert_eq!(a.threads, Some(2));
                assert_eq!(a.engines, Some(vec![Engine::BalSep]));
                assert!(!a.use_cache);
                assert!(a.query.contains(":-"));
            }
            _ => panic!("wrong cmd"),
        }
        // mode defaults to boolean; bad mode is rejected
        let doc = Json::parse(r#"{"cmd":"answer","query":"Q() :- R(x).\nR: 1 ."}"#).unwrap();
        match Request::from_json(&doc).unwrap().cmd {
            Command::Answer(a) => {
                assert_eq!(a.mode, AnswerMode::Boolean);
                assert!(!a.forwarded);
            }
            _ => panic!("wrong cmd"),
        }
        let doc = Json::parse(r#"{"cmd":"answer","query":"x","mode":"maybe"}"#).unwrap();
        assert!(Request::from_json(&doc).is_err());
    }

    #[test]
    fn control_commands_parse() {
        for (name, want) in [
            ("ping", "ping"),
            ("stats", "stats"),
            ("shutdown", "shutdown"),
        ] {
            let doc = Json::parse(&format!("{{\"cmd\":\"{name}\"}}")).unwrap();
            let req = Request::from_json(&doc).unwrap();
            assert_eq!(
                match req.cmd {
                    Command::Ping => "ping",
                    Command::Stats => "stats",
                    Command::Shutdown => "shutdown",
                    Command::Solve(_) => "solve",
                    Command::Answer(_) => "answer",
                    Command::PutCert(_) => "put_cert",
                },
                want
            );
        }
        assert!(Request::from_json(&Json::parse("{\"cmd\":\"nope\"}").unwrap()).is_err());
        assert!(Request::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn response_round_trip() {
        let mut r = Response::new(Some("q".into()), Status::Rejected);
        r.error = Some("queue full".into());
        r.retry_after_ms = Some(50);
        r.elapsed_ms = 0.3;
        r.node = Some("node-b".into());
        let back = Response::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.status, Status::Rejected);
        assert_eq!(back.retry_after_ms, Some(50));
        assert_eq!(back.error.as_deref(), Some("queue full"));
        assert_eq!(back.node.as_deref(), Some("node-b"));
        assert!(!back.draining);
        // draining pong round-trips
        let mut p = Response::new(None, Status::Pong);
        p.draining = true;
        let back = Response::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
        assert!(back.draining);
    }

    #[test]
    fn answer_counts_above_2_pow_53_cross_the_wire_exactly() {
        for count in [3u64.pow(34), (1 << 53) + 1, u64::MAX] {
            let mut r = Response::new(Some("c".into()), Status::Ok);
            r.answer = Some(Answer {
                head: vec!["x".into()],
                mode: AnswerMode::Count,
                satisfiable: true,
                count: Some(count),
                tuples: Vec::new(),
                truncated: false,
                stats: Default::default(),
            });
            let line = r.to_line();
            assert!(line.contains(&format!("\"count\":{count}")), "{line}");
            let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back.answer.and_then(|a| a.count), Some(count));
        }
    }

    #[test]
    fn spliced_outcome_renders_like_a_fresh_one() {
        use htd_search::{solve, SearchConfig};
        let (problem, _) = parse_problem(
            InstanceFormat::PaceGr,
            "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n",
            Objective::Treewidth,
        )
        .unwrap();
        let outcome = solve(&problem, &SearchConfig::default().with_threads(2)).unwrap();
        let mut r = Response::new(Some("h\"1".into()), Status::Ok);
        r.cached = true;
        r.fingerprint = Some("00ff".into());
        r.node = Some("node-a".into());
        r.elapsed_ms = 0.25;
        r.outcome = Some(outcome.clone());
        let fresh = r.to_json().to_string();
        assert_eq!(r.to_line(), fresh, "nothing to splice");
        r.rendered_outcome = Some(outcome.to_json().to_string().into());
        assert_eq!(r.to_line(), fresh);
    }

    #[test]
    fn put_cert_round_trip() {
        use htd_search::{solve, SearchConfig};
        let instance = "p tw 3 3\n1 2\n2 3\n1 3\n";
        let (problem, key) =
            parse_problem(InstanceFormat::PaceGr, instance, Objective::Treewidth).unwrap();
        let outcome = solve(&problem, &SearchConfig::budgeted(50_000)).unwrap();
        let canon = htd_hypergraph::canonical_form(&key);
        let req = Request {
            id: Some("h1".into()),
            cmd: Command::PutCert(CertPush {
                objective: Objective::Treewidth,
                format: InstanceFormat::PaceGr,
                instance: instance.into(),
                fingerprint_hex: canon.hex(),
                effort_ms: 12,
                outcome,
                from: Some("node-a".into()),
            }),
        };
        let back = Request::from_json(&Json::parse(&req.to_json().to_string()).unwrap()).unwrap();
        match back.cmd {
            Command::PutCert(c) => {
                assert_eq!(c.objective, Objective::Treewidth);
                assert_eq!(c.format, InstanceFormat::PaceGr);
                assert_eq!(c.fingerprint_hex, canon.hex());
                assert_eq!(c.effort_ms, 12);
                assert_eq!(c.from.as_deref(), Some("node-a"));
                assert!(c.outcome.witness.is_some());
            }
            _ => panic!("wrong cmd"),
        }
        // a put_cert without an outcome is a parse error
        let doc = Json::parse(
            r#"{"cmd":"put_cert","objective":"tw","instance":"p tw 1 0","fingerprint":"00"}"#,
        )
        .unwrap();
        assert!(Request::from_json(&doc).is_err());
    }

    #[test]
    fn sniffing_and_problem_building() {
        let (p, key) = parse_problem(
            InstanceFormat::Auto,
            "p tw 3 2\n1 2\n2 3\n",
            Objective::Treewidth,
        )
        .unwrap();
        assert_eq!(p.graph().num_vertices(), 3);
        assert_eq!(key.num_edges(), 2);
        let (p, _) = parse_problem(
            InstanceFormat::Auto,
            "e1(a,b,c),\ne2(c,d).",
            Objective::GeneralizedHypertreeWidth,
        )
        .unwrap();
        assert_eq!(p.hypergraph().unwrap().num_edges(), 2);
        let (p, _) = parse_problem(
            InstanceFormat::Auto,
            "p edge 3 2\ne 1 2\ne 2 3\n",
            Objective::Treewidth,
        )
        .unwrap();
        assert_eq!(p.graph().num_edges(), 2);
        assert!(parse_problem(InstanceFormat::Hg, "garbage", Objective::Treewidth).is_err());
    }

    /// The key the miss path derives from the problem it solves: the
    /// binary-edge view of the primal graph for `tw`, the hypergraph
    /// itself for `ghw`/`hw`.
    fn key_of_problem(problem: &Problem) -> Hypergraph {
        match problem.objective() {
            Objective::Treewidth => Hypergraph::from_graph(problem.graph()),
            _ => problem
                .hypergraph()
                .expect("ghw/hw problems keep it")
                .clone(),
        }
    }

    #[test]
    fn hit_path_key_matches_the_solved_problem() {
        use htd_hypergraph::{canonical_form, gen};
        let mut inputs: Vec<(InstanceFormat, String)> = vec![
            // isolated vertices 4..6
            (InstanceFormat::PaceGr, "p tw 6 3\n1 2\n2 3\n3 1\n".into()),
            (
                InstanceFormat::Dimacs,
                "c a 4-cycle and an isolated vertex\np edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
                    .into(),
            ),
            // named vertices, a repeated scope, a singleton edge
            (
                InstanceFormat::Hg,
                "r(a,b,c),\ns(c,d),\nt(d,a),\nu(d,a),\nw(b).".into(),
            ),
            (InstanceFormat::Auto, "e1(x, y),\ne2(y, z).".into()),
            (InstanceFormat::Auto, "p tw 3 2\n1 2\n2 3\n".into()),
            (InstanceFormat::Hg, io::write_hg(&gen::grid2d(3))),
            (InstanceFormat::Hg, io::write_hg(&gen::adder(3))),
            (
                InstanceFormat::PaceGr,
                io::write_pace_gr(&gen::random_gnp(12, 0.3, 7)),
            ),
            (
                InstanceFormat::Dimacs,
                htd_hypergraph::io::write_dimacs(&gen::queen_graph(4)),
            ),
        ];
        for seed in 0..6 {
            inputs.push((
                InstanceFormat::Hg,
                io::write_hg(&gen::random_uniform(9, 6, 3, seed)),
            ));
        }
        for (format, text) in &inputs {
            for objective in [
                Objective::Treewidth,
                Objective::GeneralizedHypertreeWidth,
                Objective::HypertreeWidth,
            ] {
                let what = format!("{} {text:?}", objective.name());
                match KeyedInstance::parse(*format, text, objective) {
                    Ok(instance) => {
                        let hit_key = canonical_form(instance.key()).bytes;
                        let problem = instance.into_problem();
                        problem.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
                        let miss_key = canonical_form(&key_of_problem(&problem)).bytes;
                        assert_eq!(hit_key, miss_key, "{what}");
                        let (_, key) = parse_problem(*format, text, objective).unwrap();
                        assert_eq!(canonical_form(&key).bytes, hit_key, "{what}");
                    }
                    Err(e) => {
                        let again = parse_problem(*format, text, objective).unwrap_err();
                        assert_eq!(e.to_string(), again.to_string(), "{what}");
                        // only ghw/hw refuse a parsed instance: an
                        // isolated vertex has no covering edge
                        assert_ne!(objective, Objective::Treewidth, "{what}: {e}");
                        assert!(matches!(e, HtdError::Invalid(_)), "{what}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn tw_key_is_primal_normalized() {
        // a hypergraph and its primal graph's edge list share the tw key
        let (_, key_hg) =
            parse_problem(InstanceFormat::Hg, "e1(a,b,c).", Objective::Treewidth).unwrap();
        let (_, key_gr) = parse_problem(
            InstanceFormat::PaceGr,
            "p tw 3 3\n1 2\n2 3\n1 3\n",
            Objective::Treewidth,
        )
        .unwrap();
        use htd_hypergraph::canonical_form;
        assert_eq!(canonical_form(&key_hg).bytes, canonical_form(&key_gr).bytes);
    }
}
