//! Typed trace events and their versioned JSONL wire form.
//!
//! Every record serializes to one JSON object per line:
//!
//! ```json
//! {"v":1,"seq":7,"t_us":15321,"kind":"incumbent_improved","worker":"astar","width":4}
//! ```
//!
//! `v` is [`SCHEMA_VERSION`], `seq` is a per-trace contiguous sequence
//! number, `t_us` microseconds since the tracer was created, clamped to
//! be non-decreasing across the stream. Consumers must ignore unknown
//! fields; unknown `kind`s are a schema violation.

/// Version stamped into every JSONL record as `"v"`. Schema history:
/// v1 = solver/worker/query events; v2 adds the `span_enter`/`span_exit`
/// pair from the span layer ([`crate::span`](mod@crate::span)).
pub const SCHEMA_VERSION: u32 = 2;

/// Every `kind` the current schema can emit, in no particular order.
pub const KNOWN_KINDS: &[&str] = &[
    "solve_started",
    "worker_started",
    "worker_finished",
    "worker_cancelled",
    "worker_panicked",
    "incumbent_improved",
    "bound_tightened",
    "node_expanded",
    "cache_stats",
    "restart_triggered",
    "engines_skipped",
    "solve_finished",
    "query_stage",
    "span_enter",
    "span_exit",
];

/// One solver event. Workers are identified by their engine name
/// (`"branch_bound"`, `"astar"`, ...); `""` means unattributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A solve began on an instance of the given shape.
    SolveStarted {
        objective: &'static str,
        vertices: usize,
        edges: usize,
    },
    /// A portfolio worker thread started.
    WorkerStarted { worker: &'static str },
    /// A worker ran to its own completion (budget exhausted or proof found).
    WorkerFinished {
        worker: &'static str,
        lower: u32,
        upper: Option<u32>,
        exact: bool,
        expanded: u64,
        elapsed_us: u64,
    },
    /// A worker was cancelled (the solve's deadline, a sibling's proof or
    /// the caller's cancel).
    WorkerCancelled {
        worker: &'static str,
        lower: u32,
        upper: Option<u32>,
        expanded: u64,
        elapsed_us: u64,
    },
    /// A worker panicked and was quarantined; the portfolio continued on
    /// its siblings. `message` is the (truncated) panic payload.
    WorkerPanicked {
        worker: &'static str,
        message: String,
    },
    /// The shared incumbent's upper bound improved to `width`.
    IncumbentImproved { worker: &'static str, width: u32 },
    /// The shared lower bound rose to `lower`.
    BoundTightened { worker: &'static str, lower: u32 },
    /// A batch of `count` node expansions (batched; not one per node).
    NodeExpanded { worker: &'static str, count: u64 },
    /// Point-in-time cache statistics.
    CacheStats {
        cache: &'static str,
        hits: u64,
        misses: u64,
        entries: u64,
    },
    /// A stochastic worker began a fresh round/restart.
    RestartTriggered { worker: &'static str, round: u32 },
    /// The portfolio had fewer worker slots than lineup engines: the named
    /// engines (comma-joined, in claim order) were not launched this run.
    EnginesSkipped { engines: String, slots: u64 },
    /// The solve returned.
    SolveFinished {
        lower: u32,
        upper: Option<u32>,
        exact: bool,
        winner: Option<&'static str>,
        expanded: u64,
    },
    /// One stage of the query-answering pipeline completed
    /// (`"parse"`, `"decompose"`, `"semijoin"`, `"enumerate"`), with the
    /// tuples it processed and its wall-clock duration.
    QueryStage {
        stage: &'static str,
        tuples: u64,
        elapsed_us: u64,
    },
    /// A profiling span opened on some thread (`depth` = how many spans
    /// already enclose it there; 0 for a root).
    SpanEnter {
        span: &'static str,
        worker: &'static str,
        depth: u32,
    },
    /// The matching close of a [`Event::SpanEnter`] with the same
    /// worker and span name.
    SpanExit {
        span: &'static str,
        worker: &'static str,
        depth: u32,
        elapsed_us: u64,
    },
}

impl Event {
    /// The snake_case `kind` tag this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolveStarted { .. } => "solve_started",
            Event::WorkerStarted { .. } => "worker_started",
            Event::WorkerFinished { .. } => "worker_finished",
            Event::WorkerCancelled { .. } => "worker_cancelled",
            Event::WorkerPanicked { .. } => "worker_panicked",
            Event::IncumbentImproved { .. } => "incumbent_improved",
            Event::BoundTightened { .. } => "bound_tightened",
            Event::NodeExpanded { .. } => "node_expanded",
            Event::CacheStats { .. } => "cache_stats",
            Event::RestartTriggered { .. } => "restart_triggered",
            Event::EnginesSkipped { .. } => "engines_skipped",
            Event::SolveFinished { .. } => "solve_finished",
            Event::QueryStage { .. } => "query_stage",
            Event::SpanEnter { .. } => "span_enter",
            Event::SpanExit { .. } => "span_exit",
        }
    }

    /// The worker this event is attributed to, if any.
    pub fn worker(&self) -> Option<&'static str> {
        match self {
            Event::WorkerStarted { worker }
            | Event::WorkerFinished { worker, .. }
            | Event::WorkerCancelled { worker, .. }
            | Event::WorkerPanicked { worker, .. }
            | Event::IncumbentImproved { worker, .. }
            | Event::BoundTightened { worker, .. }
            | Event::NodeExpanded { worker, .. }
            | Event::RestartTriggered { worker, .. }
            | Event::SpanEnter { worker, .. }
            | Event::SpanExit { worker, .. } => Some(worker),
            _ => None,
        }
    }
}

/// A stamped event: what happened, when, and in what order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Contiguous from 0 within one trace.
    pub seq: u64,
    /// Microseconds since the tracer's epoch, non-decreasing.
    pub t_us: u64,
    pub event: Event,
}

impl Record {
    /// This record as one JSONL line (no trailing newline). All strings
    /// involved are engine/cache identifiers that never need escaping.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"v\":{SCHEMA_VERSION},\"seq\":{},\"t_us\":{},\"kind\":\"{}\"",
            self.seq,
            self.t_us,
            self.event.kind()
        );
        use std::fmt::Write as _;
        match &self.event {
            Event::SolveStarted {
                objective,
                vertices,
                edges,
            } => {
                let _ = write!(
                    s,
                    ",\"objective\":\"{objective}\",\"vertices\":{vertices},\"edges\":{edges}"
                );
            }
            Event::WorkerStarted { worker } => {
                let _ = write!(s, ",\"worker\":\"{worker}\"");
            }
            Event::WorkerFinished {
                worker,
                lower,
                upper,
                exact,
                expanded,
                elapsed_us,
            } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"lower\":{lower}");
                if let Some(u) = upper {
                    let _ = write!(s, ",\"upper\":{u}");
                }
                let _ = write!(
                    s,
                    ",\"exact\":{exact},\"expanded\":{expanded},\"elapsed_us\":{elapsed_us}"
                );
            }
            Event::WorkerCancelled {
                worker,
                lower,
                upper,
                expanded,
                elapsed_us,
            } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"lower\":{lower}");
                if let Some(u) = upper {
                    let _ = write!(s, ",\"upper\":{u}");
                }
                let _ = write!(s, ",\"expanded\":{expanded},\"elapsed_us\":{elapsed_us}");
            }
            Event::WorkerPanicked { worker, message } => {
                // the one free-form string in the schema: escape it
                let _ = write!(
                    s,
                    ",\"worker\":\"{worker}\",\"message\":\"{}\"",
                    escape_json(message)
                );
            }
            Event::IncumbentImproved { worker, width } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"width\":{width}");
            }
            Event::BoundTightened { worker, lower } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"lower\":{lower}");
            }
            Event::NodeExpanded { worker, count } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"count\":{count}");
            }
            Event::CacheStats {
                cache,
                hits,
                misses,
                entries,
            } => {
                let _ = write!(
                    s,
                    ",\"cache\":\"{cache}\",\"hits\":{hits},\"misses\":{misses},\"entries\":{entries}"
                );
            }
            Event::RestartTriggered { worker, round } => {
                let _ = write!(s, ",\"worker\":\"{worker}\",\"round\":{round}");
            }
            Event::EnginesSkipped { engines, slots } => {
                // engine names are identifiers, but the list is assembled at
                // runtime from the open registry: escape it like a free form
                let _ = write!(
                    s,
                    ",\"engines\":\"{}\",\"slots\":{slots}",
                    escape_json(engines)
                );
            }
            Event::SolveFinished {
                lower,
                upper,
                exact,
                winner,
                expanded,
            } => {
                let _ = write!(s, ",\"lower\":{lower}");
                if let Some(u) = upper {
                    let _ = write!(s, ",\"upper\":{u}");
                }
                let _ = write!(s, ",\"exact\":{exact}");
                if let Some(w) = winner {
                    let _ = write!(s, ",\"winner\":\"{w}\"");
                }
                let _ = write!(s, ",\"expanded\":{expanded}");
            }
            Event::QueryStage {
                stage,
                tuples,
                elapsed_us,
            } => {
                let _ = write!(
                    s,
                    ",\"stage\":\"{stage}\",\"tuples\":{tuples},\"elapsed_us\":{elapsed_us}"
                );
            }
            Event::SpanEnter {
                span,
                worker,
                depth,
            } => {
                let _ = write!(
                    s,
                    ",\"span\":\"{span}\",\"worker\":\"{worker}\",\"depth\":{depth}"
                );
            }
            Event::SpanExit {
                span,
                worker,
                depth,
                elapsed_us,
            } => {
                let _ = write!(
                    s,
                    ",\"span\":\"{span}\",\"worker\":\"{worker}\",\"depth\":{depth},\"elapsed_us\":{elapsed_us}"
                );
            }
        }
        s.push('}');
        s
    }
}

/// Minimal JSON string escaping for the free-form panic message.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Checks an in-memory record stream for well-formedness: contiguous
/// `seq` from 0, non-decreasing `t_us`, every `WorkerStarted` matched
/// by exactly one `WorkerFinished`, `WorkerCancelled` or
/// `WorkerPanicked` (a quarantined panic is a terminal worker event),
/// and every `span_exit` closing a still-open `span_enter` of the same
/// worker and span name, with none left open at the end. Span pairing
/// is a per-(worker, span) multiset, not a strict stack: pool threads
/// sharing one worker label interleave their spans freely in the
/// totally-ordered stream.
pub fn validate_stream(records: &[Record]) -> Result<(), String> {
    let mut open: Vec<&'static str> = Vec::new();
    let mut open_spans: Vec<(&'static str, &'static str)> = Vec::new();
    let mut last_t = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.seq != i as u64 {
            return Err(format!("record {i}: seq {} is not contiguous", r.seq));
        }
        if r.t_us < last_t {
            return Err(format!(
                "record {i}: t_us {} went backwards (previous {last_t})",
                r.t_us
            ));
        }
        last_t = r.t_us;
        match &r.event {
            Event::WorkerStarted { worker } => {
                if open.contains(worker) {
                    return Err(format!("record {i}: worker '{worker}' started twice"));
                }
                open.push(worker);
            }
            Event::WorkerFinished { worker, .. }
            | Event::WorkerCancelled { worker, .. }
            | Event::WorkerPanicked { worker, .. } => match open.iter().position(|w| w == worker) {
                Some(p) => {
                    open.remove(p);
                }
                None => {
                    return Err(format!(
                        "record {i}: worker '{worker}' ended without starting"
                    ));
                }
            },
            Event::SpanEnter { span, worker, .. } => {
                open_spans.push((worker, span));
            }
            Event::SpanExit { span, worker, .. } => {
                match open_spans
                    .iter()
                    .position(|&(w, s)| w == *worker && s == *span)
                {
                    Some(p) => {
                        open_spans.remove(p);
                    }
                    None => {
                        return Err(format!(
                            "record {i}: span '{span}' (worker '{worker}') exited without entering"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(w) = open.first() {
        return Err(format!("worker '{w}' started but never finished"));
    }
    if let Some((w, s)) = open_spans.first() {
        return Err(format!(
            "span '{s}' (worker '{w}') entered but never exited"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, t_us: u64, event: Event) -> Record {
        Record { seq, t_us, event }
    }

    #[test]
    fn json_lines_are_framed_and_versioned() {
        let r = rec(
            3,
            1500,
            Event::IncumbentImproved {
                worker: "astar",
                width: 4,
            },
        );
        assert_eq!(
            r.to_json_line(),
            "{\"v\":2,\"seq\":3,\"t_us\":1500,\"kind\":\"incumbent_improved\",\"worker\":\"astar\",\"width\":4}"
        );
    }

    #[test]
    fn optional_upper_is_omitted_when_absent() {
        let r = rec(
            0,
            0,
            Event::WorkerFinished {
                worker: "lower_bound",
                lower: 3,
                upper: None,
                exact: false,
                expanded: 12,
                elapsed_us: 900,
            },
        );
        let line = r.to_json_line();
        assert!(!line.contains("upper"), "{line}");
        assert!(line.contains("\"lower\":3"));
        assert!(line.contains("\"exact\":false"));
    }

    #[test]
    fn every_event_kind_is_known() {
        let events = [
            Event::SolveStarted {
                objective: "tw",
                vertices: 5,
                edges: 6,
            },
            Event::WorkerStarted { worker: "x" },
            Event::WorkerFinished {
                worker: "x",
                lower: 1,
                upper: Some(2),
                exact: true,
                expanded: 3,
                elapsed_us: 4,
            },
            Event::WorkerCancelled {
                worker: "x",
                lower: 1,
                upper: None,
                expanded: 3,
                elapsed_us: 4,
            },
            Event::WorkerPanicked {
                worker: "x",
                message: "boom".into(),
            },
            Event::IncumbentImproved {
                worker: "x",
                width: 2,
            },
            Event::BoundTightened {
                worker: "x",
                lower: 1,
            },
            Event::NodeExpanded {
                worker: "x",
                count: 100,
            },
            Event::CacheStats {
                cache: "cover",
                hits: 1,
                misses: 2,
                entries: 3,
            },
            Event::RestartTriggered {
                worker: "x",
                round: 2,
            },
            Event::EnginesSkipped {
                engines: "genetic,annealing".into(),
                slots: 4,
            },
            Event::SolveFinished {
                lower: 1,
                upper: Some(2),
                exact: false,
                winner: Some("x"),
                expanded: 10,
            },
            Event::QueryStage {
                stage: "semijoin",
                tuples: 42,
                elapsed_us: 17,
            },
            Event::SpanEnter {
                span: "astar.expand",
                worker: "astar",
                depth: 1,
            },
            Event::SpanExit {
                span: "astar.expand",
                worker: "astar",
                depth: 1,
                elapsed_us: 250,
            },
        ];
        for e in &events {
            assert!(KNOWN_KINDS.contains(&e.kind()), "unknown kind {}", e.kind());
        }
        assert_eq!(events.len(), KNOWN_KINDS.len());
    }

    #[test]
    fn panic_messages_are_escaped_and_terminal() {
        let r = rec(
            0,
            0,
            Event::WorkerPanicked {
                worker: "astar",
                message: "index 3 \"out\\of\" range\n".into(),
            },
        );
        assert_eq!(
            r.to_json_line(),
            "{\"v\":2,\"seq\":0,\"t_us\":0,\"kind\":\"worker_panicked\",\
             \"worker\":\"astar\",\"message\":\"index 3 \\\"out\\\\of\\\" range\\n\"}"
        );
        // a panicked worker counts as ended
        let s = vec![
            rec(0, 0, Event::WorkerStarted { worker: "astar" }),
            rec(
                1,
                5,
                Event::WorkerPanicked {
                    worker: "astar",
                    message: "boom".into(),
                },
            ),
        ];
        validate_stream(&s).unwrap();
        // ...but cannot end a worker that never started
        let s = vec![rec(
            0,
            0,
            Event::WorkerPanicked {
                worker: "astar",
                message: "boom".into(),
            },
        )];
        assert!(validate_stream(&s)
            .unwrap_err()
            .contains("without starting"));
    }

    #[test]
    fn validate_accepts_a_good_stream() {
        let stream = vec![
            rec(
                0,
                0,
                Event::SolveStarted {
                    objective: "tw",
                    vertices: 4,
                    edges: 3,
                },
            ),
            rec(1, 5, Event::WorkerStarted { worker: "a" }),
            rec(2, 5, Event::WorkerStarted { worker: "b" }),
            rec(
                3,
                9,
                Event::IncumbentImproved {
                    worker: "a",
                    width: 3,
                },
            ),
            rec(
                4,
                12,
                Event::WorkerCancelled {
                    worker: "b",
                    lower: 1,
                    upper: None,
                    expanded: 7,
                    elapsed_us: 7,
                },
            ),
            rec(
                5,
                14,
                Event::WorkerFinished {
                    worker: "a",
                    lower: 3,
                    upper: Some(3),
                    exact: true,
                    expanded: 20,
                    elapsed_us: 9,
                },
            ),
            rec(
                6,
                15,
                Event::SolveFinished {
                    lower: 3,
                    upper: Some(3),
                    exact: true,
                    winner: Some("a"),
                    expanded: 27,
                },
            ),
        ];
        validate_stream(&stream).unwrap();
    }

    #[test]
    fn validate_rejects_violations() {
        // backwards time
        let s = vec![
            rec(0, 10, Event::WorkerStarted { worker: "a" }),
            rec(
                1,
                4,
                Event::WorkerFinished {
                    worker: "a",
                    lower: 0,
                    upper: None,
                    exact: false,
                    expanded: 0,
                    elapsed_us: 0,
                },
            ),
        ];
        assert!(validate_stream(&s).unwrap_err().contains("backwards"));
        // seq gap
        let s = vec![rec(1, 0, Event::WorkerStarted { worker: "a" })];
        assert!(validate_stream(&s).unwrap_err().contains("contiguous"));
        // unmatched start
        let s = vec![rec(0, 0, Event::WorkerStarted { worker: "a" })];
        assert!(validate_stream(&s).unwrap_err().contains("never finished"));
        // finish without start
        let s = vec![rec(
            0,
            0,
            Event::WorkerCancelled {
                worker: "a",
                lower: 0,
                upper: None,
                expanded: 0,
                elapsed_us: 0,
            },
        )];
        assert!(validate_stream(&s)
            .unwrap_err()
            .contains("without starting"));
    }

    #[test]
    fn span_events_serialize_and_balance() {
        let enter = rec(
            0,
            10,
            Event::SpanEnter {
                span: "balsep.level",
                worker: "balsep",
                depth: 0,
            },
        );
        assert_eq!(
            enter.to_json_line(),
            "{\"v\":2,\"seq\":0,\"t_us\":10,\"kind\":\"span_enter\",\
             \"span\":\"balsep.level\",\"worker\":\"balsep\",\"depth\":0}"
        );
        // interleaved same-worker spans balance as a multiset
        let s = vec![
            rec(
                0,
                0,
                Event::SpanEnter {
                    span: "a",
                    worker: "w",
                    depth: 0,
                },
            ),
            rec(
                1,
                1,
                Event::SpanEnter {
                    span: "b",
                    worker: "w",
                    depth: 1,
                },
            ),
            rec(
                2,
                2,
                Event::SpanExit {
                    span: "a",
                    worker: "w",
                    depth: 0,
                    elapsed_us: 2,
                },
            ),
            rec(
                3,
                3,
                Event::SpanExit {
                    span: "b",
                    worker: "w",
                    depth: 1,
                    elapsed_us: 2,
                },
            ),
        ];
        validate_stream(&s).unwrap();
    }

    #[test]
    fn validate_rejects_unbalanced_spans() {
        // exit with no matching enter (wrong worker)
        let s = vec![
            rec(
                0,
                0,
                Event::SpanEnter {
                    span: "a",
                    worker: "w1",
                    depth: 0,
                },
            ),
            rec(
                1,
                1,
                Event::SpanExit {
                    span: "a",
                    worker: "w2",
                    depth: 0,
                    elapsed_us: 1,
                },
            ),
        ];
        assert!(validate_stream(&s)
            .unwrap_err()
            .contains("exited without entering"));
        // enter never exited
        let s = vec![rec(
            0,
            0,
            Event::SpanEnter {
                span: "a",
                worker: "w",
                depth: 0,
            },
        )];
        assert!(validate_stream(&s).unwrap_err().contains("never exited"));
    }
}
