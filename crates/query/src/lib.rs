//! `htd-query`: end-to-end conjunctive-query answering — the "answers"
//! half of *questions and answers*.
//!
//! The rest of the workspace computes decompositions; this crate uses
//! them. It turns a conjunctive query plus its relations into answers,
//! end to end:
//!
//! * [`parse`] — a small text/JSON input layer: a Datalog-style rule
//!   (`Q(x,y) :- R(x,z), S(z,y).`) with inline or file-referenced
//!   relations, compiled into an [`htd_csp::Csp`] whose constraint
//!   hypergraph *is* the query hypergraph (thesis Definition 7).
//! * [`shape`] — a decomposition cache keyed on the **canonical form**
//!   of that hypergraph: two queries with the same shape but different
//!   data (or different variable names) share one elimination ordering,
//!   so repeated shapes skip decomposition entirely.
//! * [`pipeline`] — the answering pipeline: decompose through the
//!   engine portfolio (shape-cache first, min-fill fallback), then run
//!   Yannakakis semijoin passes over the join tree in one of three
//!   modes — boolean/first-answer, exact count, or bounded-delay
//!   enumeration with a limit. The evaluation is quarantined and
//!   memory-budgeted: a query whose intermediate relations would blow
//!   the budget is *refused with a size estimate*, never answered
//!   wrongly.
//!
//! `htd answer` and the `answer` request of `htd-service` are thin
//! frontends over [`answer`]; `htd solve` routes through the same
//! pipeline with the trivial head (all variables).

#![warn(missing_docs)]

pub mod parse;
pub mod pipeline;
pub mod shape;

pub use htd_resilience::MemoryBudget;
pub use parse::{parse_query, FileAccess, Query};
pub use pipeline::{answer, check_query_size, Answer, AnswerMode, AnswerOptions, AnswerStats};
pub use shape::ShapeCache;
