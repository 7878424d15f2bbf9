//! Graphs, hypergraphs and the elimination machinery underlying every
//! decomposition algorithm in the `htd` workspace.
//!
//! The crate provides four layers:
//!
//! * [`bitset::VertexSet`] — a fixed-capacity bitset over `u64` blocks. All
//!   hot loops in the workspace (vertex elimination, set covering, bound
//!   computation) are word-parallel operations on these sets.
//! * [`graph::Graph`] and [`hypergraph::Hypergraph`] — immutable instance
//!   descriptions, with the classical derived structure of a hypergraph:
//!   its primal (Gaifman) graph.
//! * [`elim::EliminationGraph`] — a mutable view of a graph supporting
//!   `eliminate(v)` / `undo()` in amortized O(fill) time, the workhorse of
//!   branch-and-bound and A* searches over elimination orderings.
//! * [`io`] and [`gen`] — the one instance reader ([`io::read`]) and the
//!   writers for the DIMACS, PACE and HyperBench atom-list formats, plus
//!   deterministic generators for every instance family used in the
//!   reproduced experiments.

#![warn(missing_docs)]

pub mod bitset;
pub mod canonical;
pub mod elim;
pub mod gen;
pub mod graph;
pub mod hypergraph;
pub mod io;

pub use bitset::VertexSet;
pub use canonical::{canonical_form, CanonicalForm};
pub use elim::EliminationGraph;
pub use graph::Graph;
pub use hypergraph::Hypergraph;

/// Vertex identifier. Vertices of an `n`-vertex (hyper)graph are `0..n`.
pub type Vertex = u32;

/// Hyperedge identifier. Edges of an `m`-edge hypergraph are `0..m`.
pub type EdgeId = u32;
