//! Constraint satisfaction substrate: the consumer of the decompositions.
//!
//! Tree decompositions and generalized hypertree decompositions exist to
//! solve CSPs; this crate closes the loop (thesis §2.2 / §2.4):
//!
//! * [`model`] — variables, finite domains, relational constraints, and the
//!   constraint hypergraph.
//! * [`relation`] — the relational algebra the solvers run on: hash-based
//!   natural join, semijoin and projection.
//! * [`yannakakis`] — the join-tree evaluator every decomposition-guided
//!   mode runs on: constraint placement, one node-relation builder (Join
//!   Tree Clustering from a tree decomposition, `π_χ(p) ⋈ {R_e : e ∈ λ(p)}`
//!   from a complete generalized hypertree decomposition, a join of
//!   `|λ(p)| ≤ width` relations, which is why small `ghw` means fast
//!   solving), and three passes over the relations: the bottom-up
//!   semijoin pass of Acyclic Solving (Fig. 2.4), the top-down walk that
//!   yields the witness and enumerates all solutions with polynomial
//!   delay, and sum–product counting that never wraps.
//! * [`backtrack`] — chronological backtracking and forward-checking
//!   baselines.
//! * [`io`] — a plain-text CSP format for the command line.
//! * [`builders`] — classic instances: map coloring (Example 1), SAT as
//!   CSP (Example 2), graph coloring, n-queens, seeded random binary CSPs.

#![warn(missing_docs)]

pub mod backtrack;
pub mod builders;
pub mod io;
pub mod model;
pub mod relation;
pub mod yannakakis;

pub use backtrack::{backtrack_solve, forward_checking_solve};
pub use io::{parse_csp, write_csp};
pub use model::{Constraint, Csp, Value, VarId};
pub use relation::Relation;
pub use yannakakis::{
    count_solutions_td, estimate_node_tuples, for_each_solution_td, node_relations, solve_with_ghd,
    solve_with_td, NodeRelations,
};
