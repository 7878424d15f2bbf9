//! Tree decompositions and generalized hypertree decompositions.
//!
//! This crate is the primary contribution of the workspace: the
//! decomposition structures themselves, their validity checkers, and the
//! elimination-ordering machinery that every heuristic and exact algorithm
//! in the workspace searches over.
//!
//! * [`TreeDecomposition`] / [`GeneralizedHypertreeDecomposition`] — the
//!   two decomposition types with full condition validators (thesis
//!   Definitions 11 and 13) and width accessors.
//! * [`bucket`] — bucket elimination and vertex elimination: an
//!   [`ordering::EliminationOrdering`] plus a hypergraph yields a tree
//!   decomposition (Fig. 2.10/2.12), and with a set-cover step a
//!   generalized hypertree decomposition (§2.5.2).
//! * [`ordering`] — fast width evaluation of orderings, the fitness
//!   function of the genetic algorithms and the cost function of the
//!   searches (Fig. 6.2 and 7.1).
//! * [`leaf_normal_form`] — the constructive side of Chapter 3: every tree
//!   decomposition can be normalized so that an elimination ordering read
//!   off deepest-common-ancestor depths reproduces (or beats) its width,
//!   which is why orderings are a complete search space for both `tw` and
//!   `ghw` (Theorems 1–3).
//! * [`join_tree`] — GYO reduction, α-acyclicity and join trees of acyclic
//!   hypergraphs (§2.2.3).

#![warn(missing_docs)]

pub mod bucket;
pub mod dot;
pub mod error;
pub mod fractional;
pub mod ghd;
pub mod join_tree;
pub mod json;
pub mod leaf_normal_form;
pub mod ordering;
pub mod pace;
pub mod tree_decomposition;

pub use error::HtdError;
pub use fractional::FhwEvaluator;
pub use ghd::GeneralizedHypertreeDecomposition;
pub use json::Json;
pub use ordering::{CoverStrategy, EliminationOrdering, GhwEvaluator, TwEvaluator};
pub use tree_decomposition::TreeDecomposition;
