//! Set cover engines for generalized hypertree decompositions.
//!
//! Turning a tree decomposition into a generalized hypertree decomposition
//! means covering every bag `χ(p)` with as few hyperedges as possible
//! (thesis §2.5.2). This crate provides the three covering tools the
//! workspace uses:
//!
//! * [`greedy::greedy_cover`] — the classical greedy heuristic (Chvátal),
//!   used inside GA fitness evaluation where millions of covers are needed;
//! * [`exact::ExactCover`] — a branch-and-bound exact cover, replacing the
//!   IP solver of the original system (same optima, no external solver);
//! * [`lower_bound`] — k-set-cover lower bounds, the covering half of the
//!   `tw-ksc-width` lower bound for generalized hypertree width (§8.1);
//! * [`fractional`] — fractional covers by a built-in simplex, the basis
//!   of fractional hypertree width (`fhw ≤ ghw ≤ hw`);
//! * [`cache`] — a concurrent memoized bag → cover-size map shared by all
//!   ghw evaluations of a run (portfolio workers, GA fitness, searches).

#![warn(missing_docs)]

pub mod cache;
pub mod exact;
pub mod fractional;
pub mod greedy;
pub mod lower_bound;

pub use cache::CoverCache;
pub use exact::ExactCover;
pub use fractional::fractional_cover;
pub use greedy::greedy_cover;
pub use lower_bound::{cover_lower_bound, ksc_lower_bound};
