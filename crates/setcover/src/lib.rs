//! Set cover engines for generalized hypertree decompositions.
//!
//! Turning a tree decomposition into a generalized hypertree decomposition
//! means covering every bag `χ(p)` with as few hyperedges as possible
//! (thesis §2.5.2). This crate provides the covering tools the workspace
//! uses:
//!
//! * [`bag::BagCover`] — the one bag cover: it collects the edges touching
//!   a bag and covers the bag greedily, exactly or fractionally under a
//!   [`CoverStrategy`]. The ordering evaluators (GA fitness, where
//!   millions of covers are needed), the GHD construction and the exact
//!   searches' bag measure all call it;
//! * [`greedy::greedy_cover`] — the classical greedy heuristic (Chvátal)
//!   over a whole edge list, the incumbent of the exact cover and the
//!   cover of balanced-separator layers;
//! * [`exact::ExactCover`] — a branch-and-bound exact cover, replacing the
//!   IP solver of the original system (same optima, no external solver);
//! * [`lower_bound`] — k-set-cover lower bounds, the covering half of the
//!   `tw-ksc-width` lower bound for generalized hypertree width (§8.1);
//! * [`fractional`] — fractional covers by a built-in simplex, the basis
//!   of fractional hypertree width (`fhw ≤ ghw ≤ hw`);
//! * [`cache`] — a concurrent memoized bag → cover-size map shared by all
//!   ghw evaluations of a run (portfolio workers, GA fitness, searches).

#![warn(missing_docs)]

pub mod bag;
pub mod cache;
pub mod exact;
pub mod fractional;
pub mod greedy;
pub mod lower_bound;

pub use bag::{BagCover, CoverStrategy};
pub use cache::CoverCache;
pub use exact::ExactCover;
pub use fractional::fractional_cover;
pub use greedy::greedy_cover;
pub use lower_bound::{cover_lower_bound, ksc_lower_bound};
