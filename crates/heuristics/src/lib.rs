//! Upper- and lower-bound heuristics and search-space reductions for
//! treewidth and generalized hypertree width.
//!
//! * [`upper`] — greedy ordering heuristics (min-fill, min-degree, MCS)
//!   that seed every search with an initial incumbent (thesis §4.4.2).
//! * [`lower`] — minor-based treewidth lower bounds: minor-min-width
//!   (Fig. 4.7), minor-γR (Fig. 4.8) and degeneracy.
//! * [`reduce`] — simplicial / strongly-almost-simplicial preprocessing
//!   that eliminates vertices without changing the treewidth (§4.4.3).
//! * [`ghw_lower`] — the `tw-ksc-width` lower bound for generalized
//!   hypertree width, combining a treewidth lower bound with k-set-cover
//!   lower bounds (Fig. 8.1), plus a clique-cover bound.
//! * [`local_search`] — iterated local search that polishes any ordering
//!   before it seeds a branch and bound.

#![warn(missing_docs)]

pub mod ghw_lower;
pub mod local_search;
pub mod lower;
pub mod reduce;
pub mod upper;

pub use ghw_lower::ghw_lower_bound;
pub use local_search::{improve_ordering, improve_ordering_until, IlsParams};
pub use lower::{
    combined_lower_bound, degeneracy, minor_gamma_r, minor_min_width, minor_min_width_alive,
    MinorScratch,
};
pub use upper::{max_cardinality_search, min_degree, min_fill};
