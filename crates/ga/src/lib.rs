//! Genetic algorithms for treewidth and generalized hypertree width upper
//! bounds (thesis chapters 6 and 7).
//!
//! * [`crossover`] / [`mutation`] — the six permutation crossover operators
//!   (PMX, CX, OX1, OX2, POS, AP; Fig. 4.5) and six mutation operators
//!   (DM, EM, ISM, SIM, IVM, SM; Fig. 4.6) from Larrañaga et al. \[36\].
//! * [`engine`] — the generational GA with tournament selection (Fig. 4.4
//!   / 6.1), generic over the fitness function.
//! * [`ga_tw`](mod@ga_tw) — GA-tw: fitness = width of the elimination ordering
//!   (Fig. 6.2).
//! * [`ga_ghw`](mod@ga_ghw) — GA-ghw: fitness = greedy-cover width of the ordering
//!   (Fig. 7.1–7.2).
//! * [`saiga`] — SAIGA-ghw: the self-adaptive island GA (§7.2) whose
//!   islands evolve their own control parameters by neighbor orientation,
//!   running one island per thread.
//! * [`sa`] — simulated annealing on the same search space, the only
//!   method that matched the template GA in its original comparison
//!   (§4.5).

#![warn(missing_docs)]

pub mod crossover;
pub mod engine;
pub mod ga_ghw;
pub mod ga_tw;
pub mod mutation;
pub mod sa;
pub mod saiga;

pub use crossover::CrossoverOp;
pub use engine::{GaParams, GaResult};
pub use ga_ghw::{ga_ghw, ga_ghw_cached};
pub use ga_tw::ga_tw;
pub use mutation::MutationOp;
pub use sa::{sa_ghw, sa_tw, SaParams};
pub use saiga::{saiga_ghw, SaigaParams};
