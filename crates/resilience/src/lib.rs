//! Fault isolation and resource governance for the htd workspace.
//!
//! The thesis's engines are only useful when they fail *predictably*: a
//! panicking portfolio worker must not take the process (or its siblings)
//! down, an A* open list must not grow until the OS kills the server, and
//! a flaky engine must be benched rather than re-crashed on every request.
//! This crate collects the small, dependency-free primitives the rest of
//! the workspace threads through search and service:
//!
//! * [`quarantine`] — run a closure under `catch_unwind` and turn a panic
//!   into a recorded message instead of an abort;
//! * [`MemoryBudget`] — shared byte accounting with a hard ceiling, the
//!   governor behind `SearchConfig::memory_budget`;
//! * [`CircuitBreaker`] — per-engine closed → open → half-open benching
//!   with timed probe re-admission;
//! * [`FaultInjector`] — deterministic, seeded injection of panics,
//!   delays and allocation failures for chaos testing;
//! * [`backoff_with_jitter`] — the retry schedule `htd query` uses to
//!   honor `retry_after_ms`.
//!
//! Everything here is `std`-only so the crate can sit below every other
//! workspace member without cycles.

pub mod backoff;
pub mod breaker;
pub mod fault;
pub mod memory;
pub mod quarantine;

pub use backoff::backoff_with_jitter;
pub use breaker::{BreakerState, CircuitBreaker};
pub use fault::{splitmix64, Fault, FaultInjector, FaultPlan, InjectedFaults};
pub use memory::MemoryBudget;
pub use quarantine::{describe_panic, quarantined};
