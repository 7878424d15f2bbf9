//! The join-tree evaluator and the relational algebra allocate per
//! operation, not per tuple: on a path CSP, building the node relations
//! and counting through them, and one join, semijoin and projection,
//! allocate as often at 10 000 tuples per constraint as at 100, apart
//! from the growth of an output buffer whose size no operation knows in
//! advance (a join's).
//!
//! A growing buffer doubles, so 100 times the tuples costs it at most
//! ⌈log2(100)⌉ = 7 more reallocations; [`GROWTH`] allows one more.
//!
//! This test binary runs on a counting global allocator. The count is per
//! thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use htd_core::bucket::td_of_hypergraph;
use htd_core::ordering::EliminationOrdering;
use htd_csp::yannakakis::place;
use htd_csp::{Constraint, Csp, NodeRelations, Relation};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Reallocations one growing buffer may add between 100 and 10 000
/// tuples per constraint.
const GROWTH: u64 = 8;

/// Runs `f` once to warm lazily initialized state, then again, and
/// returns how many allocations the second run made on this thread.
fn allocations(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The path `x0 - x1 - ... - x5` over the domain `0..t`: constraint `i`
/// allows `t` pairs `(j, (7j + i) mod t)`, so every join along the path
/// keeps `t` tuples.
fn path(t: u32) -> Csp {
    let mut csp = Csp::uniform(6, t);
    for i in 0..5 {
        let tuples = (0..t).map(|j| vec![j, (7 * j + i) % t]).collect();
        csp.add_constraint(Constraint::new(format!("c{i}"), vec![i, i + 1], tuples));
    }
    csp
}

/// Allocations of each measured operation on the path over `0..t`.
fn measure(t: u32) -> [u64; 4] {
    let csp = path(t);
    let td = td_of_hypergraph(&csp.hypergraph(), &EliminationOrdering::identity(6));
    let placed = place(&csp, &td);
    let a = Relation::new(vec![0, 1], &csp.constraints[0].tuples);
    let b = Relation::new(vec![1, 2], &csp.constraints[1].tuples);
    let ab = a.join(&b);
    assert_eq!(ab.len(), t as usize);
    [
        allocations(|| {
            let rels = NodeRelations::build(&csp, &td, &placed);
            assert_eq!(black_box(rels.count()), Some(u64::from(t)));
        }),
        allocations(|| {
            black_box(a.join(&b));
        }),
        allocations(|| {
            black_box(a.semijoin(&b));
        }),
        allocations(|| {
            black_box(ab.project(&[2, 0]));
        }),
    ]
}

#[test]
fn the_counter_sees_allocations() {
    let n = allocations(|| {
        black_box(Vec::<u64>::with_capacity(4));
    });
    assert_eq!(n, 1);
}

#[test]
fn evaluation_allocates_per_operation_not_per_tuple() {
    let small = measure(100);
    let large = measure(10_000);
    // growing buffers per operation: only the join's output
    let growing = [0, 1, 0, 0];
    for (i, what) in ["build + count", "join", "semijoin", "project"]
        .iter()
        .enumerate()
    {
        assert!(
            large[i] <= small[i] + growing[i] * GROWTH,
            "{what}: {} allocations at 10 000 tuples, {} at 100",
            large[i],
            small[i]
        );
    }
}
