//! The per-node kernels of the exact searches allocate nothing once their
//! scratch buffers are warm.
//!
//! This crate's unit-test binary runs on a counting global allocator. The
//! count is per thread, so tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_heuristics::reduce::find_reducible;
use htd_hypergraph::{gen, EliminationGraph, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ghw_common::GhwContext;
use crate::pruning::swappable;

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

/// Runs `f` once to warm its buffers, then again, and returns how many
/// allocations the second run made on this thread.
fn allocations_after_warm_up(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A graph whose rows span three words, part-way through an elimination.
fn midsearch_graph() -> EliminationGraph {
    let g = gen::random_gnp(130, 0.2, 7);
    let mut eg = EliminationGraph::new(&g);
    for v in (0..130).step_by(5) {
        eg.eliminate(v);
    }
    eg
}

#[test]
fn the_counter_sees_allocations() {
    let n = allocations_after_warm_up(|| {
        black_box(Vec::<u64>::with_capacity(4));
    });
    assert_eq!(n, 1);
}

#[test]
fn eliminate_and_undo_do_not_allocate() {
    let mut eg = midsearch_graph();
    let order: Vec<Vertex> = eg.alive().iter().take(40).collect();
    let n = allocations_after_warm_up(|| {
        let mark = eg.log_len();
        for &v in &order {
            eg.eliminate(v);
        }
        eg.undo_to(mark);
    });
    assert_eq!(n, 0);
}

#[test]
fn minor_min_width_bound_does_not_allocate() {
    let eg = midsearch_graph();
    let (mut scratch, mut rng) = (MinorScratch::default(), StdRng::seed_from_u64(1));
    let n = allocations_after_warm_up(|| {
        black_box(minor_min_width_alive(&eg, &mut scratch, &mut rng));
    });
    assert_eq!(n, 0);
}

#[test]
fn swappable_and_find_reducible_do_not_allocate() {
    let eg = midsearch_graph();
    let n = allocations_after_warm_up(|| {
        for v in eg.alive().iter() {
            for w in eg.alive().iter() {
                if v != w {
                    black_box(swappable(&eg, v, w));
                }
            }
        }
    });
    assert_eq!(n, 0);
    let n = allocations_after_warm_up(|| {
        black_box(find_reducible(&eg, 40));
    });
    assert_eq!(n, 0);
}

#[test]
fn ghw_reductions_and_greedy_cover_do_not_allocate() {
    let h = gen::grid2d(12);
    let g = h.primal_graph();
    let mut eg = EliminationGraph::new(&g);
    for v in (0..g.num_vertices()).step_by(3) {
        eg.eliminate(v);
    }
    let mut ctx = GhwContext::new(&h);
    let n = allocations_after_warm_up(|| {
        black_box(ctx.find_ghw_reducible(&eg));
    });
    assert_eq!(n, 0);
    let alive = eg.alive().clone();
    let n = allocations_after_warm_up(|| {
        assert!(ctx.cover_greedy(&alive).is_some());
    });
    assert_eq!(n, 0);
}
