//! The per-node kernels of the exact searches, and the greedy ordering
//! evaluation of GA-ghw's fitness, allocate nothing once their scratch
//! buffers are warm.
//!
//! This crate's unit-test binary runs on a counting global allocator. The
//! count is per thread, so tests running in parallel do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use htd_core::{CoverStrategy, GhwEvaluator};
use htd_heuristics::lower::{minor_min_width_alive, MinorScratch};
use htd_hypergraph::{gen, EliminationGraph, Vertex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{Ghw, Measure, Treewidth};
use crate::SearchConfig;

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

/// Runs every per-node kernel of `m` on `eg` and checks that, once
/// warm, none of them allocates.
fn measure_kernels_do_not_allocate<M: Measure>(mut m: M, eg: &EliminationGraph) {
    let mut rng = StdRng::seed_from_u64(1);
    let n = allocations_after_warm_up(|| {
        for v in eg.alive().iter() {
            black_box(m.bag_cost(eg, v));
            for w in eg.alive().iter() {
                if v != w {
                    black_box(M::swappable(eg, v, w));
                }
            }
        }
    });
    assert_eq!(n, 0, "bag costs and swap rule");
    let n = allocations_after_warm_up(|| {
        black_box(m.alive_bound(eg, &mut rng));
        black_box(m.forced(eg, Some(40), &mut rng));
        black_box(m.forced(eg, None, &mut rng));
    });
    assert_eq!(n, 0, "alive bound and reductions");
    let n = allocations_after_warm_up(|| {
        assert!(m.completion(eg).is_some());
    });
    assert_eq!(n, 0, "completion bound");
}

#[test]
fn treewidth_kernels_do_not_allocate() {
    measure_kernels_do_not_allocate(Treewidth::default(), &midsearch_graph());
}

#[test]
fn ghw_kernels_do_not_allocate() {
    let h = gen::grid2d(12);
    let g = h.primal_graph();
    let mut eg = EliminationGraph::new(&g);
    for v in (0..g.num_vertices()).step_by(3) {
        eg.eliminate(v);
    }
    measure_kernels_do_not_allocate(Ghw::new(&h, &SearchConfig::default()), &eg);
}

#[test]
fn warm_greedy_ghw_evaluation_does_not_allocate() {
    let h = gen::grid2d(12);
    let order: Vec<Vertex> = (0..h.num_vertices()).rev().collect();
    let mut ev = GhwEvaluator::new(&h, CoverStrategy::Greedy);
    let n = allocations_after_warm_up(|| {
        assert!(black_box(ev.width(&order)).is_some());
    });
    assert_eq!(n, 0);
}
