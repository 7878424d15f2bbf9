//! Pins the search effort of the exact engines on fixed instances.
//!
//! A change to the inner kernels (elimination, lower bounds, swap tests,
//! det-k's separator enumeration) must not change *what* the searches do:
//! a seeded sequential run expands the same nodes and tries the same
//! separators. These counts are that contract. If one moves, the search
//! itself changed, not just its speed.
//!
//! det-k's pin (12056 separators tried and 12057 subproblems for
//! `bridge_10` at k = 2) lives with det-k's unit tests
//! (`detk::tests::bridge10_k2_effort_is_pinned`), which read the counts
//! from the run's own result.

use htd_hypergraph::gen;
use htd_search::{astar_ghw, astar_tw, bb_ghw, bb_tw, SearchConfig};

#[test]
fn bb_tw_queen5_effort() {
    let g = gen::named_graph("queen5_5").expect("suite graph");
    let out = bb_tw(&g, &SearchConfig::default());
    assert!(out.exact);
    assert_eq!(out.upper, 18);
    assert_eq!(out.stats.expanded, 2459);
}

#[test]
fn astar_tw_grid6_effort() {
    let g = gen::named_graph("grid6").expect("suite graph");
    let out = astar_tw(&g, &SearchConfig::default());
    assert!(out.exact);
    assert_eq!(out.upper, 6);
    assert_eq!(out.stats.expanded, 16441);
}

#[test]
fn bb_ghw_grid2d6_effort() {
    let h = gen::named_hypergraph("grid2d_6").expect("suite hypergraph");
    let out = bb_ghw(&h, &SearchConfig::default()).expect("coverable");
    assert!(out.exact);
    assert_eq!(out.upper, 3);
    assert_eq!(out.stats.expanded, 3795);
}

#[test]
fn astar_ghw_grid2d8_effort() {
    let h = gen::named_hypergraph("grid2d_8").expect("suite hypergraph");
    let out = astar_ghw(&h, &SearchConfig::default()).expect("coverable");
    assert!(out.exact);
    assert_eq!(out.upper, 3);
    assert_eq!(out.stats.expanded, 2487);
}
