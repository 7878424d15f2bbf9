//! Pins the search effort of the exact engines on fixed instances.
//!
//! A change to the inner kernels (elimination, lower bounds, swap tests,
//! det-k's separator enumeration) must not change *what* the searches do:
//! a seeded sequential run expands the same nodes and tries the same
//! separators. These counts are that contract. If one moves, the search
//! itself changed, not just its speed.
//!
//! Det-k is only run by [`det_k_bridge10_k2_effort`]: its counts are read
//! as deltas of process-global counters, which stay its own only while no
//! other test in this binary runs det-k.

use htd_hypergraph::gen;
use htd_search::astar_ghw::astar_ghw;
use htd_search::astar_tw::astar_tw;
use htd_search::bb_tw::bb_tw;
use htd_search::{det_k_decomp, SearchConfig};

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
fn astar_ghw_grid2d8_effort() {
    let h = gen::named_hypergraph("grid2d_8").expect("suite hypergraph");
    let out = astar_ghw(&h, &SearchConfig::default()).expect("coverable");
    assert!(out.exact);
    assert_eq!(out.upper, 3);
    assert_eq!(out.stats.expanded, 2487);
}

#[test]
fn det_k_bridge10_k2_effort() {
    let h = gen::named_hypergraph("bridge_10").expect("suite hypergraph");
    let reg = htd_trace::registry();
    let read = |name: &str| reg.counter(name).get();
    let seps = read("htd_detk_separators_tried_total");
    let subs = read("htd_detk_subproblems_total");
    assert!(det_k_decomp(&h, 2).is_none(), "hw(bridge_10) = 3");
    assert_eq!(read("htd_detk_separators_tried_total") - seps, 12056);
    assert_eq!(read("htd_detk_subproblems_total") - subs, 12057);
}
