//! Quickstart: decompose a hypergraph and inspect the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use htd::core::bucket::ghd_via_elimination;
use htd::core::{CoverStrategy, GhwEvaluator, TwEvaluator};
use htd::heuristics::upper::min_fill;
use htd::hypergraph::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The running example of the thesis (Example 5): six variables,
    // three ternary constraint scopes.
    let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
    println!(
        "hypergraph: {} vertices, {} hyperedges, rank {}",
        h.num_vertices(),
        h.num_edges(),
        h.rank()
    );

    // 1. Pick an elimination ordering with the min-fill heuristic.
    let mut rng = StdRng::seed_from_u64(42);
    let ordering = min_fill(&h.primal_graph(), &mut rng).ordering;
    println!("min-fill ordering: {:?}", ordering.as_slice());

    // 2. Evaluate its two widths.
    let mut tw_eval = TwEvaluator::new(&h.primal_graph());
    println!(
        "tree-decomposition width: {}",
        tw_eval.width(ordering.as_slice())
    );
    let mut ghw_eval = GhwEvaluator::new(&h, CoverStrategy::Exact);
    println!(
        "generalized hypertree width of the ordering: {}",
        ghw_eval.width(ordering.as_slice()).unwrap()
    );

    // 3. Materialize the generalized hypertree decomposition and validate
    //    all three conditions of Definition 13.
    let ghd = ghd_via_elimination(&h, &ordering, CoverStrategy::Exact).unwrap();
    ghd.validate(&h).expect("the construction is always valid");
    println!(
        "GHD width = {} over {} nodes:",
        ghd.width(),
        ghd.tree().num_nodes()
    );
    for p in 0..ghd.tree().num_nodes() {
        let chi: Vec<String> = ghd
            .tree()
            .bag(p)
            .iter()
            .map(|v| format!("x{}", v + 1))
            .collect();
        let lambda: Vec<_> = ghd.lambda(p).iter().map(|&e| h.edge_name(e)).collect();
        println!(
            "  node {p}: chi = {{{}}}, lambda = {{{}}}, parent = {:?}",
            chi.join(","),
            lambda.join(","),
            ghd.tree().parent(p)
        );
    }
}
