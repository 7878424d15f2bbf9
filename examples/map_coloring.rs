//! Solve the Australia map-coloring CSP (thesis Example 1) three ways:
//! backtracking, join-tree clustering from a tree decomposition, and a
//! complete generalized hypertree decomposition.
//!
//! ```sh
//! cargo run --example map_coloring
//! ```

use htd::core::bucket::{ghd_via_elimination, td_of_hypergraph};
use htd::core::CoverStrategy;
use htd::csp::builders::australia_map_coloring;
use htd::csp::{backtrack_solve, solve_with_ghd, solve_with_td};
use htd::heuristics::upper::min_fill;
use rand::rngs::StdRng;
use rand::SeedableRng;

const COLORS: [&str; 3] = ["red", "green", "blue"];

fn main() {
    // TAS is unconstrained; pad it with a domain constraint so the
    // constraint hypergraph covers every variable.
    let csp = australia_map_coloring().pad_unconstrained();
    let h = csp.hypergraph();
    println!(
        "Australia: {} regions, {} constraints",
        csp.num_vars(),
        csp.constraints.len()
    );

    let mut rng = StdRng::seed_from_u64(1);
    let ordering = min_fill(&h.primal_graph(), &mut rng).ordering;
    let td = td_of_hypergraph(&h, &ordering);
    let ghd = ghd_via_elimination(&h, &ordering, CoverStrategy::Exact).unwrap();
    println!("tree decomposition width: {}", td.width());
    println!("generalized hypertree width: {}", ghd.width());

    let bt = backtrack_solve(&csp);
    let via_td = solve_with_td(&csp, &td).expect("3-colorable");
    let via_ghd = solve_with_ghd(&csp, &ghd).expect("3-colorable");
    println!(
        "backtracking explored {} nodes; all three methods agree: {}",
        bt.nodes,
        bt.solution.is_some()
    );

    println!("\ncoloring from the GHD:");
    for (v, &color) in via_ghd.iter().enumerate() {
        println!("  {:4} = {}", csp.variables[v], COLORS[color as usize]);
    }
    assert!(bt.solution.is_some());
    assert!(csp.is_solution(&via_td));
    assert!(csp.is_solution(&via_ghd));
}
