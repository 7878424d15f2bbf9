//! Counting CSP solutions through a tree decomposition: n-queens and
//! graph colorings counted without materializing the joint relation.
//!
//! ```sh
//! cargo run --release --example solution_counting
//! ```

use htd::core::bucket::td_of_hypergraph;
use htd::csp::builders;
use htd::csp::{backtrack_solve, count_solutions_td, forward_checking_solve};
use htd::heuristics::upper::min_fill;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("n-queens solution counts via tree-decomposition DP:");
    // the classical sequence
    for (n, expected) in (4..=8u32).zip([2, 10, 4, 40, 92]) {
        let csp = builders::n_queens(n);
        let h = csp.hypergraph();
        let mut rng = StdRng::seed_from_u64(1);
        let order = min_fill(&h.primal_graph(), &mut rng).ordering;
        let td = td_of_hypergraph(&h, &order);
        let count = count_solutions_td(&csp, &td);
        println!(
            "  {n}-queens: {count:>4} solutions (bag width {})",
            td.width()
        );
        assert_eq!(count, expected);
    }

    println!("\n3-colorings of cycles (should be 2^n + 2·(−1)^n):");
    for n in [4u32, 5, 6, 7] {
        let g = htd::hypergraph::gen::cycle_graph(n);
        let csp = builders::graph_coloring(&g, 3);
        let h = csp.hypergraph();
        let td = td_of_hypergraph(&h, &htd::core::ordering::EliminationOrdering::identity(n));
        let count = count_solutions_td(&csp, &td);
        let expected =
            2u64.pow(n) + if n % 2 == 0 { 2 } else { 0 } - if n % 2 == 1 { 2 } else { 0 };
        println!("  C{n}: {count} (chromatic polynomial says {expected})");
        assert_eq!(count, expected);
    }

    println!("\nsearch effort on 7-queens (satisfiability only):");
    let csp = builders::n_queens(7);
    let bt = backtrack_solve(&csp);
    let fc = forward_checking_solve(&csp);
    println!("  backtracking:     {} nodes", bt.nodes);
    println!("  forward checking: {} nodes", fc.nodes);
}
