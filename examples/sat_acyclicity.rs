//! SAT as a CSP: acyclicity recognition and decomposition-guided solving.
//!
//! Builds the thesis's Example 2 formula and a chain of implications,
//! tests α-acyclicity with the GYO reduction, and solves via the join
//! tree when acyclic and via a GHD otherwise.
//!
//! ```sh
//! cargo run --example sat_acyclicity
//! ```

use htd::core::bucket::ghd_via_elimination;
use htd::core::join_tree::{is_acyclic, join_tree};
use htd::core::ordering::EliminationOrdering;
use htd::core::CoverStrategy;
use htd::csp::builders::sat_to_csp;
use htd::csp::{solve_with_ghd, solve_with_td};

fn main() {
    // thesis Example 2: (¬x1 ∨ x2 ∨ x3) ∧ (x1 ∨ ¬x4) ∧ (¬x3 ∨ ¬x5)
    let example2 = sat_to_csp(5, &[vec![-1, 2, 3], vec![1, -4], vec![-3, -5]]);
    let h2 = example2.hypergraph();
    println!("Example 2 hypergraph acyclic: {}", is_acyclic(&h2));

    if let Some(jt) = join_tree(&h2) {
        // the join tree is a tree decomposition with one node per clause
        let a = solve_with_td(&example2, &jt.tree).expect("satisfiable");
        assert!(example2.is_solution(&a));
        let pretty: Vec<String> = a
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("x{}={}", i + 1, if v == 1 { "t" } else { "f" }))
            .collect();
        println!("acyclic solving found: {}", pretty.join(", "));
    }

    // a cyclic formula: clause triangle (x1∨x2)(x2∨x3)(x3∨x1)
    let cyclic = sat_to_csp(3, &[vec![1, 2], vec![2, 3], vec![3, 1]]);
    let hc = cyclic.hypergraph();
    println!("\nclause-triangle hypergraph acyclic: {}", is_acyclic(&hc));
    let order = EliminationOrdering::identity(hc.num_vertices());
    let ghd = ghd_via_elimination(&hc, &order, CoverStrategy::Exact).unwrap();
    println!("ghw of the clause triangle: {}", ghd.width());
    let a = solve_with_ghd(&cyclic, &ghd).expect("satisfiable");
    println!("GHD solving found: {a:?}");
    assert!(cyclic.is_solution(&a));
}
