//! Ablation C — decomposition-guided CSP solving vs. backtracking.
//!
//! The motivation chapter of the thesis in one table: structured CSPs
//! (chained graph colorings) where the constraint graph has bounded width,
//! solved three ways — chronological backtracking, join-tree clustering
//! from a min-fill tree decomposition, and a complete GHD. Times and the
//! backtracking node count grow with instance size; the decomposition
//! methods stay polynomial. Exits 1 when any row's methods disagree.
//!
//! `cargo run --release -p htd-bench --bin ablation_csp [--full]`

use std::time::Instant;

use htd_bench::{secs, Scale, Table};
use htd_core::bucket::{ghd_via_elimination, td_of_hypergraph};
use htd_core::CoverStrategy;
use htd_csp::{
    backtrack_solve, builders, count_solutions_td, forward_checking_solve, solve_with_ghd,
    solve_with_td,
};
use htd_heuristics::upper::min_fill;
use htd_hypergraph::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let sizes: Vec<u32> = scale.pick(vec![8, 12, 16, 20], vec![10, 20, 40, 60, 80]);

    println!("Ablation C — solving bounded-width CSPs: backtracking vs decompositions");
    println!("(3-coloring of 2×n triangle strips: treewidth ≤ 3 regardless of n)\n");
    let mut t = Table::new(&[
        "n",
        "vars",
        "constraints",
        "bt nodes",
        "fc nodes",
        "bt t[s]",
        "td w",
        "td t[s]",
        "ghw",
        "ghd t[s]",
        "#solutions",
        "agree",
    ]);
    let mut all_agree = true;
    for &n in &sizes {
        // a 2×n grid strengthened with one diagonal per cell: triangle
        // strips, 3-colorable, treewidth ≤ 3 regardless of n
        let mut g = gen::grid_graph(2, n);
        for c in 0..n - 1 {
            g.add_edge(c, n + c + 1);
        }
        let csp = builders::graph_coloring(&g, 3);
        let h = csp.hypergraph();
        let mut rng = StdRng::seed_from_u64(3);
        let order = min_fill(&h.primal_graph(), &mut rng).ordering;

        let start = Instant::now();
        let bt = backtrack_solve(&csp);
        let bt_t = start.elapsed();
        let fc = forward_checking_solve(&csp);

        let start = Instant::now();
        let td = td_of_hypergraph(&h, &order);
        let td_sol = solve_with_td(&csp, &td);
        let td_t = start.elapsed();

        let start = Instant::now();
        let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).expect("coverable");
        let ghd_sol = solve_with_ghd(&csp, &ghd);
        let ghd_t = start.elapsed();

        let count = count_solutions_td(&csp, &td);
        let agree = bt.solution.is_some() == td_sol.is_some()
            && bt.solution.is_some() == ghd_sol.is_some()
            && fc.solution.is_some() == bt.solution.is_some()
            && (count > 0) == bt.solution.is_some();
        all_agree &= agree;
        t.row(vec![
            n.to_string(),
            csp.num_vars().to_string(),
            csp.constraints.len().to_string(),
            bt.nodes.to_string(),
            fc.nodes.to_string(),
            secs(bt_t),
            td.width().to_string(),
            secs(td_t),
            ghd.width().to_string(),
            secs(ghd_t),
            count.to_string(),
            agree.to_string(),
        ]);
    }
    t.print();
    if !all_agree {
        eprintln!("ablation_csp: the solving methods disagree (agree = false above)");
        std::process::exit(1);
    }
}
