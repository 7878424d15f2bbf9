//! Exact treewidth with A* and branch and bound, plus anytime behaviour
//! under a node budget.
//!
//! ```sh
//! cargo run --release --example treewidth_exact
//! ```

use htd::hypergraph::gen;
use htd::search::{astar_tw, bb_tw, SearchConfig};

fn main() {
    println!("exact treewidth (A* vs branch and bound):\n");
    for (name, g) in [
        ("queen5_5", gen::queen_graph(5)),
        ("myciel4", gen::myciel(4)),
        ("grid5", gen::grid_graph(5, 5)),
        ("4-tree(18)", gen::random_ktree(18, 4, 1)),
    ] {
        let cfg = SearchConfig::default();
        let a = astar_tw(&g, &cfg);
        let b = bb_tw(&g, &cfg);
        assert_eq!(a.upper, b.upper);
        println!(
            "{name:12} tw = {:2}   A*: {:>8} nodes {:>8.2?}   BB: {:>8} nodes {:>8.2?}",
            a.upper, a.stats.expanded, a.stats.elapsed, b.stats.expanded, b.stats.elapsed
        );
    }

    println!("\nanytime bounds on queen7_7 under growing budgets:");
    let g = gen::queen_graph(7);
    for budget in [100u64, 1_000, 10_000, 100_000] {
        let out = astar_tw(&g, &SearchConfig::budgeted(budget));
        println!(
            "  budget {budget:>7}: treewidth ∈ [{}, {}]{}",
            out.lower,
            out.upper,
            if out.exact { "  (exact)" } else { "" }
        );
    }
}
