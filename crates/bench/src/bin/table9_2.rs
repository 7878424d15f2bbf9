//! Table 9.2 — A*-ghw on grid and clique benchmark hypergraphs.
//!
//! Columns mirror the thesis: initial bounds, the A* result
//! (`exact` when the search completed, otherwise the proven interval) and
//! time.
//!
//! `cargo run --release -p htd-bench --bin table9_2 [--full]`

use htd_bench::{secs, Scale, Table};
use htd_hypergraph::gen::named_hypergraph;
use htd_search::{astar_ghw, SearchConfig};

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec![
            "grid2d_4",
            "grid2d_6",
            "grid3d_3",
            "clique_6",
            "clique_8",
            "clique_10",
        ],
        vec![
            "grid2d_6",
            "grid2d_8",
            "grid2d_10",
            "grid3d_4",
            "clique_10",
            "clique_15",
            "clique_20",
        ],
    );
    let budget = scale.pick(50_000u64, 2_000_000);
    let time_limit = scale.pick(
        std::time::Duration::from_secs(10),
        std::time::Duration::from_secs(120),
    );

    println!("Table 9.2 — A*-ghw on grid and clique hypergraphs\n");
    run_table(&names, budget, time_limit);
}

fn run_table(names: &[&str], budget: u64, time_limit: std::time::Duration) {
    let mut t = Table::new(&[
        "Hypergraph",
        "V",
        "H",
        "lb",
        "ub",
        "A*-ghw",
        "exact",
        "time[s]",
    ]);
    for name in names {
        let h = named_hypergraph(name).expect("suite instance");
        let cfg = SearchConfig::budgeted(budget).with_time_limit(time_limit);
        let out = astar_ghw(&h, &cfg).expect("coverable");
        t.row(vec![
            name.to_string(),
            h.num_vertices().to_string(),
            h.num_edges().to_string(),
            out.lower.to_string(),
            out.upper.to_string(),
            if out.exact {
                out.upper.to_string()
            } else {
                format!("[{},{}]", out.lower, out.upper)
            },
            if out.exact { "yes" } else { "*" }.to_string(),
            secs(out.stats.elapsed),
        ]);
    }
    t.print();
}
