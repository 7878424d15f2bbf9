//! Table 9.1 — A*-ghw on circuit-style benchmark hypergraphs.
//!
//! Columns mirror the thesis: initial bounds, the A* result
//! (`exact` when the search completed, otherwise the proven interval) and
//! time.
//!
//! `cargo run --release -p htd-bench --bin table9_1 [--full]`

use htd_bench::{secs, Scale, Table};
use htd_hypergraph::gen::named_hypergraph;
use htd_search::{astar_ghw, SearchConfig};

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec![
            "adder_5",
            "adder_10",
            "adder_15",
            "bridge_5",
            "bridge_10",
            "b06",
        ],
        vec![
            "adder_15",
            "adder_25",
            "adder_75",
            "bridge_10",
            "bridge_25",
            "bridge_50",
            "b06",
            "b08",
            "b09",
            "b10",
            "c499",
        ],
    );
    let budget = scale.pick(50_000u64, 2_000_000);
    let time_limit = scale.pick(
        std::time::Duration::from_secs(10),
        std::time::Duration::from_secs(120),
    );

    println!("Table 9.1 — A*-ghw on circuit-style hypergraphs\n");
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
