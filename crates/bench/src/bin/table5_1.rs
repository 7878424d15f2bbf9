//! Table 5.1 — A*-tw on DIMACS graph-coloring instances.
//!
//! Columns mirror the thesis: instance, size, initial lower/upper bounds,
//! the A* result (bold in the thesis = exact; here marked `*` when the
//! budget ran out and the value is only a lower bound) and time.
//!
//! `cargo run --release -p htd-bench --bin table5_1 [--full]`

use htd_bench::{secs, Scale, Table};
use htd_heuristics::{combined_lower_bound, upper::min_fill};
use htd_hypergraph::gen::named_graph;
use htd_search::{astar_tw, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = match scale {
        Scale::Quick => vec![
            "queen5_5", "queen6_6", "myciel3", "myciel4", "myciel5", "anna", "david", "huck",
            "jean", "games120", "miles250",
        ],
        Scale::Full => vec![
            "queen5_5",
            "queen6_6",
            "queen7_7",
            "myciel3",
            "myciel4",
            "myciel5",
            "anna",
            "david",
            "huck",
            "jean",
            "games120",
            "miles250",
            "miles500",
            "DSJC125.1",
            "DSJC125.5",
            "DSJC125.9",
        ],
    };
    let budget = scale.pick(60_000, 5_000_000);
    let time_limit = scale.pick(
        std::time::Duration::from_secs(10),
        std::time::Duration::from_secs(120),
    );

    println!("Table 5.1 — A*-tw on DIMACS-style graph coloring instances");
    println!("(substituted instances are seeded random graphs with the published sizes; see DESIGN.md)\n");
    let mut t = Table::new(&["Graph", "V", "E", "lb", "ub", "A*-tw", "exact", "time[s]"]);
    for name in names {
        let g = named_graph(name).expect("suite instance");
        let mut rng = StdRng::seed_from_u64(1);
        let lb = combined_lower_bound(&g, &mut rng);
        let ub = min_fill(&g, &mut rng).width;
        let cfg = SearchConfig::budgeted(budget).with_time_limit(time_limit);
        let out = astar_tw(&g, &cfg);
        t.row(vec![
            name.to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            lb.to_string(),
            ub.to_string(),
            if out.exact {
                out.upper.to_string()
            } else {
                format!("≥{}", out.lower)
            },
            if out.exact { "yes" } else { "*" }.to_string(),
            secs(out.stats.elapsed),
        ]);
    }
    t.print();
}
