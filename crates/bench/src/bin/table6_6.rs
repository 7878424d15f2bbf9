//! Table 6.6 — final GA-tw results across the DIMACS-style suite.
//!
//! Tuned configuration (POS + ISM, `p_c = 1.0`, `p_m = 0.3`, `s = 3`),
//! several seeds per instance; columns mirror the thesis (`ref` is the
//! exact treewidth where the exact searches settle it at this scale,
//! standing in for the thesis's best-known `ub` column).
//!
//! `cargo run --release -p htd-bench --bin table6_6 [--full]`

use htd_bench::{f2, ga_support::ga_tw_stats, Scale, Table};
use htd_ga::GaParams;
use htd_hypergraph::gen::named_graph;
use htd_search::{astar_tw, SearchConfig};

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec![
            "queen5_5", "queen6_6", "myciel3", "myciel4", "grid5", "anna", "david", "huck", "jean",
        ],
        vec![
            "queen5_5",
            "queen6_6",
            "queen7_7",
            "queen8_8",
            "myciel3",
            "myciel4",
            "myciel5",
            "myciel6",
            "grid5",
            "grid6",
            "anna",
            "david",
            "huck",
            "jean",
            "games120",
            "homer",
            "DSJC125.1",
            "miles250",
            "miles500",
        ],
    );
    let (pop, gens, runs) = scale.pick((60, 150, 4), (2000, 2000, 10));
    let search_budget = scale.pick(150_000, 2_000_000);

    println!("Table 6.6 — final GA-tw results (POS+ISM, pc=1.0, pm=0.3, s=3)\n");
    let mut t = Table::new(&["Graph", "V", "E", "ref", "min", "max", "avg", "std.dev"]);
    for name in &names {
        let g = named_graph(name).expect("suite instance");
        let params = GaParams {
            population: pop,
            generations: gens,
            ..GaParams::default()
        };
        let s = ga_tw_stats(&g, &params, runs);
        // exact reference where the search can settle it quickly
        let reference = {
            let out = astar_tw(&g, &SearchConfig::budgeted(search_budget));
            if out.exact {
                out.upper.to_string()
            } else {
                format!("[{},{}]", out.lower, out.upper)
            }
        };
        t.row(vec![
            name.to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            reference,
            s.min.to_string(),
            s.max.to_string(),
            f2(s.avg),
            f2(s.std_dev),
        ]);
    }
    t.print();
}
