//! Table 7.1 — GA-ghw on the CSP hypergraph library.
//!
//! Tuned GA-tw configuration carried over (POS + ISM, `p_c = 1.0`,
//! `p_m = 0.3`, `s = 3`), greedy covers inside the fitness function;
//! `ref` is the exact/interval result of BB-ghw at this scale.
//!
//! `cargo run --release -p htd-bench --bin table7_1 [--full]`

use htd_bench::{f2, ga_support::ga_ghw_stats, Scale, Table};
use htd_ga::GaParams;
use htd_hypergraph::gen::named_hypergraph;
use htd_search::{bb_ghw, SearchConfig};

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec![
            "adder_15",
            "bridge_10",
            "grid2d_6",
            "grid3d_4",
            "clique_10",
            "b06",
            "clique_20",
        ],
        vec![
            "adder_25",
            "adder_75",
            "bridge_25",
            "bridge_50",
            "grid2d_10",
            "grid2d_20",
            "grid3d_4",
            "grid3d_8",
            "clique_10",
            "clique_20",
            "b06",
            "b08",
            "b09",
            "b10",
            "c499",
        ],
    );
    let (pop, gens, runs) = scale.pick((40, 80, 3), (2000, 2000, 10));
    let search_budget = scale.pick(30_000u64, 500_000);

    println!("Table 7.1 — GA-ghw upper bounds on benchmark hypergraphs\n");
    let mut t = Table::new(&[
        "Hypergraph",
        "V",
        "H",
        "ref",
        "min",
        "max",
        "avg",
        "std.dev",
    ]);
    for name in &names {
        let h = named_hypergraph(name).expect("suite instance");
        let params = GaParams {
            population: pop,
            generations: gens,
            ..GaParams::default()
        };
        let s = ga_ghw_stats(&h, &params, runs);
        let reference = match bb_ghw(&h, &SearchConfig::budgeted(search_budget)) {
            Some(out) if out.exact => out.upper.to_string(),
            Some(out) => format!("[{},{}]", out.lower, out.upper),
            None => "-".to_string(),
        };
        t.row(vec![
            name.to_string(),
            h.num_vertices().to_string(),
            h.num_edges().to_string(),
            reference,
            s.min.to_string(),
            s.max.to_string(),
            f2(s.avg),
            f2(s.std_dev),
        ]);
    }
    t.print();
}
