//! Extension — the width hierarchy `ghw ≤ hw ≤ tw + 1` measured.
//!
//! For each instance: a fractional hypertree width upper bound (LP covers
//! along a min-fill ordering), generalized hypertree width (BB-ghw),
//! hypertree width (det-k-decomp, the canonical literature algorithm) and
//! treewidth (A*-tw) side by side — `fhw ≤ ghw ≤ hw`. The interesting column is where `hw` exceeds
//! `ghw` and where both crush `tw` (large scopes).
//!
//! `cargo run --release -p htd-bench --bin extension_hw [--full]`

use htd_bench::{secs, Scale, Table};
use htd_core::FhwEvaluator;
use htd_heuristics::upper::min_fill;
use htd_hypergraph::gen::named_hypergraph;
use htd_search::{astar_tw, bb_ghw, hypertree_width, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    let names: Vec<&str> = scale.pick(
        vec![
            "adder_5", "adder_10", "bridge_5", "clique_6", "clique_8", "grid2d_4", "grid3d_3",
        ],
        vec![
            "adder_15",
            "adder_25",
            "bridge_10",
            "clique_10",
            "clique_12",
            "grid2d_6",
            "grid2d_8",
            "grid3d_4",
            "b06",
        ],
    );
    let budget = scale.pick(50_000u64, 1_000_000);

    println!("Extension — ghw vs hw vs tw on benchmark hypergraphs\n");
    let mut t = Table::new(&[
        "Hypergraph",
        "V",
        "H",
        "fhw≤",
        "ghw",
        "hw",
        "tw",
        "hw time[s]",
    ]);
    for name in &names {
        let h = named_hypergraph(name).expect("suite instance");
        let cfg =
            SearchConfig::budgeted(budget).with_time_limit(std::time::Duration::from_secs(20));
        let ghw = bb_ghw(&h, &cfg).expect("coverable");
        let ghw_s = if ghw.exact {
            ghw.upper.to_string()
        } else {
            format!("[{},{}]", ghw.lower, ghw.upper)
        };
        let start = std::time::Instant::now();
        let (hw, hd) = hypertree_width(&h, ghw.lower).expect("coverable");
        let hw_t = start.elapsed();
        hd.validate_hypertree(&h)
            .expect("det-k output is a valid HD");
        // fhw upper bound along a min-fill ordering
        let mut rng = StdRng::seed_from_u64(3);
        let order = min_fill(&h.primal_graph(), &mut rng).ordering;
        let fhw = FhwEvaluator::new(&h)
            .width(order.as_slice())
            .map_or("-".to_string(), |f| format!("{f:.2}"));
        let tw = astar_tw(&h.primal_graph(), &cfg);
        let tw_s = if tw.exact {
            tw.upper.to_string()
        } else {
            format!("[{},{}]", tw.lower, tw.upper)
        };
        if ghw.exact {
            assert!(ghw.upper <= hw, "hierarchy violated on {name}");
        }
        t.row(vec![
            name.to_string(),
            h.num_vertices().to_string(),
            h.num_edges().to_string(),
            fhw,
            ghw_s,
            hw.to_string(),
            tw_s,
            secs(hw_t),
        ]);
    }
    t.print();
}
