//! Ablation A — what each pruning rule buys the exact searches.
//!
//! Runs A* and BB, under both the treewidth and the ghw measure, on a small
//! exact-solvable suite under every combination of {PR2, reductions,
//! duplicate detection}, reporting nodes expanded. The two searches and
//! all eight combinations must agree on the width (the soundness property
//! the tests enforce), else the run panics; the interesting column is the
//! work.
//!
//! `cargo run --release -p htd-bench --bin ablation_pruning [--full]`

use htd_bench::{Scale, Table};
use htd_hypergraph::gen::{named_graph, named_hypergraph};
use htd_hypergraph::{Graph, Hypergraph};
use htd_search::{astar_ghw, astar_tw, bb_ghw, bb_tw, SearchConfig, SearchOutcome};

enum Instance {
    Tw(Graph),
    Ghw(Hypergraph),
}

impl Instance {
    fn measure(&self) -> &'static str {
        match self {
            Instance::Tw(_) => "tw",
            Instance::Ghw(_) => "ghw",
        }
    }

    /// A*'s and BB's outcomes under `cfg`.
    fn run(&self, cfg: &SearchConfig) -> (SearchOutcome, SearchOutcome) {
        match self {
            Instance::Tw(g) => (astar_tw(g, cfg), bb_tw(g, cfg)),
            Instance::Ghw(h) => (
                astar_ghw(h, cfg).expect("coverable"),
                bb_ghw(h, cfg).expect("coverable"),
            ),
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let graphs: Vec<&str> = scale.pick(
        vec!["queen4_4", "myciel3", "grid4", "cycle12"],
        vec!["queen5_5", "myciel4", "grid5", "grid6"],
    );
    let hypergraphs: Vec<&str> = scale.pick(
        vec!["clique_6", "adder_3", "grid2d_4", "grid2d_5"],
        vec!["clique_8", "adder_6", "grid2d_5", "grid2d_6"],
    );
    let instances = graphs
        .iter()
        .map(|&n| (n, Instance::Tw(named_graph(n).expect("suite graph"))))
        .chain(hypergraphs.iter().map(|&n| {
            let h = named_hypergraph(n).expect("suite hypergraph");
            (n, Instance::Ghw(h))
        }));

    println!("Ablation A — pruning-rule contributions (nodes expanded)\n");
    let mut t = Table::new(&[
        "Instance", "measure", "pr2", "red", "dup", "width", "A* nodes", "A* queue", "BB nodes",
    ]);
    for (name, inst) in instances {
        let mut width = None;
        for pr2 in [false, true] {
            for red in [false, true] {
                for dup in [false, true] {
                    let mut cfg = SearchConfig::budgeted(10_000_000);
                    cfg.use_pr2 = pr2;
                    cfg.use_reductions = red;
                    cfg.use_duplicate_detection = dup;
                    let (a, b) = inst.run(&cfg);
                    assert!(a.exact && b.exact, "{name}: budget too small");
                    assert_eq!(a.upper, b.upper, "{name}: solver mismatch");
                    let first = *width.get_or_insert(a.upper);
                    assert_eq!(a.upper, first, "{name}: toggles change the width");
                    t.row(vec![
                        name.to_string(),
                        inst.measure().to_string(),
                        on_off(pr2),
                        on_off(red),
                        on_off(dup),
                        a.upper.to_string(),
                        a.stats.expanded.to_string(),
                        a.stats.max_queue.to_string(),
                        b.stats.expanded.to_string(),
                    ]);
                }
            }
        }
    }
    t.print();
}

fn on_off(b: bool) -> String {
    if b { "on" } else { "off" }.to_string()
}
