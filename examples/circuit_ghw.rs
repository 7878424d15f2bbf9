//! Generalized hypertree width of circuit hypergraphs, four ways:
//! greedy construction, genetic algorithm, self-adaptive island GA, and
//! exact branch and bound.
//!
//! ```sh
//! cargo run --release --example circuit_ghw
//! ```

use htd::core::{CoverStrategy, GhwEvaluator};
use htd::ga::{ga_ghw, saiga_ghw, GaParams, SaigaParams};
use htd::heuristics::{ghw_lower_bound, upper::min_fill};
use htd::hypergraph::gen;
use htd::search::{bb_ghw, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    for (name, h) in [
        ("adder_10", gen::adder(10)),
        ("bridge_8", gen::bridge(8)),
        ("clique_12", gen::clique_hypergraph(12)),
        ("grid2d_6", gen::grid2d(6)),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        println!(
            "\n=== {name}: {} vertices, {} hyperedges ===",
            h.num_vertices(),
            h.num_edges()
        );
        println!(
            "lower bound (tw-ksc + clique cover): {}",
            ghw_lower_bound(&h, &mut rng)
        );

        // greedy: min-fill ordering + exact covers
        let order = min_fill(&h.primal_graph(), &mut rng).ordering;
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        let greedy = ev.width(order.as_slice()).unwrap();
        println!("min-fill ordering width:             {greedy}");

        // genetic algorithm
        let params = GaParams {
            population: 60,
            generations: 120,
            ..GaParams::default()
        };
        let ga = ga_ghw(&h, &params, &mut rng).unwrap();
        println!("GA-ghw upper bound:                  {}", ga.width);

        // self-adaptive island GA
        let sp = SaigaParams {
            islands: 4,
            island_population: 24,
            epoch_generations: 15,
            epochs: 8,
            ..SaigaParams::default()
        };
        let sa = saiga_ghw(&h, &sp).unwrap();
        println!("SAIGA-ghw upper bound:               {}", sa.width);

        // exact branch and bound (budgeted: reports an interval if cut off)
        let out = bb_ghw(&h, &SearchConfig::budgeted(100_000)).unwrap();
        if out.exact {
            println!("BB-ghw exact ghw:                    {}", out.upper);
        } else {
            println!(
                "BB-ghw proven interval:              [{}, {}]",
                out.lower, out.upper
            );
        }
        // every bound above is the width of some ordering, so none may
        // undercut the proven lower bound
        for ub in [greedy, ga.width, sa.width] {
            assert!(out.lower <= ub, "{name}: {ub} < proven {}", out.lower);
        }
    }
}
