//! Interchange-format round trips: generate instances, write and re-read
//! every supported format, decompose, and export the result.
//!
//! ```sh
//! cargo run --example file_io
//! ```

use htd::core::bucket::vertex_elimination;
use htd::core::ordering::EliminationOrdering;
use htd::core::pace;
use htd::csp::{builders, parse_csp, write_csp};
use htd::hypergraph::{gen, io};

fn main() {
    // DIMACS .col
    let g = gen::myciel(4);
    let col = io::write_dimacs(&g);
    println!("--- myciel4 as DIMACS (.col), first lines ---");
    for l in col.lines().take(4) {
        println!("{l}");
    }
    assert_eq!(io::parse_dimacs(&col).unwrap().num_edges(), g.num_edges());

    // PACE .gr and .td
    let gr = io::write_pace_gr(&g);
    let g2 = io::parse_pace_gr(&gr).unwrap();
    let td = vertex_elimination(&g2, &EliminationOrdering::identity(g2.num_vertices())).simplify();
    let td_text = pace::write_td(&td, g2.num_vertices());
    println!("\n--- its tree decomposition (PACE .td), first lines ---");
    for l in td_text.lines().take(4) {
        println!("{l}");
    }
    let td2 = pace::parse_td(&td_text).unwrap();
    td2.validate_graph(&g).unwrap();
    println!("(round-trip width: {})", td2.width());

    // HyperBench atom list (.hg)
    let h = gen::adder(2);
    let hg = io::write_hg(&h);
    println!("\n--- adder_2 as a HyperBench atom list (.hg), first lines ---");
    for l in hg.lines().take(4) {
        println!("{l}");
    }
    assert_eq!(io::parse_hg(&hg).unwrap().num_edges(), h.num_edges());

    // CSP text format
    let csp = builders::n_queens(4);
    let text = write_csp(&csp);
    println!("\n--- 4-queens as CSP text, first lines ---");
    for l in text.lines().take(3) {
        println!("{l}");
    }
    let back = parse_csp(&text).unwrap();
    assert_eq!(back.constraints.len(), csp.constraints.len());
    println!(
        "(round-trip: {} constraints preserved)",
        back.constraints.len()
    );
}
