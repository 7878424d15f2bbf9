//! The corpus the mixed and the pipelined load tests warm and replay.

use htd_hypergraph::{gen, io};
use htd_search::Objective;

/// Nine instances, each solved exactly in milliseconds: three grids and
/// three random graphs for tw, two grids and an adder for ghw.
pub fn corpus() -> Vec<(Objective, String)> {
    let mut c = Vec::new();
    for k in 3..=5 {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(k, k)),
        ));
    }
    for n in [14u32, 16, 18] {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(n, 0.4, u64::from(n))),
        ));
    }
    for k in 2..=3 {
        c.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    c.push((
        Objective::GeneralizedHypertreeWidth,
        io::write_hg(&gen::adder(3)),
    ));
    c
}
