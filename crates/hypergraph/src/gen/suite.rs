//! Named benchmark suite.
//!
//! Maps the instance names that appear in the reproduced tables to
//! generated graphs/hypergraphs. Exact families reproduce the published
//! instance precisely; file-only families (DIMACS `DSJC`, `le450`, `miles`,
//! book graphs, ISCAS circuits) map to seeded random substitutes from the
//! same structural regime (see DESIGN.md).

use super::{graphs, hypergraphs};
use crate::canonical::fnv1a;
use crate::graph::Graph;
use crate::hypergraph::Hypergraph;

/// Fixed base seed for all substituted instances, so the whole suite is
/// reproducible bit-for-bit.
const SUITE_SEED: u64 = 0x5EED_2006;

fn seed_of(name: &str) -> u64 {
    fnv1a(name.as_bytes()) ^ SUITE_SEED
}

/// Returns the named benchmark graph, or `None` for unknown names.
///
/// Supported names: `queen{n}_{n}`, `myciel{k}`, `grid{n}` (the n×n grid),
/// `K{n}`, `path{n}`, `cycle{n}`, `ktree_{n}_{k}`, and the substituted
/// DIMACS families `DSJC125.1/.5/.9`, `le450_5a`, `le450_15a`, `le450_25a`,
/// `le450_25d`, `miles250`-`miles1500`, `anna`, `david`, `huck`, `jean`,
/// `homer`, `games120`, `school1`.
pub fn named_graph(name: &str) -> Option<Graph> {
    // parametric exact families first
    if let Some(rest) = name.strip_prefix("queen") {
        let parts: Vec<&str> = rest.split('_').collect();
        if parts.len() == 2 {
            if let (Ok(a), Ok(b)) = (parts[0].parse::<u32>(), parts[1].parse::<u32>()) {
                if a == b && a >= 1 {
                    return Some(graphs::queen_graph(a));
                }
            }
        }
        return None;
    }
    if let Some(k) = name
        .strip_prefix("myciel")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 2).then(|| graphs::myciel(k));
    }
    if let Some(n) = name
        .strip_prefix("grid")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (n >= 1).then(|| graphs::grid_graph(n, n));
    }
    if let Some(n) = name.strip_prefix('K').and_then(|s| s.parse::<u32>().ok()) {
        return Some(graphs::complete_graph(n));
    }
    if let Some(n) = name
        .strip_prefix("path")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (n >= 1).then(|| graphs::path_graph(n));
    }
    if let Some(n) = name
        .strip_prefix("cycle")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (n >= 3).then(|| graphs::cycle_graph(n));
    }
    if let Some(rest) = name.strip_prefix("ktree_") {
        let parts: Vec<&str> = rest.split('_').collect();
        if parts.len() == 2 {
            if let (Ok(n), Ok(k)) = (parts[0].parse::<u32>(), parts[1].parse::<u32>()) {
                if n > k {
                    return Some(graphs::random_ktree(n, k, seed_of(name)));
                }
            }
        }
        return None;
    }

    // substituted DIMACS families with the published (V, E) counts
    let s = seed_of(name);
    Some(match name {
        "DSJC125.1" => graphs::random_gnm(125, 736, s),
        "DSJC125.5" => graphs::random_gnm(125, 3891, s),
        "DSJC125.9" => graphs::random_gnm(125, 6961, s),
        "DSJC250.1" => graphs::random_gnm(250, 3218, s),
        "DSJC250.5" => graphs::random_gnm(250, 15668, s),
        "le450_5a" => graphs::random_k_colorable(450, 5, 5714, s),
        "le450_15a" => graphs::random_k_colorable(450, 15, 8168, s),
        "le450_25a" => graphs::random_k_colorable(450, 25, 8260, s),
        "le450_25d" => graphs::random_k_colorable(450, 25, 17425, s),
        // book co-occurrence and register-allocation graphs: substituted by
        // seeded partial k-trees at the instance's published treewidth —
        // like the originals they are sparse, near-chordal and collapse
        // under the simplicial reductions, so the "solved instantly"
        // behaviour of Table 5.1 is preserved along with the absolute width
        "miles250" => graphs::random_partial_ktree(128, 9, 0.9, s),
        "miles500" => graphs::random_partial_ktree(128, 22, 0.9, s),
        "miles750" => graphs::random_partial_ktree(128, 35, 0.9, s),
        "miles1000" => graphs::random_partial_ktree(128, 49, 0.9, s),
        "miles1500" => graphs::random_partial_ktree(128, 77, 0.95, s),
        "anna" => graphs::random_partial_ktree(138, 12, 0.85, s),
        "david" => graphs::random_partial_ktree(87, 13, 0.85, s),
        "huck" => graphs::random_partial_ktree(74, 10, 0.85, s),
        "jean" => graphs::random_partial_ktree(80, 9, 0.85, s),
        "homer" => graphs::random_partial_ktree(561, 31, 0.8, s),
        "fpsol2.i.1" => graphs::random_partial_ktree(496, 66, 0.9, s),
        "mulsol.i.1" => graphs::random_partial_ktree(197, 50, 0.9, s),
        "zeroin.i.1" => graphs::random_partial_ktree(211, 50, 0.9, s),
        // density-regime substitutes (the originals are unsolved in the
        // thesis too, so hardness is the point)
        "games120" => graphs::random_gnm(120, 638, s),
        "school1" => graphs::random_gnm(385, 9548, s),
        _ => return None,
    })
}

/// Returns the named benchmark hypergraph, or `None` for unknown names.
///
/// Supported names: `adder_{k}`, `bridge_{k}`, `grid2d_{k}`, `grid3d_{k}`,
/// `clique_{k}` (exact constructions) and the substituted ISCAS circuits
/// `b06`, `b08`, `b09`, `b10`, `c499`, `c880` with the published (V, H)
/// counts.
pub fn named_hypergraph(name: &str) -> Option<Hypergraph> {
    if let Some(k) = name
        .strip_prefix("adder_")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 1).then(|| hypergraphs::adder(k));
    }
    if let Some(k) = name
        .strip_prefix("bridge_")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 1).then(|| hypergraphs::bridge(k));
    }
    if let Some(k) = name
        .strip_prefix("grid2d_")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 2).then(|| hypergraphs::grid2d(k));
    }
    if let Some(k) = name
        .strip_prefix("grid3d_")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 2).then(|| hypergraphs::grid3d(k));
    }
    if let Some(k) = name
        .strip_prefix("clique_")
        .and_then(|s| s.parse::<u32>().ok())
    {
        return (k >= 2).then(|| hypergraphs::clique_hypergraph(k));
    }
    let s = seed_of(name);
    // (inputs, gates, extra_taps) chosen so V = inputs+gates and
    // H = gates+extra match the published instance sizes.
    Some(match name {
        "b06" => hypergraphs::random_circuit(4, 44, 6, 3, 12, s), // 48 V, 50 H
        "b08" => hypergraphs::random_circuit(10, 160, 19, 3, 20, s), // 170 V, 179 H
        "b09" => hypergraphs::random_circuit(5, 163, 6, 3, 20, s), // 168 V, 169 H
        "b10" => hypergraphs::random_circuit(12, 177, 23, 3, 20, s), // 189 V, 200 H
        "c499" => hypergraphs::random_circuit(41, 161, 82, 3, 24, s), // 202 V, 243 H
        "c880" => hypergraphs::random_circuit(60, 323, 120, 3, 28, s), // 383 V, 443 H
        _ => return None,
    })
}

/// The graph suite of Table 5.1 / 6.6 at laptop scale: every exact family
/// plus one representative of each substituted family.
pub fn graph_suite() -> Vec<(&'static str, Graph)> {
    [
        "queen5_5",
        "queen6_6",
        "queen7_7",
        "myciel3",
        "myciel4",
        "myciel5",
        "grid4",
        "grid5",
        "grid6",
        "games120",
        "anna",
        "david",
        "huck",
        "jean",
        "DSJC125.1",
        "miles250",
    ]
    .into_iter()
    .map(|n| (n, named_graph(n).expect("suite name")))
    .collect()
}

/// The hypergraph suite of Tables 7.1–9.2 at laptop scale.
pub fn hypergraph_suite() -> Vec<(&'static str, Hypergraph)> {
    [
        "adder_15",
        "adder_25",
        "bridge_10",
        "bridge_25",
        "grid2d_8",
        "grid2d_10",
        "grid3d_4",
        "clique_10",
        "clique_20",
        "b06",
        "b08",
        "b09",
        "b10",
        "c499",
    ]
    .into_iter()
    .map(|n| (n, named_hypergraph(n).expect("suite name")))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_graph_exact_families() {
        assert_eq!(named_graph("queen6_6").unwrap().num_vertices(), 36);
        assert_eq!(named_graph("myciel4").unwrap().num_edges(), 71);
        assert_eq!(named_graph("grid5").unwrap().num_vertices(), 25);
        assert_eq!(named_graph("K7").unwrap().num_edges(), 21);
        assert!(named_graph("queen5_6").is_none());
        assert!(named_graph("nonsense").is_none());
    }

    #[test]
    fn named_graph_substitutes_have_published_sizes() {
        let g = named_graph("DSJC125.5").unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (125, 3891));
        let g = named_graph("le450_25d").unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (450, 17425));
    }

    #[test]
    fn book_graph_substitutes_have_published_treewidth_bound() {
        // partial k-trees: vertex counts exact, treewidth ≤ published value
        for (name, v, tw) in [
            ("anna", 138, 12),
            ("david", 87, 13),
            ("huck", 74, 10),
            ("jean", 80, 9),
        ] {
            let g = named_graph(name).unwrap();
            assert_eq!(g.num_vertices(), v, "{name}");
            // a k-tree elimination order exists, so min-degree-ish greedy
            // must reach ≤ k quickly; verify via degeneracy ≤ tw
            let eg = crate::elim::EliminationGraph::new(&g);
            let _ = eg;
            let mut deg_bound = 0;
            let mut gg = crate::elim::EliminationGraph::new(&g);
            while gg.num_alive() > 0 {
                let v = gg.alive().iter().min_by_key(|&x| gg.degree(x)).unwrap();
                deg_bound = deg_bound.max(gg.degree(v));
                gg.delete_vertex(v);
            }
            assert!(deg_bound <= tw, "{name}: degeneracy {deg_bound} > {tw}");
        }
    }

    #[test]
    fn named_hypergraph_families() {
        let h = named_hypergraph("adder_75").unwrap();
        assert_eq!((h.num_vertices(), h.num_edges()), (376, 526));
        let h = named_hypergraph("b06").unwrap();
        assert_eq!((h.num_vertices(), h.num_edges()), (48, 50));
        let h = named_hypergraph("c880").unwrap();
        assert_eq!((h.num_vertices(), h.num_edges()), (383, 443));
        assert!(named_hypergraph("z99").is_none());
    }

    #[test]
    fn circuits_keep_their_published_counts_and_cover_every_vertex() {
        for (name, v, e) in [
            ("b06", 48, 50),
            ("b08", 170, 179),
            ("b09", 168, 169),
            ("b10", 189, 200),
            ("c499", 202, 243),
            ("c880", 383, 443),
        ] {
            let h = named_hypergraph(name).unwrap();
            assert_eq!((h.num_vertices(), h.num_edges()), (v, e), "{name}");
            assert!(h.covers_all_vertices(), "{name}");
            let back = crate::io::parse_hg(&crate::io::write_hg(&h)).unwrap();
            assert_eq!(back.num_vertices(), v, "{name}");
        }
    }

    #[test]
    fn suites_generate() {
        assert!(graph_suite().len() >= 10);
        assert!(hypergraph_suite().len() >= 10);
    }

    #[test]
    fn suite_is_deterministic() {
        let a = named_graph("DSJC125.1").unwrap();
        let b = named_graph("DSJC125.1").unwrap();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
