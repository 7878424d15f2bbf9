//! Graphviz (DOT) rendering of decompositions — a tooling convenience for
//! inspecting results (`dot -Tpng`).

use std::fmt::Write as _;

use htd_hypergraph::Hypergraph;

use crate::ghd::GeneralizedHypertreeDecomposition;
use crate::tree_decomposition::TreeDecomposition;

/// Renders a tree decomposition as a DOT digraph; node labels list the bag
/// contents using `name(v)`.
pub fn tree_decomposition_to_dot(td: &TreeDecomposition, name: impl Fn(u32) -> String) -> String {
    let mut out = String::from("digraph td {\n  node [shape=box];\n");
    for p in 0..td.num_nodes() {
        let bag: Vec<String> = td.bag(p).iter().map(&name).collect();
        let _ = writeln!(out, "  n{p} [label=\"{{{}}}\"];", bag.join(","));
    }
    for p in 0..td.num_nodes() {
        if let Some(q) = td.parent(p) {
            let _ = writeln!(out, "  n{q} -> n{p};");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a GHD as a DOT digraph with `χ` and `λ` per node.
pub fn ghd_to_dot(ghd: &GeneralizedHypertreeDecomposition, h: &Hypergraph) -> String {
    let td = ghd.tree();
    let mut out = String::from("digraph ghd {\n  node [shape=record];\n");
    for p in 0..td.num_nodes() {
        let chi: Vec<_> = td.bag(p).iter().map(|v| h.vertex_name(v)).collect();
        let lambda: Vec<_> = ghd.lambda(p).iter().map(|&e| h.edge_name(e)).collect();
        let _ = writeln!(
            out,
            "  n{p} [label=\"{{χ: {}|λ: {}}}\"];",
            chi.join(","),
            lambda.join(",")
        );
    }
    for p in 0..td.num_nodes() {
        if let Some(q) = td.parent(p) {
            let _ = writeln!(out, "  n{q} -> n{p};");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::ghd_via_elimination;
    use crate::ordering::{CoverStrategy, EliminationOrdering};

    #[test]
    fn td_dot_contains_all_nodes_and_edges() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let td = crate::bucket::td_of_hypergraph(&h, &EliminationOrdering::identity(4));
        let dot = tree_decomposition_to_dot(&td, |v| format!("x{v}"));
        assert!(dot.starts_with("digraph td {"));
        for p in 0..td.num_nodes() {
            assert!(dot.contains(&format!("n{p} [")));
        }
        // a tree with n nodes has n-1 edges
        assert_eq!(dot.matches("->").count(), td.num_nodes() - 1);
    }

    #[test]
    fn ghd_dot_lists_chi_and_lambda() {
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let order = EliminationOrdering::new_unchecked(vec![5, 4, 3, 2, 1, 0]);
        let ghd = ghd_via_elimination(&h, &order, CoverStrategy::Exact).unwrap();
        let dot = ghd_to_dot(&ghd, &h);
        assert!(dot.contains("χ:"));
        assert!(dot.contains("λ:"));
        assert!(dot.contains("e0") || dot.contains("e1") || dot.contains("e2"));
    }
}
