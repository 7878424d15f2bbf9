//! α-acyclicity, GYO reduction and join trees (thesis §2.2.3).
//!
//! A CSP whose constraint hypergraph has a join tree is *acyclic* and
//! solvable in polynomial time by semijoin passes (Algorithm Acyclic
//! Solving). The GYO (Graham–Yu–Özsoyoğlu) reduction recognizes acyclicity
//! and yields the join tree: repeatedly delete vertices occurring in a
//! single edge and edges contained in other edges; the containment steps
//! are recorded as tree edges.

use htd_hypergraph::{Hypergraph, VertexSet};

use crate::tree_decomposition::TreeDecomposition;

/// The result of a GYO reduction.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// A tree decomposition with one node per hyperedge; node `e`'s bag is
    /// the **original** scope of hyperedge `e`.
    pub tree: TreeDecomposition,
}

/// `true` iff `h` is α-acyclic: it has a join tree, or no edges (GYO
/// reduces it to nothing).
pub fn is_acyclic(h: &Hypergraph) -> bool {
    h.num_edges() == 0 || join_tree(h).is_some()
}

/// Computes a join tree of `h`, or `None` if `h` is cyclic or has no
/// edges (a tree needs a node).
///
/// The join tree is a tree over the hyperedges (one node per edge, bag =
/// scope) satisfying the connectedness condition; equivalently, a width-1
/// generalized hypertree decomposition skeleton.
pub fn join_tree(h: &Hypergraph) -> Option<JoinTree> {
    let m = h.num_edges() as usize;
    if m == 0 {
        return None;
    }
    let n = h.num_vertices();
    // reduced scopes
    let mut scopes: Vec<VertexSet> = h.edges().to_vec();
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent: Vec<Option<usize>> = vec![None; m];
    // occurrence counts per vertex
    let mut occ = vec![0u32; n as usize];
    for s in &scopes {
        for v in s.iter() {
            occ[v as usize] += 1;
        }
    }
    let mut remaining = m;
    loop {
        let mut changed = false;
        // rule 1: drop vertices occurring in exactly one alive edge
        for e in 0..m {
            if !alive[e] {
                continue;
            }
            let lonely: Vec<u32> = scopes[e].iter().filter(|&v| occ[v as usize] == 1).collect();
            for v in lonely {
                scopes[e].remove(v);
                occ[v as usize] = 0;
                changed = true;
            }
        }
        // rule 2: remove an edge whose reduced scope is contained in
        // another alive edge's reduced scope; record the containment as the
        // tree parent
        'outer: for e in 0..m {
            if !alive[e] {
                continue;
            }
            for f in 0..m {
                if e == f || !alive[f] {
                    continue;
                }
                if scopes[e].is_subset(&scopes[f]) {
                    // tie-break: when scopes are equal, only remove the
                    // higher index into the lower to avoid mutual removal
                    if scopes[f].is_subset(&scopes[e]) && e < f {
                        continue;
                    }
                    alive[e] = false;
                    parent[e] = Some(f);
                    for v in scopes[e].iter() {
                        occ[v as usize] -= 1;
                    }
                    remaining -= 1;
                    changed = true;
                    break 'outer;
                }
            }
        }
        if remaining == 1 {
            break;
        }
        if !changed {
            return None; // stuck: cyclic
        }
    }
    // exactly one alive edge remains: the root. Its reduced scope may be
    // non-empty; that is fine.
    // Build the tree over original scopes. Parent pointers already form a
    // forest rooted at the survivor; they form a single tree because every
    // removed edge got a parent.
    let bags: Vec<VertexSet> = h.edges().to_vec();
    let tree = TreeDecomposition::new(bags, parent).ok()?;
    Some(JoinTree { tree })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_of_edges_is_acyclic() {
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let jt = join_tree(&h).expect("acyclic");
        jt.tree.validate(&h).unwrap();
        assert!(is_acyclic(&h));
    }

    #[test]
    fn edgeless_hypergraphs_are_acyclic_without_a_join_tree() {
        for n in [0, 3] {
            let h = Hypergraph::new(n, vec![]);
            assert!(is_acyclic(&h));
            assert!(join_tree(&h).is_none());
        }
    }

    #[test]
    fn triangle_of_binary_edges_is_cyclic() {
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert!(!is_acyclic(&h));
    }

    #[test]
    fn triangle_plus_covering_edge_is_acyclic() {
        // adding the 3-ary edge {0,1,2} makes it acyclic
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]]);
        let jt = join_tree(&h).expect("acyclic");
        jt.tree.validate(&h).unwrap();
    }

    #[test]
    fn thesis_fig_2_3_hypergraph() {
        // Fig 2.3(a)-style: edges sharing vertices in a tree pattern
        let h = Hypergraph::new(
            7,
            vec![vec![0, 1, 2], vec![2, 3], vec![2, 4, 5], vec![5, 6]],
        );
        let jt = join_tree(&h).expect("acyclic");
        jt.tree.validate(&h).unwrap();
        // every node's bag is the original scope
        for e in 0..4 {
            assert_eq!(jt.tree.bag(e).to_vec(), h.edge(e as u32).to_vec());
        }
    }

    #[test]
    fn duplicate_edges_are_acyclic() {
        let h = Hypergraph::new(2, vec![vec![0, 1], vec![0, 1], vec![0, 1]]);
        let jt = join_tree(&h).expect("acyclic");
        jt.tree.validate(&h).unwrap();
    }

    #[test]
    fn generated_acyclic_instances_recognized() {
        for seed in 0..20 {
            let h = htd_hypergraph::gen::random_acyclic(12, 3, seed);
            assert!(is_acyclic(&h), "seed {seed} should be acyclic");
            let jt = join_tree(&h).unwrap();
            jt.tree.validate(&h).unwrap();
        }
    }

    #[test]
    fn cycle_hypergraphs_rejected() {
        for n in [4u32, 5, 6, 8] {
            let edges = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
            let h = Hypergraph::new(n, edges);
            assert!(!is_acyclic(&h), "C{n} wrongly acyclic");
        }
    }

    #[test]
    fn empty_hypergraph_has_no_join_tree() {
        let h = Hypergraph::new(3, vec![]);
        assert!(join_tree(&h).is_none());
    }

    #[test]
    fn single_edge_is_acyclic() {
        let h = Hypergraph::new(3, vec![vec![0, 1, 2]]);
        let jt = join_tree(&h).unwrap();
        assert_eq!(jt.tree.num_nodes(), 1);
    }
}
