//! Tree decompositions of graphs and hypergraphs (thesis Definition 11).

use htd_hypergraph::{Graph, Hypergraph, VertexSet};

/// Identifier of a decomposition node.
pub type NodeId = usize;

/// Why a decomposition failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Hyperedge `edge` is not contained in any bag (condition 1).
    EdgeNotCovered {
        /// The offending hyperedge id.
        edge: u32,
    },
    /// The nodes containing `vertex` do not induce a connected subtree
    /// (condition 2, the connectedness condition).
    Disconnected {
        /// The offending vertex.
        vertex: u32,
    },
    /// For GHDs: `χ(node) ⊄ var(λ(node))` (condition 3).
    BagNotCovered {
        /// The offending decomposition node.
        node: NodeId,
    },
    /// The parent pointers do not describe a single rooted tree.
    NotATree,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::EdgeNotCovered { edge } => {
                write!(f, "hyperedge {edge} is contained in no bag")
            }
            ValidationError::Disconnected { vertex } => {
                write!(f, "bags containing vertex {vertex} are not connected")
            }
            ValidationError::BagNotCovered { node } => {
                write!(f, "χ of node {node} not covered by its λ edges")
            }
            ValidationError::NotATree => write!(f, "parent pointers are not a rooted tree"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A rooted tree decomposition: a tree of *bags* (vertex sets) covering
/// every (hyper)edge, with the bags containing any fixed vertex forming a
/// connected subtree.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    bags: Vec<VertexSet>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    root: NodeId,
}

impl TreeDecomposition {
    /// Builds a decomposition from bags and parent pointers. Exactly one
    /// entry of `parent` must be `None` (the root) and the pointers must
    /// form a tree.
    pub fn new(bags: Vec<VertexSet>, parent: Vec<Option<NodeId>>) -> Result<Self, ValidationError> {
        if bags.is_empty() || bags.len() != parent.len() {
            return Err(ValidationError::NotATree);
        }
        let n = bags.len();
        let mut children = vec![Vec::new(); n];
        let mut root = None;
        for (i, &p) in parent.iter().enumerate() {
            match p {
                None => {
                    if root.replace(i).is_some() {
                        return Err(ValidationError::NotATree);
                    }
                }
                Some(p) => {
                    if p >= n || p == i {
                        return Err(ValidationError::NotATree);
                    }
                    children[p].push(i);
                }
            }
        }
        let root = root.ok_or(ValidationError::NotATree)?;
        // reachability from root proves acyclicity given n-1 edges
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &c in &children[v] {
                if !seen[c] {
                    seen[c] = true;
                    cnt += 1;
                    stack.push(c);
                }
            }
        }
        if cnt != n {
            return Err(ValidationError::NotATree);
        }
        Ok(TreeDecomposition {
            bags,
            parent,
            children,
            root,
        })
    }

    /// A single-node decomposition (every vertex in one bag).
    pub fn trivial(num_vertices: u32) -> Self {
        TreeDecomposition {
            bags: vec![VertexSet::full(num_vertices)],
            parent: vec![None],
            children: vec![Vec::new()],
            root: 0,
        }
    }

    /// Number of decomposition nodes.
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The bag of node `p`.
    pub fn bag(&self, p: NodeId) -> &VertexSet {
        &self.bags[p]
    }

    /// All bags, indexed by node.
    pub fn bags(&self) -> &[VertexSet] {
        &self.bags
    }

    /// Parent of `p` (`None` for the root).
    pub fn parent(&self, p: NodeId) -> Option<NodeId> {
        self.parent[p]
    }

    /// Children of `p`.
    pub fn children(&self, p: NodeId) -> &[NodeId] {
        &self.children[p]
    }

    /// Leaves of the tree (nodes without children). A single-node tree's
    /// root counts as a leaf.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.num_nodes())
            .filter(|&p| self.children[p].is_empty())
            .collect()
    }

    /// The width: `max |bag| − 1`, and 0 when every bag is empty.
    pub fn width(&self) -> u32 {
        let widest = self.bags.iter().map(|b| b.len()).max().unwrap_or(0);
        widest.saturating_sub(1)
    }

    /// Nodes in a top-down order (every node after its parent).
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            order.push(p);
            stack.extend(self.children[p].iter().copied());
        }
        order
    }

    /// Checks the two tree decomposition conditions against a hypergraph:
    /// every hyperedge inside some bag; bags containing each vertex
    /// connected.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), ValidationError> {
        for e in 0..h.num_edges() {
            let scope = h.edge(e);
            if !self.bags.iter().any(|b| scope.is_subset(b)) {
                return Err(ValidationError::EdgeNotCovered { edge: e });
            }
        }
        self.validate_connectedness(h.num_vertices())
    }

    /// Checks the conditions against a simple graph (each edge must lie in
    /// a bag).
    pub fn validate_graph(&self, g: &Graph) -> Result<(), ValidationError> {
        for (u, v) in g.edges() {
            if !self.bags.iter().any(|b| b.contains(u) && b.contains(v)) {
                // reuse EdgeNotCovered with a synthetic id: encode as u
                return Err(ValidationError::EdgeNotCovered { edge: u });
            }
        }
        self.validate_connectedness(g.num_vertices())
    }

    /// Connectedness condition alone: for each vertex, the occupied nodes
    /// form a subtree. In a tree, an induced subgraph on `c` nodes is
    /// connected iff it has `c − 1` internal edges.
    pub fn validate_connectedness(&self, num_vertices: u32) -> Result<(), ValidationError> {
        for v in 0..num_vertices {
            let mut nodes = 0u32;
            let mut edges = 0u32;
            for p in 0..self.num_nodes() {
                if self.bags[p].contains(v) {
                    nodes += 1;
                    if let Some(q) = self.parent[p] {
                        if self.bags[q].contains(v) {
                            edges += 1;
                        }
                    }
                }
            }
            if nodes > 0 && edges != nodes - 1 {
                return Err(ValidationError::Disconnected { vertex: v });
            }
        }
        Ok(())
    }

    /// Removes nodes whose bag is a subset of a neighbor's bag, repeatedly,
    /// producing an equivalent decomposition without redundant nodes.
    /// Width is unchanged; validity is preserved.
    pub fn simplify(&self) -> TreeDecomposition {
        let mut bags = self.bags.clone();
        let mut parent = self.parent.clone();
        let mut children = self.children.clone();
        let mut alive: Vec<bool> = vec![true; bags.len()];
        let mut root = self.root;
        let mut changed = true;
        while changed {
            changed = false;
            for p in 0..bags.len() {
                if !alive[p] {
                    continue;
                }
                // merge p into parent if bag ⊆ parent bag (or vice versa)
                if let Some(q) = parent[p] {
                    if bags[p].is_subset(&bags[q]) || bags[q].is_subset(&bags[p]) {
                        if bags[q].is_subset(&bags[p]) {
                            let bp = bags[p].clone();
                            bags[q] = bp;
                        }
                        // reattach p's children to q
                        let kids = std::mem::take(&mut children[p]);
                        for c in kids {
                            parent[c] = Some(q);
                            children[q].push(c);
                        }
                        children[q].retain(|&c| c != p);
                        alive[p] = false;
                        changed = true;
                    }
                }
            }
        }
        // compact indices
        let mut new_id = vec![usize::MAX; bags.len()];
        let mut out_bags = Vec::new();
        for p in 0..bags.len() {
            if alive[p] {
                new_id[p] = out_bags.len();
                out_bags.push(bags[p].clone());
            }
        }
        if !alive[root] {
            // root merged downward never happens (merge is into parent), so
            // root stays alive; defensive fallback:
            root = (0..bags.len()).find(|&p| alive[p]).unwrap();
        }
        let mut out_parent = vec![None; out_bags.len()];
        for p in 0..bags.len() {
            if alive[p] && p != root {
                let mut q = parent[p].unwrap();
                while !alive[q] {
                    q = parent[q].unwrap();
                }
                out_parent[new_id[p]] = Some(new_id[q]);
            }
        }
        TreeDecomposition::new(out_bags, out_parent).expect("simplify preserves tree shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(cap: u32, items: &[u32]) -> VertexSet {
        VertexSet::from_iter_with_capacity(cap, items.iter().copied())
    }

    /// Thesis Example 5: hyperedges {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5}.
    fn thesis_hypergraph() -> Hypergraph {
        Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]])
    }

    /// The width-2 tree decomposition from Fig. 2.6(b):
    /// root {x1,x3,x5} with children {x1,x2,x3}, {x3,x4,x5}, {x1,x5,x6}.
    fn thesis_td() -> TreeDecomposition {
        TreeDecomposition::new(
            vec![
                vs(6, &[0, 2, 4]),
                vs(6, &[0, 1, 2]),
                vs(6, &[2, 3, 4]),
                vs(6, &[0, 4, 5]),
            ],
            vec![None, Some(0), Some(0), Some(0)],
        )
        .unwrap()
    }

    #[test]
    fn thesis_example_validates_with_width_2() {
        let h = thesis_hypergraph();
        let td = thesis_td();
        assert_eq!(td.width(), 2);
        td.validate(&h).unwrap();
        assert_eq!(td.leaves(), vec![1, 2, 3]);
        assert_eq!(td.root(), 0);
    }

    #[test]
    fn edge_coverage_violation_detected() {
        let h = thesis_hypergraph();
        let td = TreeDecomposition::new(
            vec![vs(6, &[0, 1, 2]), vs(6, &[2, 3, 4])],
            vec![None, Some(0)],
        )
        .unwrap();
        assert_eq!(
            td.validate(&h),
            Err(ValidationError::EdgeNotCovered { edge: 1 })
        );
    }

    #[test]
    fn connectedness_violation_detected() {
        // vertex 0 appears in two bags separated by a bag without it
        let td = TreeDecomposition::new(
            vec![vs(3, &[0, 1]), vs(3, &[1, 2]), vs(3, &[0, 2])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        assert_eq!(
            td.validate_connectedness(3),
            Err(ValidationError::Disconnected { vertex: 0 })
        );
    }

    #[test]
    fn tree_shape_is_enforced() {
        // two roots
        assert!(TreeDecomposition::new(vec![vs(2, &[0]), vs(2, &[1])], vec![None, None]).is_err());
        // cycle
        assert!(
            TreeDecomposition::new(vec![vs(2, &[0]), vs(2, &[1])], vec![Some(1), Some(0)]).is_err()
        );
        // self-parent
        assert!(TreeDecomposition::new(vec![vs(2, &[0])], vec![Some(0)]).is_err());
        // empty
        assert!(TreeDecomposition::new(vec![], vec![]).is_err());
    }

    #[test]
    fn trivial_covers_everything() {
        let h = thesis_hypergraph();
        let td = TreeDecomposition::trivial(6);
        td.validate(&h).unwrap();
        assert_eq!(td.width(), 5);
    }

    #[test]
    fn topological_order_parents_first() {
        let td = thesis_td();
        let order = td.topological_order();
        assert_eq!(order.len(), 4);
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &n) in order.iter().enumerate() {
                p[n] = i;
            }
            p
        };
        for n in 0..4 {
            if let Some(par) = td.parent(n) {
                assert!(pos[par] < pos[n]);
            }
        }
    }

    #[test]
    fn simplify_merges_subset_bags() {
        // chain where the middle bag is a subset of the root bag
        let td = TreeDecomposition::new(
            vec![vs(4, &[0, 1, 2]), vs(4, &[0, 1]), vs(4, &[1, 3])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        let s = td.simplify();
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.width(), td.width());
        s.validate_connectedness(4).unwrap();
    }

    #[test]
    fn simplify_preserves_validity() {
        let h = thesis_hypergraph();
        let td = thesis_td();
        let s = td.simplify();
        s.validate(&h).unwrap();
        assert_eq!(s.width(), 2);
    }

    #[test]
    fn validate_graph_detects_missing_edge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let td = TreeDecomposition::new(vec![vs(3, &[0, 1]), vs(3, &[1, 2])], vec![None, Some(0)])
            .unwrap();
        assert!(td.validate_graph(&g).is_err());
        let full = TreeDecomposition::trivial(3);
        full.validate_graph(&g).unwrap();
    }
}
