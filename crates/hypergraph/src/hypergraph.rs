//! Hypergraphs and their primal graphs.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::bitset::VertexSet;
use crate::graph::Graph;
use crate::{EdgeId, Vertex};

/// A hypergraph `H = (V, H)` on vertices `0..n` with hyperedges stored as
/// bitsets.
///
/// The structure keeps vertex and edge name tables (instances come with
/// textual labels) and a vertex→incident-edges index, which the generalized
/// hypertree algorithms consult constantly when covering bags with edges.
///
/// ```
/// use htd_hypergraph::Hypergraph;
/// let h = Hypergraph::new(4, vec![vec![0, 1, 2], vec![2, 3]]);
/// assert_eq!(h.rank(), 3);
/// // vertices 0 and 2 share a hyperedge, so the primal graph links them
/// assert!(h.primal_graph().has_edge(0, 2));
/// assert!(!h.primal_graph().has_edge(0, 3));
/// ```
#[derive(Clone, Debug)]
pub struct Hypergraph {
    num_vertices: u32,
    edges: Vec<VertexSet>,
    /// For each vertex, the ids of edges containing it.
    incident: Vec<Vec<EdgeId>>,
    /// Vertex labels; `None` means the default names `v0, v1, …`, which
    /// are formatted only when asked for.
    vertex_names: Option<Vec<String>>,
    /// Edge labels; `None` means the default names `e0, e1, …`.
    edge_names: Option<Vec<String>>,
}

impl Hypergraph {
    /// Creates a hypergraph from explicit edge vertex-lists.
    ///
    /// Empty hyperedges are permitted but pointless; duplicate vertices
    /// inside an edge collapse.
    pub fn new(num_vertices: u32, edge_lists: Vec<Vec<Vertex>>) -> Self {
        let edges = edge_lists
            .iter()
            .map(|l| VertexSet::from_iter_with_capacity(num_vertices, l.iter().copied()))
            .collect();
        Hypergraph::from_edge_sets(num_vertices, edges)
    }

    /// Creates an unnamed hypergraph from its edge scopes.
    fn from_edge_sets(num_vertices: u32, edges: Vec<VertexSet>) -> Self {
        let mut incident = vec![Vec::new(); num_vertices as usize];
        for (i, e) in edges.iter().enumerate() {
            for v in e.iter() {
                incident[v as usize].push(i as EdgeId);
            }
        }
        Hypergraph {
            num_vertices,
            edges,
            incident,
            vertex_names: None,
            edge_names: None,
        }
    }

    /// Builds a hypergraph from named scopes, interning vertex names in
    /// order of first appearance.
    pub fn from_named_edges(edges: &[(String, Vec<String>)]) -> Self {
        let mut names: Vec<String> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut lists = Vec::with_capacity(edges.len());
        for (_, scope) in edges {
            let mut l = Vec::with_capacity(scope.len());
            for v in scope {
                let id = *index.entry(v.clone()).or_insert_with(|| {
                    names.push(v.clone());
                    (names.len() - 1) as u32
                });
                l.push(id);
            }
            lists.push(l);
        }
        let mut h = Hypergraph::new(names.len() as u32, lists);
        h.vertex_names = Some(names);
        h.edge_names = Some(edges.iter().map(|(n, _)| n.clone()).collect());
        h
    }

    /// Views a simple graph as the hypergraph whose hyperedges are its edges.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let edges = g
            .edges()
            .map(|(u, v)| VertexSet::from_iter_with_capacity(n, [u, v]))
            .collect();
        Hypergraph::from_edge_sets(n, edges)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of hyperedges.
    #[inline]
    pub fn num_edges(&self) -> u32 {
        self.edges.len() as u32
    }

    /// The scope of edge `e` as a bitset.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &VertexSet {
        &self.edges[e as usize]
    }

    /// All edge scopes.
    #[inline]
    pub fn edges(&self) -> &[VertexSet] {
        &self.edges
    }

    /// Ids of the edges containing vertex `v`.
    #[inline]
    pub fn incident_edges(&self, v: Vertex) -> &[EdgeId] {
        &self.incident[v as usize]
    }

    /// The rank (maximum edge cardinality); 0 for edgeless hypergraphs.
    pub fn rank(&self) -> u32 {
        self.edges.iter().map(|e| e.len()).max().unwrap_or(0)
    }

    /// Name of vertex `v`.
    pub fn vertex_name(&self, v: Vertex) -> Cow<'_, str> {
        assert!(v < self.num_vertices, "vertex {v} out of range");
        match &self.vertex_names {
            Some(names) => Cow::Borrowed(&names[v as usize]),
            None => Cow::Owned(format!("v{v}")),
        }
    }

    /// Name of edge `e`.
    pub fn edge_name(&self, e: EdgeId) -> Cow<'_, str> {
        assert!(e < self.num_edges(), "edge {e} out of range");
        match &self.edge_names {
            Some(names) => Cow::Borrowed(&names[e as usize]),
            None => Cow::Owned(format!("e{e}")),
        }
    }

    /// Replaces the vertex name table (length must match).
    pub fn set_vertex_names(&mut self, names: Vec<String>) {
        assert_eq!(names.len() as u32, self.num_vertices);
        self.vertex_names = Some(names);
    }

    /// Replaces the edge name table (length must match).
    pub fn set_edge_names(&mut self, names: Vec<String>) {
        assert_eq!(names.len(), self.edges.len());
        self.edge_names = Some(names);
    }

    /// The primal (Gaifman) graph `G*(H)`: same vertices, an edge between
    /// two vertices iff they share a hyperedge (Definition 3 of the thesis).
    pub fn primal_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_vertices);
        for e in &self.edges {
            let vs = e.to_vec();
            for (i, &u) in vs.iter().enumerate() {
                for &v in &vs[i + 1..] {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// `true` iff every vertex appears in at least one hyperedge.
    pub fn covers_all_vertices(&self) -> bool {
        self.incident.iter().all(|l| !l.is_empty())
    }

    /// Connected components of the whole vertex set. Two vertices are
    /// connected iff they share a hyperedge (equivalently: iff they are
    /// connected in the primal graph); isolated vertices form singleton
    /// components.
    pub fn connected_components(&self) -> Vec<VertexSet> {
        self.connected_components_within(&VertexSet::full(self.num_vertices))
    }

    /// Connected components of the sub-hypergraph induced by `within`:
    /// hyperedges are restricted to `within`, and two vertices of `within`
    /// are connected iff a chain of restricted edges joins them.
    ///
    /// This is the splitting step of balanced-separator decomposition:
    /// with `within = V \ S` for a separator `S`, the returned components
    /// are exactly the `[S]`-components the recursion descends into.
    /// Runs in `O(Σ|e| + n)`: every edge is expanded at most once.
    pub fn connected_components_within(&self, within: &VertexSet) -> Vec<VertexSet> {
        let n = self.num_vertices;
        let mut seen = VertexSet::new(n);
        let mut comps = Vec::new();
        let mut edge_done = vec![false; self.edges.len()];
        let mut stack: Vec<Vertex> = Vec::new();
        for s in within.iter() {
            if seen.contains(s) {
                continue;
            }
            let mut comp = VertexSet::new(n);
            seen.insert(s);
            comp.insert(s);
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &e in self.incident_edges(v) {
                    if std::mem::replace(&mut edge_done[e as usize], true) {
                        continue;
                    }
                    // all of the edge's vertices inside `within` land in
                    // this component: they pairwise share this edge
                    for w in self.edges[e as usize].intersection(within).iter() {
                        if seen.insert(w) {
                            comp.insert(w);
                            stack.push(w);
                        }
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the thesis (Example 5): hyperedges
    /// {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5} on six vertices.
    pub(crate) fn thesis_example() -> Hypergraph {
        Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]])
    }

    #[test]
    fn basics() {
        let h = thesis_example();
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.rank(), 3);
        assert!(h.covers_all_vertices());
        assert_eq!(h.incident_edges(0), &[0, 1]);
        assert_eq!(h.incident_edges(3), &[2]);
    }

    #[test]
    fn primal_graph_matches_definition() {
        let h = thesis_example();
        let g = h.primal_graph();
        // x1 adjacent to x2,x3 (edge 0) and x5,x6 (edge 1)
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(0, 5));
        assert!(!g.has_edge(0, 3));
        // each 3-edge contributes a triangle: 3 + 3 + 3 minus shared 0 = 9 edges
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn named_edges_intern_vertices() {
        let h = Hypergraph::from_named_edges(&[
            ("a".into(), vec!["x".into(), "y".into()]),
            ("b".into(), vec!["y".into(), "z".into()]),
        ]);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.vertex_name(0), "x");
        assert_eq!(h.vertex_name(2), "z");
        assert_eq!(h.edge_name(1), "b");
        assert!(h.edge(1).contains(1) && h.edge(1).contains(2));
    }

    #[test]
    fn from_graph_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let h = Hypergraph::from_graph(&g);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.rank(), 2);
        let p = h.primal_graph();
        assert_eq!(p.num_edges(), g.num_edges());
    }

    #[test]
    fn isolated_vertex_not_covered() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(!h.covers_all_vertices());
    }
}
