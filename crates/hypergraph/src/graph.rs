//! Simple undirected graphs with bitset adjacency.

use crate::bitset::VertexSet;
use crate::Vertex;

/// An undirected simple graph on vertices `0..n`.
///
/// Adjacency is stored as one [`VertexSet`] per vertex, so neighborhood
/// operations (common-neighbor counts, fill-edge detection, clique tests)
/// are word-parallel.
///
/// ```
/// use htd_hypergraph::Graph;
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 3));
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    adj: Vec<VertexSet>,
    num_edges: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: u32) -> Self {
        Graph {
            adj: (0..n).map(|_| VertexSet::new(n)).collect(),
            num_edges: 0,
        }
    }

    /// Creates a graph from an edge list. Self-loops are ignored and
    /// duplicate edges are counted once.
    pub fn from_edges(n: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The name of vertex `v`: its numeric id.
    pub fn name(&self, v: Vertex) -> String {
        v.to_string()
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if it was new.
    /// Self-loops are ignored (returns `false`).
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let added = self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        if added {
            self.num_edges += 1;
        }
        added
    }

    /// Edge membership test.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].contains(v)
    }

    /// The neighborhood of `v` as a bitset.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &VertexSet {
        &self.adj[v as usize]
    }

    /// The degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> u32 {
        self.adj[v as usize].len()
    }

    /// Iterates all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.adj[u as usize]
                .iter()
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced by `keep`, with vertices renumbered to
    /// `0..keep.len()`. Returns the graph and the old-id-per-new-id map.
    pub fn induced_subgraph(&self, keep: &VertexSet) -> (Graph, Vec<Vertex>) {
        let old_ids: Vec<Vertex> = keep.to_vec();
        let mut new_id = vec![u32::MAX; self.num_vertices() as usize];
        for (i, &v) in old_ids.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut g = Graph::new(old_ids.len() as u32);
        for &v in &old_ids {
            for w in self.adj[v as usize].intersection(keep).iter() {
                if w > v {
                    g.add_edge(new_id[v as usize], new_id[w as usize]);
                }
            }
        }
        (g, old_ids)
    }

    /// Connected components, each as a bitset of vertices.
    pub fn connected_components(&self) -> Vec<VertexSet> {
        let n = self.num_vertices();
        let mut seen = VertexSet::new(n);
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            if seen.contains(s) {
                continue;
            }
            let mut comp = VertexSet::new(n);
            stack.push(s);
            seen.insert(s);
            comp.insert(s);
            while let Some(v) = stack.pop() {
                for w in self.adj[v as usize].iter() {
                    if seen.insert(w) {
                        comp.insert(w);
                        stack.push(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// Connected components of the subgraph induced by `within`, each as a
    /// bitset of original vertex ids. The separator-splitting step of
    /// nested dissection: `within = V \ S` yields the parts the recursion
    /// descends into.
    pub fn connected_components_within(&self, within: &VertexSet) -> Vec<VertexSet> {
        let n = self.num_vertices();
        let mut seen = VertexSet::new(n);
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for s in within.iter() {
            if seen.contains(s) {
                continue;
            }
            let mut comp = VertexSet::new(n);
            stack.push(s);
            seen.insert(s);
            comp.insert(s);
            while let Some(v) = stack.pop() {
                for w in self.adj[v as usize].intersection(within).iter() {
                    if seen.insert(w) {
                        comp.insert(w);
                        stack.push(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// `true` iff the graph has no edges between distinct vertices missing
    /// inside `s` except those incident to `v`; that is, `v` is *simplicial*:
    /// its neighborhood is a clique.
    pub fn is_simplicial(&self, v: Vertex) -> bool {
        let nb = &self.adj[v as usize];
        nb.iter().all(|u| {
            // all neighbors of v other than u must also be neighbors of u
            let mut missing = nb.difference(&self.adj[u as usize]);
            missing.remove(u);
            missing.is_empty()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn basic_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert!(!g.add_edge(2, 2));
        g.add_edge(1, 2);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn simplicial() {
        // triangle with a pendant: 3-0-1-2-0, vertex 3 attached to 0 only
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert!(g.is_simplicial(3)); // degree-1 is simplicial
        assert!(g.is_simplicial(1)); // neighbors {0,2} are adjacent
        assert!(!g.is_simplicial(0)); // neighbors {1,2,3}: 3 not adjacent to 1
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let keep = VertexSet::from_iter_with_capacity(5, [1, 2, 3]);
        let (sub, ids) = g.induced_subgraph(&keep);
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // 1-2, 2-3, 1-3
        assert!(sub.has_edge(0, 2));
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].to_vec(), vec![0, 1, 2]);
        assert_eq!(comps[1].to_vec(), vec![3]);
        assert_eq!(comps[2].to_vec(), vec![4, 5]);
    }

    #[test]
    fn path_degrees() {
        let g = path(5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.num_edges(), 4);
    }
}
