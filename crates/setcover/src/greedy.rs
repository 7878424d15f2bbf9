//! Greedy set cover (thesis Fig. 7.2, after Chvátal \[11\]).

use htd_hypergraph::{EdgeId, VertexSet};

/// Greedy set cover: repeatedly choose the edge covering the most
/// still-uncovered vertices of `target`, breaking ties by lowest edge id.
///
/// Returns the chosen edge ids, or `None` if `target` is not coverable by
/// the union of `edges`.
pub fn greedy_cover(target: &VertexSet, edges: &[VertexSet]) -> Option<Vec<EdgeId>> {
    let mut uncovered = target.clone();
    let mut chosen = Vec::new();
    while !uncovered.is_empty() {
        let (mut e, mut best_gain) = (0, 0u32);
        for (i, edge) in edges.iter().enumerate() {
            let gain = edge.intersection_len(&uncovered);
            if gain > best_gain {
                (e, best_gain) = (i as EdgeId, gain);
            }
        }
        if best_gain == 0 {
            return None; // some vertex of target is in no edge
        }
        chosen.push(e);
        uncovered.difference_with(&edges[e as usize]);
    }
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(cap: u32, items: &[u32]) -> VertexSet {
        VertexSet::from_iter_with_capacity(cap, items.iter().copied())
    }

    #[test]
    fn covers_simple_target() {
        let edges = vec![vs(6, &[0, 1, 2]), vs(6, &[2, 3]), vs(6, &[4, 5])];
        let cover = greedy_cover(&vs(6, &[0, 1, 2, 3]), &edges).unwrap();
        assert_eq!(cover, vec![0, 1]);
    }

    #[test]
    fn empty_target_needs_no_edges() {
        let edges = vec![vs(4, &[0, 1])];
        assert_eq!(
            greedy_cover(&vs(4, &[]), &edges).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn uncoverable_returns_none() {
        let edges = vec![vs(4, &[0, 1])];
        assert_eq!(greedy_cover(&vs(4, &[2]), &edges), None);
        assert_eq!(greedy_cover(&vs(4, &[0, 2]), &edges), None);
    }

    #[test]
    fn greedy_can_be_suboptimal_by_design() {
        // classic greedy trap: optimal cover is {A, B} (2 edges) but greedy
        // takes the big middle edge first and needs 3.
        let edges = vec![
            vs(8, &[0, 1, 2, 3]),    // A
            vs(8, &[4, 5, 6, 7]),    // B
            vs(8, &[1, 2, 4, 5, 6]), // greedy bait (gain 5)
        ];
        let cover = greedy_cover(&VertexSet::full(8), &edges).unwrap();
        assert_eq!(cover.len(), 3);
        assert_eq!(cover[0], 2);
    }
}
