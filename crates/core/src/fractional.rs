//! Fractional hypertree width of elimination orderings.
//!
//! Replacing the integral bag cover of Definition 17 with the fractional
//! cover number gives the elimination-ordering route to **fractional
//! hypertree width** (`fhw`), the finest width of the hypertree family:
//! `fhw(H) ≤ ghw(H) ≤ hw(H)`. The minimum over orderings upper-bounds
//! `fhw(H)` (every ordering yields a fractional hypertree decomposition);
//! we also expose the exhaustive minimum as a small-instance baseline.
//!
//! Note the asymmetry with Theorem 3: orderings are *complete* for `ghw`,
//! while for `fhw` the elimination route is an upper-bound construction —
//! exactly how the fractional width is normally approximated in practice.

use htd_hypergraph::{Hypergraph, Vertex, VertexSet};
use htd_setcover::BagCover;

use crate::ordering::Scratch;

/// Fractional-cover width evaluator for orderings, mirroring
/// [`GhwEvaluator`](crate::GhwEvaluator) with LP covers.
pub struct FhwEvaluator<'h> {
    scratch: Scratch,
    cover: BagCover<'h>,
    bag: VertexSet,
}

impl<'h> FhwEvaluator<'h> {
    /// Creates an evaluator for `h`.
    pub fn new(h: &'h Hypergraph) -> Self {
        FhwEvaluator {
            scratch: Scratch::new(&h.primal_graph()),
            cover: BagCover::new(h),
            bag: VertexSet::new(h.num_vertices()),
        }
    }

    /// The fractional width of `order`: the maximum fractional cover
    /// number over the bags the ordering produces. `None` when a vertex
    /// lies in no hyperedge.
    pub fn width(&mut self, order: &[Vertex]) -> Option<f64> {
        self.scratch.reset();
        let mut width = 0.0f64;
        for &v in order {
            self.scratch.eliminate(v, &mut self.bag);
            let f = self.cover.fractional(&self.bag)?;
            if f > width {
                width = f;
            }
        }
        Some(width)
    }
}

/// Exhaustive minimum of the fractional ordering width over all `n!`
/// orderings — an upper bound on `fhw(H)`, tight on the small instances
/// used in tests. Practical for `n ≲ 8`.
pub fn exhaustive_fhw_upper(h: &Hypergraph) -> Option<f64> {
    let n = h.num_vertices();
    if n == 0 {
        return Some(0.0);
    }
    let mut ev = FhwEvaluator::new(h);
    let mut perm: Vec<Vertex> = (0..n).collect();
    let mut best = ev.width(&perm)?;
    let mut ok = true;
    crate::ordering::for_each_permutation(&mut perm, &mut |p| match ev.width(p) {
        Some(w) => {
            if w < best {
                best = w;
            }
        }
        None => ok = false,
    });
    ok.then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_has_fhw_three_halves() {
        // the canonical fhw < ghw separation: the triangle of binary edges
        // has ghw 2 but fhw 1.5
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        let f = exhaustive_fhw_upper(&h).unwrap();
        assert!(close(f, 1.5), "got {f}");
        assert_eq!(exhaustive_ghw(&h), Some(2));
    }

    #[test]
    fn acyclic_instances_have_fhw_1() {
        let h = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let f = exhaustive_fhw_upper(&h).unwrap();
        assert!(close(f, 1.0), "got {f}");
    }

    #[test]
    fn fhw_never_exceeds_ghw_per_ordering() {
        use crate::ordering::{CoverStrategy, GhwEvaluator};
        for seed in 0..10u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let order: Vec<u32> = (0..7).collect();
            let mut fe = FhwEvaluator::new(&h);
            let mut ge = GhwEvaluator::new(&h, CoverStrategy::Exact);
            let f = fe.width(&order).unwrap();
            let g = ge.width(&order).unwrap();
            assert!(f <= g as f64 + 1e-6, "seed {seed}: fhw {f} > ghw {g}");
        }
    }

    #[test]
    fn clique_hypergraph_fhw_is_half_k() {
        let h = gen::clique_hypergraph(6);
        let f = exhaustive_fhw_upper(&h).unwrap();
        assert!(close(f, 3.0), "got {f}");
        // odd clique shows a fractional value
        let h = gen::clique_hypergraph(5);
        let f = exhaustive_fhw_upper(&h).unwrap();
        assert!(close(f, 2.5), "got {f}");
    }

    #[test]
    fn uncoverable_returns_none() {
        let h = Hypergraph::new(2, vec![vec![0]]);
        let mut ev = FhwEvaluator::new(&h);
        assert!(ev.width(&[1, 0]).is_none());
    }
}
