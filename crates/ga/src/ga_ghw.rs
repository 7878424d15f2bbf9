//! GA-ghw: genetic algorithm for generalized hypertree width upper bounds
//! (thesis §7.1).
//!
//! Same engine as GA-tw; fitness is the greedy-cover width of the ordering
//! (Fig. 7.1 with the greedy set cover of Fig. 7.2), computed by a greedy
//! [`GhwEvaluator`], which covers each bag through the one bag cover,
//! `htd_setcover::BagCover`. Fitness is always greedy: an exact cover
//! costs a set-cover search per bag, and the exact searches prove widths
//! instead. Uncoverable orderings cannot occur when every vertex lies in
//! some hyperedge, which the entry point checks once.

use std::sync::Arc;

use htd_core::ordering::{CoverStrategy, EliminationOrdering, GhwEvaluator};
use htd_hypergraph::Hypergraph;
use htd_setcover::CoverCache;
use rand::Rng;

use crate::engine::{self, GaParams, GaResult};

/// The result of GA-ghw: an ordering and the ghw upper bound it certifies.
#[derive(Clone, Debug)]
pub struct GaGhwResult {
    /// The best ordering found.
    pub ordering: EliminationOrdering,
    /// Its greedy-cover width — an upper bound on `ghw(H)`.
    pub width: u32,
    /// The underlying engine result.
    pub inner: GaResult,
}

/// Runs GA-ghw. Returns `None` when some vertex lies in no hyperedge
/// (no GHD exists).
pub fn ga_ghw<R: Rng>(h: &Hypergraph, params: &GaParams, rng: &mut R) -> Option<GaGhwResult> {
    ga_ghw_run(h, params, GhwEvaluator::new(h, CoverStrategy::Greedy), rng)
}

/// GA-ghw whose fitness evaluation memoizes bag covers in a shared
/// [`CoverCache`] — the portfolio hands every GA worker the same cache, so
/// covers computed by one worker (or by balanced separators) are reused by
/// all. The cache must be dedicated to `h` and to greedy covers.
pub fn ga_ghw_cached<R: Rng>(
    h: &Hypergraph,
    params: &GaParams,
    cache: Arc<CoverCache>,
    rng: &mut R,
) -> Option<GaGhwResult> {
    ga_ghw_run(
        h,
        params,
        GhwEvaluator::with_cache(h, CoverStrategy::Greedy, cache),
        rng,
    )
}

fn ga_ghw_run<R: Rng>(
    h: &Hypergraph,
    params: &GaParams,
    mut ev: GhwEvaluator<'_>,
    rng: &mut R,
) -> Option<GaGhwResult> {
    if !h.covers_all_vertices() {
        return None;
    }
    let mut fitness = |perm: &[u32]| {
        ev.width(perm)
            .expect("coverable: every vertex lies in an edge")
    };
    let inner = engine::run(h.num_vertices(), params, &mut fitness, rng);
    Some(GaGhwResult {
        ordering: EliminationOrdering::new_unchecked(inner.best_perm.clone()),
        width: inner.best,
        inner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_ghw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_params() -> GaParams {
        GaParams {
            population: 30,
            generations: 50,
            ..GaParams::default()
        }
    }

    #[test]
    fn finds_ghw_on_structured_instances() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = quick_params();
        // acyclic chain: ghw 1
        let chain = Hypergraph::new(
            6,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5]],
        );
        assert_eq!(ga_ghw(&chain, &p, &mut rng).unwrap().width, 1);
        // thesis example: ghw 2
        let th = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(ga_ghw(&th, &p, &mut rng).unwrap().width, 2);
        // clique_8: ghw 4
        assert_eq!(
            ga_ghw(&gen::clique_hypergraph(8), &p, &mut rng)
                .unwrap()
                .width,
            4
        );
    }

    #[test]
    fn result_is_a_valid_upper_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..6u64 {
            let h = gen::random_uniform(7, 8, 3, seed);
            if !h.covers_all_vertices() {
                continue;
            }
            let r = ga_ghw(&h, &quick_params(), &mut rng).unwrap();
            let ghw = exhaustive_ghw(&h).unwrap();
            assert!(r.width >= ghw, "seed {seed}");
            let mut ev = GhwEvaluator::new(&h, CoverStrategy::Greedy);
            assert_eq!(ev.width(r.ordering.as_slice()).unwrap(), r.width);
        }
    }

    #[test]
    fn uncoverable_returns_none() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(ga_ghw(&h, &quick_params(), &mut StdRng::seed_from_u64(4)).is_none());
    }

    #[test]
    fn cached_matches_uncached() {
        let h = gen::adder(4);
        let p = quick_params();
        let cache = Arc::new(CoverCache::new());
        let plain = ga_ghw(&h, &p, &mut StdRng::seed_from_u64(7)).unwrap();
        let cached =
            ga_ghw_cached(&h, &p, Arc::clone(&cache), &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(cached.width, plain.width);
        assert_eq!(cached.ordering, plain.ordering);
        assert!(!cache.is_empty(), "fitness loop should populate the cache");
        assert!(cache.hits() > 0, "repeated bags should hit the cache");
    }

    #[test]
    fn adder_reaches_small_width() {
        // the adder family has ghw 2; GA should reach ≤ 3 easily
        let mut rng = StdRng::seed_from_u64(5);
        let r = ga_ghw(&gen::adder(5), &quick_params(), &mut rng).unwrap();
        assert!(r.width <= 3, "adder(5) GA width {}", r.width);
    }
}
