//! Iterated local search on elimination orderings.
//!
//! A deterministic-ish polish pass between the greedy constructions and
//! the heavyweight stochastic methods: steepest-descent over insertion
//! moves (take a vertex out, reinsert elsewhere), restarted with random
//! perturbations when stuck. Cheap, and routinely shaves a unit or two
//! off a min-fill width — the standard preprocessing before handing an
//! incumbent to branch and bound.

use htd_core::ordering::{EliminationOrdering, TwEvaluator};
use htd_hypergraph::{Graph, Vertex};
use rand::Rng;

/// Parameters of the iterated local search.
#[derive(Clone, Debug)]
pub struct IlsParams {
    /// Insertion-move proposals per descent round.
    pub moves_per_round: u32,
    /// Consecutive non-improving rounds before perturbing.
    pub patience: u32,
    /// Random perturbations (restarts) before giving up.
    pub restarts: u32,
}

impl Default for IlsParams {
    fn default() -> Self {
        IlsParams {
            moves_per_round: 200,
            patience: 3,
            restarts: 5,
        }
    }
}

/// Improves `start` by iterated local search; returns an ordering whose
/// width is ≤ the start's width.
pub fn improve_ordering<R: Rng>(
    g: &Graph,
    start: &EliminationOrdering,
    params: &IlsParams,
    rng: &mut R,
) -> (EliminationOrdering, u32) {
    improve_ordering_until(g, start, params, &|| false, rng)
}

/// [`improve_ordering`] with a cooperative stop predicate, polled once per
/// insertion move. When `stop` turns true the search returns its best so
/// far, so an anytime caller (the portfolio's heuristic worker) stays
/// within its deadline even when one ILS pass would outlast it.
pub fn improve_ordering_until<R: Rng>(
    g: &Graph,
    start: &EliminationOrdering,
    params: &IlsParams,
    stop: &dyn Fn() -> bool,
    rng: &mut R,
) -> (EliminationOrdering, u32) {
    let n = g.num_vertices() as usize;
    let mut ev = TwEvaluator::new(g);
    let mut best: Vec<Vertex> = start.as_slice().to_vec();
    let mut best_w = ev.width(&best);
    let mut current = best.clone();
    let mut current_w = best_w;
    'outer: for _restart in 0..=params.restarts {
        let mut stale = 0u32;
        while stale < params.patience {
            let mut improved = false;
            for _ in 0..params.moves_per_round {
                if n < 2 || stop() {
                    break 'outer;
                }
                let from = rng.gen_range(0..n);
                let to = rng.gen_range(0..n);
                if from == to {
                    continue;
                }
                let mut cand = current.clone();
                let v = cand.remove(from);
                cand.insert(to, v);
                let w = ev.width(&cand);
                if w < current_w {
                    current = cand;
                    current_w = w;
                    improved = true;
                }
            }
            if improved {
                stale = 0;
                if current_w < best_w {
                    best = current.clone();
                    best_w = current_w;
                }
            } else {
                stale += 1;
            }
        }
        // perturb: a few random swaps away from the best
        current = best.clone();
        for _ in 0..3 {
            if n >= 2 {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                current.swap(i, j);
            }
        }
        current_w = ev.width(&current);
    }
    // a stop mid-round may leave the last improvement uncommitted
    if current_w < best_w {
        best = current;
        best_w = current_w;
    }
    (EliminationOrdering::new_unchecked(best), best_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn never_worse_than_start() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..6u64 {
            let g = gen::random_gnp(12, 0.3, seed);
            let start = EliminationOrdering::random(12, &mut rng);
            let mut ev = TwEvaluator::new(&g);
            let start_w = ev.width(start.as_slice());
            let (improved, w) = improve_ordering(&g, &start, &IlsParams::default(), &mut rng);
            assert!(w <= start_w, "seed {seed}");
            assert_eq!(ev.width(improved.as_slice()), w, "seed {seed}");
        }
    }

    #[test]
    fn reaches_optimum_from_bad_starts_on_small_graphs() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..5u64 {
            let g = gen::random_gnp(8, 0.35, seed);
            let truth = exhaustive_tw(&g);
            let start = EliminationOrdering::random(8, &mut rng);
            let (_, w) = improve_ordering(&g, &start, &IlsParams::default(), &mut rng);
            assert!(w >= truth);
            assert!(w <= truth + 1, "seed {seed}: ILS stuck at {w} vs {truth}");
        }
    }

    #[test]
    fn min_fill_plus_ils_on_queen() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::queen_graph(5);
        let start = crate::upper::min_fill(&g, &mut rng).ordering;
        let (_, w) = improve_ordering(&g, &start, &IlsParams::default(), &mut rng);
        assert!((18..=19).contains(&w), "queen5 ILS width {w}");
    }

    #[test]
    fn degenerate_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = htd_hypergraph::Graph::new(1);
        let start = EliminationOrdering::identity(1);
        let (o, w) = improve_ordering(&g, &start, &IlsParams::default(), &mut rng);
        assert_eq!(w, 0);
        assert_eq!(o.len(), 1);
    }
}
