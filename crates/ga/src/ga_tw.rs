//! GA-tw: genetic algorithm for treewidth upper bounds (thesis Fig. 6.1).

use htd_core::ordering::{EliminationOrdering, TwEvaluator};
use htd_hypergraph::Graph;
use rand::Rng;

use crate::engine::{self, GaParams, GaResult};

/// The result of GA-tw: an ordering and the treewidth upper bound it
/// certifies.
#[derive(Clone, Debug)]
pub struct GaTwResult {
    /// The best ordering found.
    pub ordering: EliminationOrdering,
    /// Its width — an upper bound on the treewidth.
    pub width: u32,
    /// The underlying engine result (history, evaluation count).
    pub inner: GaResult,
}

/// Runs GA-tw on a graph: individuals are elimination orderings, fitness is
/// the width of the induced tree decomposition (Fig. 6.2).
///
/// ```
/// use htd_ga::{ga_tw, GaParams};
/// use htd_hypergraph::gen;
/// use rand::SeedableRng;
/// let params = GaParams { population: 30, generations: 50, ..GaParams::default() };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let result = ga_tw(&gen::cycle_graph(10), &params, &mut rng);
/// assert_eq!(result.width, 2); // tw of a cycle
/// ```
pub fn ga_tw<R: Rng>(g: &Graph, params: &GaParams, rng: &mut R) -> GaTwResult {
    let mut ev = TwEvaluator::new(g);
    let mut fitness = |perm: &[u32]| ev.width(perm);
    let inner = engine::run(g.num_vertices(), params, &mut fitness, rng);
    GaTwResult {
        ordering: EliminationOrdering::new_unchecked(inner.best_perm.clone()),
        width: inner.best,
        inner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::ordering::exhaustive_tw;
    use htd_hypergraph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_params() -> GaParams {
        GaParams {
            population: 30,
            generations: 60,
            ..GaParams::default()
        }
    }

    #[test]
    fn finds_optimum_on_small_structured_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = GaParams {
            population: 60,
            generations: 200,
            ..GaParams::default()
        };
        // star: width = remaining leaves when the center dies, a smooth
        // gradient the GA descends to the optimum 1
        let star = Graph::from_edges(12, (1..12).map(|i| (0, i)));
        assert_eq!(ga_tw(&star, &p, &mut rng).width, 1);
        assert_eq!(ga_tw(&gen::cycle_graph(12), &p, &mut rng).width, 2);
        assert_eq!(ga_tw(&gen::grid_graph(3, 3), &p, &mut rng).width, 3);
    }

    #[test]
    fn result_is_a_valid_upper_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..6u64 {
            let g = gen::random_gnp(8, 0.4, seed);
            let r = ga_tw(&g, &quick_params(), &mut rng);
            let tw = exhaustive_tw(&g);
            assert!(r.width >= tw, "seed {seed}: GA below treewidth");
            // the reported ordering achieves the reported width
            let mut ev = TwEvaluator::new(&g);
            assert_eq!(ev.width(r.ordering.as_slice()), r.width);
        }
    }

    #[test]
    fn longer_runs_never_do_worse() {
        let g = gen::queen_graph(4);
        let short = GaParams {
            population: 20,
            generations: 5,
            ..GaParams::default()
        };
        let long = GaParams {
            population: 20,
            generations: 80,
            ..GaParams::default()
        };
        let a = ga_tw(&g, &short, &mut StdRng::seed_from_u64(4));
        let b = ga_tw(&g, &long, &mut StdRng::seed_from_u64(4));
        assert!(b.width <= a.width);
    }
}
