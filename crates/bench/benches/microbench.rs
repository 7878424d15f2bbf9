//! Criterion microbenchmarks for the workspace's hot paths:
//! vertex elimination, ordering evaluation, set covers, bucket
//! elimination, relational joins, bound heuristics and the exact searches
//! on small instances.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use htd_core::bucket::{bucket_elimination, vertex_elimination};
use htd_core::ordering::{CoverStrategy, EliminationOrdering, GhwEvaluator, TwEvaluator};
use htd_csp::{builders, Relation};
use htd_heuristics::{combined_lower_bound, minor_min_width_alive, upper::min_fill, MinorScratch};
use htd_hypergraph::{gen, EliminationGraph, VertexSet};
use htd_search::{astar_tw, bb_ghw, bb_tw, SearchConfig};
use htd_setcover::{greedy_cover, CoverCache, ExactCover};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_elimination(c: &mut Criterion) {
    let g = gen::queen_graph(8);
    c.bench_function("eliminate_undo_queen8", |b| {
        let mut eg = EliminationGraph::new(&g);
        b.iter(|| {
            let mark = eg.log_len();
            for v in 0..16u32 {
                eg.eliminate(black_box(v));
            }
            eg.undo_to(mark);
        })
    });
}

fn bench_tw_eval(c: &mut Criterion) {
    let g = gen::queen_graph(8);
    let order: Vec<u32> = (0..g.num_vertices()).collect();
    c.bench_function("tw_eval_queen8", |b| {
        let mut ev = TwEvaluator::new(&g);
        b.iter(|| black_box(ev.width(black_box(&order))))
    });
}

fn bench_ghw_eval(c: &mut Criterion) {
    let h = gen::adder(25);
    let order: Vec<u32> = (0..h.num_vertices()).collect();
    let mut group = c.benchmark_group("ghw_eval_adder25");
    group.bench_function("greedy", |b| {
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Greedy);
        b.iter(|| black_box(ev.width(black_box(&order))))
    });
    group.bench_function("exact", |b| {
        let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
        b.iter(|| black_box(ev.width(black_box(&order))))
    });
    group.finish();
}

/// The shared set-cover cache against fresh per-evaluation contexts, on
/// the suite the thesis uses for ghw (adder / bridge). The cached side
/// models the portfolio: one warm [`CoverCache`] serving every evaluation
/// of overlapping bag sets, so each cover is solved once per run.
fn bench_ghw_eval_cached(c: &mut Criterion) {
    for (name, h) in [("adder40", gen::adder(40)), ("bridge25", gen::bridge(25))] {
        let n = h.num_vertices();
        let orders: Vec<Vec<u32>> = (0..4u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                min_fill(&h.primal_graph(), &mut rng).ordering.into_vec()
            })
            .chain(std::iter::once((0..n).collect()))
            .collect();
        let mut group = c.benchmark_group(&format!("ghw_eval_cache_{name}"));
        group.bench_function("uncached", |b| {
            b.iter(|| {
                for order in &orders {
                    let mut ev = GhwEvaluator::new(&h, CoverStrategy::Exact);
                    black_box(ev.width(black_box(order)));
                }
            })
        });
        group.bench_function("shared_cache", |b| {
            let cache = std::sync::Arc::new(CoverCache::new());
            b.iter(|| {
                for order in &orders {
                    let mut ev = GhwEvaluator::with_cache(
                        &h,
                        CoverStrategy::Exact,
                        std::sync::Arc::clone(&cache),
                    );
                    black_box(ev.width(black_box(order)));
                }
            })
        });
        group.finish();
    }
}

fn bench_set_cover(c: &mut Criterion) {
    let h = gen::grid2d(10);
    let edges = h.edges().to_vec();
    let target = {
        let mut t = VertexSet::new(h.num_vertices());
        for v in 0..20 {
            t.insert(v);
        }
        t
    };
    let mut group = c.benchmark_group("set_cover_grid2d10");
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(greedy_cover(black_box(&target), &edges)))
    });
    group.bench_function("exact", |b| {
        b.iter(|| black_box(ExactCover::new(&edges).cover_size(black_box(&target))))
    });
    group.finish();
}

fn bench_bucket_elimination(c: &mut Criterion) {
    let h = gen::bridge(25);
    let g = h.primal_graph();
    let order = EliminationOrdering::identity(h.num_vertices());
    let mut group = c.benchmark_group("elimination_bridge25");
    group.bench_function("bucket", |b| {
        b.iter(|| black_box(bucket_elimination(&h, black_box(&order))))
    });
    group.bench_function("vertex", |b| {
        b.iter(|| black_box(vertex_elimination(&g, black_box(&order))))
    });
    group.finish();
}

fn bench_bounds(c: &mut Criterion) {
    let g = gen::queen_graph(7);
    c.bench_function("min_fill_queen7", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(min_fill(black_box(&g), &mut rng).width))
    });
    c.bench_function("combined_lb_queen7", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(combined_lower_bound(black_box(&g), &mut rng)))
    });
    // the per-node bound of the tw searches: a 6x6 grid with three
    // vertices eliminated, bounded from a warm scratch
    c.bench_function("mmw_alive_grid6", |b| {
        let mut eg = EliminationGraph::new(&gen::grid_graph(6, 6));
        for v in [0, 7, 14] {
            eg.eliminate(v);
        }
        let (mut scratch, mut rng) = (MinorScratch::default(), StdRng::seed_from_u64(1));
        b.iter(|| {
            black_box(minor_min_width_alive(
                black_box(&eg),
                &mut scratch,
                &mut rng,
            ))
        })
    });
}

fn bench_search(c: &mut Criterion) {
    c.bench_function("astar_tw_queen5", |b| {
        let g = gen::queen_graph(5);
        b.iter(|| black_box(astar_tw(&g, &SearchConfig::default())))
    });
    c.bench_function("astar_tw_grid6", |b| {
        let g = gen::grid_graph(6, 6);
        b.iter(|| black_box(astar_tw(&g, &SearchConfig::default())))
    });
    c.bench_function("bb_tw_myciel4", |b| {
        let g = gen::myciel(4);
        b.iter(|| black_box(bb_tw(&g, &SearchConfig::default())))
    });
    c.bench_function("bb_ghw_adder10", |b| {
        let h = gen::adder(10);
        b.iter(|| black_box(bb_ghw(&h, &SearchConfig::default())))
    });
}

fn bench_relational(c: &mut Criterion) {
    // join two 3-colorability constraint chains
    let csp = builders::graph_coloring(&gen::cycle_graph(40), 3);
    let rels: Vec<Relation> = csp
        .constraints
        .iter()
        .map(|cst| Relation::new(cst.scope.clone(), cst.tuples.clone()))
        .collect();
    c.bench_function("join_chain_of_40", |b| {
        b.iter(|| {
            let mut acc = rels[0].clone();
            for r in &rels[1..20] {
                acc = acc.join(black_box(r));
                acc = acc.project(&acc.vars.clone()[acc.vars.len().saturating_sub(2)..]);
            }
            black_box(acc.len())
        })
    });
    c.bench_function("semijoin_chain_of_40", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for w in rels.windows(2) {
                kept += w[0].semijoin(black_box(&w[1])).len();
            }
            black_box(kept)
        })
    });
}

fn bench_extensions(c: &mut Criterion) {
    c.bench_function("dp_treewidth_n16", |b| {
        let g = gen::random_gnp(16, 0.25, 3);
        b.iter(|| black_box(htd_search::dp_treewidth(&g)))
    });
    c.bench_function("det_k_decomp_adder8", |b| {
        let h = gen::adder(8);
        b.iter(|| black_box(htd_search::det_k_decomp(&h, 2).is_some()))
    });
    // a failing decision: hw(bridge_10) = 3, so k = 2 searches exhaustively
    c.bench_function("det_k_bridge10_k2", |b| {
        let h = gen::bridge(10);
        b.iter(|| black_box(htd_search::det_k_decomp(&h, 2).is_none()))
    });
    c.bench_function("fractional_cover_grid2d8_bag", |b| {
        let h = gen::grid2d(8);
        let target = VertexSet::from_iter_with_capacity(h.num_vertices(), 0..12);
        let edges = h.edges().to_vec();
        b.iter(|| black_box(htd_setcover::fractional_cover(&target, &edges)))
    });
    c.bench_function("nice_normalization_grid5", |b| {
        let g = gen::grid_graph(5, 5);
        let td = vertex_elimination(&g, &EliminationOrdering::identity(25));
        b.iter(|| {
            black_box(htd_core::nice::NiceTreeDecomposition::from_td(
                black_box(&td),
                25,
            ))
        })
    });
    c.bench_function("count_solutions_queens6", |b| {
        let csp = builders::n_queens(6);
        let h = csp.hypergraph();
        let td = htd_core::bucket::td_of_hypergraph(&h, &EliminationOrdering::identity(6));
        b.iter(|| black_box(htd_csp::count_solutions_td(&csp, &td)))
    });
}

criterion_group!(
    benches,
    bench_elimination,
    bench_tw_eval,
    bench_ghw_eval,
    bench_ghw_eval_cached,
    bench_set_cover,
    bench_bucket_elimination,
    bench_bounds,
    bench_search,
    bench_relational,
    bench_extensions
);
criterion_main!(benches);
