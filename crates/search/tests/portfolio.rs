//! Integration tests of the anytime portfolio: bound consistency against
//! the sequential engines, cooperative-cancellation latency, and the
//! shared set-cover cache's transparency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use htd_core::ordering::{CoverStrategy, GhwEvaluator};
use htd_hypergraph::{gen, Hypergraph};
use htd_search::{solve, Engine, Objective, Outcome, Problem, SearchConfig};
use htd_setcover::CoverCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check_bounds(portfolio: &Outcome, sequential: &Outcome) {
    // both are certified interval answers for the same quantity, so the
    // intervals must intersect, and an exact answer must lie inside the
    // other's interval
    assert!(
        portfolio.lower <= sequential.upper && sequential.lower <= portfolio.upper,
        "disjoint bound intervals: portfolio [{}, {}] vs sequential [{}, {}]",
        portfolio.lower,
        portfolio.upper,
        sequential.lower,
        sequential.upper
    );
    if sequential.exact {
        assert!(portfolio.lower <= sequential.upper && sequential.upper <= portfolio.upper);
    }
    if portfolio.exact {
        assert!(sequential.lower <= portfolio.upper && portfolio.upper <= sequential.upper);
    }
}

#[test]
fn portfolio_agrees_with_sequential_on_queen5() {
    let g = gen::queen_graph(5);
    let seq = solve(&Problem::treewidth(g.clone()), &SearchConfig::default()).unwrap();
    let par = solve(
        &Problem::treewidth(g),
        &SearchConfig::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(seq.exact_width(), Some(18), "Table 5.1: tw(queen5_5) = 18");
    check_bounds(&par, &seq);
    assert_eq!(par.exact_width(), Some(18));
}

#[test]
fn portfolio_agrees_with_sequential_on_grid5() {
    let g = gen::grid_graph(5, 5);
    let seq = solve(&Problem::treewidth(g.clone()), &SearchConfig::default()).unwrap();
    let par = solve(
        &Problem::treewidth(g),
        &SearchConfig::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(seq.exact_width(), Some(5));
    check_bounds(&par, &seq);
    assert_eq!(par.exact_width(), Some(5));
}

#[test]
fn portfolio_agrees_with_sequential_on_adder4_ghw() {
    let h = gen::adder(4);
    let seq = solve(&Problem::ghw(h.clone()), &SearchConfig::default()).unwrap();
    let par = solve(&Problem::ghw(h), &SearchConfig::default().with_threads(4)).unwrap();
    assert!(seq.exact, "adder(4) is small enough for an exact ghw");
    check_bounds(&par, &seq);
    assert_eq!(par.exact_width(), seq.exact_width());
}

#[test]
fn cancellation_stops_all_workers_within_budget() {
    // queen8 is far beyond any sub-second exact solve, so only the time
    // budget can end this run; all four workers must notice the caller's
    // deadline cancel within a 100ms grace
    let g = gen::queen_graph(8);
    let budget = Duration::from_millis(300);
    let cfg = SearchConfig::default()
        .with_max_nodes(u64::MAX)
        .with_time_limit(budget)
        .with_threads(4);
    let start = Instant::now();
    let out = solve(&Problem::treewidth(g), &cfg).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed <= budget + Duration::from_millis(100),
        "portfolio overran its wall clock: {elapsed:?} vs {budget:?} + 100ms"
    );
    assert!(!out.exact);
    assert!(out.lower <= out.upper);
    assert!(out.witness.is_some(), "anytime run still has an incumbent");
}

#[test]
fn time_limited_solves_pay_no_timer_floor() {
    // reductions alone solve a k-tree in well under a millisecond; a
    // time-limited solve of one must cost that, not a timer tick. Each
    // is paired with the same solve without a limit, in alternating
    // order, so a scheduler delay that both pay alike (a 4 ms tick on a
    // busy host) cancels out of the difference
    let g = gen::named_graph("ktree_30_3").expect("suite graph");
    let problem = Problem::treewidth(g);
    let unlimited = SearchConfig::default().with_threads(2);
    let limited = unlimited.clone().with_time_limit(Duration::from_secs(10));
    let ms = |cfg: &SearchConfig| {
        let t = Instant::now();
        let out = solve(&problem, cfg).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.exact_width(), Some(3), "a 3-tree has treewidth 3");
        ms
    };
    let mut extra: Vec<f64> = (0..21)
        .map(|i| {
            if i % 2 == 0 {
                let l = ms(&limited);
                l - ms(&unlimited)
            } else {
                let u = ms(&unlimited);
                ms(&limited) - u
            }
        })
        .collect();
    extra.sort_by(f64::total_cmp);
    let median = extra[extra.len() / 2];
    assert!(
        median < 2.0,
        "a time-limited solve of ktree_30_3 took {median:.3} ms more than \
         an unlimited one (median of 21 pairs)"
    );
}

#[test]
fn engines_report_individually() {
    let g = gen::queen_graph(4);
    let out = solve(
        &Problem::treewidth(g),
        &SearchConfig::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(out.per_engine.len(), 4);
    let engines: Vec<Engine> = out.per_engine.iter().map(|r| r.engine).collect();
    assert!(engines.contains(&Engine::BranchBound));
    assert!(engines.contains(&Engine::AStar));
    // each engine's own bounds must be consistent with the final answer
    for r in &out.per_engine {
        assert!(r.lower <= out.upper, "{:?} lower too high", r.engine);
        if r.upper != u32::MAX {
            assert!(r.upper >= out.upper, "{:?} upper below optimum", r.engine);
        }
    }
}

/// Random hypergraph on `n ≤ 7` vertices with each vertex covered.
fn random_covered_hypergraph(n: u32, rng: &mut StdRng) -> Hypergraph {
    let num_edges = rng.gen_range(2..=5u32);
    let mut edges: Vec<Vec<u32>> = (0..num_edges)
        .map(|_| {
            let size = rng.gen_range(1..=3u32);
            let mut e: Vec<u32> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            e.sort_unstable();
            e.dedup();
            e
        })
        .collect();
    // guarantee coverage
    for v in 0..n {
        if !edges.iter().any(|e| e.contains(&v)) {
            let i = rng.gen_range(0..edges.len());
            edges[i].push(v);
            edges[i].sort_unstable();
        }
    }
    Hypergraph::new(n, edges)
}

#[test]
fn cached_covers_match_uncached_property() {
    // property test over small instances: a shared CoverCache never
    // changes any evaluated ordering width
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=7u32);
        let h = random_covered_hypergraph(n, &mut rng);
        let cache = Arc::new(CoverCache::new());
        let mut cached = GhwEvaluator::with_cache(&h, CoverStrategy::Exact, Arc::clone(&cache));
        let mut plain = GhwEvaluator::new(&h, CoverStrategy::Exact);
        // several orderings, revisiting bags so cache hits actually occur
        for round in 0..3u64 {
            let mut order: Vec<u32> = (0..n).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            assert_eq!(
                cached.width(&order),
                plain.width(&order),
                "seed {seed} round {round} order {order:?}"
            );
        }
        assert!(cache.misses() > 0, "evaluator never consulted the cache");
    }
}

#[test]
fn hw_objective_is_exact_and_bounded_by_ghw() {
    let h = gen::adder(4);
    let ghw = solve(&Problem::ghw(h.clone()), &SearchConfig::default()).unwrap();
    let hw = solve(&Problem::hw(h), &SearchConfig::default()).unwrap();
    assert_eq!(hw.objective, Objective::HypertreeWidth);
    assert!(hw.exact);
    // det-k answers alone: no portfolio engine ran, none is credited
    assert!(hw.per_engine.is_empty(), "{:?}", hw.per_engine);
    assert_eq!(hw.winner, None);
    // ghw ≤ hw always (Chapter 2)
    assert!(ghw.upper <= hw.upper);
}

#[test]
fn skipped_engines_are_surfaced_in_outcome_and_trace() {
    use htd_trace::{Event, RingBuffer, Tracer};
    // 2 worker slots against the full default lineup: only the two
    // best-claim-rank engines launch; everything else must be reported,
    // not silently dropped
    let ring = RingBuffer::new(100_000);
    let g = gen::queen_graph(4);
    let cfg = SearchConfig::default()
        .with_threads(2)
        .with_tracer(Tracer::new(Box::new(Arc::clone(&ring))));
    let out = solve(&Problem::treewidth(g), &cfg).unwrap();

    let lineup = Engine::default_lineup();
    assert_eq!(out.per_engine.len(), 2);
    assert_eq!(out.skipped_engines.len(), lineup.len() - 2);
    let launched: Vec<Engine> = out.per_engine.iter().map(|r| r.engine).collect();
    assert!(launched.contains(&Engine::BranchBound));
    assert!(launched.contains(&Engine::AStar));
    for e in &out.skipped_engines {
        assert!(!launched.contains(e), "{e:?} both launched and skipped");
        assert!(lineup.contains(e), "{e:?} skipped but not in lineup");
    }

    // the trace stream names the same engines
    let skipped_evt = ring
        .records()
        .into_iter()
        .find_map(|r| match r.event {
            Event::EnginesSkipped { engines, slots } => Some((engines, slots)),
            _ => None,
        })
        .expect("engines_skipped event emitted");
    assert_eq!(skipped_evt.1, 2);
    let names: Vec<&str> = skipped_evt.0.split(',').collect();
    assert_eq!(names.len(), out.skipped_engines.len());
    for e in &out.skipped_engines {
        assert!(names.contains(&e.name()), "{e:?} missing from trace event");
    }

    // and the diagnostics survive a JSON round trip
    let back = Outcome::from_json(&out.to_json()).expect("roundtrip");
    assert_eq!(back.skipped_engines, out.skipped_engines);
}

#[test]
fn no_engines_skipped_when_slots_cover_the_lineup() {
    let g = gen::queen_graph(4);
    let cfg = SearchConfig::default().with_threads(Engine::default_lineup().len());
    let out = solve(&Problem::treewidth(g), &cfg).unwrap();
    assert!(out.skipped_engines.is_empty());
}
