//! Integration: the portfolio's trace-event stream is well-formed and
//! its attribution agrees with the returned `Outcome`.

use std::sync::Arc;
use std::time::Duration;

use htd_hypergraph::gen;
use htd_search::{solve, Problem, SearchConfig};
use htd_trace::{validate_stream, Event, RingBuffer, Tracer, KNOWN_KINDS};

fn traced_cfg(ring: &Arc<RingBuffer>) -> SearchConfig {
    SearchConfig::default()
        .with_seed(42)
        .with_threads(4)
        .with_tracer(Tracer::new(Box::new(Arc::clone(ring))))
}

#[test]
fn portfolio_stream_is_well_formed_and_attribution_matches_outcome() {
    let ring = RingBuffer::new(100_000);
    let g = gen::queen_graph(5);
    let out = solve(&Problem::treewidth(g), &traced_cfg(&ring)).unwrap();
    assert_eq!(out.exact_width(), Some(18));
    let records = ring.records();
    assert_eq!(ring.dropped(), 0, "ring sized for the whole stream");

    // monotonic timestamps, contiguous seq, every WorkerStarted matched
    // by a Finished or Cancelled
    validate_stream(&records).unwrap_or_else(|e| panic!("malformed stream: {e}"));
    assert!(records
        .iter()
        .all(|r| KNOWN_KINDS.contains(&r.event.kind())));

    // the stream brackets the solve
    assert!(matches!(
        records.first().unwrap().event,
        Event::SolveStarted { .. }
    ));
    assert!(matches!(
        records.last().unwrap().event,
        Event::SolveFinished { .. }
    ));

    // four workers started (threads = 4 claims the four strongest engines)
    let started: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::WorkerStarted { worker } => Some(*worker),
            _ => None,
        })
        .collect();
    assert_eq!(
        started.len(),
        4,
        "one WorkerStarted per thread: {started:?}"
    );

    // at least one attributed incumbent improvement; exactly one worker
    // reached the final width (offers are accepted under one lock, and
    // only strict improvements emit), and it is the Outcome's winner
    let improvements: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::IncumbentImproved { worker, width } => Some((*worker, *width)),
            _ => None,
        })
        .collect();
    assert!(!improvements.is_empty(), "no IncumbentImproved events");
    assert!(improvements.iter().all(|(w, _)| !w.is_empty()));
    let min_width = improvements.iter().map(|&(_, w)| w).min().unwrap();
    assert_eq!(min_width, out.upper, "best improvement matches the outcome");
    let winner = out.winner.expect("portfolio attributes its winner");
    let finals: Vec<_> = improvements
        .iter()
        .filter(|&&(_, w)| w == out.upper)
        .collect();
    assert_eq!(finals.len(), 1, "one worker reached the final width");
    assert_eq!(finals[0].0, winner.name(), "winner matches the improvement");

    // SolveFinished carries the same attribution and bounds
    match records.last().unwrap().event {
        Event::SolveFinished {
            lower,
            upper,
            exact,
            winner: w,
            ..
        } => {
            assert_eq!(lower, out.lower);
            assert_eq!(upper, Some(out.upper));
            assert_eq!(exact, out.exact);
            assert_eq!(w, Some(winner.name()));
        }
        ref e => panic!("last event is {e:?}"),
    }

    // convergence timestamps are coherent
    let first = out.time_to_first_upper.expect("an incumbent arrived");
    let best = out.time_to_best_upper.expect("an incumbent arrived");
    assert!(first <= best);
    assert!(best <= out.elapsed + Duration::from_millis(50));
}

#[test]
fn sequential_solve_also_produces_a_valid_stream() {
    let ring = RingBuffer::new(100_000);
    let cfg = traced_cfg(&ring).with_threads(1);
    let g = gen::grid_graph(4, 4);
    let out = solve(&Problem::treewidth(g), &cfg).unwrap();
    assert_eq!(out.exact_width(), Some(4));
    let records = ring.records();
    validate_stream(&records).unwrap_or_else(|e| panic!("malformed stream: {e}"));
    // one thread claims exactly one engine
    let started = records
        .iter()
        .filter(|r| matches!(r.event, Event::WorkerStarted { .. }))
        .count();
    assert_eq!(started, 1);
}

#[test]
fn deadline_cancellation_emits_worker_cancelled_with_bounds() {
    let ring = RingBuffer::new(100_000);
    // hard instance + tiny wall clock: the deadline must stop workers
    let g = gen::queen_graph(7);
    let cfg = traced_cfg(&ring).with_time_limit(Duration::from_millis(120));
    let out = solve(&Problem::treewidth(g), &cfg).unwrap();
    let records = ring.records();
    validate_stream(&records).unwrap_or_else(|e| panic!("malformed stream: {e}"));
    if out.exact {
        // machine fast enough to finish queen7 in 120ms — nothing to assert
        return;
    }
    let cancelled: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::WorkerCancelled {
                worker,
                upper,
                elapsed_us,
                ..
            } => Some((*worker, *upper, *elapsed_us)),
            _ => None,
        })
        .collect();
    assert!(
        !cancelled.is_empty(),
        "expired workers must report WorkerCancelled"
    );
    for (worker, _upper, elapsed_us) in &cancelled {
        assert!(!worker.is_empty());
        assert!(*elapsed_us > 0, "cancellation carries the worker's runtime");
    }
    // some cancelled worker still reports its best bound
    assert!(cancelled.iter().any(|(_, upper, _)| upper.is_some()));
}

#[test]
fn ghw_portfolio_emits_cover_cache_stats() {
    let ring = RingBuffer::new(100_000);
    let h = gen::clique_hypergraph(7);
    let out = solve(&Problem::ghw(h), &traced_cfg(&ring)).unwrap();
    assert_eq!(out.exact_width(), Some(4));
    assert!(
        out.cover_cache_hits + out.cover_cache_misses > 0,
        "ghw solves exercise the cover cache"
    );
    let records = ring.records();
    validate_stream(&records).unwrap_or_else(|e| panic!("malformed stream: {e}"));
    let stats = records
        .iter()
        .find_map(|r| match &r.event {
            Event::CacheStats {
                cache,
                hits,
                misses,
                ..
            } => Some((*cache, *hits, *misses)),
            _ => None,
        })
        .expect("a CacheStats event for the cover cache");
    assert_eq!(stats.0, "cover_exact");
    assert_eq!(stats.1, out.cover_cache_hits);
    assert_eq!(stats.2, out.cover_cache_misses);
}
