//! Deadlines of single solves: the portfolio and det-k stop at their
//! time limit, and the `Outcome` of each solve the deadline stopped says
//! so once (`deadline_stopped`, which a server counts in
//! `htd_solver_deadline_cancellations_total`).
//!
//! The tests time their solves, so they run one at a time.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use htd_hypergraph::gen;
use htd_search::{det_k_decomp, solve, Incumbent, Problem, SearchConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn portfolio_stops_at_its_deadline_and_counts_it_once() {
    let _serial = serial();
    // queen8 is far beyond any sub-second exact solve
    let problem = Problem::treewidth(gen::queen_graph(8));
    let cfg = SearchConfig::default()
        .with_threads(2)
        .with_max_nodes(u64::MAX)
        .with_time_limit(Duration::from_millis(50));
    let started = Instant::now();
    let out = solve(&problem, &cfg).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(75),
        "a 50 ms solve took {elapsed:?}"
    );
    assert!(!out.exact);
    assert!(out.lower <= out.upper);
    assert!(out.deadline_stopped);
}

#[test]
fn hw_solve_stops_at_its_deadline() {
    let _serial = serial();
    // an exact hw of grid2d_10 takes seconds
    let h = gen::named_hypergraph("grid2d_10").expect("suite hypergraph");
    let cfg = SearchConfig::default().with_time_limit(Duration::from_millis(100));
    let started = Instant::now();
    let out = solve(&Problem::hw(h.clone()), &cfg).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "a 100 ms hw solve took {elapsed:?}"
    );
    assert!(!out.exact, "a stopped det-k proves nothing");
    assert_eq!(out.upper, u32::MAX, "a stopped det-k has no decomposition");
    assert!(out.per_engine.iter().all(|r| !r.exact));
    assert!(out.deadline_stopped);
    // every width below the lower bound was refuted before the deadline
    assert!(out.lower >= 1);
    assert!(det_k_decomp(&h, out.lower - 1).is_none());
}

#[test]
fn hw_solve_stops_when_its_incumbent_is_cancelled() {
    let _serial = serial();
    let h = gen::named_hypergraph("grid2d_10").expect("suite hypergraph");
    let inc = Arc::new(Incumbent::new());
    let cfg = SearchConfig {
        shared: Some(Arc::clone(&inc)),
        ..SearchConfig::default()
    };
    let canceller = {
        let inc = Arc::clone(&inc);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            inc.cancel();
        })
    };
    let started = Instant::now();
    let out = solve(&Problem::hw(h), &cfg).unwrap();
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    assert!(
        elapsed < Duration::from_millis(150),
        "a cancelled hw solve took {elapsed:?}"
    );
    assert!(!out.exact);
    assert_eq!(out.upper, u32::MAX);
    assert!(!out.deadline_stopped, "a caller's cancel is not a deadline");
}
