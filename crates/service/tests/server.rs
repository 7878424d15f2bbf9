//! End-to-end tests: a real server on a loopback port, driven through
//! the TCP client and raw HTTP probes.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use htd_core::ordering::{EliminationOrdering, TwEvaluator};
use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, io};
use htd_search::{solve, Engine, Objective, SearchConfig};
use htd_service::{
    parse_problem, AnswerMode, CertPush, Client, InstanceFormat, ServeOptions, Server, Status,
};

mod common;
use common::{http_get, sample, sample_key};

fn start(opts: ServeOptions) -> (Server, String) {
    let server = Server::start(opts).expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

fn quiet_opts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 8,
        queue_capacity: 8,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    }
}

#[test]
fn solve_roundtrip_and_cache_hit() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    let grid = io::write_pace_gr(&gen::grid_graph(4, 4));
    let cold = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
    assert!(!cold.cached);
    let outcome = cold.outcome.as_ref().unwrap();
    assert_eq!(outcome.exact_width(), Some(4));
    let fp = cold.fingerprint.clone().unwrap();

    // same instance, relabeled by a different vertex order in the file,
    // must hit the cache via the canonical form
    let warm = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(warm.status, Status::Ok);
    assert!(warm.cached, "second identical request must be a cache hit");
    assert_eq!(warm.fingerprint.as_deref(), Some(fp.as_str()));
    assert_eq!(warm.outcome.unwrap().exact_width(), Some(4));

    // ghw on a hypergraph over the wire in .hg format
    let hg = io::write_hg(&gen::grid2d(3));
    let r = client
        .solve(
            Objective::GeneralizedHypertreeWidth,
            InstanceFormat::Hg,
            &hg,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(r.outcome.unwrap().upper >= 1);

    let stats = client.stats().unwrap();
    assert!(stats.get("cache_hits").unwrap().as_u64().unwrap() >= 1);

    client.shutdown().unwrap();
    server.wait();
}

/// Every server binds with `SO_REUSEADDR`, which still leaves the guard
/// against two servers on one port: binding an addr:port a server is
/// listening on fails with `AddrInUse`.
#[test]
fn a_second_server_on_a_bound_port_fails_with_addr_in_use() {
    let (server, addr) = start(quiet_opts());
    let second = Server::start(ServeOptions {
        addr: addr.clone(),
        ..quiet_opts()
    });
    let err = second
        .err()
        .expect("a second bind of a listening port fails");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}

#[test]
fn verify_responses_oracle_checks_before_caching() {
    let (server, addr) = start(ServeOptions {
        verify_responses: true,
        ..quiet_opts()
    });
    let mut client = Client::connect(&addr).unwrap();

    // honest solves pass the oracle, get cached, and leave the failure
    // counter at zero
    let grid = io::write_pace_gr(&gen::grid_graph(4, 4));
    let cold = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(cold.status, Status::Ok, "{:?}", cold.error);
    assert_eq!(cold.outcome.unwrap().exact_width(), Some(4));
    let warm = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert!(warm.cached, "verified response must still be cacheable");

    let hg = io::write_hg(&gen::grid2d(3));
    let r = client
        .solve(
            Objective::GeneralizedHypertreeWidth,
            InstanceFormat::Hg,
            &hg,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);

    let (_, metrics) = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("htd_oracle_failures_total 0"),
        "oracle failure counter must exist at zero:\n{metrics}"
    );

    client.shutdown().unwrap();
    server.wait();
}

/// An instance without vertices is solved, verified and pushed at width 0
/// without costing the only worker: after two verified solves and a
/// `put_cert` of it, the same worker still answers `queen5_5`.
#[test]
fn instances_without_vertices_keep_the_only_worker() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        verify_responses: true,
        ..quiet_opts()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30)));
    let empty = "p tw 0 0\n";
    for _ in 0..2 {
        let r = client
            .solve(
                Objective::Treewidth,
                InstanceFormat::Auto,
                empty,
                Some(5_000),
            )
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        assert_eq!(r.outcome.unwrap().exact_width(), Some(0));
    }
    let (problem, key) =
        parse_problem(InstanceFormat::PaceGr, empty, Objective::Treewidth).unwrap();
    let r = client
        .put_cert(CertPush {
            objective: Objective::Treewidth,
            format: InstanceFormat::PaceGr,
            instance: empty.into(),
            fingerprint_hex: canonical_form(&key).hex(),
            effort_ms: 5,
            outcome: solve(&problem, &SearchConfig::default()).unwrap(),
            from: Some("peer".into()),
        })
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    let queen = io::write_pace_gr(&gen::queen_graph(5));
    let r = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &queen,
            Some(10_000),
        )
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn deadline_bounded_cold_solve_returns_in_time() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();

    // dense 40-vertex random graph: exact treewidth is far out of reach,
    // so the solve runs to its deadline and must come back anytime-style
    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 42));
    let deadline_ms = 400u64;
    let t0 = Instant::now();
    let r = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &hard,
            Some(deadline_ms),
        )
        .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    let outcome = r.outcome.unwrap();
    assert!(
        !outcome.exact,
        "instance must not be solved exactly in 400ms"
    );
    assert!(outcome.upper < u32::MAX);
    assert!(outcome.lower <= outcome.upper);
    // acceptance criterion: never exceed the deadline by more than 100ms
    assert!(
        elapsed <= Duration::from_millis(deadline_ms + 100),
        "took {elapsed:?} for a {deadline_ms}ms deadline"
    );

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn backpressure_rejects_and_queued_requests_time_out() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        queue_capacity: 1,
        ..quiet_opts()
    });
    // dense 60-vertex random graph: exact treewidth cannot be proved
    // within the blocker's deadline, so the worker stays busy until then
    let hard = io::write_pace_gr(&gen::random_gnp(60, 0.5, 7));

    // occupy the single worker with a long-deadline solve
    let addr_a = addr.clone();
    let hard_a = hard.clone();
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_a).unwrap();
        c.solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &hard_a,
            Some(1_500),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(300));

    // fill the queue with a request whose deadline expires while queued
    let addr_b = addr.clone();
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_b).unwrap();
        // distinct instance so it cannot be served from cache
        let other = io::write_pace_gr(&gen::random_gnp(38, 0.5, 8));
        c.solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &other,
            Some(200),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));

    // queue (capacity 1) now full: this request must be rejected at once
    let mut c = Client::connect(&addr).unwrap();
    let third = io::write_pace_gr(&gen::random_gnp(36, 0.5, 9));
    let t0 = Instant::now();
    let r = c
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &third,
            Some(2_000),
        )
        .unwrap();
    assert_eq!(r.status, Status::Rejected, "{:?}", r.error);
    assert!(r.retry_after_ms.unwrap_or(0) >= 10);
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "rejection must not queue"
    );

    let queued_response = queued.join().unwrap();
    assert_eq!(
        queued_response.status,
        Status::Timeout,
        "a request whose deadline expires in the queue is evicted: {:?}",
        queued_response.error
    );
    let blocker_response = blocker.join().unwrap();
    assert_eq!(blocker_response.status, Status::Ok);
    // the premise of everything above: the blocker held the worker for
    // its whole deadline. A solver fast enough to prove it exactly
    // fails here, not on the backpressure assertions.
    assert!(
        !blocker_response.outcome.unwrap().exact,
        "the blocker must not be solved exactly within its deadline"
    );

    c.shutdown().unwrap();
    server.wait();
}

#[test]
fn healthz_and_metrics_respond_and_errors_carry_codes() {
    let (server, addr) = start(quiet_opts());

    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let mut client = Client::connect(&addr).unwrap();
    // parse error → code 2
    let r = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::PaceGr,
            "p tw garbage",
            None,
        )
        .unwrap();
    assert_eq!(r.status, Status::Error);
    assert_eq!(r.code, Some(2));
    // invalid instance (uncovered vertex for ghw) → code 3
    let r = client
        .solve(
            Objective::GeneralizedHypertreeWidth,
            InstanceFormat::PaceGr,
            "p tw 3 1\n1 2\n",
            None,
        )
        .unwrap();
    assert_eq!(r.status, Status::Error);
    assert_eq!(r.code, Some(3));

    // a real solve, then the metrics must expose it
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let ok = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert_eq!(ok.status, Status::Ok);

    let (status, metrics) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    for series in [
        "htd_requests_total{cmd=\"solve\"}",
        "htd_responses_total{status=\"ok\"}",
        "htd_cache_misses_total",
        "htd_solve_seconds_p50",
        "htd_width_served_total",
        "htd_queue_depth",
        // queueing vs compute latency split
        "htd_queue_seconds_bucket",
        "htd_queue_seconds_count 1",
        "htd_solve_seconds_bucket",
        "htd_solve_seconds_count 1",
        // solver-level series appended from the htd-trace registry
        "htd_solver_expansions_total",
        "htd_solver_deadline_cancellations_total",
        "htd_cover_cache_hit_ratio",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    // the solve above ran through the portfolio: its per-engine expansion
    // series and win attribution must be visible
    assert!(
        metrics.contains("htd_solver_expansions{engine="),
        "missing per-engine expansions in:\n{metrics}"
    );
    assert!(
        metrics.contains("htd_solver_wins{engine="),
        "missing per-engine wins in:\n{metrics}"
    );

    // an answer is timed once on the worker, by its span and by
    // htd_solve_seconds; no per-kind latency family times it again
    let r = client
        .answer("Q(x) :- R(x, y).\nR: 1 2 .", AnswerMode::Count, None, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    let (_, metrics) = http_get(&addr, "/metrics");
    for series in [
        "htd_solve_seconds_count 2",
        "htd_span_seconds_bucket{span=\"service.answer\",",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    for kind in ["solve", "answer"] {
        let gone = format!("htd_{kind}_latency_ms");
        assert!(!metrics.contains(&gone), "{gone} in:\n{metrics}");
    }

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn hw_deadline_frees_the_only_worker() {
    // an exact hw of grid2d_10 takes seconds; its 100 ms deadline must
    // end the solve, or the tw request queued behind it on the single
    // worker times out in the queue
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..quiet_opts()
    });
    let hw = io::write_hg(&gen::named_hypergraph("grid2d_10").unwrap());
    let tw = io::write_pace_gr(&gen::grid_graph(4, 4));
    let mut client = Client::connect(&addr).unwrap();
    let (hw_req, hw_id) = client.solve_request(
        Objective::HypertreeWidth,
        InstanceFormat::Hg,
        &hw,
        Some(100),
    );
    let (tw_req, tw_id) = client.solve_request(
        Objective::Treewidth,
        InstanceFormat::PaceGr,
        &tw,
        Some(1_000),
    );
    client.send(&hw_req).unwrap();
    client.send(&tw_req).unwrap();
    let mut replies = std::collections::HashMap::new();
    for _ in 0..2 {
        let r = client.recv().unwrap();
        replies.insert(r.id.clone().unwrap(), r);
    }
    let tw_reply = &replies[&tw_id];
    assert_eq!(tw_reply.status, Status::Ok, "{:?}", tw_reply.error);
    assert_eq!(tw_reply.outcome.as_ref().unwrap().exact_width(), Some(4));
    let hw_reply = &replies[&hw_id];
    assert_eq!(hw_reply.status, Status::Ok, "{:?}", hw_reply.error);
    let outcome = hw_reply.outcome.as_ref().unwrap();
    assert!(!outcome.exact, "a stopped det-k proves nothing");
    assert_eq!(
        outcome.upper,
        u32::MAX,
        "a stopped det-k has no decomposition"
    );
    // whatever the cache kept of it, it is not an exact answer
    let again = client
        .solve(
            Objective::HypertreeWidth,
            InstanceFormat::Hg,
            &hw,
            Some(100),
        )
        .unwrap();
    assert_eq!(again.status, Status::Ok, "{:?}", again.error);
    assert!(!again.outcome.unwrap().exact);
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn bad_instances_get_the_same_error_cold_and_warm() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    let complete = "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n";
    let bad = [
        // truncated PACE: the last edge lost its second endpoint
        (Objective::Treewidth, "p tw 4 4\n1 2\n2 3\n3 4\n4"),
        // ghw of a graph with an isolated vertex: nothing covers it
        (
            Objective::GeneralizedHypertreeWidth,
            "p tw 5 4\n1 2\n2 3\n3 4\n4 1\n",
        ),
        (Objective::HypertreeWidth, "p tw 5 4\n1 2\n2 3\n3 4\n4 1\n"),
    ];
    let errors = |client: &mut Client| -> Vec<(Status, Option<i64>, Option<String>)> {
        bad.iter()
            .map(|(objective, text)| {
                let r = client
                    .solve(*objective, InstanceFormat::Auto, text, Some(5_000))
                    .unwrap();
                (r.status, r.code, r.error)
            })
            .collect()
    };
    let cold = errors(&mut client);
    assert!(
        cold.iter().all(|(status, ..)| *status == Status::Error),
        "{cold:?}"
    );
    assert_eq!(cold[0].1, Some(2), "a parse error");
    assert_eq!(cold[1].1, Some(3), "an invalid instance");
    // warm the cache with every objective of the complete 4-cycle and of
    // the bad texts' tw readings
    for objective in [
        Objective::Treewidth,
        Objective::GeneralizedHypertreeWidth,
        Objective::HypertreeWidth,
    ] {
        for text in [complete, bad[1].1] {
            let r = client
                .solve(objective, InstanceFormat::Auto, text, Some(5_000))
                .unwrap();
            if objective == Objective::Treewidth || text == complete {
                assert_eq!(r.status, Status::Ok, "{:?}", r.error);
                let hit = client
                    .solve(objective, InstanceFormat::Auto, text, Some(5_000))
                    .unwrap();
                assert!(hit.cached, "{} of {text:?} is cached", objective.name());
            }
        }
    }
    assert_eq!(errors(&mut client), cold);
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn metrics_scrape_names_every_series_once() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    // one solve, so the solver-level series carry samples too
    let ok = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &io::write_pace_gr(&gen::grid_graph(3, 3)),
            Some(5_000),
        )
        .unwrap();
    assert_eq!(ok.status, Status::Ok);
    let (status, metrics) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let mut types = std::collections::HashSet::new();
    let mut samples = std::collections::HashSet::new();
    for line in metrics.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if let Some(ty) = line.strip_prefix("# TYPE ") {
            assert!(types.insert(ty), "repeated '# TYPE {ty}' in:\n{metrics}");
        } else if !line.starts_with('#') {
            let key = sample_key(line);
            assert!(samples.insert(key), "repeated sample {key} in:\n{metrics}");
        }
    }
    assert!(types.len() > 10 && samples.len() > 10, "{metrics}");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..quiet_opts()
    });
    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 99));

    // a solve that takes ~1s occupies the worker…
    let addr_a = addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(&addr_a).unwrap();
        c.solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &hard,
            Some(1_000),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(250));

    // …drain starts while it is running
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();

    // probes stay up during the drain but flip to 503 (load balancers
    // and cluster peers read drain as leave-intent); new solves refused
    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("503"), "{status}");
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    assert!(body.contains("\"draining\":true"), "{body}");
    let refused = c
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &io::write_pace_gr(&gen::grid_graph(3, 3)),
            Some(1_000),
        )
        .unwrap();
    assert_eq!(refused.status, Status::ShuttingDown);

    // the in-flight solve still completes with a real answer
    let r = inflight.join().unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(r.outcome.unwrap().upper < u32::MAX);

    server.wait();
}

#[test]
fn oversized_and_malformed_frames_get_structured_errors() {
    let (server, addr) = start(quiet_opts());

    // a 100 MB garbage frame with no newline: the server must answer with
    // a structured protocol error after at most MAX_FRAME bytes and hang
    // up, never buffering the rest
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..100 {
            // once the server responds and closes, writes start failing —
            // that is the expected backpressure, keep going to the read
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = htd_core::Json::parse(reply.trim()).expect("structured reply");
        assert_eq!(
            doc.get("status").and_then(|v| v.as_str()),
            Some("error"),
            "{reply}"
        );
        assert_eq!(doc.get("code").and_then(|v| v.as_u64()), Some(2));
        assert!(reply.contains("frame exceeds"), "{reply}");
        // connection is closed after the violation
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0);
    }

    // malformed JSON in a well-terminated frame: structured parse error,
    // connection stays usable
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"this is { not json\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = htd_core::Json::parse(reply.trim()).expect("structured reply");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(doc.get("code").and_then(|v| v.as_u64()), Some(2));
        // same connection still answers a valid request afterwards
        stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("pong"), "{reply}");
    }

    server.request_shutdown();
    server.wait();
}

#[test]
fn empty_or_non_string_engine_lists_get_code_4() {
    let (server, addr) = start(quiet_opts());
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for engines in ["[]", "[1,2]"] {
        let line = format!(
            r#"{{"cmd":"solve","objective":"tw","instance":"p tw 3 2\n1 2\n2 3\n","engines":{engines}}}"#
        );
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let doc = htd_core::Json::parse(reply.trim()).expect("structured reply");
        assert_eq!(
            doc.get("status").and_then(|v| v.as_str()),
            Some("error"),
            "{engines}: {reply}"
        );
        assert_eq!(
            doc.get("code").and_then(|v| v.as_u64()),
            Some(4),
            "{engines}: {reply}"
        );
        assert!(reply.contains("branch_bound"), "{engines}: {reply}");
    }
    server.request_shutdown();
    server.wait();
}

/// Query text for shape `s`, data variant `variant`: a circulant rule (a
/// cycle `v_i → v_{i+1}` plus a second shift `v_i → v_{i+k}`) whose
/// treewidth the exact engines cannot prove quickly, so a cold request
/// spends its decomposition budget, over a tiny domain whose semijoin
/// passes cost far less than that search. Every variant of a shape has
/// the same rule and fresh tuples, so all but the first hit the shape
/// cache.
fn circulant_query(s: usize, variant: usize) -> String {
    let mut x = 0xA11CEu64 ^ ((s as u64) << 32) ^ (variant as u64).wrapping_mul(0x1234_5677);
    let mut mix = move || {
        // SplitMix64 finalizer
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = 18 + 2 * s;
    let shift = 4 + s / 2;
    let mut text = String::from("Q(v0, v1) :- ");
    let mut names: Vec<String> = Vec::new();
    for (round, step) in [(0usize, 1usize), (1, shift)] {
        for i in 0..n {
            let name = format!("e{}", round * n + i);
            let sep = if names.is_empty() { "" } else { ", " };
            let _ = write!(text, "{sep}{name}(v{i}, v{})", (i + step) % n);
            names.push(name);
        }
    }
    text.push_str(".\n");
    for name in &names {
        let _ = write!(text, "{name}:");
        for _ in 0..5 {
            let _ = write!(text, " {} {} ;", mix() % 3, mix() % 3);
        }
        text.push_str(" .\n");
    }
    text
}

/// Each shape's first answer decomposes its query; the later variants
/// reuse the cached decomposition with fresh data, so they report
/// `cached` and come back at least 3× faster at the median.
#[test]
fn warm_answers_hit_the_shape_cache_and_beat_cold_ones() {
    let deadline = 4_000;
    let (server, addr) = start(ServeOptions {
        queue_capacity: 64,
        default_deadline_ms: deadline,
        ..quiet_opts()
    });
    let mut client = Client::connect(&addr).unwrap();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for s in 0..2 {
        for variant in 0..10 {
            let t = Instant::now();
            let r = client
                .answer(
                    &circulant_query(s, variant),
                    AnswerMode::Boolean,
                    None,
                    Some(deadline),
                )
                .unwrap();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                r.status,
                Status::Ok,
                "shape {s} variant {variant}: {:?}",
                r.error
            );
            assert_eq!(r.cached, variant > 0, "shape {s} variant {variant}");
            if r.cached { &mut warm } else { &mut cold }.push(ms);
        }
    }
    let p50 = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (cold_p50, warm_p50) = (p50(&mut cold), p50(&mut warm));
    assert!(
        cold_p50 >= 3.0 * warm_p50,
        "warm p50 {warm_p50:.2} ms is not 3x below cold p50 {cold_p50:.2} ms"
    );
    client.shutdown().unwrap();
    server.wait();
}

/// Two clients send 40 requests each to a 4-worker server with 400 ms
/// deadlines, 70 % of them (a fixed draw) replaying the warmed corpus
/// and the rest unique random graphs, while `/healthz` and `/metrics`
/// are probed every 25 ms. Every request is answered `ok`, warm hits
/// come back at least 10× faster than cold solves at the median, no cold
/// solve overshoots its deadline by more than 100 ms, every probe gets a
/// 200, and the server drains on shutdown.
#[test]
fn mixed_warm_and_cold_load_keeps_the_latency_bars() {
    let (clients, requests, deadline_ms) = (2usize, 40usize, 400u64);
    let (server, addr) = start(ServeOptions {
        threads: 4,
        cache_mb: 32,
        queue_capacity: 256,
        default_deadline_ms: deadline_ms,
        ..quiet_opts()
    });
    let corpus = common::corpus();
    let mut warmer = Client::connect(&addr).unwrap();
    for (objective, text) in &corpus {
        warmer
            .solve(*objective, InstanceFormat::Auto, text, Some(deadline_ms))
            .unwrap();
    }

    let probe_addr = addr.clone();
    let probes = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for _ in 0..20 {
            for path in ["/healthz", "/metrics"] {
                statuses.push((path, http_get(&probe_addr, path).0));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        statuses
    });
    // per request: (cached, milliseconds, status, error)
    let runs: Vec<(bool, f64, Status, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let (addr, corpus) = (&addr, &corpus);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut runs = Vec::new();
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ ((ci as u64) << 32);
                    for i in 0..requests {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let (objective, text) = if (x >> 33) % 100 < 70 {
                            corpus[(x >> 7) as usize % corpus.len()].clone()
                        } else {
                            // a unique instance, so a guaranteed miss
                            let n = 20 + ((ci * requests + i) % 12) as u32;
                            let g = gen::random_gnp(n, 0.45, ((ci as u64) << 32) | i as u64);
                            (Objective::Treewidth, io::write_pace_gr(&g))
                        };
                        let t = Instant::now();
                        let r = client
                            .solve(objective, InstanceFormat::Auto, &text, Some(deadline_ms))
                            .unwrap();
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        runs.push((r.cached, ms, r.status, r.error));
                    }
                    runs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let probes = probes.join().unwrap();
    warmer.shutdown().unwrap();
    server.wait();

    let failed: Vec<_> = runs.iter().filter(|r| r.2 != Status::Ok).collect();
    assert!(
        failed.is_empty(),
        "{} requests not ok: {failed:?}",
        failed.len()
    );
    let p50 = |cached: bool| {
        let mut ms: Vec<f64> = runs.iter().filter(|r| r.0 == cached).map(|r| r.1).collect();
        assert!(!ms.is_empty(), "no request with cached = {cached}");
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let (cold_p50, warm_p50) = (p50(false), p50(true));
    let worst_overshoot = runs
        .iter()
        .filter(|r| !r.0)
        .map(|r| r.1 - deadline_ms as f64)
        .fold(0.0, f64::max);
    let warm = runs.iter().filter(|r| r.0).count();
    println!(
        "{warm} warm, p50 {warm_p50:.2} ms; {} cold, p50 {cold_p50:.2} ms ({:.0}x); worst overshoot {worst_overshoot:.0} ms",
        runs.len() - warm,
        cold_p50 / warm_p50
    );
    assert!(
        cold_p50 >= 10.0 * warm_p50,
        "warm p50 {warm_p50:.2} ms is not 10x below cold p50 {cold_p50:.2} ms"
    );
    assert!(
        worst_overshoot <= 100.0,
        "a cold solve overshot its {deadline_ms} ms deadline by {worst_overshoot:.0} ms"
    );
    for (path, status) in &probes {
        assert!(status.starts_with("HTTP/1.1 200"), "{path}: {status}");
    }
}

/// A `put_cert` claiming a larger exact width than the node holds does
/// not replace the node's answer: the cached witness achieves a smaller
/// width, so the claim cannot be exact. The node keeps serving its own
/// answer and counts the contradiction.
#[test]
fn a_larger_exact_claim_does_not_replace_a_smaller_verified_width() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    let grid = io::write_pace_gr(&gen::grid_graph(4, 4));
    let cold = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    let mut claim = cold.outcome.expect("solved");
    assert_eq!(claim.exact_width(), Some(4));

    // even vertices first: a genuine witness of width 8, claimed exact
    let (problem, key) =
        parse_problem(InstanceFormat::PaceGr, &grid, Objective::Treewidth).unwrap();
    let order: Vec<u32> = (0..16)
        .filter(|v| v % 2 == 0)
        .chain((0..16).filter(|v| v % 2 == 1))
        .collect();
    let width = TwEvaluator::new(problem.graph()).width(&order);
    assert_eq!(width, 8);
    claim.lower = width;
    claim.upper = width;
    claim.witness = Some(EliminationOrdering::new_unchecked(order));
    let r = client
        .put_cert(CertPush {
            objective: Objective::Treewidth,
            format: InstanceFormat::PaceGr,
            instance: grid.clone(),
            fingerprint_hex: canonical_form(&key).hex(),
            effort_ms: 5,
            outcome: claim,
            from: Some("peer".into()),
        })
        .unwrap();
    // the witness itself checks out; only the exactness claim is false
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);

    let warm = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &grid,
            Some(5_000),
        )
        .unwrap();
    assert!(warm.cached);
    let o = warm.outcome.unwrap();
    assert_eq!((o.lower, o.upper, o.exact), (4, 4, true));
    let (_, metrics) = http_get(&addr, "/metrics");
    assert_eq!(sample(&metrics, "htd_cache_contradictions_total"), 1);
    client.shutdown().unwrap();
    server.wait();
}

/// The samples of a labeled family, one per label set.
fn labeled_samples<'m>(metrics: &'m str, family: &str) -> Vec<(&'m str, u64)> {
    let prefix = format!("{family}{{");
    metrics
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| {
            let key = sample_key(l);
            (key, l[key.len()..].trim().parse().unwrap())
        })
        .collect()
}

/// Two nodes in one process each report only their own work: after five
/// solves on a node with a store, the other node's request, store and
/// solver series all read zero.
#[test]
fn each_node_reports_only_its_own_work() {
    let dir = std::env::temp_dir().join(format!("htd-server-own-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (a, addr_a) = start(ServeOptions {
        store_dir: Some(dir.clone()),
        ..quiet_opts()
    });
    let (b, addr_b) = start(quiet_opts());
    let mut client = Client::connect(&addr_a).unwrap();
    for (objective, text) in common::corpus().into_iter().take(5) {
        let r = client
            .solve(objective, InstanceFormat::Auto, &text, Some(10_000))
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    }

    let (_, on_a) = http_get(&addr_a, "/metrics");
    assert_eq!(sample(&on_a, "htd_requests_total{cmd=\"solve\"}"), 5);
    assert_eq!(sample(&on_a, "htd_store_appends_total"), 5);
    assert!(sample(&on_a, "htd_store_bytes") > 0);
    let wins: u64 = labeled_samples(&on_a, "htd_solver_wins")
        .iter()
        .map(|s| s.1)
        .sum();
    assert_eq!(wins, 5, "{on_a}");

    let (_, on_b) = http_get(&addr_b, "/metrics");
    for key in [
        "htd_requests_total{cmd=\"solve\"}",
        "htd_store_appends_total",
        "htd_store_bytes",
        "htd_solver_expansions_total",
    ] {
        assert_eq!(sample(&on_b, key), 0, "{key} on the idle node:\n{on_b}");
    }
    for family in ["htd_solver_wins", "htd_solver_expansions"] {
        let series = labeled_samples(&on_b, family);
        assert_eq!(series.len(), Engine::ALL.len(), "{family}:\n{on_b}");
        for (key, v) in series {
            assert_eq!(v, 0, "{key} on the idle node:\n{on_b}");
        }
    }
    for server in [a, b] {
        server.request_shutdown();
        server.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The solver series fold each solve's outcome in once: after cold
/// solves on one node, the expansion total is the sum of the responses'
/// `nodes`, and so is the sum of the per-engine series.
#[test]
fn solver_series_sum_the_outcomes_of_the_nodes_solves() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    let (mut nodes, mut winners) = (0, 0);
    for (objective, text) in common::corpus() {
        let (mut req, _) =
            client.solve_request(objective, InstanceFormat::Auto, &text, Some(10_000));
        if let htd_service::Command::Solve(s) = &mut req.cmd {
            s.threads = Some(3);
        }
        let r = client.request(&req).unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        assert!(!r.cached);
        let o = r.outcome.unwrap();
        nodes += o.nodes;
        winners += u64::from(o.winner.is_some());
    }
    assert!(nodes > 0);
    let (_, metrics) = http_get(&addr, "/metrics");
    assert_eq!(sample(&metrics, "htd_solver_expansions_total"), nodes);
    let per_engine: u64 = labeled_samples(&metrics, "htd_solver_expansions")
        .iter()
        .map(|s| s.1)
        .sum();
    assert_eq!(per_engine, nodes, "{metrics}");
    let wins: u64 = labeled_samples(&metrics, "htd_solver_wins")
        .iter()
        .map(|s| s.1)
        .sum();
    assert_eq!(wins, winners, "{metrics}");
    client.shutdown().unwrap();
    server.wait();
}

/// A node counts its answers from the pipeline's results and an
/// oversized query at admission; an answer's own decomposition solve
/// stays out of the solver series.
#[test]
fn answers_and_refusals_are_counted_by_the_node() {
    let (server, addr) = start(quiet_opts());
    let mut client = Client::connect(&addr).unwrap();
    let cart = "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .";
    let r = client.answer(cart, AnswerMode::Count, None, None).unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    let chain: Vec<String> = (0..16_384)
        .map(|i| format!("R(v{i}, v{})", i + 1))
        .collect();
    let wide = format!("Q() :- {}.\nR: 1 2 .", chain.join(", "));
    let r = client.answer(&wide, AnswerMode::Count, None, None).unwrap();
    assert_eq!(r.code, Some(6), "{r:?}");
    let (_, metrics) = http_get(&addr, "/metrics");
    for (key, want) in [
        ("htd_answers_total", 1),
        ("htd_answer_refusals_total", 1),
        ("htd_answer_shape_cache_misses_total", 1),
        ("htd_solver_expansions_total", 0),
    ] {
        assert_eq!(sample(&metrics, key), want, "{key}:\n{metrics}");
    }
    assert!(sample(&metrics, "htd_answer_tuples_scanned_total") > 0);
    client.shutdown().unwrap();
    server.wait();
}

/// Every family docs/observability.md names.
const FAMILIES: &[&str] = &[
    "htd_requests_total",
    "htd_responses_total",
    "htd_cache_hits_total",
    "htd_cache_misses_total",
    "htd_cache_entries",
    "htd_cache_bytes",
    "htd_cache_contradictions_total",
    "htd_queue_depth",
    "htd_inflight",
    "htd_draining",
    "htd_uptime_ms",
    "htd_exact_served_total",
    "htd_inexact_served_total",
    "htd_cluster_forwards_total",
    "htd_cluster_failovers_total",
    "htd_cluster_local_fallbacks_total",
    "htd_cluster_replications_total",
    "htd_cluster_handoffs_queued_total",
    "htd_cluster_handoffs_delivered_total",
    "htd_cluster_certs_accepted_total",
    "htd_cluster_cert_rejects_total",
    "htd_cluster_probe_failures_total",
    "htd_cluster_ring_size",
    "htd_cluster_peers",
    "htd_request_latency_ms",
    "htd_queue_seconds",
    "htd_solve_seconds",
    "htd_width_served_total",
    "htd_cover_cache_hit_ratio",
    "htd_solver_expansions_total",
    "htd_cover_cache_hits_total",
    "htd_cover_cache_misses_total",
    "htd_solver_deadline_cancellations_total",
    "htd_engines_skipped_total",
    "htd_detk_subproblems_total",
    "htd_detk_separators_tried_total",
    "htd_detk_memo_hits_total",
    "htd_worker_panics_total",
    "htd_mem_budget_aborts_total",
    "htd_degraded_responses_total",
    "htd_oracle_failures_total",
    "htd_solver_expansions",
    "htd_solver_wins",
    "htd_engine_quarantined",
    "htd_answers_total",
    "htd_answer_tuples_scanned_total",
    "htd_answer_refusals_total",
    "htd_answer_shape_cache_hits_total",
    "htd_answer_shape_cache_misses_total",
    "htd_eventloop_wakeups_total",
    "htd_eventloop_salvaged_frames_total",
    "htd_pipelined_requests_total",
    "htd_store_loaded_total",
    "htd_store_rejects_total",
    "htd_store_truncated_total",
    "htd_store_appends_total",
    "htd_eventloop_connections",
    "htd_store_bytes",
    "htd_span_seconds",
];

/// A fresh node renders its whole schema from the first scrape: every
/// family has its `# TYPE` line, and the series that used to appear only
/// on first use are there at zero.
#[test]
fn a_fresh_node_renders_its_whole_schema_at_zero() {
    let (server, addr) = start(quiet_opts());
    let (_, metrics) = http_get(&addr, "/metrics");
    let types: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|t| t.split_whitespace().next())
        .collect();
    for family in FAMILIES {
        assert!(
            types.contains(family),
            "missing family {family} in:\n{metrics}"
        );
    }
    assert_eq!(types.len(), FAMILIES.len(), "{types:?}");
    for key in [
        "htd_eventloop_salvaged_frames_total",
        "htd_engines_skipped_total",
        "htd_detk_subproblems_total",
        "htd_detk_separators_tried_total",
        "htd_detk_memo_hits_total",
        "htd_cache_contradictions_total",
    ] {
        assert_eq!(sample(&metrics, key), 0, "{key}");
    }
    for family in ["htd_solver_expansions", "htd_solver_wins"] {
        let series = labeled_samples(&metrics, family);
        let engines: Vec<String> = Engine::ALL
            .iter()
            .map(|e| format!("{family}{{engine=\"{}\"}}", e.name()))
            .collect();
        assert_eq!(
            series.iter().map(|s| s.0).collect::<Vec<_>>(),
            engines,
            "{metrics}"
        );
        assert!(series.iter().all(|s| s.1 == 0), "{metrics}");
    }
    server.request_shutdown();
    server.wait();
}
