//! End-to-end tests: a real server on a loopback port, driven through
//! the TCP client and raw HTTP probes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{Client, InstanceFormat, ServeOptions, Server, Status};

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

fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut body = String::new();
    let mut line = String::new();
    // skip headers
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 || line.trim().is_empty() {
            break;
        }
    }
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        body.push_str(&line);
    }
    (status, body)
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
        "htd_solve_latency_ms_p50",
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

/// The name and labels of a sample line: everything before its value.
fn sample_key(line: &str) -> &str {
    let end = match line.rfind('}') {
        Some(close) => close + 1,
        None => line.find(' ').unwrap_or(line.len()),
    };
    &line[..end]
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

#[test]
fn chaos_mode_survives_panics_and_serves_every_request() {
    let (server, addr) = start(ServeOptions {
        chaos: Some(htd_service::FaultPlan::chaos(42)),
        memory_mb: Some(64),
        ..quiet_opts()
    });
    let mut client = Client::connect(&addr).unwrap();
    let instances: Vec<String> = (0..6)
        .map(|s| io::write_pace_gr(&gen::random_gnp(14, 0.3, s)))
        .collect();
    for i in 0..30u64 {
        let inst = &instances[(i % 6) as usize];
        let mut req = htd_service::SolveRequest {
            objective: Objective::Treewidth,
            format: InstanceFormat::PaceGr,
            instance: inst.clone(),
            deadline_ms: Some(3_000),
            budget: None,
            threads: Some(3),
            engines: None,
            use_cache: false,
            forwarded: false,
        };
        // mix of objectives to exercise more of the portfolio
        if i % 5 == 4 {
            req.objective = Objective::GeneralizedHypertreeWidth;
        }
        let r = client
            .request(&htd_service::Request {
                id: Some(format!("c{i}")),
                cmd: htd_service::Command::Solve(req),
            })
            .expect("server alive");
        // every request gets a valid terminal response: a (possibly
        // degraded) outcome, or an explicit backpressure/timeout/error
        match r.status {
            Status::Ok => {
                let o = r.outcome.expect("ok carries outcome");
                assert!(o.lower <= o.upper);
            }
            Status::Rejected => assert!(r.retry_after_ms.is_some()),
            Status::Timeout | Status::Error => {}
            s => panic!("unexpected status {}", s.name()),
        }
    }
    // the injected panics were quarantined and counted
    let (_, metrics) = http_get(&addr, "/metrics");
    let panics = metrics
        .lines()
        .find(|l| l.starts_with("htd_worker_panics_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        panics > 0,
        "chaos mode should have injected panics:\n{metrics}"
    );
    assert!(
        metrics.contains("htd_engine_quarantined"),
        "quarantine gauge exported"
    );
    assert!(
        metrics.contains("htd_degraded_responses_total"),
        "degraded counter exported"
    );
    server.request_shutdown();
    server.wait();
}
