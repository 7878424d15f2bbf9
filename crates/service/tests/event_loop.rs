//! Concurrency integration tests for the event loop, the server's front
//! end: one poll-driven thread owning accept/read/write for every
//! connection, with per-connection state machines and pipelined batches.
//!
//! Unix-only by construction — the readiness loop is built on poll(2),
//! and on other platforms the server refuses to start.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use htd_core::Json;
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    Client, Command, InstanceFormat, Request, Response, ServeOptions, Server, SolveRequest, Status,
};

mod common;

fn start(opts: ServeOptions) -> (Server, String) {
    let server = Server::start(opts).expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

fn loop_opts() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 8,
        queue_capacity: 64,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    }
}

fn solve_line(id: &str, objective: Objective, instance: &str, deadline_ms: u64) -> String {
    let req = Request {
        id: Some(id.to_string()),
        cmd: Command::Solve(SolveRequest {
            objective,
            format: InstanceFormat::Auto,
            instance: instance.to_string(),
            deadline_ms: Some(deadline_ms),
            budget: None,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    };
    format!("{}\n", req.to_json())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "connection closed before a response");
    Response::from_json(&Json::parse(line.trim()).expect("valid JSON")).expect("valid response")
}

/// A slow-loris connection trickling a frame one byte at a time must
/// neither stall other clients (single loop thread!) nor lose its own
/// request once the newline finally lands.
#[test]
fn slow_loris_partial_frames_do_not_block_other_connections() {
    let (server, addr) = start(loop_opts());

    // warm one instance so the fast client's requests are cache hits
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    let r = warm
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);

    let loris_addr = addr.clone();
    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&loris_addr).unwrap();
        let line = "{\"cmd\":\"ping\",\"id\":\"slow\"}\n";
        for b in line.as_bytes() {
            stream.write_all(std::slice::from_ref(b)).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(3));
        }
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    });

    // while the loris trickles, a well-behaved client gets fast answers
    let mut fast = Client::connect(&addr).unwrap();
    for _ in 0..10 {
        let t = Instant::now();
        let r = fast
            .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
            .unwrap();
        assert_eq!(r.status, Status::Ok);
        assert!(r.cached);
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "cached request stalled behind a slow-loris connection"
        );
    }

    let slow_response = loris.join().unwrap();
    assert_eq!(slow_response.status, Status::Pong);
    assert_eq!(slow_response.id.as_deref(), Some("slow"));

    warm.shutdown().unwrap();
    server.wait();
}

/// The loop parses every request line itself, so parsing must stay
/// linear in the line's length: a 1 MB `solve` (a two-vertex graph padded
/// by one comment line) must not hold a ping on another connection.
#[test]
fn a_megabyte_request_does_not_stall_other_connections() {
    let (server, addr) = start(loop_opts());
    let instance = format!("c {}\np tw 2 1\n1 2\n", "x".repeat(1 << 20));
    let line = solve_line("big", Objective::Treewidth, &instance, 10_000);
    let big_addr = addr.clone();
    let big = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&big_addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        read_response(&mut BufReader::new(stream))
    });
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(&addr).unwrap();
    let t = Instant::now();
    client.ping().unwrap();
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_millis(200),
        "a ping waited {waited:?} behind a 1 MB request"
    );
    let r = big.join().unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_eq!(r.outcome.map(|o| o.upper), Some(1));
    client.shutdown().unwrap();
    server.wait();
}

/// Connections that die mid-frame must be reaped without poisoning the
/// loop: the server keeps answering afterwards.
#[test]
fn mid_frame_disconnects_are_reaped() {
    let (server, addr) = start(loop_opts());
    for i in 0..25 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        // a valid prefix of a frame, never terminated
        let partial = format!("{{\"cmd\":\"solve\",\"id\":\"dead{i}\",\"objective");
        stream.write_all(partial.as_bytes()).unwrap();
        drop(stream); // RST/FIN mid-frame
    }
    // the loop survived all of it and still answers
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    client.shutdown().unwrap();
    server.wait();
}

/// Pipelined batch where a cheap request is sent *after* an expensive
/// one on the same connection: the cheap response must come back first
/// — the whole point of matching responses by id instead of by order.
#[test]
fn pipelined_responses_complete_out_of_order() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..loop_opts()
    });

    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    let r = warm
        .solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok);

    // one connection, two frames back to back: a cold ~600ms solve,
    // then a cache hit
    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 123));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(solve_line("slow", Objective::Treewidth, &hard, 600).as_bytes())
        .unwrap();
    stream
        .write_all(solve_line("fast", Objective::Treewidth, &grid, 600).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);

    let first = read_response(&mut reader);
    assert_eq!(
        first.id.as_deref(),
        Some("fast"),
        "the cached response must overtake the in-flight solve"
    );
    assert_eq!(first.status, Status::Ok);
    assert!(first.cached);

    let second = read_response(&mut reader);
    assert_eq!(second.id.as_deref(), Some("slow"));
    assert!(
        second.status == Status::Ok || second.status == Status::Timeout,
        "{:?}",
        second.error
    );

    warm.shutdown().unwrap();
    server.wait();
}

/// 500 concurrent connections submit short-deadline solves while the
/// single worker is wedged on a long-deadline blocker. No worker will
/// touch them before they expire, so the event loop itself must
/// synthesize their timeouts at `deadline + REPLY_GRACE` — one response
/// per connection, on time, none dropped, none duplicated (the late
/// worker evictions that follow must be swallowed, not double-sent).
#[test]
fn deadline_expiry_under_500_concurrent_connections() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        queue_capacity: 2048,
        ..loop_opts()
    });
    let n = 500usize;
    let deadline_ms = 300u64;

    // wedge the worker: a dense instance with a 6 s deadline
    let blocker_addr = addr.clone();
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(&blocker_addr).unwrap();
        let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 424242));
        c.solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            &hard,
            Some(6_000),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    let t0 = Instant::now();
    let mut streams: Vec<TcpStream> = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let inst = io::write_pace_gr(&gen::random_gnp(18, 0.4, i as u64));
        s.write_all(
            solve_line(&format!("r{i}"), Objective::Treewidth, &inst, deadline_ms).as_bytes(),
        )
        .unwrap();
        streams.push(s);
    }

    let mut timeout = 0usize;
    let mut other = 0usize;
    for (i, s) in streams.iter_mut().enumerate() {
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let r = read_response(&mut reader);
        assert_eq!(r.id.as_deref(), Some(format!("r{i}").as_str()));
        match r.status {
            Status::Timeout => {
                timeout += 1;
                // synthesized by the loop at deadline + grace, never later
                assert!(
                    r.elapsed_ms < 4_000.0,
                    "r{i} expired late: {:.0}ms",
                    r.elapsed_ms
                );
            }
            Status::Ok | Status::Rejected => other += 1,
            s => panic!("connection {i}: unexpected status {}", s.name()),
        }
    }
    assert_eq!(timeout + other, n);
    assert!(
        timeout > n * 9 / 10,
        "worker is wedged: almost all of {n} must expire ({timeout} timeout, {other} other)"
    );
    // all n expiries resolve in a few seconds, not n * deadline
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline sweep took {:?}",
        t0.elapsed()
    );

    // the worker will eventually pop the expired jobs and try to answer
    // them again; those late completions must be dropped, not duplicated
    let b = blocker.join().unwrap();
    assert_eq!(b.status, Status::Ok, "{:?}", b.error);
    std::thread::sleep(Duration::from_millis(500));
    for (i, s) in streams.iter_mut().take(20).enumerate() {
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut buf = [0u8; 64];
        use std::io::Read;
        match s.read(&mut buf) {
            Ok(0) => {} // server closed: fine
            Ok(m) => panic!("connection {i} got {m} extra bytes: a duplicate response"),
            Err(_) => {} // nothing to read within 50ms: fine
        }
    }

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}

/// Graceful drain with a pipelined batch in flight: every admitted
/// request still gets its response (solved or expired) before the
/// server exits, and the connection sees a clean close afterwards.
#[test]
fn graceful_drain_answers_inflight_batch() {
    let (server, addr) = start(ServeOptions {
        threads: 1,
        ..loop_opts()
    });
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    assert_eq!(
        warm.solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
            .unwrap()
            .status,
        Status::Ok
    );

    let hard = io::write_pace_gr(&gen::random_gnp(40, 0.5, 321));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(solve_line("inflight", Objective::Treewidth, &hard, 800).as_bytes())
        .unwrap();
    for i in 0..3 {
        stream
            .write_all(solve_line(&format!("hit{i}"), Objective::Treewidth, &grid, 800).as_bytes())
            .unwrap();
    }
    // let the batch get admitted, then start the drain
    std::thread::sleep(Duration::from_millis(150));
    server.request_shutdown();

    let mut reader = BufReader::new(stream);
    let mut got: Vec<String> = (0..4)
        .map(|_| read_response(&mut reader))
        .map(|r| {
            assert!(
                r.status == Status::Ok || r.status == Status::Timeout,
                "{:?} for {:?}",
                r.status.name(),
                r.id
            );
            r.id.unwrap_or_default()
        })
        .collect();
    got.sort();
    assert_eq!(got, vec!["hit0", "hit1", "hit2", "inflight"]);
    // after the batch is answered the server closes the connection
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
    server.wait();
}

/// Fifty connections each pipeline two rounds of eight requests for the
/// warmed corpus at a 4-worker server: every id comes back exactly once,
/// and every answer is `ok`. A read timeout beyond deadline plus grace
/// turns a lost response into a failure instead of a hang.
#[test]
fn fifty_pipelining_connections_get_each_response_exactly_once() {
    let (connections, rounds, in_flight, deadline_ms) = (50, 2, 8, 10_000);
    let (server, addr) = start(ServeOptions {
        threads: 4,
        cache_mb: 32,
        queue_capacity: 1024,
        default_deadline_ms: 2_000,
        ..loop_opts()
    });
    let corpus = common::corpus();
    let mut warmer = Client::connect(&addr).unwrap();
    for (objective, text) in &corpus {
        warmer
            .solve(*objective, InstanceFormat::Auto, text, Some(deadline_ms))
            .unwrap();
    }

    let faults: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let (addr, corpus) = (&addr, &corpus);
                scope.spawn(move || {
                    let mut faults = Vec::new();
                    let mut client = Client::connect(addr).unwrap();
                    client.set_read_timeout(Some(Duration::from_secs(15)));
                    for round in 0..rounds {
                        let mut unanswered = Vec::new();
                        for k in 0..in_flight {
                            let (objective, text) = &corpus[(ci + round * 3 + k) % corpus.len()];
                            let (req, id) = client.solve_request(
                                *objective,
                                InstanceFormat::Auto,
                                text,
                                Some(deadline_ms),
                            );
                            client.send(&req).unwrap();
                            unanswered.push(id);
                        }
                        for _ in 0..in_flight {
                            let r = match client.recv() {
                                Ok(r) => r,
                                Err(e) => {
                                    faults.push(format!("connection {ci}: {e}"));
                                    return faults;
                                }
                            };
                            let matched =
                                r.id.as_ref()
                                    .and_then(|id| unanswered.iter().position(|x| x == id));
                            match matched {
                                Some(pos) if r.status == Status::Ok => {
                                    unanswered.swap_remove(pos);
                                }
                                Some(pos) => {
                                    unanswered.swap_remove(pos);
                                    faults.push(format!("{:?}: {:?}", r.id, r.error));
                                }
                                None => faults.push(format!("unknown or repeated id {:?}", r.id)),
                            }
                        }
                        if !unanswered.is_empty() {
                            faults.push(format!("connection {ci}: {unanswered:?} unanswered"));
                        }
                    }
                    faults
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    warmer.shutdown().unwrap();
    server.wait();
    assert!(faults.is_empty(), "{} faults: {faults:?}", faults.len());
}

/// Cache misses pipelined on several connections: unlike warm hits,
/// which the event loop answers at admission, every one comes back from
/// a worker as a completion the loop must hand to its connection. Each
/// of the 120 distinct cold instances is answered exactly once, `ok` and
/// uncached; a lost completion would surface as a `timeout` 2 s past its
/// deadline.
#[test]
fn pipelined_cold_misses_are_each_answered_once_by_a_worker() {
    let (connections, per_connection, deadline_ms) = (4, 30, 10_000);
    let (server, addr) = start(ServeOptions {
        threads: 4,
        queue_capacity: 1024,
        ..loop_opts()
    });
    let per_conn: Vec<(Vec<String>, Vec<Response>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_read_timeout(Some(Duration::from_secs(15)));
                    let mut sent = Vec::new();
                    for k in 0..per_connection {
                        let seed = (ci * per_connection + k) as u64;
                        let text = io::write_pace_gr(&gen::random_ktree(14, 3, seed));
                        let (req, id) = client.solve_request(
                            Objective::Treewidth,
                            InstanceFormat::Auto,
                            &text,
                            Some(deadline_ms),
                        );
                        client.send(&req).unwrap();
                        sent.push(id);
                    }
                    let received = (0..per_connection)
                        .map(|_| {
                            client
                                .recv()
                                .unwrap_or_else(|e| panic!("connection {ci}: {e}"))
                        })
                        .collect();
                    (sent, received)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut fingerprints = std::collections::HashSet::new();
    for (ci, (mut sent, received)) in per_conn.into_iter().enumerate() {
        let mut answered: Vec<String> = Vec::new();
        for r in received {
            assert_eq!(r.status, Status::Ok, "connection {ci}: {:?}", r.error);
            assert!(!r.cached, "connection {ci}: {:?} was a cache hit", r.id);
            fingerprints.insert(r.fingerprint.clone().expect("a solve names its instance"));
            answered.push(r.id.expect("a pipelined response carries its id"));
        }
        sent.sort();
        answered.sort();
        assert_eq!(
            answered, sent,
            "connection {ci}: ids not answered exactly once"
        );
    }
    assert_eq!(
        fingerprints.len(),
        connections * per_connection,
        "the instances must be distinct, so every request is a miss"
    );
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}
