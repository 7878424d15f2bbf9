//! Pins what the request path answers and counts, so a change to how
//! `solve`, `answer` and `put_cert` are admitted, queued, run or counted
//! cannot silently move a status, an error, a cache flag or a counter.
//!
//! * One node with one worker, a queue of one job and a certificate
//!   store: a solve miss and its cache hit, parse errors of an instance
//!   and of a query, an answer, queue-full rejections, an expiry in the
//!   queue, an accepted and an oracle-rejected `put_cert`, and the drain.
//! * Two nodes with one owner per key: a forward to the owner, then the
//!   local fallback once the owner is killed.
//!
//! For each response the transcript holds `status`, `code`, `error`,
//! `cached`, `fingerprint`, `canonical`, `node` and whether a
//! `retry_after_ms` hint was sent. After each phase it holds every
//! request, response, cache and cluster counter of `/metrics` and every
//! counter key of `stats`. Latencies are left out.
//!
//! To re-record after an intended change, run
//! `cargo test --release -p htd-service --test request_pins -- --nocapture`:
//! a failing test prints its whole transcript, which replaces the pinned
//! constant.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, io};
use htd_search::{solve, Objective, SearchConfig};
use htd_service::{
    parse_problem, AnswerMode, AnswerRequest, CertPush, Client, ClusterConfig, Command,
    InstanceFormat, PeerSpec, Request, Response, ServeOptions, Server, SolveRequest,
};

mod common;
use common::{free_port, scrape};

const CART: &str = "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .";
const BAD_QUERY: &str = "Q(x :- R(x).";
const BAD_INSTANCE: &str = "p tw 3 2\n1 2\n";

/// The pinned transcript of [`single_node_request_paths`].
const SINGLE_NODE: &str = r#"solve miss: status=ok code=- error=- cached=false fingerprint=b9842943ee4ab96d canonical=true node=- retry_after=no
solve hit: status=ok code=- error=- cached=true fingerprint=b9842943ee4ab96d canonical=true node=- retry_after=no
bad instance: status=error code=2 error=parse error: the header declares 2 edges, found 1 cached=false fingerprint=- canonical=false node=- retry_after=no
bad query: status=error code=2 error=parse error: expected ',' or ')' in term list but found ':-' cached=false fingerprint=- canonical=false node=- retry_after=no
answer: status=ok code=- error=- cached=false fingerprint=dd38573afee722e5 canonical=true node=- retry_after=no
put_cert accepted: status=ok code=- error=- cached=false fingerprint=e31beb8233793fd7 canonical=false node=- retry_after=no
put_cert tampered: status=error code=3 error=invalid instance: pushed certificate failed oracle re-verification cached=false fingerprint=014334e83a5a3965 canonical=false node=- retry_after=no
[free] metrics: requests_total{cmd="solve"} 3 requests_total{cmd="answer"} 2 requests_total{cmd="ping"} 0 requests_total{cmd="stats"} 0 requests_total{cmd="put_cert"} 2 requests_total{cmd="http"} 1 responses_total{status="ok"} 4 responses_total{status="rejected"} 0 responses_total{status="timeout"} 0 responses_total{status="error"} 3 responses_total{status="shutting_down"} 0 cache_hits_total 1 cache_misses_total 1 cluster_forwards_total 0 cluster_failovers_total 0 cluster_local_fallbacks_total 0 cluster_replications_total 0 cluster_handoffs_queued_total 0 cluster_handoffs_delivered_total 0 cluster_certs_accepted_total 1 cluster_cert_rejects_total 1 cluster_probe_failures_total 0
[free] stats: solve_requests=3 answer_requests=2 ok=4 rejected=0 timeouts=0 errors=3 cache_hits=1 cache_misses=1 cluster_forwards=0 cluster_failovers=0 cluster_cert_rejects=1
solve queue full: status=rejected code=- error=work queue full cached=false fingerprint=4c6abc8f1d5e4719 canonical=false node=- retry_after=yes
answer queue full: status=rejected code=- error=work queue full cached=false fingerprint=- canonical=false node=- retry_after=yes
put_cert queue full: status=rejected code=- error=work queue full cached=false fingerprint=e31beb8233793fd7 canonical=false node=- retry_after=no
expired in queue: status=timeout code=- error=deadline expired in queue cached=false fingerprint=9829f61d65f167aa canonical=true node=- retry_after=no
busy solve: status=ok code=- error=- cached=false fingerprint=36b00588482de19b canonical=true node=- retry_after=no
[saturated] metrics: requests_total{cmd="solve"} 6 requests_total{cmd="answer"} 3 requests_total{cmd="ping"} 0 requests_total{cmd="stats"} 1 requests_total{cmd="put_cert"} 3 requests_total{cmd="http"} 2 responses_total{status="ok"} 5 responses_total{status="rejected"} 3 responses_total{status="timeout"} 1 responses_total{status="error"} 3 responses_total{status="shutting_down"} 0 cache_hits_total 1 cache_misses_total 4 cluster_forwards_total 0 cluster_failovers_total 0 cluster_local_fallbacks_total 0 cluster_replications_total 0 cluster_handoffs_queued_total 0 cluster_handoffs_delivered_total 0 cluster_certs_accepted_total 1 cluster_cert_rejects_total 1 cluster_probe_failures_total 0
[saturated] stats: solve_requests=6 answer_requests=3 ok=5 rejected=3 timeouts=1 errors=3 cache_hits=1 cache_misses=4 cluster_forwards=0 cluster_failovers=0 cluster_cert_rejects=1
shutdown: status=shutting_down code=- error=- cached=false fingerprint=- canonical=false node=- retry_after=no
draining hit: status=ok code=- error=- cached=true fingerprint=b9842943ee4ab96d canonical=true node=- retry_after=no
draining miss: status=shutting_down code=- error=server is draining cached=false fingerprint=- canonical=false node=- retry_after=no
draining bad instance: status=error code=2 error=parse error: the header declares 2 edges, found 1 cached=false fingerprint=- canonical=false node=- retry_after=no
draining bad query: status=error code=2 error=parse error: expected ',' or ')' in term list but found ':-' cached=false fingerprint=- canonical=false node=- retry_after=no
draining answer: status=shutting_down code=- error=server is draining cached=false fingerprint=- canonical=false node=- retry_after=no
draining put_cert: status=shutting_down code=- error=server is draining cached=false fingerprint=- canonical=false node=- retry_after=no
[draining] metrics: requests_total{cmd="solve"} 9 requests_total{cmd="answer"} 5 requests_total{cmd="ping"} 0 requests_total{cmd="stats"} 2 requests_total{cmd="put_cert"} 4 requests_total{cmd="http"} 3 responses_total{status="ok"} 6 responses_total{status="rejected"} 3 responses_total{status="timeout"} 1 responses_total{status="error"} 5 responses_total{status="shutting_down"} 3 cache_hits_total 2 cache_misses_total 5 cluster_forwards_total 0 cluster_failovers_total 0 cluster_local_fallbacks_total 0 cluster_replications_total 0 cluster_handoffs_queued_total 0 cluster_handoffs_delivered_total 0 cluster_certs_accepted_total 1 cluster_cert_rejects_total 1 cluster_probe_failures_total 0
[draining] stats: solve_requests=9 answer_requests=5 ok=6 rejected=3 timeouts=1 errors=5 cache_hits=2 cache_misses=5 cluster_forwards=0 cluster_failovers=0 cluster_cert_rejects=1
"#;

/// The pinned transcript of [`two_nodes_forward_then_fall_back`].
const TWO_NODES: &str = r#"forwarded to owner: status=ok code=- error=- cached=false fingerprint=06f3566efcc2f137 canonical=true node=a retry_after=no
[forward] metrics: requests_total{cmd="solve"} 1 requests_total{cmd="answer"} 0 requests_total{cmd="ping"} 0 requests_total{cmd="stats"} 0 requests_total{cmd="put_cert"} 0 requests_total{cmd="http"} 1 responses_total{status="ok"} 0 responses_total{status="rejected"} 0 responses_total{status="timeout"} 0 responses_total{status="error"} 0 responses_total{status="shutting_down"} 0 cache_hits_total 0 cache_misses_total 1 cluster_forwards_total 1 cluster_failovers_total 0 cluster_local_fallbacks_total 0 cluster_replications_total 0 cluster_handoffs_queued_total 0 cluster_handoffs_delivered_total 0 cluster_certs_accepted_total 0 cluster_cert_rejects_total 0 cluster_probe_failures_total 0
[forward] stats: solve_requests=1 answer_requests=0 ok=0 rejected=0 timeouts=0 errors=0 cache_hits=0 cache_misses=1 cluster_forwards=1 cluster_failovers=0 cluster_cert_rejects=0
owner dead, local fallback: status=ok code=- error=- cached=false fingerprint=06f3566efcc2f137 canonical=true node=b retry_after=no
[fallback] metrics: requests_total{cmd="solve"} 2 requests_total{cmd="answer"} 0 requests_total{cmd="ping"} 0 requests_total{cmd="stats"} 1 requests_total{cmd="put_cert"} 0 requests_total{cmd="http"} 2 responses_total{status="ok"} 1 responses_total{status="rejected"} 0 responses_total{status="timeout"} 0 responses_total{status="error"} 0 responses_total{status="shutting_down"} 0 cache_hits_total 0 cache_misses_total 2 cluster_forwards_total 1 cluster_failovers_total 1 cluster_local_fallbacks_total 1 cluster_replications_total 0 cluster_handoffs_queued_total 0 cluster_handoffs_delivered_total 0 cluster_certs_accepted_total 0 cluster_cert_rejects_total 0 cluster_probe_failures_total 0
[fallback] stats: solve_requests=2 answer_requests=0 ok=1 rejected=0 timeouts=0 errors=0 cache_hits=0 cache_misses=2 cluster_forwards=1 cluster_failovers=1 cluster_cert_rejects=0
"#;

struct Transcript(String);

impl Transcript {
    fn response(&mut self, what: &str, r: &Response) {
        self.0.push_str(&format!(
            "{what}: status={} code={} error={} cached={} fingerprint={} canonical={} node={} retry_after={}\n",
            r.status.name(),
            r.code.map_or("-".to_string(), |c| c.to_string()),
            r.error.as_deref().unwrap_or("-"),
            r.cached,
            r.fingerprint.as_deref().unwrap_or("-"),
            r.canonical,
            r.node.as_deref().unwrap_or("-"),
            if r.retry_after_ms.is_some() { "yes" } else { "no" },
        ));
    }

    /// Every request, response, cache and cluster counter of `/metrics`,
    /// then every counter key of `stats`, in that order.
    fn counters(&mut self, phase: &str, addr: &str) {
        self.0.push_str(&format!("[{phase}] metrics:"));
        for line in scrape(addr).lines() {
            let counter = line.starts_with("htd_requests_total{")
                || line.starts_with("htd_responses_total{")
                || line.starts_with("htd_cache_hits_total ")
                || line.starts_with("htd_cache_misses_total ")
                || (line.starts_with("htd_cluster_") && line.contains("_total "));
            if counter {
                self.0.push(' ');
                self.0.push_str(line.trim_start_matches("htd_"));
            }
        }
        self.0.push_str(&format!("\n[{phase}] stats:"));
        let stats = Client::connect(addr).unwrap().stats().unwrap();
        for key in [
            "solve_requests",
            "answer_requests",
            "ok",
            "rejected",
            "timeouts",
            "errors",
            "cache_hits",
            "cache_misses",
            "cluster_forwards",
            "cluster_failovers",
            "cluster_cert_rejects",
        ] {
            let v = stats.get(key).and_then(|v| v.as_u64()).unwrap();
            self.0.push_str(&format!(" {key}={v}"));
        }
        self.0.push('\n');
    }

    fn check(self, want: &str) {
        if self.0 != want {
            eprintln!("--- transcript ---\n{}--- end ---", self.0);
        }
        assert_eq!(self.0, want);
    }
}

fn solve_req(id: &str, instance: &str, deadline_ms: Option<u64>) -> Request {
    Request {
        id: Some(id.into()),
        cmd: Command::Solve(SolveRequest {
            objective: Objective::Treewidth,
            format: InstanceFormat::PaceGr,
            instance: instance.into(),
            deadline_ms,
            budget: None,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

fn answer_req(id: &str, query: &str) -> Request {
    Request {
        id: Some(id.into()),
        cmd: Command::Answer(AnswerRequest {
            query: query.into(),
            mode: AnswerMode::Count,
            limit: None,
            deadline_ms: None,
            threads: None,
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

/// A `put_cert` of `instance`'s treewidth; `tamper` claims one less than
/// the true width, which the receiver's oracle must refuse.
fn put_cert_req(id: &str, instance: &str, tamper: bool) -> Request {
    let (problem, key) = parse_problem(InstanceFormat::PaceGr, instance, Objective::Treewidth)
        .expect("test instance parses");
    let mut outcome = solve(&problem, &SearchConfig::budgeted(200_000)).expect("solves");
    assert!(outcome.exact, "the pushed certificate is exact");
    if tamper {
        outcome.lower -= 1;
        outcome.upper -= 1;
    }
    Request {
        id: Some(id.into()),
        cmd: Command::PutCert(CertPush {
            objective: Objective::Treewidth,
            format: InstanceFormat::PaceGr,
            instance: instance.into(),
            fingerprint_hex: canonical_form(&key).hex(),
            effort_ms: 5,
            outcome,
            from: Some("peer".into()),
        }),
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("htd-{name}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn single_node_request_paths() {
    let store = scratch_dir("request-pins");
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_mb: 8,
        queue_capacity: 1,
        default_deadline_ms: 10_000,
        store_dir: Some(store.clone()),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut t = Transcript(String::new());
    let mut c = Client::connect(&addr).unwrap();
    let grid = io::write_pace_gr(&gen::grid_graph(4, 4));
    let cycle = io::write_pace_gr(&gen::cycle_graph(7));
    let path = io::write_pace_gr(&gen::path_graph(6));

    // served by a free worker
    t.response(
        "solve miss",
        &c.request(&solve_req("s1", &grid, None)).unwrap(),
    );
    t.response(
        "solve hit",
        &c.request(&solve_req("s2", &grid, None)).unwrap(),
    );
    t.response(
        "bad instance",
        &c.request(&solve_req("s3", BAD_INSTANCE, None)).unwrap(),
    );
    t.response(
        "bad query",
        &c.request(&answer_req("a1", BAD_QUERY)).unwrap(),
    );
    t.response("answer", &c.request(&answer_req("a2", CART)).unwrap());
    t.response(
        "put_cert accepted",
        &c.request(&put_cert_req("p1", &cycle, false)).unwrap(),
    );
    t.response(
        "put_cert tampered",
        &c.request(&put_cert_req("p2", &path, true)).unwrap(),
    );
    t.counters("free", &addr);

    // saturated: the worker runs a solve that takes its whole deadline,
    // the one queue slot holds a solve whose deadline passes meanwhile,
    // and every further job is refused
    let hard = io::write_pace_gr(&gen::random_gnp(60, 0.5, 1));
    let mut busy = Client::connect(&addr).unwrap();
    busy.send(&solve_req("busy", &hard, Some(2_000))).unwrap();
    let m = server.metrics();
    wait_for("the busy solve to start", || {
        m.inflight.load(Ordering::SeqCst) == 1 && m.queue_depth.load(Ordering::SeqCst) == 0
    });
    let mut queued = Client::connect(&addr).unwrap();
    let star = io::write_pace_gr(&gen::complete_graph(5));
    queued.send(&solve_req("queued", &star, Some(50))).unwrap();
    wait_for("the queued solve", || {
        m.queue_depth.load(Ordering::SeqCst) == 1
    });
    let queen = io::write_pace_gr(&gen::queen_graph(4));
    t.response(
        "solve queue full",
        &c.request(&solve_req("s4", &queen, None)).unwrap(),
    );
    t.response(
        "answer queue full",
        &c.request(&answer_req("a3", CART)).unwrap(),
    );
    t.response(
        "put_cert queue full",
        &c.request(&put_cert_req("p3", &cycle, false)).unwrap(),
    );
    t.response("expired in queue", &queued.recv().unwrap());
    t.response("busy solve", &busy.recv().unwrap());
    t.counters("saturated", &addr);

    // draining: parse errors and hits are still answered, new work is not
    let bye = Request {
        id: Some("bye".into()),
        cmd: Command::Shutdown,
    };
    t.response("shutdown", &c.request(&bye).unwrap());
    t.response(
        "draining hit",
        &c.request(&solve_req("s5", &grid, None)).unwrap(),
    );
    t.response(
        "draining miss",
        &c.request(&solve_req("s6", &queen, None)).unwrap(),
    );
    t.response(
        "draining bad instance",
        &c.request(&solve_req("s7", BAD_INSTANCE, None)).unwrap(),
    );
    t.response(
        "draining bad query",
        &c.request(&answer_req("a4", BAD_QUERY)).unwrap(),
    );
    t.response(
        "draining answer",
        &c.request(&answer_req("a5", CART)).unwrap(),
    );
    t.response(
        "draining put_cert",
        &c.request(&put_cert_req("p4", &cycle, false)).unwrap(),
    );
    t.counters("draining", &addr);
    drop((c, busy, queued));
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
    t.check(SINGLE_NODE);
}

fn node(id: &str, addr: &str, peer: &str, peer_addr: &str) -> Server {
    let mut cluster = ClusterConfig::new(
        id,
        vec![PeerSpec {
            id: peer.into(),
            addr: peer_addr.into(),
        }],
    );
    // one owner per key, so the other node always forwards; one probe
    // at start and none after, so the detector never moves a counter
    cluster.replication = 1;
    cluster.probe_interval_ms = 3_600_000;
    cluster.probe_timeout_ms = 200;
    Server::start(ServeOptions {
        addr: addr.into(),
        threads: 1,
        cache_mb: 8,
        queue_capacity: 4,
        default_deadline_ms: 10_000,
        cluster: Some(cluster),
        ..ServeOptions::default()
    })
    .expect("bind loopback")
}

#[test]
fn two_nodes_forward_then_fall_back() {
    let (addr_a, addr_b) = (
        format!("127.0.0.1:{}", free_port()),
        format!("127.0.0.1:{}", free_port()),
    );
    // the owner never dials the forwarding node, so it is given a dead
    // address for it: its start-up probe then fails on its own side and
    // cannot land in the forwarding node's `ping` count mid-test
    let a = node("a", &addr_a, "b", &format!("127.0.0.1:{}", free_port()));
    let b = node("b", &addr_b, "a", &addr_a);
    // the forwarding node's one probe of the owner lands before the owner
    // is killed, so it always succeeds
    wait_for("the start-up probe", || {
        a.metrics().ping_requests.load(Ordering::SeqCst) == 1
    });
    let ring = b.cluster().unwrap().ring();
    let instance = (0..2_000u64)
        .map(|seed| io::write_pace_gr(&gen::random_gnp(10, 0.35, seed)))
        .find(|inst| {
            let (_, key) =
                parse_problem(InstanceFormat::PaceGr, inst, Objective::Treewidth).unwrap();
            ring.owners(canonical_form(&key).fingerprint, 1) == vec!["a"]
        })
        .expect("some instance is owned by a");
    let mut t = Transcript(String::new());
    let mut c = Client::connect(&addr_b).unwrap();
    t.response(
        "forwarded to owner",
        &c.request(&solve_req("f1", &instance, None)).unwrap(),
    );
    t.counters("forward", &addr_b);
    a.kill();
    t.response(
        "owner dead, local fallback",
        &c.request(&solve_req("f2", &instance, None)).unwrap(),
    );
    t.counters("fallback", &addr_b);
    drop(c);
    b.request_shutdown();
    b.wait();
    t.check(TWO_NODES);
}
