//! Chaos tests of `htd serve` (docs/robustness.md, docs/cluster.md):
//!
//! * one node under seeded fault injection answers every request with a
//!   structured response whose bounds bracket the true width, and its
//!   circuit breakers bench the panicking engines and re-close after
//!   their probe;
//! * a three-node cluster under a seeded `kill -9` schedule answers every
//!   solve and count correctly, also the requests lost with a killed
//!   gateway, which are sent again on a surviving node.
//!
//! This is its own test binary because it installs a panic hook that
//! keeps the injected panics out of the log, and a panic hook is
//! process-wide.
//!
//! Two environment variables make the same tests a soak:
//! `HTD_SOAK_SECS=N` runs each workload for `N` seconds instead of its
//! fixed number of requests, and `HTD_SOAK_SEED=S` seeds the faults and
//! the kill schedule with `S` instead of 42:
//!
//! ```sh
//! HTD_SOAK_SECS=600 HTD_SOAK_SEED=7 cargo test --release -p htd-service --test chaos service_chaos
//! ```

use std::time::{Duration, Instant};

use htd_hypergraph::{gen, io};
use htd_resilience::splitmix64;
use htd_search::{Engine, Objective, SearchConfig};
use htd_service::{
    parse_problem, AnswerMode, AnswerRequest, Client, ClusterConfig, Command, FaultPlan,
    InstanceFormat, Metrics, PeerSpec, Request, ServeOptions, Server, SolveRequest, Status,
};

mod common;
use common::{free_port, sample, scrape, soak_secs, soak_seed};

/// How long a workload runs: a fixed number of requests, or with
/// `HTD_SOAK_SECS` set, that many seconds.
struct Workload {
    requests: usize,
    soak_until: Option<Instant>,
}

impl Workload {
    fn new(requests: usize) -> Workload {
        Workload {
            requests,
            soak_until: soak_secs().map(|d| Instant::now() + d),
        }
    }

    /// Whether request `i` is sent.
    fn runs(&self, i: usize) -> bool {
        match self.soak_until {
            Some(until) => Instant::now() < until,
            None => i < self.requests,
        }
    }
}

/// The exact width of `instance`, from a local solve before any server
/// runs.
fn truth(objective: Objective, instance: &str) -> u32 {
    let (problem, _) = parse_problem(InstanceFormat::Auto, instance, objective).unwrap();
    let o = htd_search::solve(&problem, &SearchConfig::default()).unwrap();
    assert!(o.exact, "the local solve is exact");
    o.upper
}

/// Keeps the messages of injected panics out of the log; every other
/// panic still reaches the default hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        if !message.is_some_and(|m| m.contains("injected fault")) {
            default_hook(info);
        }
    }));
}

/// The `htd_engine_quarantined` gauge as the run samples it.
#[derive(Default)]
struct Quarantine {
    peak: u64,
    last: u64,
    /// A sample read lower than the one before, which had an engine
    /// left closed: a benched engine re-closed through its probe. (While
    /// an engine is closed, a lineup is the closed engines plus one
    /// probe; with every engine benched the node fails open and runs
    /// them all.)
    fell: bool,
}

impl Quarantine {
    fn watch(&mut self, addr: &str) {
        let benched = sample(&scrape(addr), "htd_engine_quarantined");
        self.peak = self.peak.max(benched);
        self.fell |= benched < self.last && self.last < Engine::ALL.len() as u64;
        self.last = benched;
    }
}

/// One node with the chaos fault plan and a 64 MiB memory governor, 500
/// solves of seven instances. Every solve gets a panicking portfolio
/// worker, about one in five is stalled 20 ms and one in seven runs
/// under a 16 KiB budget. The node must survive, answer each request
/// with bounds that bracket the true width (or a rejection with a retry
/// hint, a timeout, or an error with a code), count its panics,
/// degraded responses and budget aborts, and bench the panicking
/// engines, then re-close a breaker after its probe interval.
#[test]
fn service_chaos_answers_every_request_and_breakers_recover() {
    silence_injected_panics();
    let seed = soak_seed();
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 16,
        queue_capacity: 32,
        default_deadline_ms: 2_000,
        log: false,
        verify_responses: false,
        memory_mb: Some(64),
        chaos: Some(FaultPlan::chaos(seed)),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let tw = |g: &htd_hypergraph::Graph| (Objective::Treewidth, io::write_pace_gr(g));
    let mut corpus = vec![tw(&gen::grid_graph(3, 3)), tw(&gen::grid_graph(4, 4))];
    for n in [12u32, 14, 16] {
        corpus.push(tw(&gen::random_gnp(n, 0.35, u64::from(n))));
    }
    corpus.push((
        Objective::GeneralizedHypertreeWidth,
        io::write_hg(&gen::grid2d(2)),
    ));
    // the instances above are proven by their bounds before any search
    // charges the budget. queen5_5's A* search expands nodes, so a
    // starved budget aborts it; its requests name every engine, so A*
    // runs even while its breaker is open
    corpus.push(tw(&gen::queen_graph(5)));
    let searched = corpus.len() - 1;
    let truths: Vec<u32> = corpus.iter().map(|(o, text)| truth(*o, text)).collect();

    let mut client = Client::connect(&addr).expect("connect");
    let mut ok = 0u64;
    let mut send = |i: usize| {
        let (objective, instance) = &corpus[i % corpus.len()];
        let engines = (i % corpus.len() == searched).then(|| Engine::ALL.to_vec());
        let r = client
            .request(&Request {
                id: Some(format!("x{i}")),
                cmd: Command::Solve(SolveRequest {
                    objective: *objective,
                    format: InstanceFormat::Auto,
                    instance: instance.clone(),
                    deadline_ms: Some(1_500),
                    budget: None,
                    threads: Some(3),
                    engines,
                    use_cache: false,
                    forwarded: false,
                }),
            })
            .unwrap_or_else(|e| panic!("request {i} (seed {seed}): transport error {e}"));
        match r.status {
            Status::Ok => {
                let o = r
                    .outcome
                    .unwrap_or_else(|| panic!("request {i} (seed {seed}): ok without outcome"));
                let width = truths[i % corpus.len()];
                assert!(
                    o.lower <= width && width <= o.upper && (!o.exact || o.upper == width),
                    "request {i} (seed {seed}): {}..{} exact={} for width {width}",
                    o.lower,
                    o.upper,
                    o.exact
                );
                ok += 1;
            }
            Status::Rejected => assert!(
                r.retry_after_ms.is_some(),
                "request {i} (seed {seed}): rejection without retry_after_ms"
            ),
            Status::Timeout => {}
            Status::Error => assert!(
                r.code.is_some(),
                "request {i} (seed {seed}): error without code"
            ),
            s => panic!("request {i} (seed {seed}): unexpected {}", s.name()),
        }
    };

    let mut quarantine = Quarantine::default();
    let workload = Workload::new(500);
    let mut i = 0;
    while workload.runs(i) {
        send(i);
        if i % 20 == 19 {
            quarantine.watch(&addr);
        }
        i += 1;
    }
    // a solve that names its engines closes the breaker of each one that
    // succeeds, benched or not; from here on only default lineups run,
    // so a benched engine re-closes only through its probe. Give the
    // benched engines their probe interval and keep soliciting solves
    // until a breaker re-closes.
    quarantine.watch(&addr);
    quarantine.fell = false;
    let recovery_deadline = Instant::now() + Duration::from_secs(15);
    while !quarantine.fell && Instant::now() < recovery_deadline {
        std::thread::sleep(Duration::from_millis(300));
        if i % corpus.len() == searched {
            i += 1;
        }
        send(i);
        quarantine.watch(&addr);
        i += 1;
    }

    let metrics = scrape(&addr);
    let panics = sample(&metrics, "htd_worker_panics_total");
    let degraded = sample(&metrics, "htd_degraded_responses_total");
    let mem_aborts = sample(&metrics, "htd_mem_budget_aborts_total");
    println!(
        "service chaos, seed {seed}: {i} requests, ok={ok}; worker_panics={panics} \
         degraded_responses={degraded} mem_budget_aborts={mem_aborts} \
         quarantine_peak={} recovered={}",
        quarantine.peak, quarantine.fell
    );
    assert!(ok > 0, "no request succeeded");
    assert!(panics > 0, "chaos injected no panics");
    assert!(degraded > 0, "no response was marked degraded");
    assert!(mem_aborts > 0, "no starved solve aborted on its budget");
    assert!(quarantine.peak >= 1, "no circuit breaker ever opened");
    assert!(quarantine.fell, "no benched engine recovered via its probe");
    server.request_shutdown();
    server.wait();
}

const IDS: [&str; 3] = ["n0", "n1", "n2"];

fn start_node(addrs: &[String], me: usize) -> Server {
    let peers = IDS
        .iter()
        .zip(addrs)
        .enumerate()
        .filter(|(i, _)| *i != me)
        .map(|(_, (id, addr))| PeerSpec {
            id: id.to_string(),
            addr: addr.clone(),
        })
        .collect();
    let mut cfg = ClusterConfig::new(IDS[me], peers);
    cfg.probe_interval_ms = 25;
    cfg.probe_timeout_ms = 250;
    Server::start(ServeOptions {
        addr: addrs[me].clone(),
        threads: 2,
        cache_mb: 16,
        queue_capacity: 32,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        cluster: Some(cfg),
        ..ServeOptions::default()
    })
    .expect("bind loopback")
}

/// A client whose requests fail after 30 s instead of hanging.
fn connect(addr: &str) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30)));
    client
}

/// The hand-checkable count query: R joins S on z, 5 result tuples.
const COUNT_QUERY: &str = "Q(x,y) :- R(x,z), S(z,y).\n\
    R: 1 5 ; 2 5 ; 3 6 .\n\
    S: 5 7 ; 5 8 ; 6 9 .\n";
const COUNT_TRUTH: u64 = 5;

/// Cluster counters summed over the run: a killed node's metrics die
/// with it, so they are banked just before each kill.
#[derive(Default)]
struct Banked {
    forwards: u64,
    cert_rejects: u64,
}

impl Banked {
    fn bank(&mut self, m: &Metrics) {
        use std::sync::atomic::Ordering::Relaxed;
        self.forwards += m.cluster_forwards.load(Relaxed);
        self.cert_rejects += m.cluster_cert_rejects.load(Relaxed);
    }
}

/// Three nodes (R=2) serve 200 mixed requests through one client while a
/// seeded schedule kills one node without drain every 20 requests and
/// revives the one killed before, so a majority is always up. Each
/// solve must return the width of an independent local solve, and each
/// count the hand-computed count. A request lost because its gateway
/// was killed is sent again on a surviving node and checked there; no
/// request may end without a checked answer. Replication between the
/// nodes must never have a certificate rejected.
#[test]
fn cluster_chaos_answers_every_request_correctly_through_kills() {
    let seed = soak_seed();
    let addrs: Vec<String> = IDS
        .iter()
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let mut nodes: Vec<Option<Server>> = (0..IDS.len())
        .map(|me| Some(start_node(&addrs, me)))
        .collect();
    // the SplitMix64 stream: draw k hashes seed + k·γ
    let mut stream =
        (0u64..).map(|k| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))));
    let mut draw = move || stream.next().expect("an endless stream");
    let corpus: Vec<(String, u32)> = (0..10u64)
        .map(|s| {
            let instance = io::write_pace_gr(&gen::random_gnp(12, 0.3, s));
            let width = truth(Objective::Treewidth, &instance);
            (instance, width)
        })
        .collect();

    let mut banked = Banked::default();
    let (mut solves, mut answers, mut kills, mut resent) = (0u64, 0u64, 0u64, 0u64);
    let mut gateway = 0;
    let mut client = connect(&addrs[gateway]);
    let mut dead: Option<usize> = None;
    let workload = Workload::new(200);
    let mut i = 0;
    while workload.runs(i) {
        if i % 20 == 10 {
            if let Some(d) = dead.take() {
                nodes[d] = Some(start_node(&addrs, d));
            }
            let victim = (draw() % IDS.len() as u64) as usize;
            let node = nodes[victim].take().expect("every node is up");
            banked.bank(node.metrics());
            node.kill();
            kills += 1;
            dead = Some(victim);
        }

        // the workload mixes cached solves, forced recomputes and counts
        let kind = draw() % 4;
        let (request, width) = if kind == 3 {
            let count = Command::Answer(AnswerRequest {
                query: COUNT_QUERY.into(),
                mode: AnswerMode::Count,
                limit: None,
                deadline_ms: Some(10_000),
                threads: None,
                engines: None,
                use_cache: true,
                forwarded: false,
            });
            let id = Some(format!("a{i}"));
            (Request { id, cmd: count }, None)
        } else {
            let (instance, width) = &corpus[(draw() as usize) % corpus.len()];
            let (mut request, _) = client.solve_request(
                Objective::Treewidth,
                InstanceFormat::PaceGr,
                instance,
                Some(10_000),
            );
            if let Command::Solve(s) = &mut request.cmd {
                s.use_cache = kind != 0;
            }
            (request, Some(*width))
        };

        let r = match client.request(&request) {
            Ok(r) => r,
            Err(e) => {
                assert_eq!(
                    dead,
                    Some(gateway),
                    "request {i} (seed {seed}): lost on a live gateway: {e}"
                );
                gateway = (1..IDS.len())
                    .map(|off| (gateway + off) % IDS.len())
                    .find(|&n| dead != Some(n))
                    .expect("a majority is up");
                client = connect(&addrs[gateway]);
                resent += 1;
                client.request(&request).unwrap_or_else(|e| {
                    panic!(
                        "request {i} (seed {seed}): lost again on {}: {e}",
                        IDS[gateway]
                    )
                })
            }
        };
        match (r.status, width) {
            (Status::Ok, Some(width)) => {
                let o = r
                    .outcome
                    .unwrap_or_else(|| panic!("request {i} (seed {seed}): ok without outcome"));
                assert!(
                    o.exact && o.upper == width,
                    "request {i} (seed {seed}): wrong answer {}..{} exact={} for width {width}",
                    o.lower,
                    o.upper,
                    o.exact
                );
                solves += 1;
            }
            (Status::Ok, None) => {
                let count = r.answer.and_then(|a| a.count);
                assert_eq!(
                    count,
                    Some(COUNT_TRUTH),
                    "request {i} (seed {seed}): wrong count"
                );
                answers += 1;
            }
            (s, _) => panic!(
                "request {i} (seed {seed}): {} without a checked answer ({:?})",
                s.name(),
                r.error
            ),
        }
        i += 1;
    }

    // revive the dead node and let hinted handoffs and replication settle
    if let Some(d) = dead.take() {
        nodes[d] = Some(start_node(&addrs, d));
    }
    std::thread::sleep(Duration::from_millis(300));
    for node in nodes.iter().flatten() {
        banked.bank(node.metrics());
    }
    println!(
        "cluster chaos, seed {seed}: {i} requests, solves={solves} answers={answers} \
         kills={kills} resent={resent} forwards={} cert_rejects={}",
        banked.forwards, banked.cert_rejects
    );
    assert!(kills > 0, "the kill schedule never fired");
    assert!(solves > 0, "no solve succeeded");
    assert!(answers > 0, "no answer succeeded");
    assert!(banked.forwards > 0, "no request was ever forwarded");
    assert_eq!(
        banked.cert_rejects, 0,
        "certificates were rejected with no tampering: replication is being refused"
    );
    for node in nodes.into_iter().flatten() {
        node.kill();
    }
}
