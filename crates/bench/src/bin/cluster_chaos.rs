//! Chaos harness for the fault-tolerant cluster layer of `htd serve`.
//!
//! Starts a 3-node in-process cluster (R=2, event-loop front ends) and
//! drives a mixed solve/answer workload through a client while a seeded
//! schedule repeatedly kills one node without drain (`Server::kill`, the
//! in-process analog of `kill -9` — connections reset mid-frame, no
//! final delivery pass) and restarts it on the same port. At most one
//! node is down at a time, so a majority always survives. The acceptance
//! properties (docs/cluster.md):
//!
//! * **zero wrong answers** — every solve response is checked against a
//!   ground-truth width computed upfront by an independent local solve,
//!   and every count answer against a hand-computed count;
//! * **zero lost answers** — every request reaches a terminal response;
//!   a reset connection (killed gateway) is retried on a surviving node;
//! * **tampered certificates never poison the cluster** — a final phase
//!   pushes width-lowered and fingerprint-mismatched certificates;
//!   `htd_cluster_cert_rejects_total` must rise *only* then, and the
//!   tampered keys must still answer with the true width.
//!
//! `--smoke` is the CI gate (bounded requests, hard assertions);
//! `--soak SECS` loops the schedule for nightly runs.

use std::time::{Duration, Instant};

use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    parse_problem, AnswerMode, CertPush, Client, ClusterConfig, InstanceFormat, PeerSpec,
    ServeOptions, Server, Status,
};

struct Args {
    smoke: bool,
    soak_secs: Option<u64>,
    seed: u64,
    requests: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        smoke: false,
        soak_secs: None,
        seed: 42,
        requests: 200,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--soak" => a.soak_secs = Some(it.next().and_then(|s| s.parse().ok()).unwrap_or(300)),
            "--seed" => a.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            "--requests" => a.requests = it.next().and_then(|s| s.parse().ok()).unwrap_or(200),
            _ => {
                eprintln!("usage: cluster_chaos [--smoke | --soak SECS] [--seed N] [--requests N]");
                std::process::exit(4);
            }
        }
    }
    if !a.smoke && a.soak_secs.is_none() {
        a.smoke = true;
    }
    a
}

/// Deterministic splitmix64 stream: the kill schedule must replay from
/// the seed alone.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const IDS: [&str; 3] = ["n0", "n1", "n2"];

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

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

/// The hand-checkable count query: R joins S on z, 5 result tuples.
const COUNT_QUERY: &str = "Q(x,y) :- R(x,z), S(z,y).\n\
    R: 1 5 ; 2 5 ; 3 6 .\n\
    S: 5 7 ; 5 8 ; 6 9 .\n";
const COUNT_TRUTH: u64 = 5;

struct Violations(Vec<String>);
impl Violations {
    fn note(&mut self, v: String) {
        if self.0.len() < 50 {
            println!("VIOLATION: {v}");
        }
        self.0.push(v);
    }
}

/// Cluster counters survive across kills: a killed node's metrics die
/// with it, so its totals are banked here just before each kill.
#[derive(Default)]
struct Totals {
    forwards: u64,
    failovers: u64,
    fallbacks: u64,
    replications: u64,
    handoffs: u64,
    cert_rejects: u64,
}

impl Totals {
    fn bank(&mut self, m: &htd_service::Metrics) {
        use std::sync::atomic::Ordering::Relaxed;
        self.forwards += m.cluster_forwards.load(Relaxed);
        self.failovers += m.cluster_failovers.load(Relaxed);
        self.fallbacks += m.cluster_local_fallbacks.load(Relaxed);
        self.replications += m.cluster_replications.load(Relaxed);
        self.handoffs += m.cluster_handoffs_delivered.load(Relaxed);
        self.cert_rejects += m.cluster_cert_rejects.load(Relaxed);
    }
}

fn main() {
    let args = parse_args();
    let addrs: Vec<String> = IDS
        .iter()
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let mut nodes: Vec<Option<Server>> = (0..IDS.len())
        .map(|me| Some(start_node(&addrs, me)))
        .collect();
    let mut rng = Rng(args.seed);

    // ground truth from an independent local solve, before the cluster
    // serves anything
    let corpus: Vec<(String, u32)> = (0..10u64)
        .map(|s| {
            let inst = io::write_pace_gr(&gen::random_gnp(12, 0.3, s));
            let (problem, _) =
                parse_problem(InstanceFormat::PaceGr, &inst, Objective::Treewidth).unwrap();
            let o = htd_search::solve(&problem, &htd_search::SearchConfig::default()).unwrap();
            assert!(o.exact, "truth solve must be exact");
            (inst, o.upper)
        })
        .collect();
    println!(
        "cluster_chaos: 3 nodes R=2, seed {}, {} instances, kill schedule every ~20 requests",
        args.seed,
        corpus.len()
    );

    let mut bad = Violations(Vec::new());
    let mut totals = Totals::default();
    let mut stats = (0u64, 0u64, 0u64); // (solves, answers, kills)
    let mut gateway = 0usize;
    let mut client = Client::connect(&addrs[gateway]).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30)));
    let mut dead: Option<usize> = None;

    let deadline = args
        .soak_secs
        .map(|s| Instant::now() + Duration::from_secs(s));
    let total = if args.soak_secs.is_some() {
        usize::MAX
    } else {
        args.requests
    };

    for i in 0..total {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }

        // seeded kill -9 schedule: every ~20 requests, revive the dead
        // node (if any) and kill another — never more than a minority
        if i % 20 == 10 {
            if let Some(d) = dead.take() {
                nodes[d] = Some(start_node(&addrs, d));
            }
            let victim = (rng.next() % IDS.len() as u64) as usize;
            if let Some(s) = nodes[victim].take() {
                totals.bank(s.metrics());
                s.kill();
                stats.2 += 1;
                dead = Some(victim);
            }
        }

        // the workload mixes cached solves, forced recomputes and counts
        let kind = rng.next() % 4;
        let result = if kind == 3 {
            client
                .answer(COUNT_QUERY, AnswerMode::Count, None, Some(10_000))
                .map(|r| (r, None))
        } else {
            let (inst, truth) = &corpus[(rng.next() as usize) % corpus.len()];
            let (mut req, _) = client.solve_request(
                Objective::Treewidth,
                InstanceFormat::PaceGr,
                inst,
                Some(10_000),
            );
            if let htd_service::Command::Solve(s) = &mut req.cmd {
                s.use_cache = kind != 0;
            }
            client.request(&req).map(|r| (r, Some(*truth)))
        };

        match result {
            Err(_) => {
                // the gateway died under us: the request is lost in
                // flight, which is allowed for the *connection* — the
                // workload retries it on a surviving node and that retry
                // must answer correctly
                let mut reconnected = false;
                for off in 1..=IDS.len() {
                    let next = (gateway + off) % IDS.len();
                    if dead == Some(next) {
                        continue;
                    }
                    if let Ok(c) = Client::connect(&addrs[next]) {
                        gateway = next;
                        client = c;
                        client.set_read_timeout(Some(Duration::from_secs(30)));
                        reconnected = true;
                        break;
                    }
                }
                if !reconnected {
                    bad.note(format!(
                        "request {i}: no surviving node accepts connections"
                    ));
                    break;
                }
            }
            Ok((r, expect)) => match (r.status, expect) {
                (Status::Ok, Some(truth)) => {
                    stats.0 += 1;
                    match r.outcome {
                        None => bad.note(format!("request {i}: ok without outcome")),
                        Some(o) => {
                            if !o.exact || o.upper != truth {
                                bad.note(format!(
                                    "request {i}: WRONG ANSWER {}..{} exact={} want {truth}",
                                    o.lower, o.upper, o.exact
                                ));
                            }
                        }
                    }
                }
                (Status::Ok, None) => {
                    stats.1 += 1;
                    let count = r.answer.as_ref().and_then(|a| a.count);
                    if count != Some(COUNT_TRUTH) {
                        bad.note(format!(
                            "request {i}: WRONG COUNT {count:?} want {COUNT_TRUTH}"
                        ));
                    }
                }
                (Status::Rejected, _) | (Status::Timeout, _) => {
                    // backpressure and deadline refusals are honest
                    // terminal responses, not violations
                }
                (s, _) => bad.note(format!(
                    "request {i}: unexpected status {} ({:?})",
                    s.name(),
                    r.error
                )),
            },
        }

        if args.soak_secs.is_some() && i % 1000 == 999 {
            println!(
                "  soak: {} requests, solves={} answers={} kills={} violations={}",
                i + 1,
                stats.0,
                stats.1,
                stats.2,
                bad.0.len()
            );
        }
    }

    // let the cluster settle with all nodes up before the tamper phase
    if let Some(d) = dead.take() {
        nodes[d] = Some(start_node(&addrs, d));
    }
    std::thread::sleep(Duration::from_millis(300));

    let mut settled = Totals::default();
    for s in nodes.iter().flatten() {
        settled.bank(s.metrics());
    }
    let forwards = totals.forwards + settled.forwards;
    let failovers = totals.failovers + settled.failovers;
    let fallbacks = totals.fallbacks + settled.fallbacks;
    let replications = totals.replications + settled.replications;
    let handoffs = totals.handoffs + settled.handoffs;
    let rejects_before_tamper = totals.cert_rejects + settled.cert_rejects;
    if rejects_before_tamper != 0 {
        bad.note(format!(
            "{rejects_before_tamper} certificates rejected before any tampering — \
             legitimate replication is being refused"
        ));
    }

    // tamper phase: a genuine certificate, then two corruptions of it.
    // Only these may tick htd_cluster_cert_rejects_total.
    let inst = &corpus[0].0;
    let (problem, h) = parse_problem(InstanceFormat::PaceGr, inst, Objective::Treewidth).unwrap();
    let canon = canonical_form(&h);
    let outcome = htd_search::solve(&problem, &htd_search::SearchConfig::default()).unwrap();
    let genuine = CertPush {
        objective: Objective::Treewidth,
        format: InstanceFormat::PaceGr,
        instance: inst.clone(),
        fingerprint_hex: canon.hex(),
        effort_ms: 5,
        outcome,
        from: Some("chaos".into()),
    };
    let mut tamper_client = Client::connect(&addrs[0]).expect("connect for tamper");
    let mut lying = genuine.clone();
    lying.outcome.upper = lying.outcome.upper.saturating_sub(1);
    lying.outcome.lower = lying.outcome.upper;
    match tamper_client.put_cert(lying) {
        Ok(r) if r.status == Status::Error => {}
        other => bad.note(format!("width-lowered cert was not rejected: {other:?}")),
    }
    let mut mismatched = genuine;
    mismatched.fingerprint_hex = format!("{:016x}", canon.fingerprint ^ 1);
    match tamper_client.put_cert(mismatched) {
        Ok(r) if r.status == Status::Error => {}
        other => bad.note(format!(
            "fingerprint-mismatched cert was not rejected: {other:?}"
        )),
    }
    let rejects_after_tamper = nodes[0]
        .as_ref()
        .unwrap()
        .metrics()
        .cluster_cert_rejects
        .load(std::sync::atomic::Ordering::Relaxed);
    if rejects_after_tamper < 2 {
        bad.note(format!(
            "tamper phase ticked only {rejects_after_tamper} rejects (want 2)"
        ));
    }
    // the tampered keys still answer with the true width
    match tamper_client.solve(
        Objective::Treewidth,
        InstanceFormat::PaceGr,
        inst,
        Some(10_000),
    ) {
        Ok(r) if r.status == Status::Ok => {
            if r.outcome.as_ref().map(|o| o.upper) != Some(corpus[0].1) {
                bad.note("tampered key answers a wrong width".into());
            }
        }
        other => bad.note(format!("tampered key failed to answer: {other:?}")),
    }

    println!(
        "workload: solves={} answers={} kills={} forwards={forwards} failovers={failovers} \
         local_fallbacks={fallbacks} replications={replications} handoffs={handoffs} \
         cert_rejects={rejects_after_tamper} (all from tampering)",
        stats.0, stats.1, stats.2
    );

    let failed = {
        let mut failures = Vec::new();
        if !bad.0.is_empty() {
            failures.push(format!("{} violations", bad.0.len()));
        }
        if stats.0 == 0 {
            failures.push("no solve succeeded".into());
        }
        if stats.1 == 0 {
            failures.push("no answer succeeded".into());
        }
        if stats.2 == 0 {
            failures.push("the kill schedule never fired".into());
        }
        if forwards == 0 {
            failures.push("no request was ever forwarded".into());
        }
        for f in &failures {
            println!("cluster_chaos FAIL: {f}");
        }
        !failures.is_empty()
    };

    for n in nodes.into_iter().flatten() {
        n.kill();
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "cluster_chaos {} PASS",
        if args.smoke { "--smoke" } else { "--soak" }
    );
}
