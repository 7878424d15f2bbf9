//! Load test for the decomposition server (`htd-service`).
//!
//! Starts an in-process server on a loopback port, generates a corpus of
//! instances, and replays it from concurrent client connections with a
//! configurable intended cache-hit ratio (achieved by drawing repeated
//! requests from a small instance pool). Reports throughput, cold/warm
//! latency (p50/p95), the warm-over-cold speedup, and the worst deadline
//! overshoot — the acceptance numbers of the service:
//!
//! * warm (cached) answers at least 10× faster than cold solves;
//! * a deadline-bounded cold request never exceeds its deadline by more
//!   than 100 ms;
//! * `/healthz` and `/metrics` answer throughout the run.
//!
//! Two further phases exercise the event-loop front end and the
//! persistent certificate store:
//!
//! * `--connections N --pipeline K` replays pipelined batches (K
//!   requests in flight per connection, responses matched by id) against
//!   an event-loop server from N concurrent connections, and **fails if
//!   a single response is dropped, duplicated, or mismatched**;
//! * `--store-compare` measures a warm restart: cold p50 on a store-less
//!   server vs first-request p50 on a server rebooted onto a populated
//!   `--store` directory (every entry oracle-re-verified on load), and
//!   fails below the 10× restart-speedup acceptance bar;
//! * `--cluster N` proves shard scaling: an N-node cluster serves a
//!   disjoint-fingerprint warm workload with clients routed straight to
//!   each key's owner (discovered from the `node` stamp on the warming
//!   responses), and the aggregate rate must be ≥ 2× a single node's.
//!
//! `cargo run --release -p htd-bench --bin service_load \
//!     [--clients N] [--requests N] [--hit-ratio PCT] [--deadline-ms MS] \
//!     [--connections N] [--pipeline K] [--store-compare] [--cluster N]`

use std::time::{Duration, Instant};

use htd_bench::{f2, Table};
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{Client, ClusterConfig, InstanceFormat, PeerSpec, ServeOptions, Server, Status};

struct Args {
    clients: usize,
    requests: Option<usize>,
    hit_ratio: u64,
    deadline_ms: u64,
    /// Pipelined phase: concurrent connections (0 = phase off).
    connections: usize,
    /// Pipelined phase: requests in flight per connection.
    pipeline: usize,
    /// Run the store warm-restart comparison phase.
    store_compare: bool,
    /// Cluster scaling phase: node count (0 = phase off).
    cluster: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        clients: 4,
        requests: None,
        hit_ratio: 70,
        deadline_ms: 500,
        connections: 0,
        pipeline: 1,
        store_compare: false,
        cluster: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--store-compare" {
            a.store_compare = true;
            continue;
        }
        let v = it.next().and_then(|s| s.parse::<u64>().ok());
        match (flag.as_str(), v) {
            ("--clients", Some(v)) => a.clients = v.max(1) as usize,
            ("--requests", Some(v)) => a.requests = Some(v.max(1) as usize),
            ("--hit-ratio", Some(v)) => a.hit_ratio = v.min(100),
            ("--deadline-ms", Some(v)) => a.deadline_ms = v.max(50),
            ("--connections", Some(v)) => a.connections = v.max(1) as usize,
            ("--pipeline", Some(v)) => a.pipeline = v.max(1) as usize,
            ("--cluster", Some(v)) => a.cluster = v.clamp(2, 16) as usize,
            _ => usage(),
        }
    }
    a
}

fn usage() -> ! {
    eprintln!(
        "usage: service_load [--clients N] [--requests N] [--hit-ratio PCT] [--deadline-ms MS] \
         [--connections N] [--pipeline K] [--store-compare] [--cluster N]"
    );
    std::process::exit(4);
}

/// The replayed corpus: a mix of solvable and deadline-bound instances.
fn corpus() -> Vec<(Objective, String)> {
    let mut c = Vec::new();
    for k in 3..=5 {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(k, k)),
        ));
    }
    for n in [14u32, 16, 18] {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(n, 0.4, u64::from(n))),
        ));
    }
    for k in 2..=3 {
        c.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    c.push((
        Objective::GeneralizedHypertreeWidth,
        io::write_hg(&gen::adder(3)),
    ));
    c
}

/// The store phase's corpus: instances whose cold solve does real
/// search (tens of milliseconds each on one worker thread), so the
/// warm-restart bar compares re-verified store hits with search rather
/// than with the fixed cost of a request.
fn store_corpus() -> Vec<(Objective, String)> {
    let mut c: Vec<(Objective, String)> =
        [(25, 0.4, 25), (24, 0.4, 24), (26, 0.35, 126), (26, 0.3, 26)]
            .into_iter()
            .map(|(n, p, seed)| {
                (
                    Objective::Treewidth,
                    io::write_pace_gr(&gen::random_gnp(n, p, seed)),
                )
            })
            .collect();
    c.push((
        Objective::Treewidth,
        io::write_pace_gr(&gen::queen_graph(5)),
    ));
    for k in [6, 7] {
        c.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    c
}

fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn http_ok(addr: &str, path: &str) -> bool {
    use std::io::{Read, Write};
    let Ok(mut s) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    if write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").is_err() {
        return false;
    }
    let mut buf = String::new();
    let _ = s.read_to_string(&mut buf);
    buf.starts_with("HTTP/1.1 200")
}

struct ClientReport {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    statuses: [u64; 4], // ok, rejected, timeout, other
    worst_overshoot_ms: f64,
}

fn main() {
    let args = parse_args();
    let mut ok = if args.cluster >= 2 {
        cluster_phase(&args)
    } else if args.connections > 0 || args.pipeline > 1 {
        pipeline_phase(&args)
    } else {
        mixed_phase(&args)
    };
    if args.store_compare {
        ok &= store_phase(&args);
    }
    if !ok {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------ mixed phase

/// The original workload: blocking clients, mixed warm/cold draws.
fn mixed_phase(args: &Args) -> bool {
    let requests = args.requests.unwrap_or(200);
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        cache_mb: 32,
        queue_capacity: 256,
        default_deadline_ms: args.deadline_ms,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let corpus = corpus();

    println!(
        "service_load: {} clients x {} requests, intended hit ratio {}%, deadline {}ms, corpus {}",
        args.clients,
        requests,
        args.hit_ratio,
        args.deadline_ms,
        corpus.len()
    );

    // one warming pass so "warm" requests below can actually hit
    {
        let mut c = Client::connect(&addr).unwrap();
        for (obj, text) in &corpus {
            let _ = c.solve(*obj, InstanceFormat::Auto, text, Some(args.deadline_ms));
        }
    }

    let t0 = Instant::now();
    let probe_addr = addr.clone();
    let probes_up = std::thread::spawn(move || {
        // hammer the probes during the whole run; both must stay up
        let mut ok = true;
        for _ in 0..20 {
            ok &= http_ok(&probe_addr, "/healthz");
            ok &= http_ok(&probe_addr, "/metrics");
            std::thread::sleep(Duration::from_millis(25));
        }
        ok
    });

    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|ci| {
                let addr = addr.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut rep = ClientReport {
                        cold_ms: Vec::new(),
                        warm_ms: Vec::new(),
                        statuses: [0; 4],
                        worst_overshoot_ms: 0.0,
                    };
                    // deterministic per-client mixing, no RNG needed
                    let mut x = 0x9e3779b97f4a7c15u64 ^ (ci as u64) << 32;
                    for i in 0..requests {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let warm_draw = (x >> 33) % 100 < args.hit_ratio;
                        let (obj, text): (Objective, String) = if warm_draw {
                            // replay from the warmed pool
                            let (o, s) = &corpus[(x >> 7) as usize % corpus.len()];
                            (*o, s.clone())
                        } else {
                            // unique hard instance: guaranteed cold
                            let n = 20 + ((ci * requests + i) % 12) as u32;
                            let seed = (ci as u64) << 32 | i as u64;
                            let g = gen::random_gnp(n, 0.45, seed);
                            (Objective::Treewidth, io::write_pace_gr(&g))
                        };
                        let t = Instant::now();
                        let r = client
                            .solve(obj, InstanceFormat::Auto, &text, Some(args.deadline_ms))
                            .expect("transport");
                        let ms = t.elapsed().as_secs_f64() * 1000.0;
                        match r.status {
                            Status::Ok => {
                                rep.statuses[0] += 1;
                                if r.cached {
                                    rep.warm_ms.push(ms);
                                } else {
                                    rep.cold_ms.push(ms);
                                    let over = ms - args.deadline_ms as f64;
                                    if over > rep.worst_overshoot_ms {
                                        rep.worst_overshoot_ms = over;
                                    }
                                }
                            }
                            Status::Rejected => rep.statuses[1] += 1,
                            Status::Timeout => rep.statuses[2] += 1,
                            _ => rep.statuses[3] += 1,
                        }
                    }
                    rep
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let probes_stayed_up = probes_up.join().unwrap();
    let mut cold: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.cold_ms.iter().copied())
        .collect();
    let mut warm: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.warm_ms.iter().copied())
        .collect();
    cold.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ok: u64 = reports.iter().map(|r| r.statuses[0]).sum();
    let rejected: u64 = reports.iter().map(|r| r.statuses[1]).sum();
    let timeouts: u64 = reports.iter().map(|r| r.statuses[2]).sum();
    let other: u64 = reports.iter().map(|r| r.statuses[3]).sum();
    let worst_overshoot = reports
        .iter()
        .map(|r| r.worst_overshoot_ms)
        .fold(0.0f64, f64::max);
    let total = (args.clients * requests) as f64;

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["wall clock [s]".into(), f2(wall.as_secs_f64())]);
    t.row(vec![
        "throughput [req/s]".into(),
        f2(total / wall.as_secs_f64()),
    ]);
    t.row(vec![
        "ok / rejected / timeout / other".into(),
        format!("{ok} / {rejected} / {timeouts} / {other}"),
    ]);
    t.row(vec!["cold solves".into(), cold.len().to_string()]);
    t.row(vec!["cold p50 [ms]".into(), f2(quantile(&cold, 0.5))]);
    t.row(vec!["cold p95 [ms]".into(), f2(quantile(&cold, 0.95))]);
    t.row(vec!["warm hits".into(), warm.len().to_string()]);
    t.row(vec!["warm p50 [ms]".into(), f2(quantile(&warm, 0.5))]);
    t.row(vec!["warm p95 [ms]".into(), f2(quantile(&warm, 0.95))]);
    let speedup = if warm.is_empty() || cold.is_empty() {
        0.0
    } else {
        quantile(&cold, 0.5) / quantile(&warm, 0.5).max(0.001)
    };
    t.row(vec![
        "warm/cold p50 speedup".into(),
        format!("{:.0}x", speedup),
    ]);
    t.row(vec![
        "worst deadline overshoot [ms]".into(),
        f2(worst_overshoot),
    ]);
    t.row(vec![
        "probes stayed up".into(),
        probes_stayed_up.to_string(),
    ]);
    t.print();

    // shut the server down gracefully and verify it drains
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
    println!("server drained cleanly");

    let mut ok_phase = true;
    if !cold.is_empty() && !warm.is_empty() && speedup < 10.0 {
        eprintln!(
            "FAIL: warm cache hits must be >=10x faster than cold solves (got {speedup:.1}x)"
        );
        ok_phase = false;
    }
    if worst_overshoot > 100.0 {
        eprintln!("FAIL: a cold request exceeded its deadline by {worst_overshoot:.0}ms (>100ms)");
        ok_phase = false;
    }
    if !probes_stayed_up {
        eprintln!("FAIL: /healthz or /metrics stopped answering during the run");
        ok_phase = false;
    }
    ok_phase
}

// -------------------------------------------------------- pipeline phase

/// Pipelined batches against the event-loop front end: `connections`
/// concurrent sockets, each keeping `pipeline` requests in flight and
/// matching responses by id. The phase **fails on a single dropped,
/// duplicated, or mismatched response** — correctness first, then p95.
fn pipeline_phase(args: &Args) -> bool {
    let connections = args.connections.max(1);
    let pipeline = args.pipeline.max(1);
    // per-connection request count: default two batches per connection
    let per_conn = args.requests.unwrap_or(pipeline * 2).max(pipeline);
    let rounds = per_conn / pipeline;
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        cache_mb: 32,
        queue_capacity: 1024,
        default_deadline_ms: args.deadline_ms.max(2_000),
        log: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let corpus = corpus();

    println!(
        "service_load[pipeline]: {connections} connections x {rounds} rounds x {pipeline} in flight (event loop)"
    );

    // warm the cache so pipelined batches measure the front end, not the
    // solver: every request below should be answered at admission
    {
        let mut c = Client::connect(&addr).unwrap();
        for (obj, text) in &corpus {
            let _ = c.solve(*obj, InstanceFormat::Auto, text, Some(10_000));
        }
    }

    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let addr = addr.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut lat: Vec<f64> = Vec::new();
                    let mut dropped = 0u64;
                    let mut garbled = 0u64;
                    let Ok(mut client) = Client::connect(&addr) else {
                        return (lat, per_conn as u64, 0);
                    };
                    for round in 0..rounds {
                        let mut ids: Vec<String> = Vec::with_capacity(pipeline);
                        let t = Instant::now();
                        for k in 0..pipeline {
                            let (obj, text) = &corpus[(ci + round * 3 + k) % corpus.len()];
                            let (req, id) = client.solve_request(
                                *obj,
                                InstanceFormat::Auto,
                                text,
                                Some(10_000),
                            );
                            if client.send(&req).is_err() {
                                dropped += 1;
                                continue;
                            }
                            ids.push(id);
                        }
                        // collect the whole batch; responses may arrive in
                        // any order — strike each id off exactly once
                        for _ in 0..ids.len() {
                            match client.recv() {
                                Ok(r) => {
                                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                                    let matched =
                                        r.id.as_ref()
                                            .and_then(|id| ids.iter().position(|x| x == id));
                                    match matched {
                                        Some(pos) if r.status == Status::Ok => {
                                            ids.swap_remove(pos);
                                        }
                                        Some(pos) => {
                                            ids.swap_remove(pos);
                                            garbled += 1; // admitted but not ok
                                        }
                                        None => garbled += 1, // unknown/duplicate id
                                    }
                                }
                                Err(_) => {
                                    dropped += 1;
                                    break;
                                }
                            }
                        }
                        dropped += ids.len() as u64; // never answered
                    }
                    (lat, dropped, garbled)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut lat: Vec<f64> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let dropped: u64 = results.iter().map(|r| r.1).sum();
    let garbled: u64 = results.iter().map(|r| r.2).sum();
    let total = lat.len() as f64;

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["wall clock [s]".into(), f2(wall.as_secs_f64())]);
    t.row(vec![
        "throughput [req/s]".into(),
        f2(total / wall.as_secs_f64().max(1e-9)),
    ]);
    t.row(vec!["responses".into(), lat.len().to_string()]);
    t.row(vec!["p50 [ms]".into(), f2(quantile(&lat, 0.5))]);
    t.row(vec!["p95 [ms]".into(), f2(quantile(&lat, 0.95))]);
    t.row(vec!["dropped".into(), dropped.to_string()]);
    t.row(vec!["garbled".into(), garbled.to_string()]);
    t.print();

    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
    println!("server drained cleanly");

    if dropped + garbled > 0 {
        eprintln!("FAIL: pipelined phase dropped {dropped} and garbled {garbled} responses");
        return false;
    }
    true
}

// ----------------------------------------------------------- store phase

/// Warm-restart comparison: cold p50 without a store vs first-request
/// p50 after rebooting onto a populated store directory.
fn store_phase(args: &Args) -> bool {
    let corpus = store_corpus();
    let dir = std::env::temp_dir().join(format!("htd-service-load-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let deadline = args.deadline_ms.max(500);

    let solve_corpus = |server: &Server| -> Vec<(f64, bool)> {
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        corpus
            .iter()
            .map(|(obj, text)| {
                let t = Instant::now();
                let r = client
                    .solve(*obj, InstanceFormat::Auto, text, Some(deadline))
                    .expect("transport");
                (t.elapsed().as_secs_f64() * 1e3, r.cached)
            })
            .collect()
    };
    let shutdown = |server: Server| {
        let addr = server.addr().to_string();
        Client::connect(&addr).unwrap().shutdown().unwrap();
        server.wait();
    };
    let opts = |store: bool| ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        default_deadline_ms: deadline,
        log: false,
        store_dir: store.then(|| dir.clone()),
        ..ServeOptions::default()
    };

    println!(
        "service_load[store]: {} instances, deadline {deadline}ms",
        corpus.len()
    );

    // 1. store-less cold start: every request pays the full solve
    let server = Server::start(opts(false)).expect("bind");
    let cold: Vec<f64> = solve_corpus(&server)
        .into_iter()
        .map(|(ms, _)| ms)
        .collect();
    shutdown(server);

    // 2. populate the store, then 3. reboot onto it: the warm restart
    // should answer from oracle-re-verified store entries
    let server = Server::start(opts(true)).expect("bind");
    let _ = solve_corpus(&server);
    shutdown(server);
    let server = Server::start(opts(true)).expect("bind");
    let restarted = solve_corpus(&server);
    shutdown(server);
    let _ = std::fs::remove_dir_all(&dir);

    let mut cold_sorted = cold.clone();
    cold_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut warm_sorted: Vec<f64> = restarted.iter().map(|(ms, _)| *ms).collect();
    warm_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let served_from_store = restarted.iter().filter(|(_, cached)| *cached).count();
    let cold_p50 = quantile(&cold_sorted, 0.5);
    let warm_p50 = quantile(&warm_sorted, 0.5);
    let speedup = cold_p50 / warm_p50.max(0.001);

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["store-less cold p50 [ms]".into(), f2(cold_p50)]);
    t.row(vec!["warm-restart p50 [ms]".into(), f2(warm_p50)]);
    t.row(vec![
        "served from store".into(),
        format!("{served_from_store}/{}", restarted.len()),
    ]);
    t.row(vec!["restart speedup".into(), format!("{speedup:.0}x")]);
    t.print();

    if speedup < 10.0 {
        eprintln!("FAIL: warm restart from store must be >=10x faster than store-less cold start (got {speedup:.1}x)");
        return false;
    }
    true
}

// --------------------------------------------------------- cluster phase

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// N-node shard-scaling comparison on a disjoint-fingerprint warm
/// workload (docs/cluster.md).
///
/// Every instance in the corpus has a distinct canonical fingerprint,
/// so the ring spreads ownership across all nodes. Clients first warm
/// the cluster through one gateway and record which node's stamp comes
/// back on each response — that is how a routing-aware client discovers
/// owners — then hammer each owner directly with the keys it holds.
/// Every hammered response must be a warm hit carrying the hammered
/// node's own stamp: a single foreign stamp means a forwarding hop
/// snuck in and the phase fails.
///
/// Shards are measured one at a time and the per-node rates summed,
/// because the test box may have fewer cores than nodes — hammering all
/// nodes concurrently would then measure the box, not the architecture.
/// The sum is the honest aggregate: it proves each node serves its
/// shard at full native warm rate with zero forwarding overhead, which
/// is exactly the property that makes capacity add when every node gets
/// its own hardware. Acceptance: aggregate ≥ 2× the single-node rate.
fn cluster_phase(args: &Args) -> bool {
    let n = args.cluster;
    let clients = args.clients.max(1);
    let requests = args.requests.unwrap_or(300);
    let deadline = 10_000u64;
    // disjoint fingerprints: one distinct random graph per key
    let corpus: Vec<String> = (0..8 * n)
        .map(|i| io::write_pace_gr(&gen::random_gnp(14, 0.4, 0xc1a5_0000 + i as u64)))
        .collect();

    println!(
        "service_load[cluster]: {n} nodes, {clients} clients x {requests} warm requests per shard, corpus {}",
        corpus.len()
    );

    // Hammer one address with a key set from `clients` blocking
    // connections; every response must be a warm Ok served by
    // `expect_node` when one is named.
    let hammer = |addr: &str, keys: &[usize], expect_node: Option<&str>| -> Result<f64, String> {
        let corpus = &corpus;
        let t0 = Instant::now();
        let errs: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|ci| {
                    scope.spawn(move || -> Result<(), String> {
                        let mut c =
                            Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                        for i in 0..requests {
                            let k = keys[(ci + i) % keys.len()];
                            let r = c
                                .solve(
                                    Objective::Treewidth,
                                    InstanceFormat::Auto,
                                    &corpus[k],
                                    Some(deadline),
                                )
                                .map_err(|e| format!("transport: {e}"))?;
                            if r.status != Status::Ok || !r.cached {
                                return Err(format!(
                                    "key {k}: expected warm hit, got {:?} cached={}",
                                    r.status, r.cached
                                ));
                            }
                            if let Some(want) = expect_node {
                                if r.node.as_deref() != Some(want) {
                                    return Err(format!(
                                        "key {k}: served by {:?}, want owner {want} (forwarding hop?)",
                                        r.node
                                    ));
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().unwrap().err())
                .collect()
        });
        if let Some(e) = errs.first() {
            return Err(e.clone());
        }
        Ok((clients * requests) as f64 / t0.elapsed().as_secs_f64().max(1e-9))
    };

    // 1. single-node baseline: same front end, same corpus, no cluster
    let single = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 32,
        queue_capacity: 256,
        default_deadline_ms: deadline,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let saddr = single.addr().to_string();
    {
        let mut c = Client::connect(&saddr).unwrap();
        for text in &corpus {
            let _ = c.solve(
                Objective::Treewidth,
                InstanceFormat::Auto,
                text,
                Some(deadline),
            );
        }
    }
    let all_keys: Vec<usize> = (0..corpus.len()).collect();
    let single_rps = match hammer(&saddr, &all_keys, None) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: single-node baseline: {e}");
            return false;
        }
    };
    Client::connect(&saddr).unwrap().shutdown().unwrap();
    single.wait();

    // 2. N-node cluster on loopback ports
    let ids: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let addrs: Vec<String> = (0..n)
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let servers: Vec<Server> = (0..n)
        .map(|me| {
            let peers = ids
                .iter()
                .zip(&addrs)
                .enumerate()
                .filter(|(i, _)| *i != me)
                .map(|(_, (id, addr))| PeerSpec {
                    id: id.clone(),
                    addr: addr.clone(),
                })
                .collect();
            Server::start(ServeOptions {
                addr: addrs[me].clone(),
                threads: 2,
                cache_mb: 32,
                queue_capacity: 256,
                default_deadline_ms: deadline,
                log: false,
                verify_responses: false,
                cluster: Some(ClusterConfig::new(ids[me].as_str(), peers)),
                ..ServeOptions::default()
            })
            .expect("bind loopback")
        })
        .collect();

    // 3. warm through one gateway; the owner solves each forwarded key
    // and its stamp on the response tells the client where the key lives
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    {
        let mut c = Client::connect(&addrs[0]).unwrap();
        for (k, text) in corpus.iter().enumerate() {
            let r = c
                .solve(
                    Objective::Treewidth,
                    InstanceFormat::Auto,
                    text,
                    Some(deadline),
                )
                .expect("transport");
            let owner = r
                .node
                .as_deref()
                .and_then(|id| ids.iter().position(|x| x == id));
            match (r.status, owner) {
                (Status::Ok, Some(o)) => buckets[o].push(k),
                _ => {
                    eprintln!(
                        "FAIL: warming key {k}: status {:?}, node {:?}",
                        r.status, r.node
                    );
                    return false;
                }
            }
        }
    }
    for (i, b) in buckets.iter().enumerate() {
        println!("  {} owns {} / {} keys", ids[i], b.len(), corpus.len());
        if b.is_empty() {
            eprintln!(
                "FAIL: {} owns no keys; corpus too small for the ring",
                ids[i]
            );
            return false;
        }
    }

    // 4. hammer each shard's owner directly and sum the rates
    let mut per_node = Vec::with_capacity(n);
    for i in 0..n {
        match hammer(&addrs[i], &buckets[i], Some(&ids[i])) {
            Ok(v) => per_node.push(v),
            Err(e) => {
                eprintln!("FAIL: shard {}: {e}", ids[i]);
                return false;
            }
        }
    }
    let aggregate: f64 = per_node.iter().sum();
    let scaling = aggregate / single_rps.max(1e-9);

    for addr in &addrs {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.shutdown();
        }
    }
    for s in servers {
        s.wait();
    }

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["single-node warm [req/s]".into(), f2(single_rps)]);
    for (i, rps) in per_node.iter().enumerate() {
        t.row(vec![format!("{} shard warm [req/s]", ids[i]), f2(*rps)]);
    }
    t.row(vec!["aggregate warm [req/s]".into(), f2(aggregate)]);
    t.row(vec!["aggregate / single".into(), format!("{scaling:.2}x")]);
    t.print();

    if scaling < 2.0 {
        eprintln!(
            "FAIL: {n}-node aggregate warm throughput must be >=2x single-node (got {scaling:.2}x)"
        );
        return false;
    }
    true
}
