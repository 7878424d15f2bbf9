//! One-stop performance snapshot for the perf trajectory.
//!
//! Runs scaled-down versions of the headline workloads — exact-width
//! portfolio solves, an anytime GHW race over the on-disk `.hg` corpus,
//! a decompose-and-validate corpus sweep, cold/warm conjunctive-query
//! answering against a live server, a service solve-load burst, a
//! pipelined event-loop burst, a store warm-restart comparison, a
//! 3-node cluster probe (owner-routed vs forwarded warm hits, failover
//! after a kill, tamper rejection), and the span-profiler overhead
//! probe — and writes every result into one schema-versioned snapshot
//! (`BENCH_<N>.json` by default, `N` from `--bench`) that `perf_gate`
//! can diff against history.
//!
//! Snapshot schema `htd-bench/v1` (documented in `docs/benchmarking.md`):
//!
//! ```json
//! {"schema":"htd-bench/v1","bench":9,"commit":"...","rustc":"...",
//!  "threads":4,"smoke":false,
//!  "metrics":{"tw_queen5_exact_ms":{"value":251.3,"unit":"ms","better":"lower"},...}}
//! ```
//!
//! Metric names and semantics are identical in `--smoke` mode; smoke
//! only cuts repetitions, budgets and connection counts so CI finishes
//! in seconds.
//!
//! `cargo run --release -p htd-bench --bin bench_suite \
//!     [--smoke] [--bench N] [--out FILE] [--migrate FILE]`
//!
//! `--migrate FILE` upgrades an old snapshot in place: it stamps
//! pre-versioning files (`BENCH_6.json`, `BENCH_7.json`) with
//! `"schema":"htd-bench/v0"` and rounds every fractional number to
//! 3 decimals, then exits without running any workload.

use std::time::{Duration, Instant};

use htd_bench::round3;
use htd_core::bucket::td_of_hypergraph;
use htd_core::Json;
use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, io};
use htd_query::AnswerMode;
use htd_search::{solve, Engine, Objective, Problem, SearchConfig};
use htd_service::{
    parse_problem, CertPush, Client, ClusterConfig, InstanceFormat, PeerSpec, ServeOptions, Server,
    Status,
};
use htd_trace::{Event, RingBuffer, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    smoke: bool,
    /// Generation stamp for the snapshot (`"bench"` field, default file name).
    bench: u32,
    out: Option<String>,
    migrate: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        smoke: false,
        bench: 10,
        out: None,
        migrate: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--bench" => {
                a.bench = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--bench N (a generation number)")
            }
            "--out" => a.out = Some(it.next().expect("--out FILE").clone()),
            "--migrate" => a.migrate = Some(it.next().expect("--migrate FILE").clone()),
            _ => {
                eprintln!("usage: bench_suite [--smoke] [--bench N] [--out FILE] [--migrate FILE]");
                std::process::exit(4);
            }
        }
    }
    a
}

// ---------------------------------------------------------------- migrate

/// Rounds every fractional number in a document to 3 decimals.
fn round_doc(j: &mut Json) {
    match j {
        Json::Num(x) if x.fract() != 0.0 => *x = round3(*x),
        Json::Arr(items) => items.iter_mut().for_each(round_doc),
        Json::Obj(members) => members.iter_mut().for_each(|(_, v)| round_doc(v)),
        _ => {}
    }
}

/// Backfills `"schema":"htd-bench/v0"` onto a pre-versioning snapshot and
/// rounds its numbers. Idempotent: an already-versioned file only gets
/// the rounding pass.
fn migrate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_suite: cannot read {path}: {e}");
        std::process::exit(5);
    });
    let mut doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_suite: {path} is not valid JSON: {e:?}");
        std::process::exit(2);
    });
    let had_schema = doc.get("schema").and_then(|s| s.as_str()).is_some();
    if let Json::Obj(members) = &mut doc {
        if !had_schema {
            members.insert(0, ("schema".into(), Json::Str("htd-bench/v0".into())));
        }
    } else {
        eprintln!("bench_suite: {path} is not a JSON object");
        std::process::exit(2);
    }
    round_doc(&mut doc);
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("bench_suite: cannot write {path}: {e}");
        std::process::exit(5);
    }
    println!(
        "migrated {path}: {}",
        if had_schema {
            "already versioned, rounded numbers"
        } else {
            "stamped htd-bench/v0, rounded numbers"
        }
    );
}

// --------------------------------------------------------------- metrics

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// `"lower"` or `"higher"` — which direction is an improvement.
    better: &'static str,
}

fn push(
    metrics: &mut Vec<Metric>,
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
) {
    println!("  {name} = {} {unit}", round3(value));
    metrics.push(Metric {
        name,
        value,
        unit,
        better,
    });
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Exact-width portfolio solves on fixed instances (portfolio_race-style).
fn width_workloads(smoke: bool, threads: usize, metrics: &mut Vec<Metric>) {
    let reps = if smoke { 1 } else { 3 };
    let queen = gen::queen_graph(5);
    let ms = median_ms(reps, || {
        let out = solve(
            &Problem::treewidth(queen.clone()),
            &SearchConfig::default().with_seed(1).with_threads(threads),
        )
        .expect("queen5 solve");
        assert!(out.exact && out.upper == 18, "queen5_5 treewidth is 18");
    });
    push(metrics, "tw_queen5_exact_ms", ms, "ms", "lower");

    let myciel = gen::myciel(4);
    let ms = median_ms(reps, || {
        let out = solve(
            &Problem::treewidth(myciel.clone()),
            &SearchConfig::default().with_seed(1).with_threads(threads),
        )
        .expect("myciel4 solve");
        assert!(out.exact && out.upper == 10, "myciel4 treewidth is 10");
    });
    push(metrics, "tw_myciel4_exact_ms", ms, "ms", "lower");
}

/// Anytime GHW race over the committed `.hg` corpus instance
/// (convergence-style): width reached within a fixed budget and time to
/// the first incumbent.
fn corpus_race(smoke: bool, threads: usize, metrics: &mut Vec<Metric>) {
    let h = match std::fs::read_to_string("results/grid2d_18.hg") {
        Ok(text) => io::parse_hg(&text).expect("results/grid2d_18.hg parses"),
        Err(e) => {
            // keep the suite runnable from any cwd; the metric is simply absent
            eprintln!("  corpus sweep skipped: results/grid2d_18.hg: {e}");
            gen::grid2d(18)
        }
    };
    let budget = Duration::from_millis(if smoke { 800 } else { 3_000 });
    let ring = RingBuffer::new(1 << 16);
    let cfg = SearchConfig::default()
        .with_seed(1)
        .with_threads(threads)
        .with_time_limit(budget)
        .with_tracer(Tracer::new(Box::new(std::sync::Arc::clone(&ring))));
    let out = solve(&Problem::ghw(h.clone()), &cfg).expect("grid2d_18 ghw");
    let first_us = ring
        .records()
        .iter()
        .find_map(|r| match r.event {
            Event::IncumbentImproved { .. } => Some(r.t_us),
            _ => None,
        })
        .unwrap_or(budget.as_micros() as u64);
    push(
        metrics,
        "ghw_grid2d18_upper",
        out.upper as f64,
        "width",
        "lower",
    );
    push(
        metrics,
        "ghw_grid2d18_first_upper_ms",
        first_us as f64 / 1e3,
        "ms",
        "lower",
    );

    // corpus sweep: parse + min-fill + bucket elimination + validate
    let reps = if smoke { 1 } else { 3 };
    let ms = median_ms(reps, || {
        let mut rng = StdRng::seed_from_u64(1);
        let order = htd_heuristics::upper::min_fill(&h.primal_graph(), &mut rng).ordering;
        let td = td_of_hypergraph(&h, &order).simplify();
        td.validate(&h).expect("valid decomposition");
    });
    push(metrics, "decompose_grid2d18_ms", ms, "ms", "lower");
}

/// Cold vs shape-cache-warm query answering (answer_load-style, smaller).
/// Metric names line up with the fields of `BENCH_7.json` so `perf_gate`
/// can compare across the two generations.
fn answer_workload(smoke: bool, metrics: &mut Vec<Metric>) {
    let (shapes, variants) = if smoke { (2, 6) } else { (3, 12) };
    let deadline = 4_000u64;
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue_capacity: 64,
        default_deadline_ms: deadline,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for s in 0..shapes {
        for variant in 0..variants {
            let text = query_text(s, variant);
            let t = Instant::now();
            let r = client
                .answer(&text, AnswerMode::Boolean, None, Some(deadline))
                .expect("transport");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            if r.cached {
                warm.push(ms);
            } else {
                cold.push(ms);
            }
        }
    }
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
    cold.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (cold_p50, warm_p50) = (quantile(&cold, 0.5), quantile(&warm, 0.5));
    push(metrics, "answer_cold_p50_ms", cold_p50, "ms", "lower");
    push(metrics, "answer_warm_p50_ms", warm_p50, "ms", "lower");
    push(
        metrics,
        "answer_warm_speedup",
        if warm_p50 > 0.0 {
            cold_p50 / warm_p50
        } else {
            0.0
        },
        "x",
        "higher",
    );
}

/// Query text for the answer workload: a circulant rule (cycle plus a
/// second shift) per shape, fresh relation tuples per variant — the same
/// construction as `answer_load`, scaled down.
fn query_text(s: usize, variant: usize) -> String {
    use std::fmt::Write as _;
    let mut mix = {
        let mut x = 0xA11CEu64 ^ ((s as u64) << 32) ^ (variant as u64).wrapping_mul(0x1234_5677);
        move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    };
    let n = 14 + 2 * s;
    let shift = 4 + s / 2;
    let mut text = String::from("Q(v0, v1) :- ");
    let mut names: Vec<String> = Vec::new();
    for (round, step) in [(0usize, 1usize), (1, shift)] {
        for i in 0..n {
            let name = format!("e{}", round * n + i);
            let _ = write!(
                text,
                "{}{name}(v{i}, v{})",
                if names.is_empty() { "" } else { ", " },
                (i + step) % n
            );
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

/// Burst of solve requests against a live server (service_load-style).
fn service_workload(smoke: bool, metrics: &mut Vec<Metric>) {
    let requests = if smoke { 12 } else { 40 };
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue_capacity: 64,
        default_deadline_ms: 2_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let corpus = [
        io::write_pace_gr(&gen::queen_graph(5)),
        io::write_pace_gr(&gen::grid_graph(5, 5)),
        io::write_pace_gr(&gen::myciel(4)),
    ];
    let mut lat: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    for i in 0..requests {
        let text = &corpus[i % corpus.len()];
        let t = Instant::now();
        let r = client
            .solve(
                Objective::Treewidth,
                InstanceFormat::Auto,
                text,
                Some(2_000),
            )
            .expect("transport");
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall = t0.elapsed().as_secs_f64();
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    push(
        metrics,
        "service_solve_p50_ms",
        quantile(&lat, 0.5),
        "ms",
        "lower",
    );
    push(
        metrics,
        "service_throughput_rps",
        requests as f64 / wall.max(1e-9),
        "req/s",
        "higher",
    );
}

/// Pipelined batches against the event-loop front end: every request is
/// a warmed cache hit, so the numbers measure the non-blocking I/O path
/// itself. Full mode runs the acceptance scale (500 connections, 8 in
/// flight each); a dropped or garbled response fails the suite.
fn pipeline_workload(smoke: bool, metrics: &mut Vec<Metric>) {
    let (connections, pipeline, rounds) = if smoke { (40, 4, 2) } else { (500, 8, 2) };
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        queue_capacity: 1024,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let corpus = [
        io::write_pace_gr(&gen::queen_graph(5)),
        io::write_pace_gr(&gen::grid_graph(5, 5)),
        io::write_pace_gr(&gen::myciel(4)),
        io::write_pace_gr(&gen::grid_graph(4, 4)),
    ];
    {
        let mut c = Client::connect(&addr).expect("connect");
        for text in &corpus {
            let r = c
                .solve(Objective::Treewidth, InstanceFormat::Auto, text, None)
                .expect("warming");
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        }
    }
    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|ci| {
                let addr = addr.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut bad = 0u64;
                    let Ok(mut client) = Client::connect(&addr) else {
                        return (lat, (rounds * pipeline) as u64);
                    };
                    for round in 0..rounds {
                        let mut ids: Vec<String> = Vec::new();
                        let t = Instant::now();
                        for k in 0..pipeline {
                            let (req, id) = client.solve_request(
                                Objective::Treewidth,
                                InstanceFormat::Auto,
                                &corpus[(ci + round + k) % corpus.len()],
                                None,
                            );
                            if client.send(&req).is_ok() {
                                ids.push(id);
                            } else {
                                bad += 1;
                            }
                        }
                        for _ in 0..ids.len() {
                            match client.recv() {
                                Ok(r) => {
                                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                                    match r
                                        .id
                                        .as_ref()
                                        .and_then(|id| ids.iter().position(|x| x == id))
                                    {
                                        Some(pos) if r.status == Status::Ok => {
                                            ids.swap_remove(pos);
                                        }
                                        _ => bad += 1,
                                    }
                                }
                                Err(_) => {
                                    bad += 1;
                                    break;
                                }
                            }
                        }
                        bad += ids.len() as u64;
                    }
                    (lat, bad)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
    let mut lat: Vec<f64> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let bad: u64 = results.iter().map(|r| r.1).sum();
    assert_eq!(bad, 0, "pipelined phase dropped or garbled {bad} responses");
    push(
        metrics,
        "service_pipeline_p95_ms",
        quantile(&lat, 0.95),
        "ms",
        "lower",
    );
    push(
        metrics,
        "service_pipeline_rps",
        lat.len() as f64 / wall.max(1e-9),
        "req/s",
        "higher",
    );
    push(
        metrics,
        "service_pipeline_dropped",
        bad as f64,
        "count",
        "lower",
    );
}

/// Store warm restart: cold p50 on a store-less server vs first-request
/// p50 after rebooting onto the populated certificate store (every entry
/// re-verified by the `htd-check` oracle on load).
fn store_workload(smoke: bool, metrics: &mut Vec<Metric>) {
    let deadline = 500u64;
    let mut corpus: Vec<(Objective, String)> = vec![
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(4, 4)),
        ),
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(5, 5)),
        ),
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(14, 0.4, 14)),
        ),
        (
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(2)),
        ),
        (
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(3)),
        ),
    ];
    if !smoke {
        corpus.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(16, 0.4, 16)),
        ));
        corpus.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::adder(3)),
        ));
    }
    let dir = std::env::temp_dir().join(format!("htd-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = |store: bool| ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        default_deadline_ms: deadline,
        log: false,
        verify_responses: false,
        store_dir: store.then(|| dir.clone()),
        ..ServeOptions::default()
    };
    let run = |server: &Server| -> Vec<f64> {
        let mut client = Client::connect(&server.addr().to_string()).expect("connect");
        corpus
            .iter()
            .map(|(obj, text)| {
                let t = Instant::now();
                let r = client
                    .solve(*obj, InstanceFormat::Auto, text, Some(deadline))
                    .expect("transport");
                assert_eq!(r.status, Status::Ok, "{:?}", r.error);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    };
    let stop = |server: Server| {
        Client::connect(&server.addr().to_string())
            .unwrap()
            .shutdown()
            .unwrap();
        server.wait();
    };

    let server = Server::start(opts(false)).expect("bind");
    let mut cold = run(&server);
    stop(server);
    let server = Server::start(opts(true)).expect("bind");
    let _ = run(&server); // populate the store
    stop(server);
    let server = Server::start(opts(true)).expect("bind");
    let mut warm = run(&server); // reboot: served from re-verified store
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);

    cold.sort_by(|a, b| a.partial_cmp(b).unwrap());
    warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (cold_p50, warm_p50) = (quantile(&cold, 0.5), quantile(&warm, 0.5));
    push(metrics, "store_cold_p50_ms", cold_p50, "ms", "lower");
    push(metrics, "store_restart_p50_ms", warm_p50, "ms", "lower");
    push(
        metrics,
        "store_restart_speedup",
        cold_p50 / warm_p50.max(1e-3),
        "x",
        "higher",
    );
}

/// 3-node cluster probe (docs/cluster.md): warm-hit latency when the
/// client routes straight to a key's owner vs through a non-owner
/// gateway (one forwarding hop), failover latency for a key whose
/// primary owner was just killed without drain (the dial fails and the
/// request falls over to the replica), and the tamper-rejection
/// property — two corrupted certificate pushes must both be refused by
/// the oracle, stamped as `cluster_cert_rejects_tamper` so the perf
/// gate notices if the trust boundary ever stops rejecting.
fn cluster_workload(smoke: bool, metrics: &mut Vec<Metric>) {
    let n = 3;
    let keys = if smoke { 9 } else { 18 };
    let deadline = 10_000u64;
    let corpus: Vec<String> = (0..keys)
        .map(|i| io::write_pace_gr(&gen::random_gnp(14, 0.4, 0xbe9c_4000 + i as u64)))
        .collect();

    let ids: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
    let addrs: Vec<String> = (0..n)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        })
        .collect();
    let mut servers: Vec<Option<Server>> = (0..n)
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
            let mut cfg = ClusterConfig::new(ids[me].as_str(), peers);
            cfg.probe_interval_ms = 25;
            cfg.probe_timeout_ms = 250;
            Some(
                Server::start(ServeOptions {
                    addr: addrs[me].clone(),
                    threads: 2,
                    queue_capacity: 64,
                    default_deadline_ms: deadline,
                    log: false,
                    verify_responses: false,
                    cluster: Some(cfg),
                    ..ServeOptions::default()
                })
                .expect("bind loopback"),
            )
        })
        .collect();

    // warm through the gateway and learn each key's owner from the stamp
    let mut owner_of: Vec<usize> = Vec::with_capacity(keys);
    let mut gateway = Client::connect(&addrs[0]).expect("connect gateway");
    for text in &corpus {
        let r = gateway
            .solve(
                Objective::Treewidth,
                InstanceFormat::PaceGr,
                text,
                Some(deadline),
            )
            .expect("transport");
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        let owner = r
            .node
            .as_deref()
            .and_then(|id| ids.iter().position(|x| x == id))
            .expect("response stamped with a cluster node id");
        owner_of.push(owner);
    }

    // warm hits, owner-routed vs forwarded through the gateway
    let mut owner_ms: Vec<f64> = Vec::new();
    let mut forward_ms: Vec<f64> = Vec::new();
    let reps = if smoke { 1 } else { 3 };
    let mut owner_clients: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a).expect("connect owner"))
        .collect();
    for _ in 0..reps {
        for (k, text) in corpus.iter().enumerate() {
            let t = Instant::now();
            let r = owner_clients[owner_of[k]]
                .solve(
                    Objective::Treewidth,
                    InstanceFormat::PaceGr,
                    text,
                    Some(deadline),
                )
                .expect("transport");
            assert!(r.status == Status::Ok && r.cached, "owner-routed warm hit");
            owner_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if owner_of[k] != 0 {
                let t = Instant::now();
                let r = gateway
                    .solve(
                        Objective::Treewidth,
                        InstanceFormat::PaceGr,
                        text,
                        Some(deadline),
                    )
                    .expect("transport");
                assert!(r.status == Status::Ok && r.cached, "forwarded warm hit");
                forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    drop(owner_clients);
    owner_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    forward_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    push(
        metrics,
        "cluster_warm_owner_p50_ms",
        quantile(&owner_ms, 0.5),
        "ms",
        "lower",
    );
    push(
        metrics,
        "cluster_warm_forward_p50_ms",
        quantile(&forward_ms, 0.5),
        "ms",
        "lower",
    );

    // failover: kill the owner of a non-gateway key without drain, then
    // ask the gateway — the dead dial must fail over to the replica
    let victim = owner_of
        .iter()
        .copied()
        .find(|&o| o != 0)
        .expect("some key owned by a non-gateway node");
    servers[victim].take().unwrap().kill();
    let mut failover_ms: Vec<f64> = Vec::new();
    for (k, text) in corpus.iter().enumerate() {
        if owner_of[k] != victim {
            continue;
        }
        let t = Instant::now();
        let r = gateway
            .solve(
                Objective::Treewidth,
                InstanceFormat::PaceGr,
                text,
                Some(deadline),
            )
            .expect("transport");
        assert_eq!(r.status, Status::Ok, "failover answer: {:?}", r.error);
        failover_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    failover_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    push(
        metrics,
        "cluster_failover_p50_ms",
        quantile(&failover_ms, 0.5),
        "ms",
        "lower",
    );

    // tamper rejection: both corrupted pushes must be refused
    let inst = &corpus[0];
    let (problem, h) =
        parse_problem(InstanceFormat::PaceGr, inst, Objective::Treewidth).expect("parse");
    let canon = canonical_form(&h);
    let outcome = htd_search::solve(&problem, &htd_search::SearchConfig::default()).expect("solve");
    let genuine = CertPush {
        objective: Objective::Treewidth,
        format: InstanceFormat::PaceGr,
        instance: inst.clone(),
        fingerprint_hex: canon.hex(),
        effort_ms: 5,
        outcome,
        from: Some("bench".into()),
    };
    let mut lying = genuine.clone();
    lying.outcome.upper = lying.outcome.upper.saturating_sub(1);
    lying.outcome.lower = lying.outcome.upper;
    let r = gateway.put_cert(lying).expect("transport");
    assert_eq!(
        r.status,
        Status::Error,
        "width-lowered cert must be refused"
    );
    let mut mismatched = genuine;
    mismatched.fingerprint_hex = format!("{:016x}", canon.fingerprint ^ 1);
    let r = gateway.put_cert(mismatched).expect("transport");
    assert_eq!(r.status, Status::Error, "mismatched cert must be refused");
    let rejects = servers[0]
        .as_ref()
        .unwrap()
        .metrics()
        .cluster_cert_rejects
        .load(std::sync::atomic::Ordering::Relaxed);
    push(
        metrics,
        "cluster_cert_rejects_tamper",
        rejects as f64,
        "count",
        "higher",
    );

    drop(gateway);
    for (i, s) in servers.iter().enumerate() {
        if s.is_some() {
            if let Ok(mut c) = Client::connect(&addrs[i]) {
                let _ = c.shutdown();
            }
        }
    }
    for s in servers.into_iter().flatten() {
        s.wait();
    }
}

/// Span-profiler overhead: the same A* solve with the aggregate span
/// layer off and on. Reported as a percentage (can be slightly negative
/// on a noisy machine).
fn span_overhead(threads: usize, metrics: &mut Vec<Metric>) {
    let g = gen::queen_graph(5);
    let mut run = || {
        let out = solve(
            &Problem::treewidth(g.clone()),
            &SearchConfig::default()
                .with_seed(1)
                .with_threads(threads)
                .with_engines(vec![Engine::AStar]),
        )
        .expect("queen5 astar");
        assert_eq!(out.upper, 18);
    };
    // alternate off/on and take per-mode minima: on a busy single-core
    // machine the minimum is far more robust to scheduling noise than a
    // small-sample median
    run(); // warm up
    let (mut base, mut with_spans) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..4 {
        htd_trace::set_spans_enabled(false);
        base = base.min(median_ms(1, &mut run));
        htd_trace::set_spans_enabled(true);
        with_spans = with_spans.min(median_ms(1, &mut run));
    }
    htd_trace::set_spans_enabled(false);
    htd_trace::span::reset();
    push(
        metrics,
        "span_overhead_pct",
        100.0 * (with_spans - base) / base.max(1e-9),
        "pct",
        "lower",
    );
}

// ---------------------------------------------------------------- output

fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .map(|s| s.lines().next().unwrap_or("").trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.migrate {
        migrate(path);
        return;
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    println!(
        "bench_suite: {} mode, {threads} threads",
        if args.smoke { "smoke" } else { "full" }
    );

    let mut metrics: Vec<Metric> = Vec::new();
    println!("[1/8] exact-width portfolio");
    width_workloads(args.smoke, threads, &mut metrics);
    println!("[2/8] ghw corpus race + decompose sweep");
    corpus_race(args.smoke, threads, &mut metrics);
    println!("[3/8] answer cold/warm");
    answer_workload(args.smoke, &mut metrics);
    println!("[4/8] service solve load");
    service_workload(args.smoke, &mut metrics);
    println!("[5/8] event-loop pipelined load");
    pipeline_workload(args.smoke, &mut metrics);
    println!("[6/8] store warm restart");
    store_workload(args.smoke, &mut metrics);
    println!("[7/8] cluster probe");
    cluster_workload(args.smoke, &mut metrics);
    println!("[8/8] span overhead");
    span_overhead(threads, &mut metrics);

    let metric_map: Vec<(String, Json)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(round3(m.value))),
                    ("unit".into(), Json::Str(m.unit.into())),
                    ("better".into(), Json::Str(m.better.into())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("htd-bench/v1".into())),
        ("bench".into(), Json::Num(f64::from(args.bench))),
        (
            "commit".into(),
            Json::Str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(tool_line("rustc", &["-V"]))),
        ("threads".into(), Json::Num(threads as f64)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("metrics".into(), Json::Obj(metric_map)),
    ]);
    let out = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", args.bench));
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("bench_suite: cannot write {out}: {e}");
        std::process::exit(5);
    }
    println!("wrote {out} ({} metrics)", metrics.len());
}
