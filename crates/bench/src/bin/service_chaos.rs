//! Chaos harness for the decomposition server (`htd-service`).
//!
//! Starts an in-process server with seeded fault injection (every solve
//! gets a panicking portfolio worker; some are stalled or allocation-
//! starved) and a per-request memory budget, then hammers it with
//! consecutive solve requests. The acceptance properties of the
//! resilience layer (docs/robustness.md):
//!
//! * the server process survives every injected fault — zero deaths;
//! * every request gets a terminal, structured response: a (possibly
//!   degraded) outcome, or backpressure carrying `retry_after_ms`;
//! * panicking engines are benched by their circuit breaker
//!   (`htd_engine_quarantined` rises) and recover after the probe
//!   interval (the gauge falls again);
//! * the faults are visible in `/metrics` (`htd_worker_panics_total`,
//!   `htd_degraded_responses_total`, `htd_mem_budget_aborts_total`).
//!
//! `cargo run --release -p htd-bench --bin service_chaos -- --smoke`
//! runs the CI acceptance gate (500 requests, hard assertions);
//! `--soak SECS` runs continuously for nightly soak testing.

use std::time::{Duration, Instant};

use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    Client, Command, FaultPlan, InstanceFormat, Request, ServeOptions, Server, SolveRequest, Status,
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
        requests: 500,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--soak" => a.soak_secs = Some(it.next().and_then(|s| s.parse().ok()).unwrap_or(900)),
            "--seed" => a.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            "--requests" => a.requests = it.next().and_then(|s| s.parse().ok()).unwrap_or(500),
            _ => {
                eprintln!("usage: service_chaos [--smoke | --soak SECS] [--seed N] [--requests N]");
                std::process::exit(4);
            }
        }
    }
    if !a.smoke && a.soak_secs.is_none() {
        a.smoke = true;
    }
    a
}

/// Scrapes one numeric series from `/metrics`.
fn metric(addr: &str, name: &str) -> Option<f64> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").ok()?;
    let mut body = String::new();
    s.read_to_string(&mut body).ok()?;
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn corpus() -> Vec<(Objective, String)> {
    let mut c = Vec::new();
    for k in 3..=4 {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(k, k)),
        ));
    }
    for n in [12u32, 14, 16] {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(n, 0.35, u64::from(n))),
        ));
    }
    c.push((
        Objective::GeneralizedHypertreeWidth,
        io::write_hg(&gen::grid2d(2)),
    ));
    c
}

struct Tally {
    ok: u64,
    degraded: u64,
    rejected: u64,
    timeout: u64,
    error: u64,
    bad: Vec<String>,
    quarantine_peak: f64,
    recovery_seen: bool,
    last_gauge: f64,
}

fn main() {
    let args = parse_args();
    // injected panics are the point of the exercise; keep their backtraces
    // out of the log while leaving real panics loud
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()))
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 16,
        queue_capacity: 32,
        default_deadline_ms: 2_000,
        log: false,
        verify_responses: false,
        memory_mb: Some(64),
        chaos: Some(FaultPlan::chaos(args.seed)),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let corpus = corpus();
    println!(
        "service_chaos: seed {} memory_mb 64 — every solve gets an injected worker panic",
        args.seed
    );

    let mut t = Tally {
        ok: 0,
        degraded: 0,
        rejected: 0,
        timeout: 0,
        error: 0,
        bad: Vec::new(),
        quarantine_peak: 0.0,
        recovery_seen: false,
        last_gauge: 0.0,
    };
    let deadline = args
        .soak_secs
        .map(|s| Instant::now() + Duration::from_secs(s));
    let total = if args.soak_secs.is_some() {
        usize::MAX
    } else {
        args.requests
    };

    let mut client = Client::connect(&addr).expect("connect");
    for i in 0..total {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (objective, inst) = &corpus[i % corpus.len()];
        let reply = client.request(&Request {
            id: Some(format!("x{i}")),
            cmd: Command::Solve(SolveRequest {
                objective: *objective,
                format: InstanceFormat::Auto,
                instance: inst.clone(),
                deadline_ms: Some(1_500),
                budget: None,
                threads: Some(3),
                engines: None,
                use_cache: false,
                forwarded: false,
            }),
        });
        match reply {
            Err(e) => {
                // a dropped connection is a server death from the client's
                // point of view — reconnect, but record the violation
                t.bad.push(format!("request {i}: transport error {e}"));
                match Client::connect(&addr) {
                    Ok(c) => client = c,
                    Err(_) => {
                        t.bad.push("server unreachable after error".into());
                        break;
                    }
                }
            }
            Ok(r) => match r.status {
                Status::Ok => {
                    t.ok += 1;
                    match r.outcome {
                        None => t.bad.push(format!("request {i}: ok without outcome")),
                        Some(o) => {
                            if o.lower > o.upper {
                                t.bad.push(format!(
                                    "request {i}: incoherent bounds {}..{}",
                                    o.lower, o.upper
                                ));
                            }
                            if o.degraded || o.per_engine.iter().any(|e| e.panicked) {
                                t.degraded += 1;
                            }
                        }
                    }
                }
                Status::Rejected => {
                    t.rejected += 1;
                    if r.retry_after_ms.is_none() {
                        t.bad
                            .push(format!("request {i}: rejection without retry_after_ms"));
                    }
                }
                Status::Timeout => t.timeout += 1,
                Status::Error => {
                    t.error += 1;
                    if r.code.is_none() {
                        t.bad.push(format!("request {i}: error without code"));
                    }
                }
                s => t.bad.push(format!("request {i}: unexpected {}", s.name())),
            },
        }
        // sample the quarantine gauge as the run progresses
        if i % 20 == 19 {
            if let Some(g) = metric(&addr, "htd_engine_quarantined") {
                if g > t.quarantine_peak {
                    t.quarantine_peak = g;
                }
                if g < t.last_gauge {
                    t.recovery_seen = true; // a benched engine re-closed
                }
                t.last_gauge = g;
            }
            if args.soak_secs.is_some() && i % 500 == 499 {
                println!(
                    "  soak: {} requests, ok={} degraded={} quarantined={} violations={}",
                    i + 1,
                    t.ok,
                    t.degraded,
                    t.last_gauge,
                    t.bad.len()
                );
            }
        }
    }

    // recovery phase: give benched engines their probe interval and keep
    // soliciting solves until a breaker re-closes (bounded wait)
    let recovery_deadline = Instant::now() + Duration::from_secs(15);
    let mut i = 0u64;
    while !(t.recovery_seen && t.quarantine_peak >= 1.0) && Instant::now() < recovery_deadline {
        std::thread::sleep(Duration::from_millis(300));
        let (objective, inst) = &corpus[(i as usize) % corpus.len()];
        let _ = client.request(&Request {
            id: Some(format!("r{i}")),
            cmd: Command::Solve(SolveRequest {
                objective: *objective,
                format: InstanceFormat::Auto,
                instance: inst.clone(),
                deadline_ms: Some(1_500),
                budget: None,
                threads: Some(3),
                engines: None,
                use_cache: false,
                forwarded: false,
            }),
        });
        if let Some(g) = metric(&addr, "htd_engine_quarantined") {
            if g > t.quarantine_peak {
                t.quarantine_peak = g;
            }
            if g < t.last_gauge {
                t.recovery_seen = true;
            }
            t.last_gauge = g;
        }
        i += 1;
    }

    let panics = metric(&addr, "htd_worker_panics_total").unwrap_or(0.0);
    let degraded_total = metric(&addr, "htd_degraded_responses_total").unwrap_or(0.0);
    let mem_aborts = metric(&addr, "htd_mem_budget_aborts_total").unwrap_or(0.0);
    let alive = metric(&addr, "htd_engine_quarantined").is_some();

    println!(
        "responses: ok={} (degraded {}) rejected={} timeout={} error={}",
        t.ok, t.degraded, t.rejected, t.timeout, t.error
    );
    println!(
        "metrics: worker_panics={panics} degraded_responses={degraded_total} \
         mem_budget_aborts={mem_aborts} quarantine_peak={} recovery_seen={}",
        t.quarantine_peak, t.recovery_seen
    );
    for v in &t.bad {
        println!("VIOLATION: {v}");
    }

    server.request_shutdown();
    server.wait();

    if args.smoke {
        let mut failures = Vec::new();
        if !t.bad.is_empty() {
            failures.push(format!("{} response violations", t.bad.len()));
        }
        if !alive {
            failures.push("server stopped answering /metrics".into());
        }
        if t.ok == 0 {
            failures.push("no request succeeded".into());
        }
        if panics == 0.0 {
            failures.push("chaos injected no panics".into());
        }
        if degraded_total == 0.0 {
            failures.push("no response was marked degraded".into());
        }
        if t.quarantine_peak < 1.0 {
            failures.push("no circuit breaker ever opened".into());
        }
        if !t.recovery_seen {
            failures.push("no benched engine recovered via its probe".into());
        }
        if failures.is_empty() {
            println!("service_chaos --smoke PASS");
        } else {
            for f in &failures {
                println!("service_chaos FAIL: {f}");
            }
            std::process::exit(1);
        }
    } else {
        println!("service_chaos --soak done: {} violations", t.bad.len());
        if !t.bad.is_empty() {
            std::process::exit(1);
        }
    }
}
