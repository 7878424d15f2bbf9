//! `serve`: open loop against one in-process `htd_service::Server`.
//!
//! One generator thread sends newline-JSON requests over two pipelined
//! connections to the event-loop front end, at a fixed offered rate, and
//! times each request from its scheduled send time. The mix is repeat
//! solves (result-cache hits), never-seen instances (misses that run a
//! portfolio solve and append a certificate to the store) and `answer`
//! requests. A closed-loop saturation phase with the same mix follows
//! and gives capacity and the end-to-end latencies; the open loop's are
//! reported per layer. Set-up is a restart onto a store pre-populated
//! with certificates, which the oracle re-verifies before the first
//! request is served.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use htd_check::verify_store_entry;
use htd_hypergraph::{gen, io};
use htd_query::{answer, parse_query, AnswerMode, FileAccess};
use htd_search::Objective;
use htd_service::protocol::{AnswerRequest, Command, Request, Response, SolveRequest, Status};
use htd_service::{parse_problem, CertStore, Client, InstanceFormat, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{mean, median, quantile, sorted, windowed, Report, WINDOWS};
use crate::spans::Tracer;
use crate::wire::{Flight, Kind, Pipe};
use crate::{Args, THREADS};

/// Offered rate of the open-loop phase, requests per second; below the
/// measured capacity of the reference host (see README.md).
const RATE: f64 = 100.0;
/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop saturation phase, which gives the end-to-end metrics and
/// so gets the larger share.
const OPEN_SHARE: f64 = 1.0 / 3.0;
/// Requests in flight during the saturation phase.
const WINDOW: usize = 8;
/// Pipelined connections.
const CONNECTIONS: usize = 2;
/// Instances in the pre-populated store.
const WARM: usize = 192;
/// Set-up repetitions (restarts) before the load, and again after it;
/// the median of all of them is `setup_s`.
const SETUP_REPS: usize = 10;
const DEADLINE_MS: u64 = 10_000;

/// A solve input with its width by construction.
struct Instance {
    objective: Objective,
    text: String,
    width: u32,
}

/// A random k-tree has treewidth exactly k.
fn ktree(rng: &mut StdRng) -> Instance {
    let n = rng.gen_range(14..21u32);
    let k = rng.gen_range(2..6u32);
    Instance {
        objective: Objective::Treewidth,
        text: io::write_pace_gr(&gen::random_ktree(n, k, rng.gen())),
        width: k,
    }
}

struct Inputs {
    warm: Vec<Instance>,
    cold: Vec<Instance>,
    /// Query text, mode and expected (satisfiable, count).
    queries: Vec<(String, AnswerMode, bool, u64)>,
}

fn generate(seed: u64, cold: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_FE00);
    let mut warm: Vec<Instance> = (0..WARM - 8).map(|_| ktree(&mut rng)).collect();
    // hypergraph instances too: ghw(adder_k) = 2
    warm.extend((2..10).map(|k| Instance {
        objective: Objective::GeneralizedHypertreeWidth,
        text: io::write_hg(&gen::adder(k)),
        width: 2,
    }));
    let cold = (0..cold).map(|_| ktree(&mut rng)).collect();
    let queries = crate::answer::server_queries(seed)
        .into_iter()
        .map(|(text, mode)| {
            let q = parse_query(&text, &FileAccess::Deny).expect("generated query parses");
            let opts = htd_query::AnswerOptions {
                mode: AnswerMode::Count,
                ..Default::default()
            };
            let a = answer(&q, &opts).expect("ground-truth answer");
            let count = a.count.expect("count mode counts");
            (text, mode, count > 0, count)
        })
        .collect();
    Inputs {
        warm,
        cold,
        queries,
    }
}

fn solve_request(id: String, inst: &Instance) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Solve(SolveRequest {
            objective: inst.objective,
            format: InstanceFormat::Auto,
            instance: inst.text.clone(),
            deadline_ms: Some(DEADLINE_MS),
            budget: None,
            threads: Some(THREADS),
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

fn answer_request(id: String, text: &str, mode: AnswerMode) -> Request {
    Request {
        id: Some(id),
        cmd: Command::Answer(AnswerRequest {
            query: text.to_string(),
            mode,
            limit: None,
            deadline_ms: Some(DEADLINE_MS),
            threads: Some(THREADS),
            engines: None,
            use_cache: true,
            forwarded: false,
        }),
    }
}

fn options(store: &Path) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: THREADS,
        queue_capacity: 256,
        default_deadline_ms: DEADLINE_MS,
        event_loop: true,
        store_dir: Some(store.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// Restarts onto the store in `dir` until the first request is answered;
/// returns the server and the seconds that took.
fn restart(dir: &Path) -> (Server, f64) {
    let t = Instant::now();
    let s = Server::start(options(dir)).expect("restart the server");
    Client::connect(&s.addr().to_string())
        .and_then(|mut c| c.ping().map_err(|e| std::io::Error::other(e.to_string())))
        .expect("first request after restart");
    (s, t.elapsed().as_secs_f64())
}

fn stop(server: Server) {
    if let Ok(mut c) = Client::connect(&server.addr().to_string()) {
        let _ = c.shutdown();
    }
    server.wait();
}

/// Checks a solve response against the width by construction.
fn check_solve(r: &Response, inst: &Instance) -> Result<(), String> {
    match &r.outcome {
        Some(o) if r.status == Status::Ok && o.exact && o.upper == inst.width => Ok(()),
        Some(o) => Err(format!(
            "status {:?}, [{}, {}] exact={}, expected width {}",
            r.status, o.lower, o.upper, o.exact, inst.width
        )),
        None => Err(format!("status {:?}: {:?}", r.status, r.error)),
    }
}

/// Drives both phases from this thread; returns every flight, the
/// replies that matched no request, and the saturation phase's length.
fn drive(addr: &str, inputs: &Inputs, seed: u64, seconds: f64) -> (Vec<Flight>, usize, f64) {
    // the mix is exact in every block of twenty requests (16 hits, 1
    // miss, 3 answers, in a seeded order); hits and answers cycle
    // through their lists, misses never repeat. A miss holds a worker
    // for one or two 5 ms ticks of the solve deadline watchdog; with
    // more misses the closed loop's p50 flipped between runs with them
    // (spread 0.67 over ten seeds at three in twenty)
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE5_1DE5);
    let mut block: Vec<Kind> = Vec::new();
    let mut counts = [0usize; 3];
    let mut pick = move || -> (Kind, usize) {
        if block.is_empty() {
            block = [
                [Kind::Hit; 16].as_slice(),
                &[Kind::Miss; 1],
                &[Kind::Answer; 3],
            ]
            .concat();
            rand::seq::SliceRandom::shuffle(&mut block[..], &mut rng);
        }
        let kind = block.pop().expect("refilled above");
        let (slot, len) = match kind {
            Kind::Hit => (0, inputs.warm.len()),
            Kind::Miss => (1, inputs.cold.len()),
            Kind::Answer => (2, inputs.queries.len()),
        };
        counts[slot] += 1;
        (kind, (counts[slot] - 1) % len)
    };
    let request = |(kind, item): (Kind, usize)| {
        move |id: String| match kind {
            Kind::Hit => solve_request(id, &inputs.warm[item]),
            Kind::Miss => solve_request(id, &inputs.cold[item]),
            Kind::Answer => {
                let (text, mode, _, _) = &inputs.queries[item];
                answer_request(id, text, *mode)
            }
        }
    };
    let timeout = Duration::from_millis(2 * DEADLINE_MS);
    std::thread::scope(|scope| {
        let mut pipe = Pipe::open(scope, &vec![addr.to_string(); CONNECTIONS]);

        // open loop: request i is due at start + i / RATE
        let open_s = seconds * OPEN_SHARE;
        let start = Instant::now();
        for i in 0u64.. {
            let due = start + Duration::from_secs_f64(i as f64 / RATE);
            if due.duration_since(start).as_secs_f64() >= open_s {
                break;
            }
            // wait by polling: a sleeping generator lets its core idle, and
            // on the reference host (a 2-vCPU VM) waking an idle core adds
            // latency that changes from run to run with the host's load
            while Instant::now() < due {
                pipe.poll();
                std::hint::spin_loop();
            }
            let what = pick();
            pipe.send(i as usize % CONNECTIONS, what, due, false, request(what));
        }
        while pipe.outstanding() > 0 && pipe.wait_one(timeout) {}

        // closed loop: keep WINDOW requests in flight
        let sat_start = Instant::now();
        let mut i = 0usize;
        while sat_start.elapsed().as_secs_f64() < seconds - open_s {
            while pipe.outstanding() < WINDOW {
                let what = pick();
                pipe.send(i % CONNECTIONS, what, Instant::now(), true, request(what));
                i += 1;
            }
            if !pipe.wait_one(timeout) {
                break;
            }
        }
        let sat_s = sat_start.elapsed().as_secs_f64();
        let (flights, unmatched) = pipe.finish(timeout);
        (flights, unmatched, sat_s)
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Opens the store standalone: load time, the oracle's time per
/// certificate, the record count and the log size.
fn load_store(dir: &Path, report: &mut Report) -> (f64, Vec<f64>, usize, u64) {
    let t = Instant::now();
    let (store, records) = CertStore::open(dir).expect("open the certificate store");
    let load_ms = ms(t.elapsed());
    let mut verify_ms = Vec::new();
    for rec in &records {
        let objective = Objective::from_name(rec.objective).expect("stored objective");
        let (problem, _) =
            parse_problem(rec.format, &rec.instance, objective).expect("stored instance parses");
        let t = Instant::now();
        let check = verify_store_entry(&problem, &rec.outcome);
        verify_ms.push(ms(t.elapsed()));
        if !check.is_valid() {
            report.wrong(format!("stored certificate fails the oracle: {check}"));
        }
    }
    (load_ms, verify_ms, records.len(), store.bytes())
}

/// Builds the spans of each answered flight after the run: the lag
/// before sending, encoding, the round trip (`service.frontend`) holding
/// the server's reported time (`service.server`, ending when the reply
/// was read) and decoding.
fn flight_spans(tracer: &mut Tracer, flights: &[&Flight]) {
    for (i, f) in flights.iter().enumerate() {
        let (Some(read_done), Some(decoded), Some(r)) = (f.read_done, f.decoded, &f.response)
        else {
            continue;
        };
        let req = i as u64;
        let op = tracer.record("op.request", f.scheduled, decoded, None, req);
        tracer.record("gen.lag", f.scheduled, f.send_start, op, req);
        tracer.record("service.encode", f.send_start, f.encoded, op, req);
        let rtt = tracer.record("service.frontend", f.encoded, read_done, op, req);
        let server_time = Duration::from_secs_f64(r.elapsed_ms.max(0.0) / 1e3);
        let server_start = read_done
            .checked_sub(server_time)
            .unwrap_or(f.encoded)
            .max(f.encoded);
        tracer.record("service.server", server_start, read_done, rtt, req);
        tracer.record("service.decode", read_done, decoded, op, req);
    }
}

/// Client-side service metrics: p50 per request kind, round trip minus
/// server time, and encode and decode times.
fn client_layers(report: &mut Report, flights: &[&Flight]) {
    let p50_of = |kind: Kind| {
        let v = sorted(
            flights
                .iter()
                .filter(|f| f.kind == kind)
                .filter_map(|f| f.latency_ms())
                .collect(),
        );
        (quantile(&v, 0.5), v.len())
    };
    for (name, kind) in [
        ("service.hit_ms", Kind::Hit),
        ("service.miss_ms", Kind::Miss),
        ("service.answer_ms", Kind::Answer),
    ] {
        let (v, n) = p50_of(kind);
        report.layer(name, v, n);
    }
    let frontend: Vec<f64> = flights
        .iter()
        .filter_map(|f| {
            Some(ms(f.read_done?.duration_since(f.encoded)) - f.response.as_ref()?.elapsed_ms)
        })
        .collect();
    report.layer("service.frontend_ms", median(&frontend), frontend.len());
    let encode: Vec<f64> = flights
        .iter()
        .map(|f| ms(f.encoded.duration_since(f.send_start)))
        .collect();
    report.layer("service.encode_ms", mean(&encode), encode.len());
    let decode: Vec<f64> = flights
        .iter()
        .filter_map(|f| Some(ms(f.decoded?.duration_since(f.read_done?))))
        .collect();
    report.layer("service.decode_ms", mean(&decode), decode.len());
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cold_needed = (args.seconds * 600.0) as usize + 64;
    let inputs = generate(args.seed, cold_needed);
    let dir = args
        .work_dir()
        .join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // pre-populate the store with certificates of the warm instances
    let server = Server::start(options(&dir)).expect("start the server");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for (i, inst) in inputs.warm.iter().enumerate() {
        let r = client
            .request(&solve_request(format!("w{i}"), inst))
            .expect("transport");
        if let Err(e) = check_solve(&r, inst) {
            report.wrong(format!("warm instance {i}: {e}"));
        }
    }
    drop(client);
    stop(server);

    // set-up: restart onto the store, re-verifying every record, until
    // the first request is answered. Half the restarts run before the
    // load and half after it, onto a copy of the store as it was before:
    // the host's speed drifts over seconds, and restarts taken all at
    // once would sample one moment of it.
    let snapshot = dir.with_extension("before-load");
    std::fs::create_dir_all(&snapshot).expect("create the store copy");
    std::fs::copy(dir.join("store.log"), snapshot.join("store.log")).expect("copy the store");
    let mut setup_s = Vec::new();
    let mut load = Vec::new();
    let mut verify_ms = Vec::new();
    let mut records = 0;
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (l, v, n, _) = load_store(&dir, &mut report);
        load.push(l);
        verify_ms = v;
        records = n;
        let (s, secs) = restart(&dir);
        setup_s.push(secs);
        if rep + 1 < SETUP_REPS {
            stop(s);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("a running server");
    let addr = server.addr().to_string();

    // warm the server's shape cache: every query once
    let mut client = Client::connect(&addr).expect("connect");
    for (i, (text, mode, _, _)) in inputs.queries.iter().enumerate() {
        let r = client
            .request(&answer_request(format!("a{i}"), text, *mode))
            .expect("transport");
        if r.status != Status::Ok {
            report.wrong(format!("warm-up answer {i}: {:?}", r.error));
        }
    }
    drop(client);

    let metrics = server.metrics();
    let snap = |m: &htd_service::Metrics| {
        (
            m.cache_hits.load(Ordering::Relaxed),
            m.cache_misses.load(Ordering::Relaxed),
            m.queue_wait.count(),
            m.queue_wait.sum(),
            m.solve_time.count(),
            m.solve_time.sum(),
        )
    };
    let before = snap(metrics);
    let (flights, unmatched, sat_s) = drive(&addr, &inputs, args.seed, args.seconds);
    let after = snap(metrics);
    stop(server);
    let (_, _, records_after, bytes_after) = load_store(&dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    for _ in 0..SETUP_REPS {
        let (s, secs) = restart(&snapshot);
        setup_s.push(secs);
        stop(s);
    }
    let _ = std::fs::remove_dir_all(&snapshot);

    // correctness of every response
    for _ in 0..unmatched {
        report.attempted += 1;
        report.wrong("a response matched no request".into());
    }
    for (i, f) in flights.iter().enumerate() {
        report.attempted += 1;
        let Some(r) = &f.response else {
            report.wrong(format!("request {i} ({:?}) got no response", f.kind));
            continue;
        };
        let verdict = match f.kind {
            Kind::Hit => check_solve(r, &inputs.warm[f.item]),
            Kind::Miss => check_solve(r, &inputs.cold[f.item]),
            Kind::Answer => {
                let (_, mode, sat, count) = &inputs.queries[f.item];
                match &r.answer {
                    Some(a)
                        if r.status == Status::Ok
                            && a.satisfiable == *sat
                            && (*mode != AnswerMode::Count || a.count == Some(*count)) =>
                    {
                        Ok(())
                    }
                    _ => Err(format!(
                        "status {:?}: answer {:?}",
                        r.status,
                        r.answer.as_ref().map(|a| (a.satisfiable, a.count))
                    )),
                }
            }
        };
        if let Err(e) = verdict {
            report.wrong(format!("request {i} ({:?}): {e}", f.kind));
        }
    }

    let open: Vec<&Flight> = flights
        .iter()
        .filter(|f| !f.closed_loop && f.decoded.is_some())
        .collect();
    let open_ms = sorted(open.iter().filter_map(|f| f.latency_ms()).collect());
    let mut closed: Vec<&Flight> = flights
        .iter()
        .filter(|f| f.closed_loop && f.decoded.is_some())
        .collect();
    closed.sort_by_key(|f| f.decoded);
    let closed_ms: Vec<f64> = closed.iter().filter_map(|f| f.latency_ms()).collect();
    let q = |p: f64| move |w: &[f64]| quantile(&sorted(w.to_vec()), p);
    report.e2e(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        format!("median restart onto {records} stored certificates until the first reply"),
    );
    report.e2e(
        "ops_per_s",
        closed.len() as f64 / sat_s.max(1e-9),
        closed.len(),
        format!("capacity_rps: closed loop, {WINDOW} in flight, same mix"),
    );
    // latency under the saturation phase: the open loop's latencies are
    // below a millisecond and mostly the time to wake an idle core, which
    // moves by half from run to run with the host's load (see README.md);
    // they are reported per layer instead
    report.e2e(
        "p50_ms",
        windowed(&closed_ms, WINDOWS, q(0.5)),
        closed_ms.len(),
        "closed loop, median of 10 windows",
    );
    report.e2e(
        "tail_ms",
        windowed(&closed_ms, WINDOWS, q(0.99)),
        closed_ms.len(),
        "p99, closed loop, median of 10 windows",
    );

    if args.trace {
        let origin = flights.first().map_or_else(Instant::now, |f| f.scheduled);
        let mut tracer = Tracer::starting_at(true, origin);
        flight_spans(&mut tracer, &open);
        client_layers(&mut report, &open);
        report.layer(
            "service.open_p50_ms",
            quantile(&open_ms, 0.5),
            open_ms.len(),
        );
        report.layer(
            "service.open_p99_ms",
            quantile(&open_ms, 0.99),
            open_ms.len(),
        );
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let (waits, solves) = (d(after.2, before.2), d(after.4, before.4));
        report.layer(
            "service.queue_wait_ms",
            1e3 * (after.3 - before.3) / waits.max(1) as f64,
            waits as usize,
        );
        report.layer(
            "service.solve_time_ms",
            1e3 * (after.5 - before.5) / solves.max(1) as f64,
            solves as usize,
        );
        let (hits, misses) = (d(after.0, before.0), d(after.1, before.1));
        report.layer(
            "service.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        let appends = records_after.saturating_sub(records);
        report.layer("service.store_appends", appends as f64, appends);
        report.layer(
            "service.store_bytes_per_record",
            bytes_after as f64 / records_after.max(1) as f64,
            records_after,
        );
        report.layer("service.store_load_ms", median(&load), load.len());
        report.layer("check.verify_ms", mean(&verify_ms), verify_ms.len());
        let floor: Vec<f64> = flights
            .iter()
            .filter(|f| f.kind == Kind::Miss)
            .filter_map(|f| f.response.as_ref()?.outcome.as_ref())
            .filter(|o| o.nodes == 0)
            .map(|o| ms(o.elapsed))
            .collect();
        report.layer("search.floor_ms", mean(&floor), floor.len());
        let lag = sorted(
            open.iter()
                .map(|f| ms(f.send_start.duration_since(f.scheduled)))
                .collect(),
        );
        report.layer("gen.lag_p99_ms", quantile(&lag, 0.99), lag.len());
        report.layer("trace.coverage_pct", tracer.coverage_pct(), open.len());
        // the timestamps are taken in untraced runs too; spans are built
        // from them after the run, so tracing adds nothing to a request
        report.layer("trace.overhead_pct", 0.0, open.len());
        crate::write_spans(args, &tracer);
    }
    report
}
