//! `answer`: closed loop, one in-process caller of `htd_query::parse_query`
//! and `htd_query::answer` with one shared `ShapeCache`.
//!
//! A seeded pool of conjunctive queries over a few fixed shapes, each
//! with fresh relation data and a mode (boolean, count or enumerate), is
//! answered in a seeded order until the time is up. The first sighting
//! of each shape (a cold decomposition) happens during set-up, so the
//! timed stream hits the shape cache. Every answer is checked: count
//! against enumeration, boolean against count, and a seeded sample
//! against the brute-force oracle of `htd_check::answers`.

use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use htd_core::bucket::td_of_hypergraph;
use htd_core::EliminationOrdering;
use htd_csp::{count_solutions_td, for_each_solution_td, node_relations, solve_with_td, Value};
use htd_hypergraph::canonical_form;
use htd_query::{
    answer, parse_query, Answer, AnswerMode, AnswerOptions, FileAccess, Query, ShapeCache,
};
use htd_search::{solve, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{mean, median, quantile, rate, sorted, windowed, Report, WINDOWS};
use crate::spans::Tracer;
use crate::{Args, THREADS};

/// Queries generated per shape.
const PER_SHAPE: usize = 120;
/// Pool queries cross-checked against the brute-force oracle per run.
const BRUTE_FORCE_SAMPLE: usize = 6;

use AnswerMode::{Boolean as B, Count as C, Enumerate as E};

/// One query shape: its atoms over variables `v0..`, the data size and
/// the modes it is asked in.
struct Shape {
    name: &'static str,
    atoms: Vec<Vec<usize>>,
    domain: u32,
    tuples: usize,
    modes: &'static [AnswerMode],
}

fn ring(n: usize, shifts: &[usize]) -> Vec<Vec<usize>> {
    shifts
        .iter()
        .flat_map(|&s| (0..n).map(move |i| vec![i, (i + s) % n]))
        .collect()
}

/// The fixed shapes: acyclic binary (tw 1), cyclic binary (tw 2-4) and
/// wide-atom shapes whose ghw is below their tw.
fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "path6",
            atoms: (0..5).map(|i| vec![i, i + 1]).collect(),
            domain: 10,
            tuples: 14,
            modes: &[B, C, E],
        },
        Shape {
            name: "star6",
            atoms: (1..6).map(|i| vec![0, i]).collect(),
            domain: 10,
            tuples: 14,
            modes: &[B, C, E],
        },
        Shape {
            name: "cycle7",
            atoms: ring(7, &[1]),
            domain: 7,
            tuples: 12,
            modes: &[B, C, E],
        },
        Shape {
            name: "circulant10",
            atoms: ring(10, &[1, 3]),
            domain: 3,
            tuples: 5,
            modes: &[B, C],
        },
        Shape {
            name: "wide_ring3",
            atoms: vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6], vec![6, 7, 8, 0]],
            domain: 4,
            tuples: 24,
            modes: &[B, C, E],
        },
        Shape {
            name: "wide_hub",
            atoms: vec![
                vec![0, 1, 2],
                vec![2, 3, 4],
                vec![4, 5, 6],
                vec![6, 7, 0],
                vec![0, 2, 4, 6],
            ],
            domain: 4,
            tuples: 20,
            modes: &[B, C, E],
        },
    ]
}

/// One generated query of the pool.
struct Item {
    shape: usize,
    text: String,
    mode: AnswerMode,
}

fn query_text(shape: &Shape, mode: AnswerMode, rng: &mut StdRng) -> String {
    let vars = 1 + shape.atoms.iter().flatten().max().copied().unwrap_or(0);
    // enumeration projects onto two variables, so answers deduplicate
    let head: Vec<usize> = if mode == E {
        vec![0, vars / 2]
    } else {
        (0..vars).collect()
    };
    let list = |vs: &[usize]| {
        vs.iter()
            .map(|v| format!("v{v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut text = format!("Q({}) :- ", list(&head));
    for (i, atom) in shape.atoms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(text, "{sep}e{i}({})", list(atom));
    }
    text.push_str(".\n");
    for (i, atom) in shape.atoms.iter().enumerate() {
        let mut rows: BTreeSet<Vec<u32>> = BTreeSet::new();
        while rows.len() < shape.tuples {
            rows.insert(
                atom.iter()
                    .map(|_| rng.gen_range(0..shape.domain))
                    .collect(),
            );
        }
        let _ = write!(text, "e{i}:");
        for row in rows {
            let vals: Vec<String> = row.iter().map(u32::to_string).collect();
            let _ = write!(text, " {} ;", vals.join(" "));
        }
        text.push_str(" .\n");
    }
    text
}

fn generate(seed: u64) -> (Vec<Shape>, Vec<Item>) {
    let shapes = shapes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A45_5EED);
    let mut pool = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        for i in 0..PER_SHAPE {
            // every mode equally often, so each seed asks the same mix
            let mode = shape.modes[i % shape.modes.len()];
            pool.push(Item {
                shape: s,
                text: query_text(shape, mode, &mut rng),
                mode,
            });
        }
    }
    (shapes, pool)
}

/// The queries the `serve` workload sends: every fourth boolean or count
/// query of the pool.
pub fn server_queries(seed: u64) -> Vec<(String, AnswerMode)> {
    let (_, pool) = generate(seed);
    pool.into_iter()
        .filter(|it| it.mode != E)
        .step_by(4)
        .map(|it| (it.text, it.mode))
        .collect()
}

fn options(mode: AnswerMode, cache: &Arc<ShapeCache>) -> AnswerOptions {
    let defaults = AnswerOptions::default();
    AnswerOptions {
        mode,
        search: defaults.search.with_threads(THREADS),
        shape_cache: Some(Arc::clone(cache)),
        ..defaults
    }
}

fn parse(text: &str) -> Query {
    parse_query(text, &FileAccess::Deny).expect("generated query parses")
}

/// What the traced path measured besides the answer itself.
#[derive(Default)]
struct Extra {
    walked: u64,
    width: u32,
    nodes: usize,
}

/// The traced path: the same public calls as `htd_query::answer`, in its
/// order, each inside a span of its layer.
fn traced_answer(
    text: &str,
    mode: AnswerMode,
    cache: &Arc<ShapeCache>,
    tracer: &mut Tracer,
) -> (Answer, Extra) {
    let q = tracer.leaf("query.parse", || parse(text));
    let (h, canon) = tracer.leaf("hypergraph.canonical", || {
        let h = q.csp.hypergraph();
        let canon = canonical_form(&h);
        (h, canon)
    });
    let cached = tracer.leaf("query.shape_lookup", || cache.lookup(&canon.bytes));
    let hit = cached.is_some();
    let order = match cached {
        Some(order) => order,
        None => {
            let order = tracer.leaf("search.tw", || decompose(&h));
            cache.insert(canon.bytes.clone(), &order);
            order
        }
    };
    let td = tracer.leaf("core.td_build", || td_of_hypergraph(&h, &order));
    let head = &q.head;
    let project = |a: &[Value]| -> Vec<Value> { head.iter().map(|&v| a[v as usize]).collect() };
    let mut extra = Extra {
        width: td.width(),
        nodes: td.num_nodes(),
        ..Extra::default()
    };
    let (satisfiable, count, tuples) = match mode {
        AnswerMode::Boolean => {
            let w = tracer.leaf("csp.bool", || solve_with_td(&q.csp, &td));
            let tuples: Vec<Vec<Value>> = w.iter().map(|a| project(a)).collect();
            (w.is_some(), None, tuples)
        }
        AnswerMode::Count if q.head_covers_all_vars() => {
            let n = tracer.leaf("csp.count", || count_solutions_td(&q.csp, &td));
            (n > 0, Some(n), Vec::new())
        }
        AnswerMode::Count | AnswerMode::Enumerate => {
            let name = if mode == AnswerMode::Count {
                "csp.count"
            } else {
                "csp.enum"
            };
            let dedup = !q.head_covers_all_vars();
            let (walked, tuples) = tracer.leaf(name, || {
                let mut seen: HashSet<Vec<Value>> = HashSet::new();
                let mut tuples = Vec::new();
                let walked = for_each_solution_td(&q.csp, &td, |a| {
                    let p = project(a);
                    if !dedup || seen.insert(p.clone()) {
                        tuples.push(p);
                    }
                    true
                });
                (walked, tuples)
            });
            extra.walked = walked;
            let n = tuples.len() as u64;
            let tuples = if mode == AnswerMode::Enumerate {
                tuples
            } else {
                Vec::new()
            };
            (n > 0, Some(n), tuples)
        }
    };
    let tuples: Vec<Vec<String>> = tracer.leaf("query.render", || {
        tuples
            .into_iter()
            .map(|t| t.into_iter().map(|v| q.render_value(v)).collect())
            .collect()
    });
    let answer = Answer {
        head: q.head_names(),
        mode,
        satisfiable,
        count,
        tuples,
        truncated: false,
        stats: htd_query::AnswerStats {
            shape_cache_hit: hit,
            width: extra.width,
            nodes: extra.nodes as u64,
            ..Default::default()
        },
    };
    (answer, extra)
}

/// The cold decomposition `htd_query::answer` computes on a shape-cache
/// miss: the portfolio's witness ordering.
fn decompose(h: &htd_hypergraph::Hypergraph) -> EliminationOrdering {
    let cfg = AnswerOptions::default().search.with_threads(THREADS);
    solve(&Problem::treewidth_of_hypergraph(h.clone()), &cfg)
        .ok()
        .and_then(|o| o.witness)
        .expect("query decomposition has a witness")
}

/// The parts of an answer the checks compare.
fn key(a: &Answer) -> (bool, Option<u64>, Vec<Vec<String>>) {
    let mut tuples = a.tuples.clone();
    tuples.sort();
    (a.satisfiable, a.count, tuples)
}

struct Sample {
    item: usize,
    ms: f64,
    traced: bool,
    extra: Extra,
}

/// Answers rounds of the pool until `args.seconds` have elapsed, calling
/// `between` before each round. With `args.trace`, every other query is
/// traced. Each answer is checked against `truth` as soon as it is timed
/// and then dropped, so the run's memory does not grow with the number
/// of answers.
fn measure(
    pool: &[Item],
    truth: &[Truth],
    cache: &Arc<ShapeCache>,
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    between: &mut dyn FnMut(&mut Report),
) -> Vec<Sample> {
    // every query once per round, each round in a fresh seeded order
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5717_EA11);
    let mut order: Vec<usize> = Vec::new();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut req = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        if order.is_empty() {
            between(report);
            order = (0..pool.len()).collect();
            rand::seq::SliceRandom::shuffle(&mut order[..], &mut rng);
        }
        let item = order.pop().expect("refilled above");
        let it = &pool[item];
        req += 1;
        if args.trace {
            tracer.set_on(req % 2 == 0);
        }
        let (ms, got, extra) = if tracer.enabled() {
            let op = tracer.begin_op("op.answer", req);
            let t = Instant::now();
            let (a, extra) = traced_answer(&it.text, it.mode, cache, tracer);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit(op);
            // the traced path must agree with the pipeline it stands for
            let reference = answer(&parse(&it.text), &options(it.mode, cache));
            match &reference {
                Ok(r) if key(r) == key(&a) => {}
                _ => report.wrong(format!("query {item}: traced path disagrees with answer()")),
            }
            (ms, Some(a), extra)
        } else {
            let t = Instant::now();
            let q = parse(&it.text);
            let a = answer(&q, &options(it.mode, cache)).ok();
            (t.elapsed().as_secs_f64() * 1e3, a, Extra::default())
        };
        report.attempted += 1;
        let verdict = match &got {
            None => Err("answer() returned an error".to_string()),
            Some(a) => check(it, &truth[item], a),
        };
        if let Err(e) = verdict {
            report.wrong(format!("query {item}: {e}"));
        }
        samples.push(Sample {
            item,
            ms,
            traced: tracer.enabled(),
            extra,
        });
    }
    samples
}

/// Ground truth per pool query: the count, and the enumerated answers
/// whose number must equal it.
struct Truth {
    count: u64,
    answers: Vec<Vec<String>>,
    node_tuples: usize,
}

fn ground_truth(pool: &[Item], cache: &Arc<ShapeCache>, report: &mut Report) -> Vec<Truth> {
    pool.iter()
        .enumerate()
        .map(|(i, it)| {
            let q = parse(&it.text);
            let count = answer(&q, &options(AnswerMode::Count, cache));
            let all = answer(&q, &options(AnswerMode::Enumerate, cache));
            let (count, answers) = match (count, all) {
                (Ok(c), Ok(e)) => (c.count.unwrap_or(u64::MAX), key(&e).2),
                _ => {
                    report.wrong(format!("query {i}: count or enumerate failed"));
                    (u64::MAX, Vec::new())
                }
            };
            if count != answers.len() as u64 {
                report.wrong(format!(
                    "query {i}: count {count} but {} enumerated answers",
                    answers.len()
                ));
            }
            let h = q.csp.hypergraph();
            let order = cache
                .lookup(&canonical_form(&h).bytes)
                .expect("every shape is decomposed during set-up");
            let td = td_of_hypergraph(&h, &order);
            let node_tuples = node_relations(&q.csp, &td).iter().map(|r| r.len()).sum();
            Truth {
                count,
                answers,
                node_tuples,
            }
        })
        .collect()
}

/// Checks one timed answer against the ground truth of its query.
fn check(item: &Item, truth: &Truth, a: &Answer) -> Result<(), String> {
    match item.mode {
        AnswerMode::Boolean => {
            if a.satisfiable != (truth.count > 0) {
                return Err(format!(
                    "satisfiable={} but count {}",
                    a.satisfiable, truth.count
                ));
            }
        }
        AnswerMode::Count => {
            if a.count != Some(truth.count) {
                return Err(format!("count {:?}, expected {}", a.count, truth.count));
            }
        }
        AnswerMode::Enumerate => {
            let mut got = a.tuples.clone();
            got.sort();
            if got != truth.answers || a.truncated {
                return Err(format!(
                    "{} answers, expected {}",
                    got.len(),
                    truth.answers.len()
                ));
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (shapes, pool) = generate(args.seed);
    // the first query of each shape, decomposed cold during set-up
    let firsts: Vec<usize> = (0..shapes.len())
        .map(|s| {
            pool.iter()
                .position(|it| it.shape == s)
                .expect("shape has queries")
        })
        .collect();

    // record each shape's tw and ghw, so the wide-atom claim is checked
    for (shape, &i) in shapes.iter().zip(&firsts) {
        let h = parse(&pool[i].text).csp.hypergraph();
        let width = |p: Problem| solve(&p, &AnswerOptions::default().search).map_or(0, |o| o.upper);
        let (tw, ghw) = (
            width(Problem::treewidth_of_hypergraph(h.clone())),
            width(Problem::ghw(h)),
        );
        println!("# shape {}: tw {tw}, ghw {ghw}", shape.name);
    }

    // set-up: generate the pool and decompose every shape cold. It is
    // repeated before every round too: the host's speed drifts over
    // seconds, and set-up times taken all at once would sample one
    // moment of it.
    let (mut setup_s, mut decompose_ms) = (Vec::new(), Vec::new());
    let mut setup = |report: &mut Report| {
        let t = Instant::now();
        let _ = generate(args.seed);
        let cache = Arc::new(ShapeCache::new(64));
        for &i in &firsts {
            match answer(&parse(&pool[i].text), &options(pool[i].mode, &cache)) {
                Ok(a) => decompose_ms.push(a.stats.decompose_us as f64 / 1e3),
                Err(e) => {
                    report.wrong(format!("cold query of {}: {e}", shapes[pool[i].shape].name))
                }
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        cache
    };
    let cache = setup(&mut report);
    let truth = ground_truth(&pool, &cache, &mut report);

    let mut tracer = Tracer::new(false);
    let (hits0, misses0) = cache.counts();
    let samples = measure(
        &pool,
        &truth,
        &cache,
        args,
        &mut tracer,
        &mut report,
        &mut |report| {
            setup(report);
        },
    );
    let (hits, misses) = cache.counts();
    let (hits, misses) = (hits - hits0, misses - misses0);

    // correctness of the timed answers is checked as they come; here a
    // seeded sample of the pool goes through the brute-force oracle
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xB0B0);
    for _ in 0..BRUTE_FORCE_SAMPLE {
        let i = rng.gen_range(0..pool.len());
        let oracle = htd_check::diff_answers(&pool[i].text);
        if !oracle.is_valid() {
            report.wrong(format!("query {i}: brute-force oracle disagrees: {oracle}"));
        }
    }

    // a wrong answer fails the run, so in a passing run every answer is
    // correct and counts towards the rate
    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let q = |p: f64| move |w: &[f64]| quantile(&sorted(w.to_vec()), p);
    let n = ms.len();
    report.e2e(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "median of pool generation + cold decompositions",
    );
    report.e2e(
        "ops_per_s",
        windowed(&ms, WINDOWS, rate),
        n,
        "answers per second of answering, median of 10 windows",
    );
    report.e2e(
        "p50_ms",
        windowed(&ms, WINDOWS, q(0.5)),
        n,
        "parse + answer latency, median of 10 windows",
    );
    report.e2e(
        "tail_ms",
        windowed(&ms, WINDOWS, q(0.99)),
        n,
        "p99 latency, median of 10 windows",
    );

    if args.trace {
        let rows = tracer.rows();
        let per_call = |name: &str| {
            rows.iter().find(|r| r.name == name).map_or((0.0, 0), |r| {
                (r.total_ns as f64 / 1e6 / r.count as f64, r.count as usize)
            })
        };
        for (metric, span) in [
            ("query.parse_ms", "query.parse"),
            ("hypergraph.canonical_ms", "hypergraph.canonical"),
            ("core.td_build_ms", "core.td_build"),
            ("csp.bool_ms", "csp.bool"),
            ("csp.count_ms", "csp.count"),
            ("csp.enum_ms", "csp.enum"),
            ("query.render_ms", "query.render"),
        ] {
            let (v, n) = per_call(span);
            report.layer(metric, v, n);
        }
        let lat = |traced: bool| {
            mean(
                &samples
                    .iter()
                    .filter(|s| s.traced == traced)
                    .map(|s| s.ms)
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = 100.0 * (lat(true) / lat(false) - 1.0);
        let extras: Vec<&Extra> = samples
            .iter()
            .filter(|s| s.traced)
            .map(|s| &s.extra)
            .collect();
        report.layer(
            "core.td_width",
            mean(
                &extras
                    .iter()
                    .map(|e| f64::from(e.width))
                    .collect::<Vec<_>>(),
            ),
            extras.len(),
        );
        report.layer(
            "core.td_nodes",
            mean(&extras.iter().map(|e| e.nodes as f64).collect::<Vec<_>>()),
            extras.len(),
        );
        let walked: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced && pool[s.item].mode != AnswerMode::Boolean)
            .map(|s| s.extra.walked as f64)
            .collect();
        report.layer("csp.walked", mean(&walked), walked.len());
        let node_tuples: Vec<f64> = samples
            .iter()
            .map(|s| truth[s.item].node_tuples as f64)
            .collect();
        report.layer("csp.node_tuples", mean(&node_tuples), node_tuples.len());
        report.layer(
            "query.shape_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        report.layer(
            "query.decompose_ms",
            mean(&decompose_ms),
            decompose_ms.len(),
        );
        report.layer("trace.coverage_pct", tracer.coverage_pct(), samples.len());
        report.layer("trace.overhead_pct", overhead, samples.len());
        crate::write_spans(args, &tracer);
    }
    report
}
