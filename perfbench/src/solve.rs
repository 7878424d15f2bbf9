//! `solve`: closed loop, one in-process caller of `htd_search::solve`.
//!
//! A fixed corpus of width problems with known answers (tw, ghw and hw),
//! four of them random graphs drawn from the seed, is solved in whole
//! passes, each pass in a seeded order, until the time is up. Every
//! width is checked against the known-width table and every witness
//! ordering by the `htd-check` oracle.

use std::time::{Duration, Instant};

use htd_check::{check_hd, verify_outcome};
use htd_hypergraph::{gen, io, Graph, Hypergraph};
use htd_search::{det_k_decomp, solve, Engine, Objective, Outcome, Problem, SearchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{mean, median, quantile, rate, sorted, windowed, Report};
use crate::spans::Tracer;
use crate::{Args, THREADS};

/// Wall-clock limit of one solve; a solve not proven exact within it
/// counts as failed.
const LIMIT: Duration = Duration::from_secs(5);
/// Set-up repetitions before each pass; their median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Widths of the fixed instances, at the objective they are solved for.
const KNOWN: &[(&str, Objective, u32)] = &[
    ("queen5_5", Objective::Treewidth, 18),
    ("myciel4", Objective::Treewidth, 10),
    ("grid5", Objective::Treewidth, 5),
    ("grid6", Objective::Treewidth, 6),
    ("anna", Objective::Treewidth, 12),
    ("david", Objective::Treewidth, 13),
    ("huck", Objective::Treewidth, 10),
    ("jean", Objective::Treewidth, 9),
    ("adder_15", Objective::GeneralizedHypertreeWidth, 2),
    ("clique_10", Objective::GeneralizedHypertreeWidth, 5),
    ("grid2d_6", Objective::GeneralizedHypertreeWidth, 3),
    ("grid2d_8", Objective::GeneralizedHypertreeWidth, 3),
    ("adder_15", Objective::HypertreeWidth, 2),
    ("grid2d_6", Objective::HypertreeWidth, 3),
    ("clique_10", Objective::HypertreeWidth, 5),
    ("bridge_10", Objective::HypertreeWidth, 3),
    // easy instances that reductions alone solve (random k-trees have
    // treewidth exactly k): they keep the median inside the time-limited
    // solve floor rather than on the edge between the easy and the hard
    // instances, where it moved by 80% between seeds
    ("ktree_30_3", Objective::Treewidth, 3),
    ("ktree_40_4", Objective::Treewidth, 4),
    ("ktree_50_5", Objective::Treewidth, 5),
    ("ktree_60_6", Objective::Treewidth, 6),
    ("ktree_70_7", Objective::Treewidth, 7),
    ("adder_25", Objective::GeneralizedHypertreeWidth, 2),
    ("adder_35", Objective::GeneralizedHypertreeWidth, 2),
    ("adder_25", Objective::HypertreeWidth, 2),
];

/// Seeded random graphs in the corpus: `random_gnp(22, 0.3)`.
const RANDOM_GRAPHS: u64 = 4;

/// One corpus entry as generated: serialized text plus its answer.
struct Input {
    name: String,
    objective: Objective,
    /// PACE `.gr` text for graphs, `.hg` text for hypergraphs.
    text: String,
    hyper: bool,
    width: u32,
}

/// Generates the corpus text for `seed` (the fixed instances do not
/// depend on it). Widths of the random graphs are filled in by
/// [`ground_truth`].
fn generate(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = KNOWN
        .iter()
        .map(|&(name, objective, width)| {
            let (text, hyper) = match gen::named_graph(name) {
                Some(g) if objective == Objective::Treewidth => (io::write_pace_gr(&g), false),
                _ => (
                    io::write_hg(&gen::named_hypergraph(name).expect("corpus name")),
                    true,
                ),
            };
            Input {
                name: format!("{}:{name}", objective.name()),
                objective,
                text,
                hyper,
                width,
            }
        })
        .collect();
    for i in 0..RANDOM_GRAPHS {
        let g = gen::random_gnp(22, 0.3, seed.wrapping_mul(0x9E37_79B9).wrapping_add(i));
        inputs.push(Input {
            name: format!("tw:gnp22_{i}"),
            objective: Objective::Treewidth,
            text: io::write_pace_gr(&g),
            hyper: false,
            width: 0,
        });
    }
    inputs
}

enum Parsed {
    Graph(Graph),
    Hyper(Hypergraph),
}

fn parse(input: &Input) -> Parsed {
    if input.hyper {
        Parsed::Hyper(io::parse_hg(&input.text).expect("generated .hg parses"))
    } else {
        Parsed::Graph(io::parse_pace_gr(&input.text).expect("generated .gr parses"))
    }
}

fn problem(objective: Objective, parsed: &Parsed) -> Problem {
    match (objective, parsed) {
        (Objective::Treewidth, Parsed::Graph(g)) => Problem::treewidth(g.clone()),
        (Objective::Treewidth, Parsed::Hyper(h)) => Problem::treewidth_of_hypergraph(h.clone()),
        (Objective::GeneralizedHypertreeWidth, Parsed::Hyper(h)) => Problem::ghw(h.clone()),
        (Objective::HypertreeWidth, Parsed::Hyper(h)) => Problem::hw(h.clone()),
        _ => unreachable!("graph corpus entries are treewidth problems"),
    }
}

/// Widths of the random graphs, by sequential branch and bound and by
/// sequential A* (two engines that must agree; the subset dynamic
/// program takes seconds at this size), and an oracle check of an hw
/// decomposition at each known hw.
fn ground_truth(inputs: &mut [Input], parsed: &[Parsed], report: &mut Report) {
    for (input, p) in inputs.iter_mut().zip(parsed) {
        match (input.objective, p) {
            (Objective::Treewidth, Parsed::Graph(g)) if input.width == 0 => {
                let alone = |engine| {
                    let cfg = SearchConfig::default().with_engines(vec![engine]);
                    solve(&Problem::treewidth(g.clone()), &cfg)
                        .ok()
                        .filter(|o| o.exact)
                };
                match (alone(Engine::BranchBound), alone(Engine::AStar)) {
                    (Some(bb), Some(astar)) if bb.upper == astar.upper => input.width = bb.upper,
                    _ => report.wrong(format!("{}: no agreed ground truth", input.name)),
                }
            }
            (Objective::HypertreeWidth, Parsed::Hyper(h)) => {
                let ok = det_k_decomp(h, input.width)
                    .is_some_and(|hd| check_hd(h, &hd, Some(input.width)).is_valid());
                if !ok {
                    report.wrong(format!(
                        "{}: no oracle-valid HD of width {}",
                        input.name, input.width
                    ));
                }
            }
            _ => {}
        }
    }
}

/// One timed solve.
struct Sample {
    item: usize,
    ms: f64,
    outcome: Option<Outcome>,
    traced: bool,
}

/// Solves whole passes over the corpus, at least one, until `seconds`
/// have elapsed, calling `between` before each pass. With `alternate`,
/// every other pass is traced.
fn measure(
    problems: &[Problem],
    seed: u64,
    seconds: f64,
    alternate: bool,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(),
) -> (Vec<Sample>, u64) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut pass = 0u64;
    let mut req = 0u64;
    loop {
        between();
        if alternate {
            tracer.set_on(pass % 2 == 1);
        }
        let mut order: Vec<usize> = (0..problems.len()).collect();
        rand::seq::SliceRandom::shuffle(
            &mut order[..],
            &mut StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0x2545_F491)),
        );
        for item in order {
            let p = &problems[item];
            let cfg = SearchConfig::default()
                .with_threads(THREADS)
                .with_seed(seed.wrapping_add(pass << 16).wrapping_add(item as u64))
                .with_time_limit(LIMIT);
            let layer = match p.objective() {
                Objective::Treewidth => "search.tw",
                Objective::GeneralizedHypertreeWidth => "search.ghw",
                Objective::HypertreeWidth => "search.hw",
            };
            req += 1;
            let op = tracer.begin_op("op.solve", req);
            let t = Instant::now();
            let out = tracer.leaf(layer, || solve(p, &cfg));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit(op);
            samples.push(Sample {
                item,
                ms,
                outcome: out.ok(),
                traced: tracer.enabled(),
            });
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (samples, pass)
}

/// Standalone heuristic calls on each corpus instance (traced runs).
fn heuristics(problems: &[Problem], seed: u64, tracer: &mut Tracer) -> (Vec<f64>, Vec<f64>) {
    let (mut fill, mut lower) = (Vec::new(), Vec::new());
    for (i, p) in problems.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
        let op = tracer.begin_op("op.heuristics", 1_000_000 + i as u64);
        let t = Instant::now();
        tracer.leaf("heuristics.min_fill", || {
            htd_heuristics::min_fill(p.graph(), &mut rng)
        });
        fill.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tracer.leaf("heuristics.lower_bound", || match p.hypergraph() {
            Some(h) if p.objective() != Objective::Treewidth => {
                htd_heuristics::ghw_lower_bound(h, &mut rng)
            }
            _ => htd_heuristics::combined_lower_bound(p.graph(), &mut rng),
        });
        lower.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.exit(op);
    }
    (fill, lower)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    // inputs and their known answers, before any timing
    let mut inputs = generate(args.seed);
    let parsed: Vec<Parsed> = inputs.iter().map(parse).collect();
    ground_truth(&mut inputs, &parsed, &mut report);

    // set-up: generate the corpus text and parse it. It is repeated
    // before every pass too: the host's speed drifts over seconds, and
    // set-up times taken all at once would sample one moment of it.
    let (mut setup_s, mut parse_ms) = (Vec::new(), Vec::new());
    let mut setup = || {
        let t = Instant::now();
        let fresh = generate(args.seed);
        let tp = Instant::now();
        let problems: Vec<Problem> = fresh
            .iter()
            .map(|input| problem(input.objective, &parse(input)))
            .collect();
        parse_ms.push(tp.elapsed().as_secs_f64() * 1e3);
        setup_s.push(t.elapsed().as_secs_f64());
        problems
    };
    let problems = setup();

    // warm-up: one untimed pass lets lazy set-up finish
    let mut tracer = Tracer::new(false);
    let _ = measure(
        &problems,
        args.seed ^ 0xA5A5,
        0.0,
        false,
        &mut tracer,
        &mut || {},
    );
    let (samples, passes) = measure(
        &problems,
        args.seed,
        args.seconds,
        args.trace,
        &mut tracer,
        &mut || {
            for _ in 0..SETUP_REPS {
                setup();
            }
        },
    );

    // correctness: known width, exactness within the limit, oracle
    let mut verify_ms = Vec::new();
    for s in &samples {
        report.attempted += 1;
        let input = &inputs[s.item];
        let Some(out) = &s.outcome else {
            report.wrong(format!("{}: solve returned an error", input.name));
            continue;
        };
        if !out.exact || out.upper != input.width {
            report.wrong(format!(
                "{}: got [{}, {}] exact={} in {:.1} ms, known width {}",
                input.name, out.lower, out.upper, out.exact, s.ms, input.width
            ));
            continue;
        }
        let t = Instant::now();
        let check = verify_outcome(&problems[s.item], out);
        if out.witness.is_some() {
            verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if !check.is_valid() {
            report.wrong(format!(
                "{}: oracle rejects the witness: {check}",
                input.name
            ));
        }
    }

    // per-instance results
    for (i, input) in inputs.iter().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.item == i)
            .map(|s| s.ms)
            .collect();
        let nodes: Vec<f64> = samples
            .iter()
            .filter(|s| s.item == i)
            .filter_map(|s| s.outcome.as_ref().map(|o| o.nodes as f64))
            .collect();
        println!(
            "# instance {:<16} width {:>2}  median {:>9.3} ms  min {:>9.3} ms  max {:>9.3} ms  nodes {:>9.0}  n={}",
            input.name,
            input.width,
            median(&ms),
            ms.iter().copied().fold(f64::INFINITY, f64::min),
            ms.iter().copied().fold(0.0, f64::max),
            median(&nodes),
            ms.len()
        );
    }

    let all_ms = sorted(samples.iter().map(|s| s.ms).collect());
    report.e2e(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "median of corpus generate+parse",
    );
    // a wrong width fails the run, so in a passing run every solve counts
    let in_order: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    report.e2e(
        "ops_per_s",
        windowed(&in_order, passes as usize, rate),
        samples.len(),
        format!("solves per second of solving, median of {passes} passes"),
    );
    report.e2e(
        "p50_ms",
        quantile(&all_ms, 0.5),
        all_ms.len(),
        "per-solve latency",
    );
    report.e2e(
        "tail_ms",
        quantile(&all_ms, 0.9),
        all_ms.len(),
        "p90 per-solve latency",
    );

    if args.trace {
        layer_metrics(
            &mut report,
            &problems,
            &samples,
            passes,
            args.seed,
            &mut tracer,
        );
        report.layer("hypergraph.parse_ms", median(&parse_ms), parse_ms.len());
        report.layer("check.verify_ms", mean(&verify_ms), verify_ms.len());
        report.layer("trace.coverage_pct", tracer.coverage_pct(), samples.len());
        let lat = |traced: bool| {
            mean(
                &samples
                    .iter()
                    .filter(|s| s.traced == traced)
                    .map(|s| s.ms)
                    .collect::<Vec<_>>(),
            )
        };
        report.layer(
            "trace.overhead_pct",
            100.0 * (lat(true) / lat(false) - 1.0),
            samples.len(),
        );
        crate::write_spans(args, &tracer);
    }
    report
}

fn layer_metrics(
    report: &mut Report,
    problems: &[Problem],
    samples: &[Sample],
    passes: u64,
    seed: u64,
    tracer: &mut Tracer,
) {
    tracer.set_on(true);
    let (fill, lower) = heuristics(problems, seed, tracer);
    report.layer("heuristics.min_fill_ms", mean(&fill), fill.len());
    report.layer("heuristics.lower_bound_ms", mean(&lower), lower.len());

    let outs: Vec<(&Sample, &Outcome)> = samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().map(|o| (s, o)))
        .collect();
    for (name, objective) in [
        ("search.tw_ms", Objective::Treewidth),
        ("search.ghw_ms", Objective::GeneralizedHypertreeWidth),
        ("search.hw_ms", Objective::HypertreeWidth),
    ] {
        let ms: Vec<f64> = outs
            .iter()
            .filter(|(_, o)| o.objective == objective)
            .map(|(s, _)| s.ms)
            .collect();
        report.layer(name, mean(&ms), ms.len());
    }
    let first: Vec<f64> = outs
        .iter()
        .filter_map(|(_, o)| o.time_to_first_upper)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    report.layer("search.first_upper_ms", median(&first), first.len());
    let nodes: u64 = outs.iter().map(|(_, o)| o.nodes).sum();
    report.layer(
        "search.nodes",
        nodes as f64 / passes.max(1) as f64,
        outs.len(),
    );
    for (name, engine) in [
        ("search.nodes_per_ms.branch_bound", Engine::BranchBound),
        ("search.nodes_per_ms.astar", Engine::AStar),
    ] {
        let (mut expanded, mut ms) = (0u64, 0.0f64);
        for (_, o) in &outs {
            for r in o.per_engine.iter().filter(|r| r.engine == engine) {
                expanded += r.stats.expanded;
                ms += r.stats.elapsed.as_secs_f64() * 1e3;
            }
        }
        report.layer(name, expanded as f64 / ms.max(1e-9), outs.len());
    }
    for (name, engine) in [
        ("search.wins.branch_bound", Engine::BranchBound),
        ("search.wins.astar", Engine::AStar),
    ] {
        let wins = outs
            .iter()
            .filter(|(_, o)| o.winner == Some(engine))
            .count();
        report.layer(name, wins as f64 / passes.max(1) as f64, outs.len());
    }
    let floor: Vec<f64> = outs
        .iter()
        .filter(|(_, o)| o.nodes == 0 && o.objective != Objective::HypertreeWidth)
        .map(|(s, _)| s.ms)
        .collect();
    report.layer("search.floor_ms", mean(&floor), floor.len());
    let (hits, misses) = outs
        .iter()
        .filter(|(_, o)| o.objective == Objective::GeneralizedHypertreeWidth)
        .fold((0u64, 0u64), |(h, m), (_, o)| {
            (h + o.cover_cache_hits, m + o.cover_cache_misses)
        });
    report.layer(
        "setcover.cover_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    report.layer(
        "setcover.cover_lookups",
        (hits + misses) as f64 / passes.max(1) as f64,
        outs.len(),
    );
}
