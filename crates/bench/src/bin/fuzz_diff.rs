//! Differential & metamorphic fuzz harness over all engines.
//!
//! Cycles through the seeded generator families of `htd_check::metamorphic`
//! and, for every instance, (a) runs the differential matrix — one arm per
//! engine-registry entry that opts in (branch and bound, A*, and the
//! balanced-separator engine in every mode including `--smoke`): exact
//! engines must agree, heuristic arms must bracket, every `Outcome` and
//! witness is oracle-verified — and (b) replays the metamorphic
//! invariants (relabeling, padding, deletion monotonicity). On a failure
//! the instance is greedily shrunk while the differential report stays
//! invalid, and the minimized `.hg` + JSON repro (with the exact replay
//! command) is written to `--out`.
//!
//! Modes:
//!
//! * `--smoke`: ~200 seeded small cases with tight budgets (the CI gate);
//! * `--soak SECS`: loop fresh cases until the time budget runs out (the
//!   nightly job);
//! * `--answers`: fuzz query *answers* instead of widths — seeded random
//!   conjunctive queries where the `htd-query` Yannakakis pipeline must
//!   agree with `htd_check::diff_answers`' brute-force oracle in all
//!   three modes (combines with `--smoke`/`--soak`; failures are written
//!   as `.cq` repro files);
//! * `--replay FILE.hg [--objective tw|ghw]`: re-run one written repro
//!   (`FILE.cq` replays an answer-mode repro).
//!
//! `cargo run --release -p htd-bench --bin fuzz_diff -- --smoke`
//!
//! Exit codes: 0 all checks pass, 1 violations found (repros written),
//! 4 bad flags, 5 io.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use htd_check::{
    case, diff_ghw, diff_tw, run_metamorphic_case, Case, CheckReport, DiffConfig, Repro,
};
use htd_hypergraph::io;

struct Args {
    smoke: bool,
    soak_secs: Option<u64>,
    answers: bool,
    cases: usize,
    seed: u64,
    out: PathBuf,
    replay: Option<String>,
    objective: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        soak_secs: None,
        answers: false,
        cases: 50,
        seed: 1,
        out: PathBuf::from("fuzz-failures"),
        replay: None,
        objective: "ghw".into(),
    };
    let mut it = std::env::args().skip(1);
    let bad = |msg: &str| -> ! {
        eprintln!("fuzz_diff: {msg}");
        eprintln!(
            "usage: fuzz_diff [--smoke] [--soak SECS] [--answers] [--cases N] [--seed N] \
             [--out DIR] [--replay FILE.hg|FILE.cq [--objective tw|ghw]]"
        );
        std::process::exit(4);
    };
    while let Some(a) = it.next() {
        let mut numeric = |flag: &str| -> u64 {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => bad(&format!("{flag} needs a number")),
            }
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--soak" => args.soak_secs = Some(numeric("--soak")),
            "--answers" => args.answers = true,
            "--cases" => args.cases = numeric("--cases") as usize,
            "--seed" => args.seed = numeric("--seed"),
            "--out" => match it.next() {
                Some(d) => args.out = PathBuf::from(d),
                None => bad("--out needs a directory"),
            },
            "--replay" => match it.next() {
                Some(f) => args.replay = Some(f),
                None => bad("--replay needs a .hg file"),
            },
            "--objective" => match it.next().as_deref() {
                Some("tw") => args.objective = "tw".into(),
                Some("ghw") => args.objective = "ghw".into(),
                _ => bad("--objective needs tw|ghw"),
            },
            other => bad(&format!("unknown flag {other}")),
        }
    }
    args
}

fn diff_config(smoke: bool, seed: u64) -> DiffConfig {
    DiffConfig {
        max_nodes: if smoke { 200_000 } else { 2_000_000 },
        time_limit: Some(Duration::from_millis(if smoke { 2_000 } else { 10_000 })),
        seed,
        portfolio_arm: !smoke,
        memory_budget: None,
    }
}

/// Runs the differential matrix + metamorphic invariants on one case.
fn check_case(c: &Case, seed: u64, cfg: &DiffConfig) -> CheckReport {
    let mut report = match (&c.graph, &c.hypergraph) {
        (Some(g), _) => diff_tw(g, cfg),
        (_, Some(h)) => diff_ghw(h, cfg),
        _ => unreachable!("a case is a graph or a hypergraph"),
    };
    report.absorb(run_metamorphic_case(c, seed, cfg));
    report
}

/// On failure: shrink while the *differential* report stays invalid, then
/// write the minimized repro. Returns the repro path.
fn shrink_and_write(c: &Case, report: &CheckReport, args: &Args, cfg: &DiffConfig) -> PathBuf {
    let detail = report.to_string();
    let repro = match (&c.graph, &c.hypergraph) {
        (Some(g), _) => {
            let shrunk = htd_check::shrink_graph(g, &mut |cand| !diff_tw(cand, cfg).is_valid());
            Repro::for_graph(
                format!("{}-seed{}", c.name, args.seed),
                args.seed,
                &shrunk,
                detail,
            )
        }
        (_, Some(h)) => {
            let shrunk =
                htd_check::shrink_hypergraph(h, &mut |cand| !diff_ghw(cand, cfg).is_valid());
            Repro::new(
                format!("{}-seed{}", c.name, args.seed),
                "ghw",
                args.seed,
                &shrunk,
                detail,
            )
        }
        _ => unreachable!(),
    };
    match repro.write_to(&args.out) {
        Ok(path) => {
            eprintln!("  repro written: {} — replay with:", path.display());
            eprintln!("  {}", repro.command());
            path
        }
        Err(e) => {
            eprintln!("  FAILED to write repro to {}: {e}", args.out.display());
            std::process::exit(5);
        }
    }
}

/// Writes a failing answer case as a `.cq` repro (the query text plus the
/// report as a comment header) and returns its path.
fn write_answer_repro(index: usize, text: &str, report: &CheckReport, args: &Args) -> PathBuf {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("  FAILED to create {}: {e}", args.out.display());
        std::process::exit(5);
    }
    let path = args
        .out
        .join(format!("answers-{}-seed{}.cq", index, args.seed));
    let mut body = String::new();
    for line in report.to_string().lines() {
        body.push_str("% ");
        body.push_str(line);
        body.push('\n');
    }
    body.push_str(text);
    match std::fs::write(&path, body) {
        Ok(()) => {
            eprintln!("  repro written: {} — replay with:", path.display());
            eprintln!(
                "  cargo run --release -p htd-bench --bin fuzz_diff -- --replay {}",
                path.display()
            );
            path
        }
        Err(e) => {
            eprintln!("  FAILED to write repro to {}: {e}", path.display());
            std::process::exit(5);
        }
    }
}

/// The `--answers` main loop: seeded random conjunctive queries, each
/// cross-checked against the brute-force oracle in all three modes.
fn run_answers(args: &Args) -> i32 {
    let budget = args.soak_secs.map(Duration::from_secs);
    let total = if args.smoke { 200 } else { args.cases };
    let started = Instant::now();
    let mut ran = 0usize;
    let mut failures = 0usize;
    let mut index = 0usize;
    loop {
        match budget {
            Some(b) => {
                if started.elapsed() >= b {
                    break;
                }
            }
            None => {
                if ran >= total {
                    break;
                }
            }
        }
        let text = htd_check::answer_case(index, args.seed);
        index += 1;
        ran += 1;
        let report = htd_check::diff_answers(&text);
        if !report.is_valid() {
            failures += 1;
            eprintln!("FAIL answer case {index}:\n{text}{report}");
            write_answer_repro(index, &text, &report, args);
        } else if ran % 50 == 0 {
            eprintln!(
                "  {ran} answer cases ok ({:.1}s elapsed)",
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "fuzz_diff: {ran} answer cases, {failures} failure(s), {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if failures == 0 {
        0
    } else {
        1
    }
}

fn replay(args: &Args) -> i32 {
    let file = args.replay.as_deref().unwrap();
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fuzz_diff: {file}: {e}");
            return 5;
        }
    };
    if file.ends_with(".cq") {
        let report = htd_check::diff_answers(&text);
        println!("{report}");
        return if report.is_valid() { 0 } else { 1 };
    }
    let h = match io::parse_hg(&text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fuzz_diff: {file}: {e}");
            return 2;
        }
    };
    let cfg = diff_config(false, args.seed);
    let report = if args.objective == "tw" {
        diff_tw(&h.primal_graph(), &cfg)
    } else {
        diff_ghw(&h, &cfg)
    };
    println!("{report}");
    if report.is_valid() {
        0
    } else {
        1
    }
}

fn main() {
    let args = parse_args();
    if args.replay.is_some() {
        std::process::exit(replay(&args));
    }
    if args.answers {
        std::process::exit(run_answers(&args));
    }

    let cfg = diff_config(args.smoke, args.seed);
    let budget = args.soak_secs.map(Duration::from_secs);
    let total = if args.smoke { 200 } else { args.cases };
    let started = Instant::now();
    let mut ran = 0usize;
    let mut failures = 0usize;
    let mut index = 0usize;
    loop {
        match budget {
            // soak: run until the time budget expires
            Some(b) => {
                if started.elapsed() >= b {
                    break;
                }
            }
            None => {
                if ran >= total {
                    break;
                }
            }
        }
        let c = case(index, args.seed);
        index += 1;
        ran += 1;
        let report = check_case(&c, args.seed, &cfg);
        if !report.is_valid() {
            failures += 1;
            eprintln!("FAIL case {index} ({}):\n{report}", c.name);
            shrink_and_write(&c, &report, &args, &cfg);
        } else if ran % 25 == 0 {
            eprintln!(
                "  {ran} cases ok ({:.1}s elapsed)",
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "fuzz_diff: {ran} cases, {failures} failure(s), {:.1}s",
        started.elapsed().as_secs_f64()
    );
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
