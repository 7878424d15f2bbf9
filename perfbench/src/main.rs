//! Seeded end-to-end and per-layer benchmark of the htd workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve|answer|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`
//! before timing starts; every width and answer is checked; the last
//! line of standard output is the result object. `--trace 1` records
//! spans around every call into a crate, prints the per-layer table and
//! writes the spans to `.perfbench-work/`. See `perfbench/README.md`.

mod answer;
mod report;
mod serve;
mod solve;
mod spans;
mod wire;

use std::path::PathBuf;
use std::time::Duration;

use htd_hypergraph::gen;
use htd_search::{solve as solve_problem, Problem, SearchConfig};

/// Solver threads per solve and server worker threads.
pub const THREADS: usize = 2;

/// The seed later claims must also hold on, besides the one they were
/// developed against.
pub const HELD_OUT_SEED: u64 = 1_000_003;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Where run artifacts (span files, certificate stores) go.
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(".perfbench-work")
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <solve|answer|serve> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value().clone(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The engines that get a worker slot at [`THREADS`] threads, read from
/// the outcome of a real solve rather than inferred.
fn lineup(problem: Problem) -> String {
    let cfg = SearchConfig::default()
        .with_threads(THREADS)
        .with_time_limit(Duration::from_secs(5));
    match solve_problem(&problem, &cfg) {
        Ok(out) => out
            .per_engine
            .iter()
            .map(|r| r.engine.name())
            .collect::<Vec<_>>()
            .join("+"),
        Err(e) => format!("error: {e}"),
    }
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"solver_threads\": {THREADS}, \
         \"server_threads\": {THREADS}, \"lineup_tw\": \"{}\", \"lineup_ghw\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}}}",
        cpu_model(),
        lineup(Problem::treewidth(gen::grid_graph(4, 4))),
        lineup(Problem::ghw(gen::adder(3))),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn main() {
    let args = parse_args();
    let run = match args.workload.as_str() {
        "solve" => solve::run,
        "answer" => answer::run,
        "serve" => serve::run,
        other => usage(&format!("unknown workload {other}")),
    };
    println!("# provenance {}", provenance(&args));
    let report = run(&args);
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Writes a traced run's spans to the work directory.
pub fn write_spans(args: &Args, tracer: &spans::Tracer) {
    let path = args
        .work_dir()
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
