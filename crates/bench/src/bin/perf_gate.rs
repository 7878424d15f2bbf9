//! Paired performance gate over the repository benchmark.
//!
//! `perf_gate PARENT CHANGE` takes two `perfbench` binaries, one built
//! from the merge base and one from the change, and runs every workload
//! `BENCHMARK.json` declares in [`PAIRS`] pairs, alternating which side
//! goes first. Each run is `BIN --workload W --seed 1 --seconds 10
//! --trace 0`, started from the current directory, which must be the
//! repository root; the last line of its stdout is the result object.
//!
//! A pair's *move* of an end-to-end metric is the change's value against
//! the parent's, as a fraction of the parent's, signed so that positive
//! is the metric's worse direction. The gate exits
//!
//! * 1 when a run exits nonzero or reports `"correct": false`, when on a
//!   workload the change fails a larger share of its attempted operations
//!   than the parent, or when the median move of an end-to-end metric is
//!   larger than the metric's `bound`;
//! * 2 when `BENCHMARK.json` or a result line cannot be read, or when a
//!   workload has no metric that both sides report (a metric only one
//!   side reports is listed as not compared).
//!
//! It prints, per workload and metric, each side's median, the pair
//! moves, their median, the bound and the verdict.
//!
//! Sizing, on 2 shared vCPUs (Intel Xeon) with one perfbench binary as
//! both sides, three full gate runs: the worst median move was +9.1%
//! (`solve` `tail_ms`), the next +7.8% (`answer` `setup_s`), and the
//! worst single pair +21.4% (`solve` `tail_ms`), against a bound of 0.25
//! on every metric. One gate run is 18 runs of about 12 s each, 3.7
//! minutes.
//!
//! `cargo run --release -p htd-bench --bin perf_gate -- PARENT CHANGE`

use std::process::Command;

use htd_bench::Table;
use htd_core::Json;

/// Runs per side and workload, alternating which side goes first.
const PAIRS: usize = 3;
/// Length of one run, in seconds.
const SECONDS: &str = "10";
/// Workload seed of every run.
const SEED: &str = "1";

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// One run's result object.
struct Run {
    attempted: f64,
    failed: f64,
    metrics: Json,
}

impl Run {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric)?.get("value")?.as_f64()
    }
}

fn die(code: i32, msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(code);
}

/// The workloads and end-to-end metrics of `BENCHMARK.json`.
fn declared() -> (Vec<String>, Vec<Metric>) {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| die(2, &format!("cannot read BENCHMARK.json: {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| die(2, &format!("BENCHMARK.json does not parse: {e}")));
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| die(2, &format!("BENCHMARK.json has no {key} list")))
    };
    let field = |m: &Json, key: &str| {
        m.get(key)
            .cloned()
            .unwrap_or_else(|| die(2, &format!("a BENCHMARK.json entry has no {key}")))
    };
    let workloads = list("workloads")
        .iter()
        .map(|w| field(w, "name").as_str().map(String::from))
        .collect::<Option<Vec<_>>>()
        .unwrap_or_else(|| die(2, "a workload name is not a string"));
    let metrics = list("end_to_end")
        .iter()
        .map(|m| {
            Some(Metric {
                name: field(m, "name").as_str()?.to_string(),
                higher_is_better: field(m, "better").as_str()? == "higher",
                bound: field(m, "bound").as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .unwrap_or_else(|| die(2, "an end-to-end metric has a malformed field"));
    (workloads, metrics)
}

/// Runs `bin` on `workload` and reads its result object.
fn run(side: &str, bin: &str, workload: &str) -> Run {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", SEED])
        .args(["--seconds", SECONDS, "--trace", "0"])
        .output()
        .unwrap_or_else(|e| die(2, &format!("cannot run {bin}: {e}")));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        die(1, &format!("{side} {workload} run failed: {}", out.status));
    }
    let doc = last
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or_else(|| die(2, &format!("{side} {workload}: no result line")));
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| die(2, &format!("{side} {workload}: result has no {key}")))
    };
    let (attempted, failed) = (num("attempted"), num("failed"));
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        die(1, &format!("{side} {workload} run is not correct"));
    }
    Run {
        attempted,
        failed,
        metrics: doc.get("metrics").cloned().unwrap_or(Json::Null),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = argv.as_slice() else {
        die(2, "usage: perf_gate PARENT CHANGE (two perfbench binaries)");
    };
    let (workloads, metrics) = declared();
    let mut table = Table::new(&[
        "workload",
        "metric",
        "parent",
        "change",
        "pair moves",
        "median",
        "bound",
        "verdict",
    ]);
    let mut failures = 0;
    for w in &workloads {
        let (mut p, mut c) = (Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            eprintln!("perf_gate: {w} pair {}/{PAIRS}", pair + 1);
            if pair % 2 == 0 {
                p.push(run("parent", parent, w));
                c.push(run("change", change, w));
            } else {
                c.push(run("change", change, w));
                p.push(run("parent", parent, w));
            }
        }
        let frac = |runs: &[Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (pf, cf) = (frac(&p), frac(&c));
        let worse = cf > pf;
        failures += usize::from(worse);
        table.row(vec![
            w.clone(),
            "failed/attempted".into(),
            format!("{pf:.4}"),
            format!("{cf:.4}"),
            String::new(),
            String::new(),
            "0".into(),
            (if worse { "FAIL" } else { "ok" }).into(),
        ]);
        let mut compared = 0;
        for m in &metrics {
            let values = |runs: &[Run]| -> Option<Vec<f64>> {
                runs.iter().map(|r| r.value(&m.name)).collect()
            };
            let (Some(pv), Some(cv)) = (values(&p), values(&c)) else {
                let row = [w.as_str(), &m.name, "", "", "", "", "", "not compared"];
                table.row(row.map(String::from).to_vec());
                continue;
            };
            compared += 1;
            let moves: Vec<f64> = pv
                .iter()
                .zip(&cv)
                .map(|(&p, &c)| {
                    let worse = if m.higher_is_better { p - c } else { c - p };
                    if worse == 0.0 {
                        0.0
                    } else {
                        worse / p.abs()
                    }
                })
                .collect();
            let mid = median(moves.clone());
            let fail = mid > m.bound;
            failures += usize::from(fail);
            table.row(vec![
                w.clone(),
                m.name.clone(),
                format!("{:.4}", median(pv)),
                format!("{:.4}", median(cv)),
                moves.iter().map(|&x| pct(x)).collect::<Vec<_>>().join(" "),
                pct(mid),
                format!("{}", m.bound),
                (if fail { "FAIL" } else { "ok" }).into(),
            ]);
        }
        if compared == 0 {
            table.print();
            die(2, &format!("{w}: no end-to-end metric both sides report"));
        }
    }
    table.print();
    if failures > 0 {
        die(1, &format!("{failures} check(s) failed"));
    }
    println!("perf_gate: pass");
}
