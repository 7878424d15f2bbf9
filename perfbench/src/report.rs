//! Metric names, statistics and the result line.

use std::fmt::Write as _;
use std::sync::OnceLock;

use htd_core::Json;

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The metrics `BENCHMARK.json` declares: end-to-end ones, reported by
/// every workload in untraced runs, and per-layer ones, reported by every
/// workload in traced runs. A layer a workload never calls reports 0
/// with 0 samples.
pub struct Declaration {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn declared() -> &'static Declaration {
    static DECLARED: OnceLock<Declaration> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Declared> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().into();
                    Declared {
                        name: field("name"),
                        unit: field("unit"),
                    }
                })
                .collect()
        };
        Declaration {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    })
}

/// The declared unit of `name`; a metric `BENCHMARK.json` does not declare
/// in `list` is a bug in the benchmark.
fn unit_of(list: &'static [Declared], name: &str) -> &'static str {
    match list.iter().find(|d| d.name == name) {
        Some(d) => &d.unit,
        None => panic!("metric {name} is not declared in BENCHMARK.json"),
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    /// What the value is, when the name alone does not say it.
    pub note: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per wrong width or answer; any entry fails the run.
    pub wrong: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit: unit_of(&declared().end_to_end, name),
            samples: samples as u64,
            note: note.into(),
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.push(Metric {
            name,
            value,
            unit: unit_of(&declared().per_layer, name),
            samples: samples as u64,
            note: String::new(),
        });
    }

    /// Records a wrong result: it counts as failed and fails the run.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Prints the human-readable table and then, as the last line, the
    /// result object. `traced` selects which metric set the object holds.
    pub fn print(&self, traced: bool) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("# end-to-end");
        for m in &self.end_to_end {
            println!(
                "  {:<34} {:>14.4} {:<6} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        println!(
            "  {:<34} {:>14.4} {:<6} n={:<7} failed {} of {} attempted",
            "fail_frac", frac, "ratio", self.attempted, self.failed, self.attempted
        );
        if traced {
            println!("# per layer");
            for d in &declared().per_layer {
                match self.layers.iter().find(|m| m.name == d.name) {
                    Some(m) => println!(
                        "  {:<34} {:>14.4} {:<6} n={}",
                        m.name, m.value, m.unit, m.samples
                    ),
                    None => println!("  {:<34} {:>14} (layer not called)", d.name, "-"),
                }
            }
        }
        for w in &self.wrong {
            println!("# WRONG: {w}");
        }
        let mut metrics = String::new();
        let (names, list) = if traced {
            (&declared().per_layer, &self.layers)
        } else {
            (&declared().end_to_end, &self.end_to_end)
        };
        for d in names {
            let value = list
                .iter()
                .find(|m| m.name == d.name)
                .map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if metrics.is_empty() { "" } else { ", " },
                d.name,
                d.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// Sorts a sample in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile of a sorted sample (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Windows a closed-loop run is split into by [`windowed`].
pub const WINDOWS: usize = 10;

/// Splits a run's latencies, in the order they were measured, into
/// `windows` consecutive equal parts, applies `stat` to each, and returns
/// the median: a burst of load from outside the benchmark then moves one
/// window, not the result.
pub fn windowed(ms: &[f64], windows: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let size = (ms.len() / windows).max(1);
    let per: Vec<f64> = ms
        .chunks(size)
        .filter(|c| c.len() == size)
        .map(stat)
        .collect();
    median(&per)
}

/// Operations per second of busy time.
pub fn rate(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
