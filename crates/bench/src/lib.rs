//! Shared harness for the table-reproduction binaries.
//!
//! Every numbered table of the reproduced evaluation has a binary under
//! `src/bin/` (`table5_1` … `table9_2`) that regenerates its rows; this
//! library provides the common pieces: aligned table printing, repeated
//! stochastic runs with summary statistics, and the quick/full scaling
//! switch (`--full` on the command line, or `HTD_SCALE=full`).

#![warn(missing_docs)]

use std::fmt::Write as _;

/// Run scale: `Quick` keeps every binary under roughly a minute on a
/// laptop; `Full` uses the thesis-sized instance lists and budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick subset (default).
    Quick,
    /// Larger instances and budgets.
    Full,
}

impl Scale {
    /// Reads the scale from `--full` in argv or `HTD_SCALE=full`.
    pub fn from_env() -> Scale {
        let argv_full = std::env::args().any(|a| a == "--full");
        let env_full = std::env::var("HTD_SCALE").is_ok_and(|v| v == "full");
        if argv_full || env_full {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Picks between the quick and full variant of a value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Summary statistics over repeated runs (the thesis reports min/max/avg
/// and standard deviation over ten runs per instance).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Minimum (best) value.
    pub min: u32,
    /// Maximum (worst) value.
    pub max: u32,
    /// Average.
    pub avg: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

/// Runs `f(seed)` for `runs` seeds and summarizes.
pub fn repeat_runs(runs: u64, mut f: impl FnMut(u64) -> u32) -> RunStats {
    assert!(runs >= 1);
    let values: Vec<u32> = (0..runs).map(&mut f).collect();
    summarize(&values)
}

/// Summary statistics of a sample.
pub fn summarize(values: &[u32]) -> RunStats {
    let min = *values.iter().min().expect("nonempty");
    let max = *values.iter().max().expect("nonempty");
    let avg = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
    let var = if values.len() > 1 {
        values
            .iter()
            .map(|&v| (v as f64 - avg).powi(2))
            .sum::<f64>()
            / (values.len() - 1) as f64
    } else {
        0.0
    };
    RunStats {
        min,
        max,
        avg,
        std_dev: var.sqrt(),
    }
}

/// A plain-text table with aligned columns.
#[derive(Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a `f64` with two decimals (table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// GA experiment support shared by the chapter-6/7 table binaries.
pub mod ga_support {
    use htd_ga::GaParams;
    use htd_hypergraph::{Graph, Hypergraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::{repeat_runs, RunStats};

    /// Runs GA-tw `runs` times with distinct seeds and summarizes widths.
    pub fn ga_tw_stats(g: &Graph, params: &GaParams, runs: u64) -> RunStats {
        repeat_runs(runs, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            htd_ga::ga_tw(g, params, &mut rng).width
        })
    }

    /// Runs GA-ghw `runs` times with distinct seeds and summarizes widths.
    pub fn ga_ghw_stats(h: &Hypergraph, params: &GaParams, runs: u64) -> RunStats {
        repeat_runs(runs, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            htd_ga::ga_ghw(h, params, &mut rng)
                .expect("suite hypergraphs cover all vertices")
                .width
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sample() {
        let s = summarize(&[5, 5, 5]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert_eq!(s.avg, 5.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn stats_of_spread_sample() {
        let s = summarize(&[2, 4, 6]);
        assert_eq!((s.min, s.max), (2, 6));
        assert!((s.avg - 4.0).abs() < 1e-9);
        assert!((s.std_dev - 2.0).abs() < 1e-9);
    }

    #[test]
    fn repeat_runs_passes_distinct_seeds() {
        let mut seen = Vec::new();
        let _ = repeat_runs(4, |s| {
            seen.push(s);
            s as u32
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "w"]);
        t.row(vec!["queen5_5".into(), "18".into()]);
        t.row(vec!["x".into(), "3".into()]);
        let r = t.render();
        assert!(r.contains("queen5_5  18"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
