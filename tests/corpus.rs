//! Regression corpus: every instance file under `tests/corpus/` is parsed
//! by extension and pushed through the full differential harness —
//! `.gr` graphs through the treewidth matrix, `.hg` hypergraphs through
//! the ghw matrix. Shrunken reproducers from fuzzing failures get dropped
//! into the same directory, so a bug found once is re-checked forever.

use std::path::{Path, PathBuf};
use std::time::Duration;

use htd::check::{diff_ghw, diff_tw, DiffConfig};
use htd::hypergraph::io;
use htd::search::{solve, Problem, SearchConfig};

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn corpus_files(extension: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus/ must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == extension))
        .collect();
    files.sort();
    files
}

fn config() -> DiffConfig {
    DiffConfig {
        max_nodes: 500_000,
        time_limit: Some(Duration::from_secs(5)),
        seed: 1,
        portfolio_arm: false,
        memory_budget: None,
    }
}

#[test]
fn every_gr_instance_passes_the_treewidth_matrix() {
    let files = corpus_files("gr");
    assert!(!files.is_empty(), "corpus lost its .gr instances");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = io::parse_pace_gr(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = diff_tw(&g, &config());
        assert!(report.is_valid(), "{}:\n{report}", path.display());
    }
}

#[test]
fn every_hg_instance_passes_the_ghw_matrix() {
    let files = corpus_files("hg");
    assert!(!files.is_empty(), "corpus lost its .hg instances");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let h = io::parse_hg(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = diff_ghw(&h, &config());
        assert!(report.is_valid(), "{}:\n{report}", path.display());
    }
}

/// Memory-starved differential runs (docs/robustness.md): a tight
/// per-arm budget degrades search arms to their best-known bounds, and
/// the harness must accept those as bracketing-only claims — a degraded
/// arm never anchors the truth, but its interval must still bracket it.
#[test]
fn corpus_accepts_bracketing_only_results_from_degraded_arms() {
    let starved = DiffConfig {
        memory_budget: Some(16 << 10),
        ..config()
    };
    for path in corpus_files("gr").into_iter().take(3) {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = io::parse_pace_gr(&text).unwrap();
        let report = diff_tw(&g, &starved);
        assert!(report.is_valid(), "{}:\n{report}", path.display());
    }
}

/// The forced-reduction instance exists to pin the reduction machinery:
/// pendants and a simplicial apex make every engine take its
/// simplicial/almost-simplicial shortcuts, and the answer must match the
/// configuration with all pruning and reductions disabled.
#[test]
fn forced_reduction_instance_agrees_with_pruning_disabled() {
    let text = std::fs::read_to_string(corpus_dir().join("forced_reduction.gr")).unwrap();
    let g = io::parse_pace_gr(&text).unwrap();
    let with = solve(&Problem::treewidth(g.clone()), &SearchConfig::default()).unwrap();
    let without = solve(
        &Problem::treewidth(g),
        &SearchConfig {
            use_pr2: false,
            use_reductions: false,
            use_duplicate_detection: false,
            ..SearchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(with.exact_width(), Some(3));
    assert_eq!(without.exact_width(), Some(3));
}

/// The balanced-separator engine's upper bound on every corpus instance
/// must sit at or above the exact width the sequential engines prove, and
/// its witness ordering must survive the independent oracle — the
/// "reassembled nested dissection is a real decomposition" property, on
/// the instances that once broke something.
#[test]
fn balsep_brackets_the_exact_width_on_the_whole_corpus() {
    use htd::check::verify_outcome;
    use htd::search::Engine;
    let balsep_cfg = SearchConfig::default()
        .with_engines(vec![Engine::BalSep])
        .with_threads(2)
        .with_max_nodes(500_000);
    let mut checked = 0;
    for path in corpus_files("gr") {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = io::parse_pace_gr(&text).unwrap();
        let problem = Problem::treewidth(g);
        let exact = solve(&problem, &SearchConfig::default()).unwrap();
        let bal = solve(&problem, &balsep_cfg).unwrap();
        let report = verify_outcome(&problem, &bal);
        assert!(report.is_valid(), "{}:\n{report}", path.display());
        if let Some(w) = exact.exact_width() {
            assert!(
                bal.upper >= w,
                "{}: balsep {} < exact {w}",
                path.display(),
                bal.upper
            );
        }
        checked += 1;
    }
    for path in corpus_files("hg") {
        let text = std::fs::read_to_string(&path).unwrap();
        let h = io::parse_hg(&text).unwrap();
        let problem = Problem::ghw(h);
        let exact = solve(&problem, &SearchConfig::default()).unwrap();
        let bal = solve(&problem, &balsep_cfg).unwrap();
        let report = verify_outcome(&problem, &bal);
        assert!(report.is_valid(), "{}:\n{report}", path.display());
        if let Some(w) = exact.exact_width() {
            assert!(
                bal.upper >= w,
                "{}: balsep {} < exact {w}",
                path.display(),
                bal.upper
            );
        }
        checked += 1;
    }
    assert!(checked >= 4, "corpus lost instances");
}
