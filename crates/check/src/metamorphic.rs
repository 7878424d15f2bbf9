//! Metamorphic fuzzing: seeded instance generators over the thesis
//! benchmark families plus width-preserving / width-monotone transforms.
//!
//! Each transform comes with a *provable* relation between the original
//! and the transformed instance: their widths, which the harness solves
//! both to optimality for, or their canonical cache keys. A broken relation
//! is a [`Condition::Metamorphic`] violation. The relations used (and the
//! ones deliberately **not** used) are:
//!
//! | transform                | relation        | applies to |
//! |--------------------------|-----------------|------------|
//! | vertex relabeling        | width equal     | tw, ghw    |
//! | vertex relabeling        | canonical bytes equal whenever both searches complete | tw (the binary-edge key hypergraph the service builds), ghw |
//! | isolated-vertex padding  | tw equal        | tw only — an isolated vertex has no covering edge, so ghw instances would be rejected |
//! | duplicate-edge padding   | ghw equal       | ghw — duplicates add covering material identical to what exists |
//! | subset-edge padding      | ghw equal       | ghw — a `⊆`-dominated edge never helps nor hurts an optimal cover |
//! | edge deletion            | tw monotone ≤   | tw only — for ghw, edges are covering material and deletion can *raise* the width |
//! | vertex deletion          | tw monotone ≤   | tw only    |
//!
//! Everything is seeded (`Date`-free) from a [`SplitMix64`] stream, so a
//! failing `(family index, seed)` pair replays deterministically.

use htd_hypergraph::{canonical_form, gen, io, Graph, Hypergraph};
use htd_search::{solve, Engine, Outcome, Problem};

use crate::diff::DiffConfig;
use crate::report::{CheckReport, Condition};
use crate::shrink::compact_vertices;

/// A tiny deterministic RNG (Steele et al.'s SplitMix64 finalizer), so the
/// crate needs no dependency for its randomness and no clock ever leaks
/// into case generation.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A HyperBench-style atom-list sample (conjunctive-query shape), embedded
/// so the `.hg` parsing path is always exercised by the generator cycle.
const HYPERBENCH_SAMPLE: &str = "\
lives(Person, City),
works(Person, Company, Salary),
located(Company, City),
mayor(City, Person2),
knows(Person, Person2).
";

/// One generated instance: exactly one of `graph` / `hypergraph` is set.
#[derive(Clone, Debug)]
pub struct Case {
    /// Family + parameters, e.g. `grid_3x3` or `uniform_n7_m5_k3`.
    pub name: String,
    /// Set for treewidth (graph) cases.
    pub graph: Option<Graph>,
    /// Set for ghw (hypergraph) cases.
    pub hypergraph: Option<Hypergraph>,
}

impl Case {
    fn graph_case(name: String, g: Graph) -> Case {
        Case {
            name,
            graph: Some(g),
            hypergraph: None,
        }
    }

    fn hypergraph_case(name: String, h: Hypergraph) -> Case {
        Case {
            name,
            graph: None,
            hypergraph: Some(h),
        }
    }
}

/// Number of generator families [`case`] cycles through.
pub const NUM_FAMILIES: usize = 11;

/// Deterministically generates the `index`-th case of a `seed`-keyed
/// stream, cycling through the thesis benchmark families (grids, cliques,
/// hypercubes, random graphs/CSP-style hypergraphs, a HyperBench-style
/// `.hg` sample) at sizes small enough to solve to optimality.
pub fn case(index: usize, seed: u64) -> Case {
    let mut rng = SplitMix64(seed ^ (index as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    match index % NUM_FAMILIES {
        0 => {
            let (r, c) = (2 + rng.below(2) as u32, 2 + rng.below(2) as u32);
            Case::graph_case(format!("grid_{r}x{c}"), gen::grid_graph(r, c))
        }
        1 => {
            let k = 3 + rng.below(4) as u32;
            Case::graph_case(format!("clique_{k}"), gen::complete_graph(k))
        }
        2 => Case::graph_case("hypercube_3".into(), gen::hypercube(3)),
        3 => {
            let n = 6 + rng.below(4) as u32;
            let p = 0.25 + (rng.below(30) as f64) / 100.0;
            let s = rng.next_u64();
            Case::graph_case(format!("gnp_n{n}_s{s}"), gen::random_gnp(n, p, s))
        }
        4 => {
            let n = 8 + rng.below(3) as u32;
            let s = rng.next_u64();
            Case::graph_case(
                format!("partial_ktree_n{n}_s{s}"),
                gen::random_partial_ktree(n, 3, 0.7, s),
            )
        }
        5 => {
            let k = 2 + rng.below(2) as u32;
            Case::hypergraph_case(format!("adder_{k}"), gen::adder(k))
        }
        6 => {
            let k = 2 + rng.below(2) as u32;
            Case::hypergraph_case(format!("grid2d_{k}"), gen::grid2d(k))
        }
        7 => {
            let k = 4 + rng.below(3) as u32;
            Case::hypergraph_case(format!("clique_hg_{k}"), gen::clique_hypergraph(k))
        }
        8 => {
            let (n, m) = (6 + rng.below(3) as u32, 4 + rng.below(3) as u32);
            let s = rng.next_u64();
            Case::hypergraph_case(
                format!("uniform_n{n}_m{m}_s{s}"),
                compact_vertices(&gen::random_uniform(n, m, 3, s)),
            )
        }
        9 => {
            let m = 4 + rng.below(3) as u32;
            let s = rng.next_u64();
            Case::hypergraph_case(
                format!("acyclic_m{m}_s{s}"),
                compact_vertices(&gen::random_acyclic(m, 3, s)),
            )
        }
        _ => Case::hypergraph_case(
            "hyperbench_sample".into(),
            io::parse_hg(HYPERBENCH_SAMPLE).expect("embedded sample parses"),
        ),
    }
}

/// A uniformly random permutation of `0..n`.
fn permutation(n: u32, rng: &mut SplitMix64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    perm
}

/// Relabels graph vertices by `perm` (vertex `v` becomes `perm[v]`).
pub fn relabel_graph(g: &Graph, perm: &[u32]) -> Graph {
    Graph::from_edges(
        g.num_vertices(),
        g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])),
    )
}

/// Relabels hypergraph vertices by `perm`.
pub fn relabel_hypergraph(h: &Hypergraph, perm: &[u32]) -> Hypergraph {
    let edges = (0..h.num_edges())
        .map(|e| h.edge(e).iter().map(|v| perm[v as usize]).collect())
        .collect();
    Hypergraph::new(h.num_vertices(), edges)
}

/// Adds one isolated vertex (graphs only: treewidth is unchanged, but a
/// ghw instance would lose vertex coverage).
pub fn pad_isolated_vertex(g: &Graph) -> Graph {
    Graph::from_edges(g.num_vertices() + 1, g.edges())
}

/// Appends an exact copy of edge `idx` (ghw unchanged).
pub fn duplicate_edge(h: &Hypergraph, idx: usize) -> Hypergraph {
    let mut edges: Vec<Vec<u32>> = (0..h.num_edges()).map(|e| h.edge(e).to_vec()).collect();
    edges.push(edges[idx].clone());
    Hypergraph::new(h.num_vertices(), edges)
}

/// Appends a nonempty subset of edge `idx` (ghw unchanged: a
/// `⊆`-dominated edge can always be replaced by its superset in a cover).
pub fn add_subset_edge(h: &Hypergraph, idx: usize, rng: &mut SplitMix64) -> Hypergraph {
    let mut edges: Vec<Vec<u32>> = (0..h.num_edges()).map(|e| h.edge(e).to_vec()).collect();
    let scope = &edges[idx];
    let keep = 1 + rng.below(scope.len() as u64) as usize;
    let mut subset = scope.clone();
    while subset.len() > keep {
        let drop = rng.below(subset.len() as u64) as usize;
        subset.remove(drop);
    }
    edges.push(subset);
    Hypergraph::new(h.num_vertices(), edges)
}

/// Removes the `idx`-th edge (treewidth can only decrease).
pub fn delete_edge(g: &Graph, idx: usize) -> Graph {
    Graph::from_edges(
        g.num_vertices(),
        g.edges()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, e)| e),
    )
}

/// Removes vertex `v` and compacts ids (treewidth can only decrease).
pub fn delete_vertex(g: &Graph, v: u32) -> Graph {
    let map = |u: u32| if u > v { u - 1 } else { u };
    Graph::from_edges(
        g.num_vertices() - 1,
        g.edges()
            .filter(|&(a, b)| a != v && b != v)
            .map(|(a, b)| (map(a), map(b))),
    )
}

fn exact_width(problem: &Problem, cfg: &DiffConfig) -> Option<u32> {
    let scfg = cfg.search_config_for(vec![Engine::BranchBound], 1);
    solve(problem, &scfg)
        .ok()
        .as_ref()
        // a degraded outcome is bracketing-only, never a truth anchor
        .filter(|o| !o.degraded)
        .and_then(Outcome::exact_width)
}

fn exact_tw(g: &Graph, cfg: &DiffConfig) -> Option<u32> {
    exact_width(&Problem::treewidth(g.clone()), cfg)
}

fn exact_ghw(h: &Hypergraph, cfg: &DiffConfig) -> Option<u32> {
    exact_width(&Problem::ghw(h.clone()), cfg)
}

/// Reports a violation when relabeling changed the canonical bytes of a
/// cache key although both searches completed.
fn expect_same_key(report: &mut CheckReport, h: &Hypergraph, relabeled: &Hypergraph) {
    let (a, b) = (canonical_form(h), canonical_form(relabeled));
    if a.complete && b.complete && a.bytes != b.bytes {
        report.push(
            Condition::Metamorphic,
            format!(
                "vertex relabeling changed the canonical key: {} → {}",
                a.hex(),
                b.hex()
            ),
        );
    }
}

/// Runs every applicable metamorphic invariant on `case`. The canonical
/// key is compared on every case; the width relations skip instances the
/// budget cannot solve to optimality silently (the report stays valid).
/// Any relation that *can* be established and fails is a
/// [`Condition::Metamorphic`] violation.
pub fn run_metamorphic_case(case: &Case, seed: u64, cfg: &DiffConfig) -> CheckReport {
    let mut rng = SplitMix64(seed ^ 0xa076_1d64_78bd_642f);
    let mut report = CheckReport::new(format!("metamorphic[{}]", case.name));
    let expect_eq = |report: &mut CheckReport, what: &str, base: u32, got: Option<u32>| {
        if let Some(w) = got {
            if w != base {
                report.push(
                    Condition::Metamorphic,
                    format!("{what} changed the width: {base} → {w}"),
                );
            }
        }
    };
    if let Some(g) = &case.graph {
        let relabeled = relabel_graph(g, &permutation(g.num_vertices(), &mut rng));
        expect_same_key(
            &mut report,
            &Hypergraph::from_graph(g),
            &Hypergraph::from_graph(&relabeled),
        );
        let Some(tw) = exact_tw(g, cfg) else {
            return report;
        };
        expect_eq(
            &mut report,
            "vertex relabeling",
            tw,
            exact_tw(&relabeled, cfg),
        );
        expect_eq(
            &mut report,
            "isolated-vertex padding",
            tw,
            exact_tw(&pad_isolated_vertex(g), cfg),
        );
        if g.num_edges() > 0 {
            let idx = rng.below(g.num_edges() as u64) as usize;
            if let Some(w) = exact_tw(&delete_edge(g, idx), cfg) {
                if w > tw {
                    report.push(
                        Condition::Metamorphic,
                        format!("deleting edge {idx} raised tw: {tw} → {w}"),
                    );
                }
            }
        }
        if g.num_vertices() > 1 {
            let v = rng.below(g.num_vertices() as u64) as u32;
            if let Some(w) = exact_tw(&delete_vertex(g, v), cfg) {
                if w > tw {
                    report.push(
                        Condition::Metamorphic,
                        format!("deleting vertex {v} raised tw: {tw} → {w}"),
                    );
                }
            }
        }
    }
    if let Some(h) = &case.hypergraph {
        let relabeled = relabel_hypergraph(h, &permutation(h.num_vertices(), &mut rng));
        expect_same_key(&mut report, h, &relabeled);
        let Some(ghw) = exact_ghw(h, cfg) else {
            return report;
        };
        expect_eq(
            &mut report,
            "vertex relabeling",
            ghw,
            exact_ghw(&relabeled, cfg),
        );
        if h.num_edges() > 0 {
            let idx = rng.below(h.num_edges() as u64) as usize;
            expect_eq(
                &mut report,
                "duplicate-edge padding",
                ghw,
                exact_ghw(&duplicate_edge(h, idx), cfg),
            );
            let idx = rng.below(h.num_edges() as u64) as usize;
            expect_eq(
                &mut report,
                "subset-edge padding",
                ghw,
                exact_ghw(&add_subset_edge(h, idx, &mut rng), cfg),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DiffConfig {
        DiffConfig::default()
    }

    #[test]
    fn generator_is_deterministic_and_covers_all_families() {
        let mut graphs = 0;
        let mut hypergraphs = 0;
        for i in 0..NUM_FAMILIES {
            let a = case(i, 42);
            let b = case(i, 42);
            assert_eq!(a.name, b.name);
            match (&a.graph, &a.hypergraph) {
                (Some(_), None) => graphs += 1,
                (None, Some(_)) => hypergraphs += 1,
                _ => panic!("case {i} must be exactly one of graph/hypergraph"),
            }
        }
        assert!(graphs >= 4 && hypergraphs >= 4);
    }

    #[test]
    fn invariants_hold_on_a_sample_of_cases() {
        for i in [0, 1, 5, 7, 10] {
            let c = case(i, 7);
            let r = run_metamorphic_case(&c, 7, &quick());
            assert!(r.is_valid(), "{}: {r}", c.name);
        }
    }

    #[test]
    fn transforms_preserve_structure() {
        let g = gen::grid_graph(3, 3);
        let mut rng = SplitMix64(5);
        let perm = permutation(9, &mut rng);
        let rg = relabel_graph(&g, &perm);
        assert_eq!(rg.num_edges(), g.num_edges());
        assert_eq!(pad_isolated_vertex(&g).num_vertices(), 10);
        assert_eq!(delete_edge(&g, 0).num_edges(), g.num_edges() - 1);
        assert_eq!(delete_vertex(&g, 4).num_vertices(), 8);

        let h = gen::clique_hypergraph(4);
        assert_eq!(duplicate_edge(&h, 0).num_edges(), h.num_edges() + 1);
        let padded = add_subset_edge(&h, 0, &mut rng);
        assert_eq!(padded.num_edges(), h.num_edges() + 1);
        let last = padded.edge(padded.num_edges() - 1);
        assert!(!last.is_empty() && last.len() <= h.edge(0).len());
    }

    #[test]
    fn a_key_change_is_detected() {
        // C6 and two triangles are not isomorphic: their keys must differ
        let c6 = Hypergraph::from_graph(&gen::cycle_graph(6));
        let two_c3 = Hypergraph::new(
            6,
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![2, 0],
                vec![3, 4],
                vec![4, 5],
                vec![5, 3],
            ],
        );
        let mut report = CheckReport::new("keys");
        expect_same_key(&mut report, &c6, &c6);
        assert!(report.is_valid(), "{report}");
        expect_same_key(&mut report, &c6, &two_c3);
        assert!(!report.is_valid());
    }

    #[test]
    fn a_width_lie_is_detected() {
        // sanity: if the "transformed" instance genuinely has a different
        // width, the invariant machinery reports it
        let g = gen::complete_graph(5);
        let tw = exact_tw(&g, &quick()).unwrap();
        let smaller = exact_tw(&gen::complete_graph(4), &quick()).unwrap();
        assert_ne!(tw, smaller);
    }
}
