//! Pins what the exact branch-and-bound and A* searches compute, so a
//! refactor of them cannot silently change a bound, a witness or the
//! effort of a seeded sequential run.
//!
//! A case is an instance (random and structured graphs for treewidth,
//! coverable random and structured hypergraphs for ghw), one of the 8
//! combinations of {PR2, reductions, duplicate detection}, and either the
//! default node budget or 50 nodes. Its digest covers, for BB and for A*,
//! the lower and upper bound, exactness, the witness ordering and the
//! `expanded`, `pruned` and `max_queue` counters. `generated` is pinned
//! per engine in its own columns. The values were recorded once and are
//! compared exactly.
//!
//! The other tests run both searches under both measures, treewidth and
//! ghw, on the same toggle matrix and check them against exhaustive
//! search, against each other on larger instances, against known widths,
//! the budgeted anytime contract and the edge cases of empty and
//! uncoverable inputs.

use htd_core::ordering::{exhaustive_ghw, exhaustive_tw, TwEvaluator};
use htd_core::{CoverStrategy, GhwEvaluator};
use htd_hypergraph::{gen, Graph, Hypergraph};
use htd_search::{astar_ghw, astar_tw, bb_ghw, bb_tw, SearchConfig, SearchOutcome};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, out: &SearchOutcome) {
        self.word(u64::from(out.lower));
        self.word(u64::from(out.upper));
        self.word(u64::from(out.exact));
        match &out.ordering {
            Some(o) => {
                self.word(o.as_slice().len() as u64);
                for &v in o.as_slice() {
                    self.word(u64::from(v));
                }
            }
            None => self.word(u64::MAX),
        }
        self.word(out.stats.expanded);
        self.word(out.stats.pruned);
        self.word(out.stats.max_queue as u64);
    }
}

enum Instance {
    Tw(Graph),
    Ghw(Hypergraph),
}

/// The pinned instances, tw first. Most random seeds were picked because
/// their initial bounds leave a gap, so that the searches branch.
fn instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    let gnp = [
        (8, 0.3, 8),
        (8, 0.5, 279),
        (8, 0.5, 408),
        (10, 0.3, 1278),
        (10, 0.3, 2793),
        (10, 0.5, 595),
        (10, 0.5, 1865),
        (12, 0.3, 96),
        (12, 0.3, 692),
        (12, 0.3, 2956),
        (12, 0.5, 210),
        (12, 0.5, 220),
        (12, 0.5, 328),
        (12, 0.5, 361),
        (12, 0.5, 461),
        (12, 0.5, 1402),
        (12, 0.5, 2008),
        (12, 0.5, 2504),
    ];
    for (n, p, seed) in gnp {
        let g = gen::random_gnp(n, p, seed);
        out.push((format!("random_gnp({n}, {p}, {seed})"), Instance::Tw(g)));
    }
    for name in ["queen4_4", "myciel3", "grid4", "cycle12"] {
        let g = gen::named_graph(name).expect("suite graph");
        out.push((name.to_string(), Instance::Tw(g)));
    }
    let uniform = [
        5, 1370, 1577, 2192, 2969, 3938, 3998, 4031, 4585, 4763, 5735, 9089, 13565, 13931, 14321,
        14462, 17113, 18455, 18890, 19394,
    ];
    for seed in uniform {
        let (n, m) = (7 + (seed % 3) as u32, 8 + (seed % 3) as u32);
        let h = gen::random_uniform(n, m, 3, seed);
        assert!(h.covers_all_vertices(), "seed {seed}");
        let name = format!("random_uniform({n}, {m}, 3, {seed})");
        out.push((name, Instance::Ghw(h)));
    }
    let h = gen::random_acyclic(8, 3, 0);
    out.push(("random_acyclic(8, 3, 0)".into(), Instance::Ghw(h)));
    for k in 5..=7 {
        let h = gen::clique_hypergraph(k);
        out.push((format!("clique_hypergraph({k})"), Instance::Ghw(h)));
    }
    out.push(("adder(3)".into(), Instance::Ghw(gen::adder(3))));
    out.push(("grid2d(4)".into(), Instance::Ghw(gen::grid2d(4))));
    out
}

/// The 8 toggle combinations, each unbudgeted and at 50 nodes.
fn configs() -> Vec<(String, SearchConfig)> {
    let mut out = Vec::new();
    for budget in [None, Some(50)] {
        for mask in 0..8u32 {
            let base = budget.map_or_else(SearchConfig::default, SearchConfig::budgeted);
            let cfg = SearchConfig {
                use_pr2: mask & 1 != 0,
                use_reductions: mask & 2 != 0,
                use_duplicate_detection: mask & 4 != 0,
                ..base
            };
            let label = format!(
                "pr2={} red={} dup={} budget={budget:?}",
                cfg.use_pr2, cfg.use_reductions, cfg.use_duplicate_detection
            );
            out.push((label, cfg));
        }
    }
    out
}

/// BB's and A*'s outcomes on `inst` under `cfg`.
fn run(inst: &Instance, cfg: &SearchConfig) -> (SearchOutcome, SearchOutcome) {
    match inst {
        Instance::Tw(g) => (bb_tw(g, cfg), astar_tw(g, cfg)),
        Instance::Ghw(h) => (
            bb_ghw(h, cfg).expect("coverable"),
            astar_ghw(h, cfg).expect("coverable"),
        ),
    }
}

#[test]
fn searches_match_the_pinned_digests() {
    let (instances, configs) = (instances(), configs());
    assert_eq!(
        instances.len() * configs.len(),
        PINNED.len(),
        "case list and pin table differ"
    );
    let mut pins = PINNED.iter();
    let mut changed = Vec::new();
    for (name, inst) in &instances {
        for (label, cfg) in &configs {
            let (bb, astar) = run(inst, cfg);
            let mut d = Digest(0xcbf2_9ce4_8422_2325);
            d.outcome(&bb);
            d.outcome(&astar);
            let got = (d.0, bb.stats.generated, astar.stats.generated);
            let want = *pins.next().expect("counted above");
            if got != want {
                changed.push(format!("{name}, {label}: {got:#x?} (pinned {want:#x?})"));
            }
        }
    }
    assert!(
        changed.is_empty(),
        "{} changed cases:\n{}",
        changed.len(),
        changed.join("\n")
    );
}

/// `ghw` of the witness `out` reports, checked independently.
fn ghw_witness(h: &Hypergraph, out: &SearchOutcome) -> u32 {
    let mut ev = GhwEvaluator::new(h, CoverStrategy::Exact);
    ev.width(out.ordering.as_ref().expect("witness").as_slice())
        .expect("coverable")
}

/// `tw` of the witness `out` reports, checked independently.
fn tw_witness(g: &Graph, out: &SearchOutcome) -> u32 {
    TwEvaluator::new(g).width(out.ordering.as_ref().expect("witness").as_slice())
}

/// Both searches' exact width of `inst` under `cfg`, after checking that
/// each is exact and that its witness achieves it.
fn exact_widths(inst: &Instance, cfg: &SearchConfig) -> [u32; 2] {
    let (bb, astar) = run(inst, cfg);
    [bb, astar].map(|out| {
        assert!(out.exact, "expected an exact result");
        let achieved = match inst {
            Instance::Tw(g) => tw_witness(g, &out),
            Instance::Ghw(h) => ghw_witness(h, &out),
        };
        assert!(achieved <= out.upper, "witness {achieved} > {}", out.upper);
        out.upper
    })
}

#[test]
fn both_searches_match_exhaustive_search_under_every_toggle() {
    let mut cases: Vec<(String, Instance, u32)> = Vec::new();
    for seed in 0..12u64 {
        let g = gen::random_gnp(8, 0.4, seed);
        let truth = exhaustive_tw(&g);
        cases.push((format!("gnp seed {seed}"), Instance::Tw(g), truth));
    }
    for seed in 0..10u64 {
        let h = gen::random_uniform(7, 8, 3, seed);
        if let Some(truth) = exhaustive_ghw(&h) {
            cases.push((format!("uniform seed {seed}"), Instance::Ghw(h), truth));
        }
    }
    for (name, inst, truth) in &cases {
        for (label, cfg) in configs().iter().take(8) {
            assert_eq!(exact_widths(inst, cfg), [*truth; 2], "{name}, {label}");
        }
    }
}

#[test]
fn bb_and_astar_agree_on_larger_instances() {
    let cfg = SearchConfig::default();
    let mut instances: Vec<(String, Instance)> = (20..28u64)
        .map(|seed| {
            let g = gen::random_gnp(10, 0.3, seed);
            (format!("gnp seed {seed}"), Instance::Tw(g))
        })
        .collect();
    for seed in 10..16u64 {
        let h = gen::random_uniform(8, 9, 3, seed);
        if h.covers_all_vertices() {
            instances.push((format!("uniform seed {seed}"), Instance::Ghw(h)));
        }
    }
    for (name, inst) in &instances {
        let [bb, astar] = exact_widths(inst, &cfg);
        assert_eq!(bb, astar, "{name}");
    }
}

#[test]
fn both_searches_find_known_widths() {
    let tw = [
        (gen::path_graph(8), 1),
        (gen::cycle_graph(8), 2),
        (gen::cycle_graph(9), 2),
        (gen::complete_graph(6), 5),
        (gen::complete_graph(7), 6),
        (gen::grid_graph(3, 3), 3),
        (gen::grid_graph(4, 4), 4),
        (gen::random_ktree(16, 4, 3), 4),
        (gen::queen_graph(5), 18),
        (Graph::new(1), 0),
        (Graph::new(5), 0),
        (Graph::from_edges(2, [(0, 1)]), 1),
    ];
    let cfg = SearchConfig::default();
    for (g, want) in tw {
        assert_eq!(exact_widths(&Instance::Tw(g), &cfg), [want; 2]);
    }
    let chain = Hypergraph::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
    let thesis = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
    let triangle = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
    let mut ghw = vec![(chain, 1), (thesis, 2), (triangle, 2), (gen::adder(3), 2)];
    // clique hypergraphs: ghw = ⌈k/2⌉
    ghw.extend([
        (gen::clique_hypergraph(6), 3),
        (gen::clique_hypergraph(7), 4),
    ]);
    ghw.extend((0..5).map(|seed| (gen::random_acyclic(8, 3, seed), 1)));
    for (h, want) in ghw {
        assert_eq!(exact_widths(&Instance::Ghw(h), &cfg), [want; 2]);
    }
}

#[test]
fn empty_inputs_are_exact_with_an_empty_witness() {
    let cfg = SearchConfig::default();
    let empty = Hypergraph::new(0, Vec::new());
    for out in [
        bb_tw(&Graph::new(0), &cfg),
        astar_tw(&Graph::new(0), &cfg),
        bb_ghw(&empty, &cfg).expect("coverable"),
        astar_ghw(&empty, &cfg).expect("coverable"),
    ] {
        assert!(out.exact);
        assert_eq!((out.lower, out.upper), (0, 0));
        assert_eq!(out.ordering.expect("witness").as_slice(), &[] as &[u32]);
    }
}

#[test]
fn uncoverable_hypergraphs_have_no_ghw() {
    let cfg = SearchConfig::default();
    for h in [
        Hypergraph::new(3, vec![vec![0, 1]]),
        Hypergraph::new(2, vec![vec![0]]),
    ] {
        assert!(bb_ghw(&h, &cfg).is_none());
        assert!(astar_ghw(&h, &cfg).is_none());
    }
}

#[test]
fn ghw_searches_charge_the_memory_budget_for_their_cover_memo() {
    // no shared cover cache: each search builds its own memo, which the
    // run's memory budget governs (BB has no other charged structure)
    let searches: [fn(&Hypergraph, &SearchConfig) -> Option<SearchOutcome>; 2] =
        [bb_ghw, astar_ghw];
    for search in searches {
        let cfg = SearchConfig::default().with_memory_budget(1 << 30);
        search(&gen::grid2d(5), &cfg).expect("coverable");
        assert!(cfg.memory_budget.expect("set").used() > 0);
    }
}

#[test]
fn exhausted_budgets_still_bracket_the_width() {
    // Table 5.1: tw(queen6_6) = 25
    let g = gen::queen_graph(6);
    for budget in [30, 50] {
        let (bb, astar) = run(&Instance::Tw(g.clone()), &SearchConfig::budgeted(budget));
        for out in [&bb, &astar] {
            assert!(!out.exact);
            assert!(out.lower <= 25 && out.upper >= 25);
            assert_eq!(tw_witness(&g, out), out.upper);
        }
        assert!(astar.lower >= 1, "A* reports the largest visited f");
    }
    let h = gen::grid2d(6);
    for budget in [10, 20] {
        let (bb, astar) = run(&Instance::Ghw(h.clone()), &SearchConfig::budgeted(budget));
        for out in [&bb, &astar] {
            assert!(out.lower <= out.upper && out.lower >= 1);
            assert_eq!(ghw_witness(&h, out), out.upper);
        }
    }
}

#[test]
fn pruning_never_costs_bb_expansions_on_queen4() {
    let g = gen::queen_graph(4);
    let full = bb_tw(&g, &SearchConfig::default());
    let bare = bb_tw(
        &g,
        &SearchConfig {
            use_pr2: false,
            use_reductions: false,
            use_duplicate_detection: false,
            ..SearchConfig::default()
        },
    );
    assert!(full.exact && bare.exact);
    assert_eq!(full.upper, bare.upper);
    assert!(
        full.stats.expanded <= bare.stats.expanded,
        "pruning should not expand more nodes ({} vs {})",
        full.stats.expanded,
        bare.stats.expanded
    );
}

/// One row per case, instances outer and configurations inner: the digest
/// of both outcomes, BB's `generated`, A*'s `generated`.
const PINNED: &[(u64, u64, u64)] = &[
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x7dce4404639a2e85, 0, 0),
    (0x94157fe5943f9b36, 5, 11),
    (0xa2cdb103dadafa38, 6, 11),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x94157fe5943f9b36, 5, 11),
    (0xa2cdb103dadafa38, 6, 11),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x94157fe5943f9b36, 5, 11),
    (0xa2cdb103dadafa38, 6, 11),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x94157fe5943f9b36, 5, 11),
    (0xa2cdb103dadafa38, 6, 11),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x5a8c8d75f1b7fa64, 3, 3),
    (0x73f841b40b5ec454, 3, 11),
    (0x127872f0ee75f4b5, 4, 11),
    (0x5c837c82a4a84064, 3, 9),
    (0x5c837c82a4a84064, 3, 9),
    (0x73f841b40b5ec454, 3, 11),
    (0x127872f0ee75f4b5, 4, 11),
    (0x5c837c82a4a84064, 3, 9),
    (0x5c837c82a4a84064, 3, 9),
    (0x73f841b40b5ec454, 3, 11),
    (0x127872f0ee75f4b5, 4, 11),
    (0x5c837c82a4a84064, 3, 9),
    (0x5c837c82a4a84064, 3, 9),
    (0x73f841b40b5ec454, 3, 11),
    (0x127872f0ee75f4b5, 4, 11),
    (0x5c837c82a4a84064, 3, 9),
    (0x5c837c82a4a84064, 3, 9),
    (0x9fa6b94afee2c93a, 8, 20),
    (0x41dacdfca19ba314, 6, 20),
    (0x59e570ac0bb027a2, 6, 9),
    (0x59e570ac0bb027a2, 6, 9),
    (0x9fa6b94afee2c93a, 8, 20),
    (0x41dacdfca19ba314, 6, 20),
    (0x59e570ac0bb027a2, 6, 9),
    (0x59e570ac0bb027a2, 6, 9),
    (0x9fa6b94afee2c93a, 8, 20),
    (0x41dacdfca19ba314, 6, 20),
    (0x59e570ac0bb027a2, 6, 9),
    (0x59e570ac0bb027a2, 6, 9),
    (0x9fa6b94afee2c93a, 8, 20),
    (0x41dacdfca19ba314, 6, 20),
    (0x59e570ac0bb027a2, 6, 9),
    (0x59e570ac0bb027a2, 6, 9),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xad18ea58940c1aa4, 6, 6),
    (0xad18ea58940c1aa4, 6, 6),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xad18ea58940c1aa4, 6, 6),
    (0xad18ea58940c1aa4, 6, 6),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xad18ea58940c1aa4, 6, 6),
    (0xad18ea58940c1aa4, 6, 6),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xb00d0c5b374d2fae, 12, 24),
    (0xad18ea58940c1aa4, 6, 6),
    (0xad18ea58940c1aa4, 6, 6),
    (0x1c873fcbcadbd5e1, 9, 14),
    (0xcefc1f0a85b6a583, 7, 14),
    (0xe98f32596b777126, 7, 7),
    (0x35e45eebe493dba9, 6, 7),
    (0x1c873fcbcadbd5e1, 9, 14),
    (0xcefc1f0a85b6a583, 7, 14),
    (0xe98f32596b777126, 7, 7),
    (0x35e45eebe493dba9, 6, 7),
    (0x1c873fcbcadbd5e1, 9, 14),
    (0xcefc1f0a85b6a583, 7, 14),
    (0xe98f32596b777126, 7, 7),
    (0x35e45eebe493dba9, 6, 7),
    (0x1c873fcbcadbd5e1, 9, 14),
    (0xcefc1f0a85b6a583, 7, 14),
    (0xe98f32596b777126, 7, 7),
    (0x35e45eebe493dba9, 6, 7),
    (0xb0e202041d9e6469, 7, 12),
    (0xb0e202041d9e6469, 7, 12),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0xb0e202041d9e6469, 7, 12),
    (0xb0e202041d9e6469, 7, 12),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0xb0e202041d9e6469, 7, 12),
    (0xb0e202041d9e6469, 7, 12),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0xb0e202041d9e6469, 7, 12),
    (0xb0e202041d9e6469, 7, 12),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0x2c0060bdd0c1b0ec, 6, 9),
    (0x0fdc58674aee6db3, 27, 37),
    (0x307793777d8daa9a, 26, 37),
    (0x296fb412868590b7, 13, 13),
    (0x296fb412868590b7, 13, 13),
    (0x0fdc58674aee6db3, 27, 37),
    (0x307793777d8daa9a, 26, 37),
    (0x296fb412868590b7, 13, 13),
    (0x296fb412868590b7, 13, 13),
    (0x0fdc58674aee6db3, 27, 37),
    (0x307793777d8daa9a, 26, 37),
    (0x296fb412868590b7, 13, 13),
    (0x296fb412868590b7, 13, 13),
    (0x0fdc58674aee6db3, 27, 37),
    (0x307793777d8daa9a, 26, 37),
    (0x296fb412868590b7, 13, 13),
    (0x296fb412868590b7, 13, 13),
    (0x133320879ae5307a, 9, 24),
    (0x133320879ae5307a, 9, 24),
    (0x1fec530655086ba4, 9, 9),
    (0x1fec530655086ba4, 9, 9),
    (0x133320879ae5307a, 9, 24),
    (0x133320879ae5307a, 9, 24),
    (0x1fec530655086ba4, 9, 9),
    (0x1fec530655086ba4, 9, 9),
    (0x133320879ae5307a, 9, 24),
    (0x133320879ae5307a, 9, 24),
    (0x1fec530655086ba4, 9, 9),
    (0x1fec530655086ba4, 9, 9),
    (0x133320879ae5307a, 9, 24),
    (0x133320879ae5307a, 9, 24),
    (0x1fec530655086ba4, 9, 9),
    (0x1fec530655086ba4, 9, 9),
    (0x153d92e57351559b, 267, 59),
    (0x8a9d045d5c1dd49e, 70, 43),
    (0xe91a1da061474f07, 165, 34),
    (0x2d902b54364bf9af, 53, 15),
    (0x2957d1fb3f05ed2f, 267, 44),
    (0x8a9d045d5c1dd49e, 70, 43),
    (0x67a7822a452bbb77, 165, 32),
    (0x2d902b54364bf9af, 53, 15),
    (0x107c7e49549eea49, 50, 59),
    (0x8a87cdaef9675916, 50, 43),
    (0xf93f46ff954f8abb, 50, 34),
    (0x650d970d733c3181, 50, 15),
    (0x6a222141bd51e519, 50, 44),
    (0x8a87cdaef9675916, 50, 43),
    (0xd95830445abe66cb, 50, 32),
    (0x650d970d733c3181, 50, 15),
    (0xc343de271e3871e4, 238, 79),
    (0x6ebc04fa8031bbf0, 45, 20),
    (0x929c5e902b6b9990, 79, 34),
    (0xbd156578683fed28, 33, 18),
    (0xc893c27a13047fa3, 238, 20),
    (0x6ebc04fa8031bbf0, 45, 20),
    (0xef92e97eb1509211, 79, 20),
    (0x5adcaa7883c03ca1, 33, 14),
    (0x5f2c26fe0710406e, 50, 53),
    (0x6ebc04fa8031bbf0, 45, 20),
    (0xa11e982808160be0, 50, 34),
    (0xbd156578683fed28, 33, 18),
    (0x974c700075c32976, 50, 20),
    (0x6ebc04fa8031bbf0, 45, 20),
    (0xde0349bb737248a1, 50, 20),
    (0x5adcaa7883c03ca1, 33, 14),
    (0x9a947fb84a1d7466, 117, 35),
    (0x60ae105144362345, 42, 18),
    (0xa7310dfb19a42bc9, 69, 31),
    (0x7f409921ff083f5f, 50, 23),
    (0x3dc10fa97ca39b86, 117, 21),
    (0x60ae105144362345, 42, 18),
    (0x02438aa891d62cd9, 69, 18),
    (0x3aa5dccf39c1b8ed, 50, 18),
    (0xcc25101fd31f6cff, 50, 35),
    (0x60ae105144362345, 42, 18),
    (0x142b03477eaee16e, 50, 31),
    (0xca5637f642d9a7a3, 50, 23),
    (0x0f4ef73620657bdb, 50, 21),
    (0x60ae105144362345, 42, 18),
    (0x61440b3ef8e3f5be, 50, 18),
    (0xe0176be085834b51, 50, 18),
    (0x8d0bf016368e2114, 164, 41),
    (0x351aff4b01a51776, 37, 18),
    (0x6f9e9afe566d0e53, 66, 24),
    (0xcec4e1e963e97690, 34, 16),
    (0xcee7229205897105, 164, 20),
    (0x351aff4b01a51776, 37, 18),
    (0xa79af571c34958f1, 66, 17),
    (0x42bb1ce5f1cad125, 34, 12),
    (0x2374ee9a8613825a, 50, 41),
    (0x351aff4b01a51776, 37, 18),
    (0xc1e72640f2faf8e0, 50, 24),
    (0xcec4e1e963e97690, 34, 16),
    (0xa41633adff4d0fbf, 50, 20),
    (0x351aff4b01a51776, 37, 18),
    (0x048403082b6bd042, 50, 17),
    (0x42bb1ce5f1cad125, 34, 12),
    (0x097b71ddd69427d2, 23, 19),
    (0xd77107d744a6e181, 17, 19),
    (0xaa266fc0c94c98c2, 21, 15),
    (0xdf2e0ba420b7de9f, 18, 15),
    (0x097b71ddd69427d2, 23, 19),
    (0xd77107d744a6e181, 17, 19),
    (0xaa266fc0c94c98c2, 21, 15),
    (0xdf2e0ba420b7de9f, 18, 15),
    (0x097b71ddd69427d2, 23, 19),
    (0xd77107d744a6e181, 17, 19),
    (0xaa266fc0c94c98c2, 21, 15),
    (0xdf2e0ba420b7de9f, 18, 15),
    (0x097b71ddd69427d2, 23, 19),
    (0xd77107d744a6e181, 17, 19),
    (0xaa266fc0c94c98c2, 21, 15),
    (0xdf2e0ba420b7de9f, 18, 15),
    (0xfccc40385a7a5e09, 17, 22),
    (0xb37ab825f5b4bc00, 18, 22),
    (0xf383cc4370ce06e8, 16, 17),
    (0xf383cc4370ce06e8, 16, 17),
    (0xfccc40385a7a5e09, 17, 22),
    (0xb37ab825f5b4bc00, 18, 22),
    (0xf383cc4370ce06e8, 16, 17),
    (0xf383cc4370ce06e8, 16, 17),
    (0xfccc40385a7a5e09, 17, 22),
    (0xb37ab825f5b4bc00, 18, 22),
    (0xf383cc4370ce06e8, 16, 17),
    (0xf383cc4370ce06e8, 16, 17),
    (0xfccc40385a7a5e09, 17, 22),
    (0xb37ab825f5b4bc00, 18, 22),
    (0xf383cc4370ce06e8, 16, 17),
    (0xf383cc4370ce06e8, 16, 17),
    (0x23cb0cc0ea932391, 35, 20),
    (0xcad71d7f13d86173, 23, 20),
    (0x7298497c1482c5e6, 33, 13),
    (0x64292f9df3a8eee4, 21, 13),
    (0x23cb0cc0ea932391, 35, 20),
    (0xcad71d7f13d86173, 23, 20),
    (0x7298497c1482c5e6, 33, 13),
    (0x64292f9df3a8eee4, 21, 13),
    (0x23cb0cc0ea932391, 35, 20),
    (0xcad71d7f13d86173, 23, 20),
    (0x7298497c1482c5e6, 33, 13),
    (0x64292f9df3a8eee4, 21, 13),
    (0x23cb0cc0ea932391, 35, 20),
    (0xcad71d7f13d86173, 23, 20),
    (0x7298497c1482c5e6, 33, 13),
    (0x64292f9df3a8eee4, 21, 13),
    (0xd4c54fe28514abf1, 20, 33),
    (0x47d5162b118bcc8b, 9, 27),
    (0xc7501319d466ea78, 17, 13),
    (0x3ce7e2377573f838, 17, 13),
    (0xe07bd8d14d334b45, 20, 27),
    (0x47d5162b118bcc8b, 9, 27),
    (0xc7501319d466ea78, 17, 13),
    (0x3ce7e2377573f838, 17, 13),
    (0xd4c54fe28514abf1, 20, 33),
    (0x47d5162b118bcc8b, 9, 27),
    (0xc7501319d466ea78, 17, 13),
    (0x3ce7e2377573f838, 17, 13),
    (0xe07bd8d14d334b45, 20, 27),
    (0x47d5162b118bcc8b, 9, 27),
    (0xc7501319d466ea78, 17, 13),
    (0x3ce7e2377573f838, 17, 13),
    (0x7bb6d42772aa7e63, 40, 35),
    (0x647532f76bb6fd10, 25, 28),
    (0x3c28d5f5c1a120c5, 29, 19),
    (0xa9ccddb6671e906c, 26, 16),
    (0x0dbdf75654a61c01, 40, 34),
    (0x647532f76bb6fd10, 25, 28),
    (0x3c28d5f5c1a120c5, 29, 19),
    (0xa9ccddb6671e906c, 26, 16),
    (0x7bb6d42772aa7e63, 40, 35),
    (0x647532f76bb6fd10, 25, 28),
    (0x3c28d5f5c1a120c5, 29, 19),
    (0xa9ccddb6671e906c, 26, 16),
    (0x0dbdf75654a61c01, 40, 34),
    (0x647532f76bb6fd10, 25, 28),
    (0x3c28d5f5c1a120c5, 29, 19),
    (0xa9ccddb6671e906c, 26, 16),
    (0xa86e99f90e8cc82b, 71, 20),
    (0x51fda952a9505267, 41, 18),
    (0xaf123cb1c20fa83e, 63, 16),
    (0x1564aa968af954a5, 39, 15),
    (0xdd954edf8d489cc7, 71, 18),
    (0x51fda952a9505267, 41, 18),
    (0xf8d3e67f792e68e0, 63, 14),
    (0x1564aa968af954a5, 39, 15),
    (0x5f173f635d5708b4, 50, 20),
    (0x51fda952a9505267, 41, 18),
    (0x08324f25e78fa0df, 50, 16),
    (0x1564aa968af954a5, 39, 15),
    (0x29f08a7cde9b3418, 50, 18),
    (0x51fda952a9505267, 41, 18),
    (0x51f3f8f39eae6181, 50, 14),
    (0x1564aa968af954a5, 39, 15),
    (0x20811652eefa4009, 17, 0),
    (0x0176c752920ff6b6, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0x20811652eefa4009, 17, 0),
    (0x0176c752920ff6b6, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0x20811652eefa4009, 17, 0),
    (0x0176c752920ff6b6, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0x20811652eefa4009, 17, 0),
    (0x0176c752920ff6b6, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0xe48fef2b5f926c69, 12, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0x248407b48f234005, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xc67155ad4e423205, 0, 0),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0xef8da16d8f787ea7, 9, 25),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0x106ad523411dcd1d, 9, 24),
    (0x015b3799b45afd9a, 19, 17),
    (0x82db9cdf39dd9f92, 3, 16),
    (0xb91e2cdd6cbcef17, 19, 16),
    (0xd29b05a8e724023c, 9, 16),
    (0xad73aafb0554bcb6, 19, 16),
    (0x82db9cdf39dd9f92, 3, 16),
    (0xb91e2cdd6cbcef17, 19, 16),
    (0xd29b05a8e724023c, 9, 16),
    (0x015b3799b45afd9a, 19, 17),
    (0x82db9cdf39dd9f92, 3, 16),
    (0xb91e2cdd6cbcef17, 19, 16),
    (0xd29b05a8e724023c, 9, 16),
    (0xad73aafb0554bcb6, 19, 16),
    (0x82db9cdf39dd9f92, 3, 16),
    (0xb91e2cdd6cbcef17, 19, 16),
    (0xd29b05a8e724023c, 9, 16),
    (0xe294a13e0de5d467, 14, 26),
    (0x40763729f57018e7, 11, 23),
    (0xe294a13e0de5d467, 14, 26),
    (0x40763729f57018e7, 11, 23),
    (0x7b5ec26873d40a36, 14, 23),
    (0x40763729f57018e7, 11, 23),
    (0x7b5ec26873d40a36, 14, 23),
    (0x40763729f57018e7, 11, 23),
    (0xe294a13e0de5d467, 14, 26),
    (0x40763729f57018e7, 11, 23),
    (0xe294a13e0de5d467, 14, 26),
    (0x40763729f57018e7, 11, 23),
    (0x7b5ec26873d40a36, 14, 23),
    (0x40763729f57018e7, 11, 23),
    (0x7b5ec26873d40a36, 14, 23),
    (0x40763729f57018e7, 11, 23),
    (0x16ce578484c13fd6, 23, 25),
    (0x966f6d85796714c6, 12, 16),
    (0x16ce578484c13fd6, 23, 25),
    (0x966f6d85796714c6, 12, 16),
    (0xfb88f783db90becc, 23, 16),
    (0x966f6d85796714c6, 12, 16),
    (0xfb88f783db90becc, 23, 16),
    (0x966f6d85796714c6, 12, 16),
    (0x16ce578484c13fd6, 23, 25),
    (0x966f6d85796714c6, 12, 16),
    (0x16ce578484c13fd6, 23, 25),
    (0x966f6d85796714c6, 12, 16),
    (0xfb88f783db90becc, 23, 16),
    (0x966f6d85796714c6, 12, 16),
    (0xfb88f783db90becc, 23, 16),
    (0x966f6d85796714c6, 12, 16),
    (0x59db7b4401952145, 37, 45),
    (0x144e1a25761478bd, 23, 31),
    (0x59db7b4401952145, 37, 45),
    (0x144e1a25761478bd, 23, 31),
    (0x3dce9c49178554db, 37, 28),
    (0xbf1c04bc2aa21729, 23, 28),
    (0x3dce9c49178554db, 37, 28),
    (0xbf1c04bc2aa21729, 23, 28),
    (0x59db7b4401952145, 37, 45),
    (0x144e1a25761478bd, 23, 31),
    (0x59db7b4401952145, 37, 45),
    (0x144e1a25761478bd, 23, 31),
    (0x3dce9c49178554db, 37, 28),
    (0xbf1c04bc2aa21729, 23, 28),
    (0x3dce9c49178554db, 37, 28),
    (0xbf1c04bc2aa21729, 23, 28),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x56b65dd25e426559, 8, 14),
    (0x0f77ee0700aa4d8e, 11, 14),
    (0x00a3180c1c2ac67f, 13, 21),
    (0xc08d5e918de29ee6, 13, 18),
    (0x00a3180c1c2ac67f, 13, 21),
    (0xc08d5e918de29ee6, 13, 18),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x00a3180c1c2ac67f, 13, 21),
    (0xc08d5e918de29ee6, 13, 18),
    (0x00a3180c1c2ac67f, 13, 21),
    (0xc08d5e918de29ee6, 13, 18),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x858410644a6b0009, 13, 17),
    (0x68774cd5ab011d6b, 18, 36),
    (0x2ae6305987feb46c, 6, 21),
    (0x91685d46b192967d, 18, 17),
    (0x2dcfd31a206afadf, 11, 15),
    (0xa142b3df2be65a61, 18, 21),
    (0x2ae6305987feb46c, 6, 21),
    (0x4eb674f0e13eefa2, 18, 15),
    (0x2dcfd31a206afadf, 11, 15),
    (0x68774cd5ab011d6b, 18, 36),
    (0x2ae6305987feb46c, 6, 21),
    (0x91685d46b192967d, 18, 17),
    (0x2dcfd31a206afadf, 11, 15),
    (0xa142b3df2be65a61, 18, 21),
    (0x2ae6305987feb46c, 6, 21),
    (0x4eb674f0e13eefa2, 18, 15),
    (0x2dcfd31a206afadf, 11, 15),
    (0x4417f0a4a8713e08, 17, 19),
    (0x7b15520cc65558d8, 13, 15),
    (0x4417f0a4a8713e08, 17, 19),
    (0x7b15520cc65558d8, 13, 15),
    (0x91ac7613c60d705c, 17, 14),
    (0x6dcd278dff819f3d, 13, 14),
    (0x91ac7613c60d705c, 17, 14),
    (0x6dcd278dff819f3d, 13, 14),
    (0x4417f0a4a8713e08, 17, 19),
    (0x7b15520cc65558d8, 13, 15),
    (0x4417f0a4a8713e08, 17, 19),
    (0x7b15520cc65558d8, 13, 15),
    (0x91ac7613c60d705c, 17, 14),
    (0x6dcd278dff819f3d, 13, 14),
    (0x91ac7613c60d705c, 17, 14),
    (0x6dcd278dff819f3d, 13, 14),
    (0xcdf52326c7ac7bcd, 22, 31),
    (0xd960de59f734c141, 12, 23),
    (0x410bb29ed0a909fa, 22, 19),
    (0x78cd942e4d6c4584, 16, 18),
    (0x2609d796f427da68, 22, 23),
    (0xd960de59f734c141, 12, 23),
    (0xdddbbf19df8e6525, 22, 18),
    (0x78cd942e4d6c4584, 16, 18),
    (0xcdf52326c7ac7bcd, 22, 31),
    (0xd960de59f734c141, 12, 23),
    (0x410bb29ed0a909fa, 22, 19),
    (0x78cd942e4d6c4584, 16, 18),
    (0x2609d796f427da68, 22, 23),
    (0xd960de59f734c141, 12, 23),
    (0xdddbbf19df8e6525, 22, 18),
    (0x78cd942e4d6c4584, 16, 18),
    (0x999837b876088238, 23, 37),
    (0x3010690ed336113c, 18, 32),
    (0x999837b876088238, 23, 37),
    (0x3010690ed336113c, 18, 32),
    (0x810f08507b6a5136, 23, 30),
    (0x9aff2383daeaf073, 18, 30),
    (0x810f08507b6a5136, 23, 30),
    (0x9aff2383daeaf073, 18, 30),
    (0x999837b876088238, 23, 37),
    (0x3010690ed336113c, 18, 32),
    (0x999837b876088238, 23, 37),
    (0x3010690ed336113c, 18, 32),
    (0x810f08507b6a5136, 23, 30),
    (0x9aff2383daeaf073, 18, 30),
    (0x810f08507b6a5136, 23, 30),
    (0x9aff2383daeaf073, 18, 30),
    (0xb0ea4a4febd90063, 45, 27),
    (0x4b17b97e4d33c01b, 22, 25),
    (0xb0ea4a4febd90063, 45, 27),
    (0x4b17b97e4d33c01b, 22, 25),
    (0xc4aaba9472033c28, 45, 22),
    (0xf6c367a5cece2cdb, 22, 22),
    (0xc4aaba9472033c28, 45, 22),
    (0xf6c367a5cece2cdb, 22, 22),
    (0xb0ea4a4febd90063, 45, 27),
    (0x4b17b97e4d33c01b, 22, 25),
    (0xb0ea4a4febd90063, 45, 27),
    (0x4b17b97e4d33c01b, 22, 25),
    (0xc4aaba9472033c28, 45, 22),
    (0xf6c367a5cece2cdb, 22, 22),
    (0xc4aaba9472033c28, 45, 22),
    (0xf6c367a5cece2cdb, 22, 22),
    (0xe88578ca08c03696, 22, 37),
    (0x54969f09994d0acb, 18, 30),
    (0xe88578ca08c03696, 22, 37),
    (0x54969f09994d0acb, 18, 30),
    (0x979dc0f25eb0f362, 22, 28),
    (0x3b7217288880aa35, 18, 28),
    (0x979dc0f25eb0f362, 22, 28),
    (0x3b7217288880aa35, 18, 28),
    (0xe88578ca08c03696, 22, 37),
    (0x54969f09994d0acb, 18, 30),
    (0xe88578ca08c03696, 22, 37),
    (0x54969f09994d0acb, 18, 30),
    (0x979dc0f25eb0f362, 22, 28),
    (0x3b7217288880aa35, 18, 28),
    (0x979dc0f25eb0f362, 22, 28),
    (0x3b7217288880aa35, 18, 28),
    (0x7080b9a5051e37f1, 36, 42),
    (0x9e22a82f5444817f, 16, 29),
    (0x7080b9a5051e37f1, 36, 42),
    (0x9e22a82f5444817f, 16, 29),
    (0x58f1badbd1268b87, 36, 28),
    (0xeebb1e532b038998, 16, 28),
    (0x58f1badbd1268b87, 36, 28),
    (0xeebb1e532b038998, 16, 28),
    (0x7080b9a5051e37f1, 36, 42),
    (0x9e22a82f5444817f, 16, 29),
    (0x7080b9a5051e37f1, 36, 42),
    (0x9e22a82f5444817f, 16, 29),
    (0x58f1badbd1268b87, 36, 28),
    (0xeebb1e532b038998, 16, 28),
    (0x58f1badbd1268b87, 36, 28),
    (0xeebb1e532b038998, 16, 28),
    (0x52ec5468b510b401, 68, 14),
    (0xb92339fbd049e489, 30, 14),
    (0x52ec5468b510b401, 68, 14),
    (0xb92339fbd049e489, 30, 14),
    (0x52ec5468b510b401, 68, 14),
    (0xb92339fbd049e489, 30, 14),
    (0x52ec5468b510b401, 68, 14),
    (0xb92339fbd049e489, 30, 14),
    (0xfd5b8b7b8de955e2, 50, 14),
    (0xb92339fbd049e489, 30, 14),
    (0xfd5b8b7b8de955e2, 50, 14),
    (0xb92339fbd049e489, 30, 14),
    (0xfd5b8b7b8de955e2, 50, 14),
    (0xb92339fbd049e489, 30, 14),
    (0xfd5b8b7b8de955e2, 50, 14),
    (0xb92339fbd049e489, 30, 14),
    (0xa97ab6768364fad4, 36, 48),
    (0xa2fd496a625b5594, 22, 34),
    (0xa97ab6768364fad4, 36, 48),
    (0xa2fd496a625b5594, 22, 34),
    (0x6a701bf884765f8b, 36, 33),
    (0x3798b95a7623beb9, 22, 33),
    (0x6a701bf884765f8b, 36, 33),
    (0x3798b95a7623beb9, 22, 33),
    (0xa97ab6768364fad4, 36, 48),
    (0xa2fd496a625b5594, 22, 34),
    (0xa97ab6768364fad4, 36, 48),
    (0xa2fd496a625b5594, 22, 34),
    (0x6a701bf884765f8b, 36, 33),
    (0x3798b95a7623beb9, 22, 33),
    (0x6a701bf884765f8b, 36, 33),
    (0x3798b95a7623beb9, 22, 33),
    (0x83c6b170b6cd9b04, 29, 18),
    (0x12d614a5432349ae, 17, 17),
    (0x83c6b170b6cd9b04, 29, 18),
    (0x12d614a5432349ae, 17, 17),
    (0x9e147dca83972a5a, 29, 16),
    (0x3dfff4bbeef2c2cb, 17, 16),
    (0x9e147dca83972a5a, 29, 16),
    (0x3dfff4bbeef2c2cb, 17, 16),
    (0x83c6b170b6cd9b04, 29, 18),
    (0x12d614a5432349ae, 17, 17),
    (0x83c6b170b6cd9b04, 29, 18),
    (0x12d614a5432349ae, 17, 17),
    (0x9e147dca83972a5a, 29, 16),
    (0x3dfff4bbeef2c2cb, 17, 16),
    (0x9e147dca83972a5a, 29, 16),
    (0x3dfff4bbeef2c2cb, 17, 16),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0xa52a8b70a93fd707, 16, 17),
    (0xfc28cb37ef9abd40, 14, 17),
    (0x741c001eafc59b3c, 19, 31),
    (0x457434d47c6fe894, 15, 27),
    (0x741c001eafc59b3c, 19, 31),
    (0x457434d47c6fe894, 15, 27),
    (0xc7c1649be56cf69d, 19, 26),
    (0x0adce8b9c9bd3ee7, 15, 26),
    (0xc7c1649be56cf69d, 19, 26),
    (0x0adce8b9c9bd3ee7, 15, 26),
    (0x741c001eafc59b3c, 19, 31),
    (0x457434d47c6fe894, 15, 27),
    (0x741c001eafc59b3c, 19, 31),
    (0x457434d47c6fe894, 15, 27),
    (0xc7c1649be56cf69d, 19, 26),
    (0x0adce8b9c9bd3ee7, 15, 26),
    (0xc7c1649be56cf69d, 19, 26),
    (0x0adce8b9c9bd3ee7, 15, 26),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x3452f168621f6b3e, 15, 28),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0x726b3fd93572b995, 15, 24),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xf6597df8e7fb9385, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0xc4424106a59f9de5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0x58142b2dba72a2a5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0xbe94600aee9488e5, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x301a67814d33de85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
    (0x3e8654ca1a275a85, 0, 0),
];
