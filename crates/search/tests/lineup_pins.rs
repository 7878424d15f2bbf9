//! Pins what the portfolio decides about its engines and what each engine
//! computes on its own, so a change to how [`solve`] reaches its engines
//! cannot silently reorder a lineup, hand a slot to another engine,
//! relabel a winner or change a seeded single-engine run.
//!
//! * The launch table: 1 to 8 worker slots × four lineups, on one tw and
//!   one ghw instance. It pins the engine order of `per_engine` (who ran)
//!   and of `skipped_engines` (who got no slot).
//! * Each engine alone, at one thread and a fixed seed, on six tw and six
//!   coverable ghw instances. One digest per engine covers, for every
//!   instance, the bounds, exactness, the winner's name, the witness, the
//!   outcome's `nodes` and the engine report's `generated`, `expanded`
//!   and `pruned`. Times are left out. Every engine's digest repeated
//!   over five runs when it was recorded, so each is pinned in full.
//! * The winner of a single-engine run with a finite upper bound is that
//!   engine, by value and by name.

use htd_hypergraph::{gen, Graph, Hypergraph};
use htd_search::{solve, Engine, Outcome, Problem, SearchConfig};

/// FNV-1a over 64-bit words and byte strings.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn outcome(&mut self, out: &Outcome) {
        self.word(u64::from(out.lower));
        self.word(u64::from(out.upper));
        self.word(u64::from(out.exact));
        match out.winner {
            Some(w) => self.bytes(w.name().as_bytes()),
            None => self.word(u64::MAX),
        }
        match &out.witness {
            Some(o) => {
                self.word(o.as_slice().len() as u64);
                for &v in o.as_slice() {
                    self.word(u64::from(v));
                }
            }
            None => self.word(u64::MAX),
        }
        self.word(out.nodes);
        self.word(out.per_engine.len() as u64);
        for r in &out.per_engine {
            self.bytes(r.engine.name().as_bytes());
            self.word(r.stats.generated);
            self.word(r.stats.expanded);
            self.word(r.stats.pruned);
        }
    }
}

/// The seven engines, in the default lineup's order.
const ENGINES: [Engine; 7] = [
    Engine::Heuristic,
    Engine::LowerBound,
    Engine::BranchBound,
    Engine::AStar,
    Engine::BalSep,
    Engine::Genetic,
    Engine::Annealing,
];

/// The lineups of the launch table; `None` is the default lineup.
fn lineups() -> Vec<Option<Vec<Engine>>> {
    vec![
        None,
        Some(vec![Engine::BalSep, Engine::BranchBound]),
        Some(vec![
            Engine::Genetic,
            Engine::AStar,
            Engine::Heuristic,
            Engine::LowerBound,
        ]),
        Some(vec![Engine::Annealing, Engine::BalSep]),
    ]
}

fn names(engines: impl Iterator<Item = Engine>) -> String {
    engines.map(Engine::name).collect::<Vec<_>>().join(" ")
}

/// Who ran and who was skipped, as `"ran / skipped"`.
fn launch(out: &Outcome) -> String {
    format!(
        "{} / {}",
        names(out.per_engine.iter().map(|r| r.engine)),
        names(out.skipped_engines.iter().copied())
    )
}

/// The pinned rows: each lineup of [`lineups`] at 1 to 8 slots, lineup by
/// lineup.
const LAUNCH: [&str; 32] = [
    "branch_bound / astar heuristic lower_bound balsep genetic annealing",
    "branch_bound astar / heuristic lower_bound balsep genetic annealing",
    "branch_bound astar heuristic / lower_bound balsep genetic annealing",
    "branch_bound astar heuristic lower_bound / balsep genetic annealing",
    "branch_bound astar heuristic lower_bound balsep / genetic annealing",
    "branch_bound astar heuristic lower_bound balsep genetic / annealing",
    "heuristic lower_bound branch_bound astar balsep genetic annealing / ",
    "heuristic lower_bound branch_bound astar balsep genetic annealing / ",
    "branch_bound / balsep",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "balsep branch_bound / ",
    "astar / heuristic lower_bound genetic",
    "astar heuristic / lower_bound genetic",
    "astar heuristic lower_bound / genetic",
    "genetic astar heuristic lower_bound / ",
    "genetic astar heuristic lower_bound / ",
    "genetic astar heuristic lower_bound / ",
    "genetic astar heuristic lower_bound / ",
    "genetic astar heuristic lower_bound / ",
    "balsep / annealing",
    "annealing balsep / ",
    "annealing balsep / ",
    "annealing balsep / ",
    "annealing balsep / ",
    "annealing balsep / ",
    "annealing balsep / ",
    "annealing balsep / ",
];

#[test]
fn launch_table_matches_the_pins() {
    let problems = [
        Problem::treewidth(gen::cycle_graph(6)),
        Problem::ghw(gen::adder(2)),
    ];
    let mut got = Vec::new();
    for lineup in lineups() {
        for threads in 1..=8 {
            let mut cfg = SearchConfig::default().with_seed(11).with_threads(threads);
            cfg.engines = lineup.clone();
            let rows: Vec<String> = problems
                .iter()
                .map(|p| launch(&solve(p, &cfg).expect("solves")))
                .collect();
            assert_eq!(
                rows[0], rows[1],
                "tw and ghw launch alike ({threads} threads, {lineup:?})"
            );
            got.push(rows[0].clone());
        }
    }
    let changed: Vec<String> = got
        .iter()
        .zip(LAUNCH)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("row {i}: {g:?} (pinned {w:?})"))
        .collect();
    assert!(
        changed.is_empty(),
        "{} changed rows:\n{}",
        changed.len(),
        changed.join("\n")
    );
}

/// The twelve single-engine instances, tw first.
fn instances() -> Vec<(String, Problem)> {
    let mut out: Vec<(String, Problem)> = Vec::new();
    let tw: [(&str, Graph); 3] = [
        ("cycle_graph(8)", gen::cycle_graph(8)),
        ("grid_graph(4, 4)", gen::grid_graph(4, 4)),
        ("queen_graph(4)", gen::queen_graph(4)),
    ];
    for (name, g) in tw {
        out.push((name.into(), Problem::treewidth(g)));
    }
    for s in 0..3 {
        let g = gen::random_gnp(10, 0.4, s);
        out.push((format!("random_gnp(10, 0.4, {s})"), Problem::treewidth(g)));
    }
    let ghw: [(&str, Hypergraph); 3] = [
        ("adder(3)", gen::adder(3)),
        ("clique_hypergraph(5)", gen::clique_hypergraph(5)),
        ("grid2d(4)", gen::grid2d(4)),
    ];
    for (name, h) in ghw {
        out.push((name.into(), Problem::ghw(h)));
    }
    let mut seed = 0;
    while out.len() < 12 {
        let h = gen::random_uniform(8, 9, 3, seed);
        if h.covers_all_vertices() {
            out.push((format!("random_uniform(8, 9, 3, {seed})"), Problem::ghw(h)));
        }
        seed += 1;
    }
    out
}

/// One digest per engine over its solo runs, in [`ENGINES`] order.
const SOLO: [u64; 7] = [
    0xe34f_4cf5_da63_0235,
    0xf4f8_1430_2230_ca19,
    0x4370_09c3_21fe_759e,
    0x663b_63d4_9ef2_d1ed,
    0xa069_fd9c_a795_589d,
    0x1817_6d7d_da50_f925,
    0x387f_380b_c1e9_6c75,
];

#[test]
fn each_engine_alone_matches_the_pins_and_wins_its_own_bounds() {
    let instances = instances();
    let mut changed = Vec::new();
    for (engine, want) in ENGINES.into_iter().zip(SOLO) {
        let cfg = SearchConfig::default()
            .with_seed(7)
            .with_engines(vec![engine]);
        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        for (name, problem) in &instances {
            let out = solve(problem, &cfg).expect("solves");
            assert_eq!(out.per_engine.len(), 1, "{engine:?} on {name}");
            assert_eq!(out.per_engine[0].engine, engine, "{name}");
            assert!(out.skipped_engines.is_empty(), "{engine:?} on {name}");
            if out.upper != u32::MAX {
                let winner = out.winner.expect("a finite upper has a winner");
                assert_eq!(winner, engine, "{name}");
                assert_eq!(winner.name(), engine.name(), "{name}");
            }
            d.outcome(&out);
        }
        if d.0 != want {
            changed.push(format!("{engine:?}: {:#018x} (pinned {want:#018x})", d.0));
        }
    }
    assert!(
        changed.is_empty(),
        "{} changed engines:\n{}",
        changed.len(),
        changed.join("\n")
    );
}
