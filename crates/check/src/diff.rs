//! The differential harness: run several engines on the same instance and
//! cross-examine everything they claim.
//!
//! Exact engines must agree with each other exactly; heuristic arms must
//! bracket the exact value; every `Outcome` must be internally consistent
//! (`lower ≤ upper`, `exact ⇒` closed gap, winner attribution only with
//! an upper bound, first-bound time before best-bound time); and every
//! witness is re-derived into an actual decomposition and judged by the
//! independent [`oracle`](crate::oracle). Cross-metric inequalities
//! (`ghw ≤ hw`, `ghw ≤ tw + 1`) tie the two objective families together.

use std::time::Duration;

use htd_core::bucket::{ghd_via_elimination, vertex_elimination};
use htd_core::ordering::CoverStrategy;
use htd_hypergraph::{Graph, Hypergraph};
use htd_search::{dp_treewidth, solve, Engine, Objective, Outcome, Problem, SearchConfig};

use crate::oracle::{check_ghd, check_graph_td};
use crate::report::{CheckReport, Condition};

/// The Held–Karp DP arm runs for treewidth when the graph has at most this
/// many vertices (the DP is `O(2ⁿ·n)`).
const DP_LIMIT: u32 = 13;

/// Budgets and arms of a differential run.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Node budget per engine arm.
    pub max_nodes: u64,
    /// Optional wall-clock budget per arm.
    pub time_limit: Option<Duration>,
    /// Base RNG seed (each arm derives its own).
    pub seed: u64,
    /// Also run a 2-thread anytime-portfolio arm (heuristics + searches
    /// against one incumbent) and cross-check it.
    pub portfolio_arm: bool,
    /// Optional per-arm memory budget in bytes (docs/robustness.md). A
    /// starved arm degrades to its best-known bounds; the harness then
    /// treats its claims as bracketing-only, never as a truth anchor.
    pub memory_budget: Option<u64>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_nodes: 2_000_000,
            time_limit: None,
            seed: 1,
            portfolio_arm: true,
            memory_budget: None,
        }
    }
}

impl DiffConfig {
    pub(crate) fn search_config_for(&self, engines: Vec<Engine>, threads: usize) -> SearchConfig {
        let mut cfg = SearchConfig::default()
            .with_max_nodes(self.max_nodes)
            .with_seed(self.seed)
            .with_threads(threads)
            .with_engines(engines);
        if let Some(t) = self.time_limit {
            cfg = cfg.with_time_limit(t);
        }
        if let Some(bytes) = self.memory_budget {
            cfg = cfg.with_memory_budget(bytes);
        }
        cfg
    }
}

/// What one arm claimed, in the shape the cross-checks need.
#[derive(Clone, Debug)]
struct Claim {
    name: &'static str,
    lower: u32,
    upper: u32,
    exact: bool,
    /// A degraded arm (memory budget exhausted, worker quarantined) keeps
    /// sound bounds but forfeits authority: its interval must still
    /// bracket the truth, but it is never used as the truth anchor.
    degraded: bool,
}

/// Exact-vs-exact equality and interval-bracketing across all claims.
/// Degraded claims participate in bracketing only.
fn cross_check(report: &mut CheckReport, claims: &[Claim]) {
    let exacts: Vec<&Claim> = claims.iter().filter(|c| c.exact && !c.degraded).collect();
    for pair in exacts.windows(2) {
        if pair[0].upper != pair[1].upper {
            report.push(
                Condition::ExactDisagreement,
                format!(
                    "{} proved {} but {} proved {}",
                    pair[0].name, pair[0].upper, pair[1].name, pair[1].upper
                ),
            );
        }
    }
    if let Some(truth) = exacts.first() {
        for c in claims {
            if c.lower > truth.upper || (c.upper != u32::MAX && c.upper < truth.upper) {
                report.push(
                    Condition::ExactDisagreement,
                    format!(
                        "{} interval [{}, {}] excludes the exact width {} proved by {}",
                        c.name,
                        c.lower,
                        if c.upper == u32::MAX {
                            "∞".into()
                        } else {
                            c.upper.to_string()
                        },
                        truth.upper,
                        truth.name
                    ),
                );
            }
        }
    }
    for c in claims {
        if c.upper != u32::MAX && c.lower > c.upper {
            report.push(
                Condition::BoundsOrder,
                format!("{}: lower {} > upper {}", c.name, c.lower, c.upper),
            );
        }
    }
}

/// Checks one [`Outcome`] for internal consistency and oracle-verifies its
/// witness by rebuilding the decomposition the witness ordering induces.
///
/// The rebuild necessarily goes through the elimination machinery (that is
/// what an ordering witness *means*); the resulting decomposition is then
/// judged by the independent oracle, and its width compared against the
/// claimed upper bound. Exact set covers are used for the `ghw` rebuild,
/// so the rebuilt width can only undershoot the claim, never overshoot it
/// spuriously.
pub fn verify_outcome(problem: &Problem, outcome: &Outcome) -> CheckReport {
    let mut report = CheckReport::new(format!("outcome[{}]", outcome.objective.name()));
    if outcome.objective != problem.objective() {
        report.push(
            Condition::OutcomeConsistency,
            format!(
                "outcome objective {} for a {} problem",
                outcome.objective.name(),
                problem.objective().name()
            ),
        );
    }
    if outcome.upper == u32::MAX {
        if outcome.exact {
            report.push(
                Condition::OutcomeConsistency,
                "exact claimed without any upper bound".to_string(),
            );
        }
        if outcome.winner.is_some() {
            report.push(
                Condition::OutcomeConsistency,
                "winner attributed without any upper bound".to_string(),
            );
        }
    } else if outcome.lower > outcome.upper {
        report.push(
            Condition::BoundsOrder,
            format!("lower {} > upper {}", outcome.lower, outcome.upper),
        );
    }
    if outcome.exact && outcome.lower != outcome.upper {
        report.push(
            Condition::OutcomeConsistency,
            format!(
                "exact claimed with open gap [{}, {}]",
                outcome.lower, outcome.upper
            ),
        );
    }
    if let (Some(first), Some(best)) = (outcome.time_to_first_upper, outcome.time_to_best_upper) {
        if first > best {
            report.push(
                Condition::OutcomeConsistency,
                "first accepted upper bound recorded after the best one".to_string(),
            );
        }
    }

    let Some(witness) = &outcome.witness else {
        return report;
    };
    // the witness must be a permutation of the vertices
    let n = problem.graph().num_vertices();
    let mut seen = vec![false; n as usize];
    let mut permutation = witness.len() == n as usize;
    for &v in witness.as_slice() {
        if v >= n || std::mem::replace(&mut seen[v as usize], true) {
            permutation = false;
        }
    }
    if !permutation {
        report.push(
            Condition::WitnessWidth,
            format!("witness is not a permutation of 0..{n}"),
        );
        return report;
    }
    match outcome.objective {
        Objective::Treewidth => {
            let td = vertex_elimination(problem.graph(), witness);
            report.absorb(check_graph_td(problem.graph(), &td, None));
            if td.width() > outcome.upper {
                report.push(
                    Condition::WitnessWidth,
                    format!(
                        "witness ordering yields width {} > claimed upper {}",
                        td.width(),
                        outcome.upper
                    ),
                );
            }
        }
        Objective::GeneralizedHypertreeWidth => {
            let Some(h) = problem.hypergraph() else {
                report.push(
                    Condition::OutcomeConsistency,
                    "ghw outcome for a problem without a hypergraph".to_string(),
                );
                return report;
            };
            match ghd_via_elimination(h, witness, CoverStrategy::Exact) {
                None => report.push(
                    Condition::WitnessWidth,
                    "witness ordering yields no coverable GHD".to_string(),
                ),
                Some(ghd) => {
                    report.absorb(check_ghd(h, &ghd, None));
                    if ghd.width() > outcome.upper {
                        report.push(
                            Condition::WitnessWidth,
                            format!(
                                "witness ordering yields ghw {} > claimed upper {}",
                                ghd.width(),
                                outcome.upper
                            ),
                        );
                    }
                }
            }
        }
        // hw outcomes carry no ordering witness (their witness is the
        // decomposition tree inside det-k-decomp)
        Objective::HypertreeWidth => {}
    }
    report
}

/// Store re-verification entry point: judges an untrusted [`Outcome`]
/// loaded from a persistent certificate store against its freshly
/// rebuilt [`Problem`].
///
/// Strictly stronger than [`verify_outcome`]: disk bytes are not a
/// proof, so every claim must be *re-derivable* by the oracle before a
/// restarted server may serve it warm —
///
/// * an upper bound without an ordering witness is rejected (there is
///   nothing to re-derive the bound from);
/// * `hw` outcomes are rejected outright: their witness is the
///   decomposition tree inside det-k-decomp, which the outcome schema
///   does not carry, so an untrusted `hw` claim cannot be re-checked;
/// * everything [`verify_outcome`] checks (bounds order, exactness
///   bookkeeping, witness permutation, oracle-judged rebuild, claimed
///   width) applies unchanged.
///
/// A report with violations means the entry must be dropped and the
/// request recomputed — never served.
pub fn verify_store_entry(problem: &Problem, outcome: &Outcome) -> CheckReport {
    let mut report = verify_outcome(problem, outcome);
    report.subject = format!("store[{}]", outcome.objective.name());
    if outcome.objective == Objective::HypertreeWidth {
        report.push(
            Condition::OutcomeConsistency,
            "hw outcomes carry no re-derivable witness and are not admissible from an \
             untrusted store"
                .to_string(),
        );
        return report;
    }
    if outcome.upper != u32::MAX && outcome.witness.is_none() {
        report.push(
            Condition::WitnessWidth,
            format!(
                "stored upper bound {} carries no witness ordering to re-derive",
                outcome.upper
            ),
        );
    }
    report
}

fn run_arm(
    report: &mut CheckReport,
    claims: &mut Vec<Claim>,
    name: &'static str,
    problem: &Problem,
    cfg: SearchConfig,
) -> Option<Outcome> {
    match solve(problem, &cfg) {
        Ok(outcome) => {
            report.absorb(verify_outcome(problem, &outcome));
            claims.push(Claim {
                name,
                lower: outcome.lower,
                upper: outcome.upper,
                exact: outcome.exact,
                degraded: outcome.degraded,
            });
            Some(outcome)
        }
        Err(e) => {
            report.push(
                Condition::OutcomeConsistency,
                format!("{name}: solve failed: {e}"),
            );
            None
        }
    }
}

/// One single-engine arm per engine with [`Engine::differential_arm`],
/// so an engine added to the table is cross-examined without touching
/// this crate. Each arm gets two threads: a one-engine portfolio still
/// runs one worker, but engines with internal parallelism (balsep) use
/// the second slot for their own pool.
fn run_engine_arms(
    report: &mut CheckReport,
    claims: &mut Vec<Claim>,
    problem: &Problem,
    cfg: &DiffConfig,
) {
    for engine in Engine::ALL.into_iter().filter(|e| e.differential_arm()) {
        run_arm(
            report,
            claims,
            engine.name(),
            problem,
            cfg.search_config_for(vec![engine], 2),
        );
    }
}

/// Differential treewidth run: one arm per engine with a differential
/// arm (branch and bound, A*, balsep) vs the Held–Karp DP (small graphs),
/// plus a heuristic arm that must bracket the exact value and,
/// optionally, a 2-thread portfolio arm.
pub fn diff_tw(g: &Graph, cfg: &DiffConfig) -> CheckReport {
    let mut report = CheckReport::new(format!(
        "tw diff on {} vertices / {} edges",
        g.num_vertices(),
        g.num_edges()
    ));
    let problem = Problem::treewidth(g.clone());
    let mut claims = Vec::new();
    run_engine_arms(&mut report, &mut claims, &problem, cfg);
    if g.num_vertices() <= DP_LIMIT && g.num_vertices() > 0 {
        let w = dp_treewidth(g);
        claims.push(Claim {
            name: "dp_tw",
            lower: w,
            upper: w,
            exact: true,
            degraded: false,
        });
    }
    run_arm(
        &mut report,
        &mut claims,
        "heuristic",
        &problem,
        cfg.search_config_for(vec![Engine::Heuristic, Engine::LowerBound], 2),
    );
    if cfg.portfolio_arm {
        let mut pcfg = cfg.search_config_for(Engine::default_lineup(), 2);
        pcfg.engines = None;
        run_arm(&mut report, &mut claims, "portfolio", &problem, pcfg);
    }
    cross_check(&mut report, &claims);
    report
}

/// Differential ghw run: branch and bound vs A*, with det-k-decomp's
/// hypertree width and the primal treewidth tying in the cross-metric
/// inequalities `ghw ≤ hw ≤ tw + 1`.
pub fn diff_ghw(h: &Hypergraph, cfg: &DiffConfig) -> CheckReport {
    let mut report = CheckReport::new(format!(
        "ghw diff on {} vertices / {} edges",
        h.num_vertices(),
        h.num_edges()
    ));
    let problem = Problem::ghw(h.clone());
    let mut claims = Vec::new();
    run_engine_arms(&mut report, &mut claims, &problem, cfg);
    if cfg.portfolio_arm {
        let mut pcfg = cfg.search_config_for(Engine::default_lineup(), 2);
        pcfg.engines = None;
        run_arm(&mut report, &mut claims, "portfolio", &problem, pcfg);
    }
    cross_check(&mut report, &claims);

    let ghw_exact = claims
        .iter()
        .find(|c| c.exact && !c.degraded)
        .map(|c| c.upper);
    // det-k-decomp arm: hw is exact by construction and sandwiches ghw
    let mut hw_claims = Vec::new();
    let hw_problem = Problem::hw(h.clone());
    let hw_out = run_arm(
        &mut report,
        &mut hw_claims,
        "det_k",
        &hw_problem,
        cfg.search_config_for(vec![Engine::BranchBound], 1),
    );
    let hw_exact = hw_out
        .as_ref()
        .filter(|o| !o.degraded)
        .and_then(Outcome::exact_width);
    if let (Some(ghw), Some(hw)) = (ghw_exact, hw_exact) {
        if ghw > hw {
            report.push(
                Condition::Metamorphic,
                format!("ghw {ghw} > hw {hw} (must satisfy ghw ≤ hw)"),
            );
        }
    }
    // tw arm on the primal graph: hw ≤ tw + 1 whenever every vertex is
    // covered (each bag of size w+1 is coverable by at most w+1 edges)
    let tw_problem = Problem::treewidth(h.primal_graph());
    let mut tw_claims = Vec::new();
    let tw_out = run_arm(
        &mut report,
        &mut tw_claims,
        "bb_tw_primal",
        &tw_problem,
        cfg.search_config_for(vec![Engine::BranchBound], 1),
    );
    let tw_exact = tw_out
        .as_ref()
        .filter(|o| !o.degraded)
        .and_then(Outcome::exact_width);
    if let (Some(hw), Some(tw)) = (hw_exact, tw_exact) {
        if hw > tw + 1 {
            report.push(
                Condition::Metamorphic,
                format!("hw {hw} > tw {tw} + 1 (must satisfy hw ≤ tw + 1)"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::EliminationOrdering;
    use htd_hypergraph::gen;

    fn quick() -> DiffConfig {
        DiffConfig {
            portfolio_arm: false,
            ..DiffConfig::default()
        }
    }

    #[test]
    fn engines_agree_on_small_graphs() {
        for (name, g) in [
            ("grid3x3", gen::grid_graph(3, 3)),
            ("cycle7", gen::cycle_graph(7)),
            ("k5", gen::complete_graph(5)),
            ("gnp", gen::random_gnp(9, 0.4, 11)),
        ] {
            let r = diff_tw(&g, &quick());
            assert!(r.is_valid(), "{name}: {r}");
        }
    }

    #[test]
    fn engines_agree_on_small_hypergraphs() {
        for (name, h) in [
            (
                "thesis",
                Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]),
            ),
            ("clique5", gen::clique_hypergraph(5)),
            (
                "uniform",
                crate::shrink::compact_vertices(&gen::random_uniform(8, 5, 3, 3)),
            ),
        ] {
            let r = diff_ghw(&h, &quick());
            assert!(r.is_valid(), "{name}: {r}");
        }
    }

    #[test]
    fn portfolio_arm_is_cross_checked_too() {
        let g = gen::grid_graph(3, 3);
        let r = diff_tw(
            &g,
            &DiffConfig {
                portfolio_arm: true,
                ..DiffConfig::default()
            },
        );
        assert!(r.is_valid(), "{r}");
    }

    #[test]
    fn fabricated_outcome_is_rejected() {
        let g = gen::cycle_graph(5);
        let problem = Problem::treewidth(g.clone());
        let honest = solve(&problem, &SearchConfig::default()).unwrap();
        assert!(verify_outcome(&problem, &honest).is_valid());

        // claim a width below what the witness achieves
        let mut lied = honest.clone();
        lied.upper = 1;
        lied.lower = 1;
        let r = verify_outcome(&problem, &lied);
        assert!(!r.of(Condition::WitnessWidth).is_empty(), "{r}");

        // exactness with an open gap
        let mut gapped = honest.clone();
        gapped.lower = gapped.upper - 1;
        let r = verify_outcome(&problem, &gapped);
        assert!(!r.of(Condition::OutcomeConsistency).is_empty());

        // a witness that is not a permutation of the *instance's* vertices
        // (a valid shorter ordering, so construction itself succeeds)
        let mut mangled = honest;
        mangled.witness = Some(EliminationOrdering::new_unchecked(vec![0, 1, 2]));
        let r = verify_outcome(&problem, &mangled);
        assert!(!r.of(Condition::WitnessWidth).is_empty());
    }

    #[test]
    fn cross_check_flags_disagreement() {
        let mut report = CheckReport::new("synthetic");
        cross_check(
            &mut report,
            &[
                Claim {
                    name: "a",
                    lower: 3,
                    upper: 3,
                    exact: true,
                    degraded: false,
                },
                Claim {
                    name: "b",
                    lower: 4,
                    upper: 4,
                    exact: true,
                    degraded: false,
                },
            ],
        );
        assert!(!report.of(Condition::ExactDisagreement).is_empty());
    }

    #[test]
    fn degraded_claims_are_bracketing_only_never_truth_anchors() {
        // two degraded "exact" claims disagree: with no clean anchor the
        // pairwise-equality check must not fire — a starved arm's width
        // is only the width it happened to reach
        let mut report = CheckReport::new("synthetic");
        let degraded_exact = |name, w| Claim {
            name,
            lower: w,
            upper: w,
            exact: true,
            degraded: true,
        };
        cross_check(
            &mut report,
            &[degraded_exact("a", 3), degraded_exact("b", 4)],
        );
        assert!(report.is_valid(), "{report}");

        // with a clean anchor, a degraded interval must still bracket it
        let mut report = CheckReport::new("synthetic");
        cross_check(
            &mut report,
            &[
                Claim {
                    name: "truth",
                    lower: 3,
                    upper: 3,
                    exact: true,
                    degraded: false,
                },
                Claim {
                    name: "starved",
                    lower: 2,
                    upper: 7,
                    exact: false,
                    degraded: true,
                },
            ],
        );
        assert!(report.is_valid(), "{report}");
        let mut report = CheckReport::new("synthetic");
        cross_check(
            &mut report,
            &[
                Claim {
                    name: "truth",
                    lower: 3,
                    upper: 3,
                    exact: true,
                    degraded: false,
                },
                Claim {
                    name: "starved",
                    lower: 5,
                    upper: 7,
                    exact: false,
                    degraded: true,
                },
            ],
        );
        assert!(
            !report.of(Condition::ExactDisagreement).is_empty(),
            "a degraded interval excluding the exact width is still a bug"
        );
    }

    #[test]
    fn memory_starved_arms_degrade_but_still_cross_check() {
        // queen5 is small enough for exact branch and bound but too big
        // for A*'s open/closed sets under an 8 KiB budget
        let g = gen::queen_graph(5);
        let cfg = DiffConfig {
            memory_budget: Some(8 << 10),
            portfolio_arm: false,
            ..DiffConfig::default()
        };
        // sanity: the budget really is tight enough to degrade an arm
        let out = solve(
            &Problem::treewidth(g.clone()),
            &cfg.search_config_for(vec![Engine::AStar], 1),
        )
        .unwrap();
        assert!(out.degraded, "8 KiB must starve the A* open/closed sets");
        assert!(!out.exact);
        // the harness accepts the degraded arm's bounds as bracketing-only
        let r = diff_tw(&g, &cfg);
        assert!(r.is_valid(), "{r}");
    }
}
