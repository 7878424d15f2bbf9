//! The join-tree evaluator: Join Tree Clustering plus Yannakakis's
//! semijoin passes (thesis §2.2.3 Fig. 2.4, §2.4 Fig. 2.9, after
//! Dechter's algorithm).
//!
//! Every way this crate solves, counts or enumerates a CSP through a
//! decomposition runs on one structure, [`NodeRelations`]:
//!
//! 1. **Placement.** Each constraint is enforced at chosen nodes. From a
//!    tree decomposition, [`place`] puts it at the first node whose bag
//!    contains its scope; from a complete generalized hypertree
//!    decomposition, `λ(p)` is the placement.
//! 2. **Node relations.** [`NodeRelations::build`] joins the constraints
//!    placed at a node, crosses in the full domain of every bag variable
//!    none of them mentions, and projects onto the bag. From a TD that is
//!    `O(d^{width+1})` tuples per node, which is the whole point of
//!    minimizing width; from a GHD it is a join of `|λ(p)| ≤ width`
//!    relations and never a domain cross product, which is why small `ghw`
//!    means fast solving.
//! 3. **Passes.** [`NodeRelations::reduce`] is the bottom-up semijoin pass;
//!    afterwards every tuple extends into its subtree, so the top-down walk
//!    [`NodeRelations::for_each`] enumerates with polynomial delay and its
//!    first solution is Acyclic Solving's greedy pick.
//!    [`NodeRelations::count`] is sum–product message passing, which needs
//!    no semijoin pass and materializes no joint relation.
//!
//! Variables in no bag are *free*: unconstrained, they take every value
//! of their domain in the walk and multiply the count by its size.

use std::collections::HashMap;

use htd_core::{GeneralizedHypertreeDecomposition, TreeDecomposition};
use htd_hypergraph::VertexSet;

use crate::model::{Csp, Value, VarId};
use crate::relation::{key_at, Index, Relation};

/// Places every constraint of `csp` at the first node of `td` whose bag
/// contains its scope; `placed[p]` lists the constraints of node `p`.
///
/// Panics if no bag contains some scope, that is, if `td` is not a tree
/// decomposition of the CSP's constraint hypergraph.
pub fn place(csp: &Csp, td: &TreeDecomposition) -> Vec<Vec<usize>> {
    let mut placed = vec![Vec::new(); td.num_nodes()];
    for (ci, c) in csp.constraints.iter().enumerate() {
        let scope = VertexSet::from_iter_with_capacity(csp.num_vars(), c.scope.iter().copied());
        let host = (0..td.num_nodes())
            .find(|&p| scope.is_subset(td.bag(p)))
            .expect("tree decomposition covers every constraint scope");
        placed[host].push(ci);
    }
    placed
}

/// Worst-case number of tuples [`NodeRelations::build`] materializes for
/// `placed`: per node, the product of the placed constraints' tuple counts
/// times the domain sizes of bag variables none of them mentions, summed
/// over nodes. Joins and projections only shrink relations, so this is an
/// upper bound: callers use it to *refuse* an evaluation whose relations
/// could blow a memory budget before materializing anything.
pub fn estimate(csp: &Csp, td: &TreeDecomposition, placed: &[Vec<usize>]) -> u128 {
    placed
        .iter()
        .enumerate()
        .map(|(p, here)| {
            let mut est: u128 = 1;
            let mut covered = VertexSet::new(csp.num_vars());
            for &ci in here {
                let c = &csp.constraints[ci];
                est = est.saturating_mul(c.tuples.len() as u128);
                for &v in &c.scope {
                    covered.insert(v);
                }
            }
            for v in td.bag(p).iter().filter(|&v| !covered.contains(v)) {
                est = est.saturating_mul(u128::from(csp.domain_sizes[v as usize].max(1)));
            }
            est
        })
        .fold(0, u128::saturating_add)
}

/// One relation per node of a join tree, over that node's bag, plus the
/// free variables: the input of every pass.
pub struct NodeRelations<'a> {
    csp: &'a Csp,
    tree: &'a TreeDecomposition,
    /// Nodes top-down (every node after its parent).
    order: Vec<usize>,
    rels: Vec<Relation>,
    /// `bound[p]`: the columns of node `p`'s relation whose variables a
    /// node before `p` in `order` already has.
    bound: Vec<Vec<usize>>,
    /// Variables in no bag, ascending.
    free: Vec<VarId>,
}

impl<'a> NodeRelations<'a> {
    /// Builds every node's relation from its placed constraints
    /// (`placed[p]` for node `p`): their join, crossed with the full domain
    /// of every bag variable none of them mentions, projected onto the bag.
    pub fn build(csp: &'a Csp, tree: &'a TreeDecomposition, placed: &[Vec<usize>]) -> Self {
        let _sp = htd_trace::span!("yannakakis.build");
        let rels: Vec<Relation> = placed
            .iter()
            .enumerate()
            .map(|(p, here)| {
                let bag: Vec<VarId> = tree.bag(p).to_vec();
                let mut placed = here.iter().map(|&ci| {
                    let c = &csp.constraints[ci];
                    Relation::new(c.scope.clone(), &c.tuples)
                });
                let Some(mut rel) = placed.next() else {
                    // nothing placed: the bag's domain product, already
                    // distinct and in bag order
                    return Relation::full(&bag, &csp.domain_sizes);
                };
                for r in placed {
                    rel = rel.join(&r);
                }
                let missing: Vec<VarId> = bag
                    .iter()
                    .copied()
                    .filter(|&v| rel.col(v).is_none())
                    .collect();
                if !missing.is_empty() {
                    rel = rel.join(&Relation::full(&missing, &csp.domain_sizes));
                }
                rel.project(&bag)
            })
            .collect();
        let order = tree.topological_order();
        let mut covered = vec![false; csp.num_vars() as usize];
        let mut bound = vec![Vec::new(); rels.len()];
        for &p in &order {
            for (i, &v) in rels[p].vars.iter().enumerate() {
                if std::mem::replace(&mut covered[v as usize], true) {
                    bound[p].push(i);
                }
            }
        }
        let free = (0..csp.num_vars())
            .filter(|&v| !covered[v as usize])
            .collect();
        NodeRelations {
            csp,
            tree,
            order,
            rels,
            bound,
            free,
        }
    }

    /// The node relations of a tree decomposition of the CSP's constraint
    /// hypergraph, with constraints placed by [`place`].
    pub fn of_td(csp: &'a Csp, td: &'a TreeDecomposition) -> Self {
        NodeRelations::build(csp, td, &place(csp, td))
    }

    /// The node relations of a *complete* generalized hypertree
    /// decomposition (see [`GeneralizedHypertreeDecomposition::complete`];
    /// edge `e` is constraint `e`): node `p` joins the constraints of `λ(p)`.
    pub fn of_ghd(csp: &'a Csp, ghd: &'a GeneralizedHypertreeDecomposition) -> Self {
        let placed: Vec<Vec<usize>> = (0..ghd.tree().num_nodes())
            .map(|p| ghd.lambda(p).iter().map(|&e| e as usize).collect())
            .collect();
        NodeRelations::build(csp, ghd.tree(), &placed)
    }

    /// The bottom-up semijoin pass: each parent keeps only the tuples that
    /// agree with some tuple of each child, children first. Afterwards
    /// every tuple extends to a solution of its subtree, so
    /// [`for_each`](Self::for_each) never dead-ends. Returns `false`, and
    /// stops, as soon as a relation is empty: the CSP has no solution.
    pub fn reduce(&mut self) -> bool {
        let _sp = htd_trace::span!("yannakakis.semijoin");
        for &p in self.order.iter().rev() {
            if self.rels[p].is_empty() {
                return false;
            }
            if let Some(q) = self.tree.parent(p) {
                self.rels[q] = self.rels[q].semijoin(&self.rels[p]);
            }
        }
        true
    }

    /// The top-down walk: calls `visit` with every solution, choosing
    /// tuples node by node in top-down order and each node's consistent
    /// tuples in relation order, then the free variables' values in
    /// ascending order. Stops when `visit` returns `false`; returns the
    /// number of solutions visited. Enumerates every solution with or
    /// without [`reduce`](Self::reduce); only after it is the delay
    /// between two solutions polynomial.
    pub fn for_each(&self, mut visit: impl FnMut(&[Value]) -> bool) -> u64 {
        let _sp = htd_trace::span!("yannakakis.enumerate");
        // each node's rows grouped by the values of its bound columns
        let keys: Vec<Vec<Value>> = self
            .order
            .iter()
            .map(|&p| self.rels[p].keys(&self.bound[p]))
            .collect();
        let index: Vec<Index> = self
            .order
            .iter()
            .zip(&keys)
            .map(|(&p, keys)| Index::new(keys, self.bound[p].len(), self.rels[p].len()))
            .collect();
        let mut walk = Walk {
            rels: self,
            index: &index,
            a: vec![0; self.csp.num_vars() as usize],
            key: Vec::new(),
            visited: 0,
        };
        walk.extend(0, &mut visit);
        walk.visited
    }

    /// The first solution of the walk after [`reduce`](Self::reduce) (the
    /// greedy top-down pick of Acyclic Solving: free variables take 0),
    /// checked by [`Csp::is_solution`]; `None` if there is none.
    pub fn solve(mut self) -> Option<Vec<Value>> {
        let mut first = None;
        if self.reduce() {
            self.for_each(|a| {
                first = Some(a.to_vec());
                false
            });
        }
        first.filter(|a| self.csp.is_solution(a))
    }

    /// The number of solutions by sum–product message passing, children
    /// first: a tuple's weight becomes the number of its extensions into
    /// its subtree. `None` when the count exceeds `u64::MAX`. Weights are
    /// `u128`s that saturate, so each is `min(exact, u128::MAX)` (a zero
    /// factor still gives zero) and the final conversion to `u64` fails
    /// exactly when the true count does not fit.
    pub fn count(&self) -> Option<u64> {
        let mut weights: Vec<Vec<u128>> = self.rels.iter().map(|r| vec![1; r.len()]).collect();
        let mut key = Vec::new();
        for &p in self.order.iter().rev() {
            let Some(q) = self.tree.parent(p) else {
                continue;
            };
            let (parent, child) = (&self.rels[q], &self.rels[p]);
            let (mine, theirs): (Vec<usize>, Vec<usize>) = (0..parent.vars.len())
                .filter_map(|i| child.col(parent.vars[i]).map(|j| (i, j)))
                .unzip();
            if mine.is_empty() {
                // one message: every parent tuple extends by the whole child
                let total = weights[p].iter().fold(0, |s: u128, &w| s.saturating_add(w));
                for w in &mut weights[q] {
                    *w = w.saturating_mul(total);
                }
                continue;
            }
            // message: shared values -> summed child weight; a tuple of
            // weight 0 adds nothing and keeps nothing, so neither side
            // hashes one
            let keys = child.keys(&theirs);
            let mut msg: HashMap<&[Value], u128> = HashMap::with_capacity(child.len());
            for (i, &w) in weights[p].iter().enumerate().filter(|&(_, &w)| w > 0) {
                let sum = msg.entry(key_at(&keys, theirs.len(), i)).or_insert(0);
                *sum = sum.saturating_add(w);
            }
            for (t, w) in parent.rows().zip(&mut weights[q]).filter(|(_, w)| **w > 0) {
                key.clear();
                key.extend(mine.iter().map(|&i| t[i]));
                *w = w.saturating_mul(msg.get(&key[..]).copied().unwrap_or(0));
            }
        }
        let in_tree = weights[self.tree.root()]
            .iter()
            .fold(0, |s: u128, &w| s.saturating_add(w));
        let total = self.free.iter().fold(in_tree, |n, &v| {
            n.saturating_mul(u128::from(self.csp.domain_sizes[v as usize]))
        });
        u64::try_from(total).ok()
    }
}

/// The state of one top-down walk.
struct Walk<'w, 'a> {
    rels: &'w NodeRelations<'a>,
    /// `index[d]`: the rows of node `order[d]` by their bound columns.
    index: &'w [Index<'w>],
    /// The assignment so far.
    a: Vec<Value>,
    /// Scratch for the bound values a node is probed with.
    key: Vec<Value>,
    visited: u64,
}

impl Walk<'_, '_> {
    /// Extends the assignment at `depth`: depths below `order.len()`
    /// choose a node's tuple among those that agree with the bound
    /// columns, in relation order; the next ones a free variable's value.
    /// Every depth overwrites the same variables, so nothing is undone on
    /// the way back. Returns `false` once `visit` has asked to stop.
    fn extend(&mut self, depth: usize, visit: &mut impl FnMut(&[Value]) -> bool) -> bool {
        let nr = self.rels;
        if let Some(&p) = nr.order.get(depth) {
            let rel = &nr.rels[p];
            self.key.clear();
            let a = &self.a;
            self.key
                .extend(nr.bound[p].iter().map(|&i| a[rel.vars[i] as usize]));
            for m in self.index[depth].rows(&self.key) {
                for (&v, &x) in rel.vars.iter().zip(rel.row(m)) {
                    self.a[v as usize] = x;
                }
                if !self.extend(depth + 1, visit) {
                    return false;
                }
            }
            true
        } else if let Some(&v) = nr.free.get(depth - nr.order.len()) {
            (0..nr.csp.domain_sizes[v as usize]).all(|x| {
                self.a[v as usize] = x;
                self.extend(depth + 1, visit)
            })
        } else {
            debug_assert!(nr.csp.is_solution(&self.a));
            self.visited += 1;
            visit(&self.a)
        }
    }
}

/// Solves `csp` from a tree decomposition of its constraint hypergraph
/// (Join Tree Clustering). Returns a complete assignment or `None` if
/// unsatisfiable.
///
/// Panics if `td` is not a valid decomposition of the CSP's hypergraph
/// (checked in debug builds only).
pub fn solve_with_td(csp: &Csp, td: &TreeDecomposition) -> Option<Vec<Value>> {
    debug_assert!(td.validate(&csp.hypergraph()).is_ok());
    NodeRelations::of_td(csp, td).solve()
}

/// Solves `csp` from a generalized hypertree decomposition of its
/// constraint hypergraph (edge `e` of the hypergraph = constraint `e`).
/// The decomposition is completed first (Lemma 2), so every constraint is
/// enforced. Returns `None` if unsatisfiable.
pub fn solve_with_ghd(csp: &Csp, ghd: &GeneralizedHypertreeDecomposition) -> Option<Vec<Value>> {
    let h = csp.hypergraph();
    debug_assert!(ghd.validate(&h).is_ok());
    let complete = ghd.complete(&h);
    NodeRelations::of_ghd(csp, &complete).solve()
}

/// Counts the complete consistent assignments of `csp` using a tree
/// decomposition of its constraint hypergraph. Variables outside every bag
/// (unconstrained) multiply the count by their domain size.
///
/// # Panics
///
/// If the count exceeds `u64::MAX`; [`NodeRelations::count`] returns
/// `None` instead.
///
/// ```
/// use htd_csp::{builders, count_solutions_td};
/// use htd_core::bucket::td_of_hypergraph;
/// use htd_core::ordering::EliminationOrdering;
/// // 4-queens has exactly two solutions
/// let csp = builders::n_queens(4);
/// let h = csp.hypergraph();
/// let td = td_of_hypergraph(&h, &EliminationOrdering::identity(4));
/// assert_eq!(count_solutions_td(&csp, &td), 2);
/// ```
pub fn count_solutions_td(csp: &Csp, td: &TreeDecomposition) -> u64 {
    debug_assert!(td.validate(&csp.hypergraph()).is_ok());
    NodeRelations::of_td(csp, td)
        .count()
        .expect("solution count exceeds u64::MAX")
}

/// Enumerates every complete consistent assignment of `csp` via `td`,
/// calling `visit` for each; returns the number of solutions visited
/// (stops early when `visit` returns `false`). Variables in no bag
/// iterate over their full domains.
pub fn for_each_solution_td(
    csp: &Csp,
    td: &TreeDecomposition,
    visit: impl FnMut(&[Value]) -> bool,
) -> u64 {
    debug_assert!(td.validate(&csp.hypergraph()).is_ok());
    let mut rels = NodeRelations::of_td(csp, td);
    if rels.reduce() {
        rels.for_each(visit)
    } else {
        0
    }
}

/// The node relations Join Tree Clustering builds from `td`.
pub fn node_relations(csp: &Csp, td: &TreeDecomposition) -> Vec<Relation> {
    NodeRelations::of_td(csp, td).rels
}

/// [`estimate`] for the placement [`place`] makes on `td`.
pub fn estimate_node_tuples(csp: &Csp, td: &TreeDecomposition) -> u128 {
    estimate(csp, td, &place(csp, td))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backtrack::count_all_solutions;
    use crate::builders;
    use crate::model::Constraint;
    use htd_core::bucket::{ghd_via_elimination, td_of_hypergraph};
    use htd_core::ordering::EliminationOrdering;
    use htd_core::CoverStrategy;
    use htd_hypergraph::gen;

    fn td_for(csp: &Csp) -> TreeDecomposition {
        let h = csp.hypergraph();
        td_of_hypergraph(&h, &EliminationOrdering::identity(h.num_vertices()))
    }

    fn ghd_for(csp: &Csp) -> GeneralizedHypertreeDecomposition {
        let h = csp.hypergraph();
        let order = EliminationOrdering::identity(h.num_vertices());
        ghd_via_elimination(&h, &order, CoverStrategy::Exact).expect("coverable")
    }

    /// A tree decomposition with the given bags (as variable lists).
    fn tree(n: u32, bags: &[&[u32]], parent: Vec<Option<usize>>) -> TreeDecomposition {
        let bags = bags
            .iter()
            .map(|b| VertexSet::from_iter_with_capacity(n, b.iter().copied()))
            .collect();
        TreeDecomposition::new(bags, parent).unwrap()
    }

    fn csp_of(domain: u32, n: u32, constraints: &[(&[u32], &[&[u32]])]) -> Csp {
        let mut csp = Csp::uniform(n, domain);
        for (i, &(scope, tuples)) in constraints.iter().enumerate() {
            let tuples = tuples.iter().map(|t| t.to_vec()).collect();
            csp.add_constraint(Constraint::new(format!("c{i}"), scope.to_vec(), tuples));
        }
        csp
    }

    fn all_solutions(rels: &NodeRelations) -> Vec<Vec<Value>> {
        let mut seen = Vec::new();
        rels.for_each(|a| {
            seen.push(a.to_vec());
            true
        });
        seen
    }

    /// Checks every mode on one CSP against backtracking, through `td`
    /// and, padded, through a complete GHD.
    fn check_modes(csp: &Csp, td: &TreeDecomposition, what: &str) {
        let expected = count_all_solutions(csp);
        assert_eq!(count_solutions_td(csp, td), expected, "{what}: count");
        let mut walked = NodeRelations::of_td(csp, td);
        let mut seen = if walked.reduce() {
            all_solutions(&walked)
        } else {
            Vec::new()
        };
        // the witness is the walk's first solution
        assert_eq!(
            solve_with_td(csp, td),
            seen.first().cloned(),
            "{what}: witness"
        );
        assert_eq!(seen.len() as u64, expected, "{what}: enumeration");
        assert!(seen.iter().all(|a| csp.is_solution(a)), "{what}");
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len() as u64, expected, "{what}: distinct");
        let padded = csp.pad_unconstrained();
        let ghd = ghd_for(&padded);
        assert_eq!(
            solve_with_ghd(&padded, &ghd).is_some(),
            expected > 0,
            "{what}: ghd"
        );
        let complete = ghd.complete(&padded.hypergraph());
        let mut via_ghd = NodeRelations::of_ghd(&padded, &complete);
        assert_eq!(via_ghd.count(), Some(expected), "{what}: ghd count");
        let n = if via_ghd.reduce() {
            via_ghd.for_each(|_| true)
        } else {
            0
        };
        assert_eq!(n, expected, "{what}: ghd enumeration");
    }

    #[test]
    fn classic_instances_agree_with_backtracking() {
        let tri = builders::graph_coloring(&gen::cycle_graph(3), 3);
        let k4 = builders::graph_coloring(&gen::complete_graph(4), 4);
        let k4_3 = builders::graph_coloring(&gen::complete_graph(4), 3);
        let unsat = builders::sat_to_csp(1, &[vec![1], vec![-1]]);
        // repeated scope variables: c(x0, x0) allowing (0, 1) and (1, 1)
        // means x0 = 1 with x1 free; the clause (x1 ∨ x1) means x1 = 1
        let repeated = crate::parse_csp("csp 2 2\ncon c 0 0 : 0 1 ; 1 1 ;\n").unwrap();
        let clause = builders::sat_to_csp(1, &[vec![1, 1]]);
        for (what, csp, want) in [
            ("c(x0, x0)", &repeated, Some(2)),
            ("x1 ∨ x1", &clause, Some(1)),
            ("triangle", &tri, Some(6)),
            ("K4", &k4, Some(24)),
            ("4-queens", &builders::n_queens(4), Some(2)),
            ("5-queens", &builders::n_queens(5), Some(10)),
            ("K4, 3 colours", &k4_3, Some(0)),
            ("x1 ∧ ¬x1", &unsat, Some(0)),
            ("Australia", &builders::australia_map_coloring(), Some(18)),
            ("Example 5", &builders::thesis_example_5(), None),
            ("Example 2", &builders::thesis_example_2_sat(), None),
        ] {
            if let Some(want) = want {
                assert_eq!(count_all_solutions(csp), want, "{what}");
            }
            check_modes(csp, &td_for(csp), what);
        }
    }

    #[test]
    fn random_csps_agree_with_backtracking() {
        for seed in 0..12u64 {
            let csp = builders::random_binary_csp(8, 3, 0.5, 0.35, seed);
            let td = td_for(&csp);
            check_modes(&csp, &td, &format!("seed {seed}"));
            let est = estimate_node_tuples(&csp, &td);
            let actual: u128 = node_relations(&csp, &td)
                .iter()
                .map(|r| r.len() as u128)
                .sum();
            assert!(
                actual <= est,
                "seed {seed}: {actual} tuples, estimated {est}"
            );
        }
    }

    #[test]
    fn join_trees_of_acyclic_instances() {
        // x0 != x1, x1 != x2 over {0,1} on a two-node chain: 2 solutions
        let neq: &[&[u32]] = &[&[0, 1], &[1, 0]];
        let chain = csp_of(2, 3, &[(&[0, 1], neq), (&[1, 2], neq)]);
        let td = tree(3, &[&[0, 1], &[1, 2]], vec![None, Some(0)]);
        let a = solve_with_td(&chain, &td).expect("satisfiable");
        assert!(a[0] != a[1] && a[1] != a[2]);
        assert_eq!(count_solutions_td(&chain, &td), 2);
        // x0 != x1 at the root, x0 == x1 (== x2) below it: no solution
        let contra = csp_of(
            2,
            3,
            &[(&[0, 1], neq), (&[0, 1, 2], &[&[0, 0, 0], &[1, 1, 1]])],
        );
        let td = tree(3, &[&[0, 1], &[0, 1, 2]], vec![None, Some(0)]);
        assert!(solve_with_td(&contra, &td).is_none());
        assert_eq!(for_each_solution_td(&contra, &td, |_| true), 0);
        // an empty relation
        let empty = csp_of(2, 1, &[(&[0], &[])]);
        let td = tree(1, &[&[0]], vec![None]);
        assert!(solve_with_td(&empty, &td).is_none());
        assert_eq!(count_solutions_td(&empty, &td), 0);
        // a star: the leaves force x0 = 1 through different paths, and the
        // witness takes each node's first consistent tuple top-down
        let star = csp_of(
            9,
            4,
            &[
                (&[0], &[&[0], &[1], &[2]]),
                (&[0, 1], &[&[1, 0]]),
                (&[0, 2], &[&[1, 5]]),
                (&[0, 3], &[&[1, 7], &[2, 8]]),
            ],
        );
        let td = tree(
            4,
            &[&[0], &[0, 1], &[0, 2], &[0, 3]],
            vec![None, Some(0), Some(0), Some(0)],
        );
        assert_eq!(solve_with_td(&star, &td), Some(vec![1, 0, 5, 7]));
        assert_eq!(count_solutions_td(&star, &td), 1);
    }

    #[test]
    fn free_variables_take_every_value() {
        // x2 is in no constraint; x0 == x1 over a domain of 4
        let csp = csp_of(4, 3, &[(&[0, 1], &[&[0, 0], &[1, 1]])]);
        // the trivial TD covers x2: its cross product sits in the node
        let trivial = TreeDecomposition::trivial(3);
        assert_eq!(count_solutions_td(&csp, &trivial), 2 * 4);
        let a = solve_with_td(&csp, &trivial).unwrap();
        assert_eq!(a, vec![0, 0, 0]);
        // a TD without x2: it is free, the witness gives it 0, the walk
        // gives it every value last, and the count multiplies by 4
        let td = tree(3, &[&[0, 1]], vec![None]);
        assert_eq!(solve_with_td(&csp, &td), Some(vec![0, 0, 0]));
        assert_eq!(count_solutions_td(&csp, &td), 2 * 4);
        let mut seen = Vec::new();
        for_each_solution_td(&csp, &td, |a| {
            seen.push(a.to_vec());
            true
        });
        assert_eq!(
            seen[..5],
            [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3], [1, 1, 0]]
        );
    }

    #[test]
    fn early_stop_respected() {
        let csp = builders::graph_coloring(&gen::cycle_graph(4), 3);
        let mut visited = 0;
        let n = for_each_solution_td(&csp, &td_for(&csp), |_| {
            visited += 1;
            visited < 3
        });
        assert_eq!((n, visited), (3, 3));
    }

    #[test]
    fn counts_above_u64_max_are_refused() {
        // 30 variables of domain 10, one constraint x0 == x1 == 0: 10^28
        let csp = csp_of(10, 30, &[(&[0, 1], &[&[0, 0]])]);
        let td = td_for(&csp);
        assert_eq!(NodeRelations::of_td(&csp, &td).count(), None);
        // 19 variables: exactly 10^17, no rounding
        let csp = csp_of(10, 19, &[(&[0, 1], &[&[0, 0]])]);
        let td = td_for(&csp);
        assert_eq!(NodeRelations::of_td(&csp, &td).count(), Some(10u64.pow(17)));
        // a huge factor times an empty relation is still exactly 0
        let csp = csp_of(10, 30, &[(&[0, 1], &[&[0, 0]]), (&[2], &[])]);
        let td = td_for(&csp);
        assert_eq!(NodeRelations::of_td(&csp, &td).count(), Some(0));
    }

    #[test]
    #[should_panic(expected = "exceeds u64::MAX")]
    fn count_solutions_td_panics_instead_of_wrapping() {
        let csp = csp_of(10, 30, &[(&[0, 1], &[&[0, 0]])]);
        count_solutions_td(&csp, &td_for(&csp));
    }
}
