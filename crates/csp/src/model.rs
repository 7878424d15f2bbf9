//! CSP model: variables, domains, constraints (thesis Definition 5).

use htd_hypergraph::Hypergraph;

/// Index of a variable.
pub type VarId = u32;

/// A domain value, represented as an index into the variable's domain.
pub type Value = u32;

/// A constraint `⟨S, R⟩`: a scope of variables and the allowed tuples.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Human-readable name.
    pub name: String,
    /// The scope `S` (distinct variables: [`Constraint::new`] folds a
    /// repeated one).
    pub scope: Vec<VarId>,
    /// The allowed combinations `R`; each tuple has `scope.len()` values.
    pub tuples: Vec<Vec<Value>>,
}

impl Constraint {
    /// Creates a constraint, debug-checking tuple arity.
    ///
    /// A variable repeated in `scope` keeps its first column only, and
    /// only the tuples whose repeated positions agree survive,
    /// deduplicated: `c(x0, x0)` allowing `(0, 1)` and `(1, 1)` becomes
    /// `c(x0)` allowing `(1)`. This is exactly what
    /// [`satisfied_by`](Self::satisfied_by) accepts, so every solver sees
    /// the constraint the checker sees.
    pub fn new(name: impl Into<String>, scope: Vec<VarId>, tuples: Vec<Vec<Value>>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.len() == scope.len()));
        // first[i]: the first column holding column i's variable
        let first: Vec<usize> = scope
            .iter()
            .map(|v| scope.iter().position(|w| w == v).expect("v is in scope"))
            .collect();
        let keep: Vec<usize> = (0..scope.len()).filter(|&i| first[i] == i).collect();
        if keep.len() == scope.len() {
            return Constraint {
                name: name.into(),
                scope,
                tuples,
            };
        }
        let mut seen = std::collections::HashSet::new();
        let tuples = tuples
            .iter()
            .filter(|t| first.iter().enumerate().all(|(i, &f)| t[i] == t[f]))
            .map(|t| keep.iter().map(|&i| t[i]).collect::<Vec<Value>>())
            .filter(|t| seen.insert(t.clone()))
            .collect();
        Constraint {
            name: name.into(),
            scope: keep.iter().map(|&i| scope[i]).collect(),
            tuples,
        }
    }

    /// `true` iff the (total) assignment satisfies this constraint.
    pub fn satisfied_by(&self, assignment: &[Value]) -> bool {
        self.tuples.iter().any(|t| {
            self.scope
                .iter()
                .zip(t)
                .all(|(&v, &val)| assignment[v as usize] == val)
        })
    }
}

/// A constraint satisfaction problem `⟨X, D, C⟩`.
#[derive(Clone, Debug)]
pub struct Csp {
    /// Variable names.
    pub variables: Vec<String>,
    /// Domain size per variable (values are `0..domain_size`).
    pub domain_sizes: Vec<u32>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl Csp {
    /// Creates a CSP with uniform domain size.
    pub fn uniform(num_vars: u32, domain: u32) -> Self {
        Csp {
            variables: (0..num_vars).map(|v| format!("x{v}")).collect(),
            domain_sizes: vec![domain; num_vars as usize],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.variables.len() as u32
    }

    /// Adds a constraint and returns its index.
    pub fn add_constraint(&mut self, c: Constraint) -> usize {
        debug_assert!(c.scope.iter().all(|&v| v < self.num_vars()));
        self.constraints.push(c);
        self.constraints.len() - 1
    }

    /// The constraint hypergraph: one vertex per variable, one hyperedge
    /// per constraint scope (Definition 7).
    pub fn hypergraph(&self) -> Hypergraph {
        let edges = self.constraints.iter().map(|c| c.scope.clone()).collect();
        let mut h = Hypergraph::new(self.num_vars(), edges);
        h.set_vertex_names(self.variables.clone());
        h.set_edge_names(self.constraints.iter().map(|c| c.name.clone()).collect());
        h
    }

    /// Returns a copy with a full-domain unary constraint added for every
    /// variable appearing in no constraint. Solution-equivalent, but the
    /// constraint hypergraph then covers every vertex — a precondition for
    /// generalized hypertree decompositions (every `χ` must be coverable
    /// by `λ` edges).
    pub fn pad_unconstrained(&self) -> Csp {
        let mut out = self.clone();
        let mut covered = vec![false; self.variables.len()];
        for c in &self.constraints {
            for &v in &c.scope {
                covered[v as usize] = true;
            }
        }
        for (v, &cov) in covered.iter().enumerate() {
            if !cov {
                let tuples = (0..self.domain_sizes[v]).map(|val| vec![val]).collect();
                out.add_constraint(Constraint::new(
                    format!("dom_{}", self.variables[v]),
                    vec![v as u32],
                    tuples,
                ));
            }
        }
        out
    }

    /// Checks a complete assignment against every constraint.
    pub fn is_solution(&self, assignment: &[Value]) -> bool {
        assignment.len() == self.variables.len()
            && assignment
                .iter()
                .zip(&self.domain_sizes)
                .all(|(&v, &d)| v < d)
            && self.constraints.iter().all(|c| c.satisfied_by(assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_satisfaction_check() {
        let c = Constraint::new("neq", vec![0, 1], vec![vec![0, 1], vec![1, 0]]);
        assert!(c.satisfied_by(&[0, 1, 9]));
        assert!(c.satisfied_by(&[1, 0, 9]));
        assert!(!c.satisfied_by(&[0, 0, 9]));
    }

    #[test]
    fn repeated_scope_variables_fold_into_one_column() {
        let c = Constraint::new("c", vec![0, 0], vec![vec![0, 1], vec![1, 1]]);
        assert_eq!((c.scope, c.tuples), (vec![0], vec![vec![1]]));
        // x1 = x0 = x1: positions 0 and 2 must agree; duplicates collapse
        let t = vec![vec![0, 1, 0], vec![0, 1, 1], vec![1, 0, 1], vec![0, 1, 0]];
        let c = Constraint::new("d", vec![1, 0, 1], t);
        assert_eq!(
            (c.scope, c.tuples),
            (vec![1, 0], vec![vec![0, 1], vec![1, 0]])
        );
    }

    #[test]
    fn csp_solution_check() {
        let mut csp = Csp::uniform(3, 2);
        csp.add_constraint(Constraint::new(
            "c0",
            vec![0, 1],
            vec![vec![0, 1], vec![1, 0]],
        ));
        csp.add_constraint(Constraint::new(
            "c1",
            vec![1, 2],
            vec![vec![0, 1], vec![1, 0]],
        ));
        assert!(csp.is_solution(&[0, 1, 0]));
        assert!(!csp.is_solution(&[0, 0, 1]));
        assert!(!csp.is_solution(&[0, 1])); // incomplete
        assert!(!csp.is_solution(&[0, 1, 2])); // out of domain
    }

    #[test]
    fn hypergraph_reflects_scopes() {
        let mut csp = Csp::uniform(4, 2);
        csp.add_constraint(Constraint::new("t", vec![0, 1, 2], vec![]));
        csp.add_constraint(Constraint::new("b", vec![2, 3], vec![]));
        let h = csp.hypergraph();
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge(0).to_vec(), vec![0, 1, 2]);
        assert_eq!(h.edge_name(1), "b");
    }
}
