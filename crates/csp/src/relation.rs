//! The relational algebra underneath the decomposition-guided solvers.
//!
//! A [`Relation`] is a set of tuples over named variables (columns).
//! Natural join and semijoin are hash-based: build a hash table on the
//! shared columns of one side, probe with the other — the standard
//! equi-join plan of any query engine, which is exactly what Acyclic
//! Solving's semijoin program needs.

use std::collections::HashMap;

use crate::model::{Value, VarId};

/// A relation with a variable schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    /// The schema: distinct variables, one per column.
    pub vars: Vec<VarId>,
    /// The tuples; each has `vars.len()` values.
    pub tuples: Vec<Vec<Value>>,
}

impl Relation {
    /// Creates a relation, debug-checking arity.
    pub fn new(vars: Vec<VarId>, tuples: Vec<Vec<Value>>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.len() == vars.len()));
        Relation { vars, tuples }
    }

    /// The relation over no variables containing the empty tuple — the
    /// join identity.
    pub fn unit() -> Self {
        Relation {
            vars: vec![],
            tuples: vec![vec![]],
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples (the *empty* relation, not
    /// the unit relation).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Column index of `v`, if present.
    pub fn col(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// The shared columns with `other`: pairs `(my column, their column)`.
    fn shared_cols(&self, other: &Relation) -> Vec<(usize, usize)> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| other.col(v).map(|j| (i, j)))
            .collect()
    }

    fn key(tuple: &[Value], cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| tuple[c]).collect()
    }

    /// Natural join (hash join): tuples agreeing on all shared variables,
    /// extended with the other side's private columns. With no shared
    /// variables this is the cross product.
    ///
    /// ```
    /// use htd_csp::Relation;
    /// let a = Relation::new(vec![0, 1], vec![vec![1, 2], vec![3, 4]]);
    /// let b = Relation::new(vec![1, 2], vec![vec![2, 9]]);
    /// let j = a.join(&b);
    /// assert_eq!(j.vars, vec![0, 1, 2]);
    /// assert_eq!(j.tuples, vec![vec![1, 2, 9]]);
    /// ```
    pub fn join(&self, other: &Relation) -> Relation {
        let shared = self.shared_cols(other);
        let my_cols: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
        let their_cols: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();
        let their_private: Vec<usize> = (0..other.vars.len())
            .filter(|j| !their_cols.contains(j))
            .collect();
        // build on the smaller side in a full engine; here always on other
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (t_ix, t) in other.tuples.iter().enumerate() {
            table
                .entry(Self::key(t, &their_cols))
                .or_default()
                .push(t_ix);
        }
        let mut vars = self.vars.clone();
        vars.extend(their_private.iter().map(|&j| other.vars[j]));
        let mut tuples = Vec::new();
        for t in &self.tuples {
            if let Some(matches) = table.get(&Self::key(t, &my_cols)) {
                for &m in matches {
                    let mut out = t.clone();
                    out.extend(their_private.iter().map(|&j| other.tuples[m][j]));
                    tuples.push(out);
                }
            }
        }
        Relation { vars, tuples }
    }

    /// Semijoin `self ⋉ other`: keeps my tuples with at least one partner
    /// in `other` on the shared variables. With no shared variables this
    /// keeps everything iff `other` is non-empty.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let shared = self.shared_cols(other);
        if shared.is_empty() {
            return if other.is_empty() {
                Relation::new(self.vars.clone(), vec![])
            } else {
                self.clone()
            };
        }
        let my_cols: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
        let their_cols: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();
        let mut table: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        for t in &other.tuples {
            table.insert(Self::key(t, &their_cols));
        }
        let tuples = self
            .tuples
            .iter()
            .filter(|t| table.contains(&Self::key(t, &my_cols)))
            .cloned()
            .collect();
        Relation::new(self.vars.clone(), tuples)
    }

    /// Projection to `keep` (deduplicating), in the order given.
    pub fn project(&self, keep: &[VarId]) -> Relation {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| self.col(v).expect("projection variable must exist"))
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut tuples = Vec::new();
        for t in &self.tuples {
            let out = Self::key(t, &cols);
            if seen.insert(out.clone()) {
                tuples.push(out);
            }
        }
        Relation::new(keep.to_vec(), tuples)
    }

    /// The full relation over `vars` with the given uniform domain sizes:
    /// the cross product of the domains. Used by Join Tree Clustering for
    /// bag variables no assigned constraint mentions.
    pub fn full(vars: &[VarId], domain_sizes: &[u32]) -> Relation {
        let mut tuples: Vec<Vec<Value>> = vec![vec![]];
        for &v in vars {
            let d = domain_sizes[v as usize];
            let mut next = Vec::with_capacity(tuples.len() * d as usize);
            for t in &tuples {
                for val in 0..d {
                    let mut t2 = t.clone();
                    t2.push(val);
                    next.push(t2);
                }
            }
            tuples = next;
        }
        Relation::new(vars.to_vec(), tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vars: &[u32], tuples: &[&[u32]]) -> Relation {
        Relation::new(vars.to_vec(), tuples.iter().map(|t| t.to_vec()).collect())
    }

    #[test]
    fn join_on_shared_variable() {
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1, 2], &[&[1, 5], &[0, 7]]);
        let j = a.join(&b);
        assert_eq!(j.vars, vec![0, 1, 2]);
        let mut got = j.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec![0, 1, 5], vec![1, 0, 7], vec![1, 1, 5]]);
    }

    #[test]
    fn join_without_shared_is_cross_product() {
        let a = r(&[0], &[&[0], &[1]]);
        let b = r(&[1], &[&[5], &[6]]);
        assert_eq!(a.join(&b).len(), 4);
    }

    #[test]
    fn join_with_unit_is_identity() {
        let a = r(&[0, 1], &[&[0, 1], &[1, 0]]);
        let j = Relation::unit().join(&a);
        assert_eq!(j.len(), 2);
        assert_eq!(j.vars, vec![0, 1]);
    }

    #[test]
    fn semijoin_filters() {
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1], &[&[1]]);
        let s = a.semijoin(&b);
        let mut got = s.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec![0, 1], vec![1, 1]]);
        // empty other with no shared vars kills everything
        let empty = r(&[7], &[]);
        assert!(a.semijoin(&empty).is_empty());
        // non-empty other with no shared vars keeps everything
        let other = r(&[7], &[&[0]]);
        assert_eq!(a.semijoin(&other).len(), 3);
    }

    #[test]
    fn projection_deduplicates() {
        let a = r(&[0, 1], &[&[0, 1], &[0, 0], &[1, 1]]);
        let p = a.project(&[0]);
        assert_eq!(p.vars, vec![0]);
        assert_eq!(p.len(), 2);
        // reordering columns
        let q = a.project(&[1, 0]);
        assert!(q.tuples.contains(&vec![1, 0]));
    }

    #[test]
    fn full_relation_cross_product() {
        let f = Relation::full(&[0, 1], &[2, 3]);
        assert_eq!(f.len(), 6);
        let empty_vars = Relation::full(&[], &[2]);
        assert_eq!(empty_vars.len(), 1); // the unit relation
    }

    #[test]
    fn join_semijoin_consistency() {
        // a ⋉ b has the same tuples as π_vars(a)(a ⋈ b)
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1, 2], &[&[1, 5], &[0, 7]]);
        let lhs = a.semijoin(&b);
        let rhs = a.join(&b).project(&[0, 1]);
        let mut l = lhs.tuples.clone();
        let mut rr = rhs.tuples.clone();
        l.sort();
        rr.sort();
        assert_eq!(l, rr);
    }
}
