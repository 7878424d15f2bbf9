//! The relational algebra underneath the decomposition-guided solvers.
//!
//! A [`Relation`] is a bag of tuples over named variables (columns),
//! stored row-major in one buffer: a tuple is a slice of it, and no
//! operation allocates per tuple. Natural join and semijoin are
//! hash-based: gather the shared columns of one side into one key buffer,
//! build a hash table keyed by borrowed slices of it, and probe with the
//! other side's keys gathered into one scratch slice — the standard
//! equi-join plan of any query engine, which is exactly what Acyclic
//! Solving's semijoin program needs. Rows that share a key are chained
//! in ascending order, so every output keeps the order a nested loop
//! would give.
//!
//! The tables hash with std's `RandomState`: relation values come from
//! queries sent over the wire, and a fixed hasher would let a sender pick
//! values that all collide.

use std::collections::{HashMap, HashSet};

use crate::model::{Value, VarId};

/// A relation with a variable schema, its tuples stored row-major.
///
/// Row `i` is `data[i * arity..(i + 1) * arity]` with `arity =
/// vars.len()`. The row count is kept apart from the buffer so that the
/// unit relation (no columns, one empty row) differs from the empty
/// relation (no rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    /// The schema: distinct variables, one per column.
    pub vars: Vec<VarId>,
    data: Vec<Value>,
    len: usize,
}

/// The rows of a relation grouped by their values in some columns: the
/// first row of each key, and `next` chaining the rows of one key in
/// ascending order. Keys are borrowed slices of one gathered buffer (see
/// [`Relation::keys`]). Empty keys are not hashed (std's hasher takes
/// several times longer on an empty slice than on a short one): every
/// row then has the one key.
pub(crate) struct Index<'k> {
    first: HashMap<&'k [Value], usize>,
    next: Vec<usize>,
    /// With empty keys, the first row (`END` if there is none).
    all: Option<usize>,
}

const END: usize = usize::MAX;

/// Key `i` of a buffer of `k`-value keys.
pub(crate) fn key_at(keys: &[Value], k: usize, i: usize) -> &[Value] {
    &keys[i * k..(i + 1) * k]
}

impl<'k> Index<'k> {
    /// Indexes the `n` keys of `keys`, each `k` values long.
    pub(crate) fn new(keys: &'k [Value], k: usize, n: usize) -> Self {
        if k == 0 {
            return Index {
                first: HashMap::new(),
                next: (1..n).chain([END]).collect(),
                all: Some(if n == 0 { END } else { 0 }),
            };
        }
        let mut first = HashMap::with_capacity(n);
        let mut next = vec![END; n];
        // last row first, so each chain ends up ascending
        for i in (0..n).rev() {
            let head = first.entry(key_at(keys, k, i)).or_insert(END);
            next[i] = *head;
            *head = i;
        }
        Index {
            first,
            next,
            all: None,
        }
    }

    /// The rows whose key is `key`, ascending.
    pub(crate) fn rows<'a>(&'a self, key: &[Value]) -> impl Iterator<Item = usize> + 'a {
        let head = match self.all {
            Some(head) => head,
            None => self.first.get(key).copied().unwrap_or(END),
        };
        std::iter::successors((head != END).then_some(head), |&i| {
            (self.next[i] != END).then_some(self.next[i])
        })
    }
}

impl Relation {
    /// Creates a relation from its tuples, debug-checking arity.
    pub fn new<T: AsRef<[Value]>>(vars: Vec<VarId>, tuples: impl IntoIterator<Item = T>) -> Self {
        let tuples = tuples.into_iter();
        let mut rel = Relation::empty(vars);
        rel.data.reserve(tuples.size_hint().0 * rel.vars.len());
        for t in tuples {
            rel.push(t.as_ref());
        }
        rel
    }

    /// The relation over `vars` with no tuples.
    fn empty(vars: Vec<VarId>) -> Self {
        Relation {
            vars,
            data: Vec::new(),
            len: 0,
        }
    }

    /// The relation over no variables containing the empty tuple — the
    /// join identity.
    pub fn unit() -> Self {
        Relation {
            vars: vec![],
            data: vec![],
            len: 1,
        }
    }

    fn push(&mut self, t: &[Value]) {
        debug_assert_eq!(t.len(), self.vars.len());
        self.data.extend_from_slice(t);
        self.len += 1;
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the relation has no tuples (the *empty* relation, not
    /// the unit relation).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple `i`, one value per column.
    pub fn row(&self, i: usize) -> &[Value] {
        key_at(&self.data, self.vars.len(), i)
    }

    /// The tuples in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Column index of `v`, if present.
    pub fn col(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// The shared columns with `other`: my columns, and theirs in the
    /// same order.
    fn shared_cols(&self, other: &Relation) -> (Vec<usize>, Vec<usize>) {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| other.col(v).map(|j| (i, j)))
            .unzip()
    }

    /// Every row's values in `cols`, one key after another.
    pub(crate) fn keys(&self, cols: &[usize]) -> Vec<Value> {
        let mut keys = Vec::with_capacity(self.len * cols.len());
        for t in self.rows() {
            keys.extend(cols.iter().map(|&c| t[c]));
        }
        keys
    }

    /// Natural join (hash join): tuples agreeing on all shared variables,
    /// extended with the other side's private columns, in the order of my
    /// tuples and then of theirs. With no shared variables this is the
    /// cross product.
    ///
    /// ```
    /// use htd_csp::Relation;
    /// let a = Relation::new(vec![0, 1], [[1, 2], [3, 4]]);
    /// let b = Relation::new(vec![1, 2], [[2, 9]]);
    /// let j = a.join(&b);
    /// assert_eq!(j.vars, vec![0, 1, 2]);
    /// assert_eq!(j.len(), 1);
    /// assert_eq!(j.row(0), [1, 2, 9]);
    /// ```
    pub fn join(&self, other: &Relation) -> Relation {
        let (mine, theirs) = self.shared_cols(other);
        let private: Vec<usize> = (0..other.vars.len())
            .filter(|j| !theirs.contains(j))
            .collect();
        let keys = other.keys(&theirs);
        let index = Index::new(&keys, theirs.len(), other.len);
        let mut vars = self.vars.clone();
        vars.extend(private.iter().map(|&j| other.vars[j]));
        let mut out = Relation::empty(vars);
        let mut key = Vec::with_capacity(mine.len());
        for t in self.rows() {
            key.clear();
            key.extend(mine.iter().map(|&i| t[i]));
            for m in index.rows(&key) {
                let u = other.row(m);
                out.data.extend_from_slice(t);
                out.data.extend(private.iter().map(|&j| u[j]));
                out.len += 1;
            }
        }
        out
    }

    /// Semijoin `self ⋉ other`: keeps my tuples with at least one partner
    /// in `other` on the shared variables. With no shared variables this
    /// keeps everything iff `other` is non-empty.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let (mine, theirs) = self.shared_cols(other);
        if mine.is_empty() {
            return if other.is_empty() {
                Relation::empty(self.vars.clone())
            } else {
                self.clone()
            };
        }
        let keys = other.keys(&theirs);
        let k = theirs.len();
        let partners: HashSet<&[Value]> = (0..other.len).map(|i| key_at(&keys, k, i)).collect();
        let mut out = Relation::empty(self.vars.clone());
        out.data.reserve(self.data.len());
        let mut key = Vec::with_capacity(k);
        for t in self.rows() {
            key.clear();
            key.extend(mine.iter().map(|&i| t[i]));
            if partners.contains(&key[..]) {
                out.push(t);
            }
        }
        out
    }

    /// Projection to `keep` (deduplicating, first occurrences in order),
    /// in the column order given.
    pub fn project(&self, keep: &[VarId]) -> Relation {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| self.col(v).expect("projection variable must exist"))
            .collect();
        let mut out = Relation::empty(keep.to_vec());
        if cols.is_empty() {
            // every tuple projects onto the empty tuple
            out.len = self.len.min(1);
            return out;
        }
        let projected = self.keys(&cols);
        let mut seen = HashSet::with_capacity(self.len);
        out.data.reserve(projected.len());
        for i in 0..self.len {
            let t = key_at(&projected, cols.len(), i);
            if seen.insert(t) {
                out.push(t);
            }
        }
        out
    }

    /// The full relation over `vars` with the given uniform domain sizes:
    /// the cross product of the domains, the first variable varying
    /// slowest. Used by Join Tree Clustering for bag variables no
    /// assigned constraint mentions.
    ///
    /// # Panics
    ///
    /// If the relation has more values than a `usize` counts. The count
    /// is checked, never wrapped: a wrapped count would build a relation
    /// too small, and a query over it would report wrong answers.
    pub fn full(vars: &[VarId], domain_sizes: &[u32]) -> Relation {
        let sizes: Vec<Value> = vars.iter().map(|&v| domain_sizes[v as usize]).collect();
        let rows = sizes
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d as usize));
        let cells = rows.and_then(|n| n.checked_mul(vars.len()));
        let (Some(rows), Some(cells)) = (rows, cells) else {
            panic!("the full relation over {vars:?} has too many tuples to count");
        };
        let mut out = Relation::empty(vars.to_vec());
        out.data.reserve(cells);
        let mut t = vec![0; vars.len()];
        for _ in 0..rows {
            out.push(&t);
            // the odometer: bump the last digit, carrying leftwards
            for (x, &d) in t.iter_mut().zip(&sizes).rev() {
                *x += 1;
                if *x < d {
                    break;
                }
                *x = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn r(vars: &[u32], tuples: &[&[u32]]) -> Relation {
        Relation::new(vars.to_vec(), tuples)
    }

    fn tuples(rel: &Relation) -> Vec<Vec<Value>> {
        rel.rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn join_on_shared_variable() {
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1, 2], &[&[1, 5], &[0, 7]]);
        let j = a.join(&b);
        assert_eq!(j.vars, vec![0, 1, 2]);
        assert_eq!(
            tuples(&j),
            vec![vec![0, 1, 5], vec![1, 0, 7], vec![1, 1, 5]]
        );
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
        assert_eq!(j, a);
    }

    #[test]
    fn semijoin_filters() {
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1], &[&[1]]);
        let s = a.semijoin(&b);
        assert_eq!(tuples(&s), vec![vec![0, 1], vec![1, 1]]);
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
        assert_eq!(q.row(0), [1, 0]);
    }

    #[test]
    fn full_relation_cross_product() {
        let f = Relation::full(&[0, 1], &[2, 3]);
        assert_eq!(f.len(), 6);
        assert_eq!(f.row(4), [1, 1]);
        let empty_vars = Relation::full(&[], &[2]);
        assert_eq!(empty_vars, Relation::unit());
        assert!(Relation::full(&[0, 1], &[2, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "too many tuples to count")]
    fn full_relation_refuses_a_count_that_would_wrap() {
        // 2^64 tuples: a wrapping product reads 0, an empty relation
        Relation::full(&[0, 1, 2, 3], &[1 << 16; 4]);
    }

    #[test]
    fn unit_and_empty_relations_differ() {
        let unit = Relation::unit();
        let empty = r(&[], &[]);
        assert_eq!((unit.len(), empty.len()), (1, 0));
        assert_eq!(unit.row(0), [] as [Value; 0]);
        let a = r(&[0], &[&[3], &[4]]);
        assert_eq!(a.join(&unit), a);
        assert!(a.join(&empty).is_empty());
        assert_eq!(a.project(&[]), unit);
        assert_eq!(r(&[0], &[]).project(&[]), empty);
    }

    #[test]
    fn join_semijoin_consistency() {
        // a ⋉ b has the same tuples as π_vars(a)(a ⋈ b)
        let a = r(&[0, 1], &[&[0, 1], &[1, 0], &[1, 1]]);
        let b = r(&[1, 2], &[&[1, 5], &[0, 7]]);
        let lhs = a.semijoin(&b);
        let rhs = a.join(&b).project(&[0, 1]);
        let mut l = tuples(&lhs);
        let mut rr = tuples(&rhs);
        l.sort();
        rr.sort();
        assert_eq!(l, rr);
    }

    /// Nested-loop reference implementations over nested tuples: what the
    /// hash-based operations must return, row for row and in order.
    mod reference {
        use super::*;

        pub struct Rel {
            pub vars: Vec<VarId>,
            pub tuples: Vec<Vec<Value>>,
        }

        fn agree(a: &Rel, t: &[Value], b: &Rel, u: &[Value]) -> bool {
            a.vars
                .iter()
                .zip(t)
                .all(|(v, x)| b.vars.iter().zip(u).all(|(w, y)| v != w || x == y))
        }

        pub fn join(a: &Rel, b: &Rel) -> Rel {
            let private: Vec<usize> = (0..b.vars.len())
                .filter(|&j| !a.vars.contains(&b.vars[j]))
                .collect();
            let mut vars = a.vars.clone();
            vars.extend(private.iter().map(|&j| b.vars[j]));
            let mut tuples = Vec::new();
            for t in &a.tuples {
                for u in &b.tuples {
                    if agree(a, t, b, u) {
                        let mut out = t.clone();
                        out.extend(private.iter().map(|&j| u[j]));
                        tuples.push(out);
                    }
                }
            }
            Rel { vars, tuples }
        }

        pub fn semijoin(a: &Rel, b: &Rel) -> Rel {
            let tuples = a
                .tuples
                .iter()
                .filter(|t| b.tuples.iter().any(|u| agree(a, t, b, u)))
                .cloned()
                .collect();
            Rel {
                vars: a.vars.clone(),
                tuples,
            }
        }

        pub fn project(a: &Rel, keep: &[VarId]) -> Rel {
            let mut tuples: Vec<Vec<Value>> = Vec::new();
            for t in &a.tuples {
                let p: Vec<Value> = keep
                    .iter()
                    .map(|v| t[a.vars.iter().position(|w| w == v).unwrap()])
                    .collect();
                if !tuples.contains(&p) {
                    tuples.push(p);
                }
            }
            Rel {
                vars: keep.to_vec(),
                tuples,
            }
        }

        pub fn full(vars: &[VarId], domain_sizes: &[u32]) -> Rel {
            let mut tuples = vec![vec![]];
            for &v in vars {
                tuples = tuples
                    .iter()
                    .flat_map(|t: &Vec<Value>| {
                        (0..domain_sizes[v as usize]).map(move |x| {
                            let mut t = t.clone();
                            t.push(x);
                            t
                        })
                    })
                    .collect();
            }
            Rel {
                vars: vars.to_vec(),
                tuples,
            }
        }
    }

    use reference::Rel;

    fn same(got: &Relation, want: &Rel, what: &str) {
        assert_eq!(got.vars, want.vars, "{what}: schema");
        assert_eq!(tuples(got), want.tuples, "{what}: tuples");
    }

    /// A random relation of the given arity over variables `0..6`, with
    /// values below 3 so that rows repeat and keys collide.
    fn random(rng: &mut StdRng, arity: usize) -> (Relation, Rel) {
        let mut pool: Vec<VarId> = (0..6).collect();
        pool.shuffle(rng);
        let vars = pool[..arity].to_vec();
        let rows = rng.gen_range(0..9);
        let tuples: Vec<Vec<Value>> = (0..rows)
            .map(|_| (0..arity).map(|_| rng.gen_range(0..3)).collect())
            .collect();
        (Relation::new(vars.clone(), &tuples), Rel { vars, tuples })
    }

    /// `rel` over a permutation of its own schema (every column shared)
    /// or a fresh one (none shared).
    fn rename(rng: &mut StdRng, (rel, reference): &(Relation, Rel), all: bool) -> (Relation, Rel) {
        let mut order: Vec<usize> = (0..rel.vars.len()).collect();
        order.shuffle(rng);
        let vars: Vec<VarId> = order
            .iter()
            .map(|&c| rel.vars[c] + if all { 0 } else { 6 })
            .collect();
        let tuples: Vec<Vec<Value>> = reference
            .tuples
            .iter()
            .map(|t| order.iter().map(|&c| t[c]).collect())
            .collect();
        (Relation::new(vars.clone(), &tuples), Rel { vars, tuples })
    }

    #[test]
    fn operations_match_the_nested_loop_reference() {
        let mut rng = StdRng::seed_from_u64(0x5E1A_7105);
        let unit = (
            Relation::unit(),
            Rel {
                vars: vec![],
                tuples: vec![vec![]],
            },
        );
        let empty = (
            Relation::new::<&[Value]>(vec![], []),
            Rel {
                vars: vec![],
                tuples: vec![],
            },
        );
        for round in 0..400 {
            let a = random(&mut rng, round % 5);
            let arity = rng.gen_range(0..5);
            let others = [
                random(&mut rng, arity),
                rename(&mut rng, &a, true),
                rename(&mut rng, &a, false),
                // a with every row repeated
                {
                    let tuples: Vec<Vec<Value>> =
                        a.1.tuples
                            .iter()
                            .flat_map(|t| [t.clone(), t.clone()])
                            .collect();
                    (
                        Relation::new(a.0.vars.clone(), &tuples),
                        Rel {
                            vars: a.0.vars.clone(),
                            tuples,
                        },
                    )
                },
            ];
            for (i, b) in others.iter().chain([&unit, &empty]).enumerate() {
                for (x, y, side) in [(&a, b, "a, b"), (b, &a, "b, a")] {
                    let what = format!("round {round}, other {i}, {side}");
                    same(&x.0.join(&y.0), &reference::join(&x.1, &y.1), &what);
                    same(&x.0.semijoin(&y.0), &reference::semijoin(&x.1, &y.1), &what);
                }
            }
            let mut keep = a.0.vars.clone();
            keep.shuffle(&mut rng);
            keep.truncate(rng.gen_range(0..=keep.len()));
            let what = format!("round {round}: project onto {keep:?}");
            same(&a.0.project(&keep), &reference::project(&a.1, &keep), &what);
        }
        for vars in [&[][..], &[4], &[2, 0], &[1, 3, 0], &[5, 4, 3, 2]] {
            let sizes = [2, 3, 1, 2, 3, 2];
            same(
                &Relation::full(vars, &sizes),
                &reference::full(vars, &sizes),
                "full",
            );
        }
    }
}
