//! Self-contained decomposition certificates.
//!
//! A certificate is one JSON document carrying the instance **and** the
//! decomposition claimed for it, so a third party can re-judge the claim
//! with nothing but the oracle:
//!
//! ```json
//! {"schema":1,
//!  "objective":"ghw",
//!  "num_vertices":6,
//!  "edges":[[0,1,2],[0,4,5],[2,3,4]],
//!  "claimed_width":2,
//!  "decomposition":{
//!    "bags":[[0,2,4],[0,1,2],[2,3,4],[0,4,5]],
//!    "parent":[null,0,0,0],
//!    "lambda":[[1,2],[0],[2],[1]]}}
//! ```
//!
//! `objective` selects the condition set (`tw` → tree decomposition,
//! `ghw` → GHD, `hw` → HD with the descendant condition); `lambda` is
//! required for `ghw`/`hw` and ignored for `tw`; `claimed_width` is
//! optional but, when present, is re-derived and compared. The instance
//! is stored structurally (numeric scopes) rather than as `.hg` text so
//! that bag indices are unambiguous — `.hg` re-parsing interns vertices
//! by first appearance, which would silently permute ids.
//!
//! Two optional members record resource governance (docs/robustness.md):
//! `"degraded": true` marks a producer that ran out of budget, so its
//! `claimed_width` is only the width of the shipped decomposition, not a
//! claim of optimality; `"budget": {"limit_bytes": N, "exhausted": B}`
//! records the memory budget the producer was governed by. Both are
//! absent in pre-resilience certificates and default to off.
//!
//! `htd decompose --format cert` emits certificates; `htd check FILE`
//! judges them and exits nonzero with the condition-level violation list
//! when tampered with.

use htd_core::error::HtdError;
use htd_core::ghd::GeneralizedHypertreeDecomposition;
use htd_core::json::Json;
use htd_core::tree_decomposition::TreeDecomposition;
use htd_hypergraph::io::check_size;
use htd_hypergraph::{Graph, Hypergraph};

use crate::oracle::{check_decomposition, Level, RawDecomposition};
use crate::report::CheckReport;

/// The memory budget a certificate's producer ran under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetBlock {
    /// The budget the producing solver was governed by, in bytes.
    pub limit_bytes: u64,
    /// Whether the budget was exhausted while producing the decomposition.
    pub exhausted: bool,
}

/// A parsed (or freshly built) certificate.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The condition set the decomposition is held to.
    pub level: Level,
    /// Number of instance vertices.
    pub num_vertices: u32,
    /// Hyperedge scopes (binary scopes for graph/`tw` certificates).
    pub edges: Vec<Vec<u32>>,
    /// Width claimed by the producer, if any.
    pub claimed_width: Option<u32>,
    /// Whether the producer degraded (budget exhaustion, quarantined
    /// worker): the decomposition is still checked in full, but the
    /// claimed width is bracketing-only, not a claim of optimality.
    pub degraded: bool,
    /// The memory budget the producer was governed by, if any.
    pub budget: Option<BudgetBlock>,
    /// The decomposition itself.
    pub decomposition: RawDecomposition,
}

impl Certificate {
    /// A `tw` certificate for a tree decomposition of a graph.
    pub fn for_graph_td(g: &Graph, td: &TreeDecomposition) -> Certificate {
        Certificate {
            level: Level::Td,
            num_vertices: g.num_vertices(),
            edges: g.edges().map(|(u, v)| vec![u, v]).collect(),
            claimed_width: Some(td.width()),
            degraded: false,
            budget: None,
            decomposition: RawDecomposition::from_td(td),
        }
    }

    /// A `ghw` (or, at [`Level::Hd`], `hw`) certificate.
    pub fn for_ghd(
        h: &Hypergraph,
        ghd: &GeneralizedHypertreeDecomposition,
        level: Level,
    ) -> Certificate {
        Certificate {
            level,
            num_vertices: h.num_vertices(),
            edges: (0..h.num_edges()).map(|e| h.edge(e).to_vec()).collect(),
            claimed_width: Some(ghd.width()),
            degraded: false,
            budget: None,
            decomposition: RawDecomposition::from_ghd(ghd),
        }
    }

    /// Annotates the certificate with the producer's resource governance.
    pub fn with_budget(mut self, limit_bytes: u64, exhausted: bool, degraded: bool) -> Certificate {
        self.budget = Some(BudgetBlock {
            limit_bytes,
            exhausted,
        });
        self.degraded = degraded;
        self
    }

    /// Judges the certificate with the oracle.
    pub fn check(&self) -> CheckReport {
        check_decomposition(
            self.num_vertices,
            &self.edges,
            &self.decomposition,
            self.level,
            self.claimed_width,
        )
    }

    /// The objective name the level corresponds to (`tw`/`ghw`/`hw`).
    pub fn objective_name(&self) -> &'static str {
        match self.level {
            Level::Td => "tw",
            Level::Ghd => "ghw",
            Level::Hd => "hw",
        }
    }

    /// Serializes the certificate (the format in the module docs).
    pub fn to_json(&self) -> Json {
        let ids = |ids: &[u32]| Json::Arr(ids.iter().map(|&v| Json::Num(v as f64)).collect());
        let mut decomposition = vec![
            (
                "bags".into(),
                Json::Arr(self.decomposition.bags.iter().map(|b| ids(b)).collect()),
            ),
            (
                "parent".into(),
                Json::Arr(
                    self.decomposition
                        .parent
                        .iter()
                        .map(|p| match p {
                            None => Json::Null,
                            Some(q) => Json::Num(*q as f64),
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(lambda) = &self.decomposition.lambda {
            decomposition.push((
                "lambda".into(),
                Json::Arr(lambda.iter().map(|l| ids(l)).collect()),
            ));
        }
        let mut members = vec![
            ("schema".into(), Json::Num(1.0)),
            ("objective".into(), Json::Str(self.objective_name().into())),
            ("num_vertices".into(), Json::Num(self.num_vertices as f64)),
            (
                "edges".into(),
                Json::Arr(self.edges.iter().map(|e| ids(e)).collect()),
            ),
        ];
        if let Some(w) = self.claimed_width {
            members.push(("claimed_width".into(), Json::Num(w as f64)));
        }
        if self.degraded {
            members.push(("degraded".into(), Json::Bool(true)));
        }
        if let Some(b) = &self.budget {
            members.push((
                "budget".into(),
                Json::Obj(vec![
                    ("limit_bytes".into(), Json::Num(b.limit_bytes as f64)),
                    ("exhausted".into(), Json::Bool(b.exhausted)),
                ]),
            ));
        }
        members.push(("decomposition".into(), Json::Obj(decomposition)));
        Json::Obj(members)
    }

    /// Parses a certificate document. Structural problems (missing keys,
    /// wrong types, an instance over the parsers' size caps) are parse
    /// errors; *semantic* problems (a broken tree, an uncovered edge) are
    /// left for [`Certificate::check`] to report.
    pub fn from_json(doc: &Json) -> Result<Certificate, HtdError> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| HtdError::Parse(format!("certificate missing '{k}'")))
        };
        let level = match field("objective")?.as_str() {
            Some("tw") => Level::Td,
            Some("ghw") => Level::Ghd,
            Some("hw") => Level::Hd,
            other => {
                return Err(HtdError::Parse(format!(
                    "objective {other:?} (expected tw|ghw|hw)"
                )))
            }
        };
        let num_vertices = field("num_vertices")?
            .as_u32()
            .ok_or_else(|| HtdError::Parse("'num_vertices' is not a u32".into()))?;
        let id_list = |v: &Json, what: &str| -> Result<Vec<u32>, HtdError> {
            v.as_arr()
                .ok_or_else(|| HtdError::Parse(format!("{what} is not an array")))?
                .iter()
                .map(|x| {
                    x.as_u32()
                        .ok_or_else(|| HtdError::Parse(format!("{what} holds a non-u32")))
                })
                .collect()
        };
        let id_lists = |v: &Json, what: &str| -> Result<Vec<Vec<u32>>, HtdError> {
            v.as_arr()
                .ok_or_else(|| HtdError::Parse(format!("{what} is not an array")))?
                .iter()
                .map(|inner| id_list(inner, what))
                .collect()
        };
        let edges = id_lists(field("edges")?, "edges")?;
        // the oracle allocates per vertex: the instance parsers' caps apply
        check_size(u64::from(num_vertices), edges.len() as u64)
            .map_err(|e| HtdError::Parse(e.to_string()))?;
        let claimed_width = match doc.get("claimed_width") {
            None => None,
            Some(w) => Some(
                w.as_u32()
                    .ok_or_else(|| HtdError::Parse("'claimed_width' is not a u32".into()))?,
            ),
        };
        let d = field("decomposition")?;
        let bags = id_lists(
            d.get("bags")
                .ok_or_else(|| HtdError::Parse("decomposition missing 'bags'".into()))?,
            "bags",
        )?;
        let parent = d
            .get("parent")
            .ok_or_else(|| HtdError::Parse("decomposition missing 'parent'".into()))?
            .as_arr()
            .ok_or_else(|| HtdError::Parse("parent is not an array".into()))?
            .iter()
            .map(|p| match p {
                Json::Null => Ok(None),
                other => other
                    .as_u64()
                    .map(|q| Some(q as usize))
                    .ok_or_else(|| HtdError::Parse("parent holds a non-integer".into())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let lambda = match d.get("lambda") {
            None => None,
            Some(l) => Some(id_lists(l, "lambda")?),
        };
        // pre-resilience certificates carry neither member
        let degraded = matches!(doc.get("degraded"), Some(Json::Bool(true)));
        let budget =
            match doc.get("budget") {
                None => None,
                Some(b) => Some(BudgetBlock {
                    limit_bytes: b.get("limit_bytes").and_then(|v| v.as_u64()).ok_or_else(
                        || HtdError::Parse("budget missing numeric 'limit_bytes'".into()),
                    )?,
                    exhausted: matches!(b.get("exhausted"), Some(Json::Bool(true))),
                }),
            };
        Ok(Certificate {
            level,
            num_vertices,
            edges,
            claimed_width,
            degraded,
            budget,
            decomposition: RawDecomposition {
                bags,
                parent,
                lambda,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_hypergraph::VertexSet;

    fn thesis() -> (Hypergraph, GeneralizedHypertreeDecomposition) {
        let vs = |items: &[u32]| VertexSet::from_iter_with_capacity(6, items.iter().copied());
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let td = TreeDecomposition::new(
            vec![
                vs(&[0, 2, 4]),
                vs(&[0, 1, 2]),
                vs(&[2, 3, 4]),
                vs(&[0, 4, 5]),
            ],
            vec![None, Some(0), Some(0), Some(0)],
        )
        .unwrap();
        let ghd =
            GeneralizedHypertreeDecomposition::new(td, vec![vec![1, 2], vec![0], vec![2], vec![1]]);
        (h, ghd)
    }

    #[test]
    fn certificate_round_trips_and_checks() {
        let (h, ghd) = thesis();
        let cert = Certificate::for_ghd(&h, &ghd, Level::Ghd);
        assert!(cert.check().is_valid());
        let text = cert.to_json().to_string();
        let back = Certificate::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.num_vertices, 6);
        assert_eq!(back.claimed_width, Some(2));
        assert_eq!(back.decomposition, cert.decomposition);
        assert!(back.check().is_valid());
    }

    #[test]
    fn degraded_and_budget_annotations_round_trip_and_default_off() {
        let (h, ghd) = thesis();
        let cert = Certificate::for_ghd(&h, &ghd, Level::Ghd).with_budget(64 << 20, true, true);
        assert!(cert.check().is_valid(), "degradation never invalidates");
        let text = cert.to_json().to_string();
        let back = Certificate::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.degraded);
        assert_eq!(
            back.budget,
            Some(BudgetBlock {
                limit_bytes: 64 << 20,
                exhausted: true
            })
        );
        // pre-resilience documents (no such members) default to off
        let plain = Certificate::for_ghd(&h, &ghd, Level::Ghd);
        let back =
            Certificate::from_json(&Json::parse(&plain.to_json().to_string()).unwrap()).unwrap();
        assert!(!back.degraded);
        assert_eq!(back.budget, None);
        assert!(!plain.to_json().to_string().contains("degraded"));
    }

    #[test]
    fn tampered_certificate_fails_with_the_right_condition() {
        let (h, ghd) = thesis();
        let mut cert = Certificate::for_ghd(&h, &ghd, Level::Ghd);
        cert.decomposition.bags[1].retain(|&v| v != 1);
        let r = cert.check();
        assert!(!r.is_valid());
        assert!(!r.of(crate::report::Condition::EdgeCoverage).is_empty());
    }

    #[test]
    fn graph_certificate_checks_as_td() {
        let g = htd_hypergraph::gen::cycle_graph(5);
        let order = htd_core::EliminationOrdering::identity(5);
        let td = htd_core::bucket::vertex_elimination(&g, &order);
        let cert = Certificate::for_graph_td(&g, &td);
        assert_eq!(cert.objective_name(), "tw");
        assert!(cert.check().is_valid());
    }

    #[test]
    fn structural_garbage_is_a_parse_error() {
        for text in [
            "{}",
            "{\"objective\":\"nope\",\"num_vertices\":1,\"edges\":[],\"decomposition\":{}}",
            "{\"objective\":\"tw\",\"num_vertices\":1,\"edges\":[[0]],\"decomposition\":{\"bags\":[[0]]}}",
        ] {
            let doc = Json::parse(text).unwrap();
            assert!(Certificate::from_json(&doc).is_err(), "{text}");
        }
    }
}
