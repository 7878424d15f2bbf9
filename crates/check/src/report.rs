//! Structured validity reports: *which* condition failed, where, and why.
//!
//! Engine-side validators (`TreeDecomposition::validate`,
//! `GeneralizedHypertreeDecomposition::validate`) stop at the first
//! violation and return a single error. The oracle instead accumulates
//! **every** violation into a [`CheckReport`], each tagged with the
//! decomposition [`Condition`] it breaks, so a failing run tells the whole
//! story at once — and so harnesses can assert on the exact condition a
//! deliberate mutation should trip.

use htd_core::json::Json;

/// A decomposition condition (or harness invariant) that can be violated.
///
/// The first block mirrors the thesis definitions: conditions 1–2 are the
/// tree decomposition conditions (Definition 11), condition 3 is the GHD
/// cover condition (Definition 13), and the descendant condition is
/// condition 4 of Gottlob, Leone & Scarcello's hypertree decompositions.
/// The second block names the cross-engine invariants of the differential
/// and metamorphic harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Condition {
    /// The parent pointers do not form a single rooted tree.
    TreeShape,
    /// A bag (or λ label) references an out-of-range vertex or edge id.
    IdRange,
    /// Some vertex of the instance appears in no bag (Definition 11,
    /// condition 1: `⋃ χ(p) = V`).
    VertexCoverage,
    /// Some hyperedge is contained in no bag (Definition 11, condition 1).
    EdgeCoverage,
    /// The bags containing some vertex do not induce a connected subtree
    /// (Definition 11, condition 2 — the running-intersection property).
    Connectedness,
    /// `χ(p) ⊄ var(λ(p))` for some node (Definition 13, condition 3).
    BagCover,
    /// `var(λ(p)) ∩ χ(T_p) ⊄ χ(p)` for some node (condition 4 of
    /// hypertree decompositions).
    Descendant,
    /// The claimed width does not match the width recomputed from the
    /// decomposition itself.
    ClaimedWidth,

    /// A solver reported `lower > upper`.
    BoundsOrder,
    /// Two engines both claimed exactness but disagree on the width, or an
    /// engine's interval excludes a width another engine proved exact.
    ExactDisagreement,
    /// A witness ordering does not achieve the claimed upper bound, or is
    /// not a permutation of the vertices.
    WitnessWidth,
    /// An `Outcome` is internally inconsistent (exact without a closed
    /// gap, a winner without an upper bound, best-bound time before
    /// first-bound time, …).
    OutcomeConsistency,
    /// A metamorphic invariant failed (relabeling changed a width,
    /// monotonicity under deletion broke, padding changed a width, or a
    /// cross-metric inequality such as `ghw ≤ hw` reversed).
    Metamorphic,
    /// The query-answering pipeline disagreed with the brute-force answer
    /// oracle (wrong boolean verdict, wrong count, or wrong tuple set).
    Answers,
}

impl Condition {
    /// Stable snake_case name used in rendered reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Condition::TreeShape => "tree_shape",
            Condition::IdRange => "id_range",
            Condition::VertexCoverage => "vertex_coverage",
            Condition::EdgeCoverage => "edge_coverage",
            Condition::Connectedness => "connectedness",
            Condition::BagCover => "bag_cover",
            Condition::Descendant => "descendant",
            Condition::ClaimedWidth => "claimed_width",
            Condition::BoundsOrder => "bounds_order",
            Condition::ExactDisagreement => "exact_disagreement",
            Condition::WitnessWidth => "witness_width",
            Condition::OutcomeConsistency => "outcome_consistency",
            Condition::Metamorphic => "metamorphic",
            Condition::Answers => "answers",
        }
    }
}

impl std::fmt::Display for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One violated condition with a human-readable locus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The condition violated.
    pub condition: Condition,
    /// What exactly went wrong (vertex/edge/node ids, widths, …).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.condition, self.detail)
    }
}

/// The oracle's verdict on one subject: every violation found, or none.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// What was checked (instance/decomposition description).
    pub subject: String,
    /// All violations found, in check order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// An empty (so-far-valid) report for `subject`.
    pub fn new(subject: impl Into<String>) -> CheckReport {
        CheckReport {
            subject: subject.into(),
            violations: Vec::new(),
        }
    }

    /// Records a violation.
    pub fn push(&mut self, condition: Condition, detail: impl Into<String>) {
        self.violations.push(Violation {
            condition,
            detail: detail.into(),
        });
    }

    /// Absorbs another report's violations, prefixing their details with
    /// the sub-report's subject.
    pub fn absorb(&mut self, other: CheckReport) {
        for v in other.violations {
            self.violations.push(Violation {
                condition: v.condition,
                detail: if other.subject.is_empty() {
                    v.detail
                } else {
                    format!("{}: {}", other.subject, v.detail)
                },
            });
        }
    }

    /// `true` iff no violation was found.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one specific condition.
    pub fn of(&self, condition: Condition) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.condition == condition)
            .collect()
    }

    /// The report as JSON:
    /// `{"subject":..,"valid":..,"violations":[{"condition":..,"detail":..}]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("subject".into(), Json::Str(self.subject.clone())),
            ("valid".into(), Json::Bool(self.is_valid())),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("condition".into(), Json::Str(v.condition.name().into())),
                                ("detail".into(), Json::Str(v.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            return write!(f, "{}: valid", self.subject);
        }
        writeln!(
            f,
            "{}: {} violation(s)",
            self.subject,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_renders() {
        let mut r = CheckReport::new("td of x.hg");
        assert!(r.is_valid());
        r.push(Condition::EdgeCoverage, "edge 3 uncovered");
        r.push(Condition::Connectedness, "vertex 1 split");
        assert!(!r.is_valid());
        assert_eq!(r.of(Condition::EdgeCoverage).len(), 1);
        let text = r.to_string();
        assert!(text.contains("edge_coverage"));
        assert!(text.contains("connectedness"));
        let json = r.to_json().to_string();
        assert!(json.contains("\"valid\":false"));
    }
}
