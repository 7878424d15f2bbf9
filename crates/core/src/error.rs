//! The workspace-wide error type.
//!
//! One small enum instead of per-crate `Result<_, String>`: every
//! variant has one nonzero code ([`HtdError::code`]), the CLI's exit code
//! and the service's wire `code`, and library callers can match on the
//! kind.

use std::fmt;

/// Errors surfaced by parsing, validation and solving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HtdError {
    /// Malformed instance text (DIMACS / PACE / hyperedge formats).
    Parse(String),
    /// Structurally valid input that violates a semantic requirement
    /// (e.g. a ghw instance with an uncovered vertex: no GHD exists).
    Invalid(String),
    /// A request the solver cannot serve (unknown engine, bad option).
    Unsupported(String),
    /// Underlying I/O failure, stringified (keeps the enum `Clone + Eq`).
    Io(String),
    /// A resource governor refused the work upfront: the request cannot
    /// run within its memory budget (e.g. a Held–Karp DP whose table
    /// estimate exceeds `SearchConfig::memory_budget`). Distinct from an
    /// anytime result truncated mid-run, which still returns an
    /// `Outcome` marked degraded.
    ResourceExhausted(String),
}

impl HtdError {
    /// The variant's code: 2 parse, 3 invalid, 4 unsupported, 5 I/O,
    /// 6 resource exhausted. The CLI exits with it and the service sends
    /// it as an error response's `code`.
    pub fn code(&self) -> i32 {
        match self {
            HtdError::Parse(_) => 2,
            HtdError::Invalid(_) => 3,
            HtdError::Unsupported(_) => 4,
            HtdError::Io(_) => 5,
            HtdError::ResourceExhausted(_) => 6,
        }
    }

    /// The variant whose [`HtdError::code`] is `code`, carrying
    /// `message`; a code no variant has is [`HtdError::Io`].
    pub fn from_code(code: i64, message: String) -> HtdError {
        match code {
            2 => HtdError::Parse(message),
            3 => HtdError::Invalid(message),
            4 => HtdError::Unsupported(message),
            6 => HtdError::ResourceExhausted(message),
            _ => HtdError::Io(message),
        }
    }
}

impl fmt::Display for HtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtdError::Parse(m) => write!(f, "parse error: {m}"),
            HtdError::Invalid(m) => write!(f, "invalid instance: {m}"),
            HtdError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HtdError::Io(m) => write!(f, "io error: {m}"),
            HtdError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
        }
    }
}

impl std::error::Error for HtdError {}

impl From<std::io::Error> for HtdError {
    fn from(e: std::io::Error) -> Self {
        HtdError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_kind() {
        assert_eq!(
            HtdError::Parse("line 3".into()).to_string(),
            "parse error: line 3"
        );
        assert!(HtdError::Invalid("x".into())
            .to_string()
            .contains("invalid"));
        assert_eq!(
            HtdError::ResourceExhausted("needs 2 GiB".into()).to_string(),
            "resource exhausted: needs 2 GiB"
        );
    }

    #[test]
    fn codes_round_trip_every_variant() {
        let m = || "m".to_string();
        for (e, code) in [
            (HtdError::Parse(m()), 2),
            (HtdError::Invalid(m()), 3),
            (HtdError::Unsupported(m()), 4),
            (HtdError::Io(m()), 5),
            (HtdError::ResourceExhausted(m()), 6),
        ] {
            assert_eq!(e.code(), code);
            assert_eq!(HtdError::from_code(i64::from(code), m()), e);
        }
        assert_eq!(HtdError::from_code(0, m()), HtdError::Io(m()));
    }
}
