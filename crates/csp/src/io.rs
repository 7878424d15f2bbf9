//! A plain-text CSP format, so instances can travel through the CLI.
//!
//! ```text
//! % comment
//! csp 3 2            % 3 variables, default domain size 2
//! dom 2 4            % variable 2 has domain size 4
//! con neq 0 1 : 0 1 ; 1 0 ;
//! con t 1 2 : 0 0 ; 1 3 ;
//! ```
//!
//! `con <name> <vars…> : <tuple> ; <tuple> ; …` — each tuple lists one
//! value per scope variable. The `csp` header comes once and declares at
//! most [`MAX_VERTICES`] variables, the instance readers' vertex cap.

use std::fmt::Write as _;

use htd_hypergraph::io::MAX_VERTICES;

use crate::model::{Constraint, Csp};

/// Errors of the CSP parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CspParseError {
    /// Missing or malformed `csp <n> <d>` header.
    MissingHeader,
    /// A line could not be interpreted.
    BadLine(String),
    /// Variable/value out of declared range, or tuple arity mismatch.
    OutOfRange(String),
}

impl std::fmt::Display for CspParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CspParseError::MissingHeader => write!(f, "missing 'csp <n> <d>' header"),
            CspParseError::BadLine(l) => write!(f, "unparseable line {l:?}"),
            CspParseError::OutOfRange(x) => write!(f, "out of range: {x}"),
        }
    }
}

impl std::error::Error for CspParseError {}

/// Parses the text CSP format.
pub fn parse_csp(text: &str) -> Result<Csp, CspParseError> {
    let mut csp: Option<Csp> = None;
    for raw in text.lines() {
        let line = match raw.find('%') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("csp") => {
                // a second header would restart the CSP and drop every
                // constraint before it
                if csp.is_some() {
                    return Err(CspParseError::BadLine(line.into()));
                }
                let n: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CspParseError::MissingHeader)?;
                let d: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CspParseError::MissingHeader)?;
                // refused before a name is allocated per variable
                if n > MAX_VERTICES {
                    return Err(CspParseError::OutOfRange(format!(
                        "{n} variables, more than the {MAX_VERTICES} accepted"
                    )));
                }
                csp = Some(Csp::uniform(n, d));
            }
            Some("dom") => {
                let c = csp.as_mut().ok_or(CspParseError::MissingHeader)?;
                let v: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CspParseError::BadLine(line.into()))?;
                let d: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CspParseError::BadLine(line.into()))?;
                if v >= c.domain_sizes.len() {
                    return Err(CspParseError::OutOfRange(format!("variable {v}")));
                }
                c.domain_sizes[v] = d;
            }
            Some("con") => {
                let c = csp.as_mut().ok_or(CspParseError::MissingHeader)?;
                let name = it
                    .next()
                    .ok_or_else(|| CspParseError::BadLine(line.into()))?
                    .to_string();
                let rest: Vec<&str> = it.collect();
                let colon = rest
                    .iter()
                    .position(|&t| t == ":")
                    .ok_or_else(|| CspParseError::BadLine(line.into()))?;
                let scope: Vec<u32> = rest[..colon]
                    .iter()
                    .map(|t| t.parse().map_err(|_| CspParseError::BadLine(line.into())))
                    .collect::<Result<_, _>>()?;
                if scope.iter().any(|&v| v >= c.num_vars()) {
                    return Err(CspParseError::OutOfRange(format!("scope in {name}")));
                }
                let arity = scope.len();
                let mut tuples = Vec::new();
                let mut current: Vec<u32> = Vec::new();
                for &tok in &rest[colon + 1..] {
                    if tok == ";" {
                        if current.len() != arity {
                            return Err(CspParseError::OutOfRange(format!(
                                "tuple arity in {name}"
                            )));
                        }
                        tuples.push(std::mem::take(&mut current));
                    } else {
                        let val: u32 = tok
                            .parse()
                            .map_err(|_| CspParseError::BadLine(line.into()))?;
                        current.push(val);
                    }
                }
                if !current.is_empty() {
                    if current.len() != arity {
                        return Err(CspParseError::OutOfRange(format!("tuple arity in {name}")));
                    }
                    tuples.push(current);
                }
                for t in &tuples {
                    for (i, &val) in t.iter().enumerate() {
                        if val >= c.domain_sizes[scope[i] as usize] {
                            return Err(CspParseError::OutOfRange(format!(
                                "value {val} for variable {} in {name}",
                                scope[i]
                            )));
                        }
                    }
                }
                c.add_constraint(Constraint::new(name, scope, tuples));
            }
            Some(_) => return Err(CspParseError::BadLine(line.into())),
            None => {}
        }
    }
    csp.ok_or(CspParseError::MissingHeader)
}

/// Writes a CSP in the text format.
pub fn write_csp(csp: &Csp) -> String {
    let mut out = String::new();
    let default = csp.domain_sizes.first().copied().unwrap_or(1);
    let _ = writeln!(out, "csp {} {}", csp.num_vars(), default);
    for (v, &d) in csp.domain_sizes.iter().enumerate() {
        if d != default {
            let _ = writeln!(out, "dom {v} {d}");
        }
    }
    for c in &csp.constraints {
        let scope: Vec<String> = c.scope.iter().map(|v| v.to_string()).collect();
        let mut line = format!("con {} {} :", c.name.replace(' ', "_"), scope.join(" "));
        for t in &c.tuples {
            let vals: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            let _ = write!(line, " {} ;", vals.join(" "));
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn roundtrip_classic_instances() {
        for csp in [
            builders::australia_map_coloring(),
            builders::n_queens(4),
            builders::thesis_example_5(),
        ] {
            let text = write_csp(&csp);
            let parsed = parse_csp(&text).unwrap();
            assert_eq!(parsed.num_vars(), csp.num_vars());
            assert_eq!(parsed.constraints.len(), csp.constraints.len());
            for (a, b) in parsed.constraints.iter().zip(&csp.constraints) {
                assert_eq!(a.scope, b.scope);
                assert_eq!(a.tuples, b.tuples);
            }
            // same satisfiability
            let sa = crate::backtrack::backtrack_solve(&parsed)
                .solution
                .is_some();
            let sb = crate::backtrack::backtrack_solve(&csp).solution.is_some();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn parses_the_doc_example() {
        let text =
            "% comment\ncsp 3 2\ndom 2 4\ncon neq 0 1 : 0 1 ; 1 0 ;\ncon t 1 2 : 0 0 ; 1 3 ;\n";
        let csp = parse_csp(text).unwrap();
        assert_eq!(csp.num_vars(), 3);
        assert_eq!(csp.domain_sizes, vec![2, 2, 4]);
        assert_eq!(csp.constraints.len(), 2);
        assert_eq!(csp.constraints[1].tuples, vec![vec![0, 0], vec![1, 3]]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            parse_csp("con x 0 : 1 ;"),
            Err(CspParseError::MissingHeader)
        ));
        assert!(matches!(
            parse_csp("csp 2 2\ncon c 5 : 0 ;"),
            Err(CspParseError::OutOfRange(_))
        ));
        assert!(matches!(
            parse_csp("csp 2 2\ncon c 0 1 : 0 ;"),
            Err(CspParseError::OutOfRange(_)) // arity mismatch
        ));
        assert!(matches!(
            parse_csp("csp 2 2\ncon c 0 : 7 ;"),
            Err(CspParseError::OutOfRange(_)) // value out of domain
        ));
        assert!(matches!(
            parse_csp("csp 2 2\nwat\n"),
            Err(CspParseError::BadLine(_))
        ));
    }

    #[test]
    fn a_second_header_is_refused() {
        // it would restart the CSP and drop the two contradicting
        // constraints, leaving 4 solutions of an unsatisfiable CSP
        let text = "csp 2 2\ncon a 0 : 0 ;\ncon b 0 : 1 ;\ncsp 2 2\n";
        assert_eq!(
            parse_csp(text).unwrap_err(),
            CspParseError::BadLine("csp 2 2".into())
        );
    }

    #[test]
    fn too_many_variables_are_refused_before_allocating() {
        let over = MAX_VERTICES + 1;
        for n in [over, 100_000] {
            let err = parse_csp(&format!("csp {n} 2\n")).unwrap_err();
            assert!(matches!(err, CspParseError::OutOfRange(_)), "{err:?}");
            assert!(err.to_string().contains(&n.to_string()), "{err}");
        }
        let at_cap = parse_csp(&format!("csp {MAX_VERTICES} 2\n")).unwrap();
        assert_eq!(at_cap.num_vars(), MAX_VERTICES);
    }

    #[test]
    fn trailing_tuple_without_semicolon() {
        let csp = parse_csp("csp 2 2\ncon c 0 1 : 0 1 ; 1 0\n").unwrap();
        assert_eq!(csp.constraints[0].tuples.len(), 2);
    }
}
