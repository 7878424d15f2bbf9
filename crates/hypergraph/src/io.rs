//! Instance parsers and writers.
//!
//! Three formats cover the literature the reproduced experiments draw on:
//!
//! * **DIMACS graph coloring** (`.col`): `p edge n m` header, `e u v` lines,
//!   1-based vertices — the format of the Second DIMACS challenge instances
//!   used in chapters 5–6 of the thesis.
//! * **PACE** (`.gr`): `p tw n m` header and exactly `m` bare `u v` lines.
//! * **HyperBench atom lists** (`.hg`), also used by the CSP hypergraph
//!   library and `detkdecomp`: atoms `name(v1,v2,...),` terminated by `.`,
//!   `%`-comments.
//!
//! [`read`] is the one way from instance text to an [`Instance`]: the CLI
//! and the decomposition service both call it, with the [`Format`] that
//! [`Format::of`] reads from the content and the file name.

use std::fmt::Write as _;

use crate::graph::Graph;
use crate::hypergraph::Hypergraph;

/// Most vertices an instance read from text may have. A dense adjacency
/// copy of `n` vertices takes n² bits, 32 MiB at this cap, which is about
/// 40 times the largest instance in the repository (c880, 383 vertices).
/// The parsers refuse a larger instance before allocating for it, so a
/// 19-byte header cannot ask for a 128 GiB graph.
pub const MAX_VERTICES: u32 = 1 << 14;

/// Most bytes the edges of an instance read from text may take as vertex
/// sets, one bitset of ⌈n/64⌉ words per edge: twice a dense adjacency
/// copy at [`MAX_VERTICES`], so 32768 edges at the cap and far more on
/// fewer vertices. Without it an 8 MiB input of short edges over 16384
/// vertices would ask for gigabytes.
pub const MAX_EDGE_SET_BYTES: u64 = 1 << 26;

/// Refuses an instance of `vertices` vertices and `edges` edges beyond
/// [`MAX_VERTICES`] or [`MAX_EDGE_SET_BYTES`]; every parser checks it
/// before building the hypergraph view an instance may be turned into.
pub fn check_size(vertices: u64, edges: u64) -> Result<(), ParseError> {
    if vertices > u64::from(MAX_VERTICES) {
        return Err(ParseError::TooManyVertices { declared: vertices });
    }
    if edges.saturating_mul(vertices.div_ceil(64) * 8) > MAX_EDGE_SET_BYTES {
        return Err(ParseError::TooManyEdges { edges, vertices });
    }
    Ok(())
}

/// Errors produced by the parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The `p tw n m` (PACE) or `p edge n m` (DIMACS) header is missing
    /// or malformed.
    MissingHeader,
    /// A line could not be interpreted.
    BadLine(String),
    /// A vertex index was out of the declared range.
    VertexOutOfRange(String),
    /// The input holds no atoms at all (empty or comment-only).
    NoAtoms,
    /// A PACE file's edge lines do not match its header's edge count, as
    /// when the file was cut short.
    EdgeCount {
        /// The `m` of the `p tw n m` header.
        declared: usize,
        /// The edge lines present.
        found: usize,
    },
    /// The instance has more vertices than [`MAX_VERTICES`].
    TooManyVertices {
        /// The vertex count the header declares, or the distinct vertex
        /// names an atom list mentions.
        declared: u64,
    },
    /// The instance's edges, as vertex sets, would take more than
    /// [`MAX_EDGE_SET_BYTES`].
    TooManyEdges {
        /// The edges.
        edges: u64,
        /// The vertices, which set the width of every edge's set.
        vertices: u64,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing or malformed 'p tw|edge n m' header"),
            ParseError::BadLine(l) => write!(f, "unparseable line: {l:?}"),
            ParseError::VertexOutOfRange(v) => write!(f, "vertex out of range: {v}"),
            ParseError::NoAtoms => write!(f, "no atoms: the input is empty or only comments"),
            ParseError::EdgeCount { declared, found } => {
                write!(f, "the header declares {declared} edges, found {found}")
            }
            ParseError::TooManyVertices { declared } => write!(
                f,
                "the instance has {declared} vertices, more than the {MAX_VERTICES} accepted"
            ),
            ParseError::TooManyEdges { edges, vertices } => write!(
                f,
                "{edges} edges over {vertices} vertices take more than the \
                 {MAX_EDGE_SET_BYTES} bytes of edge sets accepted"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// An instance text format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// PACE `.gr`: a `p tw n m` header.
    PaceGr,
    /// DIMACS graph colouring: a `p edge n m` or `p col n m` header.
    Dimacs,
    /// The HyperBench atom list: no header.
    Hyperedges,
}

impl Format {
    /// The format of instance `text` named `name` (empty when the text
    /// has no name). The content decides first: the first line that is
    /// neither blank nor a `c` or `%` comment is a `p tw` header for PACE,
    /// a `p edge` or `p col` header for DIMACS, whatever the name says.
    /// Headerless text goes by extension: `.gr` to PACE and `.col` or
    /// `.dimacs` to DIMACS, which then report the missing header; anything
    /// else, stdin (`-`) included, is an atom list.
    pub fn of(name: &str, text: &str) -> Format {
        let first = text
            .lines()
            .map(str::trim)
            .find(|t| !(t.is_empty() || t.starts_with('%') || t.starts_with('c')));
        match first {
            Some(t) if t.starts_with("p tw") => Format::PaceGr,
            Some(t) if t.starts_with("p edge") || t.starts_with("p col") => Format::Dimacs,
            _ if name.ends_with(".gr") => Format::PaceGr,
            _ if name.ends_with(".col") || name.ends_with(".dimacs") => Format::Dimacs,
            _ => Format::Hyperedges,
        }
    }
}

/// An instance read by [`read`]: a graph format keeps its graph, an atom
/// list is a hypergraph.
#[derive(Debug)]
pub enum Instance {
    /// A simple graph (from a PACE or DIMACS file).
    Graph(Graph),
    /// A hypergraph (from an atom list).
    Hypergraph(Hypergraph),
}

impl Instance {
    /// The instance as a hypergraph (graphs become binary hyperedges).
    pub fn hypergraph(&self) -> Hypergraph {
        match self {
            Instance::Graph(g) => Hypergraph::from_graph(g),
            Instance::Hypergraph(h) => h.clone(),
        }
    }

    /// The instance's primal graph.
    pub fn graph(&self) -> Graph {
        match self {
            Instance::Graph(g) => g.clone(),
            Instance::Hypergraph(h) => h.primal_graph(),
        }
    }
}

/// Reads instance `text` in `format`: [`parse_pace_gr`], [`parse_dimacs`]
/// or [`parse_hg`].
pub fn read(format: Format, text: &str) -> Result<Instance, ParseError> {
    match format {
        Format::PaceGr => parse_pace_gr(text).map(Instance::Graph),
        Format::Dimacs => parse_dimacs(text).map(Instance::Graph),
        Format::Hyperedges => parse_hg(text).map(Instance::Hypergraph),
    }
}

/// Parses a DIMACS graph-coloring instance.
///
/// Accepts `c` comment lines, one `p edge n m` (or `p col n m`) header and
/// `e u v` edge lines with 1-based endpoints. The declared edge count is not
/// enforced (many published instances get it wrong).
pub fn parse_dimacs(text: &str) -> Result<Graph, ParseError> {
    parse_graph(text, false)
}

/// Parses a PACE-challenge graph (`.gr`): one `p tw n m` header and bare
/// `u v` edge lines, 1-based, `c` comments. The file must hold exactly `m`
/// edge lines, so a file cut at a line boundary is an error, not a
/// smaller graph.
pub fn parse_pace_gr(text: &str) -> Result<Graph, ParseError> {
    parse_graph(text, true)
}

/// The graph loop of both dialects, which differ in two things: DIMACS
/// edge lines start with `e`, and a `pace` file must hold exactly the `m`
/// edge lines its header declares. A second header is refused in both,
/// since it would restart the graph and drop every edge before it.
fn parse_graph(text: &str, pace: bool) -> Result<Graph, ParseError> {
    let mut graph: Option<(Graph, Option<usize>)> = None;
    let mut found = 0usize;
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let bad = || ParseError::BadLine(line.to_string());
        let mut it = line.split_whitespace().peekable();
        if it.next_if_eq(&"p").is_some() {
            if graph.is_some() {
                return Err(bad());
            }
            it.next().ok_or(ParseError::MissingHeader)?;
            let n = header_vertices(it.next())?;
            let m = it.next().and_then(|s| s.parse().ok());
            if pace && m.is_none() {
                return Err(ParseError::MissingHeader);
            }
            graph = Some((Graph::new(n), m));
            continue;
        }
        if !pace && it.next() != Some("e") {
            return Err(bad());
        }
        let (g, _) = graph.as_mut().ok_or(ParseError::MissingHeader)?;
        let mut endpoint = || it.next().and_then(|s| s.parse().ok()).ok_or_else(bad);
        let (u, v): (u32, u32) = (endpoint()?, endpoint()?);
        let n = g.num_vertices();
        if u == 0 || v == 0 || u > n || v > n {
            return Err(ParseError::VertexOutOfRange(format!("{u} or {v}")));
        }
        g.add_edge(u - 1, v - 1);
        found += 1;
    }
    let (g, declared) = graph.ok_or(ParseError::MissingHeader)?;
    match declared {
        Some(declared) if pace && declared != found => {
            Err(ParseError::EdgeCount { declared, found })
        }
        _ => {
            check_size(u64::from(g.num_vertices()), g.num_edges() as u64)?;
            Ok(g)
        }
    }
}

/// The `n` of a `p … n m` header, refused above [`MAX_VERTICES`] before
/// any graph is allocated for it.
fn header_vertices(field: Option<&str>) -> Result<u32, ParseError> {
    let n: u64 = field
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::MissingHeader)?;
    check_size(n, 0)?;
    Ok(n as u32)
}

/// Writes a graph in DIMACS graph-coloring format.
pub fn write_dimacs(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p edge {} {}", g.num_vertices(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "e {} {}", u + 1, v + 1);
    }
    out
}

/// Writes a graph in PACE `.gr` format.
pub fn write_pace_gr(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p tw {} {}", g.num_vertices(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u + 1, v + 1);
    }
    out
}

/// Parses a HyperBench `.hg` hypergraph: an atom list
///
/// ```text
/// % comment
/// e1(a, b, c),
/// e2(c, d),
/// e3(d, a).
/// ```
///
/// with one or more atoms per line, `,`-separated, an optional final `.`
/// and `%` comments, as the public HyperBench corpus (Fischl et al.,
/// arXiv:1811.08181) ships them. Vertex names are interned in order of
/// first appearance. The corpus's contract holds:
///
/// * every atom must have a **non-empty scope** (a relation with no
///   attributes has no place in a hypergraph);
/// * **edge names must be unique** — duplicates almost always mean two
///   instance files were concatenated, and silently merging them would
///   corrupt every downstream width;
/// * there must be **at least one atom** — an empty or comment-only file
///   (say, what a failed `htd gen` redirect leaves behind) is not an
///   instance, and solving it would report a width of 0.
pub fn parse_hg(text: &str) -> Result<Hypergraph, ParseError> {
    // Strip comments, then split the stream into `name(args)` atoms.
    let mut cleaned = String::with_capacity(text.len());
    for line in text.lines() {
        let line = match line.find('%') {
            Some(i) => &line[..i],
            None => line,
        };
        cleaned.push_str(line);
        cleaned.push(' ');
    }
    let mut edges: Vec<(String, Vec<String>)> = Vec::new();
    let mut rest = cleaned.trim();
    while !rest.is_empty() && rest != "." {
        let open = rest
            .find('(')
            .ok_or_else(|| ParseError::BadLine(rest.chars().take(40).collect()))?;
        let close = rest[open..]
            .find(')')
            .map(|i| open + i)
            .ok_or_else(|| ParseError::BadLine(rest.chars().take(40).collect()))?;
        let name = rest[..open]
            .trim()
            .trim_start_matches(',')
            .trim()
            .to_string();
        if name.is_empty() {
            return Err(ParseError::BadLine(rest.chars().take(40).collect()));
        }
        let args: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        edges.push((name, args));
        rest = rest[close + 1..].trim();
        rest = rest.strip_prefix(',').map(str::trim).unwrap_or(rest);
        if let Some(r) = rest.strip_prefix('.') {
            if r.trim().is_empty() {
                rest = "";
            } else {
                rest = r.trim();
            }
        }
    }
    // interning gives every edge a vertex set as wide as the vertex
    // count, so refuse an oversized instance first; the mentions bound
    // the vertex count, so only a large input pays for counting names
    let mentions: usize = edges.iter().map(|(_, scope)| scope.len()).sum();
    if check_size(mentions as u64, edges.len() as u64).is_err() {
        let names: std::collections::HashSet<&str> = edges
            .iter()
            .flat_map(|(_, scope)| scope.iter().map(String::as_str))
            .collect();
        check_size(names.len() as u64, edges.len() as u64)?;
    }
    if edges.is_empty() {
        return Err(ParseError::NoAtoms);
    }
    let mut seen = std::collections::HashSet::new();
    for (name, scope) in &edges {
        if scope.is_empty() {
            return Err(ParseError::BadLine(format!(
                "edge '{name}' has an empty scope"
            )));
        }
        if !seen.insert(name.as_str()) {
            return Err(ParseError::BadLine(format!("duplicate edge name '{name}'")));
        }
    }
    Ok(Hypergraph::from_named_edges(&edges))
}

/// Writes a hypergraph as a HyperBench `.hg` atom list.
pub fn write_hg(h: &Hypergraph) -> String {
    let mut out = String::new();
    let m = h.num_edges();
    for e in 0..m {
        let scope: Vec<_> = h.edge(e).iter().map(|v| h.vertex_name(v)).collect();
        let sep = if e + 1 == m { "." } else { "," };
        let _ = writeln!(out, "{}({}){}", h.edge_name(e), scope.join(","), sep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_headers_are_refused_before_allocating() {
        let over = u64::from(MAX_VERTICES) + 1;
        for (parse, header) in [
            (
                parse_pace_gr as fn(&str) -> Result<Graph, ParseError>,
                "p tw",
            ),
            (parse_dimacs, "p edge"),
        ] {
            for n in [over, u64::from(u32::MAX), 99_999_999_999] {
                let err = parse(&format!("{header} {n} 0\n")).unwrap_err();
                assert_eq!(err, ParseError::TooManyVertices { declared: n });
                let msg = err.to_string();
                assert!(
                    msg.contains(&n.to_string()) && msg.contains("16384"),
                    "{msg}"
                );
            }
            let at_cap = parse(&format!("{header} {MAX_VERTICES} 0\n")).unwrap();
            assert_eq!(at_cap.num_vertices(), MAX_VERTICES);
        }
    }

    #[test]
    fn atom_lists_with_too_many_vertices_are_refused() {
        let atoms = |n: u32| {
            let scope: Vec<String> = (0..n).map(|v| format!("v{v}")).collect();
            format!("e1({}),\ne2(v0).", scope.join(","))
        };
        let err = parse_hg(&atoms(MAX_VERTICES + 1)).unwrap_err();
        let declared = u64::from(MAX_VERTICES) + 1;
        assert_eq!(err, ParseError::TooManyVertices { declared });
        assert_eq!(
            parse_hg(&atoms(MAX_VERTICES)).unwrap().num_vertices(),
            MAX_VERTICES
        );
        // many mentions of few vertices are fine
        let repeated: Vec<String> = (0..MAX_VERTICES + 10)
            .map(|i| format!("e{i}(a,b)"))
            .collect();
        let h = parse_hg(&format!("{}.", repeated.join(",\n"))).unwrap();
        assert_eq!(h.num_vertices(), 2);
    }

    #[test]
    fn edge_sets_over_the_budget_are_refused() {
        // at the vertex cap an edge's set takes 2 KiB, so 32768 edges fit
        let fit = (MAX_EDGE_SET_BYTES / 2048) as u32;
        let n = MAX_VERTICES;
        // distinct pairs {u, u + 1 + i / n}, 1-based
        let pairs = |m: u32| (0..m).map(move |i| (i % n + 1, (i % n + 1 + i / n) % n + 1));
        for m in [fit, fit + 1] {
            let body: String = pairs(m).map(|(u, v)| format!("{u} {v}\n")).collect();
            let gr = parse_pace_gr(&format!("p tw {n} {m}\n{body}"));
            let dimacs: String = pairs(m).map(|(u, v)| format!("e {u} {v}\n")).collect();
            let col = parse_dimacs(&format!("p edge {n} {m}\n{dimacs}"));
            let atoms: Vec<String> = pairs(m)
                .map(|(u, v)| format!("e{u}_{v}(v{u},v{v})"))
                .collect();
            let hg = parse_hg(&format!("{}.", atoms.join(",\n")));
            if m == fit {
                assert_eq!(gr.unwrap().num_edges(), m as usize);
                assert_eq!(col.unwrap().num_edges(), m as usize);
                assert_eq!(hg.unwrap().num_edges(), m);
            } else {
                let refused = ParseError::TooManyEdges {
                    edges: u64::from(m),
                    vertices: u64::from(n),
                };
                assert_eq!(gr.unwrap_err(), refused);
                assert_eq!(col.unwrap_err(), refused);
                assert_eq!(hg.unwrap_err(), refused);
                assert!(refused.to_string().contains("32769 edges over 16384"));
            }
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        let text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        let again = parse_dimacs(&write_dimacs(&g)).unwrap();
        assert_eq!(again.num_edges(), g.num_edges());
        assert_eq!(
            again.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn dimacs_errors() {
        assert!(matches!(
            parse_dimacs("e 1 2\n"),
            Err(ParseError::MissingHeader)
        ));
        assert!(matches!(
            parse_dimacs("p edge 2 1\ne 1 5\n"),
            Err(ParseError::VertexOutOfRange(_))
        ));
        assert!(matches!(
            parse_dimacs("p edge 2 1\nq 1 2\n"),
            Err(ParseError::BadLine(_))
        ));
        // duplicate edges collapse
        let g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn dimacs_refuses_a_second_header() {
        // a second header would restart the graph, drop the triangle
        // before it and read the instance as one edge, width 1
        let text = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\np edge 2 1\ne 1 2\n";
        assert_eq!(
            parse_dimacs(text).unwrap_err(),
            ParseError::BadLine("p edge 2 1".into())
        );
        assert_eq!(
            parse_dimacs("p col 3 1\ne 1 2\np col 3 1\n").unwrap_err(),
            ParseError::BadLine("p col 3 1".into())
        );
    }

    #[test]
    fn pace_gr_roundtrip() {
        let text = "c comment\np tw 4 3\n1 2\n2 3\n3 4\n";
        let g = parse_pace_gr(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        let again = parse_pace_gr(&write_pace_gr(&g)).unwrap();
        assert_eq!(
            again.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        assert!(parse_pace_gr("1 2\n").is_err());
        assert!(matches!(
            parse_pace_gr("p tw 2 1\n1 9\n"),
            Err(ParseError::VertexOutOfRange(_))
        ));
    }

    #[test]
    fn pace_gr_counts_edge_lines_against_the_header() {
        // cut at a line boundary: two of the four declared edges are gone
        assert_eq!(
            parse_pace_gr("p tw 4 4\n1 2\n2 3\n").unwrap_err(),
            ParseError::EdgeCount {
                declared: 4,
                found: 2
            }
        );
        assert!(parse_pace_gr("p tw 3 1\n1 2\n2 3\n").is_err(), "extra line");
        assert!(parse_pace_gr("p tw 3\n").is_err(), "no edge count");
        // a second header may not restart the graph with the count running
        assert_eq!(
            parse_pace_gr("p tw 3 2\n1 2\n2 3\np tw 3 2\n").unwrap_err(),
            ParseError::BadLine("p tw 3 2".into())
        );
        // a repeated edge line counts as a line, not as a new edge
        let g = parse_pace_gr("p tw 3 2\n1 2\n2 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
        // DIMACS stays tolerant of its declared count
        assert_eq!(parse_dimacs("p edge 4 4\ne 1 2\n").unwrap().num_edges(), 1);
    }

    #[test]
    fn format_reads_the_header_then_the_extension() {
        for (name, text, want) in [
            ("x.hg", "c comment\np tw 2 1\n1 2\n", Format::PaceGr),
            ("-", "p edge 2 1\ne 1 2\n", Format::Dimacs),
            ("x.gr", "\n% note\np col 2 0\n", Format::Dimacs),
            ("x.gr", "e1(a,b),\ne2(b,c).\n", Format::PaceGr),
            ("x.col", "", Format::Dimacs),
            ("x.dimacs", "1 2\n", Format::Dimacs),
            ("x.hg", "e1(a,b),\ne2(b,c).\n", Format::Hyperedges),
            ("x.txt", "", Format::Hyperedges),
            ("-", "", Format::Hyperedges),
        ] {
            assert_eq!(Format::of(name, text), want, "{name} {text:?}");
        }
    }

    #[test]
    fn hyperedges_roundtrip() {
        let text = "% library instance\nf1(a,b,c),\nf2(c,d),\nf3(d,a).\n";
        let h = parse_hg(text).unwrap();
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge_name(0), "f1");
        assert_eq!(h.vertex_name(3), "d");
        let again = parse_hg(&write_hg(&h)).unwrap();
        assert_eq!(again.num_vertices(), 4);
        assert_eq!(again.num_edges(), 3);
        assert_eq!(again.edge(1).len(), 2);
    }

    #[test]
    fn hyperedges_multiline_atom() {
        let text = "long_name(x1,\n  x2, x3),\nother(x3, x4).";
        let h = parse_hg(text).unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge(0).len(), 3);
        assert_eq!(h.edge_name(0), "long_name");
    }

    #[test]
    fn hyperedges_bad_input() {
        assert!(parse_hg("no parens here").is_err());
        assert!(parse_hg("(a,b).").is_err()); // missing name
    }

    #[test]
    fn hg_roundtrip() {
        // HyperBench style: one atom per line, comma separators, final '.'
        let text = "%% cq from the public corpus\n\
                    airport(ap_id,city),\n\
                    flight(fl_id,ap_id,dest),\n\
                    city(city,dest).\n";
        let h = parse_hg(text).unwrap();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge_name(0), "airport");
        assert_eq!(h.vertex_name(0), "ap_id");
        let again = parse_hg(&write_hg(&h)).unwrap();
        assert_eq!(again.num_vertices(), h.num_vertices());
        assert_eq!(again.num_edges(), h.num_edges());
        for e in 0..h.num_edges() {
            assert_eq!(again.edge_name(e), h.edge_name(e));
            assert_eq!(again.edge(e).to_vec(), h.edge(e).to_vec());
        }
    }

    #[test]
    fn every_named_hypergraph_round_trips_through_the_strict_parser() {
        // what `htd gen` writes for a hypergraph, every command reads back
        let scopes = |h: &Hypergraph| -> Vec<(String, Vec<String>)> {
            (0..h.num_edges())
                .map(|e| {
                    let mut scope: Vec<String> =
                        h.edge(e).iter().map(|v| h.vertex_name(v).into()).collect();
                    scope.sort();
                    (h.edge_name(e).into(), scope)
                })
                .collect()
        };
        let families = ["adder_", "bridge_", "grid2d_", "grid3d_", "clique_"];
        let names = families
            .iter()
            .flat_map(|f| (1..=6).map(move |k| format!("{f}{k}")))
            .chain(["b06", "b08", "b09", "b10", "c499", "c880"].map(String::from));
        let mut read = 0;
        for name in names {
            let Some(h) = crate::gen::named_hypergraph(&name) else {
                continue;
            };
            // an atom list names only the vertices of some atom
            let back = parse_hg(&write_hg(&h)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scopes(&back), scopes(&h), "{name}");
            read += 1;
        }
        assert_eq!(read, 33);
    }

    #[test]
    fn hg_accepts_missing_final_period() {
        let h = parse_hg("r1(a,b)\nr2(b,c)").unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.num_vertices(), 3);
    }

    #[test]
    fn hg_rejects_corpus_violations() {
        // duplicate edge names (two concatenated instances)
        assert!(matches!(
            parse_hg("r(a,b),\nr(b,c)."),
            Err(ParseError::BadLine(_))
        ));
        // empty scope
        assert!(matches!(
            parse_hg("r(a,b),\nempty()."),
            Err(ParseError::BadLine(_))
        ));
        // still propagates generic syntax errors
        assert!(parse_hg("no parens").is_err());
        // no atoms at all: empty or comment-only input is no instance
        for text in ["", "\n \n", "% only a comment\n", "%% a\n  % b\n", "."] {
            assert_eq!(parse_hg(text).err(), Some(ParseError::NoAtoms), "{text:?}");
        }
    }
}
