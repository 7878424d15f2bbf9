//! Pins what `parse_query` compiles, so a rewrite of the tokenizer, the
//! grammar or the compilation into a CSP cannot silently change a query.
//!
//! Each well-formed input is reduced to a digest of its compiled
//! [`Query`]: the head name, the head variables, the variable names, the
//! domain sizes, the interned values in interning order, the
//! trivially-false flag, and every constraint's name, scope and tuples in
//! order. The inputs are perfbench's six query shapes with seeded data
//! (sorted distinct rows as perfbench writes them, and shuffled rows with
//! duplicates), constants and repeated variables, quoted strings holding
//! `\"`, non-ASCII identifiers and comments, the JSON envelope and a file
//! relation. Each malformed input is pinned by its exact error variant
//! and message. The digests were recorded once and are compared exactly.

use std::fmt::Write as _;
use std::path::PathBuf;

use htd_query::{parse_query, FileAccess, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn words(&mut self, xs: &[u32]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(u64::from(x));
        }
    }
}

fn digest(q: &Query) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.str(&q.name);
    d.words(&q.head);
    d.word(q.csp.variables.len() as u64);
    for v in &q.csp.variables {
        d.str(v);
    }
    d.words(&q.csp.domain_sizes);
    match &q.values {
        Some(values) => {
            d.word(values.len() as u64);
            for v in values {
                d.str(v);
            }
        }
        None => d.word(u64::MAX),
    }
    d.word(u64::from(q.trivially_false));
    d.word(q.csp.constraints.len() as u64);
    for c in &q.csp.constraints {
        d.str(&c.name);
        d.words(&c.scope);
        d.word(c.tuples.len() as u64);
        for t in &c.tuples {
            d.words(t);
        }
    }
    d.0
}

/// perfbench's `answer` shapes: atoms over `v0..`, domain, rows per atom.
fn shapes() -> Vec<(&'static str, Vec<Vec<usize>>, u32, usize)> {
    let ring = |n: usize, shifts: &[usize]| -> Vec<Vec<usize>> {
        shifts
            .iter()
            .flat_map(|&s| (0..n).map(move |i| vec![i, (i + s) % n]))
            .collect()
    };
    vec![
        ("path6", (0..5).map(|i| vec![i, i + 1]).collect(), 10, 14),
        ("star6", (1..6).map(|i| vec![0, i]).collect(), 10, 14),
        ("cycle7", ring(7, &[1]), 7, 12),
        ("circulant10", ring(10, &[1, 3]), 3, 5),
        (
            "wide_ring3",
            vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6], vec![6, 7, 8, 0]],
            4,
            24,
        ),
        (
            "wide_hub",
            vec![
                vec![0, 1, 2],
                vec![2, 3, 4],
                vec![4, 5, 6],
                vec![6, 7, 0],
                vec![0, 2, 4, 6],
            ],
            4,
            20,
        ),
    ]
}

/// A query over `atoms` in perfbench's text layout. With `sorted`, each
/// relation holds `rows` distinct rows in ascending order; otherwise
/// `rows` random rows in drawing order, duplicates kept.
fn shape_query(
    atoms: &[Vec<usize>],
    domain: u32,
    rows: usize,
    head: &[usize],
    sorted: bool,
    rng: &mut StdRng,
) -> String {
    let list = |vs: &[usize]| {
        vs.iter()
            .map(|v| format!("v{v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut text = format!("Q({}) :- ", list(head));
    for (i, atom) in atoms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(text, "{sep}e{i}({})", list(atom));
    }
    text.push_str(".\n");
    for (i, atom) in atoms.iter().enumerate() {
        let mut data: Vec<Vec<u32>> = Vec::new();
        while data.len() < rows {
            let row: Vec<u32> = atom.iter().map(|_| rng.gen_range(0..domain)).collect();
            if !sorted || !data.contains(&row) {
                data.push(row);
            }
        }
        if sorted {
            data.sort();
        }
        let _ = write!(text, "e{i}:");
        for row in data {
            let vals: Vec<String> = row.iter().map(u32::to_string).collect();
            let _ = write!(text, " {} ;", vals.join(" "));
        }
        text.push_str(" .\n");
    }
    text
}

/// A directory holding `edges.txt` for the file-relation case.
fn relation_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-parse-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("edges.txt"),
        "1 2 % a comment\n2 3\n\n# a full line\n3 1\t\n2 3\nné 1\n",
    )
    .unwrap();
    dir
}

/// Every well-formed input, labelled.
fn cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x9A25_E915);
    for (name, atoms, domain, rows) in shapes() {
        let vars = 1 + atoms.iter().flatten().max().copied().unwrap_or(0);
        let all: Vec<usize> = (0..vars).collect();
        for (i, head) in [all.clone(), vec![0, vars / 2], vec![], all]
            .iter()
            .enumerate()
        {
            let sorted = i % 2 == 0;
            let text = shape_query(&atoms, domain, rows, head, sorted, &mut rng);
            cases.push((format!("{name} #{i}"), text));
        }
    }
    let fixed: &[(&str, &str)] = &[
        ("path", "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 2 5 .\nS: 5 7 ."),
        (
            "constants",
            "Q(x) :- R(x, 2), S(x, 7, -3).\nR: 1 2 ; 3 4 ; 5 2 .\nS: 1 7 -3 ; 5 7 3 ; 5 7 -3 .",
        ),
        (
            "repeated variables",
            "Q(x, y) :- R(x, x, y), S(y, x, y, x).\nR: 1 1 2 ; 1 2 2 ; 3 3 4 ; 1 1 2 .\n\
             S: 2 1 2 1 ; 4 3 4 4 ; 4 3 4 3 .",
        ),
        (
            "self join",
            "Q(a, c) :- E(a, b), E(b, c), E(c, a).\nE: 1 2 ; 2 3 ; 3 1 ; 1 3 .",
        ),
        (
            "guard holds",
            "Q(x) :- R(x), G(1, \"on\").\nR: 4 ; 5 .\nG: 1 \"on\" ; 2 \"off\" .",
        ),
        (
            "guard fails",
            "Q(x) :- R(x), G(3, \"on\").\nR: 4 ; 5 .\nG: 1 \"on\" .",
        ),
        (
            "escaped quotes",
            "Q(x) :- R(x, \"say \\\"hi\\\"\").\n\
             R: \"a\\\"b\" \"say \\\"hi\\\"\" ; \"\\\"\" \"x\" ; plain \"say \\\"hi\\\"\" .",
        ),
        (
            "backslashes",
            "Q(x, y) :- R(x, y).\nR: \"a\\b\" \"c\\\\d\" ; \"\\n\" x .",
        ),
        (
            "non-ASCII",
            "% données, 関係 and ünïcödé in a comment\n\
             Q(é, ß) :- Rélation(é, ß), 関係(ß, ü). # trailing comment ±\n\
             Rélation: α β ; γ δ ; α \"β\" .\n関係: β ü ; δ 東京 ; β ü .",
        ),
        (
            "mixed literals",
            "Q(x, y) :- R(x, y).\nR: 007 7 ; -0 0 ; _id x_1 ; \"7\" \"\" ; 12345678901234567890 -42 .",
        ),
        (
            "layout",
            "  Q ( x , y ) :-R(x,y) ,\n\tS( y ,x ) .R:1 2;2 1.\r\nS : 2 1 ; 1 2 ;.",
        ),
        ("boolean head", "Q() :- R(x), S(x, y).\nR: 1 ; 2 .\nS: 2 3 ."),
        ("empty relation", "Q(x) :- R(x).\nR: ."),
        ("unused relations", "Q(x) :- R(x).\nZ: z1 z2 ; z3 .\nR: 9 ; 8 .\nY: 1 2 3 ."),
        (
            "relations first",
            "S: 5 7 ; 2 7 .\nR: 1 2 ; 2 5 .\nQ(x, y) :- R(x, z), S(z, y).",
        ),
        (
            "json",
            r#"{"query": "Q(x, y) :- R(x, z), S(z, y).", "relations": {"R": [[1, 2], [2, 5], [1, 2]], "S": [[5, 7], [2, "seven"]]}}"#,
        ),
        (
            "json literals",
            r#"{"query": "Q(a, b, c, d) :- R(a, b, c, d).", "relations": {"R": [[1.5, -2, true, false], [1e3, 9007199254740993, "x\"y", "\u00e9"], [-0.25, 0, "", " "]]}}"#,
        ),
        (
            "json with inline",
            "  {\"relations\": {\"S\": [[\"b\", 1]]}, \"query\": \"Q(x) :- R(x, y), S(y, x).\\nR: 1 b ; 2 c .\"}",
        ),
        (
            "json repeated member",
            r#"{"query": "Q(x) :- R(x).", "relations": {"R": [[1]], "R": [[2], [3]]}}"#,
        ),
        (
            "json without relations",
            r#"{"query": "Q(x) :- R(x).\nR: 3 ; 1 ; 3 ."}"#,
        ),
    ];
    for &(label, text) in fixed {
        cases.push((label.to_string(), text.to_string()));
    }
    cases.push((
        "file relation".to_string(),
        "Q(x, y) :- E(x, y), E(y, z).\nE @ \"edges.txt\".".to_string(),
    ));
    cases
}

/// Every malformed input with its error, as `{:?}` prints it.
const MALFORMED: &[(&str, &str)] = &[
    ("Q(x) :- R(x)", r#"Parse("unexpected end of input")"#),
    ("Q(x) :- R(x).", r#"Invalid("unknown relation 'R'")"#),
    (
        "Q(y) :- R(x).\nR: 1 .",
        r#"Invalid("head variable 'y' does not appear in the body")"#,
    ),
    (
        "Q(x) :- R(x, x).\nR: 1 .",
        r#"Invalid("relation 'R' has a tuple of arity 1 but the atom uses arity 2")"#,
    ),
    (
        "Q(x) :- R(x).\nR: 1 ; 2 3 ; 4 5 6 .",
        r#"Invalid("relation 'R' has a tuple of arity 2 but the atom uses arity 1")"#,
    ),
    (
        "Q(x) :- R(x), R(x, y).\nR: 1 .",
        r#"Invalid("relation 'R' has a tuple of arity 1 but the atom uses arity 2")"#,
    ),
    (
        "Q(x) :- R(x).\nR @ \"f.txt\".",
        r#"Unsupported("file-referenced relations are not allowed here")"#,
    ),
    (
        "R: 1 .",
        r#"Parse("no query rule found (expected `Q(...) :- ...`)")"#,
    ),
    (
        "Q(x) :- R(x).\nP(y) :- R(y).\nR: 1 .",
        r#"Parse("a program may contain only one rule")"#,
    ),
    (
        "Q(x) :- R(x).\nR: 1 .\nR: 2 .",
        r#"Parse("relation 'R' defined twice")"#,
    ),
    ("Q(x) :- R(x) ! .", r#"Parse("unexpected character '!'")"#),
    ("Q(x) :- R(x) § .", r#"Parse("unexpected character '§'")"#),
    (
        "Q(x) :- R(x).\nR: ٣ .",
        r#"Parse("unexpected character '٣'")"#,
    ),
    (
        "Q(x) :- R(x, \"abc",
        r#"Parse("unterminated string literal")"#,
    ),
    (
        "Q(x) :- R(x, \"a\\\"b).",
        r#"Parse("unterminated string literal")"#,
    ),
    ("Q(x) :- R(x, - 3).", r#"Parse("'-' must start a number")"#),
    (
        "Q(x) :- R(x).\nR: 1 -",
        r#"Parse("'-' must start a number")"#,
    ),
    (
        "Q(1) :- R(x).",
        r#"Parse("head terms must be variables, found number '1'")"#,
    ),
    (
        "Q(\"x\") :- R(x).",
        r#"Parse("head terms must be variables, found string \"x\"")"#,
    ),
    (
        "Q(x) :- R().",
        r#"Parse("body atom R needs at least one term")"#,
    ),
    (
        "Q(x) :- R(x) S(x).",
        r#"Parse("expected ',' or '.' after an atom but found identifier 'S'")"#,
    ),
    (
        "Q(x) :- R(x)).",
        r#"Parse("expected ',' or '.' after an atom but found ')'")"#,
    ),
    (
        "Q(x) :- R(x;).",
        r#"Parse("expected ',' or ')' in term list but found ';'")"#,
    ),
    (
        "Q(x :- R(x).",
        r#"Parse("expected ',' or ')' in term list but found ':-'")"#,
    ),
    (
        "Q(x) :- R(:).",
        r#"Parse("expected a variable or constant but found ':'")"#,
    ),
    (
        "Q(x) :- (x).",
        r#"Parse("expected a relation name but found '('")"#,
    ),
    (
        "Q(x) R(x).",
        r#"Parse("expected ':-' but found identifier 'R'")"#,
    ),
    (
        "1(x) :- R(x).",
        r#"Parse("expected a rule or relation name but found number '1'")"#,
    ),
    (
        "Q(x) :- R(x).\nR: 1 ; ; 2 .",
        r#"Parse("empty tuple before ';'")"#,
    ),
    (
        "Q(x) :- R(x).\nR: 1 ( .",
        r#"Parse("expected a value, ';' or '.' in relation data but found '('")"#,
    ),
    (
        "Q(x) :- R(x).\nR: 1 @ .",
        r#"Parse("expected a value, ';' or '.' in relation data but found '@'")"#,
    ),
    (
        "Q(x) :- R(x).\nR @ 5 .",
        r#"Parse("expected a quoted file path after '@' but found number '5'")"#,
    ),
    (
        "Q(x) :- R(x).\nR @ \"f.txt\" ;",
        r#"Parse("expected '.' but found ';'")"#,
    ),
    (
        "Q(x) :- R(x).\nR , 1 .",
        r#"Parse("expected '(', ':' or '@' after 'R' but found ','")"#,
    ),
    ("Q(x) :- R(x).\nR", r#"Parse("unexpected end of input")"#),
    (
        r#"{"relations": {}}"#,
        r#"Parse("JSON query needs a string 'query' field")"#,
    ),
    (
        r#"{"query": 5}"#,
        r#"Parse("JSON query needs a string 'query' field")"#,
    ),
    (
        r#"{"query": "Q(x) :- R(x).", "relations": {"R": 5}}"#,
        r#"Invalid("relation 'R' must be an array of tuples")"#,
    ),
    (
        r#"{"query": "Q(x) :- R(x).", "relations": {"R": [5]}}"#,
        r#"Invalid("relation 'R' must contain tuples (arrays)")"#,
    ),
    (
        r#"{"query": "Q(x) :- R(x).", "relations": {"R": [[null]]}}"#,
        r#"Invalid("relation values must be numbers or strings, found null")"#,
    ),
    (
        r#"{"query": "Q(x) :- R(x).\nR: 1 .", "relations": {"R": [[1]]}}"#,
        r#"Parse("relation 'R' defined twice")"#,
    ),
    (r#"{"query": "#, r#"Parse("bad value at byte 10")"#),
    (
        r#"{"query": "Q(x) :- R(x)."#,
        r#"Parse("unterminated string")"#,
    ),
    (
        r#"{"query": "Q(x) :- R(x).", "relations": {"R": [[1]]} x"#,
        r#"Parse("bad object at byte 53")"#,
    ),
    (r#"{"query": "\q"}"#, r#"Parse("bad escape")"#),
];

/// Prints the live transcript, to re-record after an intended change:
/// `cargo test -p htd-query --test parse_pins -- --nocapture`.
fn transcript(got: &[u64], errors: &[String]) -> String {
    let mut out = String::from("--- transcript ---\nconst PINNED: [u64; ");
    let _ = writeln!(out, "{}] = [", got.len());
    for g in got {
        let _ = writeln!(out, "    {g:#018x},");
    }
    out.push_str("];\n");
    for (&(input, _), e) in MALFORMED.iter().zip(errors) {
        let _ = writeln!(out, "{input:?} => {e}");
    }
    out.push_str("--- end ---");
    out
}

#[test]
fn compiled_queries_and_errors_match_the_pins() {
    let dir = relation_dir();
    let files = FileAccess::Allow { base: dir.clone() };
    let cases = cases();
    let got: Vec<u64> = cases
        .iter()
        .map(|(label, text)| match parse_query(text, &files) {
            Ok(q) => digest(&q),
            Err(e) => panic!("{label}: {e:?}"),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let errors: Vec<String> = MALFORMED
        .iter()
        .map(|&(input, _)| match parse_query(input, &FileAccess::Deny) {
            Ok(_) => "parses".to_string(),
            Err(e) => format!("{e:?}"),
        })
        .collect();
    let mut changed: Vec<String> = cases
        .iter()
        .zip(&got)
        .zip(PINNED)
        .filter(|((_, g), want)| *g != want)
        .map(|(((label, _), g), want)| format!("{label}: {g:#018x} (pinned {want:#018x})"))
        .collect();
    if cases.len() != PINNED.len() {
        changed.push(format!("{} cases but {} pins", cases.len(), PINNED.len()));
    }
    for (&(input, want), e) in MALFORMED.iter().zip(&errors) {
        if e != want {
            changed.push(format!("{input:?}: {e} (pinned {want})"));
        }
    }
    assert!(
        changed.is_empty(),
        "changed:\n{}\n{}",
        changed.join("\n"),
        transcript(&got, &errors)
    );
}

/// The parser hands interned values to the CSP as they appear, so pinned
/// digests alone could hide a lost value; these read a few back.
#[test]
fn escapes_and_non_ascii_values_render_back() {
    let q = parse_query(
        "Q(x, y) :- R(x, y).\nR: \"a\\\"b\" é ; \"c\\d\" 東京 .",
        &FileAccess::Deny,
    )
    .unwrap();
    let rendered: Vec<Vec<String>> = q.csp.constraints[0]
        .tuples
        .iter()
        .map(|t| t.iter().map(|&v| q.render_value(v)).collect())
        .collect();
    assert_eq!(
        rendered,
        [["a\"b", "é"], ["c\\d", "東京"]].map(|r| r.map(String::from).to_vec())
    );
}

/// One digest per case of [`cases`], in order.
const PINNED: [u64; 45] = [
    0x7513a7c3e0d1e61e,
    0x703a8b00262f2eb4,
    0x8b63c9e86412e146,
    0xe9486891b983acb9,
    0xbd3df49394a95781,
    0xafb2aa90a83a0e2a,
    0x631e638bc55db1cd,
    0xf0439c503cdeb8d8,
    0x2a12f3a43473db82,
    0x6120dd85bd22a4dc,
    0x7e5063ccf4871c8c,
    0x6f2519bacc554700,
    0x23046dc458b232df,
    0x92f2b9b763b341e0,
    0x19669bfee4de04a5,
    0x5c23b5d41f8a3164,
    0xb476b57a5f658e72,
    0xb0f712f4826548ed,
    0x14fe16eaab9638c2,
    0x571d67ffe75c850b,
    0x6aa73c2c8bc9dc1d,
    0x8caaefa73accb2eb,
    0x7521f224f3200da0,
    0xb61fe128d8a5a299,
    0xefb7032b2b2eef1e,
    0xa11aafdc331d0acd,
    0x262c83d2fb666403,
    0x05cac92a7b86df0f,
    0xd142d86c4e1bd718,
    0x9c64f8fb6ba59576,
    0x1623c6abaa2974e9,
    0x7d0925911b95e568,
    0x2755960106020f4c,
    0xf71842cf1a499723,
    0x2daa1c5be51fc6a0,
    0xeec23facc5d16b9b,
    0x12e382eda59a98d7,
    0x5f83a820fe61263a,
    0xeec8bdd09664da1d,
    0x81d15c4910851e9c,
    0x47ad1a2ad1ee41f6,
    0x898efeef42a20bf5,
    0x33be3cd94eec45c0,
    0xd39867a46a18d9c1,
    0x85099b082f41c693,
];
