//! The conjunctive-query input layer: a Datalog-style text format (and a
//! JSON envelope) compiled into an [`htd_csp::Csp`].
//!
//! # Text format
//!
//! A program is one **rule** plus the **relations** it mentions, each
//! statement terminated by `.`:
//!
//! ```text
//! % answers are distinct (x, y) pairs
//! Q(x, y) :- R(x, z), S(z, y).
//! R: 1 2 ; 2 5 .
//! S: 5 7 .
//! ```
//!
//! * **Rule** — `Head(vars) :- Atom, Atom, ... .` Head terms must be
//!   variables appearing in the body (range restriction); `Q()` asks a
//!   boolean question. Atom terms are variables (identifiers) or
//!   constants (numbers or `"quoted strings"`); repeated variables and
//!   constants are compiled away into selections.
//! * **Inline relation** — `Name: v v ... ; v v ... .` Tuples are
//!   separated by `;`, values by whitespace; `Name: .` is the empty
//!   relation. Values are uninterpreted literals — identifiers, numbers
//!   or quoted strings.
//! * **File relation** — `Name @ "tuples.txt".` One tuple per line,
//!   whitespace-separated values, `%`/`#` comments. Only honored when
//!   the caller passes [`FileAccess::Allow`]; the service always parses
//!   with [`FileAccess::Deny`] so wire input cannot read server files.
//!
//! `%` and `#` start comments anywhere.
//!
//! # JSON format
//!
//! Input starting with `{` is parsed as
//! `{"query": "Q(x) :- R(x).", "relations": {"R": [[1], [2]]}}` —
//! the `query` string uses the text grammar (and may itself contain
//! inline relations); `relations` entries are arrays of tuples of
//! numbers or strings.
//!
//! # Compilation
//!
//! Every atom becomes one [`Constraint`] whose scope is the atom's
//! distinct variables; relation values are interned into one global
//! domain. The constraint hypergraph of the resulting CSP is exactly
//! the query hypergraph of thesis Definition 7, so the decomposition
//! machinery applies unchanged. Atoms with no variables (all terms
//! constant) act as global guards: if the guard fails the query is
//! trivially false.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use htd_core::{HtdError, Json};
use htd_csp::{Constraint, Csp, Value, VarId};

/// Whether `Name @ "file"` relation references may touch the filesystem.
#[derive(Clone, Debug)]
pub enum FileAccess {
    /// Refuse file references ([`HtdError::Unsupported`]); the only safe
    /// choice for untrusted wire input.
    Deny,
    /// Resolve relative references against `base`.
    Allow {
        /// Directory relative paths are resolved against.
        base: PathBuf,
    },
}

/// A compiled conjunctive query: the rule head plus the body as a CSP.
#[derive(Clone, Debug)]
pub struct Query {
    /// Rule head predicate name (`Q` in `Q(x,y) :- ...`).
    pub name: String,
    /// Head variables as indices into `csp.variables` (may repeat).
    pub head: Vec<VarId>,
    /// The body: one variable per query variable, one constraint per
    /// atom; its constraint hypergraph is the query hypergraph.
    pub csp: Csp,
    /// Interned domain values, `values[v]` rendering value `v`. `None`
    /// for queries built from a raw CSP, which render numerically.
    pub values: Option<Vec<String>>,
    /// `true` iff a variable-free atom failed its guard: the query is
    /// false regardless of the data.
    pub trivially_false: bool,
}

impl Query {
    /// Wraps a raw CSP as the trivial query `Q(all vars) :- body` —
    /// `htd solve` routes through the answering pipeline with this.
    pub fn from_csp(csp: Csp) -> Query {
        Query {
            name: "Q".into(),
            head: (0..csp.num_vars()).collect(),
            csp,
            values: None,
            trivially_false: false,
        }
    }

    /// Renders a domain value for output.
    pub fn render_value(&self, v: Value) -> String {
        match &self.values {
            Some(vals) => vals
                .get(v as usize)
                .cloned()
                .unwrap_or_else(|| v.to_string()),
            None => v.to_string(),
        }
    }

    /// Head variable names, in head order.
    pub fn head_names(&self) -> Vec<String> {
        self.head
            .iter()
            .map(|&v| self.csp.variables[v as usize].clone())
            .collect()
    }

    /// `true` iff every body variable appears in the head, i.e. the
    /// query is a full join with no projection (the fast count path).
    pub fn head_covers_all_vars(&self) -> bool {
        let mut seen = vec![false; self.csp.variables.len()];
        for &v in &self.head {
            seen[v as usize] = true;
        }
        seen.iter().all(|&s| s)
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

/// A token; names, numbers and strings borrow the input, and only a
/// string holding an escaped quote owns its text.
#[derive(Clone, Debug, PartialEq)]
enum Tok<'t> {
    Ident(&'t str),
    Num(&'t str),
    Str(Cow<'t, str>),
    LParen,
    RParen,
    Comma,
    ColonDash,
    Colon,
    Semi,
    Dot,
    At,
}

impl Tok<'_> {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Num(s) => format!("number '{s}'"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::Comma => "','".into(),
            Tok::ColonDash => "':-'".into(),
            Tok::Colon => "':'".into(),
            Tok::Semi => "';'".into(),
            Tok::Dot => "'.'".into(),
            Tok::At => "'@'".into(),
        }
    }
}

fn parse_err(msg: impl Into<String>) -> HtdError {
    HtdError::Parse(msg.into())
}

/// Splits `text` into tokens, walking bytes: every byte the grammar
/// reacts to is ASCII, and a byte of a multi-byte UTF-8 sequence is never
/// ASCII, so only a non-ASCII character is decoded (to test it for
/// whitespace and letters).
fn tokenize(text: &str) -> Result<Vec<Tok<'_>>, HtdError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let punct = match b {
            b'(' => Some(Tok::LParen),
            b')' => Some(Tok::RParen),
            b',' => Some(Tok::Comma),
            b';' => Some(Tok::Semi),
            b'.' => Some(Tok::Dot),
            b'@' => Some(Tok::At),
            b':' if bytes.get(i + 1) == Some(&b'-') => {
                i += 1;
                Some(Tok::ColonDash)
            }
            b':' => Some(Tok::Colon),
            _ => None,
        };
        if let Some(tok) = punct {
            toks.push(tok);
            i += 1;
            continue;
        }
        match b {
            b' ' | b'\t'..=b'\r' => i += 1,
            b'%' | b'#' => {
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n);
            }
            b'"' => {
                let (s, end) = string(text, i + 1)?;
                toks.push(Tok::Str(s));
                i = end;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                if b == b'-' {
                    i += 1;
                    if !bytes.get(i).is_some_and(u8::is_ascii_digit) {
                        return Err(parse_err("'-' must start a number"));
                    }
                }
                while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                toks.push(Tok::Num(&text[start..i]));
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                let end = ident_end(text, i + 1);
                toks.push(Tok::Ident(&text[i..end]));
                i = end;
            }
            0x80..=0xff => {
                let c = text[i..].chars().next().expect("i is a char boundary");
                if c.is_whitespace() {
                    i += c.len_utf8();
                } else if c.is_alphabetic() {
                    let end = ident_end(text, i + c.len_utf8());
                    toks.push(Tok::Ident(&text[i..end]));
                    i = end;
                } else {
                    return Err(parse_err(format!("unexpected character '{c}'")));
                }
            }
            _ => return Err(parse_err(format!("unexpected character '{}'", b as char))),
        }
    }
    Ok(toks)
}

/// The end of the identifier whose remaining characters start at `i`:
/// letters, digits and `_`.
fn ident_end(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            i += 1;
        } else if b >= 0x80 {
            match text[i..].chars().next() {
                Some(c) if c.is_alphanumeric() => i += c.len_utf8(),
                _ => break,
            }
        } else {
            break;
        }
    }
    i
}

/// The string literal whose text starts at `start` (after its opening
/// quote), and the position after its closing quote. `\"` is the one
/// escape; the text is copied only when it holds one.
fn string(text: &str, start: usize) -> Result<(Cow<'_, str>, usize), HtdError> {
    let bytes = text.as_bytes();
    let mut owned: Option<String> = None;
    let (mut run, mut i) = (start, start);
    loop {
        match bytes.get(i) {
            None => return Err(parse_err("unterminated string literal")),
            Some(b'"') => break,
            Some(b'\\') if bytes.get(i + 1) == Some(&b'"') => {
                let s = owned.get_or_insert_with(String::new);
                s.push_str(&text[run..i]);
                s.push('"');
                i += 2;
                run = i;
            }
            Some(_) => i += 1,
        }
    }
    let s = match owned {
        None => Cow::Borrowed(&text[start..i]),
        Some(mut s) => {
            s.push_str(&text[run..i]);
            Cow::Owned(s)
        }
    };
    Ok((s, i + 1))
}

// ---------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Term<'t> {
    Var(&'t str),
    Const(Cow<'t, str>),
}

#[derive(Clone, Debug)]
struct Atom<'t> {
    relation: &'t str,
    terms: Vec<Term<'t>>,
}

#[derive(Clone, Debug)]
struct Rule<'t> {
    name: &'t str,
    head: Vec<&'t str>,
    body: Vec<Atom<'t>>,
}

/// A relation's rows as read, values not yet interned: one buffer of
/// values, and where each row ends in it.
#[derive(Default)]
struct Rows<'t> {
    values: Vec<Cow<'t, str>>,
    ends: Vec<usize>,
}

impl<'t> Rows<'t> {
    fn push(&mut self, v: Cow<'t, str>) {
        self.values.push(v);
    }

    /// `true` iff no value was pushed since the last row ended.
    fn row_is_empty(&self) -> bool {
        self.ends.last().copied().unwrap_or(0) == self.values.len()
    }

    /// Ends the row of the values pushed since the last one.
    fn end_row(&mut self) {
        self.ends.push(self.values.len());
    }

    /// The number of values of each row, in order.
    fn arities(&self) -> impl Iterator<Item = usize> + '_ {
        self.ends
            .iter()
            .scan(0, |start, &end| Some(end - std::mem::replace(start, end)))
    }
}

struct Parser<'t> {
    toks: Vec<Tok<'t>>,
    pos: usize,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> Option<&Tok<'t>> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok<'t>, HtdError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| parse_err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Tok) -> Result<(), HtdError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(parse_err(format!(
                "expected {} but found {}",
                want.describe(),
                got.describe()
            )))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'t str, HtdError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(parse_err(format!(
                "expected {what} but found {}",
                other.describe()
            ))),
        }
    }

    /// `Name(term, ...)`, with `Name` already consumed.
    fn atom_tail(&mut self, relation: &'t str, allow_consts: bool) -> Result<Atom<'t>, HtdError> {
        self.expect(Tok::LParen)?;
        let mut terms = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.next()?;
            return Ok(Atom { relation, terms });
        }
        loop {
            match self.next()? {
                Tok::Ident(v) => terms.push(Term::Var(v)),
                Tok::Num(n) if allow_consts => terms.push(Term::Const(Cow::Borrowed(n))),
                Tok::Str(s) if allow_consts => terms.push(Term::Const(s)),
                other if allow_consts => {
                    return Err(parse_err(format!(
                        "expected a variable or constant but found {}",
                        other.describe()
                    )))
                }
                other => {
                    return Err(parse_err(format!(
                        "head terms must be variables, found {}",
                        other.describe()
                    )))
                }
            }
            match self.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => {
                    return Err(parse_err(format!(
                        "expected ',' or ')' in term list but found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Atom { relation, terms })
    }

    /// `Head(vars) :- Atom, Atom, ... .` with the head name consumed.
    fn rule_tail(&mut self, name: &'t str) -> Result<Rule<'t>, HtdError> {
        let head_atom = self.atom_tail(name, false)?;
        let head = head_atom
            .terms
            .into_iter()
            .map(|t| match t {
                Term::Var(v) => v,
                Term::Const(_) => unreachable!("head parsed with allow_consts=false"),
            })
            .collect();
        self.expect(Tok::ColonDash)?;
        let mut body = Vec::new();
        loop {
            let rel = self.ident("a relation name")?;
            let atom = self.atom_tail(rel, true)?;
            if atom.terms.is_empty() {
                return Err(parse_err(format!(
                    "body atom {} needs at least one term",
                    atom.relation
                )));
            }
            body.push(atom);
            match self.next()? {
                Tok::Comma => continue,
                Tok::Dot => break,
                other => {
                    return Err(parse_err(format!(
                        "expected ',' or '.' after an atom but found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Rule { name, head, body })
    }

    /// `Name: v v ; v v .` with name and `:` consumed.
    fn relation_tail(&mut self) -> Result<Rows<'t>, HtdError> {
        let mut rows = Rows::default();
        loop {
            match self.next()? {
                Tok::Ident(v) | Tok::Num(v) => rows.push(Cow::Borrowed(v)),
                Tok::Str(v) => rows.push(v),
                Tok::Semi => {
                    if rows.row_is_empty() {
                        return Err(parse_err("empty tuple before ';'"));
                    }
                    rows.end_row();
                }
                Tok::Dot => {
                    if !rows.row_is_empty() {
                        rows.end_row();
                    }
                    return Ok(rows);
                }
                other => {
                    return Err(parse_err(format!(
                        "expected a value, ';' or '.' in relation data but found {}",
                        other.describe()
                    )))
                }
            }
        }
    }
}

/// Reads a whitespace-separated tuples file (one tuple per line,
/// `%`/`#` comments).
fn parse_tuples_file(text: &str) -> Rows<'static> {
    let mut rows = Rows::default();
    for line in text.lines() {
        let data = line.split(['%', '#']).next().unwrap_or("");
        for v in data.split_whitespace() {
            rows.push(Cow::Owned(v.to_string()));
        }
        if !rows.row_is_empty() {
            rows.end_row();
        }
    }
    rows
}

fn load_relation_file(path: &str, files: &FileAccess) -> Result<Rows<'static>, HtdError> {
    let base = match files {
        FileAccess::Deny => {
            return Err(HtdError::Unsupported(
                "file-referenced relations are not allowed here".into(),
            ))
        }
        FileAccess::Allow { base } => base,
    };
    let p = Path::new(path);
    let resolved = if p.is_absolute() {
        p.to_path_buf()
    } else {
        base.join(p)
    };
    let text = std::fs::read_to_string(&resolved)
        .map_err(|e| HtdError::Io(format!("{}: {e}", resolved.display())))?;
    Ok(parse_tuples_file(&text))
}

// ---------------------------------------------------------------------
// Compilation into a CSP
// ---------------------------------------------------------------------

/// Domain values in order of first sighting; the index borrows the
/// parsed text, so only a new value is copied (into `values`).
#[derive(Default)]
struct Interner<'r> {
    values: Vec<String>,
    index: HashMap<&'r str, Value>,
}

impl<'r> Interner<'r> {
    fn intern(&mut self, s: &'r str) -> Value {
        let next = self.values.len() as Value;
        let v = *self.index.entry(s).or_insert(next);
        if v == next {
            self.values.push(s.to_string());
        }
        v
    }
}

fn invalid(msg: impl Into<String>) -> HtdError {
    HtdError::Invalid(msg.into())
}

/// What one position of an atom asks of a tuple.
enum Check {
    /// Equal this constant.
    Const(Value),
    /// Equal the value at this earlier position (a repeated variable).
    SameAs(usize),
    /// Nothing: the first occurrence of a variable.
    Free,
}

fn compile(rule: &Rule, relations: &HashMap<&str, Rows>) -> Result<Query, HtdError> {
    let mut interner = Interner::default();
    // each relation's interned rows, row-major, interned at its first atom
    let mut interned: HashMap<&str, Vec<Value>> = HashMap::new();
    let mut var_ids: HashMap<&str, VarId> = HashMap::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut trivially_false = false;

    for (ai, atom) in rule.body.iter().enumerate() {
        let data = relations
            .get(atom.relation)
            .ok_or_else(|| invalid(format!("unknown relation '{}'", atom.relation)))?;
        let arity = atom.terms.len();
        if let Some(len) = data.arities().find(|&len| len != arity) {
            return Err(invalid(format!(
                "relation '{}' has a tuple of arity {len} but the atom uses arity {arity}",
                atom.relation,
            )));
        }
        let tuples: &[Value] = interned
            .entry(atom.relation)
            .or_insert_with(|| data.values.iter().map(|v| interner.intern(v)).collect());

        // selection plan: for each position, either the constant it must
        // equal, or the position of the variable's first occurrence.
        let mut first_pos: HashMap<&str, usize> = HashMap::new();
        let mut keep: Vec<usize> = Vec::new(); // first-occurrence var positions
        let mut scope: Vec<VarId> = Vec::new();
        let mut checks: Vec<Check> = Vec::new();
        for (p, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => checks.push(Check::Const(interner.intern(c))),
                &Term::Var(v) => match first_pos.get(v) {
                    Some(&fp) => checks.push(Check::SameAs(fp)),
                    None => {
                        first_pos.insert(v, p);
                        keep.push(p);
                        let id = *var_ids.entry(v).or_insert_with(|| {
                            var_names.push(v.to_string());
                            (var_names.len() - 1) as VarId
                        });
                        scope.push(id);
                        checks.push(Check::Free);
                    }
                },
            }
        }

        // the kept columns of every row that passes the checks, gathered
        let mut projected: Vec<Value> = Vec::new();
        let mut passed = 0;
        'tuple: for t in tuples.chunks_exact(arity) {
            for (p, check) in checks.iter().enumerate() {
                match check {
                    Check::Const(c) if t[p] != *c => continue 'tuple,
                    Check::SameAs(fp) if t[p] != t[*fp] => continue 'tuple,
                    _ => {}
                }
            }
            projected.extend(keep.iter().map(|&p| t[p]));
            passed += 1;
        }

        if scope.is_empty() {
            // all-constant atom: a guard, not a constraint
            if passed == 0 {
                trivially_false = true;
            }
            continue;
        }
        // set semantics: duplicates would inflate counts downstream
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(passed);
        let rows: Vec<Vec<Value>> = projected
            .chunks_exact(keep.len())
            .filter(|&t| seen.insert(t))
            .map(<[Value]>::to_vec)
            .collect();
        constraints.push(Constraint::new(
            format!("{}@{ai}", atom.relation),
            scope,
            rows,
        ));
    }

    let head: Vec<VarId> =
        rule.head
            .iter()
            .map(|v| {
                var_ids.get(v).copied().ok_or_else(|| {
                    invalid(format!("head variable '{v}' does not appear in the body"))
                })
            })
            .collect::<Result<_, _>>()?;

    let domain = (interner.values.len() as u32).max(1);
    let mut csp = Csp {
        variables: var_names,
        domain_sizes: Vec::new(),
        constraints: Vec::new(),
    };
    csp.domain_sizes = vec![domain; csp.variables.len()];
    for c in constraints {
        csp.add_constraint(c);
    }

    Ok(Query {
        name: rule.name.to_string(),
        head,
        csp,
        values: Some(interner.values),
        trivially_false,
    })
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

fn parse_program<'t>(
    text: &'t str,
    files: &FileAccess,
    extra_relations: HashMap<&'t str, Rows<'t>>,
) -> Result<Query, HtdError> {
    let mut parser = Parser {
        toks: tokenize(text)?,
        pos: 0,
    };
    let mut rule: Option<Rule> = None;
    let mut relations = extra_relations;
    while parser.peek().is_some() {
        let name = parser.ident("a rule or relation name")?;
        match parser.next()? {
            Tok::LParen => {
                parser.pos -= 1; // rule_tail re-reads the '('
                if rule.is_some() {
                    return Err(parse_err("a program may contain only one rule"));
                }
                rule = Some(parser.rule_tail(name)?);
            }
            Tok::Colon => {
                let rows = parser.relation_tail()?;
                if relations.insert(name, rows).is_some() {
                    return Err(parse_err(format!("relation '{name}' defined twice")));
                }
            }
            Tok::At => {
                let path = match parser.next()? {
                    Tok::Str(p) => p,
                    other => {
                        return Err(parse_err(format!(
                            "expected a quoted file path after '@' but found {}",
                            other.describe()
                        )))
                    }
                };
                parser.expect(Tok::Dot)?;
                let rows = load_relation_file(&path, files)?;
                if relations.insert(name, rows).is_some() {
                    return Err(parse_err(format!("relation '{name}' defined twice")));
                }
            }
            other => {
                return Err(parse_err(format!(
                    "expected '(', ':' or '@' after '{name}' but found {}",
                    other.describe()
                )))
            }
        }
    }
    let rule = rule.ok_or_else(|| parse_err("no query rule found (expected `Q(...) :- ...`)"))?;
    compile(&rule, &relations)
}

fn json_literal(v: &Json) -> Result<Cow<'_, str>, HtdError> {
    match v {
        Json::Str(s) => Ok(Cow::Borrowed(s)),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                Ok(Cow::Owned(format!("{}", *n as i64)))
            } else {
                Ok(Cow::Owned(n.to_string()))
            }
        }
        Json::U64(n) => Ok(Cow::Owned(n.to_string())),
        Json::Bool(b) => Ok(Cow::Owned(b.to_string())),
        other => Err(invalid(format!(
            "relation values must be numbers or strings, found {other}"
        ))),
    }
}

fn parse_json_query(text: &str, files: &FileAccess) -> Result<Query, HtdError> {
    let json = Json::parse(text)?;
    let query_text = json
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| parse_err("JSON query needs a string 'query' field"))?;
    let mut relations: HashMap<&str, Rows> = HashMap::new();
    if let Some(Json::Obj(entries)) = json.get("relations") {
        for (name, rel) in entries {
            let tuples = match rel {
                Json::Arr(tuples) => tuples,
                _ => {
                    return Err(invalid(format!(
                        "relation '{name}' must be an array of tuples"
                    )))
                }
            };
            let mut rows = Rows::default();
            for tuple in tuples {
                let vals = match tuple {
                    Json::Arr(vals) => vals,
                    _ => {
                        return Err(invalid(format!(
                            "relation '{name}' must contain tuples (arrays)"
                        )))
                    }
                };
                for v in vals {
                    rows.push(json_literal(v)?);
                }
                rows.end_row();
            }
            relations.insert(name.as_str(), rows);
        }
    }
    parse_program(query_text, files, relations)
}

/// Parses a conjunctive query in the text or JSON format (sniffed by the
/// leading character) into a [`Query`].
pub fn parse_query(text: &str, files: &FileAccess) -> Result<Query, HtdError> {
    if text.trim_start().starts_with('{') {
        parse_json_query(text, files)
    } else {
        parse_program(text, files, HashMap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> Query {
        parse_query(text, &FileAccess::Deny).expect("query parses")
    }

    #[test]
    fn parses_path_query() {
        let query = q("Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 2 5 .\nS: 5 7 .");
        assert_eq!(query.name, "Q");
        assert_eq!(query.head_names(), vec!["x", "y"]);
        assert_eq!(query.csp.variables, vec!["x", "z", "y"]);
        assert_eq!(query.csp.constraints.len(), 2);
        assert!(!query.head_covers_all_vars());
        // hypergraph = query hypergraph: 3 vertices, 2 edges
        let h = query.csp.hypergraph();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn constants_become_selections() {
        let query = q("Q(x) :- R(x, 2).\nR: 1 2 ; 3 4 .");
        let c = &query.csp.constraints[0];
        assert_eq!(c.scope.len(), 1);
        assert_eq!(c.tuples.len(), 1); // only (1, 2) survives
        assert_eq!(query.render_value(c.tuples[0][0]), "1");
    }

    #[test]
    fn repeated_variables_select_equal_columns() {
        let query = q("Q(x) :- R(x, x).\nR: 1 1 ; 1 2 ; 3 3 .");
        let c = &query.csp.constraints[0];
        assert_eq!(c.scope.len(), 1);
        assert_eq!(c.tuples.len(), 2); // (1,1) and (3,3)
    }

    #[test]
    fn duplicate_tuples_are_deduplicated() {
        let query = q("Q(x) :- R(x).\nR: 1 ; 1 ; 2 .");
        assert_eq!(query.csp.constraints[0].tuples.len(), 2);
    }

    #[test]
    fn guard_atom_marks_trivially_false() {
        let sat = q("Q(x) :- R(x), S(1).\nR: 1 .\nS: 1 .");
        assert!(!sat.trivially_false);
        let unsat = q("Q(x) :- R(x), S(2).\nR: 1 .\nS: 1 .");
        assert!(unsat.trivially_false);
    }

    #[test]
    fn boolean_head_and_empty_relation() {
        let query = q("Q() :- R(x).\nR: .");
        assert!(query.head.is_empty());
        assert_eq!(query.csp.constraints[0].tuples.len(), 0);
    }

    #[test]
    fn errors_are_structured() {
        let parse = |t: &str| parse_query(t, &FileAccess::Deny).unwrap_err();
        assert!(matches!(parse("Q(x) :- R(x)"), HtdError::Parse(_))); // no '.'
        assert!(matches!(
            parse("Q(x) :- R(x)."), // R never defined
            HtdError::Invalid(_)
        ));
        assert!(matches!(
            parse("Q(y) :- R(x).\nR: 1 ."), // head var not in body
            HtdError::Invalid(_)
        ));
        assert!(matches!(
            parse("Q(x) :- R(x, x).\nR: 1 ."), // arity mismatch
            HtdError::Invalid(_)
        ));
        assert!(matches!(
            parse("Q(x) :- R(x).\nR @ \"f.txt\"."), // files denied
            HtdError::Unsupported(_)
        ));
        assert!(matches!(
            parse("R: 1 ."), // no rule
            HtdError::Parse(_)
        ));
        assert!(matches!(
            parse("Q(x) :- R(x).\nP(y) :- R(y).\nR: 1 ."), // two rules
            HtdError::Parse(_)
        ));
    }

    #[test]
    fn json_form_matches_text_form() {
        let from_json = q(r#"{"query": "Q(x, y) :- R(x, z), S(z, y).",
            "relations": {"R": [[1, 2], [2, 5]], "S": [[5, 7]]}}"#);
        let from_text = q("Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 2 5 .\nS: 5 7 .");
        assert_eq!(from_json.csp.variables, from_text.csp.variables);
        assert_eq!(
            from_json.csp.constraints.len(),
            from_text.csp.constraints.len()
        );
        for (a, b) in from_json
            .csp
            .constraints
            .iter()
            .zip(&from_text.csp.constraints)
        {
            assert_eq!(a.scope, b.scope);
            assert_eq!(a.tuples.len(), b.tuples.len());
        }
    }

    #[test]
    fn file_relations_resolve_against_base() {
        let dir = std::env::temp_dir().join("htd_query_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("edges.txt"), "1 2 % comment\n2 3\n\n# full-line\n").unwrap();
        let query = parse_query(
            "Q(x, y) :- E(x, y).\nE @ \"edges.txt\".",
            &FileAccess::Allow { base: dir.clone() },
        )
        .expect("file relation loads");
        assert_eq!(query.csp.constraints[0].tuples.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comments_and_quoted_values() {
        let query = q("% the query\nQ(x) :- R(x, \"new york\").\nR: \"bos\" \"new york\" .");
        assert_eq!(query.csp.constraints[0].tuples.len(), 1);
        assert_eq!(
            query.render_value(query.csp.constraints[0].tuples[0][0]),
            "bos"
        );
    }

    #[test]
    fn from_csp_is_the_trivial_query() {
        let csp = htd_csp::parse_csp("csp 2 2\ncon neq 0 1 : 0 1 ; 1 0 ;\n").unwrap();
        let query = Query::from_csp(csp);
        assert!(query.head_covers_all_vars());
        assert_eq!(query.render_value(1), "1");
    }
}
