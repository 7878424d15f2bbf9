//! A minimal JSON value type with writer and parser.
//!
//! The workspace has no serde (the build environment vendors its few
//! dependencies), and its JSON needs are small: the CLI's `--format json`
//! emits one object per line, and the bench harness reads those objects
//! back. This module implements exactly RFC 8259 — no extensions, no
//! reflection — with an order-preserving object representation so emitted
//! documents are stable for tests.

use std::fmt;

use crate::error::HtdError;

/// 2^53: every integer up to it is an exact `f64`.
const EXACT_F64: u64 = 1 << 53;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number except an unsigned integer above 2^53, carried as an
    /// `f64` (integers up to 2^53 are exact).
    Num(f64),
    /// An unsigned integer above 2^53, where `f64` would round it:
    /// written digit for digit, and parsed back from such a literal.
    /// [`Json::uint`] picks between this and [`Json::Num`].
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An unsigned integer, exact whatever its size: [`Json::Num`] up to
    /// 2^53, [`Json::U64`] above.
    pub fn uint(x: u64) -> Json {
        if x <= EXACT_F64 {
            Json::Num(x as f64)
        } else {
            Json::U64(x)
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::U64(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            Json::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as u32, if this is a non-negative integral number below
    /// 2^32. A wider value is `None`, never truncated.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|x| u32::try_from(x).ok())
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole string must be one value plus
    /// optional surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, HtdError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(HtdError::Parse(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::U64(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), HtdError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(HtdError::Parse(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, HtdError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(HtdError::Parse(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, HtdError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(HtdError::Parse(format!("bad value at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<Json, HtdError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| HtdError::Parse("non-utf8 number".into()))?;
        if let Ok(x) = text.parse::<u64>() {
            if x > EXACT_F64 {
                return Ok(Json::U64(x));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| HtdError::Parse(format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, HtdError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(HtdError::Parse("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| HtdError::Parse("short \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| HtdError::Parse("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| HtdError::Parse("bad \\u escape".into()))?;
                            // BMP only — sufficient for this workspace's output
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| HtdError::Parse("bad codepoint".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(HtdError::Parse("bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // the run up to the next '"' or '\\': both are ASCII, so
                    // no UTF-8 sequence holds them and the run is a `str`
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, HtdError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(HtdError::Parse(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, HtdError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(HtdError::Parse(format!("bad object at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("width".into(), Json::Num(18.0)),
            ("exact".into(), Json::Bool(true)),
            (
                "order".into(),
                Json::Arr(vec![Json::Num(0.0), Json::Num(2.0)]),
            ),
            ("note".into(), Json::Str("a \"quoted\" line\n".into())),
            ("nothing".into(), Json::Null),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn unsigned_integers_round_trip_exactly() {
        for x in [
            0,
            7,
            EXACT_F64 - 1,
            EXACT_F64,
            EXACT_F64 + 1,
            3u64.pow(34),
            u64::MAX,
        ] {
            let text = Json::uint(x).to_string();
            assert_eq!(text, x.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, Json::uint(x));
            assert_eq!(back.as_u64(), Some(x));
        }
        // up to 2^53 a literal parses to the `f64` variant, as it always did
        assert_eq!(
            Json::parse("9007199254740992").unwrap(),
            Json::Num(2f64.powi(53))
        );
        // past u64 it stays an `f64`
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn parses_whitespace_and_numbers() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5 , 1e3 ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // copying a string once per character used to re-validate the rest
        // of the document, so parsing grew with the square of its length
        let long = "é".repeat(1 << 18);
        let doc = format!("{{\"pad\":\"{long}\\n{long}\",\"k\":1}}");
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(t.elapsed().as_secs_f64() < 1.0, "{:?}", t.elapsed());
        assert_eq!(
            v.get("pad").and_then(Json::as_str),
            Some(&*format!("{long}\n{long}"))
        );
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("\u{1}".into()).to_string();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap(), Json::Str("\u{1}".into()));
    }
}
