//! `smartmem-json` — the one JSON codec of the SmartMem stack.
//!
//! The graph importer (`smartmem_ir::import`), the Chrome trace codec
//! (`smartmem_telemetry`) and the bench-record gate (`smartmem_bench::json`)
//! all read JSON through [`parse`] and quote strings through
//! [`write_str`]. The crate is `std`-only with no dependencies, so every
//! layer can use it, the telemetry crate included.
//!
//! The parser is strict and safe on untrusted bytes: it rejects raw
//! control bytes in strings, unpaired surrogates, non-finite numbers and
//! nesting deeper than 64 levels, and it reports every failure as a
//! [`JsonError`] carrying the byte offset. Numbers are written by the
//! callers, because each file format spells them its own way.
//!
//! ```
//! use smartmem_json::{parse, write_str, Json};
//!
//! let v = parse(r#"{"name": "a\"b", "dims": [1, 2.5]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b"));
//! assert_eq!(v.get("dims").and_then(Json::as_array).map(<[Json]>::len), Some(2));
//! let mut out = String::new();
//! write_str(&mut out, "a\"b\n");
//! assert_eq!(out, r#""a\"b\n""#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// Maximum nesting depth [`parse`] accepts (guards the recursive
/// parser's stack against `[[[[…` bombs).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep insertion order; with duplicate
/// keys, [`Json::get`] returns the first occurrence.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` pairs in input order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of the first `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value; only whitespace may follow it.
///
/// # Errors
///
/// Returns the byte offset and a description of the first problem.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    Ok(v)
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline, carriage return and tab use their short
/// escapes, and other control characters use `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.bump(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `]` in array"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.bump(); // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected `:` after object key"));
            }
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => s.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(c) if c < 0x80 => s.push(c as char),
                Some(c) => {
                    // Re-decode the UTF-8 sequence starting at `c`.
                    let start = self.pos - 1;
                    let width = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 in string"))?;
                    let text = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    s.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: must be followed by `\uDC00`–`\uDFFF`.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("lone high surrogate in \\u escape"));
            }
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.err("invalid low surrogate in \\u escape"));
            }
            let cp = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&first) {
            Err(self.err("lone low surrogate in \\u escape"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number chars");
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(src: &str) -> JsonError {
        parse(src).expect_err("malformed input parsed")
    }

    #[test]
    fn values_parse_in_order() {
        let v = parse(r#" {"b": [1, -2.5e1, true, null], "a": {"x": "y"}} "#).unwrap();
        let Json::Obj(pairs) = &v else { panic!("not an object: {v:?}") };
        assert_eq!(pairs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["b", "a"]);
        assert_eq!(
            v.get("b").and_then(Json::as_array).unwrap(),
            [Json::Num(1.0), Json::Num(-25.0), Json::Bool(true), Json::Null]
        );
        assert_eq!(v.get("a").and_then(|a| a.get("x")).and_then(Json::as_str), Some("y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(3.0).get("b"), None);
    }

    #[test]
    fn duplicate_keys_keep_the_first() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn deep_nesting_rejected_without_stack_overflow() {
        let e = err(&"[".repeat(10_000));
        assert_eq!(e.msg, "nesting too deep");
        assert_eq!(e.offset, MAX_DEPTH + 1);
        assert!(parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }

    #[test]
    fn truncated_input_is_an_error() {
        let src = r#"{"a": [1, 2, {"b": "text"}], "c": null}"#;
        for cut in 0..src.len() {
            assert!(parse(&src[..cut]).is_err(), "truncation at {cut} parsed");
        }
        assert!(parse(src).is_ok());
    }

    #[test]
    fn errors_carry_the_exact_offset() {
        let e = err(r#"{"a": 1 "b": 2}"#);
        assert_eq!(e, JsonError { offset: 8, msg: "expected `,` or `}` in object".into() });
        assert_eq!(e.to_string(), "JSON parse error at byte 8: expected `,` or `}` in object");
    }

    #[test]
    fn surrogates() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"😀\"").unwrap(), Json::Str("😀".into()));
        assert_eq!(err(r#""\ud83d""#).msg, "lone high surrogate in \\u escape");
        assert_eq!(err(r#""\ud83dA""#).msg, "lone high surrogate in \\u escape");
        assert_eq!(err(r#""\ud83d\u0041""#).msg, "invalid low surrogate in \\u escape");
        assert_eq!(err(r#""\ude00""#).msg, "lone low surrogate in \\u escape");
    }

    #[test]
    fn trailing_data_is_an_error() {
        let e = err("[] x");
        assert_eq!((e.offset, e.msg.as_str()), (3, "trailing data after top-level value"));
        assert!(parse("[] \n\t").is_ok());
    }

    #[test]
    fn strict_grammar() {
        for bad in ["+1", ".5", "1e999", "-", "nul", "\"a\u{1}b\"", r#""\q""#, "{1: 2}", "[1 2]"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn write_str_roundtrips_through_parse() {
        for s in ["", "plain", "q\"b\\s", "\n\r\t\u{8}\u{c}\u{1}", "😀 µs"] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(parse(&out).unwrap(), Json::Str(s.into()), "{out}");
        }
        let mut out = String::from("x=");
        write_str(&mut out, "a\"\n\u{1f}");
        assert_eq!(out, r#"x="a\"\n\u001f""#);
    }
}
