//! Hand-rolled JSON tree, parser and writer.
//!
//! The workspace runs offline: the vendored `serde` / `serde_derive` crates
//! are no-op shims (see `vendor/README.md`), so the wire format cannot lean
//! on derived (de)serialisers. This module is the actual serialisation
//! layer: a small [`Json`] value tree, a recursive-descent parser with a
//! depth limit, and a deterministic writer. It covers the full JSON grammar
//! (nested values, escapes, `\uXXXX` with surrogate pairs, scientific
//! notation) — the *API surface* is what is deliberately minimal, not the
//! format support.
//!
//! Numbers are `f64` throughout, which is exact for every integer the wire
//! format carries (edge ids, vertex ids, counters up to 2⁵³).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered so output is deterministic.
    Object(Vec<(String, Json)>),
    /// A value already in compact wire form, written verbatim. The wire
    /// encoders return their documents this way; the accessors see nothing
    /// inside one (parse its text to inspect it), and [`parse`] never
    /// produces one.
    Raw(String),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts and
    /// anything above 2⁵³, where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Writes the compact wire form into `out`, formatting numbers straight
    /// into it (no temporary `String` per number or per document).
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            // JSON has no NaN/Infinity; emit null rather than garbage.
            Json::Number(n) if n.is_finite() => write!(out, "{n}"),
            Json::Number(_) => out.write_str("null"),
            Json::String(s) => write_string(s, out),
            Json::Raw(text) => out.write_str(text),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Object(fields) => {
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(key, out)?;
                    out.write_char(':')?;
                    value.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serialises the value to a compact JSON string (so `.to_string()`
    /// yields the wire form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

fn write_string(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0c}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth the parser accepts; beyond this a document is
/// rejected instead of risking a recursion-driven stack overflow on a
/// hostile payload.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document (rejecting trailing garbage).
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut parser = Parser { input, pos: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.input.len() {
        return Err(parser.err("trailing characters after JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal(b"true", Json::Bool(true)),
            Some(b'f') => self.parse_literal(b"false", Json::Bool(false)),
            Some(b'n') => self.parse_literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(fields)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate in string"));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let scalar = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(scalar)
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-decode UTF-8 starting at this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let slice = self
                        .input
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.input[start..self.pos]).expect("number bytes are ASCII");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Number(n))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc2..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf4 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_a_mixed_document_byte_for_byte() {
        let doc = Json::object(vec![
            (
                "floats",
                Json::Array(
                    [
                        0.1,
                        1.0 / 3.0,
                        2.0,
                        -0.0,
                        0.1 + 0.2,
                        1e-7,
                        1e21,
                        6.022_140_76e23,
                        -123.456,
                        9_007_199_254_740_993.0,
                    ]
                    .into_iter()
                    .map(Json::Number)
                    .collect(),
                ),
            ),
            (
                "non_finite",
                Json::Array(
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                        .into_iter()
                        .map(Json::Number)
                        .collect(),
                ),
            ),
            (
                "esc\"aped\tkey",
                Json::String(
                    "q\" b\\ n\n r\r t\t b\u{08} f\u{0c} c\u{01}\u{1f} / é 😀".to_string(),
                ),
            ),
            ("empty", Json::object(vec![("a", Json::Array(Vec::new()))])),
            (
                "flags",
                Json::Array(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
        ]);
        // The wire bytes clients parse: awkward floats keep their shortest
        // round-trip form without exponents, `-0.0` stays `-0`, non-finite
        // values are `null`, and control characters escape.
        let want = r#"{"floats":[0.1,0.3333333333333333,2,-0,0.30000000000000004,0.0000001,1000000000000000000000,602214076000000000000000,-123.456,9007199254740992],"non_finite":[null,null,null],"esc\"aped\tkey":"q\" b\\ n\n r\r t\t b\b f\f c\u0001\u001f / é 😀","empty":{"a":[]},"flags":[true,false,null]}"#;
        assert_eq!(doc.to_string(), want);
    }

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"type":"route","ids":[1,2,3],"p":0.25,"nested":{"ok":true,"none":null},"s":"a\"b\\c\nd"}"#;
        let value = parse(text.as_bytes()).unwrap();
        assert_eq!(value.get("type").unwrap().as_str(), Some("route"));
        assert_eq!(value.get("p").unwrap().as_f64(), Some(0.25));
        assert_eq!(value.get("ids").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            value.get("nested").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        let reparsed = parse(value.to_string().as_bytes()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let value = parse(br#""\u00e9\u20ac\ud83d\ude00\t""#).unwrap();
        assert_eq!(value.as_str(), Some("é€😀\t"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"{\"a\":}",
            b"[1,2,]",
            b"\"unterminated",
            b"01",
            b"1.e5",
            b"nul",
            b"{} extra",
            b"\"\\ud800\"",
            b"[1] [2]",
            &[b'"', 0x01, b'"'],
        ] {
            assert!(parse(bad).is_err(), "{:?} should fail", bad);
        }
    }

    #[test]
    fn rejects_absurd_nesting() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 100));
        doc.extend(std::iter::repeat_n(b']', 100));
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn integers_survive_the_f64_representation() {
        let value = parse(b"9007199254740992").unwrap();
        assert_eq!(value.as_u64(), Some(9_007_199_254_740_992));
        assert_eq!(parse(b"1.5").unwrap().as_u64(), None);
        assert_eq!(parse(b"-1").unwrap().as_u64(), None);
    }
}
