//! A small, dependency-free JSON document model.
//!
//! Experiment artifacts (see [`crate::experiment`]) carry their machine
//! readable form as a [`Value`]. The workspace builds in offline
//! environments where registry crates (including serde) cannot be
//! resolved, so this module implements the subset we need from scratch:
//! an order-preserving document tree, a compact and a pretty serializer,
//! and a strict recursive-descent parser used by the integration tests to
//! validate CLI output.
//!
//! # Example
//!
//! ```
//! use accelerator_wall::json::Value;
//!
//! let doc = Value::object([
//!     ("chip", Value::from("GTX 480")),
//!     ("gain", Value::from(3.5)),
//!     ("released", Value::from(true)),
//! ]);
//! let text = doc.pretty();
//! let back = Value::parse(&text).unwrap();
//! assert_eq!(back.get("gain").and_then(Value::as_f64), Some(3.5));
//! ```

use std::fmt;

/// A JSON document: the usual six shapes, with objects preserving
/// insertion order so serialized experiment output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; serialized via Rust's shortest-roundtrip `f64` display.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered key/value map (later duplicates win on lookup parse).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Member lookup on objects; `None` on other shapes or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup on arrays.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// True for `Value::Object`.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// True for `Value::Array`.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Serializes with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => write_seq(out, indent, '[', ']', items.iter(), |v, o, i| {
                v.write(o, i);
            }),
            Value::Object(pairs) => {
                write_seq(out, indent, '{', '}', pairs.iter(), |(k, v), o, i| {
                    write_escaped(o, k);
                    o.push(':');
                    if i.is_some() {
                        o.push(' ');
                    }
                    v.write(o, i);
                });
            }
        }
    }

    /// Parses a strict JSON document (the full input must be one value).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with a byte offset on malformed input.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(f64::from(n))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if n.is_finite() {
        // Rust's f64 Display is shortest-roundtrip and never produces
        // exponents JSON cannot read; integral values print bare.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/Infinity; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(T, &mut String, Option<usize>),
) {
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(item, out, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// A JSON parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts. The server feeds this
/// parser untrusted wire bytes, so recursion depth must be bounded well
/// below the thread's stack budget; no experiment artifact comes close.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err("maximum nesting depth exceeded"))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        self.descend()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped UTF-8 runs wholesale.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: at least one digit, no leading zeros.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
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
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let n = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .ok_or_else(|| self.err("invalid number"))?;
        // `f64::parse` rounds a literal past f64::MAX to infinity, which
        // JSON cannot write back (it renders as `null`).
        if !n.is_finite() {
            return Err(ParseError {
                message: "number out of range".to_string(),
                offset: start,
            });
        }
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::object([
            ("name", Value::from("fig3b")),
            ("r_squared", Value::from(0.93)),
            ("count", Value::from(2613usize)),
            (
                "tags",
                Value::array([Value::from("cpu"), Value::from("gpu")]),
            ),
            (
                "nested",
                Value::object([("ok", Value::from(true)), ("none", Value::Null)]),
            ),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn escapes_and_parses_special_strings() {
        let tricky = "quote\" slash\\ newline\n tab\t unicode\u{1F600}\u{7}";
        let v = Value::from(tricky);
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn numbers_render_json_compatible() {
        assert_eq!(Value::from(5.0).to_string(), "5");
        assert_eq!(Value::from(-0.25).to_string(), "-0.25");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::parse("1.5e3").unwrap().as_f64(), Some(1500.0));
        assert_eq!(Value::parse("-2E-2").unwrap().as_f64(), Some(-0.02));
    }

    #[test]
    fn object_lookup_preserves_order_and_finds_keys() {
        let doc = Value::object([("b", Value::from(2.0)), ("a", Value::from(1.0))]);
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(doc.get("a").and_then(Value::as_f64), Some(1.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\x\"", "nul"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_surrogate_pairs() {
        let v = Value::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_escape_sequences() {
        for bad in [
            "\"\\\"",             // escape at end of input
            "\"\\u12\"",          // truncated \u escape
            "\"\\uzzzz\"",        // non-hex \u escape
            "\"\\ud800\"",        // lone high surrogate
            "\"\\ud800\\n\"",     // high surrogate not followed by \u
            "\"\\ud800\\u0041\"", // high surrogate with non-surrogate low
            "\"\\udc00\"",        // lone low surrogate (char::from_u32 fails)
            "\"\\q\"",            // unknown escape letter
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // The whole escape roster parses back to the right characters.
        let v = Value::parse("\"\\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("\" \\ / \u{8} \u{c} \n \r \t A"));
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in [
            "-", "+1", "01", "-01", "1.", ".5", "1.e3", "1e", "1e+", "1E-", "--1", "0x10", "1..2",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Strictness must not reject valid JSON numbers.
        for (good, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("10", 10.0),
            ("1e0", 1.0),
            ("2E+3", 2000.0),
            ("-1.25e-2", -0.0125),
        ] {
            assert_eq!(Value::parse(good).unwrap().as_f64(), Some(want), "{good}");
        }
    }

    #[test]
    fn rejects_out_of_range_numbers_and_round_trips_the_rest() {
        for (text, offset) in [("1e999", 0), ("-1e999", 0), ("[1, 1e999]", 4)] {
            let err = Value::parse(text).unwrap_err();
            assert_eq!(err.message, "number out of range", "{text}");
            assert_eq!(err.offset, offset, "{text}");
        }
        assert_eq!(
            Value::parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
        // Every accepted document renders back to itself.
        let doc = Value::parse(r#"{"max":1.7976931348623157e308,"tiny":5e-324,"neg":-2.5e-300}"#)
            .unwrap();
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Value::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn bounds_container_nesting_depth() {
        // At the limit: parses fine.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Value::parse(&ok).is_ok());
        // One past the limit: a clean error, not a stack overflow.
        let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting depth"));
        // A hostile megabyte of opens also fails fast.
        let hostile = "[".repeat(1 << 20);
        assert!(Value::parse(&hostile).is_err());
        // Objects count toward the same budget.
        let objs = format!("{}1{}", "{\"k\":[".repeat(80), "]}".repeat(80));
        assert!(Value::parse(&objs).is_err(), "160 levels must exceed 128");
    }
}
