//! Minimal JSON writing and parsing.
//!
//! The recorder renders every trace event and manifest itself (this crate
//! is dependency-free by design), and the parser exists so tests and the
//! `coop-trace-lint` binary can validate emitted artifacts without pulling
//! a real JSON crate into the workspace.
//!
//! Writing conventions match the vendored `serde_json` shim where output
//! overlaps (two-space pretty indentation, `"key": value` spacing,
//! non-finite floats as `null`) so all workspace JSON looks alike.

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers survive to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so unbounded nesting would overflow the
/// stack; no document this workspace writes nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is not.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first invalid byte, or the
/// first bracket nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not emitted by this crate;
                            // lone surrogates decode to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 scalar (input came in as a &str,
                    // so sequences are well-formed; width from the lead
                    // byte).
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escapes `s` into `out` as a quoted JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` the way the workspace's JSON does: integral values with
/// a trailing `.0`, non-finite values as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// An incremental single-line JSON object writer with stable field order.
///
/// # Example
///
/// ```
/// use coop_telemetry::json::ObjWriter;
/// let mut o = ObjWriter::new();
/// o.str("type", "probe").uint("round", 4);
/// assert_eq!(o.finish(), r#"{"type":"probe","round":4}"#);
/// ```
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjWriter {
    /// Starts an object.
    pub fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let buf = self.key(key);
        write_escaped(buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        let buf = self.key(key);
        let _ = write!(buf, "{value}");
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let buf = self.key(key);
        write_f64(buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an array of unsigned integers.
    pub fn uints(&mut self, key: &str, values: &[u64]) -> &mut Self {
        let buf = self.key(key);
        buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{v}");
        }
        buf.push(']');
        self
    }

    /// Adds a raw, already-serialized JSON fragment.
    pub fn raw(&mut self, key: &str, fragment: &str) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(fragment);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\n"}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        let b = doc.get("b").unwrap();
        assert_eq!(
            b,
            &Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-2.5)])
        );
        assert_eq!(
            doc.get("c").unwrap().get("d").and_then(Json::as_str),
            Some("x\n")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "1 2", "nul", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_named_error() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));

        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut o = ObjWriter::new();
        o.str("name", "a \"quoted\" value")
            .uint("n", 42)
            .f64("pi", 3.25)
            .f64("whole", 4.0)
            .f64("nan", f64::NAN)
            .bool("flag", true)
            .uints("xs", &[1, 2, 3]);
        let text = o.finish();
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("a \"quoted\" value")
        );
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("pi").and_then(Json::as_f64), Some(3.25));
        assert_eq!(doc.get("whole").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("nan"), Some(&Json::Null));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        assert!(
            text.contains("\"whole\":4.0"),
            "integral floats keep .0: {text}"
        );
    }

    #[test]
    fn unicode_and_escape_round_trip() {
        let doc = parse("\"caf\\u00e9 ☕\"").unwrap();
        assert_eq!(doc.as_str(), Some("café ☕"));
    }
}
