//! JSON: one parser and one writer for every body the system reads or
//! writes — the wire protocol's requests and responses, its SSE payloads
//! and the simulator's report.
//!
//! The parser favours simplicity and robustness over speed: recursive
//! descent with an explicit depth cap (no stack overflow on adversarial
//! nesting), full string-escape handling, and typed errors.
//!
//! The writer appends into one `String` and owns everything but the keys
//! and values: escaping, the number rule (shortest round-trip for finite
//! `f64`s, `null` otherwise), commas and nesting. A body is built by
//! passing keys and values to an [`Object`] or [`Array`] view:
//!
//! ```
//! use ptrider_core::json::{self, Json};
//!
//! let body = json::object(|o| {
//!     o.field("session", 3u64).field("price", 4.5);
//!     o.array("stops", |a| {
//!         a.item(1u32).item(f64::NAN);
//!     });
//! });
//! assert_eq!(body, r#"{"session":3,"price":4.5,"stops":[1,null]}"#);
//! assert_eq!(Json::parse(&body).unwrap().get("session").and_then(Json::as_u64), Some(3));
//! ```

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Nesting beyond this depth is rejected (adversarial inputs).
const MAX_DEPTH: usize = 32;

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for other shapes).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n)
                if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err("object key must be a string".to_string()),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number".to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number {text:?} at offset {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at offset {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are replaced, not combined — the
                        // wire protocol never ships them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the head byte tells the width).
                let width = match bytes[*pos] {
                    b if b < 0x80 => 1,
                    b if b >= 0xF0 => 4,
                    b if b >= 0xE0 => 3,
                    _ => 2,
                };
                let chunk = bytes
                    .get(*pos..*pos + width)
                    .ok_or("truncated UTF-8 sequence")?;
                let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(s);
                *pos += width;
            }
        }
    }
}

/// Renders a whole document whose top level is an object; `f` writes
/// its members.
pub fn object(f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(64);
    write_object(&mut out, f);
    out
}

fn write_object(out: &mut String, f: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    f(&mut Object { out, empty: true });
    out.push('}');
}

fn write_array(out: &mut String, f: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    f(&mut Array { out, empty: true });
    out.push(']');
}

/// The members of an object being written: keys and values only.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Writes `"key":{...}`; `f` writes the nested members.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, f);
        self
    }

    /// Writes `"key":[...]`; `f` writes the items.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        self.key(key);
        write_array(self.out, f);
        self
    }
}

/// The items of an array being written.
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Array<'_> {
    fn comma(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
    }

    /// Writes one item.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        self.comma();
        value.write_json(self.out);
        self
    }

    /// Writes one object item; `f` writes its members.
    pub fn object(&mut self, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.comma();
        write_object(self.out, f);
        self
    }
}

/// A scalar (or a whole [`Json`] tree) the writer can emit.
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_values!(u32, u64, usize);

/// The number rule: finite values in shortest round-trip form, anything
/// else `null` (JSON has no NaN or infinity).
impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

/// Formatted text as a JSON string, escaped and without an intermediate
/// allocation: `o.field("trace", format_args!("{id:016x}"))`.
impl Value for fmt::Arguments<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let _ = Escaped(out).write_fmt(*self);
        out.push('"');
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Value for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(n) => n.write_json(out),
            Json::Str(s) => s.write_json(out),
            Json::Arr(items) => write_array(out, |a| {
                for item in items {
                    a.item(item);
                }
            }),
            Json::Obj(members) => write_object(out, |o| {
                for (key, value) in members {
                    o.field(key, value);
                }
            }),
        }
    }
}

/// Appends `s` with `"`, `\` and control characters escaped; everything
/// else, non-ASCII text included, is copied as is.
fn escape_into(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// A `fmt::Write` sink that escapes what it is given.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_scalars_round_trip() {
        let doc = r#"{"origin": 3, "nested": {"a": [1, 2.5, -3e2]}, "s": "hi\n\"x\"", "b": true, "n": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("origin").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi\n\"x\""));
        let nested = v.get("nested").unwrap().get("a").unwrap();
        match nested {
            Json::Arr(items) => assert_eq!(items[2].as_f64(), Some(-300.0)),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for doc in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "\"open",
            "{'a':1}",
            "01a",
            "nul",
            "{\"a\":1}x",
            "NaN",
        ] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn quote_escapes_controls() {
        let body = object(|o| {
            o.field("s", "a\"b\\c\nd\u{1}é");
        });
        assert_eq!(body, "{\"s\":\"a\\\"b\\\\c\\nd\\u0001é\"}");
        let body = object(|o| {
            o.field("trace", format_args!("{:016x}\"", 0xabcu64));
        });
        assert_eq!(body, "{\"trace\":\"0000000000000abc\\\"\"}");
    }
}
