//! Hand-rolled JSON Lines encoding and a minimal parser.
//!
//! The workspace has no serializer dependency, so trace records are encoded
//! with a small purpose-built writer and read back with an equally small
//! recursive-descent parser. The encoder emits exactly one JSON object per
//! line; the parser accepts general JSON values so `kdtune report` can read
//! traces regardless of field order.

use crate::{Record, Value};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Returns `s` encoded as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            // JSON has no NaN/Infinity; encode them as null.
            if x.is_finite() {
                // `{x:?}` keeps a trailing `.0` so the value parses back as
                // a float, preserving the F64 variant on round-trip.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(out, s),
    }
}

/// Encodes one [`Record`] as a single JSONL line (no trailing newline).
///
/// Schema: `{"kind":..,"name":..,"t_us":..[,"duration_us":..][,"delta":..]
/// [,"fields":{..}]}`. Optional keys are omitted when absent.
pub fn record_to_jsonl(record: &Record) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"kind\":");
    escape_into(&mut out, record.kind.as_str());
    out.push_str(",\"name\":");
    escape_into(&mut out, record.name);
    out.push_str(",\"t_us\":");
    out.push_str(&record.t_us.to_string());
    if let Some(d) = record.duration_us {
        out.push_str(",\"duration_us\":");
        out.push_str(&d.to_string());
    }
    if let Some(d) = record.delta {
        out.push_str(",\"delta\":");
        out.push_str(&d.to_string());
    }
    if !record.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in record.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            value_into(&mut out, v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their integer/float distinction when
/// possible: numbers without `.`/`e` parse as [`JsonValue::Int`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer-syntax number.
    Int(i64),
    /// Float-syntax number (or integer too large for `i64`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `i64` if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs (later duplicate keys win,
    /// matching the parser).
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// Appends `v` to `out` as JSON text.
///
/// Objects serialize in key order (their storage order). Finite floats use
/// Rust's shortest round-trip `{:?}` form, which always carries a `.` or an
/// exponent and therefore re-parses as [`JsonValue::Float`]; non-finite
/// floats become `null`, matching [`record_to_jsonl`]'s field encoding.
pub fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(n) => out.push_str(&n.to_string()),
        JsonValue::Float(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        JsonValue::Str(s) => escape_into(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self);
        f.write_str(&out)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> JsonValue {
        JsonValue::Int(n)
    }
}

impl From<i32> for JsonValue {
    fn from(n: i32) -> JsonValue {
        JsonValue::Int(n as i64)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> JsonValue {
        JsonValue::Int(n as i64)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        match i64::try_from(n) {
            Ok(v) => JsonValue::Int(v),
            Err(_) => JsonValue::Float(n as f64),
        }
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::from(n as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> JsonValue {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

impl<V: Into<JsonValue>> From<Vec<V>> for JsonValue {
    fn from(items: Vec<V>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound one line of `[` overflows the
/// stack of whatever thread parses it. Every document the workspace
/// writes (the deepest is a `stats` reply) stays far below the bound.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document from `input`, requiring only trailing
/// whitespace after it. Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                // Multi-byte UTF-8: copy the raw bytes through.
                b if b < 0x20 => return Err(self.err("control character in string")),
                b if b < 0x80 => out.push(b as char),
                b => {
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 sequence")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Convenience for trace readers: parses one JSONL line into `(kind, name,
/// object)`; returns `None` for lines that are not record objects.
pub fn parse_record_line(line: &str) -> Option<(String, String, JsonValue)> {
    let v = parse(line).ok()?;
    let kind = v.get("kind")?.as_str()?.to_owned();
    let name = v.get("name")?.as_str()?.to_owned();
    Some((kind, name, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordKind;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{01}"), "\"\\u0001\"");
        assert_eq!(escape("héllo"), "\"héllo\"");
    }

    #[test]
    fn record_round_trips_through_parser() {
        let rec = Record {
            kind: RecordKind::Event,
            name: "tuner.measurement",
            t_us: 12345,
            duration_us: None,
            delta: None,
            fields: vec![
                ("iteration", Value::U64(7)),
                ("cost", Value::F64(0.125)),
                ("note", Value::Str("a \"quoted\"\nnote".into())),
                ("ok", Value::Bool(true)),
                ("signed", Value::I64(-3)),
            ],
        };
        let line = record_to_jsonl(&rec);
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("event"));
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("tuner.measurement")
        );
        assert_eq!(parsed.get("t_us").unwrap().as_u64(), Some(12345));
        let fields = parsed.get("fields").unwrap();
        assert_eq!(fields.get("iteration").unwrap().as_u64(), Some(7));
        assert_eq!(fields.get("cost").unwrap().as_f64(), Some(0.125));
        assert_eq!(
            fields.get("note").unwrap().as_str(),
            Some("a \"quoted\"\nnote")
        );
        assert_eq!(fields.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(fields.get("signed").unwrap().as_i64(), Some(-3));
    }

    #[test]
    fn span_record_keeps_duration() {
        let rec = Record {
            kind: RecordKind::Span,
            name: "kdtree.build",
            t_us: 99,
            duration_us: Some(421),
            delta: None,
            fields: vec![],
        };
        let line = record_to_jsonl(&rec);
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("duration_us").unwrap().as_u64(), Some(421));
        assert!(parsed.get("fields").is_none());
        assert!(parsed.get("delta").is_none());
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let rec = Record {
            kind: RecordKind::Event,
            name: "e",
            t_us: 0,
            duration_us: None,
            delta: None,
            fields: vec![("bad", Value::F64(f64::NAN))],
        };
        let parsed = parse(&record_to_jsonl(&rec)).unwrap();
        assert_eq!(
            parsed.get("fields").unwrap().get("bad"),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v = parse(r#"{"a":[1,2.5,{"b":null}],"c":"x"}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Array(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], JsonValue::Int(1));
        assert_eq!(arr[1], JsonValue::Float(2.5));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} junk").is_err());
        assert!(parse("\"\\u0041\"").unwrap().as_str() == Some("A"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Arrays and objects share one budget.
        let mixed = |n: usize| "[".repeat(n) + &objects(1) + &"]".repeat(n);
        assert!(parse(&mixed(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&mixed(MAX_DEPTH)).is_err());
        // A run far past the bound fails instead of overflowing the stack.
        assert!(parse(&"[".repeat(60_000)).is_err());
    }

    #[test]
    fn serializer_round_trips_nested_values() {
        let v = JsonValue::object([
            (
                "arr",
                JsonValue::Array(vec![
                    JsonValue::Int(-3),
                    JsonValue::Float(2.5),
                    JsonValue::Null,
                    JsonValue::Str("a \"q\"\n好".into()),
                ]),
            ),
            ("nested", JsonValue::object([("k", JsonValue::Bool(true))])),
            ("big", JsonValue::Int(i64::MIN)),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // Serialization is stable: a second round trip is textual identity.
        assert_eq!(parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn serializer_keeps_int_float_distinction() {
        assert_eq!(JsonValue::Int(3).to_string(), "3");
        assert_eq!(JsonValue::Float(3.0).to_string(), "3.0");
        assert_eq!(parse("3.0").unwrap(), JsonValue::Float(3.0));
        assert_eq!(parse("3").unwrap(), JsonValue::Int(3));
        // Non-finite floats degrade to null, like record_to_jsonl fields.
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn from_conversions_pick_lossless_variants() {
        assert_eq!(JsonValue::from(7u64), JsonValue::Int(7));
        assert_eq!(JsonValue::from(u64::MAX), JsonValue::Float(u64::MAX as f64));
        assert_eq!(JsonValue::from("s"), JsonValue::Str("s".into()));
        assert_eq!(JsonValue::from(true).as_bool(), Some(true));
        assert_eq!(
            JsonValue::from(vec![1i64, 2]),
            JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Int(2)])
        );
    }

    #[test]
    fn parse_record_line_extracts_kind_and_name() {
        let (kind, name, v) =
            parse_record_line(r#"{"kind":"counter","name":"tasks","t_us":1,"delta":4}"#).unwrap();
        assert_eq!(kind, "counter");
        assert_eq!(name, "tasks");
        assert_eq!(v.get("delta").unwrap().as_i64(), Some(4));
        assert!(parse_record_line("not json").is_none());
        assert!(parse_record_line("[1,2]").is_none());
    }
}
