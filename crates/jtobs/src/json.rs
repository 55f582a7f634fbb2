//! The workspace's one JSON layer: a value type, a compact
//! deterministic renderer, a depth-limited parser, and the single
//! string escaper every emitter shares.
//!
//! Every JSON document the workspace writes or reads goes through here:
//! journal JSONL ([`crate::Event::to_json_line`]), the Chrome trace
//! ([`crate::Registry::chrome_trace_json`]), `jtlint --json` findings
//! with their proof evidence, and the `BENCH_*.json` ledgers. Std-only,
//! and compiled whether or not the `telemetry` feature is on.
//!
//! ```
//! use jtobs::json::{self, Json};
//!
//! let v = Json::Obj(vec![("name".into(), "a\"b".into()), ("ts".into(), Json::Float(1.5))]);
//! let text = v.render();
//! assert_eq!(text, r#"{"name":"a\"b","ts":1.5}"#);
//! assert_eq!(json::parse(&text), Ok(v));
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Deeper input is
/// rejected with an error instead of recursing, so an adversarial line
/// cannot overflow the stack.
pub const MAX_DEPTH: usize = 256;

/// A JSON value. Objects keep their keys in insertion order, so
/// rendering is deterministic and byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number.
    Num(i64),
    /// Non-integer number (fraction or exponent, or an integer outside
    /// `i64`). Always renders with a `.` or an exponent, so it parses
    /// back as `Float`; non-finite values render as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Counts, ids and nanosecond stamps; values beyond `i64::MAX` become
/// [`Json::Float`].
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n).map_or(Json::Float(n as f64), Json::Num)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl Json {
    /// Serializes compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            // `Debug` is the shortest round-trip form and always keeps
            // a `.0` or an exponent.
            Json::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string field `key`.
    pub fn str_of(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("expected string field `{key}`")),
        }
    }

    /// The integer field `key` (fractions are rejected).
    pub fn num_of(&self, key: &str) -> Result<i64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("expected number field `{key}`")),
        }
    }

    /// The boolean field `key`.
    pub fn bool_of(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("expected boolean field `{key}`")),
        }
    }

    /// The array field `key`.
    pub fn arr_of(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            _ => Err(format!("expected array field `{key}`")),
        }
    }
}

/// Writes `s` as a quoted JSON string literal.
fn write_str(s: &str, out: &mut String) {
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

/// Parses one JSON value. Arrays and objects nested deeper than
/// [`MAX_DEPTH`] are an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(b, b'[' | b'{') && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
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
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte `{}`", other as char)),
    }
}

/// `-?digits(.digits)?([eE][+-]?digits)?`: an integer that fits `i64`
/// is [`Json::Num`], anything else a finite [`Json::Float`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes[*pos] == b'-' {
        *pos += 1;
    }
    let int_start = *pos;
    let mut ok = digits(pos);
    // JSON forbids leading zeros: a `0` integer part stands alone.
    if bytes.get(int_start) == Some(&b'0') && *pos - int_start > 1 {
        let text = String::from_utf8_lossy(&bytes[start..*pos]);
        return Err(format!("leading zero in `{text}`"));
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos);
        integral = false;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok &= digits(pos);
        integral = false;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad UTF-8")?;
    if !ok {
        return Err(format!("bad number `{text}`"));
    }
    if integral {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Num(n));
        }
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Float(x)),
        _ => Err(format!("bad number `{text}`")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "raw control byte 0x{b:02x} in string at byte {pos}"
                ))
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "bad UTF-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_compact_and_escapes_controls() {
        let v = Json::Obj(vec![
            ("s".into(), "q\"\\\n\r\t\u{1}é".into()),
            ("n".into(), Json::Num(-7)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"s":"q\"\\\n\r\t\u0001é","n":-7,"a":[null,true,false]}"#
        );
        assert_eq!(parse(&v.render()), Ok(v));
    }

    #[test]
    fn floats_keep_their_kind_across_a_round_trip() {
        for x in [0.0, 12.345, 2099361.0, -0.5, 1e-7, 1.5e300, 123456789.123] {
            let text = Json::Float(x).render();
            assert_eq!(parse(&text), Ok(Json::Float(x)), "{text}");
        }
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
        assert_eq!(parse("9223372036854775808"), Ok(Json::Float(9.223372036854776e18)));
        assert_eq!(parse("1E+2"), Ok(Json::Float(100.0)));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "", "[1,", "[1,]", "{}x", "{\"a\" 1}", "1.", "-", "1e", "\"\\x\"", "[1] x", "1e999",
            "nul", "\"unterminated", "{", "\"a\nb\"", "\"tab\there\"", "01", "-01", "[00]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn zeros_and_escaped_controls_still_parse() {
        assert_eq!(parse("0"), Ok(Json::Num(0)));
        assert_eq!(parse("-0"), Ok(Json::Num(0)));
        assert_eq!(parse("0.5"), Ok(Json::Float(0.5)));
        assert_eq!(parse("-0e1"), Ok(Json::Float(-0.0)));
        assert_eq!(parse("[0,10]"), Ok(Json::Arr(vec![Json::Num(0), Json::Num(10)])));
        assert_eq!(parse("\"a\\nb\""), Ok(Json::Str("a\nb".into())));
    }

    #[test]
    fn nesting_is_depth_limited() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }
}
