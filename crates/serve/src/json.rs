//! A minimal JSON reader/writer for the wire protocol.
//!
//! The build environment resolves crates offline, so `serde_json` is not
//! available; this module implements the subset the line protocol needs:
//! objects, arrays, strings (with standard escapes), IEEE-754 doubles,
//! booleans and null. Numbers are rendered with Rust's shortest
//! round-trip `f64` formatting, so portfolio weights survive a
//! serialize → parse cycle **bitwise** — the property the round-trip
//! integration test relies on.
//!
//! ```
//! use cit_serve::json::Json;
//!
//! let v = Json::parse(r#"{"op":"decide","weights":[0.25,0.75]}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("decide"));
//! let w: Vec<f64> = v.get("weights").unwrap().as_f64_array().unwrap();
//! assert_eq!(w, vec![0.25, 0.75]);
//! assert_eq!(Json::from(w).render(), "[0.25,0.75]");
//! ```

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as an `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs (no deduplication —
    /// the protocol never repeats keys).
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of numbers as a `Vec<f64>` (`None` if any element is not
    /// a number).
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Json::as_f64).collect()
    }

    /// A nested array of numbers (`[[...], ...]`) as rows of `f64`.
    pub fn as_f64_matrix(&self) -> Option<Vec<Vec<f64>>> {
        self.as_array()?.iter().map(Json::as_f64_array).collect()
    }

    /// Renders the value as compact JSON (no whitespace).
    ///
    /// Numbers use Rust's shortest round-trip formatting; non-finite
    /// numbers (which the protocol never produces) render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos)?;
        finish(text.as_bytes(), pos)?;
        Ok(value)
    }

    /// [`Json::parse`] for a line that carries one large matrix. When
    /// `text` is an object whose first member named `key` is an array of
    /// number rows, that member is decoded straight into rows and left
    /// out of the returned tree, so its numbers never become `Json`
    /// values. Any other value of `key` stays in the tree, and
    /// acceptance, values and error text are those of [`Json::parse`].
    pub(crate) fn parse_with_rows(text: &str, key: &str) -> Result<ValueWithRows, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let parsed = if bytes.get(pos) == Some(&b'{') {
            parse_object(text, &mut pos, Some(key))?
        } else {
            (parse_value(text, &mut pos)?, None)
        };
        finish(bytes, pos)?;
        Ok(parsed)
    }
}

/// Rejects anything but whitespace after the top-level value.
fn finish(bytes: &[u8], mut pos: usize) -> Result<(), String> {
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(())
}

fn render_string(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

// The parser steps `pos` over whole characters only (every byte it
// matches singly is ASCII, and string runs end at an ASCII byte), so
// `pos` is always on a character boundary and `text` can be sliced at it.

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => Ok(parse_object(text, pos, None)?.0),
        Some(b'[') => parse_array(text, pos),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Scans the text of one number: an optional `-`, then every byte of
/// `[0-9.eE+-]`. The text may be empty or malformed; `str::parse::<f64>`
/// decides. Every number, in the tree and in rows, is read this way.
fn number_text<'a>(text: &'a str, pos: &mut usize) -> &'a str {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    &text[start..*pos]
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let text = number_text(text, pos);
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// Decodes an array of number rows (`[[1,2],[3]]`) straight into
/// `Vec<Vec<f64>>`. Returns `None` at the first byte that does not fit
/// such a matrix: another kind of value, a number `str::parse` refuses,
/// a missing separator or the end of input. `pos` is then somewhere
/// inside the value, and the caller re-reads the value from its start
/// with [`parse_value`], which builds it or reports the error.
fn parse_rows(text: &str, pos: &mut usize) -> Option<Vec<Vec<f64>>> {
    let bytes = text.as_bytes();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    if open_array(bytes, pos)? {
        return Some(rows);
    }
    loop {
        skip_ws(bytes, pos);
        // Rows of one matrix are usually equally wide.
        let mut row = Vec::with_capacity(rows.last().map_or(0, Vec::len));
        if !open_array(bytes, pos)? {
            loop {
                skip_ws(bytes, pos);
                if matches!(bytes.get(*pos)?, b'{' | b'[' | b'"' | b't' | b'f' | b'n') {
                    return None;
                }
                row.push(number_text(text, pos).parse::<f64>().ok()?);
                if close_or_comma(bytes, pos)? {
                    break;
                }
            }
        }
        rows.push(row);
        if close_or_comma(bytes, pos)? {
            return Some(rows);
        }
    }
}

/// Consumes `[` and, when the array is empty, its `]` (`Some(true)`).
fn open_array(bytes: &[u8], pos: &mut usize) -> Option<bool> {
    if bytes.get(*pos) != Some(&b'[') {
        return None;
    }
    *pos += 1;
    skip_ws(bytes, pos);
    let empty = bytes.get(*pos) == Some(&b']');
    if empty {
        *pos += 1;
    }
    Some(empty)
}

/// Consumes the `,` (`Some(false)`) or `]` (`Some(true)`) after an
/// array element.
fn close_or_comma(bytes: &[u8], pos: &mut usize) -> Option<bool> {
    skip_ws(bytes, pos);
    let closed = match bytes.get(*pos)? {
        b',' => false,
        b']' => true,
        _ => return None,
    };
    *pos += 1;
    Some(closed)
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
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
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        // Surrogate pairs are not needed by this protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote or
                // backslash (both ASCII, so the run ends on a boundary).
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                out.push_str(&text[*pos..*pos + run]);
                *pos += run;
            }
        }
    }
}

fn parse_array(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

/// A parsed value and the rows decoded out of it.
type ValueWithRows = (Json, Option<Vec<Vec<f64>>>);

/// Parses an object. With `rows_key`, the first member of that name is
/// tried as rows first (see [`Json::parse_with_rows`]).
fn parse_object(
    text: &str,
    pos: &mut usize,
    mut rows_key: Option<&str>,
) -> Result<ValueWithRows, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    let mut rows = None;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok((Json::Obj(pairs), rows));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        if rows_key == Some(key.as_str()) {
            // `get` finds the first member of a name, so later duplicates
            // stay in the tree.
            rows_key = None;
            let start = *pos;
            skip_ws(bytes, pos);
            rows = parse_rows(text, pos);
            if rows.is_none() {
                *pos = start;
                pairs.push((key, parse_value(text, pos)?));
            }
        } else {
            let value = parse_value(text, pos)?;
            pairs.push((key, value));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok((Json::Obj(pairs), rows));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_f64_bitwise() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            123_456_789.123_456_79,
        ] {
            let rendered = Json::Num(v).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v} via {rendered}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":true}"#).unwrap();
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_usize(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "12x", "[1] extra", ""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn renders_escapes() {
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn matrix_accessor() {
        let v = Json::parse("[[1,2],[3,4]]").unwrap();
        assert_eq!(
            v.as_f64_matrix().unwrap(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        assert!(Json::parse("[[1,\"x\"]]")
            .unwrap()
            .as_f64_matrix()
            .is_none());
    }
}
