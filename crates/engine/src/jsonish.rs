//! Hand-rolled JSON, shared by every schema the workspace emits
//! (`maglog-profile-v1`, `maglog-explain-v1`, `maglog-bench-v2`).
//!
//! The workspace has no serde by design; before this module each emitter
//! carried its own copy of the escaping and number-formatting helpers.
//! They live here now, together with a small ordered value tree
//! ([`JsonValue`]) whose renderer and parser round-trip — the bench
//! harness builds its documents as trees, and `maglog diff` (and with
//! it the bench baseline gate, which reads v2 documents only) parses
//! them back through [`parse`] via [`crate::diff::parse_document`].

use std::fmt::Write as _;

/// Escape `s` for a JSON string literal (no surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A quoted, escaped JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Render a finite float. Integral values keep a trailing `.0` so the
/// column stays visibly a float across a document.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite value has no JSON rendering");
    if x == x.trunc() {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Render any finite `f64` in Rust's shortest-round-trip form: the
/// output parses back to the identical bit pattern (except `-0.0`, which
/// renders as `-0` and reads back as `-0.0`). This is the formatting the
/// OpenMetrics exposition and the bench percentile columns share —
/// unlike [`json_num`] it does not force a `.0` on integral values, so
/// `2` stays `2`.
pub fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "non-finite value has no exposition rendering");
    format!("{x}")
}

/// An ordered JSON value: objects keep their fields in insertion order,
/// so rendered documents are deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// An integer-rendered number (no `.0`).
    pub fn int(n: u64) -> JsonValue {
        JsonValue::Num(n as f64)
    }

    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Num(x) => {
                // Integral values in the tree render as integers; emitters
                // that want a visible float column go through `json_num`.
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            JsonValue::Str(s) => out.push_str(&json_str(s)),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, level + 1);
                    item.render_into(out, level + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, level);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, level + 1);
                    out.push_str(&json_str(k));
                    out.push_str(": ");
                    v.render_into(out, level + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                indent(out, level);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Parse a JSON document. Strict enough for the schemas we emit
/// ourselves; errors carry a byte offset.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected content at byte {}", *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not produced by our emitters.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one multi-byte UTF-8 character. Decode from a
                // four-byte window, not the whole remaining input — the
                // full-slice validation this used to do made parsing a
                // megabyte-scale trace dump quadratic.
                let end = (*pos + 4).min(bytes.len());
                let window = &bytes[*pos..end];
                let c = match std::str::from_utf8(window) {
                    Ok(s) => s.chars().next(),
                    // A complete char followed by the truncated start of
                    // the next one still decodes from the valid prefix.
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&window[..e.valid_up_to()])
                            .unwrap()
                            .chars()
                            .next()
                    }
                    Err(_) => None,
                };
                let c = c.ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_keeps_float_column_visible() {
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.125), "0.125");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn num_rejects_non_finite() {
        json_num(f64::NAN);
    }

    #[test]
    fn fmt_f64_round_trips_bit_exactly() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            2.0,
            0.1 + 0.2, // the classic non-representable sum
            0.125,
            1e-9,
            123456789e-9,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,          // smallest normal
            f64::MIN_POSITIVE / 4.0,    // subnormal
            f64::MAX,
            u64::MAX as f64,
            std::f64::consts::PI,
        ];
        for x in cases {
            let text = fmt_f64(x);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {text}");
        }
    }

    #[test]
    fn fmt_f64_parses_as_json_number() {
        // Exposition values are also embedded in JSON documents; the
        // shortest form must stay inside JSON's number grammar.
        for x in [0.5, 1e300, 3.125e-9, -42.0] {
            let text = format!("[{}]", fmt_f64(x));
            let v = parse(&text).unwrap();
            assert_eq!(v.as_arr().unwrap()[0].as_f64(), Some(x));
        }
    }

    #[test]
    fn tree_round_trips_through_parse() {
        let doc = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::str("maglog-bench-v2")),
            ("ok".into(), JsonValue::Bool(true)),
            ("n".into(), JsonValue::int(42)),
            ("x".into(), JsonValue::Num(0.5)),
            (
                "items".into(),
                JsonValue::Arr(vec![JsonValue::str("a\nb"), JsonValue::Null]),
            ),
            ("empty".into(), JsonValue::Obj(vec![])),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_accepts_hand_written_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "A"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
