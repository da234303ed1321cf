//! A minimal, dependency-free JSON value model with a writer and a
//! recursive-descent parser.
//!
//! The vendored dependency set has no `serde`, so the bench-report pipeline
//! ([`report`](crate::report)) hand-rolls its serialization on top of this
//! module. Scope is deliberately small but *correct*:
//!
//! * Full string escaping on write (`"`, `\`, control characters as
//!   `\u00XX`) and full unescaping on read (all JSON escapes, `\uXXXX`
//!   including UTF-16 surrogate pairs).
//! * Numbers keep u64 integers exact: values written from a [`Json::UInt`]
//!   (seeds, counters) round-trip bit-for-bit instead of passing through
//!   `f64`'s 53-bit mantissa. Floats render via Rust's shortest round-trip
//!   `Display`, so `parse(render(x)) == x` for every finite `f64`.
//! * Objects preserve insertion order (they are association lists, not
//!   maps), which keeps rendered reports stable for golden-file tests.
//!
//! Non-finite floats are not representable in JSON; [`Json::render`] panics
//! on them rather than silently emitting `null` — report metrics are
//! asserted finite upstream.

use std::fmt::Write as _;

/// A parsed or buildable JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without a decimal point; exact for
    /// the full `u64` range (unlike a round-trip through `f64`).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered association list.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Renders the value as compact JSON.
    ///
    /// # Panics
    ///
    /// Panics if the value contains a non-finite number (JSON cannot
    /// represent NaN/∞; report metrics are finite by construction).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Renders the value with `indent`-space indentation per nesting level
    /// — the stable layout the golden-file tests pin.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(indent), 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON cannot represent {x}");
                // Rust's Display for f64 is shortest-round-trip, but renders
                // integral values without a decimal point; keep them valid
                // (they are) and exact.
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.render_into(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    render_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render_into(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters after document", pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` ([`Json::UInt`] converts; may round above 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an exact `u64` (floats only when integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(message: impl Into<String>, offset: usize) -> JsonError {
    JsonError {
        message: message.into(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(format!("expected '{}'", byte as char), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(err(format!("unexpected byte '{}'", b as char), *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(format!("expected '{word}'"), *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
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
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: a \uXXXX low surrogate must
                            // follow; combine into one scalar value.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(err("lone high surrogate", *pos));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err("invalid low surrogate", *pos));
                            }
                            let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(scalar)
                                .ok_or_else(|| err("invalid surrogate pair", *pos))?
                        } else {
                            char::from_u32(hi).ok_or_else(|| err("lone low surrogate", *pos))?
                        };
                        out.push(c);
                        continue; // `pos` already past the escape.
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err("unescaped control character in string", *pos)),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid; find the next char boundary).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err("invalid UTF-8", *pos))?;
                let c = rest.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err(err("truncated \\u escape", *pos));
    }
    let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| err("bad \\u escape", *pos))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| err("bad \\u escape", *pos))?;
    *pos = end;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(pos) {
        return Err(err("malformed number", start));
    }
    let mut is_int = true;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        is_int = false;
        if !digits(pos) {
            return Err(err("digits required after decimal point", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        is_int = false;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(err("digits required in exponent", *pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII digits");
    // Unsigned integers parse exactly; everything else goes through f64.
    if is_int && !negative {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err("malformed number", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::UInt(0), "0"),
            (Json::UInt(u64::MAX), "18446744073709551615"),
            (Json::Num(-1.5), "-1.5"),
            (Json::Str("a\"b\\c".into()), r#""a\"b\\c""#),
        ] {
            assert_eq!(v.render(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn u64_round_trips_exactly_past_f64_precision() {
        // 2^53 + 1 is not representable in f64; the UInt path keeps it.
        let v = Json::UInt((1u64 << 53) + 1);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn shortest_float_display_round_trips() {
        for x in [0.1, 1e-300, std::f64::consts::PI, -2.2250738585072014e-308] {
            let v = Json::Num(x);
            assert_eq!(Json::parse(&v.render()).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn control_characters_and_unicode_escape_correctly() {
        let s = "tab\there\nnewline \u{1} snowman ☃ emoji 🦀";
        let v = Json::Str(s.into());
        let rendered = v.render();
        assert!(rendered.contains("\\t") && rendered.contains("\\u0001"));
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes decode to one scalar.
        assert_eq!(
            Json::parse(r#""\ud83e\udd80""#).unwrap().as_str(),
            Some("🦀")
        );
    }

    #[test]
    fn nested_structures_round_trip_via_pretty_and_compact() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "b".into(),
                Json::Obj(vec![("empty".into(), Json::Arr(vec![]))]),
            ),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty(2)).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let parsed = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let Json::Obj(fields) = &parsed else {
            panic!("object expected")
        };
        assert_eq!(fields[0].0, "z");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            r#"{"a" 1}"#,
            "tru",
            "1.2.3",
            "-",
            "1.",
            "1e",
            "\"\\q\"",
            "\"unterminated",
            "[1] extra",
            "\"\u{1}\"",
            r#""\ud800""#,
        ] {
            let e = Json::parse(bad);
            assert!(e.is_err(), "accepted malformed input {bad:?}");
        }
        let e = Json::parse("[1 2]").unwrap_err();
        assert!(e.to_string().contains("at byte"), "got: {e}");
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::parse(r#"{"n": 3, "x": 1.5, "s": "hi", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("x").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
