//! The workspace's one JSON codec: a value tree, a string escaper, the
//! two-space pretty writer behind the committed reports, and a
//! recursive-descent parser.
//!
//! Every JSON document the workspace writes or reads goes through here.
//! `VERIFY_report.json` and `DSE_report.json` are [`Json`] trees rendered
//! by [`Json::to_pretty`]. The telemetry and Chrome trace-event exporters
//! keep their one-record-per-line layouts but escape through [`escape`].
//! [`parse`] reads those exports back, as well as the `BENCH_*.json`
//! baselines and `TELEMETRY_schema.json`.
//!
//! Numbers keep their exact text. Integers parse to [`Json::Int`], and a
//! number with a fraction or exponent parses to [`Json::Num`] holding its
//! source text. Floats enter a written document only through [`Json::num`]
//! with a fixed number of decimals, so committed artifacts are
//! byte-identical across runs, worker counts and float-formatting changes.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The committed documents
/// nest at most 5 deep; the bound turns hostile input into an error
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact over the whole `u64` and `i64` ranges.
    Int(i128),
    /// A number kept as its exact text: parsed numbers with a fraction or
    /// exponent, and floats pre-rendered by [`Json::num`].
    Num(String),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order is emission order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// A float rendered with exactly `decimals` fraction digits. This is
    /// the only way floats enter a report: the fixed precision pins the
    /// byte representation.
    pub fn num(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// The first field named `key`, if `self` is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The fields, if `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The items, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The text, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if `self` is an integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value, if `self` is an integer that fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value, if `self` is a number of either form.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => out.push_str(v),
            Json::Str(s) => {
                out.push('"');
                escape(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (n, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if n + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (n, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    out.push('"');
                    escape(out, key);
                    out.push_str("\": ");
                    value.write(out, indent + 1);
                    if n + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as the body of a JSON string literal (no quotes).
pub fn escape(out: &mut String, s: &str) {
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
}

/// Parse a complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let found = self.peek()?;
        if found == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, found as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    /// Consume a run of ASCII digits and return how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut ok = self.digits() > 0;
        let mut integer = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            integer = false;
            ok &= self.digits() > 0;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        // Only ASCII bytes were consumed, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if !ok {
            return Err(format!("invalid number `{text}` at byte {start}"));
        }
        if integer {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("integer `{text}` out of range at byte {start}"))
        } else {
            Ok(Json::Num(text.to_string()))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "invalid \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-decode from the byte stream: multi-byte UTF-8
                    // sequences pass through unchanged.
                    let rest = &self.bytes[self.pos - 1..];
                    let ch_len = utf8_len(b);
                    let s = std::str::from_utf8(&rest[..ch_len.min(rest.len())])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos += ch_len - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found `{}`", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found `{}`", other as char)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_pins_bytes() {
        assert_eq!(Json::num(1.0, 3).to_pretty(), "1.000\n");
        assert_eq!(Json::num(0.15625, 2).to_pretty(), "0.16\n");
    }

    #[test]
    fn escapes_strings() {
        let j = Json::s("a\"b\\c\nd");
        assert_eq!(j.to_pretty(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn nested_layout() {
        let j = Json::Obj(vec![
            ("k".into(), Json::Arr(vec![Json::Int(1), Json::Bool(true)])),
            ("e".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.to_pretty(),
            "{\n  \"k\": [\n    1,\n    true\n  ],\n  \"e\": []\n}\n"
        );
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::Obj(vec![
            ("a".into(), Json::s("x\"y\\z\n")),
            ("b".into(), Json::Arr(vec![Json::Int(1), Json::Int(-2)])),
            ("c".into(), Json::Obj(vec![])),
            ("d".into(), Json::Bool(true)),
            ("e".into(), Json::Null),
        ]);
        let s = j.to_pretty();
        assert!(s.contains("\\\"y\\\\z\\n"));
        assert!(s.contains("-2"));
        assert!(s.contains("\"c\": {}"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_tree() {
        let j = Json::Obj(vec![
            ("tab\tkey".into(), Json::s("\u{1}é\r")),
            ("big".into(), Json::Int(u64::MAX.into())),
            ("neg".into(), Json::Int(i64::MIN.into())),
            ("f".into(), Json::num(-2.5e-3, 6)),
            ("n".into(), Json::Arr(vec![Json::Null, Json::Obj(vec![])])),
        ]);
        assert_eq!(parse(&j.to_pretty()), Ok(j));
    }

    #[test]
    fn numbers_keep_their_exact_text() {
        assert_eq!(parse("-12"), Ok(Json::Int(-12)));
        assert_eq!(parse("2632.227"), Ok(Json::Num("2632.227".into())));
        assert_eq!(parse("1E+3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("131072").unwrap().as_f64(), Some(131072.0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        for bad in ["-", "1.", ".5", "1e", "1e+", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        // Hostile depth is an error, not a stack overflow, at every entry
        // point that hands outside files to the parser.
        let hostile = "[".repeat(1_000_000);
        assert!(parse(&hostile).is_err());
        assert!(crate::TelemetrySnapshot::from_json(&hostile).is_err());
        assert!(crate::TraceSnapshot::from_chrome_json(&hostile).is_err());
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(crate::TelemetrySnapshot::from_json(&objects).is_err());
    }
}
