//! The one JSON value of the `bench_*` binaries and their gate: built in
//! memory as a tree, written indented (the committed baselines under
//! `ci/baselines/` are reviewed as diffs, one leaf per line) and parsed back
//! by `bench_check`. The workspace has no JSON library, and the documents
//! are small and machine-written, so a minimal recursive-descent parser
//! keeps the gate dependency-free.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order, so a document prints its
/// keys in the order the binary added them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number and the decimals it is written with (`{:.N}`); `None` writes
    /// the shortest form that reads back equal, which is what the parser
    /// produces. Integers above 2^53 round, as they would in any reader.
    Number(f64, Option<usize>),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: `(key, value)` members in insertion order.
    Object(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Number(v, None)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Number(v as f64, None)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Number(v as f64, None)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::String(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::String(v)
    }
}
/// A `(bytes, messages)` traffic total, written as `[bytes, messages]`.
impl From<(u64, u64)> for Json {
    fn from((a, b): (u64, u64)) -> Self {
        Json::Array(vec![a.into(), b.into()])
    }
}
/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Array(items.into_iter().collect())
    }
}

impl Json {
    /// An empty object, to be filled with [`with`](Self::with).
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends member `key` to an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(members) => members.push((key.to_string(), value.into())),
            other => panic!("cannot add member {key} to {other:?}"),
        }
        self
    }

    /// A number written with exactly `decimals` decimals, rounded the way
    /// `{:.N}` rounds. The value is kept unrounded until then: rounding it
    /// first (`(v * 1e4).round() / 1e4`) breaks ties differently, and keys
    /// the gate compares exactly would move.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Number(value, Some(decimals))
    }

    /// A 64-bit checksum as the documents spell it: the string `0x` plus 16
    /// hex digits (a JSON number would round above 2^53).
    pub fn checksum(value: u64) -> Json {
        format!("{value:#018x}").into()
    }

    /// Member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The indented rendering, newline-terminated: two spaces per level,
    /// one object member per line, arrays of scalars on one line.
    ///
    /// # Panics
    /// Panics on a non-finite number: a measurement that is NaN or infinite
    /// is a harness bug, not a value to report.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out.push('\n');
        out
    }

    /// Writes the indented rendering to `path` and says so on stderr.
    ///
    /// # Panics
    /// Panics when the file cannot be written.
    pub fn save(&self, path: &str) {
        std::fs::write(path, self.pretty()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    fn write(&self, indent: usize, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n, decimals) => {
                assert!(n.is_finite(), "non-finite number in a benchmark document");
                let _ = match decimals {
                    Some(d) => write!(out, "{n:.d$}"),
                    None => write!(out, "{n}"),
                };
            }
            Json::String(s) => write_string(s, out),
            Json::Array(items) if items.iter().all(Json::is_scalar) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(indent, out);
                }
                out.push(']');
            }
            Json::Array(items) => write_block(('[', ']'), items, indent, out, |item, out| {
                item.write(indent + 2, out)
            }),
            Json::Object(members) if members.is_empty() => out.push_str("{}"),
            Json::Object(members) => {
                write_block(('{', '}'), members, indent, out, |(key, value), out| {
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(indent + 2, out);
                })
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Array(_) | Json::Object(_))
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing garbage"));
        }
        Ok(value)
    }
}

/// One element per line between `brackets`, elements two spaces deeper than
/// the closing bracket.
fn write_block<T>(
    (open, close): (char, char),
    elements: &[T],
    indent: usize,
    out: &mut String,
    mut write_element: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, element) in elements.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        let _ = write!(out, "{:width$}", "", width = indent + 2);
        write_element(element, out);
    }
    let _ = write!(out, "\n{:indent$}{close}", "");
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self
                .sequence(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            b'[' => self.sequence(b']', Self::value).map(Json::Array),
            b'"' => self.string().map(Json::String),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text}")))
        }
    }

    /// The comma-separated elements of an array or object, from its opening
    /// bracket (under the cursor) through `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut elements = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(elements);
        }
        loop {
            elements.push(element(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(elements);
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    /// A string literal, decoded as UTF-8 with its escapes resolved.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 2;
                    let c = match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        b'"' | b'\\' | b'/' => escaped as char,
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is already consumed.
    /// A surrogate half is refused: the writer above never escapes beyond
    /// the control characters, so no document this crate reads has one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let c = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .and_then(char::from_u32)
            .ok_or_else(|| self.error("\\u wants four hex digits naming a character"))?;
        self.pos += 4;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::from)
            .ok_or_else(|| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_lines_decode_as_utf8_and_unicode_escapes_resolve() {
        // The `note` of `ci/baselines/BENCH_cycles_smoke.json`, as committed.
        let line = r#"{"note": "parallel speedup requires cores — on a 1-core host these numbers measure engine overhead"}"#;
        let note = Json::parse(line).unwrap();
        assert_eq!(
            note.get("note"),
            Some(&Json::from(
                "parallel speedup requires cores — on a 1-core host these numbers measure engine overhead"
            ))
        );
        assert_eq!(
            Json::parse(r#""cores \u2014 on a\/b""#),
            Ok(Json::from("cores — on a/b"))
        );
        for bad in [r#""\u12""#, r#""\u12g4""#, r#""\ud800""#, r#""\x""#, "\"\\"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn committed_baselines_parse_and_survive_the_writer() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/baselines");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.to_string_lossy().ends_with("_smoke.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                Json::parse(&parsed.pretty()),
                Ok(parsed),
                "{}",
                path.display()
            );
            files += 1;
        }
        assert_eq!(files, 5, "one smoke baseline per bench_* binary");
    }

    #[test]
    fn fixed_rounds_the_way_format_does() {
        // Ties on an exactly representable value go to even, as `{:.N}` does
        // and `(v * 10^N).round() / 10^N` does not.
        assert_eq!(Json::fixed(0.125, 2).pretty(), format!("{:.2}\n", 0.125));
        assert_eq!(Json::fixed(0.125, 2).pretty(), "0.12\n");
        assert_eq!(Json::fixed(2.0625, 3).pretty(), format!("{:.3}\n", 2.0625));
        assert_eq!(Json::fixed(2.0625, 3).pretty(), "2.062\n");
        assert_eq!(Json::fixed(1234.5, 0).pretty(), "1234\n");
        assert_eq!(Json::fixed(-1.0, 3).pretty(), "-1.000\n");
    }

    #[test]
    fn the_writer_lays_a_document_out_like_the_committed_baselines() {
        let doc = Json::object()
            .with("benchmark", "demo")
            .with("seed", 42u64)
            .with("quoted", "a \"b\"\n\u{1}")
            .with("skipped", None::<f64>)
            .with("empty", Json::object())
            .with("totals", (19269144u64, 12505u64))
            .with(
                "scales",
                [Json::object()
                    .with("users", 1000usize)
                    .with("elapsed_s", Json::fixed(0.5, 3))
                    .with("ok", Json::Bool(true))]
                .into_iter()
                .collect::<Json>(),
            );
        let text = "\
{
  \"benchmark\": \"demo\",
  \"seed\": 42,
  \"quoted\": \"a \\\"b\\\"\\n\\u0001\",
  \"skipped\": null,
  \"empty\": {},
  \"totals\": [19269144, 12505],
  \"scales\": [
    {
      \"users\": 1000,
      \"elapsed_s\": 0.500,
      \"ok\": true
    }
  ]
}
";
        assert_eq!(doc.pretty(), text);
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.get("quoted"), Some(&Json::from("a \"b\"\n\u{1}")));
        assert_eq!(parsed.get("skipped"), Some(&Json::Null));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::checksum(0xabc), Json::from("0x0000000000000abc"));
    }
}
