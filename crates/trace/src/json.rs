//! The workspace's one JSON reader and writer.
//!
//! Every committed artifact (`BENCH_figures.json`, `BENCH_trace.json`)
//! is built as a [`Value`], rendered by [`write()`] and read back by
//! [`parse`]. Objects keep their member order and numbers keep their
//! literal text, so `u64` digests, negative gauges and fixed-decimal
//! floats round-trip byte for byte: `write(&parse(s)?) == s` for every
//! `s` that `write` produced.
//!
//! [`write()`] is deterministic: a container of scalars goes on one line,
//! and so does an array item whose members are scalars or containers of
//! scalars (one trace event, one flat figures row); any other container puts
//! each member on its own line, indented two spaces. [`parse`] is
//! strict: truncated input, trailing content, duplicate keys, bad
//! escapes and malformed numbers fail with a `line:column:` message.
//! [`At`] reads typed fields and names their path in its errors.

/// Nesting depth [`parse`] accepts (bounds its recursion).
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Number(Number),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

/// The literal text of a JSON number. Only [`parse`], the integer
/// `From` impls and [`Value::fixed`] make one, so it always follows the
/// JSON number grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(Number(v.to_string()))
            }
        }
    )*};
}
from_integer!(u64, usize, i64);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl Value {
    /// `x` with exactly `decimals` digits after the point, as
    /// `format!("{x:.3}")` prints it for `decimals == 3`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite: JSON has no spelling for them.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        assert!(x.is_finite(), "JSON numbers are finite, got {x}");
        Value::Number(Number(format!("{x:.decimals$}")))
    }

    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A `{count, sum, min, max}` summary of `values` (min and max 0
    /// when there are none).
    pub fn summary(values: impl Iterator<Item = u64> + Clone) -> Value {
        let v = || values.clone();
        let (min, max) = (v().min().unwrap_or(0), v().max().unwrap_or(0));
        let (count, sum) = (v().count() as u64, v().sum::<u64>());
        let fields = [("count", count), ("sum", sum), ("min", min), ("max", max)];
        Value::object(fields.map(|(k, n)| (k, n.into())))
    }

    /// Object member `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number read as a `T` (`u64` rejects fractions and signs).
    pub fn as_number<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Value::Number(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// 0 for a scalar, else 1 + the height of the tallest member.
    fn height(&self) -> usize {
        let tallest = match self {
            Value::Array(items) => items.iter().map(Value::height).max(),
            Value::Object(members) => members.iter().map(|(_, v)| v.height()).max(),
            _ => return 0,
        };
        1 + tallest.unwrap_or(0)
    }
}

/// Renders `value` as a JSON document ending in a newline.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, false, &mut out);
    out.push('\n');
    out
}

fn write_value(value: &Value, indent: usize, in_array: bool, out: &mut String) {
    let (open, close, members): (_, _, Vec<(Option<&String>, _)>) = match value {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Number(Number(text)) => return out.push_str(text),
        Value::String(s) => return write_string(s, out),
        Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Object(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect()),
    };
    let one_line = value.height() <= if in_array { 2 } else { 1 };
    out.push(open);
    for (i, (key, member)) in members.iter().enumerate() {
        if one_line {
            out.push_str(if i == 0 { "" } else { ", " });
        } else {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.extend(std::iter::repeat_n(' ', indent + 2));
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_value(member, indent + 2, open == '[', out);
    }
    if !one_line && !members.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

/// Writes `s` as a string literal: the workspace's only JSON escaper.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// `"line:column: cause"` (1-based, columns in characters) of the first
/// violation of the JSON grammar, duplicate key within one object, or
/// nesting deeper than 128 levels.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, rest: text };
    let value = p.value(0)?;
    p.skip_ws();
    if !p.rest.is_empty() {
        return Err(p.error("trailing content after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// The unread tail of `text`.
    rest: &'a str,
}

impl Parser<'_> {
    fn pos(&self) -> usize {
        self.text.len() - self.rest.len()
    }

    fn error_at(&self, at: usize, cause: &str) -> String {
        let before = &self.text[..at];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let col = before[line_start..].chars().count() + 1;
        format!("{}:{col}: {cause}", before.matches('\n').count() + 1)
    }

    fn error(&self, cause: &str) -> String {
        self.error_at(self.pos(), cause)
    }

    /// "expected `what`" at the current position, naming what is there.
    fn expected(&self, what: &str) -> String {
        match self.rest.chars().next() {
            None => self.error(&format!("unexpected end of input, expected {what}")),
            Some(c) => self.error(&format!("expected {what}, found `{c}`")),
        }
    }

    fn eat(&mut self, prefix: &str) -> bool {
        let stripped = self.rest.strip_prefix(prefix);
        self.rest = stripped.unwrap_or(self.rest);
        stripped.is_some()
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
    }

    /// Consumes a run of ASCII digits; true if there was one.
    fn digits(&mut self) -> bool {
        let n = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        self.rest = &self.rest[n..];
        n > 0
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.error("nested deeper than 128 levels"));
        }
        match self.rest.as_bytes().first() {
            Some(b'{' | b'[') => self.container(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => Err(self.expected("a value")),
        }
    }

    fn container(&mut self, depth: usize) -> Result<Value, String> {
        let close = if self.rest.starts_with('[') { "]" } else { "}" };
        self.rest = &self.rest[1..];
        let (mut items, mut members) = (Vec::new(), Vec::<(String, Value)>::new());
        self.skip_ws();
        while !self.eat(close) {
            let first = items.is_empty() && members.is_empty();
            if !first && !self.eat(",") {
                return Err(self.expected(&format!("`,` or `{close}`")));
            }
            if close == "]" {
                items.push(self.value(depth + 1)?);
            } else {
                self.skip_ws();
                let at = self.pos();
                if !self.rest.starts_with('"') {
                    return Err(self.expected("a string key"));
                }
                let key = self.string()?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(self.error_at(at, &format!("duplicate key \"{key}\"")));
                }
                self.skip_ws();
                if !self.eat(":") {
                    return Err(self.expected("`:`"));
                }
                members.push((key, self.value(depth + 1)?));
            }
            self.skip_ws();
        }
        Ok(if close == "]" {
            Value::Array(items)
        } else {
            Value::Object(members)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"");
        let mut out = String::new();
        loop {
            let special = |c: char| c == '"' || c == '\\' || c < ' ';
            let run = self.rest.find(special).unwrap_or(self.rest.len());
            out.push_str(&self.rest[..run]);
            self.rest = &self.rest[run..];
            match self.rest.chars().next() {
                Some('"') => break,
                Some('\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control character in a string")),
                None => return Err(self.error("unexpected end of input in a string")),
            }
        }
        self.eat("\"");
        Ok(out)
    }

    /// One escape sequence, starting at its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos();
        let mut chars = self.rest[1..].chars();
        let kind = chars.next();
        self.rest = chars.as_str();
        if kind != Some('u') {
            // The named escapes, and the ASCII character each stands for.
            let i = kind.and_then(|k| "\"\\/bfnrt".find(k));
            let decoded = i.map(|i| char::from(b"\"\\/\x08\x0c\n\r\t"[i]));
            return decoded.ok_or_else(|| self.error_at(at, "invalid escape"));
        }
        let mut code = self.hex4(at)?;
        if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
            let low = self.hex4(at)?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate left unpaired is not a `char`.
        char::from_u32(code).ok_or_else(|| self.error_at(at, "unpaired surrogate escape"))
    }

    fn hex4(&mut self, escape_at: usize) -> Result<u32, String> {
        let digits = self
            .rest
            .get(..4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let digits =
            digits.ok_or_else(|| self.error_at(escape_at, "\\u escape needs four hex digits"))?;
        self.rest = &self.rest[4..];
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.rest;
        self.eat("-");
        if !self.eat("0") && !self.digits() {
            return Err(self.expected("a digit"));
        }
        if self.eat(".") && !self.digits() {
            return Err(self.expected("a digit after `.`"));
        }
        if self.eat("e") || self.eat("E") {
            let _sign = self.eat("+") || self.eat("-");
            if !self.digits() {
                return Err(self.expected("an exponent digit"));
            }
        }
        let len = start.len() - self.rest.len();
        Ok(Value::Number(Number(start[..len].to_string())))
    }
}

/// A value together with the path that reached it, so that a failed
/// typed read names where (`point q6: lacks config`).
#[derive(Debug, Clone)]
pub struct At<'a> {
    /// How the value was reached (`point q6.archs`).
    pub path: String,
    /// The value reached.
    pub value: &'a Value,
}

impl<'a> At<'a> {
    /// Roots a path at `value`, labelled `path` in errors.
    pub fn new(path: impl Into<String>, value: &'a Value) -> Self {
        let path = path.into();
        At { path, value }
    }

    /// Member `key`, or `"{path}: lacks {key}"`.
    pub fn get(&self, key: &str) -> Result<At<'a>, String> {
        let value = self
            .value
            .get(key)
            .ok_or_else(|| format!("{}: lacks {key}", self.path))?;
        Ok(At::new(format!("{}.{key}", self.path), value))
    }

    /// Member `key` as a non-negative integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Value::as_number)
    }

    /// Member `key` as a number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Value::as_number)
    }

    /// Member `key` as a string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Value::as_str)
    }

    /// The items of array member `key`, each labelled `{path}.{key}[i]`.
    pub fn items(&self, key: &str) -> Result<Vec<At<'a>>, String> {
        let array = self.get(key)?;
        match array.value {
            Value::Array(items) => Ok(items
                .iter()
                .enumerate()
                .map(|(i, v)| At::new(format!("{}[{i}]", array.path), v))
                .collect()),
            _ => Err(format!("{}: {key} is not an array", self.path)),
        }
    }

    fn typed<T>(&self, key: &str, what: &str, f: fn(&'a Value) -> Option<T>) -> Result<T, String> {
        f(self.get(key)?.value).ok_or_else(|| format!("{}: {key} is not {what}", self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document exercising every value kind and both layouts.
    fn sample() -> Value {
        Value::object([
            ("null", Value::Null),
            (
                "flags",
                Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            ("digest", u64::MAX.into()),
            ("gauge", (-3i64).into()),
            ("host_ms", Value::fixed(2.5, 3)),
            ("label", "tab\there \"quoted\" \\ µ \u{1}".into()),
            ("empty", Value::Array(Vec::new())),
            ("none", Value::object::<&str>([])),
            (
                "rows",
                Value::Array(vec![
                    Value::object([
                        ("a", 1u64.into()),
                        ("b", Value::object([("c", 2u64.into())])),
                    ]),
                    Value::object([(
                        "deep",
                        Value::object([("d", Value::object([("e", Value::Null)]))]),
                    )]),
                ]),
            ),
        ])
    }

    #[test]
    fn write_parse_write_is_the_identity() {
        let text = write(&sample());
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, sample());
        assert_eq!(write(&parsed), text);
    }

    #[test]
    fn summaries_count_sum_and_bound_their_values() {
        let text = write(&Value::summary([40, 90, 60].into_iter()));
        assert_eq!(
            text,
            "{\"count\": 3, \"sum\": 190, \"min\": 40, \"max\": 90}\n"
        );
        let empty = write(&Value::summary(std::iter::empty()));
        assert_eq!(
            empty,
            "{\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0}\n"
        );
    }

    #[test]
    fn layout_puts_scalar_rows_and_shallow_array_items_on_one_line() {
        let text = write(&sample());
        assert!(text.starts_with("{\n  \"null\": null,\n"), "{text}");
        assert!(text.contains("\n  \"flags\": [true, false],\n"), "{text}");
        assert!(
            text.contains("\n    {\"a\": 1, \"b\": {\"c\": 2}},\n"),
            "{text}"
        );
        assert!(
            text.contains("\n  \"empty\": [],\n  \"none\": {},\n"),
            "{text}"
        );
        // Three containers deep: broken even as an array item.
        assert!(
            text.contains(
                "\n    {\n      \"deep\": {\n        \"d\": {\"e\": null}\n      }\n    }\n"
            ),
            "{text}"
        );
        assert!(text.ends_with("  ]\n}\n"), "{text}");
    }

    #[test]
    fn digests_gauges_and_fixed_decimals_keep_their_text() {
        let text = write(&sample());
        assert!(text.contains("\"digest\": 18446744073709551615,"), "{text}");
        assert!(text.contains("\"gauge\": -3,"), "{text}");
        assert!(text.contains("\"host_ms\": 2.500,"), "{text}");
        let v = parse(&text).unwrap();
        let read = |key: &str| v.get(key).expect(key);
        assert_eq!(read("digest").as_number(), Some(u64::MAX));
        assert_eq!(read("gauge").as_number::<u64>(), None);
        assert_eq!(read("gauge").as_number(), Some(-3i64));
        assert_eq!(read("host_ms").as_number(), Some(2.5f64));
        assert_eq!(read("host_ms").as_number::<u64>(), None);
        assert_eq!(
            parse("1.0e-3").unwrap(),
            Value::Number(Number("1.0e-3".into()))
        );
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let v = parse(r#"["\"\\\/\b\f\n\r\t", "\u00e9\ud83d\ude00"]"#).unwrap();
        let expected: Vec<Value> = vec!["\"\\/\u{8}\u{c}\n\r\t".into(), "é😀".into()];
        assert_eq!(v, Value::Array(expected));
    }

    /// The `(line, column, cause)` of `text`'s parse error.
    fn err(text: &str) -> (usize, usize, String) {
        let e = parse(text).unwrap_err();
        let mut parts = e.splitn(3, ':');
        let mut number = || parts.next().and_then(|n| n.parse().ok()).expect(&e);
        let (line, col) = (number(), number());
        (line, col, parts.next().expect(&e).trim_start().to_string())
    }

    #[test]
    fn bad_escapes_are_reported_at_the_backslash() {
        let (line, col, msg) = err("{\n  \"k\": \"ab\\qc\"\n}");
        assert_eq!((line, col), (2, 11));
        assert!(msg.contains("invalid escape"), "{msg}");
        assert_eq!(err("[\"\\u12\"]").1, 3);
        assert!(err("[\"\\ud800\"]").2.contains("surrogate"));
        assert!(err("[\"\\udc00\"]").2.contains("surrogate"));
        assert!(err("[\"\\ud800\\u0041\"]").2.contains("surrogate"));
        assert!(err("[\"\\").2.contains("invalid escape"));
    }

    #[test]
    fn trailing_garbage_is_reported_where_it_starts() {
        let (line, col, msg) = err("{\"a\": 1}\n  x");
        assert_eq!((line, col), (2, 3));
        assert!(msg.contains("trailing content"), "{msg}");
        assert_eq!(err("[1] [2]").1, 5);
        // Non-ASCII text before the error counts as one column per char.
        assert_eq!(err("[\"µµ\", 1]]").1, 10);
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let text = write(&sample());
        let end = text.trim_end().len();
        for cut in (1..end).filter(|&cut| text.is_char_boundary(cut)) {
            if let Ok(v) = parse(&text[..cut]) {
                panic!("prefix of {cut} bytes parsed as {v:?}");
            }
        }
        assert!(err("{\"a\": [1, 2").2.contains("end of input"));
        assert!(err("").2.contains("end of input"));
    }

    #[test]
    fn duplicate_keys_are_rejected_at_the_second_key() {
        let (line, col, msg) = err("{\"cycles\": 1,\n \"cycles\": 2}");
        assert_eq!((line, col), (2, 2));
        assert!(msg.contains("duplicate key \"cycles\""), "{msg}");
        // The same key in sibling objects is fine.
        assert!(parse("[{\"a\": 1}, {\"a\": 2}]").is_ok());
    }

    #[test]
    fn malformed_numbers_and_literals_are_rejected() {
        for bad in [
            "[,1]",
            "{,\"a\": 1}",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1.5.2",
            "NaN",
            "tru",
            "[1,]",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        for good in ["0", "-0", "1.25", "-1e+9", "2E-3", "true", "null"] {
            assert!(parse(good).is_ok(), "{good} rejected");
        }
        assert!(err("[\"a\nb\"]").2.contains("control character"));
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(err(&deep).2.contains("nested deeper"));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_floats_have_no_json_spelling() {
        let _ = Value::fixed(f64::NAN, 3);
    }

    #[test]
    fn at_names_the_path_in_every_error() {
        let doc = sample();
        let root = At::new("doc", &doc);
        assert_eq!(root.u64("digest"), Ok(u64::MAX));
        assert_eq!(root.str("label"), Ok("tab\there \"quoted\" \\ µ \u{1}"));
        assert_eq!(root.f64("host_ms"), Ok(2.5));
        assert_eq!(root.u64("missing"), Err("doc: lacks missing".into()));
        assert_eq!(
            root.u64("gauge"),
            Err("doc: gauge is not a non-negative integer".into())
        );
        let rows = root.items("rows").unwrap();
        assert_eq!(rows[0].get("b").unwrap().u64("c"), Ok(2));
        assert_eq!(rows[1].u64("a"), Err("doc.rows[1]: lacks a".into()));
        assert_eq!(
            rows[0].get("b").unwrap().str("c"),
            Err("doc.rows[0].b: c is not a string".into())
        );
        assert!(root.items("label").unwrap_err().contains("is not an array"));
    }
}
