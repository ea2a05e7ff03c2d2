//! A minimal JSON value: enough to write result files and the driver's
//! result line, and to read them (and `BENCHMARK.json`) back. The
//! hermetic workspace has no serde_json.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so written files diff
/// cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders on one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Renders indented, leaves of depth >= `inline_from` on one line.
    pub fn pretty(&self, inline_from: usize) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(inline_from), 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, inline_from: Option<usize>, depth: usize) {
        let broken = inline_from.is_some_and(|from| depth < from);
        let sep = |out: &mut String, first: bool, close: bool| {
            if !first && !close {
                out.push(',');
            }
            if broken {
                out.push('\n');
                let level = if close { depth } else { depth + 1 };
                out.push_str(&"  ".repeat(level));
            } else if !first && !close {
                out.push(' ');
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust's shortest round-trip formatting: every measured digit.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    sep(out, i == 0, false);
                    item.render(out, inline_from, depth + 1);
                }
                if !items.is_empty() {
                    sep(out, false, true);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    sep(out, i == 0, false);
                    write_str(out, key);
                    out.push_str(": ");
                    value.render(out, inline_from, depth + 1);
                }
                if !pairs.is_empty() {
                    sep(out, false, true);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first malformed token.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
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
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() {
                        self.eat(b',')?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.eat(b',')?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("malformed number"))
            }
            None => Err(self.err("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = *self
                        .bytes
                        .get(self.at + 1)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::Str("a \"quoted\"\nline".into())),
            ("n", Json::Num(1.25e-3)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("inner", Json::obj([("k", Json::Num(-7.0))])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty(2)).unwrap(), doc);
        assert!(doc.pretty(1).lines().count() > 3);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
