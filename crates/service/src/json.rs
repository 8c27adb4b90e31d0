//! A minimal flat-JSON-object reader and string escaper.
//!
//! The workspace has no serde; requests arrive as one JSON object per
//! line with string, unsigned-integer, or boolean values — nothing
//! nested — so a small hand-rolled scanner is all the protocol needs.

use std::collections::BTreeMap;

/// A scalar value of a flat request object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    Str(String),
    /// A nonnegative integer.
    Num(u64),
    /// `true` / `false`.
    Bool(bool),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (the workspace's
/// one escaper, [`cspdb_core::trace::json_escape`]).
pub use cspdb_core::trace::json_escape as escape;

/// Parses one flat JSON object (`{"key": value, ...}`) into a key→value
/// map. Values may be strings, nonnegative integers, or booleans;
/// nesting is rejected (the request protocol never needs it).
///
/// # Errors
///
/// A human-readable message on any syntax violation.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        chars: line.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err("trailing characters after object".into());
    }
    Ok(map)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected '{want}', found {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some('f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = self.peek().and_then(|c| c.to_digit(10)) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64))
                        .ok_or("number overflows u64")?;
                    self.pos += 1;
                }
                Ok(JsonValue::Num(n))
            }
            other => Err(format!(
                "expected string, number, or boolean, found {other:?}"
            )),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            if self.next() != Some(want) {
                return Err(format!("bad literal (expected {word})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let m = parse_object(r#"{"id": 7, "op":"cq", "db":"g", "cached": true}"#).unwrap();
        assert_eq!(m["id"], JsonValue::Num(7));
        assert_eq!(m["op"].as_str(), Some("cq"));
        assert_eq!(m["cached"], JsonValue::Bool(true));
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn decodes_escapes() {
        let m = parse_object(r#"{"facts":"E 0 1\nE 1 2","q":"a \"b\" \\ A"}"#).unwrap();
        assert_eq!(m["facts"].as_str(), Some("E 0 1\nE 1 2"));
        assert_eq!(m["q"].as_str(), Some("a \"b\" \\ A"));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\ done";
        let line = format!("{{\"v\":\"{}\"}}", escape(original));
        let m = parse_object(&line).unwrap();
        assert_eq!(m["v"].as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} extra",
            "{\"a\":-1}",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }
}
