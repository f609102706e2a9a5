//! Minimal JSON emission (the workspace deliberately carries no
//! serialization dependency; this mirrors `sc_lab::stats::Csv`).
//!
//! Only what the suite report needs: objects, arrays, strings, integers
//! and floats, rendered deterministically (insertion order, fixed float
//! formatting) so that identical suites produce byte-identical files.

use sc_net::escape_json;
use std::fmt::{self, Write as _};

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Str(String),
    /// Integers render without a decimal point (u64 covers every
    /// counter and nanosecond quantity the reports emit).
    Int(u64),
    Float(f64),
    Bool(bool),
    Array(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Append a field to an object (panics on non-objects: report
    /// construction is static code, not data-driven).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Object(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_str(s, out),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                // Shortest-roundtrip formatting is deterministic; a
                // whole float prints without ".0", which is still valid
                // JSON. Non-finite values (never expected) become null.
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
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
}

fn write_str(s: &str, out: &mut String) {
    let _ = write!(out, "\"{}\"", escape_json(s));
}

/// Compact serialization (no whitespace); `to_string()` comes with it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let mut obj = Json::object();
        obj.push("name", Json::str("chain"))
            .push("n", Json::Int(3))
            .push("ok", Json::Bool(true))
            .push("xs", Json::Array(vec![Json::Int(1), Json::Int(2)]));
        assert_eq!(
            obj.to_string(),
            r#"{"name":"chain","n":3,"ok":true,"xs":[1,2]}"#
        );
        assert_eq!(obj.to_string(), obj.to_string());
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
    }
}
