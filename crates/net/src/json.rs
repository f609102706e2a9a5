//! The workspace's one JSON string escaper. Every hand-written JSON
//! dump (metrics registry, trace exports, scenario reports) quotes its
//! strings through [`escape_json`], so a name or detail text can hold
//! anything and the output still parses.

use std::fmt::{self, Write as _};

/// `s` with `"`, `\` and control characters escaped for the inside of
/// a JSON string literal (the caller writes the surrounding quotes).
pub fn escape_json(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(
            escape_json("a\"b\\c\nd\u{1}é").to_string(),
            "a\\\"b\\\\c\\nd\\u0001é"
        );
        assert_eq!(
            escape_json("kernel.events.timer").to_string(),
            "kernel.events.timer"
        );
    }
}
