//! The JSON string escaper shared by every hand-written JSON emitter in
//! the workspace (DSE reports, verify reports, the `parse` bin, the
//! server's wire format). It lives here because this is the one crate all
//! of them depend on.

use std::fmt::Write as _;

/// `s` as a quoted JSON string literal: `"` and `\` are backslash-escaped,
/// newline / carriage return / tab use their short forms, and every other
/// control character below U+0020 becomes `\u00XX`. One pass over the
/// bytes; clean runs are copied whole, so a string that needs no escaping
/// costs one allocation and one `memcpy`.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    // Every byte that needs escaping is ASCII, so slicing at its index
    // always lands on a character boundary.
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "",
        };
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn clean_strings_are_only_quoted() {
        assert_eq!(escape(""), "\"\"");
        assert_eq!(escape("m=16 par=4 max4"), "\"m=16 par=4 max4\"");
        assert_eq!(escape("héllo → ✓"), "\"héllo → ✓\"");
    }

    #[test]
    fn quotes_backslashes_and_controls_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(escape("\r\t\u{1f}é\u{0}"), "\"\\r\\t\\u001fé\\u0000\"");
        assert_eq!(escape("\"\"x"), "\"\\\"\\\"x\"");
    }
}
