//! Byte-span source locations and the path→span side table.
//!
//! Programs constructed through the builder API have no source text, so
//! diagnostics locate nodes by [`IrPath`](crate::path::IrPath) alone.
//! Text-originated programs (parsed from `.ppl` files) additionally carry
//! a [`SourceMap`] mapping rendered path strings to byte [`Span`]s of the
//! source, which lets every downstream diagnostic render `file:line:col`
//! with a caret snippet. The map lives here — rather than in the frontend
//! crate — so the verifier can consume it without depending on the parser.

use std::collections::BTreeMap;

use crate::json::{self, ToJson};

/// A half-open byte range `[start, end)` into a source string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span; `end` is clamped to at least `start`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` for zero-length spans (e.g. end-of-input errors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// A span located in its source: the byte range plus the 1-based line and
/// column of its start, so a report can render `file:line:col` without
/// re-scanning the source. Verifier findings and frontend errors on
/// programs parsed from `.ppl` text carry one; builder-constructed
/// programs locate findings by path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagSpan {
    /// Byte offset of the first character in the source.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: usize,
    /// 1-based column of `start`.
    pub col: usize,
}

impl DiagSpan {
    /// Locates `span` within `src`.
    #[must_use]
    pub fn locate(src: &str, span: Span) -> DiagSpan {
        let (line, col) = line_col(src, span.start);
        DiagSpan {
            start: span.start,
            end: span.end,
            line,
            col,
        }
    }
}

/// `{"start":…,"end":…,"line":…,"col":…}`: the span object of every JSON
/// report (verify findings, parse errors).
impl ToJson for DiagSpan {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("start", self.start)
                .field("end", self.end)
                .field("line", self.line)
                .field("col", self.col);
        });
    }
}

/// 1-based line and column of `offset` within `src`.
///
/// Columns count characters, not bytes, so multi-byte input renders
/// sensibly; offsets past the end of `src` locate at the end.
#[must_use]
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let mut line = 1;
    let mut col = 1;
    for (i, c) in src.char_indices() {
        if i >= offset {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// Renders the source line containing `span.start` with a caret marker
/// underneath, in the style of compiler diagnostics:
///
/// ```text
///   3 | let y = x(i,)
///     |             ^
/// ```
#[must_use]
pub fn caret_snippet(src: &str, span: Span) -> String {
    let (line_no, col) = line_col(src, span.start);
    let line = src.lines().nth(line_no - 1).unwrap_or("");
    let gutter = line_no.to_string();
    let pad = " ".repeat(gutter.len());
    let mut carets = "^".to_string();
    // Extend the marker across the span, but never past the line end.
    let span_chars = src
        .get(span.start..span.end.min(src.len()))
        .map_or(1, |s| s.chars().take_while(|c| *c != '\n').count());
    for _ in 1..span_chars.max(1) {
        carets.push('^');
    }
    format!(
        "{gutter} | {line}\n{pad} | {}{carets}",
        " ".repeat(col.saturating_sub(1))
    )
}

/// Side table from rendered [`IrPath`](crate::path::IrPath) strings to the
/// source spans they were parsed from.
///
/// Lookups fall back to the nearest recorded ancestor: a diagnostic at
/// `kmeans/sums[2]/update[0]/r[0]` resolves to the span recorded for
/// `kmeans/sums[2]/update[0]` (or `kmeans/sums[2]`, …) when the exact path
/// was not recorded. This keeps the map small — statements and pattern
/// clauses — while still locating every diagnostic the verifier can emit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// Display name of the source file the spans index into.
    pub file: String,
    spans: BTreeMap<String, Span>,
}

impl SourceMap {
    /// An empty map for the given file name.
    #[must_use]
    pub fn new(file: impl Into<String>) -> SourceMap {
        SourceMap {
            file: file.into(),
            spans: BTreeMap::new(),
        }
    }

    /// Records the span for a rendered path (later records win).
    pub fn record(&mut self, path: impl Into<String>, span: Span) {
        self.spans.insert(path.into(), span);
    }

    /// Exact-match lookup, no ancestor fallback.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<Span> {
        self.spans.get(path).copied()
    }

    /// Looks up `path`, falling back to the nearest recorded ancestor
    /// (trimming `/`-separated segments from the right).
    #[must_use]
    pub fn lookup(&self, path: &str) -> Option<Span> {
        let mut p = path;
        loop {
            if let Some(s) = self.spans.get(p) {
                return Some(*s);
            }
            match p.rfind('/') {
                Some(cut) => p = &p[..cut],
                None => return None,
            }
        }
    }

    /// Number of recorded paths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over `(path, span)` entries in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Span)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_counts_lines() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 1), (1, 2));
        assert_eq!(line_col(src, 3), (2, 1));
        assert_eq!(line_col(src, 7), (3, 2));
        assert_eq!(line_col(src, 999), (3, 3));
    }

    #[test]
    fn caret_points_at_column() {
        let src = "let x = 1\nlet y = ?\n";
        let snip = caret_snippet(src, Span::new(18, 19));
        assert_eq!(snip, "2 | let y = ?\n  |         ^");
    }

    #[test]
    fn caret_spans_multiple_chars() {
        let src = "abcdef";
        let snip = caret_snippet(src, Span::new(1, 4));
        assert_eq!(snip, "1 | abcdef\n  |  ^^^");
    }

    #[test]
    fn source_map_ancestor_fallback() {
        let mut m = SourceMap::new("t.ppl");
        m.record("p/x[0]", Span::new(3, 9));
        m.record("p/x[0]/update[1]", Span::new(5, 7));
        assert_eq!(m.lookup("p/x[0]/update[1]/r[0]"), Some(Span::new(5, 7)));
        assert_eq!(m.lookup("p/x[0]/pre/q[2]"), Some(Span::new(3, 9)));
        assert_eq!(m.lookup("q/z[1]"), None);
        assert_eq!(m.get("p/x[0]"), Some(Span::new(3, 9)));
        assert_eq!(m.get("p/x[0]/pre"), None);
    }

    #[test]
    fn span_merge_and_len() {
        let s = Span::new(4, 6).merge(Span::new(1, 5));
        assert_eq!(s, Span::new(1, 6));
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert!(Span::new(3, 3).is_empty());
    }
}
