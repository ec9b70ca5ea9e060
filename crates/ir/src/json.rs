//! The workspace's one JSON layer: the [`Json`] value type and its parser
//! (what the daemon reads from clients and tests read back), and the one
//! streaming writer everything else writes with — DSE and verify reports,
//! parse diagnostics, the daemon's responses, the bins' envelopes. It
//! lives here because this is the one crate all of them depend on.
//!
//! The writer ([`write_object`], [`Obj`], [`Arr`], [`ToJson`]) appends to
//! a caller's `String` and is the only code that emits braces, commas,
//! quoted keys and escaped strings, so a report's key order is the order
//! of its writer calls. Numbers have five spellings, all decided here:
//! integers in decimal; `f64` in Rust's shortest round-trip `{}` form;
//! fixed decimals through [`Obj::fixed`] (a DSE report's
//! `predicted_cycles` and `prediction_error`); `null` for `None` and for
//! non-finite values; and a parsed [`Json::Num`] through `i64` when
//! integral, which differs from `{}` only in writing `-0` as `0`.
//!
//! The parser is recursive descent over a byte slice and can never panic:
//! every malformed input becomes a [`JsonError`] with a byte offset, and a
//! depth cap keeps a hostile `[[[[…` from overflowing the stack. Numbers
//! are carried as `f64` (integer fields are re-checked for exactness by
//! [`Json::as_u64`]) and object fields keep their source order.

use std::fmt::Write as _;

/// Maximum nesting depth accepted before the parser gives up. Deep enough
/// for any legitimate request, shallow enough that parsing is stack-safe.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers re-validated by [`Json::as_u64`] at use).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object; `None` for absent fields and
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number that is finite,
    /// non-negative, integral, and small enough (≤ 2⁵³) that `f64`
    /// carried it losslessly (which makes both casts exact).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as an exact signed integer (same `f64` exactness bound).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.is_finite() && n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Why a request line failed to parse as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`JsonError`] with a byte offset for any malformed input — never a
/// panic, regardless of the bytes.
pub fn parse_json(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

// ---- the writer -----------------------------------------------------------

/// A value the writer can emit.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// `v`'s JSON text — for a [`Json`], the canonical form that request
/// fingerprints and echoed ids use.
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// `s` as a quoted JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    to_string(s)
}

/// Writes one object into `out`, its fields added in order by `fields`.
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    fields(&mut Obj(Seq { out, empty: true }));
    out.push('}');
}

/// [`write_object`] into a fresh `String`.
#[must_use]
pub fn object(fields: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fields);
    out
}

fn write_array(out: &mut String, items: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    items(&mut Arr(Seq { out, empty: true }));
    out.push(']');
}

fn write_list<T: ToJson>(out: &mut String, values: impl IntoIterator<Item = T>) {
    write_array(out, |a| {
        for v in values {
            a.item(v);
        }
    });
}

/// The comma bookkeeping of an object or an array.
struct Seq<'w> {
    out: &'w mut String,
    empty: bool,
}

impl Seq<'_> {
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }
}

/// An object being written.
pub struct Obj<'w>(Seq<'w>);

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.write_json(out);
        out.push(':');
        out
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Appends `"key":` and `value` with `decimals` fixed decimals, or
    /// `null` for `None` and non-finite values.
    pub fn fixed(&mut self, key: &str, value: Option<f64>, decimals: usize) -> &mut Self {
        let out = self.key(key);
        match value.filter(|v| v.is_finite()) {
            Some(v) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            None => out.push_str("null"),
        }
        self
    }

    /// Appends `"key":` and JSON text already written (a memoized body).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// Appends `"key":{…}`, the nested object's fields added by `fields`.
    pub fn obj(&mut self, key: &str, fields: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), fields);
        self
    }

    /// Appends `"key":[…]`, its items added by `items`.
    pub fn arr(&mut self, key: &str, items: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.key(key), items);
        self
    }

    /// Appends `"key":[…]` holding each of `values`.
    pub fn list<T: ToJson>(&mut self, key: &str, values: impl IntoIterator<Item = T>) -> &mut Self {
        write_list(self.key(key), values);
        self
    }
}

/// An array being written.
pub struct Arr<'w>(Seq<'w>);

impl Arr<'_> {
    /// Appends one value.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// Appends one object, its fields added by `fields`.
    pub fn obj(&mut self, fields: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.0.next(), fields);
        self
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Quoted, with `"` and `\` backslash-escaped, newline, carriage return
/// and tab in their short forms and every other control character below
/// U+0020 as `\u00XX`. Clean runs are copied whole.
impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        // Every byte that needs escaping is ASCII, so slicing at its index
        // always lands on a character boundary.
        let mut clean_from = 0;
        for (i, b) in self.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x20.. => continue,
                _ => "",
            };
            out.push_str(&self[clean_from..i]);
            clean_from = i + 1;
            if short.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(short);
            }
        }
        out.push_str(&self[clean_from..]);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

macro_rules! display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display!(bool, i32, i64, u32, u64, usize);

/// Rust's shortest round-trip form; `null` when not finite.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

/// `null` for `None`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl ToJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            // Integral and exact: through `i64`, so `-0` reads `0`.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 => {
                (*n as i64).write_json(out);
            }
            Json::Num(n) => n.write_json(out),
            Json::Str(s) => s.write_json(out),
            Json::Arr(items) => write_list(out, items),
            Json::Obj(fields) => write_object(out, |o| {
                for (k, v) in fields {
                    o.field(k, v);
                }
            }),
        }
    }
}

// ---- the parser -----------------------------------------------------------

struct Parser<'b> {
    src: &'b str,
    bytes: &'b [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.members(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.members(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// The comma-separated members of an array or object, through the
    /// `close` byte; `member` reads one.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character whole: all three are ASCII, so the cut lands on a
            // character boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = self.pos + run.unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self
            .pos
            .checked_add(4)
            .ok_or_else(|| self.err("overflow"))?;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

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

    #[test]
    fn the_writer_spells_each_number_one_way() {
        let text = object(|o| {
            o.field("int", 7u64)
                .field("neg", -3i64)
                .field("f", 0.25)
                .field("whole", 100.0)
                .field("nan", f64::NAN)
                .fixed("fixed", Some(11.0), 1)
                .fixed("ratio", Some(-0.45), 4)
                .fixed("inf", Some(f64::INFINITY), 1)
                .field("none", None::<u64>)
                .field("zero", Json::Num(-0.0))
                .field("half", Json::Num(1.5))
                .obj("nested", |n| {
                    n.field("k\"ey", "v");
                })
                .arr("items", |a| {
                    a.item(true).obj(|_| {});
                })
                .raw("raw", "[1]")
                .list("empty", Vec::<u32>::new());
        });
        assert_eq!(
            text,
            "{\"int\":7,\"neg\":-3,\"f\":0.25,\"whole\":100,\"nan\":null,\
             \"fixed\":11.0,\"ratio\":-0.4500,\"inf\":null,\"none\":null,\
             \"zero\":0,\"half\":1.5,\"nested\":{\"k\\\"ey\":\"v\"},\
             \"items\":[true,{}],\"raw\":[1],\"empty\":[]}"
        );
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(
            parse_json("\"a\\n\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("a\né😀".to_string())
        );
        let v = parse_json("{\"a\":[1,2],\"b\":{\"c\":false}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_inputs_with_offsets() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "trueX",
            "1.2.3",
            "\"\\q\"",
            "\"unterminated",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "01x",
            "{\"a\":1,}",
            "[,]",
            "1e",
            "\u{1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn integer_exactness_is_enforced() {
        assert_eq!(parse_json("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_i64(), Some(-1));
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn round_trips_canonical_text() {
        let src = "{\"m\":\"simulate\",\"tiles\":{\"m\":8},\"par\":32,\"x\":[1,2.5,\"s\"]}";
        let v = parse_json(src).unwrap();
        let text = to_string(&v);
        assert_eq!(text, src);
        assert_eq!(parse_json(&text).unwrap(), v);
    }
}
