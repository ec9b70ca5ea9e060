//! The workspace's one JSON layer (`pphw_ir::json`), held from outside:
//! whatever the writer escapes or serializes, the parser reads back as the
//! same value; and no other non-test source spells JSON by hand.

use std::fs;
use std::path::{Path, PathBuf};

use pphw_ir::json::{escape, parse_json, to_string, Json};
use pphw_testkit::prop::Check;
use pphw_testkit::rng::Rng;

/// A string over the characters escaping has to get right: every control
/// character below U+0020, `"`, `\`, and BMP and non-BMP scalars.
fn tricky_string(rng: &mut Rng) -> String {
    let len = rng.gen_range(0usize..24);
    (0..len)
        .map(|_| match rng.gen_range(0u32..5) {
            0 => char::from_u32(rng.gen_range(0u32..0x20)),
            1 => Some('"'),
            2 => Some('\\'),
            3 => char::from_u32(rng.gen_range(0x20u32..0xD800)),
            _ => char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000)),
        })
        .map(|c| c.expect("a scalar value"))
        .collect()
}

/// A random value, at most `depth` containers deep; numbers are finite
/// (JSON has no other kind).
fn value(rng: &mut Rng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0u32..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(match rng.gen_range(0u32..3) {
            0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
            1 => rng.next_f64() * 2e6 - 1e6,
            _ => loop {
                let n = f64::from_bits(rng.next_u64());
                if n.is_finite() {
                    break n;
                }
            },
        }),
        3 => Json::Str(tricky_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0usize..5))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..5))
                .map(|_| (tricky_string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn escaped_strings_parse_back_to_themselves() {
    Check::new("escaped_strings_parse_back_to_themselves")
        .cases(512)
        .run(tricky_string, |s| {
            let text = escape(s);
            match parse_json(&text) {
                Ok(Json::Str(back)) if back == *s => Ok(()),
                other => Err(format!("{text} parsed as {other:?}")),
            }
        });
}

#[test]
fn written_values_parse_back_to_themselves() {
    Check::new("written_values_parse_back_to_themselves")
        .cases(256)
        .run(
            |rng| value(rng, 3),
            |v| {
                let text = to_string(v);
                match parse_json(&text) {
                    Ok(back) if back == *v => Ok(()),
                    other => Err(format!("{text} parsed as {other:?}")),
                }
            },
        );
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The JSON key fragments `<q>name<q>:` of `text`, with `q` the quote as
/// spelled there.
fn keys_quoted(text: &str, q: &str) -> Vec<String> {
    let is_key =
        |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    text.match_indices(&format!("{q}:"))
        .filter_map(|(end, _)| {
            let head = &text[..end];
            let key = &head[head.rfind(q)? + q.len()..];
            is_key(key).then(|| format!("{q}{key}{q}:"))
        })
        .collect()
}

/// The JSON key fragments in string literals of `code`: escaped
/// (`\"name\":`) in ordinary literals, bare inside raw ones.
fn key_fragments(code: &str) -> Vec<String> {
    let mut found = keys_quoted(code, "\\\"");
    for raw in code.split("r#\"").skip(1) {
        found.extend(keys_quoted(raw.split("\"#").next().unwrap_or(""), "\""));
    }
    found
}

/// A tenth JSON writer cannot come back: outside `pphw_ir::json`, no
/// non-test source holds a string literal with a JSON key in it.
#[test]
fn no_source_but_pphw_ir_json_writes_json_by_hand() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    let writer = root.join("crates/ir/src/json.rs");
    assert!(files.contains(&writer), "the walk misses the writer");
    let mut offenders = Vec::new();
    for file in files.iter().filter(|f| **f != writer) {
        let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        let found = key_fragments(code);
        if !found.is_empty() {
            let rel = file.strip_prefix(&root).unwrap_or(file);
            offenders.push(format!("{}: {}", rel.display(), found.join(" ")));
        }
    }
    assert!(
        offenders.is_empty(),
        "JSON spelled by hand — write it with pphw_ir::json's writer:\n{}",
        offenders.join("\n")
    );
}
