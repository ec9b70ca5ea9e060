//! Keeps DESIGN.md's diagnostic-code table in lockstep with
//! `DiagCode::all()`: the table is generated from the code, so a new
//! analyzer family cannot land without its documentation row. Also
//! holds the prose documents to the tree: the repo paths they name exist,
//! and the commands they show name real bins, test files and flags.
//!
//! Regenerate with `PPHW_UPDATE_GOLDEN=1 cargo test --test design_doc`
//! after inspecting the new rows.

use std::fs;
use std::path::PathBuf;

use pphw_verify::DiagCode;

const HEADER: &str = "| Code | Meaning |\n|---|---|";

fn generated_table() -> String {
    let rows = DiagCode::all()
        .iter()
        .map(|c| format!("| `{}` | {} |", c.code(), c.summary()))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{HEADER}\n{rows}")
}

#[test]
fn design_md_diagnostic_table_matches_diagcode_all() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md");
    let doc = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let start = doc
        .find(HEADER)
        .expect("DESIGN.md contains the `| Code | Meaning |` table");
    let body_start = start + HEADER.len();
    let table_len = doc[body_start..]
        .lines()
        .take_while(|l| l.is_empty() || l.starts_with('|'))
        .map(|l| l.len() + 1)
        .sum::<usize>()
        .saturating_sub(1);
    let current = doc[start..body_start + table_len].trim_end();

    let expected = generated_table();
    if std::env::var_os("PPHW_UPDATE_GOLDEN").is_some() {
        if current != expected {
            // Splice over the trimmed table only, so surrounding blank
            // lines survive the rewrite.
            let updated = format!(
                "{}{}{}",
                &doc[..start],
                expected,
                &doc[start + current.len()..]
            );
            fs::write(&path, updated).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        }
        return;
    }
    assert_eq!(
        current, expected,
        "DESIGN.md diagnostic table is stale — regenerate with \
         PPHW_UPDATE_GOLDEN=1 cargo test --test design_doc"
    );
}

#[test]
fn diagnostic_codes_are_unique_and_ordered() {
    let all = DiagCode::all();
    let codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
    let mut sorted = codes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), codes.len(), "duplicate code");
    assert_eq!(sorted, codes, "DiagCode::all() must be in numeric order");
}

/// The documents whose references to the tree are checked: whole files,
/// except ROADMAP.md, of which only *Open items* describes the tree as it
/// is (*Recent* is history).
fn checked_docs() -> Vec<(&'static str, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .into_iter()
    .map(|name| {
        let path = root.join(name);
        let mut text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        if name == "ROADMAP.md" {
            let start = text.find("## Open items").expect("ROADMAP has Open items");
            let end = text.find("## Recent").unwrap_or(text.len());
            text = text[start..end].to_string();
        }
        (name, text)
    })
    .collect()
}

/// Every file of the repository (build output excepted), relative to its
/// root, with `/` separators.
fn repo_files() -> Vec<String> {
    fn walk(dir: &std::path::Path, rel: &str, out: &mut Vec<String>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            if !entry.path().is_dir() {
                out.push(rel);
            } else if !matches!(name.as_str(), "target" | ".git" | ".bench_build" | "out") {
                walk(&entry.path(), &rel, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(&PathBuf::from(env!("CARGO_MANIFEST_DIR")), "", &mut out);
    out
}

/// Whether `path` names a file or directory of the tree, from the root or
/// by its tail (`bin/dse.rs`).
fn exists(files: &[String], path: &str) -> bool {
    let path = path.trim_end_matches('/');
    let (tail, dir) = (format!("/{path}"), format!("{path}/"));
    files
        .iter()
        .any(|f| f == path || f.ends_with(&tail) || f.starts_with(&dir))
}

/// Backticked repo paths must exist, unless the sentence around them says
/// the file was deleted or removed. A token containing `*`, `<`, `{` or `…`
/// is a pattern (`crates/*/src`, `src/bin/<name>.rs`), not a path, and is
/// not checked.
#[test]
fn every_repo_path_the_docs_name_exists() {
    let files = repo_files();
    let mut missing = Vec::new();
    for (doc, text) in checked_docs() {
        // A sentence ends at a full stop before a space or a line end, or
        // at a blank line; backticks pair up within it.
        let flat = text.replace("\n\n", ". ").replace('\n', " ");
        for sentence in flat.split(". ") {
            let lower = sentence.to_lowercase();
            if lower.contains("deleted") || lower.contains("removed") {
                continue;
            }
            for token in sentence.split('`').skip(1).step_by(2) {
                // `tables.rs --fig5`, `server.rs:109`, `hwgen.rs::a_test`.
                let word = token.split_whitespace().next().unwrap_or("");
                let path = word.split(':').next().unwrap_or("");
                let rooted = ["crates/", "tests/", "examples/", "benchmark/"]
                    .iter()
                    .any(|p| path.starts_with(p));
                let named = path.ends_with(".rs") || path.ends_with(".sh");
                let pattern = path.contains(['*', '<', '{', '…']);
                if (rooted || named) && !pattern && !exists(&files, path) {
                    missing.push(format!("{doc}: `{token}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "no such path (spell a file pattern with a wildcard, e.g. `*.rs`):\n{}",
        missing.join("\n")
    );
}

/// In fenced commands, `--bin X` and `--test NAME` must name a bin and a
/// test file, and every `--flag` after `--bin X --` must be one `X`
/// parses (a string literal of its source).
#[test]
fn every_command_the_docs_show_names_real_bins_tests_and_flags() {
    let files = repo_files();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    for (doc, text) in checked_docs() {
        // Fenced blocks are the odd pieces; a trailing `\` continues a line.
        for block in text.split("```").skip(1).step_by(2) {
            for line in block.replace("\\\n", " ").lines() {
                let line = line.split(" #").next().unwrap_or("");
                let words: Vec<&str> = line.split_whitespace().collect();
                for (i, pair) in words.windows(2).enumerate() {
                    let name = pair[1];
                    if pair[0] == "--test" && !exists(&files, &format!("tests/{name}.rs")) {
                        stale.push(format!("{doc}: --test {name}"));
                    }
                    if pair[0] != "--bin" {
                        continue;
                    }
                    let source = format!("/src/bin/{name}.rs");
                    let Some(source) = files.iter().find(|f| f.ends_with(&source)) else {
                        stale.push(format!("{doc}: --bin {name}"));
                        continue;
                    };
                    let source = fs::read_to_string(root.join(source)).expect("bin source");
                    let own = words[i + 2..].iter().skip_while(|w| **w != "--");
                    for flag in own.skip(1).filter(|w| w.starts_with("--")) {
                        if !source.contains(&format!("\"{flag}\"")) {
                            stale.push(format!("{doc}: --bin {name} -- {flag}"));
                        }
                    }
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale commands:\n{}", stale.join("\n"));
}
