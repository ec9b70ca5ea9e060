//! Parser fuzz smoke: `parse_program` must never panic — it either
//! produces a program or a list of spanned errors. Three input regimes:
//! seeded arbitrary text, token soup drawn from the PPL vocabulary, and
//! token-level mutations of the valid corpus (the checked-in
//! `examples/*.ppl`). Failures shrink to a minimal source
//! string before reporting.
//!
//! Case counts honor `PPHW_PROP_CASES`/`PPHW_PROP_SEED`, so ci.sh can run
//! a quick pass and a nightly can go deep.

use std::path::PathBuf;

use pphw_frontend::parse_program;
use pphw_testkit::example_ppl_files;
use pphw_testkit::prop::Check;
use pphw_testkit::rng::Rng;

/// PPL token vocabulary for soup and mutation inserts.
const VOCAB: &[&str] = &[
    "program",
    "input",
    "let",
    "return",
    "yield",
    "map",
    "multiFold",
    "fold",
    "flatMap",
    "groupByFold",
    "if",
    "else",
    "true",
    "false",
    "inf",
    "nan",
    "min",
    "max",
    "sqrt",
    "tuple",
    "size",
    "acc",
    "pre",
    "update",
    "combine",
    "merge",
    "key",
    "splat",
    "reuse",
    "slice",
    "copy",
    "Float",
    "Int",
    "Bool",
    "Dict",
    "x",
    "y",
    "i",
    "d",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    ":+",
    "=",
    "==",
    "=>",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    "<=",
    "&&",
    "||",
    "!",
    ".",
    "@",
    "?",
    "0",
    "1",
    "42",
    "2.5",
    "1e9",
    "_1",
];

/// The valid corpus: every checked-in `examples/*.ppl`.
fn corpus() -> Vec<String> {
    let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    example_ppl_files().into_iter().map(read).collect()
}

/// The program must not panic on `src`; both outcomes are acceptable.
fn parses_or_errors(src: &str) -> Result<(), String> {
    match std::panic::catch_unwind(|| parse_program(src, "fuzz.ppl")) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!("parse_program panicked on:\n{src}")),
    }
}

/// Shrinks a failing source string: drop lines, halve, drop char chunks.
fn shrink_src(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    if lines.len() > 1 {
        for skip in 0..lines.len() {
            let keep: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| *l)
                .collect();
            out.push(keep.join("\n"));
        }
    }
    let chars: Vec<char> = src.chars().collect();
    if chars.len() > 1 {
        out.push(chars[..chars.len() / 2].iter().collect());
        out.push(chars[chars.len() / 2..].iter().collect());
        // Drop a middle quarter.
        let (a, b) = (chars.len() / 4, chars.len() / 2);
        let mut mid: String = chars[..a].iter().collect();
        mid.extend(chars[b..].iter());
        out.push(mid);
    }
    out
}

#[test]
fn arbitrary_text_never_panics() {
    Check::new("frontend_fuzz_arbitrary").cases(96).run_shrink(
        |rng| {
            let len = rng.gen_range(0usize..400);
            let mut s = String::new();
            for _ in 0..len {
                let c = match rng.gen_range(0u32..10) {
                    0 => char::from_u32(rng.gen_range(0u32..0xD800)).unwrap_or('?'),
                    1..=3 => char::from(rng.gen_range(32u32..126) as u8),
                    _ => {
                        s.push_str(VOCAB[rng.gen_range(0usize..VOCAB.len())]);
                        ' '
                    }
                };
                s.push(c);
            }
            s
        },
        |s| shrink_src(s),
        |src| parses_or_errors(src),
    );
}

#[test]
fn token_soup_never_panics() {
    Check::new("frontend_fuzz_soup").cases(96).run_shrink(
        |rng| {
            let len = rng.gen_range(1usize..120);
            let mut s = String::from("program p(d) {\n");
            for _ in 0..len {
                s.push_str(VOCAB[rng.gen_range(0usize..VOCAB.len())]);
                s.push(if rng.gen_bool(0.2) { '\n' } else { ' ' });
            }
            s.push('}');
            s
        },
        |s| shrink_src(s),
        |src| parses_or_errors(src),
    );
}

/// A token-level mutation of valid text: delete, duplicate, or replace a
/// whitespace-delimited token, or splice a random vocabulary token in.
fn mutate(rng: &mut Rng, src: &str) -> String {
    let toks: Vec<&str> = src.split_inclusive(char::is_whitespace).collect();
    if toks.is_empty() {
        return src.to_string();
    }
    let mut toks: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
    for _ in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(0usize..toks.len());
        match rng.gen_range(0u32..4) {
            0 => {
                toks.remove(at);
            }
            1 => {
                let t = toks[at].clone();
                toks.insert(at, t);
            }
            2 => toks[at] = format!("{} ", VOCAB[rng.gen_range(0usize..VOCAB.len())]),
            _ => toks.insert(
                at,
                format!("{} ", VOCAB[rng.gen_range(0usize..VOCAB.len())]),
            ),
        }
        if toks.is_empty() {
            break;
        }
    }
    toks.concat()
}

#[test]
fn mutated_corpus_never_panics() {
    let corpus = corpus();
    assert!(corpus.len() >= 6, "fuzz corpus went missing");
    Check::new("frontend_fuzz_mutated").cases(128).run_shrink(
        |rng| {
            let base = &corpus[rng.gen_range(0usize..corpus.len())];
            mutate(rng, base)
        },
        |s| shrink_src(s),
        |src| parses_or_errors(src),
    );
}
