//! The program printer, `emit_program`, on programs written as PPL text:
//! what it spells, and how it renames symbols the text could not bind.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::pretty::emit_program;
use pphw_ir::types::{Sym, SymTable};
use pphw_ir::Program;

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

const SUM: &str = "program sum(d) {
  input x: Float[d]
  let sum = fold(d) {
    acc sum: Float = splat(0.0)
    (i) (acc) => yield acc + x(i)
    combine (a, b) { yield a + b }
  }
  return (sum)
}";

#[test]
fn prints_map_program() {
    let prog = parse(
        "program double(d) {
           input x: Float[d]
           let y = map(d) { (i) => yield 2.0 * x(i) }
           return (y)
         }",
    );
    let text = emit_program(&prog);
    assert!(text.contains("map(d)"), "got:\n{text}");
    assert!(text.contains("x(i)"), "got:\n{text}");
}

#[test]
fn prints_fold_with_combine() {
    let text = emit_program(&parse(SUM));
    assert!(text.contains("multiFold(d)"), "got:\n{text}");
    assert!(text.contains("combine"), "got:\n{text}");
}

#[test]
fn emit_is_canonical_surface_syntax() {
    let text = emit_program(&parse(SUM));
    assert!(text.starts_with("program sum(d) {\n"), "got:\n{text}");
    assert!(text.contains("input x: Float[d]"), "got:\n{text}");
    assert!(text.contains("multiFold(d) {"), "got:\n{text}");
    assert!(text.contains("acc sum: Float = splat(0.0)"), "got:\n{text}");
    assert!(text.contains("update sum @ () [] (acc) {"), "got:\n{text}");
    assert!(text.contains("combine sum (a, b) {"), "got:\n{text}");
    assert!(text.contains("yield"), "got:\n{text}");
    assert!(text.trim_end().ends_with('}'), "got:\n{text}");
    // No symbol ids leak into the canonical text.
    assert!(!text.contains("x_0"), "got:\n{text}");
}

#[test]
fn emit_uniquifies_repeated_base_names() {
    // Two folds both bind `acc`, `a` and `b` in their own scopes.
    let prog = parse(
        "program two(d) {
           input x: Float[d]
           let s1 = fold(d) {
             acc s1: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a + b }
           }
           let s2 = fold(d) {
             acc s2: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a + b }
           }
           return (s1, s2)
         }",
    );
    let text = emit_program(&prog);
    assert!(
        text.contains("(acc_2)"),
        "second acc param renamed:\n{text}"
    );
    assert!(
        text.contains("(a_2, b_2)"),
        "combine params renamed:\n{text}"
    );
}

#[test]
fn emit_handles_special_floats_and_keyword_names() {
    let mut prog = parse(
        "program arg(d) {
           input x: Float[d]
           let y = map(d) { (i) => yield if (x(i) < 3.4028235e38) inf else -inf }
           return (y)
         }",
    );
    // Text cannot bind a keyword, so name the map's output `map` by hand.
    let out = prog.outputs()[0];
    let mut syms = SymTable::new();
    for id in 0..prog.syms.len() as u32 {
        let info = prog.syms.info(Sym(id));
        let name = if Sym(id) == out { "map" } else { &info.name };
        syms.fresh(name, info.ty.clone());
    }
    prog.syms = syms;
    let text = emit_program(&prog);
    assert!(
        text.contains("3.4028235e38"),
        "f32::MAX round-trips:\n{text}"
    );
    assert!(text.contains("inf"), "got:\n{text}");
    assert!(text.contains("-inf"), "got:\n{text}");
    assert!(!text.contains("let map ="), "keyword renamed:\n{text}");
    assert!(text.contains("let map_ ="), "got:\n{text}");
}
