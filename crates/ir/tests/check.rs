//! The well-formedness checker's two modes on programs written as PPL
//! text, and on mutants of them that text cannot spell.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::block::{Op, Stmt};
use pphw_ir::check::{check_deep, ValidateError as Rule};
use pphw_ir::expr::{Expr, Lit};
use pphw_ir::pattern::Pattern;
use pphw_ir::types::Sym;
use pphw_ir::Program;

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

fn sum_program() -> Program {
    parse(
        "program sum(d) {
           input x: Float[d]
           let sum = fold(d) {
             acc sum: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a + b }
           }
           return (sum)
         }",
    )
}

fn kinds(prog: &Program) -> Vec<Rule> {
    check_deep(prog).iter().map(|f| f.kind).collect()
}

#[test]
fn well_formed_program_is_clean_in_both_modes() {
    let p = sum_program();
    assert_eq!(check_deep(&p), vec![]);
    assert_eq!(p.validate(), Ok(()));
}

#[test]
fn deep_collects_every_finding_structural_returns_the_first() {
    let mut p = sum_program();
    // Break the result AND rebind an input in one program.
    let extra = p.body.result[0];
    p.body.result = vec![Sym(9999)];
    p.body
        .stmts
        .push(Stmt::new(p.inputs[0], Op::Expr(Expr::var(extra))));
    let found = check_deep(&p);
    assert_eq!(kinds(&p), [Rule::Rebound, Rule::UnboundSym]);
    assert_eq!(found[0].path.to_string(), "sum/x[1]");
    assert_eq!(
        found[1].path.to_string(),
        "sum",
        "a block's result is checked at the block"
    );
    assert_eq!(p.validate(), Err(found[0].clone()));
}

#[test]
fn rank_and_width_rules_are_deep_only() {
    let mut p = parse(
        "program bad(m, n) {
           input x: Float[m, n]
           let y = map(m) { (i) => yield x(i, 0) }
           return (y)
         }",
    );
    // Read the rank-2 tensor with a single index: the lowering rejects
    // that spelling, so drop the column index from the parse.
    let Op::Pattern(Pattern::Map(map)) = &mut p.body.stmts[0].op else {
        panic!("bad is one map");
    };
    let Op::Expr(Expr::Read { index, .. }) = &mut map.body.body.stmts[0].op else {
        panic!("the map body is one read");
    };
    index.pop();
    assert_eq!(kinds(&p), [Rule::ReadRank]);
    assert_eq!(p.validate(), Ok(()));

    let mut p = sum_program();
    let Op::Pattern(Pattern::MultiFold(mf)) = &mut p.body.stmts[0].op else {
        panic!("sum is one multiFold");
    };
    mf.accs[0].init.splat.push(Lit::I32(0));
    assert_eq!(kinds(&p), [Rule::UpdateShape]);
    assert_eq!(p.validate(), Ok(()));
}
