//! Structural equality of programs written as PPL text.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::block::{Block, Op};
use pphw_ir::pattern::Pattern;
use pphw_ir::types::{Sym, SymTable, Type};
use pphw_ir::{structural_diff, structural_eq, Program};

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

fn sum_program(name: &str, lit: f32) -> Program {
    parse(&format!(
        "program {name}(d) {{
           input x: Float[d]
           let sum = fold(d) {{
             acc sum: Float = splat(0.0)
             (i) (acc) => yield acc + {lit:?} * x(i)
             combine (a, b) {{ yield a + b }}
           }}
           return (sum)
         }}"
    ))
}

/// `prog` with every symbol id moved up by `by`, over a table that starts
/// with `by` unused symbols. Text never mints a symbol it does not bind,
/// so the padding is added to a parse. Covers the statements
/// [`sum_program`] has: scalar expressions and one `multiFold`.
fn padded(prog: &Program, by: u32) -> Program {
    fn block(b: &mut Block, up: &impl Fn(Sym) -> Sym) {
        for stmt in &mut b.stmts {
            stmt.syms = stmt.syms.iter().map(|s| up(*s)).collect();
            match &mut stmt.op {
                Op::Expr(e) => *e = e.rename_syms(up),
                Op::Pattern(Pattern::MultiFold(mf)) => {
                    mf.idx = mf.idx.iter().map(|s| up(*s)).collect();
                    block(&mut mf.pre, up);
                    for u in &mut mf.updates {
                        u.loc = u.loc.iter().map(|e| e.rename_syms(up)).collect();
                        u.acc_param = up(u.acc_param);
                        block(&mut u.body, up);
                    }
                    for c in mf.combines.iter_mut().flatten() {
                        c.params = c.params.iter().map(|s| up(*s)).collect();
                        block(&mut c.body, up);
                    }
                }
                other => panic!("no such statement in sum_program: {other:?}"),
            }
        }
        b.result = b.result.iter().map(|s| up(*s)).collect();
    }
    let up = |s: Sym| Sym(s.0 + by);
    let mut out = prog.clone();
    out.syms = SymTable::new();
    for k in 0..by {
        out.syms.fresh(format!("pad{k}"), Type::f32());
    }
    for id in 0..prog.syms.len() as u32 {
        let info = prog.syms.info(Sym(id));
        out.syms.fresh(info.name.clone(), info.ty.clone());
    }
    out.inputs = out.inputs.iter().map(|s| up(*s)).collect();
    block(&mut out.body, &up);
    out
}

#[test]
fn identical_programs_are_equal() {
    let a = sum_program("sum", 2.0);
    let b = sum_program("sum", 2.0);
    assert_eq!(structural_diff(&a, &b), None);
    assert!(structural_eq(&a, &b));
}

#[test]
fn sym_ids_do_not_matter() {
    let a = sum_program("sum", 2.0);
    let b = padded(&a, 2);
    assert_eq!(b.validate(), Ok(()));
    assert_ne!(a.inputs, b.inputs, "every id shifted");
    assert!(structural_eq(&a, &b));
}

#[test]
fn literal_difference_is_reported() {
    let a = sum_program("sum", 2.0);
    let b = sum_program("sum", 3.0);
    let diff = structural_diff(&a, &b).unwrap_or_default();
    assert!(diff.contains("literal"), "got: {diff}");
}

#[test]
fn name_difference_is_reported() {
    let a = sum_program("sum", 2.0);
    let b = sum_program("sum2", 2.0);
    assert!(!structural_eq(&a, &b));
}

#[test]
fn float_bits_distinguish_negative_zero() {
    let mk = |v: &str| {
        parse(&format!(
            "program z(d) {{
               input x: Float[d]
               let y = map(d) {{ (i) => yield {v} + x(i) }}
               return (y)
             }}"
        ))
    };
    assert!(structural_eq(&mk("0.0"), &mk("0.0")));
    assert!(!structural_eq(&mk("0.0"), &mk("-0.0")));
}

#[test]
fn sizes_compare_simplified() {
    let mk = |d: &str| {
        parse(&format!(
            "program m(d) {{
               input x: Float[{d}]
               let y = map({d}) {{ (i) => yield x(i) }}
               return (y)
             }}"
        ))
    };
    assert!(structural_eq(&mk("d"), &mk("d + 0")));
}
