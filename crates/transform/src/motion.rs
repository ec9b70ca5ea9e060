//! Code motion: hoisting loop-invariant statements out of pattern bodies.
//!
//! A statement in a pattern's entry block that does not depend on the
//! pattern's parameters (or on anything bound after them) computes the same
//! value in every iteration; it is moved in front of the pattern. The pass
//! iterates to a fixpoint so statements can bubble up several levels —
//! this is what lets duplicate tile copies meet in one block where CSE can
//! merge them.

use std::collections::BTreeSet;

use pphw_ir::block::{Block, Op, Stmt};
use pphw_ir::pattern::Pattern;
use pphw_ir::program::Program;
use pphw_ir::types::Sym;

/// Hoists invariant statements until fixpoint.
pub fn hoist_program(prog: &Program) -> Program {
    let mut out = prog.clone();
    loop {
        let mut changed = false;
        hoist_block(&mut out.body, &mut changed);
        if !changed {
            break;
        }
    }
    out
}

fn hoist_block(block: &mut Block, changed: &mut bool) {
    let stmts = std::mem::take(&mut block.stmts);
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for mut stmt in stmts {
        if let Op::Pattern(p) = &mut stmt.op {
            // Recurse first so inner hoists surface here in one sweep.
            for b in p.child_blocks_mut() {
                hoist_block(b, changed);
            }
            let hoisted = extract_invariant(p);
            if !hoisted.is_empty() {
                *changed = true;
                out.extend(hoisted);
            }
        }
        out.push(stmt);
    }
    block.stmts = out;
}

/// Removes and returns the leading invariant statements of the pattern's
/// entry block.
fn extract_invariant(p: &mut Pattern) -> Vec<Stmt> {
    let params: BTreeSet<Sym> = p.param_syms().into_iter().collect();
    let entry: &mut Block = match p {
        Pattern::Map(m) => &mut m.body.body,
        Pattern::MultiFold(mf) => &mut mf.pre,
        Pattern::FlatMap(fm) => &mut fm.body.body,
        Pattern::GroupByFold(g) => &mut g.pre,
    };
    let mut dependent: BTreeSet<Sym> = params;
    let stmts = std::mem::take(&mut entry.stmts);
    let mut hoisted = Vec::new();
    let mut kept = Vec::new();
    for stmt in stmts {
        let free = {
            let b = Block {
                stmts: vec![stmt.clone()],
                result: vec![],
            };
            b.free_syms()
        };
        if free.iter().any(|s| dependent.contains(s)) {
            dependent.extend(stmt.syms.iter().copied());
            kept.push(stmt);
        } else {
            hoisted.push(stmt);
        }
    }
    entry.stmts = kept;
    hoisted
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_ir::interp::{Interpreter, Value};

    fn parse(src: &str) -> Program {
        pphw_frontend::parse_program(src, "test.ppl")
            .expect("parses")
            .program
    }

    #[test]
    fn hoists_invariant_scalar_out_of_map() {
        // `two` is invariant: it does not mention the index.
        let prog = parse(
            "program hoist(d) {
               input x: Float[d]
               let y = map(d) { (i) =>
                 let two = 1.0 + 1.0
                 yield two * x(i)
               }
               return (y)
             }",
        );
        let hoisted = hoist_program(&prog);
        hoisted.validate().unwrap();
        // The invariant statement moved to the top level.
        assert!(hoisted.body.stmts.len() > prog.body.stmts.len());
        let r = Interpreter::new(&hoisted, &[("d", 3)])
            .run(vec![Value::tensor_f32(&[3], vec![1.0, 2.0, 3.0])])
            .unwrap();
        assert_eq!(r[0].as_f32_slice(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn keeps_dependent_stmts() {
        let prog = parse(
            "program keep(d) {
               input x: Float[d]
               let y = map(d) { (i) =>
                 let v = x(i)
                 yield v * v
               }
               return (y)
             }",
        );
        let hoisted = hoist_program(&prog);
        assert_eq!(hoisted.body.stmts.len(), prog.body.stmts.len());
    }
}
