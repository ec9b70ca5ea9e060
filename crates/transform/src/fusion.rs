//! Vertical pattern fusion.
//!
//! Inlines cheap `Map` producers into their consumers: a `Map` whose body
//! is pure scalar computation is replaced at each `Read` site by its body
//! instantiated on the read indices. This decreases the reuse distance of
//! producer/consumer pairs (the paper's vertical fusion); the now-dead
//! producer is removed by DCE. The paper assumes fusion has run before
//! tiling; this pass provides that normalization for programs written in
//! unfused style.

use std::collections::BTreeMap;

use pphw_ir::block::{Block, Op, Stmt};
use pphw_ir::expr::Expr;
use pphw_ir::pattern::{MapPat, Pattern};
use pphw_ir::program::Program;
use pphw_ir::types::{Sym, SymTable};

use crate::dce::dce_block;
use crate::rewrite::{alpha_rename, subst_vars};

/// Fuses cheap map producers into consumers, then removes dead producers.
pub fn fuse_program(prog: &Program) -> Program {
    let mut out = prog.clone();
    let mut body = std::mem::take(&mut out.body);
    // Collect inlineable producers bound anywhere in the program.
    let mut producers: BTreeMap<Sym, MapPat> = BTreeMap::new();
    collect_producers(&body, &mut producers);
    inline_block(&mut body, &producers, &mut out.syms);
    dce_block(&mut body);
    out.body = body;
    out
}

fn collect_producers(block: &Block, out: &mut BTreeMap<Sym, MapPat>) {
    for stmt in &block.stmts {
        if let Op::Pattern(p) = &stmt.op {
            if let Pattern::Map(m) = p {
                let pure = m
                    .body
                    .body
                    .stmts
                    .iter()
                    .all(|s| matches!(s.op, Op::Expr(_)));
                if pure && stmt.syms.len() == 1 {
                    out.insert(stmt.sym(), m.clone());
                }
            }
            for b in p.child_blocks() {
                collect_producers(b, out);
            }
        }
    }
}

fn inline_block(block: &mut Block, producers: &BTreeMap<Sym, MapPat>, syms: &mut SymTable) {
    let stmts = std::mem::take(&mut block.stmts);
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for mut stmt in stmts {
        // Recurse into nested blocks first.
        if let Op::Pattern(p) = &mut stmt.op {
            for b in p.child_blocks_mut() {
                inline_block(b, producers, syms);
            }
        }
        // Inline reads of producer tensors appearing directly in this
        // statement's expressions.
        let mut prefix: Vec<Stmt> = Vec::new();
        rewrite_stmt_exprs(&mut stmt, producers, syms, &mut prefix);
        out.extend(prefix);
        out.push(stmt);
    }
    block.stmts = out;
}

fn rewrite_stmt_exprs(
    stmt: &mut Stmt,
    producers: &BTreeMap<Sym, MapPat>,
    syms: &mut SymTable,
    prefix: &mut Vec<Stmt>,
) {
    if let Op::Expr(e) = &mut stmt.op {
        *e = inline_expr(e, producers, syms, prefix);
    }
    if let Op::VarVec(items) = &mut stmt.op {
        for it in items {
            if let Some(g) = &mut it.guard {
                *g = inline_expr(g, producers, syms, prefix);
            }
            it.value = inline_expr(&it.value, producers, syms, prefix);
        }
    }
}

fn inline_expr(
    e: &Expr,
    producers: &BTreeMap<Sym, MapPat>,
    syms: &mut SymTable,
    prefix: &mut Vec<Stmt>,
) -> Expr {
    e.map(&mut |sub| match &sub {
        Expr::Read { tensor, index } => match producers.get(tensor) {
            Some(m) if index.len() == m.body.params.len() => {
                // Instantiate the producer body on the read indices.
                let (mut body, rename) = alpha_rename(&m.body.body, syms);
                let subst: BTreeMap<Sym, Expr> = m
                    .body
                    .params
                    .iter()
                    .zip(index)
                    .map(|(p, ix)| (*p, ix.clone()))
                    .collect();
                subst_vars(&mut body, &subst);
                let result = rename
                    .get(&m.body.body.result_sym())
                    .copied()
                    .unwrap_or(m.body.body.result_sym());
                prefix.extend(body.stmts);
                Expr::Var(result)
            }
            _ => sub,
        },
        _ => sub,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_ir::interp::{Interpreter, Value};

    /// `sum(x.map{2*e})`, returning `outs` of `doubled` and `sum`.
    fn scaled_sum(name: &str, outs: &str) -> Program {
        let src = format!(
            "program {name}(d) {{
               input x: Float[d]
               let doubled = map(d) {{ (i) => yield 2.0 * x(i) }}
               let sum = fold(d) {{
                 acc sum: Float = splat(0.0)
                 (i) (acc) => yield acc + doubled(i)
                 combine (a, b) {{ yield a + b }}
               }}
               return ({outs})
             }}"
        );
        pphw_frontend::parse_program(&src, "test.ppl")
            .expect("parses")
            .program
    }

    #[test]
    fn fuses_map_into_fold() {
        // sum(x.map{2*e}) becomes a single fold reading x directly.
        let prog = scaled_sum("fused", "sum");
        let fused = fuse_program(&prog);
        fused.validate().unwrap();
        // Producer map is gone.
        assert_eq!(fused.body.stmts.len(), 1);
        let r = Interpreter::new(&fused, &[("d", 4)])
            .run(vec![Value::tensor_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])])
            .unwrap();
        assert_eq!(r[0], Value::scalar_f32(20.0));
    }

    #[test]
    fn producer_kept_when_also_an_output() {
        let prog = scaled_sum("keep", "doubled, sum");
        let fused = fuse_program(&prog);
        fused.validate().unwrap();
        // Both outputs still computed correctly.
        let r = Interpreter::new(&fused, &[("d", 2)])
            .run(vec![Value::tensor_f32(&[2], vec![1.0, 2.0])])
            .unwrap();
        assert_eq!(r[0].as_f32_slice(), vec![2.0, 4.0]);
        assert_eq!(r[1], Value::scalar_f32(6.0));
    }
}
