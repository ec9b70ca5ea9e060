//! Parallelization race detector.
//!
//! A `MultiFold` or `GroupByFold` combine runs as a *parallel* reduction
//! (a lane tree, or concurrent bucket merges) the moment the pipeline
//! applies `inner_par > 1`. That is only sound when the combine is
//! associative and commutative; anything else reorders non-reorderable
//! updates — a race whose symptom is a silently wrong answer on some
//! schedules.
//!
//! The recognizer is *structural* (and therefore sound but incomplete):
//! it inlines the combine body to a single expression over the two
//! operands and accepts exactly
//!
//! - `a ⊕ b` / `b ⊕ a` for `⊕ ∈ {+, *, min, max, &&, ||}`, and
//! - the min/max-by-key select idiom
//!   `select(key(a) < key(b), a, b)` (any operand order, `<` or `<=`,
//!   key = the operand itself or one tuple field, the same on both sides)
//!   — the paper's argmin reduction, associative-commutative up to
//!   tie-breaking on equal keys.
//!
//! Combines proven correct by other means are admitted by path through
//! [`VerifyConfig::allow_combines`].

use pphw_ir::block::{Block, Op};
use pphw_ir::expr::{BinOp, Expr};
use pphw_ir::path::IrPath;
use pphw_ir::pattern::Seg;
use pphw_ir::program::Program;
use pphw_ir::types::{Sym, SymTable};

use crate::{DiagCode, Severity, VerifyConfig, VerifyReport};

/// Walks the program and reports every combine that `cfg.inner_par`
/// would parallelize without a provably associative-commutative body.
pub fn check_races(prog: &Program, cfg: &VerifyConfig, report: &mut VerifyReport) {
    if cfg.inner_par <= 1 {
        return; // a serial reduction applies updates in order: no race
    }
    let root = IrPath::root(&prog.name);
    let mut check = |operands: &[Sym], body: &Block, cpath: &IrPath| {
        let rendered = cpath.to_string();
        if cfg.allow_combines.contains(&rendered) {
            return;
        }
        if let Err(why) = combine_is_assoc_comm(operands, body) {
            report.push(
                DiagCode::NonAssocCombine,
                Severity::Error,
                rendered,
                format!(
                    "combine is not provably associative-commutative ({why}); \
                     parallelizing it with inner_par={} races — allowlist the \
                     path if it is correct by construction",
                    cfg.inner_par
                ),
            );
        }
    };
    visit_combines(&prog.body, &prog.syms, &root, &mut check);
}

/// Paths of every combine the recognizer could not prove
/// associative-commutative (ignoring `inner_par` and the allowlist).
/// The DSE prefilter uses this to prune parallel candidates per program,
/// not per (program, parallelism) pair.
#[must_use]
pub fn non_assoc_combines(prog: &Program) -> Vec<String> {
    let mut found = Vec::new();
    let mut collect = |operands: &[Sym], body: &Block, path: &IrPath| {
        if combine_is_assoc_comm(operands, body).is_err() {
            found.push(path.to_string());
        }
    };
    visit_combines(
        &prog.body,
        &prog.syms,
        &IrPath::root(&prog.name),
        &mut collect,
    );
    found
}

/// Visits every combine in the block (recursively), handing its operands
/// and body to `f` with its path (`…/combine[k]` / `…/combine`). Descent
/// and paths come from [`Pattern::scopes`](pphw_ir::pattern::Pattern::scopes),
/// as the IR checker's do.
fn visit_combines(
    block: &Block,
    syms: &SymTable,
    path: &IrPath,
    f: &mut impl FnMut(&[Sym], &Block, &IrPath),
) {
    for (i, stmt) in block.stmts.iter().enumerate() {
        let Op::Pattern(p) = &stmt.op else { continue };
        let at = path.stmt(syms, stmt, i);
        for scope in p.scopes() {
            let Some(body) = scope.block else { continue };
            let here = at.child(scope.seg.to_string());
            if let Seg::Combine(_) = scope.seg {
                f(scope.binds, body, &here);
            }
            visit_combines(body, syms, &here, f);
        }
    }
}

/// Structural proof attempt. `Ok(())` means the combine is recognized as
/// associative-commutative; `Err` names the first obstruction.
pub fn combine_is_assoc_comm(operands: &[Sym], body: &Block) -> Result<(), String> {
    let &[a, b] = operands else {
        return Err(format!("combine takes {} operands, not 2", operands.len()));
    };
    let body = inline_body(body)?;
    // Plain commutative-monoid operators over the two operands.
    if let Expr::Bin(op, x, y) = &body {
        if is_ac_op(*op) && is_operand_pair(x, y, a, b) {
            return Ok(());
        }
    }
    // Min/max-by-key select: select(key(x) < key(y), x, y).
    if let Expr::Select {
        cond,
        if_true,
        if_false,
    } = &body
    {
        if let Expr::Bin(BinOp::Lt | BinOp::Le, k1, k2) = cond.as_ref() {
            if let (Some((x, key1)), Some((y, key2))) = (key_of(k1), key_of(k2)) {
                let distinct = x != y && (x == a || x == b) && (y == a || y == b);
                let same_key = key1 == key2;
                let arms = matches!(
                    (if_true.as_ref(), if_false.as_ref()),
                    (Expr::Var(t), Expr::Var(fv))
                        if (*t == x && *fv == y) || (*t == y && *fv == x)
                );
                if distinct && same_key && arms {
                    return Ok(());
                }
            }
        }
        return Err("select form is not the min/max-by-key idiom".to_string());
    }
    Err(format!(
        "body is not a commutative operator over both operands: {}",
        describe(&body)
    ))
}

/// Inlines a straight-line, expression-only combine body into a single
/// expression over the combine's operands.
fn inline_body(body: &Block) -> Result<Expr, String> {
    let mut defs: Vec<(Sym, Expr)> = Vec::new();
    for stmt in &body.stmts {
        let Op::Expr(e) = &stmt.op else {
            return Err("combine body contains a non-scalar operation".to_string());
        };
        if stmt.syms.len() != 1 {
            return Err("combine statement binds multiple symbols".to_string());
        }
        let inlined = e.subst_vars(&|s| {
            defs.iter()
                .rev()
                .find(|(d, _)| *d == s)
                .map(|(_, e)| e.clone())
        });
        defs.push((stmt.syms[0], inlined));
    }
    let &[r] = &body.result[..] else {
        return Err(format!(
            "combine body yields {} results, not 1",
            body.result.len()
        ));
    };
    if let Some((_, e)) = defs.iter().rev().find(|(d, _)| *d == r) {
        return Ok(e.clone());
    }
    // The result is a parameter or free symbol: `(a, b) -> a` is a
    // projection, never commutative.
    Ok(Expr::Var(r))
}

fn is_ac_op(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or
    )
}

/// `true` when `{x, y}` is exactly `{Var(a), Var(b)}` in either order.
fn is_operand_pair(x: &Expr, y: &Expr, a: Sym, b: Sym) -> bool {
    matches!(
        (x, y),
        (Expr::Var(p), Expr::Var(q))
            if (*p == a && *q == b) || (*p == b && *q == a)
    )
}

/// Decomposes a key expression: `Var(x)` is `(x, None)`, `Field(Var(x), i)`
/// is `(x, Some(i))`; anything else is unrecognized.
fn key_of(e: &Expr) -> Option<(Sym, Option<usize>)> {
    match e {
        Expr::Var(s) => Some((*s, None)),
        Expr::Field(inner, i) => match inner.as_ref() {
            Expr::Var(s) => Some((*s, Some(*i))),
            _ => None,
        },
        _ => None,
    }
}

fn describe(e: &Expr) -> &'static str {
    match e {
        Expr::Lit(_) => "a literal",
        Expr::Var(_) => "a bare operand/projection",
        Expr::SizeOf(_) => "a size value",
        Expr::Un(..) => "a unary operation",
        Expr::Bin(..) => "a non-commutative binary operation",
        Expr::Select { .. } => "a select",
        Expr::Tuple(_) => "a tuple construction",
        Expr::Field(..) => "a field projection",
        Expr::Read { .. } => "a tensor read",
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use pphw_ir::block::Stmt;
    use pphw_ir::pattern::Lambda;
    use pphw_ir::types::Type;

    use super::*;

    fn combine_is_assoc_comm(l: &Lambda) -> Result<(), String> {
        super::combine_is_assoc_comm(&l.params, &l.body)
    }

    /// Builds `(a, b) -> body(a, b)` as the frontend lowers a combine: one
    /// statement binding the combined value, sealed as the block result.
    fn combine(body: impl Fn(Expr, Expr) -> Expr) -> Lambda {
        let mut syms = SymTable::new();
        let a = syms.fresh("a", Type::f32());
        let b = syms.fresh("b", Type::f32());
        let r = syms.fresh("comb", Type::f32());
        let block = Block::with_result(
            vec![Stmt::new(r, Op::Expr(body(Expr::var(a), Expr::var(b))))],
            r,
        );
        Lambda::new(vec![a, b], block)
    }

    #[test]
    fn add_mul_min_max_are_accepted() {
        assert!(combine_is_assoc_comm(&combine(|a, b| a.add(b))).is_ok());
        assert!(combine_is_assoc_comm(&combine(|a, b| a.mul(b))).is_ok());
        assert!(combine_is_assoc_comm(&combine(|a, b| Expr::Bin(
            BinOp::Min,
            Box::new(a),
            Box::new(b)
        )))
        .is_ok());
        assert!(
            combine_is_assoc_comm(&combine(|a, b| b.add(a))).is_ok(),
            "either order"
        );
    }

    #[test]
    fn sub_div_and_projection_are_rejected() {
        assert!(combine_is_assoc_comm(&combine(|a, b| a.sub(b))).is_err());
        assert!(combine_is_assoc_comm(&combine(|a, b| a.div(b))).is_err());
        assert!(combine_is_assoc_comm(&combine(|a, _b| a)).is_err());
    }

    #[test]
    fn argmin_select_is_accepted() {
        // kmeans: select(a._1 < b._1, a, b) over (dist, index) tuples.
        let ok = combine(|a, b| Expr::select(a.clone().field(0).lt(b.clone().field(0)), a, b));
        assert!(combine_is_assoc_comm(&ok).is_ok());
    }

    #[test]
    fn select_with_mismatched_keys_is_rejected() {
        // Keys project different fields: not a by-key min.
        let bad = combine(|a, b| Expr::select(a.clone().field(0).lt(b.clone().field(1)), a, b));
        assert!(combine_is_assoc_comm(&bad).is_err());
    }

    #[test]
    fn multi_statement_bodies_are_inlined() {
        // t = a + b; comb = t  (via two statements)
        let mut syms = SymTable::new();
        let a = syms.fresh("a", Type::f32());
        let b = syms.fresh("b", Type::f32());
        let t = syms.fresh("t", Type::f32());
        let block = Block::with_result(
            vec![Stmt::new(t, Op::Expr(Expr::var(a).add(Expr::var(b))))],
            t,
        );
        assert!(combine_is_assoc_comm(&Lambda::new(vec![a, b], block)).is_ok());
    }
}
