//! Pattern interchange — the second half of tiling (§4 of the paper).
//!
//! Two reordering rules (adapted from the Collect-Reduce rule) move
//! *strided* patterns out of *unstrided* ones to increase reuse of tile
//! copies:
//!
//! 1. A scalar strided fold inside an unstrided `Map` becomes a strided
//!    fold of a `Map` (the combine function becomes elementwise over the
//!    map's domain). This is the transformation behind Table 3 (matrix
//!    multiply) and Figure 5b (k-means).
//! 2. A strided write-once `MultiFold` (the outer pattern of a tiled `Map`)
//!    inside an unstrided fold becomes a strided `MultiFold` of a scalar
//!    fold.
//!
//! [`split_multifolds`] implements the paper's split heuristic for
//! imperfectly nested patterns: a strided sub-computation inside a
//! `MultiFold`'s body is extracted into its own `Map` over the fold's
//! domain — but only when the intermediate result is statically known to
//! fit on the FPGA.

use std::collections::{BTreeMap, BTreeSet};

use pphw_ir::block::{Block, Op, Stmt};
use pphw_ir::expr::Expr;
use pphw_ir::pattern::{AccDef, AccUpdate, Lambda, MapPat, MultiFoldPat, Pattern};
use pphw_ir::program::Program;
use pphw_ir::size::Size;
use pphw_ir::types::{Sym, SymTable, Type};

use crate::config::TileConfig;
use crate::rewrite::{alpha_rename, subst_vars};

/// Returns `true` if any extent of the domain is strided (contains a tile
/// count `d/b`).
pub fn is_strided(domain: &[Size]) -> bool {
    fn strided(s: &Size) -> bool {
        match s {
            Size::Div(_, _) => true,
            Size::Const(_) | Size::Var(_) => false,
            Size::Add(a, b) | Size::Sub(a, b) | Size::Mul(a, b) => strided(a) || strided(b),
        }
    }
    domain.iter().any(strided)
}

/// Applies interchange rules throughout the program until fixpoint.
pub fn interchange_program(prog: &Program, cfg: &TileConfig) -> Program {
    let mut out = prog.clone();
    let mut body = std::mem::take(&mut out.body);
    loop {
        let mut changed = false;
        ic_block(&mut body, &mut out.syms, cfg, &mut changed);
        if !changed {
            break;
        }
    }
    out.body = body;
    out
}

/// Applies the split heuristic throughout the program.
pub fn split_multifolds(prog: &Program, cfg: &TileConfig) -> Program {
    let mut out = prog.clone();
    let mut body = std::mem::take(&mut out.body);
    split_block(&mut body, &mut out.syms, cfg);
    out.body = body;
    out
}

#[allow(clippy::only_used_in_recursion)]
fn ic_block(block: &mut Block, syms: &mut SymTable, cfg: &TileConfig, changed: &mut bool) {
    for stmt in &mut block.stmts {
        if let Op::Pattern(p) = &mut stmt.op {
            for b in p.child_blocks_mut() {
                ic_block(b, syms, cfg, changed);
            }
            if let Some(new_pat) = try_interchange(p, syms) {
                stmt.op = Op::Pattern(new_pat);
                *changed = true;
            }
        }
    }
}

fn try_interchange(p: &Pattern, syms: &mut SymTable) -> Option<Pattern> {
    if let Some(r) = rule1_fold_out_of_map(p, syms) {
        return Some(r);
    }
    rule2_multifold_out_of_fold(p, syms)
}

/// Rule 1: `map(D){ …; fold(S strided)(z){ … } }` ⇒
/// `fold(S)(z'){ acc => map(D){ … } }` with a tensor accumulator over `D`.
fn rule1_fold_out_of_map(p: &Pattern, syms: &mut SymTable) -> Option<Pattern> {
    let Pattern::Map(m) = p else { return None };
    if is_strided(&m.domain) {
        return None; // only move strided folds out of *unstrided* maps
    }
    // The map body must end in a strided scalar fold whose result is the
    // map's element.
    let (fold_pos, fold) = m
        .body
        .body
        .stmts
        .iter()
        .enumerate()
        .find_map(|(i, s)| match &s.op {
            Op::Pattern(Pattern::MultiFold(mf))
                if mf.is_fold() && mf.accs[0].shape.is_empty() && is_strided(&mf.domain) =>
            {
                Some((i, mf.clone()))
            }
            _ => None,
        })?;
    if m.body.body.stmts[fold_pos].sym() != m.body.body.result_sym() {
        return None;
    }
    // No other pattern statements may follow the fold.
    if m.body.body.stmts[fold_pos + 1..]
        .iter()
        .any(|s| matches!(s.op, Op::Pattern(_)))
    {
        return None;
    }

    // Partition the fold's pre-statements: those independent of the map's
    // indices stay in the new outer fold (e.g. centroid tile copies, which
    // is the entire point — they get reused across the map's domain); the
    // rest move into the inner map.
    let map_locals: BTreeSet<Sym> = {
        let mut s: BTreeSet<Sym> = m.body.params.iter().copied().collect();
        for st in &m.body.body.stmts[..fold_pos] {
            s.extend(st.syms.iter().copied());
        }
        s
    };
    let mut hoisted: Vec<Stmt> = Vec::new();
    let mut moved: Vec<Stmt> = Vec::new();
    let mut moved_syms: BTreeSet<Sym> = map_locals.clone();
    for st in &fold.pre.stmts {
        let free = stmt_free_syms(st);
        if free.iter().any(|s| moved_syms.contains(s)) {
            moved_syms.extend(st.syms.iter().copied());
            moved.push(st.clone());
        } else {
            hoisted.push(st.clone());
        }
    }

    // Build the inner map: original map-body prefix + moved fold-pre
    // statements + the fold's update body, with the scalar accumulator
    // replaced by a read of the tensor accumulator at the map index.
    let elem = fold.accs[0].elem.clone();
    let acc_tensor = syms.fresh(
        "accT",
        Type::Tensor {
            elem: elem.clone(),
            shape: m.domain.clone(),
        },
    );
    let update = &fold.updates[0];
    let mut inner_stmts: Vec<Stmt> = m.body.body.stmts[..fold_pos].to_vec();
    inner_stmts.extend(moved);
    inner_stmts.extend(update.body.stmts.clone());
    let mut inner_body = Block {
        stmts: inner_stmts,
        result: vec![update.body.result_sym()],
    };
    let idx_exprs: Vec<Expr> = m.body.params.iter().map(|s| Expr::var(*s)).collect();
    let mut subst = BTreeMap::new();
    subst.insert(
        update.acc_param,
        Expr::Read {
            tensor: acc_tensor,
            index: idx_exprs,
        },
    );
    subst_vars(&mut inner_body, &subst);

    let inner_map = Pattern::Map(MapPat {
        domain: m.domain.clone(),
        body: Lambda::new(m.body.params.clone(), inner_body),
    });
    let map_out = syms.fresh(
        "newAcc",
        Type::Tensor {
            elem: elem.clone(),
            shape: m.domain.clone(),
        },
    );
    let mut update_body = Block::new();
    update_body.push(map_out, Op::Pattern(inner_map));
    update_body.result = vec![map_out];

    Some(Pattern::MultiFold(MultiFoldPat {
        domain: fold.domain.clone(),
        accs: vec![AccDef {
            name: format!("{}_vec", fold.accs[0].name),
            shape: m.domain.clone(),
            elem,
            init: fold.accs[0].init.clone(),
        }],
        idx: fold.idx.clone(),
        pre: Block {
            stmts: hoisted,
            result: vec![],
        },
        updates: vec![AccUpdate {
            loc: m.domain.iter().map(|_| Expr::int(0)).collect(),
            shape: m.domain.clone(),
            acc_param: acc_tensor,
            body: update_body,
        }],
        combines: fold.combines.clone(),
    }))
}

/// Rule 2: an unstrided fold whose body is a strided *write-once*
/// `MultiFold` merged elementwise into the accumulator becomes a strided
/// write-once `MultiFold` whose regions are produced by scalar folds.
///
/// This matches the shape `fold(D){ i => acc => combine(acc, W_i) }` where
/// `W_i` is a tiled map (strided write-once `MultiFold`): instead of
/// producing every tile of `W_i` for each `i`, the strided tile loop moves
/// outermost and each tile is reduced over `D` once.
fn rule2_multifold_out_of_fold(p: &Pattern, syms: &mut SymTable) -> Option<Pattern> {
    let Pattern::MultiFold(f) = p else {
        return None;
    };
    if !f.is_fold() || is_strided(&f.domain) || f.accs.len() != 1 {
        return None;
    }
    let combine = f.combines[0].as_ref()?;
    let update = &f.updates[0];
    // The update body must be exactly: a strided write-once MultiFold W
    // followed by an elementwise merge map of (acc, W).
    if update.body.stmts.len() != 2 {
        return None;
    }
    let w = match &update.body.stmts[0].op {
        Op::Pattern(Pattern::MultiFold(w))
            if is_strided(&w.domain)
                && w.accs.len() == 1
                && w.combines[0].is_none()
                && !f.pre.stmts.iter().any(|_| false) =>
        {
            w.clone()
        }
        _ => None?,
    };
    let w_sym = update.body.stmts[0].sym();
    // Merge map: map(acc.shape){ r => combine(acc(r), w(r)) } — recognize
    // structurally by checking the final statement is a Map over the
    // accumulator shape whose body reads both acc and w.
    let merge_ok = match &update.body.stmts[1].op {
        Op::Pattern(Pattern::Map(mm)) => {
            let frees = mm.body.body.free_syms();
            mm.domain == f.accs[0].shape
                && frees.contains(&update.acc_param)
                && frees.contains(&w_sym)
        }
        _ => false,
    };
    if !merge_ok || update.body.stmts[1].sym() != update.body.result_sym() {
        return None;
    }

    // New structure: W' over the strided tile domain (write-once), whose
    // update body folds over f.domain producing the tile region.
    let region = w.updates[0].shape.clone();
    let elem = f.accs[0].elem.clone();

    // Inner scalar fold over f.domain for one tile: reuse W's inner tile
    // computation per element by instantiating W's update body inside.
    let (w_update_body, _) = alpha_rename(&w.updates[0].body, syms);
    let (f_pre, f_pre_map) = alpha_rename(&f.pre, syms);

    let tile_acc = syms.fresh(
        "tileAcc",
        if region.is_empty() {
            Type::Scalar(elem.clone())
        } else {
            Type::Tensor {
                elem: elem.clone(),
                shape: region.clone(),
            }
        },
    );
    // fold(f.domain)(init){ i => acc => merge(acc, tile_i) }
    let mut fold_update = Block::new();
    fold_update.stmts.extend(f_pre.stmts);
    fold_update.stmts.extend(w_update_body.stmts.clone());
    let tile_val = w_update_body.result_sym();
    let merged = crate::strip_mine::merge_region(combine, tile_acc, tile_val, &region, &elem, syms);
    let merged_sym = merged.result_sym();
    fold_update.stmts.extend(merged.stmts);
    fold_update.result = vec![merged_sym];
    let _ = f_pre_map;

    let inner_fold = Pattern::MultiFold(MultiFoldPat {
        domain: f.domain.clone(),
        accs: vec![AccDef {
            name: "tile_acc".into(),
            shape: region.clone(),
            elem: elem.clone(),
            init: f.accs[0].init.clone(),
        }],
        idx: f.idx.clone(),
        pre: Block::new(),
        updates: vec![AccUpdate {
            loc: region.iter().map(|_| Expr::int(0)).collect(),
            shape: region.clone(),
            acc_param: tile_acc,
            body: fold_update,
        }],
        combines: vec![Some(crate::strip_mine::clone_lambda(combine, syms))],
    });

    let tile_out = syms.fresh(
        "tileOut",
        if region.is_empty() {
            Type::Scalar(elem.clone())
        } else {
            Type::Tensor {
                elem: elem.clone(),
                shape: region.clone(),
            }
        },
    );
    let mut outer_pre = Block::new();
    outer_pre.push(tile_out, Op::Pattern(inner_fold));
    let outer_acc_param = syms.fresh(
        "acc",
        if region.is_empty() {
            Type::Scalar(elem.clone())
        } else {
            Type::Tensor {
                elem: elem.clone(),
                shape: region.clone(),
            }
        },
    );

    Some(Pattern::MultiFold(MultiFoldPat {
        domain: w.domain.clone(),
        accs: f.accs.clone(),
        idx: w.idx.clone(),
        pre: outer_pre,
        updates: vec![AccUpdate {
            loc: w.updates[0].loc.clone(),
            shape: region,
            acc_param: outer_acc_param,
            body: Block {
                stmts: vec![],
                result: vec![tile_out],
            },
        }],
        combines: vec![None],
    }))
}

fn stmt_free_syms(stmt: &Stmt) -> Vec<Sym> {
    let b = Block {
        stmts: vec![stmt.clone()],
        result: vec![],
    };
    b.free_syms()
}

// ---------------------------------------------------------------------
// Split heuristic
// ---------------------------------------------------------------------

fn split_block(block: &mut Block, syms: &mut SymTable, cfg: &TileConfig) {
    // Recurse first.
    for stmt in &mut block.stmts {
        if let Op::Pattern(p) = &mut stmt.op {
            for b in p.child_blocks_mut() {
                split_block(b, syms, cfg);
            }
        }
    }
    // Then split at this level, rebuilding the statement list.
    let stmts = std::mem::take(&mut block.stmts);
    let mut out = Vec::with_capacity(stmts.len());
    for mut stmt in stmts {
        if let Op::Pattern(Pattern::MultiFold(mf)) = &mut stmt.op {
            if let Some(extracted) = try_split(mf, syms, cfg) {
                out.push(extracted);
            }
        }
        out.push(stmt);
    }
    block.stmts = out;
}

/// Extracts a strided scalar sub-computation from a `MultiFold`'s pre block
/// into a separate `Map` over the fold's domain — when the intermediate is
/// statically known to fit on chip.
fn try_split(mf: &mut MultiFoldPat, syms: &mut SymTable, cfg: &TileConfig) -> Option<Stmt> {
    // Find a strided scalar pattern in the pre block.
    let pos = mf.pre.stmts.iter().position(|s| match &s.op {
        Op::Pattern(p) => {
            is_strided(p.domain())
                && s.syms.len() == 1
                && matches!(syms.ty(s.syms[0]), Type::Scalar(_))
        }
        _ => false,
    })?;
    let target_sym = mf.pre.stmts[pos].sym();
    let elem = match syms.ty(target_sym) {
        Type::Scalar(s) => s.clone(),
        _ => return None,
    };

    // Heuristic: the intermediate (one scalar per fold-domain index) must
    // fit on chip.
    let elems: i64 = mf
        .domain
        .iter()
        .map(|s| s.eval(&cfg.sizes).unwrap_or(i64::MAX / 8))
        .product();
    let bytes = elems.checked_mul(elem.bytes() as i64)?;
    if bytes as u64 > cfg.on_chip_budget_bytes {
        return None;
    }

    // Backward slice of the target within the pre block.
    let mut needed: BTreeSet<Sym> = stmt_free_syms(&mf.pre.stmts[pos]).into_iter().collect();
    let mut slice_idx: Vec<usize> = vec![pos];
    for i in (0..pos).rev() {
        if mf.pre.stmts[i].syms.iter().any(|s| needed.contains(s)) {
            needed.extend(stmt_free_syms(&mf.pre.stmts[i]));
            slice_idx.push(i);
        }
    }
    slice_idx.reverse();

    // Build the extracted map over the fold's domain.
    let params: Vec<Sym> = mf
        .idx
        .iter()
        .map(|_| syms.fresh("i", Type::i32()))
        .collect();
    let slice_block = Block {
        stmts: slice_idx.iter().map(|i| mf.pre.stmts[*i].clone()).collect(),
        result: vec![target_sym],
    };
    let (mut map_body, rename) = alpha_rename(&slice_block, syms);
    let idx_subst: BTreeMap<Sym, Expr> = mf
        .idx
        .iter()
        .zip(&params)
        .map(|(old, new)| (*old, Expr::var(*new)))
        .collect();
    subst_vars(&mut map_body, &idx_subst);
    map_body.result = vec![rename[&target_sym]];

    let map_out = syms.fresh(
        format!("{}s", syms.info(target_sym).name.clone()),
        Type::Tensor {
            elem,
            shape: mf.domain.clone(),
        },
    );
    let extracted = Stmt::new(
        map_out,
        Op::Pattern(Pattern::Map(MapPat {
            domain: mf.domain.clone(),
            body: Lambda::new(params, map_body),
        })),
    );

    // Remove the target from the pre block and redirect its uses to reads
    // of the extracted tensor. (Dead prefix statements are left for DCE.)
    mf.pre.stmts.remove(pos);
    let idx_exprs: Vec<Expr> = mf.idx.iter().map(|s| Expr::var(*s)).collect();
    let mut subst = BTreeMap::new();
    subst.insert(
        target_sym,
        Expr::Read {
            tensor: map_out,
            index: idx_exprs,
        },
    );
    subst_vars(&mut mf.pre, &subst);
    for u in &mut mf.updates {
        for e in &mut u.loc {
            *e = e.subst_vars(&|s| subst.get(&s).cloned());
        }
        subst_vars(&mut u.body, &subst);
    }
    Some(extracted)
}
