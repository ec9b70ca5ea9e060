//! Tile-copy insertion.
//!
//! After strip mining and interchange, reads of DRAM-resident tensors
//! inside tiled patterns have statically predictable windows: each index is
//! an affine sum of *strided* outer indices (window start) and at most one
//! unit-coefficient *local* index (window extent). This pass materializes
//! those windows as explicit [`CopyOp`]s — the paper's `x.copy(b + ii, *)`
//! — placed in the pre-block of the pattern binding the deepest strided
//! index, and rewrites all covered reads and slices to target the tile.
//!
//! Tensors whose every use is local/static (no strided start anywhere) are
//! *preloaded* whole at the top level when they fit the on-chip budget —
//! this is how k-means' centroid array becomes the preloaded buffer of
//! Figure 6 (Pipe 0). Tensors with any data-dependent access are left
//! untouched; hardware generation gives them caches instead.

use std::collections::{BTreeMap, BTreeSet};

use pphw_ir::access::{classify_index, IndexClass};
use pphw_ir::block::{Block, CopyOp, Op, SliceDim, Stmt};
use pphw_ir::expr::Expr;
use pphw_ir::pattern::Pattern;
use pphw_ir::program::Program;
use pphw_ir::size::Size;
use pphw_ir::types::{Sym, SymTable, Type};

use crate::config::TileConfig;

/// Per-symbol index info: binding depth and extent.
#[derive(Debug, Clone)]
struct IdxInfo {
    level: usize,
    extent: Size,
}

type Ctl = BTreeMap<Sym, IdxInfo>;

/// One dimension of a use signature.
#[derive(Debug, Clone, PartialEq)]
enum DimSig {
    /// Window starting at a strided-index expression with a fixed extent.
    Window { start: Expr, len: Size },
    /// The whole dimension (purely local/static access).
    Full,
}

#[derive(Debug, Clone)]
struct TensorPlan {
    tensor: Sym,
    dims: Vec<DimSig>,
    /// Deepest level among start terms (0 = top-level preload).
    level: usize,
}

/// Inserts tile copies throughout the program; see the module docs.
pub fn insert_copies(prog: &Program, cfg: &TileConfig) -> Program {
    let mut out = prog.clone();
    let mut body = std::mem::take(&mut out.body);

    // DRAM-resident tensors: inputs plus top-level bound tensors.
    let mut resident: BTreeSet<Sym> = out
        .inputs
        .iter()
        .copied()
        .filter(|s| matches!(out.syms.ty(*s), Type::Tensor { .. }))
        .collect();
    for stmt in &body.stmts {
        for s in &stmt.syms {
            if matches!(out.syms.ty(*s), Type::Tensor { .. }) {
                resident.insert(*s);
            }
        }
    }

    let mut st = St {
        syms: &mut out.syms,
        cfg,
        resident,
        budget: cfg.on_chip_budget_bytes as i64,
    };

    // Top-level preloads (level 0).
    let plans = analyze_block(&body, &Ctl::new(), 1, &st);
    let preloads: Vec<TensorPlan> = plans.into_iter().filter(|p| p.level == 0).collect();
    for plan in preloads {
        apply_plan_at_top(&mut body, &plan, &mut st);
    }

    // Pattern-level copies.
    walk_block(&mut body, 1, &Ctl::new(), &mut st);

    out.body = body;
    out
}

struct St<'a> {
    syms: &'a mut SymTable,
    cfg: &'a TileConfig,
    resident: BTreeSet<Sym>,
    budget: i64,
}

impl St<'_> {
    fn tile_bytes(&self, tensor: Sym, dims: &[DimSig]) -> Option<i64> {
        let ty = self.syms.ty(tensor).clone();
        let Type::Tensor { elem, shape } = ty else {
            return None;
        };
        let mut elems: i64 = 1;
        for (d, full) in dims.iter().zip(&shape) {
            let len = match d {
                DimSig::Window { len, .. } => len.clone(),
                DimSig::Full => full.clone(),
            };
            elems = elems.checked_mul(len.eval(&self.cfg.sizes).ok()?)?;
        }
        Some(elems * elem.bytes() as i64)
    }
}

fn walk_block(block: &mut Block, level: usize, ctl: &Ctl, st: &mut St<'_>) {
    for stmt in &mut block.stmts {
        if let Op::Pattern(p) = &mut stmt.op {
            walk_pattern(p, level, ctl, st);
        }
    }
}

fn pattern_indices(p: &Pattern) -> Vec<(Sym, Size)> {
    match p {
        Pattern::Map(m) => m
            .body
            .params
            .iter()
            .copied()
            .zip(m.domain.iter().cloned())
            .collect(),
        Pattern::MultiFold(mf) => mf
            .idx
            .iter()
            .copied()
            .zip(mf.domain.iter().cloned())
            .collect(),
        Pattern::FlatMap(fm) => vec![(fm.body.params[0], fm.domain.clone())],
        Pattern::GroupByFold(g) => vec![(g.idx, g.domain.clone())],
    }
}

fn walk_pattern(p: &mut Pattern, level: usize, ctl: &Ctl, st: &mut St<'_>) {
    let mut ctl2 = ctl.clone();
    for (sym, extent) in pattern_indices(p) {
        ctl2.insert(sym, IdxInfo { level, extent });
    }
    // Find copies that belong at this pattern's level, merging uses across
    // all of the pattern's blocks so inconsistent windows are rejected.
    let mut uses = UseMap::new();
    for b in p.child_blocks() {
        collect_uses(b, &ctl2, level + 1, st, &mut uses);
    }
    let mut plans = merge_uses(uses);
    plans.retain(|pl| pl.level == level);
    for plan in plans {
        apply_plan_at_pattern(p, &plan, &ctl2, st);
    }
    // Recurse.
    for b in p.child_blocks_mut() {
        walk_block(b, level + 1, &ctl2, st);
    }
}

type UseMap = BTreeMap<Sym, Vec<Option<(Vec<DimSig>, usize)>>>;

/// Collects tensor-use plans for the subtree rooted at `block`, merging
/// uses per tensor. Returns one plan per copyable tensor.
fn analyze_block(block: &Block, ctl: &Ctl, level: usize, st: &St<'_>) -> Vec<TensorPlan> {
    let mut uses = UseMap::new();
    collect_uses(block, ctl, level, st, &mut uses);
    merge_uses(uses)
}

/// Merges collected uses per tensor into copy plans; tensors with opaque
/// or inconsistent uses are dropped.
fn merge_uses(uses: UseMap) -> Vec<TensorPlan> {
    let mut plans = Vec::new();
    'tensors: for (tensor, sigs) in uses {
        let mut merged: Option<(Vec<DimSig>, usize)> = None;
        for sig in sigs {
            let Some((dims, lvl)) = sig else {
                continue 'tensors; // an opaque use poisons the tensor
            };
            match &mut merged {
                None => merged = Some((dims, lvl)),
                Some((mdims, mlvl)) => {
                    if *mdims != dims {
                        continue 'tensors; // inconsistent windows
                    }
                    *mlvl = (*mlvl).max(lvl);
                }
            }
        }
        if let Some((dims, lvl)) = merged {
            // Only worth copying when something is windowed, or the whole
            // tensor is being preloaded at top level.
            let windowed = dims.iter().any(|d| matches!(d, DimSig::Window { .. }));
            if windowed || lvl == 0 {
                plans.push(TensorPlan {
                    tensor,
                    dims,
                    level: lvl,
                });
            }
        }
    }
    plans
}

fn collect_uses(block: &Block, ctl: &Ctl, level: usize, st: &St<'_>, uses: &mut UseMap) {
    for stmt in &block.stmts {
        match &stmt.op {
            Op::Expr(e) => collect_expr_uses(e, ctl, st, uses),
            Op::VarVec(items) => {
                for it in items {
                    if let Some(g) = &it.guard {
                        collect_expr_uses(g, ctl, st, uses);
                    }
                    collect_expr_uses(&it.value, ctl, st, uses);
                }
            }
            Op::Slice(s) => {
                if st.resident.contains(&s.tensor) {
                    let sig = slice_sig(&s.dims, ctl);
                    uses.entry(s.tensor).or_default().push(sig);
                }
            }
            Op::Copy(c) => {
                if st.resident.contains(&c.tensor) {
                    // An existing explicit copy: leave this tensor alone.
                    uses.entry(c.tensor).or_default().push(None);
                }
            }
            Op::Pattern(p) => {
                let mut ctl2 = ctl.clone();
                for (sym, extent) in pattern_indices(p) {
                    ctl2.insert(sym, IdxInfo { level, extent });
                }
                if let Pattern::MultiFold(mf) = p {
                    for u in &mf.updates {
                        for e in &u.loc {
                            collect_expr_uses(e, &ctl2, st, uses);
                        }
                    }
                }
                for b in p.child_blocks() {
                    collect_uses(b, &ctl2, level + 1, st, uses);
                }
            }
        }
    }
}

fn collect_expr_uses(e: &Expr, ctl: &Ctl, st: &St<'_>, uses: &mut UseMap) {
    e.visit(&mut |sub| {
        if let Expr::Read { tensor, index } = sub {
            if st.resident.contains(tensor) {
                let sig = index_sig(index, ctl);
                uses.entry(*tensor).or_default().push(sig);
            }
        }
    });
}

/// Computes the per-dimension signature of an element read.
fn index_sig(index: &[Expr], ctl: &Ctl) -> Option<(Vec<DimSig>, usize)> {
    let mut dims = Vec::with_capacity(index.len());
    let mut level = 0usize;
    for e in index {
        let (sig, lvl) = dim_sig(e, ctl)?;
        level = level.max(lvl);
        dims.push(sig);
    }
    Some((dims, level))
}

fn slice_sig(dims: &[SliceDim], ctl: &Ctl) -> Option<(Vec<DimSig>, usize)> {
    let mut out = Vec::with_capacity(dims.len());
    let mut level = 0usize;
    for d in dims {
        match d {
            SliceDim::Full => out.push(DimSig::Full),
            SliceDim::Point(e) => {
                let (sig, lvl) = dim_sig(e, ctl)?;
                level = level.max(lvl);
                out.push(sig);
            }
            SliceDim::Window { .. } => return None, // pre-existing window: leave alone
        }
    }
    Some((out, level))
}

/// Splits one index expression into (window signature, deepest start level).
fn dim_sig(e: &Expr, ctl: &Ctl) -> Option<(DimSig, usize)> {
    let control: BTreeSet<Sym> = ctl.keys().copied().collect();
    match classify_index(e, &control) {
        IndexClass::Affine { terms, offset } => {
            let mut start_terms: Vec<(Sym, Size)> = Vec::new();
            let mut local: Option<Sym> = None;
            for (sym, coeff) in terms {
                if coeff == Size::Const(1) {
                    if local.is_some() {
                        return None; // two local terms: not a simple window
                    }
                    local = Some(sym);
                } else {
                    start_terms.push((sym, coeff));
                }
            }
            if start_terms.is_empty() && offset == Size::Const(0) {
                // Purely local: the whole dimension.
                return Some((DimSig::Full, 0));
            }
            let mut start = Expr::SizeOf(offset);
            let mut level = 0usize;
            for (sym, coeff) in start_terms {
                level = level.max(ctl.get(&sym).map(|i| i.level).unwrap_or(0));
                start = start.add(Expr::var(sym).mul(Expr::SizeOf(coeff)));
            }
            let len = match local {
                Some(sym) => ctl.get(&sym)?.extent.clone(),
                None => Size::Const(1),
            };
            Some((
                DimSig::Window {
                    start: simplify_start(start),
                    len,
                },
                level,
            ))
        }
        _ => None,
    }
}

fn simplify_start(e: Expr) -> Expr {
    // Drop the leading `0 +` produced by the constructor above.
    match e {
        Expr::Bin(pphw_ir::expr::BinOp::Add, a, b) => match *a {
            Expr::SizeOf(Size::Const(0)) => simplify_start(*b),
            other => Expr::Bin(
                pphw_ir::expr::BinOp::Add,
                Box::new(simplify_start(other)),
                Box::new(simplify_start(*b)),
            ),
        },
        other => other,
    }
}

/// The local remainder of an index expression after removing the window
/// start: the unit-coefficient term (or 0).
fn local_part(e: &Expr, ctl: &Ctl) -> Expr {
    let control: BTreeSet<Sym> = ctl.keys().copied().collect();
    match classify_index(e, &control) {
        IndexClass::Affine { terms, .. } | IndexClass::AffineDynamic { terms } => {
            for (sym, coeff) in terms {
                if coeff == Size::Const(1) {
                    return Expr::var(sym);
                }
            }
            Expr::int(0)
        }
        IndexClass::NonAffine => e.clone(),
    }
}

fn copy_stmt(plan: &TensorPlan, st: &mut St<'_>) -> Option<(Stmt, Sym)> {
    let bytes = st.tile_bytes(plan.tensor, &plan.dims)?;
    if bytes > st.budget {
        return None;
    }
    st.budget -= bytes;
    let dims: Vec<SliceDim> = plan
        .dims
        .iter()
        .map(|d| match d {
            DimSig::Full => SliceDim::Full,
            DimSig::Window { start, len } => SliceDim::Window {
                start: start.clone(),
                len: len.clone(),
            },
        })
        .collect();
    let ty = pphw_ir::types::slice_result_type(st.syms.ty(plan.tensor), &dims);
    let name = format!("{}Tile", st.syms.info(plan.tensor).name.clone());
    let tile = st.syms.fresh(name, ty);
    Some((
        Stmt::new(
            tile,
            Op::Copy(CopyOp {
                tensor: plan.tensor,
                dims,
                reuse: 1,
            }),
        ),
        tile,
    ))
}

fn apply_plan_at_pattern(p: &mut Pattern, plan: &TensorPlan, ancestors: &Ctl, st: &mut St<'_>) {
    let Some((stmt, tile)) = copy_stmt(plan, st) else {
        return;
    };
    // Rewrite all uses in the subtree first. The control map must cover
    // ancestor indices too so window starts are recognized as non-local.
    let mut ctl = full_ctl(p);
    for (k, v) in ancestors {
        ctl.entry(*k).or_insert_with(|| v.clone());
    }
    for b in p.child_blocks_mut() {
        rewrite_uses(b, plan, tile, &ctl);
    }
    // Insert the copy at the head of the pattern's entry block.
    match p {
        Pattern::MultiFold(mf) => mf.pre.stmts.insert(0, stmt),
        Pattern::GroupByFold(g) => g.pre.stmts.insert(0, stmt),
        Pattern::Map(m) => m.body.body.stmts.insert(0, stmt),
        Pattern::FlatMap(fm) => fm.body.body.stmts.insert(0, stmt),
    }
}

fn apply_plan_at_top(body: &mut Block, plan: &TensorPlan, st: &mut St<'_>) {
    let Some((stmt, tile)) = copy_stmt(plan, st) else {
        return;
    };
    // Rewrite uses inside every pattern (the preload dominates them all),
    // then insert after the binding statement (or at the head for inputs).
    let ctl = Ctl::new();
    let pos = body
        .stmts
        .iter()
        .position(|s| s.syms.contains(&plan.tensor))
        .map(|i| i + 1)
        .unwrap_or(0);
    for s in body.stmts.iter_mut().skip(pos) {
        if let Op::Pattern(p) = &mut s.op {
            let pctl = full_ctl(p);
            let _ = &ctl;
            for b in p.child_blocks_mut() {
                rewrite_uses(b, plan, tile, &pctl);
            }
        }
    }
    body.stmts.insert(pos, stmt);
}

/// Control map covering the pattern's own indices and all nested ones.
fn full_ctl(p: &Pattern) -> Ctl {
    fn add_pattern(p: &Pattern, level: usize, ctl: &mut Ctl) {
        for (sym, extent) in pattern_indices(p) {
            ctl.insert(sym, IdxInfo { level, extent });
        }
        for b in p.child_blocks() {
            add_block(b, level + 1, ctl);
        }
    }
    fn add_block(b: &Block, level: usize, ctl: &mut Ctl) {
        for stmt in &b.stmts {
            if let Op::Pattern(q) = &stmt.op {
                add_pattern(q, level, ctl);
            }
        }
    }
    let mut ctl = Ctl::new();
    add_pattern(p, 0, &mut ctl);
    ctl
}

/// Rewrites reads/slices of the planned tensor to target the tile.
fn rewrite_uses(block: &mut Block, plan: &TensorPlan, tile: Sym, ctl: &Ctl) {
    for stmt in &mut block.stmts {
        match &mut stmt.op {
            Op::Slice(s) if s.tensor == plan.tensor => {
                s.tensor = tile;
                for (d, sig) in s.dims.iter_mut().zip(&plan.dims) {
                    if let (SliceDim::Point(e), DimSig::Window { .. }) = (&d.clone(), sig) {
                        *d = SliceDim::Point(local_part(e, ctl));
                    }
                }
            }
            Op::Pattern(p) => {
                for b in p.child_blocks_mut() {
                    rewrite_uses(b, plan, tile, ctl);
                }
                if let Pattern::MultiFold(mf) = p {
                    for u in &mut mf.updates {
                        for e in &mut u.loc {
                            *e = rewrite_expr(e, plan, tile, ctl);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    crate::rewrite::map_exprs(block, &mut |e| rewrite_expr(e, plan, tile, ctl));
}

fn rewrite_expr(e: &Expr, plan: &TensorPlan, tile: Sym, ctl: &Ctl) -> Expr {
    e.map(&mut |sub| match sub {
        Expr::Read { tensor, index } if tensor == plan.tensor => {
            let new_index: Vec<Expr> = index
                .iter()
                .zip(&plan.dims)
                .map(|(ie, sig)| match sig {
                    DimSig::Full => ie.clone(),
                    DimSig::Window { .. } => local_part(ie, ctl),
                })
                .collect();
            Expr::Read {
                tensor: tile,
                index: new_index,
            }
        }
        other => other,
    })
}
