//! Blocks, statements and tensor-level operations.
//!
//! PPL programs are in let-normal form: a [`Block`] is an ordered list of
//! [`Stmt`]s, each binding one or more symbols to an [`Op`], followed by the
//! block's result symbols. Scalar computation is an [`Op::Expr`]; parallel
//! patterns, slices, and tile copies are tensor-level operations.

use crate::expr::Expr;
use crate::pattern::Pattern;
use crate::size::Size;
use crate::types::Sym;

/// One dimension of a slice or copy specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceDim {
    /// Fix this dimension at an index (removes the dimension).
    Point(Expr),
    /// A window `[start, start + len)` (keeps the dimension with extent `len`).
    Window {
        /// Starting offset (element units).
        start: Expr,
        /// Window extent.
        len: Size,
    },
    /// The whole dimension (keeps the dimension unchanged).
    Full,
}

impl SliceDim {
    /// Returns `true` if this dimension survives into the result shape.
    pub fn keeps_dim(&self) -> bool {
        !matches!(self, SliceDim::Point(_))
    }
}

/// A view of a subset of a tensor (`x.slice(i, *)` in the paper).
///
/// Slices are cheap views; they do not imply data movement.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceOp {
    /// Tensor being viewed.
    pub tensor: Sym,
    /// One entry per dimension of `tensor`.
    pub dims: Vec<SliceDim>,
}

/// An explicit tile copy (`x.copy(b + ii, *)` in the paper).
///
/// Copies are inserted by the strip-mining transformation and later become
/// on-chip buffers fed by tile-load units during hardware generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyOp {
    /// Source tensor (in main memory).
    pub tensor: Sym,
    /// One entry per dimension of `tensor`.
    pub dims: Vec<SliceDim>,
    /// Reuse factor metadata for overlapping tiles (sliding windows); `1`
    /// means disjoint tiles.
    pub reuse: u32,
}

/// A guarded element of a variable-length vector construction.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedItem {
    /// Optional guard; the element is produced only when it evaluates true.
    pub guard: Option<Expr>,
    /// The element value.
    pub value: Expr,
}

/// Right-hand sides of statements.
#[allow(clippy::large_enum_variant)] // Pattern is big; statements are few
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A pure scalar computation.
    Expr(Expr),
    /// A parallel pattern.
    Pattern(Pattern),
    /// A view of part of a tensor.
    Slice(SliceOp),
    /// An explicit tile copy into local memory.
    Copy(CopyOp),
    /// Construction of a dynamically-sized vector from guarded items, the
    /// scalar-level body of `FlatMap` (e.g. `if (e > 0) [e] else []`).
    VarVec(Vec<GuardedItem>),
}

impl Op {
    /// Returns the contained pattern, if this is a pattern statement.
    pub fn as_pattern(&self) -> Option<&Pattern> {
        match self {
            Op::Pattern(p) => Some(p),
            _ => None,
        }
    }
}

/// A statement binding `syms` to the result(s) of `op`.
///
/// Most operations produce a single value; a
/// [`MultiFold`](crate::pattern::MultiFoldPat) with several accumulators
/// binds one symbol per accumulator (the paper's
/// `(sums, counts) = multiFold(…)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Bound symbols.
    pub syms: Vec<Sym>,
    /// Right-hand side.
    pub op: Op,
}

impl Stmt {
    /// Single-output statement shorthand.
    pub fn new(sym: Sym, op: Op) -> Stmt {
        Stmt {
            syms: vec![sym],
            op,
        }
    }

    /// The single bound symbol.
    ///
    /// # Panics
    ///
    /// Panics if the statement binds more than one symbol.
    pub fn sym(&self) -> Sym {
        assert_eq!(self.syms.len(), 1, "stmt binds {} symbols", self.syms.len());
        self.syms[0]
    }
}

/// A straight-line sequence of statements with result symbols.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Ordered statements.
    pub stmts: Vec<Stmt>,
    /// Result symbols (empty for effect-free prefix blocks whose bindings
    /// are referenced by the enclosing pattern).
    pub result: Vec<Sym>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// A block consisting of the given statements and a single result.
    pub fn with_result(stmts: Vec<Stmt>, result: Sym) -> Block {
        Block {
            stmts,
            result: vec![result],
        }
    }

    /// The single result symbol.
    ///
    /// # Panics
    ///
    /// Panics if the block does not have exactly one result.
    pub fn result_sym(&self) -> Sym {
        assert_eq!(
            self.result.len(),
            1,
            "block has {} results",
            self.result.len()
        );
        self.result[0]
    }

    /// Appends a statement binding `sym` to `op`.
    pub fn push(&mut self, sym: Sym, op: Op) {
        self.stmts.push(Stmt::new(sym, op));
    }

    /// Visits this block and every nested block (pattern bodies, updates,
    /// combines), pre-order.
    pub fn visit_blocks<'a>(&'a self, f: &mut impl FnMut(&'a Block)) {
        f(self);
        for stmt in &self.stmts {
            if let Op::Pattern(p) = &stmt.op {
                for b in p.child_blocks() {
                    b.visit_blocks(f);
                }
            }
        }
    }

    /// Collects the symbols bound anywhere inside this block (including
    /// nested pattern bodies and their parameters).
    pub fn bound_syms(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_bound(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_bound(&self, out: &mut Vec<Sym>) {
        for stmt in &self.stmts {
            out.extend_from_slice(&stmt.syms);
            if let Op::Pattern(p) = &stmt.op {
                out.extend(p.param_syms());
                for b in p.child_blocks() {
                    b.collect_bound(out);
                }
            }
        }
    }

    /// Collects the free symbols of the block: every symbol referenced but
    /// not bound within it.
    pub fn free_syms(&self) -> Vec<Sym> {
        let bound: std::collections::BTreeSet<Sym> = self.bound_syms().into_iter().collect();
        let mut used = Vec::new();
        self.collect_used(&mut used);
        used.retain(|s| !bound.contains(s));
        used.sort();
        used.dedup();
        used
    }

    fn collect_used(&self, out: &mut Vec<Sym>) {
        for stmt in &self.stmts {
            match &stmt.op {
                Op::Expr(e) => out.extend(e.syms()),
                Op::Slice(s) => {
                    out.push(s.tensor);
                    for d in &s.dims {
                        collect_dim_syms(d, out);
                    }
                }
                Op::Copy(c) => {
                    out.push(c.tensor);
                    for d in &c.dims {
                        collect_dim_syms(d, out);
                    }
                }
                Op::VarVec(items) => {
                    for item in items {
                        if let Some(g) = &item.guard {
                            out.extend(g.syms());
                        }
                        out.extend(item.value.syms());
                    }
                }
                Op::Pattern(p) => p.collect_used(out),
            }
        }
        out.extend_from_slice(&self.result);
    }
}

pub(crate) fn collect_dim_syms(dim: &SliceDim, out: &mut Vec<Sym>) {
    match dim {
        SliceDim::Point(e) => out.extend(e.syms()),
        SliceDim::Window { start, .. } => out.extend(start.syms()),
        SliceDim::Full => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn stmt_single_sym() {
        let st = Stmt::new(s(1), Op::Expr(Expr::int(1)));
        assert_eq!(st.sym(), s(1));
    }

    #[test]
    #[should_panic(expected = "binds 2 symbols")]
    fn stmt_sym_panics_on_multi() {
        let st = Stmt {
            syms: vec![s(1), s(2)],
            op: Op::Expr(Expr::int(1)),
        };
        let _ = st.sym();
    }

    #[test]
    fn free_syms_excludes_bound() {
        let mut b = Block::new();
        b.push(s(1), Op::Expr(Expr::var(s(0)).add(Expr::int(1))));
        b.push(s(2), Op::Expr(Expr::var(s(1)).mul(Expr::var(s(3)))));
        b.result = vec![s(2)];
        assert_eq!(b.free_syms(), vec![s(0), s(3)]);
    }

    #[test]
    fn free_syms_sees_slice_tensor() {
        let mut b = Block::new();
        b.push(
            s(1),
            Op::Slice(SliceOp {
                tensor: s(7),
                dims: vec![SliceDim::Point(Expr::var(s(4))), SliceDim::Full],
            }),
        );
        b.result = vec![s(1)];
        assert_eq!(b.free_syms(), vec![s(4), s(7)]);
    }

    #[test]
    fn slice_dim_keeps_dim() {
        assert!(!SliceDim::Point(Expr::int(0)).keeps_dim());
        assert!(SliceDim::Full.keeps_dim());
        assert!(SliceDim::Window {
            start: Expr::int(0),
            len: Size::from(4)
        }
        .keeps_dim());
    }
}
