//! Human-readable paths to IR nodes.
//!
//! Diagnostics name nodes by *path* — e.g.
//! `kmeans/sums[2]/pre/best[1]/combine[0]` — instead of a bare symbol id.
//! Each statement segment is the base name of the first symbol the
//! statement binds plus the statement's index in its block; descending into
//! a pattern appends the sub-scope names the traversal passes through
//! (the `Display` of [`Seg`](crate::pattern::Seg): `pre`, `update[k]`,
//! `combine[k]`, `body`, `key`, `merge`). Paths are
//! stable across symbol renumbering as long as the program structure is
//! unchanged, which is what lets the verifier's allowlist and test
//! assertions name nodes durably.

use std::fmt;

use crate::block::Stmt;
use crate::types::SymTable;

/// A `/`-separated path from the program root to an IR node.
///
/// Built functionally: [`IrPath::child`] returns an extended copy so a
/// traversal can hand sub-paths to recursive calls without unwinding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IrPath {
    segs: Vec<String>,
}

impl IrPath {
    /// The root path: just the program name.
    pub fn root(name: &str) -> IrPath {
        IrPath {
            segs: vec![name.to_string()],
        }
    }

    /// Returns this path extended by one segment.
    #[must_use]
    pub fn child(&self, seg: impl Into<String>) -> IrPath {
        let mut segs = self.segs.clone();
        segs.push(seg.into());
        IrPath { segs }
    }

    /// Returns this path extended by the segment naming `stmt` (the
    /// `index`-th statement of its block): `basename[index]`.
    #[must_use]
    pub fn stmt(&self, syms: &SymTable, stmt: &Stmt, index: usize) -> IrPath {
        self.child(stmt_segment(syms, stmt, index))
    }

    /// The path segments, root first.
    pub fn segments(&self) -> &[String] {
        &self.segs
    }
}

impl fmt::Display for IrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.segs.join("/"))
    }
}

/// The path segment for a statement: the base name of its first bound
/// symbol plus its index in the enclosing block, e.g. `sums[2]` (`stmt[2]`
/// when it binds nothing the table knows).
pub fn stmt_segment(syms: &SymTable, stmt: &Stmt, index: usize) -> String {
    let base = stmt
        .syms
        .first()
        .filter(|s| s.index() < syms.len())
        .map_or("stmt", |s| syms.info(*s).name.as_str());
    format!("{base}[{index}]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Op, Stmt};
    use crate::expr::Expr;
    use crate::types::Type;

    #[test]
    fn paths_render_slash_separated() {
        let p = IrPath::root("kmeans").child("sums[2]").child("pre");
        assert_eq!(p.to_string(), "kmeans/sums[2]/pre");
        assert_eq!(p.segments().len(), 3);
    }

    #[test]
    fn child_does_not_mutate_parent() {
        let p = IrPath::root("prog");
        let _c = p.child("x[0]");
        assert_eq!(p.to_string(), "prog");
    }

    #[test]
    fn stmt_segment_uses_base_name_not_sym_id() {
        let mut syms = SymTable::new();
        let s = syms.fresh("acc", Type::f32());
        let stmt = Stmt::new(s, Op::Expr(Expr::int(0)));
        assert_eq!(stmt_segment(&syms, &stmt, 3), "acc[3]");
    }
}
