//! The well-formedness checker: one walk over the four patterns.
//!
//! Descent goes through [`Pattern::scopes`], so the checker, the paths it
//! reports and every other traversal agree on what a pattern contains by
//! construction. Two modes share the walk:
//!
//! - **structural, stop at first** ([`Program::validate`]): def-before-use
//!   and single binding (which, over straight-line blocks, also
//!   establishes acyclicity), statement / lambda / accumulator arity,
//!   index arity, slice rank, declared size variables. No typing and no
//!   allocation on a well-formed program beyond the bound-symbol table;
//!   the tiling pipeline runs it after every pass.
//! - **deep, collect all** ([`check_deep`]): the same, plus expression
//!   typing via [`crate::infer`], read rank, and accumulator update /
//!   initializer shape legality. `pphw-verify` maps each [`Finding`] to
//!   its stable `PPHW001`–`PPHW008` code.
//!
//! The walk keeps a stack of `Copy` path steps and renders an
//! [`IrPath`] only when it reports a finding.

use std::fmt;

use crate::block::{Block, Op, SliceDim, Stmt};
use crate::expr::Expr;
use crate::infer::infer_scalar_type;
use crate::path::IrPath;
use crate::pattern::{Pattern, Scope, Seg};
use crate::program::Program;
use crate::size::Size;
use crate::types::{Sym, Type};

/// The rule a [`Finding`] violates. The first six are structural (checked
/// by [`Program::validate`]); the last three need types and are reported
/// by [`check_deep`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// A symbol is referenced before being bound (or is not in the
    /// program's symbol table at all).
    UnboundSym,
    /// A symbol is bound more than once.
    Rebound,
    /// A statement, lambda, update body or accumulator list has the wrong
    /// number of symbols for its operation.
    OutputArity,
    /// Slice/copy dimension count doesn't match the tensor rank.
    DimArity,
    /// A pattern binds a different number of indices than its domain has
    /// dimensions.
    BadDomain,
    /// A size expression references an undeclared size variable.
    UnknownSizeVar,
    /// An expression is ill-typed per [`crate::infer`].
    IllTyped,
    /// A read indexes a tensor with the wrong number of indices.
    ReadRank,
    /// An accumulator update or initializer disagrees with the
    /// accumulator's rank or element width.
    UpdateShape,
}

use ValidateError as Rule;

impl ValidateError {
    /// `true` for the rules [`Program::validate`] checks.
    pub fn is_structural(self) -> bool {
        !matches!(self, Rule::IllTyped | Rule::ReadRank | Rule::UpdateShape)
    }
}

/// One violated rule, located at the node that violates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule.
    pub kind: ValidateError,
    /// Where: the statement or pattern sub-scope.
    pub path: IrPath,
    /// What went wrong, in terms of the node at `path`.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for Finding {}

/// Runs the deep check, returning every finding in traversal order
/// (empty = well-formed).
#[must_use]
pub fn check_deep(prog: &Program) -> Vec<Finding> {
    Checker::run(prog, true)
}

impl Program {
    /// Structurally validates the program (see the [module](crate::check)
    /// documentation for the rules).
    ///
    /// # Errors
    ///
    /// Returns the first [`Finding`] encountered.
    pub fn validate(&self) -> Result<(), Finding> {
        Checker::run(self, false).pop().map_or(Ok(()), Err)
    }
}

/// One step below the program root: a statement of the current block, or
/// a sub-scope of the current pattern.
#[derive(Clone, Copy)]
enum Step<'a> {
    Stmt(&'a Stmt, usize),
    Scope(Seg),
}

struct Checker<'a> {
    prog: &'a Program,
    deep: bool,
    /// Which symbols are in scope, by symbol index.
    bound: Vec<bool>,
    /// The symbols in scope, in binding order: leaving a scope unbinds
    /// back to the length recorded on entry.
    trail: Vec<Sym>,
    path: Vec<Step<'a>>,
    findings: Vec<Finding>,
}

impl<'a> Checker<'a> {
    fn run(prog: &'a Program, deep: bool) -> Vec<Finding> {
        let mut cx = Checker {
            prog,
            deep,
            bound: vec![false; prog.syms.len()],
            trail: Vec::new(),
            path: Vec::new(),
            findings: Vec::new(),
        };
        for &s in &prog.inputs {
            cx.bind_param(s);
        }
        cx.block(&prog.body);
        cx.findings
    }

    /// Structural mode stops at its first finding.
    fn halted(&self) -> bool {
        !self.deep && !self.findings.is_empty()
    }

    /// Records a finding at the current path, unless the mode does not
    /// check `kind` or has already stopped.
    fn emit(&mut self, kind: ValidateError, message: String) {
        if self.halted() || !(self.deep || kind.is_structural()) {
            return;
        }
        let syms = &self.prog.syms;
        let path = self
            .path
            .iter()
            .fold(IrPath::root(&self.prog.name), |at, step| match step {
                Step::Stmt(stmt, i) => at.stmt(syms, stmt, *i),
                Step::Scope(seg) => at.child(seg.to_string()),
            });
        self.findings.push(Finding {
            kind,
            path,
            message,
        });
    }

    fn sym_label(&self, sym: Sym) -> String {
        if sym.index() < self.bound.len() {
            self.prog.syms.name(sym)
        } else {
            format!("{sym}")
        }
    }

    /// In the symbol table and in scope.
    fn usable(&self, sym: Sym) -> bool {
        self.bound.get(sym.index()).copied().unwrap_or(false)
    }

    /// Brings a parameter into scope; like a set insert, shadowing a
    /// visible symbol is not an error.
    fn bind_param(&mut self, sym: Sym) {
        if let Some(b) = self.bound.get_mut(sym.index()) {
            if !*b {
                *b = true;
                self.trail.push(sym);
            }
        }
    }

    /// Leaves a scope: unbinds everything bound since the trail was
    /// `mark` long.
    fn unwind(&mut self, mark: usize) {
        for s in self.trail.drain(mark..) {
            self.bound[s.index()] = false;
        }
    }

    /// Reports unbound / out-of-table symbols; returns `true` when all
    /// are usable (so dependent checks can run without panicking).
    fn check_syms(&mut self, syms: &[Sym]) -> bool {
        let mut ok = true;
        for &s in syms {
            if !self.usable(s) {
                ok = false;
                let label = self.sym_label(s);
                self.emit(
                    Rule::UnboundSym,
                    format!("symbol {label} referenced before binding"),
                );
            }
        }
        ok
    }

    fn size(&mut self, size: &Size) {
        let declared = |v: &str| self.prog.size_vars.iter().any(|d| d == v);
        if size.all_vars(&declared) {
            return;
        }
        for v in size.vars().iter().filter(|v| !declared(v)) {
            let message = format!("size variable `{v}` not declared by the program");
            self.emit(Rule::UnknownSizeVar, message);
        }
    }

    /// Def-before-use of every symbol in `e`; in deep mode also its type
    /// and the rank of every embedded tensor read (only once its symbols
    /// resolved: typing an expression over unbound symbols is noise).
    fn expr(&mut self, e: &Expr) {
        let mut resolved = true;
        e.visit(&mut |node| {
            if let Expr::Var(s) | Expr::Read { tensor: s, .. } = node {
                resolved &= self.usable(*s);
            }
        });
        if !resolved {
            self.check_syms(&e.syms());
        }
        if !resolved || !self.deep {
            return;
        }
        e.visit(&mut |node| {
            let Expr::Read { tensor, index } = node else {
                return;
            };
            let rank = match self.prog.syms.ty(*tensor) {
                Type::Tensor { shape, .. } => shape.len(),
                Type::DynVec { .. } => 1,
                // Reading a scalar/dict is a type error, reported below
                // by inference.
                _ => return,
            };
            if index.len() != rank {
                let (label, got) = (self.sym_label(*tensor), index.len());
                let message =
                    format!("read of {label} uses {got} indices but the tensor has rank {rank}");
                self.emit(Rule::ReadRank, message);
            }
        });
        if let Err(e) = infer_scalar_type(e, &self.prog.syms) {
            self.emit(Rule::IllTyped, e.to_string());
        }
    }

    /// A slice or copy of `tensor`.
    fn dims(&mut self, tensor: Sym, dims: &[SliceDim]) {
        if !self.check_syms(&[tensor]) {
            return;
        }
        let (label, got, rank) = (
            self.sym_label(tensor),
            dims.len(),
            self.prog.syms.ty(tensor).rank(),
        );
        if got != rank {
            let message = format!(
                "slice/copy of {label} has {got} dimension specs but the tensor has rank {rank}"
            );
            self.emit(Rule::DimArity, message);
        }
        for d in dims {
            match d {
                SliceDim::Point(e) => self.expr(e),
                SliceDim::Window { start, len } => {
                    self.expr(start);
                    self.size(len);
                }
                SliceDim::Full => {}
            }
        }
    }

    fn block(&mut self, block: &'a Block) {
        for (i, stmt) in block.stmts.iter().enumerate() {
            if self.halted() {
                return;
            }
            self.path.push(Step::Stmt(stmt, i));
            self.stmt(stmt);
            self.path.pop();
        }
        self.check_syms(&block.result);
    }

    fn stmt(&mut self, stmt: &'a Stmt) {
        // Uses are checked before the statement's own outputs are bound.
        match &stmt.op {
            Op::Expr(e) => self.expr(e),
            Op::VarVec(items) => {
                for item in items {
                    if let Some(g) = &item.guard {
                        self.expr(g);
                    }
                    self.expr(&item.value);
                }
            }
            Op::Slice(s) => self.dims(s.tensor, &s.dims),
            Op::Copy(c) => self.dims(c.tensor, &c.dims),
            Op::Pattern(p) => self.pattern(p),
        }
        let (got, produced) = match &stmt.op {
            Op::Pattern(p) => (stmt.syms.len(), p.output_count()),
            _ => (stmt.syms.len(), 1),
        };
        if got != produced {
            let message =
                format!("statement binds {got} symbols but the operation produces {produced}");
            self.emit(Rule::OutputArity, message);
        }
        for &s in &stmt.syms {
            if self.usable(s) || s.index() >= self.bound.len() {
                let label = self.sym_label(s);
                self.emit(
                    Rule::Rebound,
                    format!("symbol {label} bound more than once"),
                );
            } else {
                self.bound[s.index()] = true;
                self.trail.push(s);
            }
        }
    }

    fn arity(&mut self, got: usize, expected: usize, what: &str) {
        if got != expected {
            let message = format!("{what} takes {got} parameters but must take {expected}");
            self.emit(Rule::OutputArity, message);
        }
    }

    fn pattern(&mut self, p: &'a Pattern) {
        for s in p.domain() {
            self.size(s);
        }
        self.pattern_head(p);
        let enclosing = self.trail.len();
        for &i in p.indices() {
            self.bind_param(i);
        }
        for scope in p.scopes() {
            if self.halted() {
                break;
            }
            if !scope.on_index {
                // The index scope (indices plus what `pre` bound) ends
                // here: the scopes that do not see it come last.
                self.unwind(enclosing);
            }
            self.path.push(Step::Scope(scope.seg));
            self.scope(p, &scope);
            self.path.pop();
        }
        self.unwind(enclosing);
    }

    /// The per-variant checks on a pattern's own fields (reported at the
    /// pattern statement); everything nested is reached through
    /// [`Pattern::scopes`].
    fn pattern_head(&mut self, p: &Pattern) {
        let (rank, indices) = (p.domain().len(), p.indices().len());
        match p {
            Pattern::FlatMap(_) => self.arity(indices, 1, "flatMap body"),
            _ if indices != rank => {
                let kind = p.kind();
                let message =
                    format!("{kind} over a rank-{rank} domain binds {indices} index parameters");
                self.emit(Rule::BadDomain, message);
            }
            _ => {}
        }
        match p {
            Pattern::MultiFold(mf) => {
                let (accs, updates, combines) =
                    (mf.accs.len(), mf.updates.len(), mf.combines.len());
                if updates != accs || combines != accs {
                    let message = format!(
                        "multiFold has {accs} accumulators, {updates} updates, {combines} combines"
                    );
                    self.emit(Rule::OutputArity, message);
                }
                for (k, acc) in mf.accs.iter().enumerate() {
                    for s in &acc.shape {
                        self.size(s);
                    }
                    let (width, splat) = (acc.elem.width(), acc.init.splat.len());
                    if splat != width {
                        let message = format!(
                            "accumulator {k} (`{}`) has element width {width} but its \
                             initializer splats {splat} literals",
                            acc.name
                        );
                        self.emit(Rule::UpdateShape, message);
                    }
                }
            }
            Pattern::GroupByFold(g) => {
                for s in &g.acc.shape {
                    self.size(s);
                }
            }
            Pattern::Map(_) | Pattern::FlatMap(_) => {}
        }
    }

    fn scope(&mut self, p: &Pattern, scope: &Scope<'a>) {
        let entry = self.trail.len();
        if let Seg::Combine(_) = scope.seg {
            self.arity(scope.binds.len(), 2, "combine");
        }
        // `Some` for a multiFold update; the accumulator it addresses is
        // missing when the pattern has more updates than accumulators.
        let mf_update = match (p, scope.seg) {
            (Pattern::MultiFold(mf), Seg::Update(Some(k))) => Some(mf.accs.get(k)),
            _ => None,
        };
        if let Some(Some(acc)) = mf_update {
            // An empty extent is the single-element update (the
            // interpreter expands it to an all-ones region), so only a
            // non-empty extent must match the rank.
            let (locs, extents, rank) = (scope.exprs.len(), scope.sizes.len(), acc.shape.len());
            if locs != rank || (extents != 0 && extents != rank) {
                let message = format!(
                    "update addresses {locs} location / {extents} extent dimensions but \
                     accumulator `{}` has rank {rank}",
                    acc.name
                );
                self.emit(Rule::UpdateShape, message);
            }
        }
        for e in scope.exprs {
            self.expr(e);
        }
        for s in scope.sizes {
            self.size(s);
        }
        self.check_syms(scope.uses);
        let Some(block) = scope.block else { return };
        for &s in scope.binds {
            self.bind_param(s);
        }
        self.block(block);
        if mf_update.is_some() && block.result.len() != 1 {
            let message = format!("update body yields {} results, not 1", block.result.len());
            self.emit(Rule::OutputArity, message);
        }
        // A scope with parameters of its own is private: what its block
        // bound ends with it. `pre` and `body` extend the index scope
        // instead, so updates see what `pre` computed.
        if !scope.binds.is_empty() || !scope.on_index {
            self.unwind(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Lit;
    use crate::pattern::Init;
    use crate::types::{DType, ScalarType};

    fn sum_program() -> Program {
        let mut b = ProgramBuilder::new("sum");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            ScalarType::Prim(DType::F32),
            Init::zeros(),
            |c, i, acc| c.add(c.var(acc), c.read(x, vec![c.var(i[0])])),
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        b.finish(vec![out])
    }

    fn kinds(prog: &Program) -> Vec<ValidateError> {
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
        let mut b = ProgramBuilder::new("bad");
        let m = b.size("m");
        let n = b.size("n");
        let x = b.input("x", DType::F32, vec![m.clone(), n]);
        // Reads the rank-2 tensor with a single index.
        let out = b.map(vec![m], |c, idx| c.read(x, vec![c.var(idx[0])]));
        let p = b.finish(vec![out]);
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
}
