//! Lowering: parse tree → typed [`pphw_ir`] program + source map.
//!
//! Lowering resolves names through a lexical scope chain that mirrors the
//! scoping rules of [`Program::validate`]: pattern bodies see the
//! enclosing scope plus their parameters, `multiFold` update locations see
//! the index and `pre` bindings but *not* the accumulator parameter, and
//! combine lambdas see only the outer scope plus their own operands.
//! Types are inferred bottom-up with [`pphw_ir::infer`]; every pattern
//! statement and clause records its byte span under the same pattern-path
//! convention the verifier uses, so downstream diagnostics can point back
//! into the source text.

use std::collections::{BTreeSet, HashMap};

use pphw_ir::block::{Block, CopyOp, GuardedItem, Op, SliceDim, SliceOp, Stmt};
use pphw_ir::builder::{region_type, slice_result_type};
use pphw_ir::expr::{Expr, Lit};
use pphw_ir::infer::infer_scalar_type;
use pphw_ir::pattern::{
    AccDef, AccUpdate, FlatMapPat, GbfBody, GroupByFoldPat, Init, Lambda, MapPat, MultiFoldPat,
    Pattern, Seg,
};
use pphw_ir::program::Program;
use pphw_ir::size::Size;
use pphw_ir::span::{SourceMap, Span};
use pphw_ir::types::{DType, ScalarType, Sym, SymTable, Type};

use crate::ast::{
    Name, PAccDecl, PBody, PCombine, PDim, PExpr, PExprKind, PLit, PProgram, PRhs, PScalar, PSize,
    PStmt, PType, PUpdate, PVvItem,
};
use crate::codes;
use crate::{ParseError, ParseOutput};

/// Lowers a parse tree to IR. All diagnostics are collected; `Err` is
/// returned if any were produced.
pub fn lower(ast: &PProgram, file: &str) -> Result<ParseOutput, Vec<ParseError>> {
    let mut lo = Lowerer {
        syms: SymTable::new(),
        scopes: vec![HashMap::new()],
        size_vars: BTreeSet::new(),
        errors: Vec::new(),
        map: SourceMap::new(file),
    };
    let program = lo.program(ast);
    if lo.errors.is_empty() {
        Ok(ParseOutput {
            program,
            source_map: lo.map,
        })
    } else {
        Err(lo.errors)
    }
}

type LResult<T> = Result<T, ()>;

struct Lowerer {
    syms: SymTable,
    /// Innermost scope last; name resolution walks back to front.
    scopes: Vec<HashMap<String, Sym>>,
    size_vars: BTreeSet<String>,
    errors: Vec<ParseError>,
    map: SourceMap,
}

impl Lowerer {
    fn error(&mut self, code: &'static str, msg: impl Into<String>, span: Span) {
        self.errors.push(ParseError::new(code, msg, span));
    }

    fn lookup(&mut self, name: &Name) -> LResult<Sym> {
        for frame in self.scopes.iter().rev() {
            if let Some(s) = frame.get(&name.text) {
                return Ok(*s);
            }
        }
        self.error(
            codes::UNDEFINED_NAME,
            format!("`{}` is not in scope", name.text),
            name.span,
        );
        Err(())
    }

    /// Mints a symbol named after `name` and binds it in the innermost
    /// scope. Rebinding a name within the same scope is an error (outer
    /// names may be shadowed).
    fn bind(&mut self, name: &Name, ty: Type) -> Sym {
        let sym = self.syms.fresh(name.text.clone(), ty);
        #[allow(clippy::unwrap_used)] // the lowerer always keeps one frame
        let frame = self.scopes.last_mut().unwrap();
        if frame.insert(name.text.clone(), sym).is_some() {
            self.errors.push(ParseError::new(
                codes::DUPLICATE,
                format!("`{}` is bound twice in the same scope", name.text),
                name.span,
            ));
        }
        sym
    }

    fn ty(&self, sym: Sym) -> Type {
        self.syms.ty(sym).clone()
    }

    // ---- sizes and types ----

    fn size(&mut self, s: &PSize) -> LResult<Size> {
        match s {
            PSize::Const(v) => Ok(Size::Const(*v)),
            PSize::Var(name) => {
                if self.size_vars.contains(&name.text) {
                    Ok(Size::Var(name.text.clone()))
                } else {
                    self.error(
                        codes::UNDECLARED_SIZE_VAR,
                        format!(
                            "size variable `{}` is not declared by the program",
                            name.text
                        ),
                        name.span,
                    );
                    Err(())
                }
            }
            PSize::Bin(op, a, b) => {
                let a = self.size(a)?;
                let b = self.size(b)?;
                Ok(match op {
                    '+' => Size::Add(Box::new(a), Box::new(b)),
                    '-' => Size::Sub(Box::new(a), Box::new(b)),
                    '*' => Size::Mul(Box::new(a), Box::new(b)),
                    _ => Size::Div(Box::new(a), Box::new(b)),
                })
            }
        }
    }

    fn sizes(&mut self, ss: &[PSize]) -> LResult<Vec<Size>> {
        ss.iter().map(|s| self.size(s)).collect()
    }

    fn scalar(sc: &PScalar) -> ScalarType {
        match sc {
            PScalar::Prim(d) => ScalarType::Prim(*d),
            PScalar::Tuple(fs) => ScalarType::Tuple(fs.clone()),
        }
    }

    fn ptype(&mut self, t: &PType) -> LResult<Type> {
        match t {
            PType::Scalar(sc) => Ok(Type::Scalar(Self::scalar(sc))),
            PType::Tensor(sc, shape) => Ok(Type::Tensor {
                elem: Self::scalar(sc),
                shape: self.sizes(shape)?,
            }),
            PType::DynVec(sc) => Ok(Type::DynVec {
                elem: Self::scalar(sc),
            }),
            PType::Dict(key, value) => Ok(Type::Dict {
                key: Self::scalar(key),
                value: Box::new(self.ptype(value)?),
            }),
        }
    }

    fn lit(l: PLit) -> Lit {
        match l {
            PLit::F32(v) => Lit::F32(v),
            PLit::I32(v) => Lit::I32(v),
            PLit::Bool(v) => Lit::Bool(v),
        }
    }

    // ---- expressions ----

    fn expr(&mut self, e: &PExpr) -> LResult<Expr> {
        match &e.kind {
            PExprKind::Lit(l) => Ok(Expr::Lit(Self::lit(*l))),
            PExprKind::Var(name) => {
                let sym = self.lookup(name)?;
                Ok(Expr::Var(sym))
            }
            PExprKind::SizeOf(s) => Ok(Expr::SizeOf(self.size(s)?)),
            PExprKind::Un(op, a) => Ok(Expr::Un(*op, Box::new(self.expr(a)?))),
            PExprKind::Bin(op, a, b) => Ok(Expr::Bin(
                *op,
                Box::new(self.expr(a)?),
                Box::new(self.expr(b)?),
            )),
            PExprKind::Select(c, t, f) => Ok(Expr::Select {
                cond: Box::new(self.expr(c)?),
                if_true: Box::new(self.expr(t)?),
                if_false: Box::new(self.expr(f)?),
            }),
            PExprKind::Tuple(items) => {
                let items: LResult<Vec<Expr>> = items.iter().map(|i| self.expr(i)).collect();
                Ok(Expr::Tuple(items?))
            }
            PExprKind::Field(a, i) => Ok(Expr::Field(Box::new(self.expr(a)?), *i)),
            PExprKind::Read(name, args) => {
                let sym = self.lookup(name)?;
                let expected = match self.syms.ty(sym) {
                    Type::Tensor { shape, .. } => shape.len(),
                    Type::DynVec { .. } => 1,
                    other => {
                        let msg = format!("`{}` of type {other} cannot be indexed", name.text);
                        self.error(codes::TYPE_ERROR, msg, name.span);
                        return Err(());
                    }
                };
                if args.len() != expected {
                    self.error(
                        codes::ARITY,
                        format!(
                            "`{}` has rank {expected} but is indexed with {} expression(s)",
                            name.text,
                            args.len()
                        ),
                        e.span,
                    );
                    return Err(());
                }
                let index: LResult<Vec<Expr>> = args.iter().map(|a| self.expr(a)).collect();
                Ok(Expr::Read {
                    tensor: sym,
                    index: index?,
                })
            }
        }
    }

    /// Lowers an expression and infers its scalar type.
    fn typed_expr(&mut self, e: &PExpr) -> LResult<(Expr, ScalarType)> {
        let ex = self.expr(e)?;
        match infer_scalar_type(&ex, &self.syms) {
            Ok(st) => Ok((ex, st)),
            Err(err) => {
                self.error(codes::TYPE_ERROR, err.to_string(), e.span);
                Err(())
            }
        }
    }

    // ---- bodies ----

    /// Lowers a body's statements and yields into a [`Block`] using the
    /// *current* scope chain (the caller pushes parameter frames).
    /// A non-identifier `yield` expression is sealed into a fresh binding
    /// named `seal`.
    fn body(&mut self, b: &PBody, path: &str, seal: &str) -> Block {
        let mut blk = Block::new();
        for stmt in &b.stmts {
            let _ = self.stmt(stmt, path, &mut blk);
        }
        for y in &b.yields {
            let sym = match &y.kind {
                PExprKind::Var(name) => self.lookup(name),
                _ => self.typed_expr(y).map(|(ex, st)| {
                    let sym = self.syms.fresh(seal, Type::Scalar(st));
                    blk.push(sym, Op::Expr(ex));
                    sym
                }),
            };
            if let Ok(sym) = sym {
                blk.result.push(sym);
            }
        }
        blk
    }

    /// `{ params-frame; body }` — pushes a scope frame, binds params,
    /// lowers the body, pops the frame.
    fn scoped_body(
        &mut self,
        params: &[(Name, Type)],
        b: &PBody,
        path: &str,
        seal: &str,
    ) -> (Vec<Sym>, Block) {
        self.scopes.push(HashMap::new());
        let syms: Vec<Sym> = params
            .iter()
            .map(|(n, t)| self.bind(n, t.clone()))
            .collect();
        let blk = self.body(b, path, seal);
        self.scopes.pop();
        (syms, blk)
    }

    /// The body of a map/fold/flatMap must yield exactly one value. When
    /// lowering the body already reported errors, a short result list is
    /// their cascade, not a new defect — fail without a second report.
    fn single_result(&mut self, blk: &Block, what: &str, span: Span) -> LResult<Sym> {
        if blk.result.len() == 1 {
            Ok(blk.result[0])
        } else {
            if !blk.result.is_empty() || self.errors.is_empty() {
                self.error(
                    codes::ARITY,
                    format!(
                        "{what} must yield exactly one value, got {}",
                        blk.result.len()
                    ),
                    span,
                );
            }
            Err(())
        }
    }

    // ---- statements ----

    /// Lowers one statement into `out`. The statement's path is
    /// `{path}/{first-lhs}[{index}]` following the verifier convention.
    fn stmt(&mut self, s: &PStmt, path: &str, out: &mut Block) -> LResult<()> {
        let Some(first) = s.lhs.first() else {
            self.error(codes::ARITY, "statement binds no names", s.span);
            return Err(());
        };
        let spath = format!("{path}/{}[{}]", first.text, out.stmts.len());
        self.map.record(&spath, s.span);
        let Ok((op, tys)) = self.rhs(&s.rhs, &spath, s.span) else {
            // The right-hand side already reported; bind the names anyway
            // (as poison scalars) so later uses don't cascade into
            // spurious not-in-scope errors. The program is discarded once
            // any error exists, so the bogus types never escape.
            for n in &s.lhs {
                let _ = self.bind(n, Type::Scalar(ScalarType::Prim(DType::F32)));
            }
            return Err(());
        };
        if s.lhs.len() != tys.len() {
            self.error(
                codes::ARITY,
                format!(
                    "statement binds {} name(s) but the right-hand side produces {}",
                    s.lhs.len(),
                    tys.len()
                ),
                s.span,
            );
            return Err(());
        }
        let syms: Vec<Sym> = s
            .lhs
            .iter()
            .zip(tys)
            .map(|(n, t)| self.bind(n, t))
            .collect();
        out.stmts.push(Stmt { syms, op });
        Ok(())
    }

    /// Lowers a right-hand side to an op plus one result type per bound
    /// symbol.
    fn rhs(&mut self, rhs: &PRhs, path: &str, span: Span) -> LResult<(Op, Vec<Type>)> {
        match rhs {
            PRhs::Expr(e) => {
                let (ex, st) = self.typed_expr(e)?;
                Ok((Op::Expr(ex), vec![Type::Scalar(st)]))
            }
            PRhs::SliceCopy {
                tensor,
                dims,
                is_copy,
                reuse,
            } => self.slice_copy(tensor, dims, *is_copy, *reuse, span),
            PRhs::VarVec(items) => self.varvec(items, span),
            PRhs::Map {
                domain,
                params,
                body,
            } => self.map_rhs(domain, params, body, path, span),
            PRhs::MultiFold {
                domain,
                accs,
                idx,
                pre,
                updates,
                combines,
            } => self.multifold(
                domain,
                accs,
                idx,
                pre.as_ref(),
                updates,
                combines,
                path,
                span,
            ),
            PRhs::Fold {
                domain,
                acc,
                idx,
                param,
                body,
                combine,
            } => self.fold(domain, acc, idx, param, body, combine, path),
            PRhs::FlatMap {
                domain,
                param,
                body,
            } => self.flatmap(domain, param, body, path),
            PRhs::GroupByFold {
                domain,
                acc,
                idx,
                pre,
                element,
                merge,
                combine,
            } => self.gbf(
                domain,
                acc,
                idx,
                pre.as_ref(),
                element.as_ref(),
                merge.as_ref(),
                combine,
                path,
            ),
        }
    }

    fn slice_copy(
        &mut self,
        tensor: &Name,
        dims: &[PDim],
        is_copy: bool,
        reuse: u32,
        span: Span,
    ) -> LResult<(Op, Vec<Type>)> {
        let sym = self.lookup(tensor)?;
        let ty = self.ty(sym);
        let Type::Tensor { shape, .. } = &ty else {
            self.error(
                codes::TYPE_ERROR,
                format!("cannot slice `{}` of non-tensor type {ty}", tensor.text),
                tensor.span,
            );
            return Err(());
        };
        if dims.len() != shape.len() {
            self.error(
                codes::ARITY,
                format!(
                    "`{}` has rank {} but the slice gives {} dimension(s)",
                    tensor.text,
                    shape.len(),
                    dims.len()
                ),
                span,
            );
            return Err(());
        }
        let mut sdims = Vec::new();
        for d in dims {
            sdims.push(match d {
                PDim::Full => SliceDim::Full,
                PDim::Point(e) => SliceDim::Point(self.expr(e)?),
                PDim::Window(start, len) => SliceDim::Window {
                    start: self.expr(start)?,
                    len: self.size(len)?,
                },
            });
        }
        // Arity and tensor-ness were checked above, so this cannot panic.
        let rty = slice_result_type(&ty, &sdims);
        let op = if is_copy {
            Op::Copy(CopyOp {
                tensor: sym,
                dims: sdims,
                reuse,
            })
        } else {
            Op::Slice(SliceOp {
                tensor: sym,
                dims: sdims,
            })
        };
        Ok((op, vec![rty]))
    }

    fn varvec(&mut self, items: &[PVvItem], span: Span) -> LResult<(Op, Vec<Type>)> {
        if items.is_empty() {
            self.error(
                codes::ARITY,
                "cannot infer the element type of an empty vector",
                span,
            );
            return Err(());
        }
        let mut lowered = Vec::new();
        let mut elem = None;
        for item in items {
            let guard = match &item.guard {
                Some(g) => Some(self.expr(g)?),
                None => None,
            };
            let (value, st) = self.typed_expr(&item.value)?;
            if elem.is_none() {
                elem = Some(st);
            }
            lowered.push(GuardedItem { guard, value });
        }
        let Some(elem) = elem else { return Err(()) };
        Ok((Op::VarVec(lowered), vec![Type::DynVec { elem }]))
    }

    fn map_rhs(
        &mut self,
        domain: &[PSize],
        params: &[Name],
        body: &PBody,
        path: &str,
        span: Span,
    ) -> LResult<(Op, Vec<Type>)> {
        let domain = self.sizes(domain)?;
        if params.len() != domain.len() {
            self.error(
                codes::ARITY,
                format!(
                    "map over {} dimension(s) needs {} index parameter(s), got {}",
                    domain.len(),
                    domain.len(),
                    params.len()
                ),
                span,
            );
            return Err(());
        }
        let bpath = format!("{path}/{}", Seg::Body);
        self.map.record(&bpath, body.span);
        let ps: Vec<(Name, Type)> = params.iter().map(|n| (n.clone(), Type::i32())).collect();
        let (psyms, blk) = self.scoped_body(&ps, body, &bpath, "v");
        let result = self.single_result(&blk, "map body", body.span)?;
        let out_ty = match self.ty(result) {
            Type::Scalar(st) => Type::Tensor {
                elem: st,
                shape: domain.clone(),
            },
            Type::Tensor { elem, shape } => {
                let mut full = domain.clone();
                full.extend(shape);
                Type::Tensor { elem, shape: full }
            }
            other => {
                self.error(
                    codes::TYPE_ERROR,
                    format!("map body must yield a scalar or tensor, got {other}"),
                    body.span,
                );
                return Err(());
            }
        };
        Ok((
            Op::Pattern(Pattern::Map(MapPat {
                domain,
                body: Lambda::new(psyms, blk),
            })),
            vec![out_ty],
        ))
    }

    fn acc_def(&mut self, a: &PAccDecl) -> LResult<AccDef> {
        let elem = Self::scalar(&a.elem);
        if a.init.len() != elem.width() {
            self.error(
                codes::ARITY,
                format!(
                    "splat gives {} literal(s) but the element type has {} field(s)",
                    a.init.len(),
                    elem.width()
                ),
                a.span,
            );
            return Err(());
        }
        Ok(AccDef {
            name: a.name.text.clone(),
            shape: self.sizes(&a.shape)?,
            elem,
            init: Init::splat(a.init.iter().map(|l| Self::lit(*l)).collect()),
        })
    }

    /// Finds the single clause targeting accumulator `acc` by name.
    fn clause_for<'c, T>(
        &mut self,
        clauses: &'c [T],
        get_name: impl Fn(&T) -> Option<&Name>,
        acc: &Name,
        what: &str,
        span: Span,
    ) -> LResult<&'c T> {
        let mut found = None;
        for c in clauses {
            if get_name(c).map(|n| n.text.as_str()) == Some(acc.text.as_str()) {
                if found.is_some() {
                    self.error(
                        codes::DUPLICATE,
                        format!("duplicate {what} clause for accumulator `{}`", acc.text),
                        acc.span,
                    );
                    return Err(());
                }
                found = Some(c);
            }
        }
        match found {
            Some(c) => Ok(c),
            None => {
                self.error(
                    codes::ARITY,
                    format!("missing {what} clause for accumulator `{}`", acc.text),
                    span,
                );
                Err(())
            }
        }
    }

    /// Lowers one update clause against its accumulator. Must be called
    /// with the inner (idx + pre) scope active; the accumulator parameter
    /// is bound only inside the update body, and the location expressions
    /// are lowered *outside* it.
    fn update(&mut self, u: &PUpdate, acc: &AccDef, path: &str) -> LResult<AccUpdate> {
        self.map.record(path, u.span);
        // An empty extent list marks a point update (one element per
        // dimension, scalar region); otherwise the extent arity must match
        // the accumulator's rank, like the locations always must.
        if u.locs.len() != acc.shape.len()
            || !(u.shape.is_empty() || u.shape.len() == acc.shape.len())
        {
            self.error(
                codes::ARITY,
                format!(
                    "accumulator `{}` has rank {}; update gives {} location(s) and {} extent(s)",
                    acc.name,
                    acc.shape.len(),
                    u.locs.len(),
                    u.shape.len()
                ),
                u.span,
            );
            return Err(());
        }
        let loc: LResult<Vec<Expr>> = u.locs.iter().map(|e| self.expr(e)).collect();
        let loc = loc?;
        let shape = self.sizes(&u.shape)?;
        let pty = region_type(&shape, &acc.elem);
        let (psyms, body) = self.scoped_body(&[(u.param.clone(), pty)], &u.body, path, "upd");
        let result = self.single_result(&body, "update body", u.body.span)?;
        let _ = result;
        Ok(AccUpdate {
            loc,
            shape,
            acc_param: psyms[0],
            body,
        })
    }

    /// Lowers a combine lambda in the *outer* scope (callers pop the inner
    /// frame first, mirroring validation's scoping).
    fn combine_lambda(
        &mut self,
        (a, b, body): &(Name, Name, PBody),
        elem: &ScalarType,
        path: &str,
    ) -> LResult<Lambda> {
        let pty = Type::Scalar(elem.clone());
        let params = [(a.clone(), pty.clone()), (b.clone(), pty)];
        let (psyms, blk) = self.scoped_body(&params, body, path, "comb");
        self.single_result(&blk, "combine body", body.span)?;
        Ok(Lambda::new(psyms, blk))
    }

    #[allow(clippy::too_many_arguments)]
    fn multifold(
        &mut self,
        domain: &[PSize],
        accs: &[PAccDecl],
        idx: &[Name],
        pre: Option<&PBody>,
        updates: &[PUpdate],
        combines: &[PCombine],
        path: &str,
        span: Span,
    ) -> LResult<(Op, Vec<Type>)> {
        let domain = self.sizes(domain)?;
        if idx.len() != domain.len() {
            self.error(
                codes::ARITY,
                format!(
                    "multiFold over {} dimension(s) needs {} index parameter(s), got {}",
                    domain.len(),
                    domain.len(),
                    idx.len()
                ),
                span,
            );
            return Err(());
        }
        let defs: LResult<Vec<AccDef>> = accs.iter().map(|a| self.acc_def(a)).collect();
        let defs = defs?;
        // Every clause must target a declared accumulator.
        for u in updates {
            if let Some(n) = &u.acc {
                if !accs.iter().any(|a| a.name.text == n.text) {
                    self.error(
                        codes::UNDEFINED_NAME,
                        format!("update targets unknown accumulator `{}`", n.text),
                        n.span,
                    );
                    return Err(());
                }
            }
        }
        for c in combines {
            if let Some(n) = &c.acc {
                if !accs.iter().any(|a| a.name.text == n.text) {
                    self.error(
                        codes::UNDEFINED_NAME,
                        format!("combine targets unknown accumulator `{}`", n.text),
                        n.span,
                    );
                    return Err(());
                }
            }
        }

        // Inner scope: indices, then pre bindings.
        self.scopes.push(HashMap::new());
        let idx_syms: Vec<Sym> = idx.iter().map(|n| self.bind(n, Type::i32())).collect();
        let pre_blk = match pre {
            Some(p) => {
                let ppath = format!("{path}/{}", Seg::Pre);
                self.map.record(&ppath, p.span);
                self.body(p, &ppath, "v")
            }
            None => Block::new(),
        };
        let mut lowered_updates = Vec::new();
        let mut update_err = false;
        for (k, (acc, pacc)) in defs.iter().zip(accs).enumerate() {
            let upath = format!("{path}/{}", Seg::Update(Some(k)));
            match self.clause_for(updates, |u| u.acc.as_ref(), &pacc.name, "update", span) {
                Ok(u) => {
                    let u = u.clone();
                    match self.update(&u, acc, &upath) {
                        Ok(l) => lowered_updates.push(l),
                        Err(()) => update_err = true,
                    }
                }
                Err(()) => update_err = true,
            }
        }
        self.scopes.pop();
        if update_err {
            return Err(());
        }

        // Combines run in the outer scope.
        let mut lowered_combines = Vec::new();
        for (k, (acc, pacc)) in defs.iter().zip(accs).enumerate() {
            let cpath = format!("{path}/{}", Seg::Combine(Some(k)));
            let c = self
                .clause_for(combines, |c| c.acc.as_ref(), &pacc.name, "combine", span)?
                .clone();
            self.map.record(&cpath, c.span);
            match &c.lambda {
                Some(l) => lowered_combines.push(Some(self.combine_lambda(l, &acc.elem, &cpath)?)),
                None => lowered_combines.push(None),
            }
        }

        let out_tys: Vec<Type> = defs
            .iter()
            .map(|a| region_type(&a.shape, &a.elem))
            .collect();
        Ok((
            Op::Pattern(Pattern::MultiFold(MultiFoldPat {
                domain,
                accs: defs,
                idx: idx_syms,
                pre: pre_blk,
                updates: lowered_updates,
                combines: lowered_combines,
            })),
            out_tys,
        ))
    }

    /// `fold` sugar: one accumulator updated in full every iteration, the
    /// same desugaring the builder API applies.
    #[allow(clippy::too_many_arguments)]
    fn fold(
        &mut self,
        domain: &[PSize],
        acc: &PAccDecl,
        idx: &[Name],
        param: &Name,
        body: &PBody,
        combine: &(Name, Name, PBody),
        path: &str,
    ) -> LResult<(Op, Vec<Type>)> {
        let domain = self.sizes(domain)?;
        if idx.len() != domain.len() {
            self.error(
                codes::ARITY,
                format!(
                    "fold over {} dimension(s) needs {} index parameter(s), got {}",
                    domain.len(),
                    domain.len(),
                    idx.len()
                ),
                acc.span,
            );
            return Err(());
        }
        let def = self.acc_def(acc)?;

        self.scopes.push(HashMap::new());
        let idx_syms: Vec<Sym> = idx.iter().map(|n| self.bind(n, Type::i32())).collect();
        let upath = format!("{path}/{}", Seg::Update(Some(0)));
        self.map.record(&upath, body.span);
        let pty = region_type(&def.shape, &def.elem);
        let (psyms, ubody) = self.scoped_body(&[(param.clone(), pty)], body, &upath, "upd");
        let res = self.single_result(&ubody, "fold body", body.span);
        self.scopes.pop();
        res?;

        let cpath = format!("{path}/{}", Seg::Combine(Some(0)));
        self.map.record(&cpath, combine.2.span);
        let comb = self.combine_lambda(combine, &def.elem, &cpath)?;

        let out_ty = region_type(&def.shape, &def.elem);
        let update = AccUpdate {
            loc: def.shape.iter().map(|_| Expr::int(0)).collect(),
            shape: def.shape.clone(),
            acc_param: psyms[0],
            body: ubody,
        };
        Ok((
            Op::Pattern(Pattern::MultiFold(MultiFoldPat {
                domain,
                accs: vec![def],
                idx: idx_syms,
                pre: Block::new(),
                updates: vec![update],
                combines: vec![Some(comb)],
            })),
            vec![out_ty],
        ))
    }

    fn flatmap(
        &mut self,
        domain: &PSize,
        param: &Name,
        body: &PBody,
        path: &str,
    ) -> LResult<(Op, Vec<Type>)> {
        let domain = self.size(domain)?;
        let bpath = format!("{path}/{}", Seg::Body);
        self.map.record(&bpath, body.span);
        let (psyms, blk) = self.scoped_body(&[(param.clone(), Type::i32())], body, &bpath, "items");
        let result = self.single_result(&blk, "flatMap body", body.span)?;
        let elem = match self.ty(result) {
            Type::DynVec { elem } => elem,
            other => {
                self.error(
                    codes::TYPE_ERROR,
                    format!("flatMap body must yield a dynamic vector, got {other}"),
                    body.span,
                );
                return Err(());
            }
        };
        Ok((
            Op::Pattern(Pattern::FlatMap(FlatMapPat {
                domain,
                body: Lambda::new(psyms, blk),
            })),
            vec![Type::DynVec { elem }],
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn gbf(
        &mut self,
        domain: &PSize,
        acc: &PAccDecl,
        idx: &Name,
        pre: Option<&PBody>,
        element: Option<&(PExpr, PUpdate)>,
        merge: Option<&Name>,
        combine: &(Name, Name, PBody),
        path: &str,
    ) -> LResult<(Op, Vec<Type>)> {
        let domain = self.size(domain)?;
        let def = self.acc_def(acc)?;

        self.scopes.push(HashMap::new());
        let idx_sym = self.bind(idx, Type::i32());
        let pre_blk = match pre {
            Some(p) => {
                let ppath = format!("{path}/{}", Seg::Pre);
                self.map.record(&ppath, p.span);
                self.body(p, &ppath, "v")
            }
            None => Block::new(),
        };
        let body_and_key = if let Some((key, update)) = element {
            let kpath = format!("{path}/{}", Seg::Key);
            self.map.record(&kpath, key.span);
            let key_res = self.typed_expr(key);
            let upd_res = key_res.and_then(|(kexpr, kst)| {
                let upath = format!("{path}/{}", Seg::Update(None));
                self.update(update, &def, &upath).map(|u| {
                    (
                        GbfBody::Element {
                            key: kexpr,
                            update: u,
                        },
                        kst,
                    )
                })
            });
            upd_res
        } else if let Some(dict) = merge {
            self.map.record(format!("{path}/{}", Seg::Merge), dict.span);
            self.lookup(dict).and_then(|sym| match self.ty(sym) {
                Type::Dict { key, .. } => Ok((GbfBody::Merge { dict: sym }, key)),
                other => {
                    self.error(
                        codes::TYPE_ERROR,
                        format!("`{}` of type {other} is not a dictionary", dict.text),
                        dict.span,
                    );
                    Err(())
                }
            })
        } else {
            Err(())
        };
        self.scopes.pop();
        let (body, key_ty) = body_and_key?;

        let cpath = format!("{path}/{}", Seg::Combine(None));
        self.map.record(&cpath, combine.2.span);
        let comb = self.combine_lambda(combine, &def.elem, &cpath)?;

        let value_ty = region_type(&def.shape, &def.elem);
        let out_ty = Type::Dict {
            key: key_ty,
            value: Box::new(value_ty),
        };
        Ok((
            Op::Pattern(Pattern::GroupByFold(GroupByFoldPat {
                domain,
                acc: def,
                idx: idx_sym,
                pre: pre_blk,
                body,
                combine: comb,
            })),
            vec![out_ty],
        ))
    }

    // ---- program ----

    fn program(&mut self, ast: &PProgram) -> Program {
        self.map.record(ast.name.text.clone(), ast.name.span);
        for sv in &ast.size_vars {
            if !self.size_vars.insert(sv.text.clone()) {
                self.error(
                    codes::DUPLICATE,
                    format!("size variable `{}` declared twice", sv.text),
                    sv.span,
                );
            }
        }
        let mut inputs = Vec::new();
        for input in &ast.inputs {
            if let Ok(ty) = self.ptype(&input.ty) {
                inputs.push(self.bind(&input.name, ty));
            }
        }
        let mut body = Block::new();
        let root = ast.name.text.clone();
        for stmt in &ast.stmts {
            let _ = self.stmt(stmt, &root, &mut body);
        }
        for ret in &ast.returns {
            if let Ok(sym) = self.lookup(ret) {
                body.result.push(sym);
            }
        }
        if body.result.is_empty() && self.errors.is_empty() {
            self.error(
                codes::PROGRAM_STRUCTURE,
                "program returns nothing",
                ast.name.span,
            );
        }
        Program::new(
            ast.name.text.clone(),
            ast.size_vars.iter().map(|n| n.text.clone()).collect(),
            inputs,
            body,
            std::mem::take(&mut self.syms),
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use crate::parse_program;
    use pphw_ir::types::Type;

    const SUM: &str = "program sum(d) {\n  input x: Float[d]\n  let s = multiFold(d) {\n    acc s: Float = splat(0.0)\n    (i) =>\n    update s @ () [] (acc) {\n      let u = (acc + x(i))\n      yield u\n    }\n    combine s (a, b) {\n      let c = (a + b)\n      yield c\n    }\n  }\n  return (s)\n}\n";

    #[test]
    fn lowers_scalar_fold() {
        let out = parse_program(SUM, "sum.ppl").expect("parses");
        let p = &out.program;
        assert_eq!(p.name, "sum");
        assert_eq!(p.outputs().len(), 1);
        assert_eq!(p.ty(p.outputs()[0]), &Type::f32());
        assert!(p.validate().is_ok());
        // The statement and its clauses landed in the source map.
        assert!(out.source_map.get("sum/s[0]").is_some());
        assert!(out.source_map.get("sum/s[0]/update[0]").is_some());
        assert!(out.source_map.get("sum/s[0]/combine[0]").is_some());
    }

    #[test]
    fn undefined_name_is_reported_with_span() {
        let src = "program p(d) {\n  input x: Float[d]\n  let y = (x(0) + zz)\n  return (y)\n}\n";
        let errs = parse_program(src, "p.ppl").expect_err("should fail");
        assert!(errs.iter().any(|e| e.code == crate::codes::UNDEFINED_NAME));
        let e = errs
            .iter()
            .find(|e| e.code == crate::codes::UNDEFINED_NAME)
            .unwrap();
        assert_eq!(&src[e.span.start..e.span.end], "zz");
        let rendered = e.render(src, "p.ppl");
        assert!(rendered.starts_with("p.ppl:3:"), "got: {rendered}");
        assert!(rendered.contains("error[PPLP003]"));
        assert!(rendered.contains('^'));
    }

    #[test]
    fn undeclared_size_var_is_reported() {
        let src = "program p(d) {\n  input x: Float[d]\n  let y = map(q) { (i) =>\n    yield i\n  }\n  return (y)\n}\n";
        let errs = parse_program(src, "p.ppl").expect_err("should fail");
        assert!(errs
            .iter()
            .any(|e| e.code == crate::codes::UNDECLARED_SIZE_VAR));
    }

    #[test]
    fn combine_cannot_see_fold_locals() {
        // `i` is the fold index; combine lambdas only see the outer scope.
        let src = "program p(d) {\n  input x: Float[d]\n  let s = multiFold(d) {\n    acc s: Float = splat(0.0)\n    (i) =>\n    update s @ () [] (acc) {\n      let u = (acc + x(i))\n      yield u\n    }\n    combine s (a, b) {\n      let c = (a + i)\n      yield c\n    }\n  }\n  return (s)\n}\n";
        let errs = parse_program(src, "p.ppl").expect_err("should fail");
        assert!(errs
            .iter()
            .any(|e| e.code == crate::codes::UNDEFINED_NAME && e.message.contains('i')));
    }

    #[test]
    fn fold_sugar_desugars_to_full_multifold() {
        let src = "program p(d) {\n  input x: Float[d]\n  let s = fold(d) {\n    acc s: Float = splat(0.0)\n    (i) (acc) =>\n      let u = (acc + x(i))\n      yield u\n    combine (a, b) {\n      let c = (a + b)\n      yield c\n    }\n  }\n  return (s)\n}\n";
        let out = parse_program(src, "p.ppl").expect("parses");
        let p = &out.program;
        let op = &p.body.stmts[0].op;
        let pat = op.as_pattern().expect("is a pattern");
        match pat {
            pphw_ir::pattern::Pattern::MultiFold(mf) => assert!(mf.is_fold()),
            other => panic!("expected multiFold, got {}", other.kind()),
        }
    }

    #[test]
    fn type_error_points_at_expression() {
        let src =
            "program p(d) {\n  input x: Float[d]\n  let y = (if ((x(0) < 0.0)) 1.0 else (1, 2.0))\n  return (y)\n}\n";
        let errs = parse_program(src, "p.ppl").expect_err("should fail");
        assert!(errs.iter().any(|e| e.code == crate::codes::TYPE_ERROR));
    }
}
