//! Ergonomic construction of PPL programs.
//!
//! [`ProgramBuilder`] mints symbols, tracks size variables and inputs, and
//! provides closure-based constructors for the common pattern shapes
//! (element-wise maps, folds, filters, group-by-folds). Pattern bodies are
//! built through a [`Ctx`], which provides the same constructors for
//! nesting plus scalar expression helpers.
//!
//! Irregular patterns (multi-accumulator `MultiFold`s like fused k-means)
//! are written as `.ppl` text and parsed instead.

use crate::block::{Block, GuardedItem, Op, SliceDim};
use crate::expr::{BinOp, Expr};
use crate::infer::infer_scalar_type;
use crate::pattern::{
    AccDef, AccUpdate, FlatMapPat, GbfBody, GroupByFoldPat, Init, Lambda, MapPat, MultiFoldPat,
    Pattern,
};
use crate::program::Program;
use crate::size::Size;
use crate::types::{ScalarType, Sym, SymTable, Type};

/// The value returned from a body closure: either an expression (bound
/// automatically into the block) or a symbol already bound in the block.
#[derive(Debug, Clone)]
pub enum Ret {
    /// A scalar expression to be bound as the block result.
    Expr(Expr),
    /// An already-bound symbol (e.g. the result of a nested pattern).
    Sym(Sym),
}

impl From<Expr> for Ret {
    fn from(e: Expr) -> Ret {
        Ret::Expr(e)
    }
}

impl From<Sym> for Ret {
    fn from(s: Sym) -> Ret {
        Ret::Sym(s)
    }
}

/// Block-building context handed to body closures.
///
/// Statements created through the context accumulate into the block under
/// construction; expression helpers (`add`, `mul`, `read`, …) build pure
/// [`Expr`] trees without binding anything.
pub struct Ctx<'a> {
    syms: &'a mut SymTable,
    block: Block,
}

impl<'a> Ctx<'a> {
    fn new(syms: &'a mut SymTable) -> Self {
        Ctx {
            syms,
            block: Block::new(),
        }
    }

    /// Access to the symbol table (to mint symbols for hand-built patterns).
    pub fn syms(&mut self) -> &mut SymTable {
        self.syms
    }

    // ---- scalar expression helpers (pure; nothing is bound) ----

    /// Variable reference.
    pub fn var(&self, s: Sym) -> Expr {
        Expr::Var(s)
    }

    /// Float literal.
    pub fn f32(&self, v: f32) -> Expr {
        Expr::f32(v)
    }

    /// Integer literal.
    pub fn int(&self, v: i64) -> Expr {
        Expr::int(v)
    }

    /// Addition.
    pub fn add(&self, a: Expr, b: Expr) -> Expr {
        a.add(b)
    }

    /// Subtraction.
    pub fn sub(&self, a: Expr, b: Expr) -> Expr {
        a.sub(b)
    }

    /// Multiplication.
    pub fn mul(&self, a: Expr, b: Expr) -> Expr {
        a.mul(b)
    }

    /// Division.
    pub fn div(&self, a: Expr, b: Expr) -> Expr {
        a.div(b)
    }

    /// Less-than comparison.
    pub fn lt(&self, a: Expr, b: Expr) -> Expr {
        a.lt(b)
    }

    /// Logical and.
    pub fn and(&self, a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    /// Conditional selection.
    pub fn select(&self, cond: Expr, t: Expr, f: Expr) -> Expr {
        Expr::select(cond, t, f)
    }

    /// Squared difference `(a-b)^2`.
    pub fn sq_diff(&self, a: Expr, b: Expr) -> Expr {
        a.sq_diff(b)
    }

    /// Tuple construction.
    pub fn tuple(&self, es: Vec<Expr>) -> Expr {
        Expr::Tuple(es)
    }

    /// Tuple projection.
    pub fn field(&self, e: Expr, i: usize) -> Expr {
        e.field(i)
    }

    /// Tensor element read.
    pub fn read(&self, tensor: Sym, index: Vec<Expr>) -> Expr {
        Expr::read(tensor, index)
    }

    // ---- statement builders ----

    /// Binds a scalar expression to a fresh symbol.
    ///
    /// # Panics
    ///
    /// Panics if the expression is ill-typed.
    pub fn scalar(&mut self, name: &str, e: Expr) -> Sym {
        let ty = infer_scalar_type(&e, self.syms)
            .unwrap_or_else(|err| panic!("ill-typed expression for `{name}`: {err}"));
        let sym = self.syms.fresh(name, Type::Scalar(ty));
        self.block.push(sym, Op::Expr(e));
        sym
    }

    fn seal(&mut self, name: &str, ret: Ret) -> Sym {
        match ret {
            Ret::Sym(s) => s,
            Ret::Expr(e) => self.scalar(name, e),
        }
    }

    fn sub_block<R>(&mut self, f: impl FnOnce(&mut Ctx<'_>) -> R) -> (Block, R) {
        let mut inner = Ctx::new(self.syms);
        let r = f(&mut inner);
        (inner.block, r)
    }

    fn fresh_indices(&mut self, n: usize) -> Vec<Sym> {
        const NAMES: [&str; 4] = ["i", "j", "p", "q"];
        (0..n)
            .map(|k| {
                let name = NAMES.get(k).copied().unwrap_or("ix");
                self.syms.fresh(name, Type::i32())
            })
            .collect()
    }

    // ---- pattern builders ----

    /// `map(domain){ idx => body }` with a scalar body.
    pub fn map<R: Into<Ret>>(
        &mut self,
        domain: Vec<Size>,
        f: impl FnOnce(&mut Ctx<'_>, &[Sym]) -> R,
    ) -> Sym {
        let params = self.fresh_indices(domain.len());
        let (mut body, ret) = self.sub_block(|c| {
            let r = f(c, &params).into();
            c.seal("v", r)
        });
        body.result = vec![ret];
        let elem = match self.syms.ty(ret) {
            Type::Scalar(s) => s.clone(),
            other => panic!("map body must be scalar-typed, got {other}"),
        };
        let ty = Type::tensor(elem, domain.clone());
        let out = self.syms.fresh("map", ty);
        self.block.push(
            out,
            Op::Pattern(Pattern::Map(MapPat {
                domain,
                body: Lambda::new(params, body),
            })),
        );
        out
    }

    /// `fold(domain)(init){ (idx, acc) => update }{ (a,b) => combine }`:
    /// a full-accumulator `MultiFold` (scalar when `shape` is empty).
    #[allow(clippy::too_many_arguments)]
    pub fn fold<R1: Into<Ret>, R2: Into<Ret>>(
        &mut self,
        name: &str,
        domain: Vec<Size>,
        shape: Vec<Size>,
        elem: ScalarType,
        init: Init,
        update: impl FnOnce(&mut Ctx<'_>, &[Sym], Sym) -> R1,
        combine: impl FnOnce(&mut Ctx<'_>, Sym, Sym) -> R2,
    ) -> Sym {
        let idx = self.fresh_indices(domain.len());
        let acc_ty = region_type(&shape, &elem);
        let acc_param = self.syms.fresh("acc", acc_ty.clone());
        let (mut ub, ur) = self.sub_block(|c| {
            let r = update(c, &idx, acc_param).into();
            c.seal("upd", r)
        });
        ub.result = vec![ur];

        // Combines are scalar lambdas applied elementwise.
        let scalar_ty = Type::Scalar(elem.clone());
        let a = self.syms.fresh("a", scalar_ty.clone());
        let b = self.syms.fresh("b", scalar_ty);
        let (mut cb, cr) = self.sub_block(|c| {
            let r = combine(c, a, b).into();
            c.seal("comb", r)
        });
        cb.result = vec![cr];

        let pat = MultiFoldPat {
            domain,
            accs: vec![AccDef {
                name: name.to_string(),
                shape: shape.clone(),
                elem: elem.clone(),
                init,
            }],
            idx,
            pre: Block::new(),
            updates: vec![AccUpdate {
                loc: shape.iter().map(|_| Expr::int(0)).collect(),
                shape,
                acc_param,
                body: ub,
            }],
            combines: vec![Some(Lambda::new(vec![a, b], cb))],
        };
        let out = self.syms.fresh(name, acc_ty);
        self.block.push(out, Op::Pattern(Pattern::MultiFold(pat)));
        out
    }

    /// A single-accumulator `MultiFold` with per-index location: the body
    /// closure builds the shared (`pre`) computation and returns the update
    /// location, the updated-region shape, and a closure building the
    /// update body from the region parameter.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    pub fn multi_fold<R: Into<Ret>, R2: Into<Ret>>(
        &mut self,
        name: &str,
        domain: Vec<Size>,
        shape: Vec<Size>,
        elem: ScalarType,
        init: Init,
        body: impl FnOnce(
            &mut Ctx<'_>,
            &[Sym],
        ) -> (
            Vec<Expr>,
            Vec<Size>,
            Box<dyn FnOnce(&mut Ctx<'_>, Sym) -> R>,
        ),
        combine: Option<Box<dyn FnOnce(&mut Ctx<'_>, Sym, Sym) -> R2>>,
    ) -> Sym {
        let idx = self.fresh_indices(domain.len());
        let (pre, (loc, region, update)) = self.sub_block(|c| body(c, &idx));
        assert_eq!(
            loc.len(),
            shape.len(),
            "location arity must match accumulator rank"
        );
        let region_ty = region_type(&region, &elem);
        let acc_param = self.syms.fresh("acc", region_ty);
        let (mut ub, ur) = self.sub_block(|c| {
            let r = update(c, acc_param).into();
            c.seal("upd", r)
        });
        ub.result = vec![ur];

        let acc_ty = region_type(&shape, &elem);
        let combines = match combine {
            Some(cf) => {
                let scalar_ty = Type::Scalar(elem.clone());
                let a = self.syms.fresh("a", scalar_ty.clone());
                let b = self.syms.fresh("b", scalar_ty);
                let (mut cb, cr) = self.sub_block(|c| {
                    let r = cf(c, a, b).into();
                    c.seal("comb", r)
                });
                cb.result = vec![cr];
                vec![Some(Lambda::new(vec![a, b], cb))]
            }
            None => vec![None],
        };

        let pat = MultiFoldPat {
            domain,
            accs: vec![AccDef {
                name: name.to_string(),
                shape,
                elem,
                init,
            }],
            idx,
            pre,
            updates: vec![AccUpdate {
                loc,
                shape: region,
                acc_param,
                body: ub,
            }],
            combines,
        };
        let out = self.syms.fresh(name, acc_ty);
        self.block.push(out, Op::Pattern(Pattern::MultiFold(pat)));
        out
    }

    /// `flatMap(domain){ i => if guard [value] else [] }` — a filter.
    pub fn filter(
        &mut self,
        name: &str,
        domain: Size,
        f: impl FnOnce(&mut Ctx<'_>, Sym) -> (Expr, Expr),
    ) -> Sym {
        let i = self.syms.fresh("i", Type::i32());
        let (mut body, (guard, value)) = self.sub_block(|c| f(c, i));
        let elem = infer_scalar_type(&value, self.syms)
            .unwrap_or_else(|e| panic!("ill-typed flatMap item: {e}"));
        let vv = self
            .syms
            .fresh("items", Type::DynVec { elem: elem.clone() });
        let item = GuardedItem {
            guard: Some(guard),
            value,
        };
        body.push(vv, Op::VarVec(vec![item]));
        body.result = vec![vv];
        let out = self.syms.fresh(name, Type::DynVec { elem });
        self.block.push(
            out,
            Op::Pattern(Pattern::FlatMap(FlatMapPat {
                domain,
                body: Lambda::new(vec![i], body),
            })),
        );
        out
    }

    /// `groupByFold(domain)(init){ i => (key, value) }{ (a,b) => combine }`
    /// with scalar buckets; the per-bucket update is `combine(acc, value)`.
    pub fn group_by_fold(
        &mut self,
        name: &str,
        domain: Size,
        elem: ScalarType,
        init: Init,
        body: impl FnOnce(&mut Ctx<'_>, Sym) -> (Expr, Expr),
        combine: impl Fn(Expr, Expr) -> Expr,
    ) -> Sym {
        let i = self.syms.fresh("i", Type::i32());
        let (pre, (key, value)) = self.sub_block(|c| body(c, i));
        let key_ty = infer_scalar_type(&key, self.syms)
            .unwrap_or_else(|e| panic!("ill-typed groupByFold key: {e}"));

        let acc_param = self.syms.fresh("acc", Type::Scalar(elem.clone()));
        let upd_expr = combine(Expr::Var(acc_param), value);
        let (mut ub, ur) = self.sub_block(|c| c.scalar("upd", upd_expr));
        ub.result = vec![ur];

        let a = self.syms.fresh("a", Type::Scalar(elem.clone()));
        let b = self.syms.fresh("b", Type::Scalar(elem.clone()));
        let comb_expr = combine(Expr::Var(a), Expr::Var(b));
        let (mut cb, cr) = self.sub_block(|c| c.scalar("comb", comb_expr));
        cb.result = vec![cr];

        let pat = GroupByFoldPat {
            domain,
            acc: AccDef {
                name: name.to_string(),
                shape: vec![],
                elem: elem.clone(),
                init,
            },
            idx: i,
            pre,
            body: GbfBody::Element {
                key,
                update: AccUpdate {
                    loc: vec![],
                    shape: vec![],
                    acc_param,
                    body: ub,
                },
            },
            combine: Lambda::new(vec![a, b], cb),
        };
        let out = self.syms.fresh(
            name,
            Type::Dict {
                key: key_ty,
                value: Box::new(Type::Scalar(elem)),
            },
        );
        self.block.push(out, Op::Pattern(Pattern::GroupByFold(pat)));
        out
    }
}

/// The type a region of the given shape binds as: leading unit dimensions
/// are squeezed so a `(1, d)` region binds as a `d`-vector and an all-unit
/// (or empty) region binds as a scalar, matching the paper's informal
/// update notation. The textual frontend uses the same rule when typing
/// accumulator parameters and `multiFold` outputs.
pub fn region_type(shape: &[Size], elem: &ScalarType) -> Type {
    let squeezed: Vec<Size> = shape
        .iter()
        .skip_while(|s| s.as_const() == Some(1))
        .cloned()
        .collect();
    if squeezed.is_empty() {
        Type::Scalar(elem.clone())
    } else {
        Type::Tensor {
            elem: elem.clone(),
            shape: squeezed,
        }
    }
}

/// Computes the result type of slicing `ty` with `dims`.
///
/// # Panics
///
/// Panics if `ty` is not a tensor or the spec arity mismatches.
pub fn slice_result_type(ty: &Type, dims: &[SliceDim]) -> Type {
    let (elem, shape) = match ty {
        Type::Tensor { elem, shape } => (elem.clone(), shape.clone()),
        other => panic!("slice of non-tensor type {other}"),
    };
    assert_eq!(dims.len(), shape.len(), "slice arity mismatch");
    let mut out = Vec::new();
    for (d, s) in dims.iter().zip(shape) {
        match d {
            SliceDim::Point(_) => {}
            SliceDim::Window { len, .. } => out.push(len.clone()),
            SliceDim::Full => out.push(s),
        }
    }
    if out.is_empty() {
        Type::Scalar(elem)
    } else {
        Type::Tensor { elem, shape: out }
    }
}

/// Builds a [`Program`] incrementally.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct ProgramBuilder {
    name: String,
    size_vars: Vec<String>,
    inputs: Vec<Sym>,
    syms: SymTable,
    block: Block,
}

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            size_vars: Vec::new(),
            inputs: Vec::new(),
            syms: SymTable::new(),
            block: Block::new(),
        }
    }

    /// Declares a symbolic dimension and returns it as a [`Size`].
    pub fn size(&mut self, name: &str) -> Size {
        if !self.size_vars.iter().any(|v| v == name) {
            self.size_vars.push(name.to_string());
        }
        Size::var(name)
    }

    /// Declares a tensor input.
    pub fn input(&mut self, name: &str, elem: impl Into<ScalarType>, shape: Vec<Size>) -> Sym {
        let sym = self.syms.fresh(name, Type::tensor(elem, shape));
        self.inputs.push(sym);
        sym
    }

    /// Runs `f` with a context over the program's top-level block.
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx {
            syms: &mut self.syms,
            block: std::mem::take(&mut self.block),
        };
        let r = f(&mut ctx);
        self.block = ctx.block;
        r
    }

    /// Top-level `map`; see [`Ctx::map`].
    pub fn map<R: Into<Ret>>(
        &mut self,
        domain: Vec<Size>,
        f: impl FnOnce(&mut Ctx<'_>, &[Sym]) -> R,
    ) -> Sym {
        self.with_ctx(|c| c.map(domain, f))
    }

    /// Top-level `fold`; see [`Ctx::fold`].
    #[allow(clippy::too_many_arguments)]
    pub fn fold<R1: Into<Ret>, R2: Into<Ret>>(
        &mut self,
        name: &str,
        domain: Vec<Size>,
        shape: Vec<Size>,
        elem: ScalarType,
        init: Init,
        update: impl FnOnce(&mut Ctx<'_>, &[Sym], Sym) -> R1,
        combine: impl FnOnce(&mut Ctx<'_>, Sym, Sym) -> R2,
    ) -> Sym {
        self.with_ctx(|c| c.fold(name, domain, shape, elem, init, update, combine))
    }

    /// Top-level filter; see [`Ctx::filter`].
    pub fn filter(
        &mut self,
        name: &str,
        domain: Size,
        f: impl FnOnce(&mut Ctx<'_>, Sym) -> (Expr, Expr),
    ) -> Sym {
        self.with_ctx(|c| c.filter(name, domain, f))
    }

    /// Top-level group-by-fold; see [`Ctx::group_by_fold`].
    pub fn group_by_fold(
        &mut self,
        name: &str,
        domain: Size,
        elem: ScalarType,
        init: Init,
        body: impl FnOnce(&mut Ctx<'_>, Sym) -> (Expr, Expr),
        combine: impl Fn(Expr, Expr) -> Expr,
    ) -> Sym {
        self.with_ctx(|c| c.group_by_fold(name, domain, elem, init, body, combine))
    }

    /// Finishes the program with the given outputs.
    ///
    /// # Panics
    ///
    /// Panics if the constructed program fails structural validation —
    /// this indicates a builder-usage bug, not an input-data error.
    pub fn finish(mut self, outputs: Vec<Sym>) -> Program {
        self.block.result = outputs;
        let prog = Program::new(
            self.name,
            self.size_vars,
            self.inputs,
            self.block,
            self.syms,
        );
        if let Err(e) = prog.validate() {
            panic!("builder produced invalid program: {e}");
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::types::DType;

    #[test]
    fn build_simple_map() {
        let mut b = ProgramBuilder::new("double");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.map(vec![d], |c, idx| {
            c.mul(c.f32(2.0), c.read(x, vec![c.var(idx[0])]))
        });
        let prog = b.finish(vec![out]);
        assert_eq!(prog.outputs().len(), 1);
        assert_eq!(prog.size_vars, vec!["d".to_string()]);
        prog.validate().unwrap();
    }

    #[test]
    fn build_scalar_fold() {
        let mut b = ProgramBuilder::new("sum");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            ScalarType::Prim(DType::F32),
            Init::zeros(),
            |c, idx, acc| c.add(c.var(acc), c.read(x, vec![c.var(idx[0])])),
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        let prog = b.finish(vec![out]);
        prog.validate().unwrap();
        assert_eq!(prog.ty(out), &Type::f32());
    }

    #[test]
    fn build_filter() {
        let mut b = ProgramBuilder::new("pos");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.filter("pos", d, |c, i| {
            let v = c.read(x, vec![c.var(i)]);
            (c.lt(c.f32(0.0), v.clone()), v)
        });
        let prog = b.finish(vec![out]);
        prog.validate().unwrap();
        assert!(matches!(prog.ty(out), Type::DynVec { .. }));
    }

    #[test]
    fn build_group_by_fold() {
        let mut b = ProgramBuilder::new("hist");
        let d = b.size("d");
        let x = b.input("x", DType::I32, vec![d.clone()]);
        let out = b.group_by_fold(
            "hist",
            d,
            ScalarType::Prim(DType::I32),
            Init::zero_i32(),
            |c, i| (c.div(c.read(x, vec![c.var(i)]), c.int(10)), c.int(1)),
            |a, b| a.add(b),
        );
        let prog = b.finish(vec![out]);
        prog.validate().unwrap();
        assert!(matches!(prog.ty(out), Type::Dict { .. }));
    }

    #[test]
    fn nested_map_fold_builds() {
        // sumrows: x.map{ row => row.fold(0)(+) } as map over i of fold over j
        let mut b = ProgramBuilder::new("sumrows");
        let m = b.size("m");
        let n = b.size("n");
        let x = b.input("x", DType::F32, vec![m.clone(), n.clone()]);
        let out = b.with_ctx(|c| {
            c.map(vec![m], |c, i| {
                let i = i[0];
                c.fold(
                    "rowsum",
                    vec![n],
                    vec![],
                    ScalarType::Prim(DType::F32),
                    Init::zeros(),
                    |c, j, acc| c.add(c.var(acc), c.read(x, vec![c.var(i), c.var(j[0])])),
                    |c, a, b2| c.add(c.var(a), c.var(b2)),
                )
            })
        });
        let prog = b.finish(vec![out]);
        prog.validate().unwrap();
    }

    #[test]
    fn slice_result_type_drops_points() {
        let ty = Type::tensor(DType::F32, vec![Size::var("n"), Size::var("d")]);
        let r = slice_result_type(&ty, &[SliceDim::Point(Expr::int(0)), SliceDim::Full]);
        assert_eq!(r, Type::tensor(DType::F32, vec![Size::var("d")]));
    }

    #[test]
    #[should_panic(expected = "slice arity mismatch")]
    fn slice_arity_panics() {
        let ty = Type::tensor(DType::F32, vec![Size::var("n")]);
        let _ = slice_result_type(&ty, &[SliceDim::Full, SliceDim::Full]);
    }
}
