//! Structural (alpha-) equivalence of programs.
//!
//! Two programs are structurally equal when they differ at most in symbol
//! *ids* and display names: same patterns, same expression trees, same
//! types, same sizes (up to [`Size::simplified`]), with a consistent
//! bijection between their symbols built in traversal order. This is the
//! equality the textual frontend is tested against — a parsed `.ppl`
//! benchmark mints fresh symbols in its own order, so `PartialEq` on
//! [`Program`] bodies would spuriously fail.
//!
//! Floats are compared by bit pattern, so `f32::MAX` survives a
//! print/parse round trip and `-0.0 != 0.0`.

use std::collections::BTreeMap;

use crate::block::{Block, GuardedItem, Op, SliceDim};
use crate::expr::{Expr, Lit};
use crate::pattern::{AccDef, AccUpdate, GbfBody, Lambda, Pattern, Seg};
use crate::program::Program;
use crate::size::Size;
use crate::types::{Sym, SymTable, Type};

/// Returns `true` when `a` and `b` are structurally equal (see module docs).
#[must_use]
pub fn structural_eq(a: &Program, b: &Program) -> bool {
    structural_diff(a, b).is_none()
}

/// Returns `None` when the programs are structurally equal, or a
/// human-readable description of the first difference found.
#[must_use]
pub fn structural_diff(a: &Program, b: &Program) -> Option<String> {
    let mut m = Matcher {
        a: &a.syms,
        b: &b.syms,
        a2b: BTreeMap::new(),
        b2a: BTreeMap::new(),
    };
    m.program(a, b).err()
}

type Res = Result<(), String>;

fn sizes_eq(a: &[Size], b: &[Size]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.simplified() == y.simplified())
}

fn size_eq(a: &Size, b: &Size) -> bool {
    a.simplified() == b.simplified()
}

fn ty_eq(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::Scalar(x), Type::Scalar(y)) => x == y,
        (
            Type::Tensor {
                elem: ea,
                shape: sa,
            },
            Type::Tensor {
                elem: eb,
                shape: sb,
            },
        ) => ea == eb && sizes_eq(sa, sb),
        (Type::DynVec { elem: ea }, Type::DynVec { elem: eb }) => ea == eb,
        (Type::Dict { key: ka, value: va }, Type::Dict { key: kb, value: vb }) => {
            ka == kb && ty_eq(va, vb)
        }
        _ => false,
    }
}

fn lit_eq(a: &Lit, b: &Lit) -> bool {
    match (a, b) {
        (Lit::F32(x), Lit::F32(y)) => x.to_bits() == y.to_bits(),
        (Lit::I32(x), Lit::I32(y)) => x == y,
        (Lit::Bool(x), Lit::Bool(y)) => x == y,
        _ => false,
    }
}

/// The location of a pattern's sub-scope `seg` below the pattern at `at`.
fn sub(at: &str, seg: Seg) -> String {
    format!("{at}/{seg}")
}

struct Matcher<'a> {
    a: &'a SymTable,
    b: &'a SymTable,
    a2b: BTreeMap<Sym, Sym>,
    b2a: BTreeMap<Sym, Sym>,
}

impl Matcher<'_> {
    fn program(&mut self, a: &Program, b: &Program) -> Res {
        if a.name != b.name {
            return Err(format!("program name: `{}` vs `{}`", a.name, b.name));
        }
        if a.size_vars != b.size_vars {
            return Err(format!("size vars: {:?} vs {:?}", a.size_vars, b.size_vars));
        }
        if a.inputs.len() != b.inputs.len() {
            return Err(format!(
                "input count: {} vs {}",
                a.inputs.len(),
                b.inputs.len()
            ));
        }
        for (i, (&x, &y)) in a.inputs.iter().zip(&b.inputs).enumerate() {
            self.bind(x, y, &format!("input #{i}"))?;
        }
        self.block(&a.body, &b.body, "body")
    }

    /// Records that `x` corresponds to `y`, checking type equality and
    /// bijection consistency.
    fn bind(&mut self, x: Sym, y: Sym, at: &str) -> Res {
        if !ty_eq(self.a.ty(x), self.b.ty(y)) {
            return Err(format!(
                "{at}: type of {} is {} but {} is {}",
                self.a.name(x),
                self.a.ty(x),
                self.b.name(y),
                self.b.ty(y)
            ));
        }
        if let Some(prev) = self.a2b.insert(x, y) {
            if prev != y {
                return Err(format!("{at}: symbol {} bound twice", self.a.name(x)));
            }
        }
        if let Some(prev) = self.b2a.insert(y, x) {
            if prev != x {
                return Err(format!("{at}: symbol {} bound twice", self.b.name(y)));
            }
        }
        Ok(())
    }

    /// Checks that a *use* of `x` corresponds to a use of `y`.
    fn use_eq(&self, x: Sym, y: Sym, at: &str) -> Res {
        if self.a2b.get(&x) == Some(&y) {
            Ok(())
        } else {
            Err(format!(
                "{at}: `{}` does not correspond to `{}`",
                self.a.name(x),
                self.b.name(y)
            ))
        }
    }

    fn block(&mut self, a: &Block, b: &Block, at: &str) -> Res {
        if a.stmts.len() != b.stmts.len() {
            return Err(format!(
                "{at}: {} statements vs {}",
                a.stmts.len(),
                b.stmts.len()
            ));
        }
        for (i, (sa, sb)) in a.stmts.iter().zip(&b.stmts).enumerate() {
            let here = format!("{at}/stmt[{i}]");
            self.op(&sa.op, &sb.op, &here)?;
            if sa.syms.len() != sb.syms.len() {
                return Err(format!(
                    "{here}: binds {} symbols vs {}",
                    sa.syms.len(),
                    sb.syms.len()
                ));
            }
            for (&x, &y) in sa.syms.iter().zip(&sb.syms) {
                self.bind(x, y, &here)?;
            }
        }
        if a.result.len() != b.result.len() {
            return Err(format!(
                "{at}: {} results vs {}",
                a.result.len(),
                b.result.len()
            ));
        }
        for (&x, &y) in a.result.iter().zip(&b.result) {
            self.use_eq(x, y, &format!("{at}/result"))?;
        }
        Ok(())
    }

    fn op(&mut self, a: &Op, b: &Op, at: &str) -> Res {
        match (a, b) {
            (Op::Expr(x), Op::Expr(y)) => self.expr(x, y, at),
            (Op::Slice(x), Op::Slice(y)) => {
                self.use_eq(x.tensor, y.tensor, at)?;
                self.dims(&x.dims, &y.dims, at)
            }
            (Op::Copy(x), Op::Copy(y)) => {
                self.use_eq(x.tensor, y.tensor, at)?;
                if x.reuse != y.reuse {
                    return Err(format!("{at}: reuse {} vs {}", x.reuse, y.reuse));
                }
                self.dims(&x.dims, &y.dims, at)
            }
            (Op::VarVec(xs), Op::VarVec(ys)) => {
                if xs.len() != ys.len() {
                    return Err(format!("{at}: {} items vs {}", xs.len(), ys.len()));
                }
                for (x, y) in xs.iter().zip(ys) {
                    self.guarded(x, y, at)?;
                }
                Ok(())
            }
            (Op::Pattern(x), Op::Pattern(y)) => self.pattern(x, y, at),
            _ => Err(format!("{at}: different statement kinds")),
        }
    }

    fn guarded(&mut self, a: &GuardedItem, b: &GuardedItem, at: &str) -> Res {
        match (&a.guard, &b.guard) {
            (Some(x), Some(y)) => self.expr(x, y, at)?,
            (None, None) => {}
            _ => return Err(format!("{at}: guard present on one side only")),
        }
        self.expr(&a.value, &b.value, at)
    }

    fn dims(&mut self, a: &[SliceDim], b: &[SliceDim], at: &str) -> Res {
        if a.len() != b.len() {
            return Err(format!("{at}: {} dims vs {}", a.len(), b.len()));
        }
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (SliceDim::Full, SliceDim::Full) => {}
                (SliceDim::Point(ex), SliceDim::Point(ey)) => self.expr(ex, ey, at)?,
                (
                    SliceDim::Window { start: sx, len: lx },
                    SliceDim::Window { start: sy, len: ly },
                ) => {
                    self.expr(sx, sy, at)?;
                    if !size_eq(lx, ly) {
                        return Err(format!("{at}: window length {lx} vs {ly}"));
                    }
                }
                _ => return Err(format!("{at}: different slice dimension kinds")),
            }
        }
        Ok(())
    }

    fn expr(&self, a: &Expr, b: &Expr, at: &str) -> Res {
        match (a, b) {
            (Expr::Lit(x), Expr::Lit(y)) => {
                if lit_eq(x, y) {
                    Ok(())
                } else {
                    Err(format!("{at}: literal {x} vs {y}"))
                }
            }
            (Expr::Var(x), Expr::Var(y)) => self.use_eq(*x, *y, at),
            (Expr::SizeOf(x), Expr::SizeOf(y)) => {
                if size_eq(x, y) {
                    Ok(())
                } else {
                    Err(format!("{at}: size {x} vs {y}"))
                }
            }
            (Expr::Un(opx, x), Expr::Un(opy, y)) => {
                if opx != opy {
                    return Err(format!("{at}: unary {opx:?} vs {opy:?}"));
                }
                self.expr(x, y, at)
            }
            (Expr::Bin(opx, xa, xb), Expr::Bin(opy, ya, yb)) => {
                if opx != opy {
                    return Err(format!("{at}: binary {opx:?} vs {opy:?}"));
                }
                self.expr(xa, ya, at)?;
                self.expr(xb, yb, at)
            }
            (
                Expr::Select {
                    cond: cx,
                    if_true: tx,
                    if_false: fx,
                },
                Expr::Select {
                    cond: cy,
                    if_true: ty,
                    if_false: fy,
                },
            ) => {
                self.expr(cx, cy, at)?;
                self.expr(tx, ty, at)?;
                self.expr(fx, fy, at)
            }
            (Expr::Tuple(xs), Expr::Tuple(ys)) => {
                if xs.len() != ys.len() {
                    return Err(format!("{at}: tuple arity {} vs {}", xs.len(), ys.len()));
                }
                for (x, y) in xs.iter().zip(ys) {
                    self.expr(x, y, at)?;
                }
                Ok(())
            }
            (Expr::Field(x, i), Expr::Field(y, j)) => {
                if i != j {
                    return Err(format!("{at}: field {i} vs {j}"));
                }
                self.expr(x, y, at)
            }
            (
                Expr::Read {
                    tensor: tx,
                    index: ix,
                },
                Expr::Read {
                    tensor: ty,
                    index: iy,
                },
            ) => {
                self.use_eq(*tx, *ty, at)?;
                if ix.len() != iy.len() {
                    return Err(format!("{at}: read arity {} vs {}", ix.len(), iy.len()));
                }
                for (x, y) in ix.iter().zip(iy) {
                    self.expr(x, y, at)?;
                }
                Ok(())
            }
            _ => Err(format!("{at}: different expression kinds")),
        }
    }

    fn acc_def(&mut self, a: &AccDef, b: &AccDef, at: &str) -> Res {
        if a.name != b.name {
            return Err(format!("{at}: accumulator `{}` vs `{}`", a.name, b.name));
        }
        if !sizes_eq(&a.shape, &b.shape) {
            return Err(format!("{at}: accumulator `{}` shape differs", a.name));
        }
        if a.elem != b.elem {
            return Err(format!(
                "{at}: accumulator `{}` element {} vs {}",
                a.name, a.elem, b.elem
            ));
        }
        if a.init.splat.len() != b.init.splat.len()
            || !a
                .init
                .splat
                .iter()
                .zip(&b.init.splat)
                .all(|(x, y)| lit_eq(x, y))
        {
            return Err(format!("{at}: accumulator `{}` init differs", a.name));
        }
        Ok(())
    }

    /// Checks an update clause; locations are compared *before* binding the
    /// accumulator parameter, mirroring its scope.
    fn update(&mut self, a: &AccUpdate, b: &AccUpdate, at: &str) -> Res {
        if a.loc.len() != b.loc.len() {
            return Err(format!(
                "{at}: loc arity {} vs {}",
                a.loc.len(),
                b.loc.len()
            ));
        }
        for (x, y) in a.loc.iter().zip(&b.loc) {
            self.expr(x, y, at)?;
        }
        if !sizes_eq(&a.shape, &b.shape) {
            return Err(format!("{at}: update region shape differs"));
        }
        self.bind(a.acc_param, b.acc_param, at)?;
        self.block(&a.body, &b.body, at)
    }

    fn lambda(&mut self, a: &Lambda, b: &Lambda, at: &str) -> Res {
        if a.params.len() != b.params.len() {
            return Err(format!(
                "{at}: {} params vs {}",
                a.params.len(),
                b.params.len()
            ));
        }
        for (&x, &y) in a.params.iter().zip(&b.params) {
            self.bind(x, y, at)?;
        }
        self.block(&a.body, &b.body, at)
    }

    fn pattern(&mut self, a: &Pattern, b: &Pattern, at: &str) -> Res {
        match (a, b) {
            (Pattern::Map(x), Pattern::Map(y)) => {
                if !sizes_eq(&x.domain, &y.domain) {
                    return Err(format!("{at}: map domain differs"));
                }
                self.lambda(&x.body, &y.body, &sub(at, Seg::Body))
            }
            (Pattern::MultiFold(x), Pattern::MultiFold(y)) => {
                if !sizes_eq(&x.domain, &y.domain) {
                    return Err(format!("{at}: multiFold domain differs"));
                }
                if x.accs.len() != y.accs.len() {
                    return Err(format!(
                        "{at}: {} accumulators vs {}",
                        x.accs.len(),
                        y.accs.len()
                    ));
                }
                for (ax, ay) in x.accs.iter().zip(&y.accs) {
                    self.acc_def(ax, ay, at)?;
                }
                if x.idx.len() != y.idx.len() {
                    return Err(format!("{at}: index arity differs"));
                }
                for (&ix, &iy) in x.idx.iter().zip(&y.idx) {
                    self.bind(ix, iy, at)?;
                }
                self.block(&x.pre, &y.pre, &sub(at, Seg::Pre))?;
                if x.updates.len() != y.updates.len() {
                    return Err(format!("{at}: update count differs"));
                }
                for (k, (ux, uy)) in x.updates.iter().zip(&y.updates).enumerate() {
                    self.update(ux, uy, &sub(at, Seg::Update(Some(k))))?;
                }
                if x.combines.len() != y.combines.len() {
                    return Err(format!("{at}: combine count differs"));
                }
                for (k, (cx, cy)) in x.combines.iter().zip(&y.combines).enumerate() {
                    match (cx, cy) {
                        (Some(lx), Some(ly)) => {
                            self.lambda(lx, ly, &sub(at, Seg::Combine(Some(k))))?;
                        }
                        (None, None) => {}
                        _ => {
                            let at = sub(at, Seg::Combine(Some(k)));
                            return Err(format!("{at}: `_` on one side only"));
                        }
                    }
                }
                Ok(())
            }
            (Pattern::FlatMap(x), Pattern::FlatMap(y)) => {
                if !size_eq(&x.domain, &y.domain) {
                    return Err(format!("{at}: flatMap domain differs"));
                }
                self.lambda(&x.body, &y.body, &sub(at, Seg::Body))
            }
            (Pattern::GroupByFold(x), Pattern::GroupByFold(y)) => {
                if !size_eq(&x.domain, &y.domain) {
                    return Err(format!("{at}: groupByFold domain differs"));
                }
                self.acc_def(&x.acc, &y.acc, at)?;
                self.bind(x.idx, y.idx, at)?;
                self.block(&x.pre, &y.pre, &sub(at, Seg::Pre))?;
                match (&x.body, &y.body) {
                    (
                        GbfBody::Element {
                            key: kx,
                            update: ux,
                        },
                        GbfBody::Element {
                            key: ky,
                            update: uy,
                        },
                    ) => {
                        self.expr(kx, ky, &sub(at, Seg::Key))?;
                        self.update(ux, uy, &sub(at, Seg::Update(None)))?;
                    }
                    (GbfBody::Merge { dict: dx }, GbfBody::Merge { dict: dy }) => {
                        self.use_eq(*dx, *dy, &sub(at, Seg::Merge))?;
                    }
                    _ => return Err(format!("{at}: element body vs merge body")),
                }
                self.lambda(&x.combine, &y.combine, &sub(at, Seg::Combine(None)))
            }
            _ => Err(format!("{at}: pattern {} vs {}", a.kind(), b.kind())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::pattern::Init;
    use crate::types::{DType, ScalarType};

    fn sum_program(name: &str, lit: f32) -> Program {
        let mut b = ProgramBuilder::new(name);
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            ScalarType::Prim(DType::F32),
            Init::zeros(),
            |c, i, acc| {
                let scaled = c.mul(c.f32(lit), c.read(x, vec![c.var(i[0])]));
                c.add(c.var(acc), scaled)
            },
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        b.finish(vec![out])
    }

    #[test]
    fn identical_programs_are_equal() {
        let a = sum_program("sum", 2.0);
        let b = sum_program("sum", 2.0);
        assert_eq!(structural_diff(&a, &b), None);
        assert!(structural_eq(&a, &b));
    }

    #[test]
    fn sym_ids_do_not_matter() {
        // Mint a few throwaway symbols first so every id shifts.
        let a = sum_program("sum", 2.0);
        let mut b = ProgramBuilder::new("sum");
        let _ = b.size("d");
        b.with_ctx(|c| {
            let _ = c.syms().fresh("pad0", Type::f32());
            let _ = c.syms().fresh("pad1", Type::i32());
        });
        let d = Size::var("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            ScalarType::Prim(DType::F32),
            Init::zeros(),
            |c, i, acc| {
                let scaled = c.mul(c.f32(2.0), c.read(x, vec![c.var(i[0])]));
                c.add(c.var(acc), scaled)
            },
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        let b = b.finish(vec![out]);
        assert!(structural_eq(&a, &b));
    }

    #[test]
    fn literal_difference_is_reported() {
        let a = sum_program("sum", 2.0);
        let b = sum_program("sum", 3.0);
        let diff = structural_diff(&a, &b).unwrap_or_default();
        assert!(diff.contains("literal"), "got: {diff}");
    }

    #[test]
    fn name_difference_is_reported() {
        let a = sum_program("sum", 2.0);
        let b = sum_program("sum2", 2.0);
        assert!(!structural_eq(&a, &b));
    }

    #[test]
    fn float_bits_distinguish_negative_zero() {
        let mk = |v: f32| {
            let mut b = ProgramBuilder::new("z");
            let d = b.size("d");
            let x = b.input("x", DType::F32, vec![d.clone()]);
            let out = b.map(vec![d], |c, idx| {
                c.add(c.f32(v), c.read(x, vec![c.var(idx[0])]))
            });
            b.finish(vec![out])
        };
        assert!(structural_eq(&mk(0.0), &mk(0.0)));
        assert!(!structural_eq(&mk(0.0), &mk(-0.0)));
    }

    #[test]
    fn sizes_compare_simplified() {
        let mk = |d: Size| {
            let mut b = ProgramBuilder::new("m");
            let _ = b.size("d");
            let x = b.input("x", DType::F32, vec![d.clone()]);
            let out = b.map(vec![d], |c, idx| c.read(x, vec![c.var(idx[0])]));
            b.finish(vec![out])
        };
        let plain = mk(Size::var("d"));
        let padded = mk(Size::Add(
            Box::new(Size::var("d")),
            Box::new(Size::Const(0)),
        ));
        assert!(structural_eq(&plain, &padded));
    }
}
