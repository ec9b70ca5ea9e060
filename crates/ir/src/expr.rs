//! Scalar expression language.
//!
//! Pattern bodies compute scalar values (possibly flat tuples) from the
//! pattern indices, elements read out of tensors, and ordinary arithmetic.
//! Expressions are pure trees; tensor-producing computation lives in
//! [`Op`](crate::block::Op) statements instead.

use std::fmt;

use crate::size::Size;
use crate::types::Sym;

/// Literal scalar constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lit {
    /// Float literal.
    F32(f32),
    /// Integer literal.
    I32(i64),
    /// Boolean literal.
    Bool(bool),
}

/// Re-parseable spelling: floats use the shortest round-trip form (always
/// with `.` or an exponent), non-finite values the `inf` / `-inf` / `nan`
/// keywords.
impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::F32(v) => {
                if v.is_nan() {
                    write!(f, "nan")
                } else if *v == f32::INFINITY {
                    write!(f, "inf")
                } else if *v == f32::NEG_INFINITY {
                    write!(f, "-inf")
                } else {
                    write!(f, "{v:?}")
                }
            }
            Lit::I32(v) => write!(f, "{v}"),
            Lit::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float division or exact integer division).
    Div,
    /// Integer remainder.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Equality comparison.
    Eq,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// Returns `true` for comparison operators (result type `Bool`).
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Eq)
    }

    /// Infix symbol, as the printer writes it and the parser reads it.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "==",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Square root.
    Sqrt,
    /// Natural logarithm.
    Ln,
    /// Exponential.
    Exp,
    /// Absolute value.
    Abs,
    /// Square (x*x) — common enough in distance computations to be a unit.
    Square,
    /// Convert integer to float.
    ToF32,
    /// Convert float to integer (truncation).
    ToI32,
}

/// A pure scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Lit(Lit),
    /// Reference to a bound scalar symbol (pattern index, accumulator
    /// parameter, or a scalar let-binding).
    Var(Sym),
    /// A symbolic size used as an integer value (e.g. dividing by a count).
    SizeOf(Size),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional selection: `if cond { t } else { f }`.
    Select {
        /// Condition (Bool).
        cond: Box<Expr>,
        /// Value when true.
        if_true: Box<Expr>,
        /// Value when false.
        if_false: Box<Expr>,
    },
    /// Flat tuple construction.
    Tuple(Vec<Expr>),
    /// Tuple field projection (`x._1` is `Field(x, 0)`).
    Field(Box<Expr>, usize),
    /// Element read from a tensor: `array(i, j, …)`.
    Read {
        /// The tensor being read.
        tensor: Sym,
        /// One index expression per dimension.
        index: Vec<Expr>,
    },
}

#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Lit::I32(v))
    }

    /// Float literal shorthand.
    pub fn f32(v: f32) -> Expr {
        Expr::Lit(Lit::F32(v))
    }

    /// Variable reference shorthand.
    pub fn var(s: Sym) -> Expr {
        Expr::Var(s)
    }

    /// `a + b`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `a - b`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `a * b`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `a / b`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `a < b`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// Tuple projection.
    pub fn field(self, i: usize) -> Expr {
        Expr::Field(Box::new(self), i)
    }

    /// Element read shorthand.
    pub fn read(tensor: Sym, index: Vec<Expr>) -> Expr {
        Expr::Read { tensor, index }
    }

    /// Conditional selection shorthand.
    pub fn select(cond: Expr, if_true: Expr, if_false: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            if_true: Box::new(if_true),
            if_false: Box::new(if_false),
        }
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) => {}
            Expr::Un(_, a) => a.visit(f),
            Expr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                cond.visit(f);
                if_true.visit(f);
                if_false.visit(f);
            }
            Expr::Tuple(es) => {
                for e in es {
                    e.visit(f);
                }
            }
            Expr::Field(a, _) => a.visit(f),
            Expr::Read { index, .. } => {
                for e in index {
                    e.visit(f);
                }
            }
        }
    }

    /// Rebuilds the expression, applying `f` bottom-up to every node.
    pub fn map(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::SizeOf(_) => self.clone(),
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.map(f))),
            Expr::Bin(op, a, b) => Expr::Bin(*op, Box::new(a.map(f)), Box::new(b.map(f))),
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => Expr::Select {
                cond: Box::new(cond.map(f)),
                if_true: Box::new(if_true.map(f)),
                if_false: Box::new(if_false.map(f)),
            },
            Expr::Tuple(es) => Expr::Tuple(es.iter().map(|e| e.map(f)).collect()),
            Expr::Field(a, i) => Expr::Field(Box::new(a.map(f)), *i),
            Expr::Read { tensor, index } => Expr::Read {
                tensor: *tensor,
                index: index.iter().map(|e| e.map(f)).collect(),
            },
        };
        f(rebuilt)
    }

    /// Collects all symbols referenced by the expression (variables and
    /// tensors read).
    pub fn syms(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            Expr::Var(s) => out.push(*s),
            Expr::Read { tensor, .. } => out.push(*tensor),
            _ => {}
        });
        out.sort();
        out.dedup();
        out
    }

    /// Substitutes variable references according to `subst`.
    pub fn subst_vars(&self, subst: &impl Fn(Sym) -> Option<Expr>) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(s) => subst(s).unwrap_or(Expr::Var(s)),
            other => other,
        })
    }

    /// Renames every symbol occurrence (both `Var` and `Read` tensors).
    pub fn rename_syms(&self, rename: &impl Fn(Sym) -> Sym) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(s) => Expr::Var(rename(s)),
            Expr::Read { tensor, index } => Expr::Read {
                tensor: rename(tensor),
                index,
            },
            other => other,
        })
    }

    /// Counts floating-point operations in the expression tree (used by the
    /// hardware area/timing model).
    pub fn flop_count(&self) -> u32 {
        let mut n = 0;
        self.visit(&mut |e| match e {
            Expr::Bin(op, _, _) if !op.is_comparison() => n += 1,
            Expr::Bin(_, _, _) => n += 1,
            Expr::Un(_, _) => n += 1,
            _ => {}
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn builders_compose() {
        let e = Expr::var(s(0)).add(Expr::int(1)).mul(Expr::var(s(1)));
        assert_eq!(e.syms(), vec![s(0), s(1)]);
    }

    #[test]
    fn read_collects_tensor_sym() {
        let e = Expr::read(s(5), vec![Expr::var(s(1))]);
        assert_eq!(e.syms(), vec![s(1), s(5)]);
    }

    #[test]
    fn subst_vars_replaces() {
        let e = Expr::var(s(0)).add(Expr::var(s(1)));
        let r = e.subst_vars(&|sym| (sym == s(0)).then(|| Expr::int(7)));
        assert_eq!(r, Expr::int(7).add(Expr::var(s(1))));
    }

    #[test]
    fn rename_syms_hits_reads() {
        let e = Expr::read(s(2), vec![Expr::var(s(0))]);
        let r = e.rename_syms(&|sym| if sym == s(2) { s(9) } else { sym });
        assert_eq!(r, Expr::read(s(9), vec![Expr::var(s(0))]));
    }

    #[test]
    fn map_is_bottom_up() {
        // Replace every literal 1 with 2, then confirm addition sees both.
        let e = Expr::int(1).add(Expr::int(1));
        let r = e.map(&mut |e| {
            if e == Expr::int(1) {
                Expr::int(2)
            } else {
                e
            }
        });
        assert_eq!(r, Expr::int(2).add(Expr::int(2)));
    }

    #[test]
    fn flop_count_counts_arith() {
        let e = Expr::Un(UnOp::Square, Box::new(Expr::var(s(0)).sub(Expr::var(s(1)))));
        // Sub + Square
        assert_eq!(e.flop_count(), 2);
    }

    #[test]
    fn select_visit_covers_all_branches() {
        let e = Expr::select(Expr::var(s(0)), Expr::var(s(1)), Expr::var(s(2)));
        assert_eq!(e.syms(), vec![s(0), s(1), s(2)]);
    }
}
