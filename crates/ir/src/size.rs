//! Symbolic size expressions.
//!
//! Pattern domains and tensor shapes in PPL are described by [`Size`]
//! expressions over named symbolic dimensions (`n`, `k`, `d`, …) and
//! integer constants. Tiling introduces strided domains such as `n / b0`,
//! which are represented structurally so that later analyses (cost models,
//! hardware sizing) can reason about them and evaluate them once concrete
//! dimension values are known.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A symbolic, non-negative integer size expression.
///
/// Sizes form a small arithmetic language closed under `+`, `-`, `*` and
/// exact division. Division is introduced by strip mining (`d / b`) and is
/// defined only when the divisor evenly divides the dividend; the tiling
/// driver validates divisibility before introducing it (the paper treats
/// ragged edges as a trivial extension via `min` checks and so do we — by
/// requiring the caller to pick dividing tile sizes).
///
/// # Examples
///
/// ```
/// use pphw_ir::size::Size;
/// let n = Size::var("n");
/// let tiles = n.clone() / Size::from(64);
/// let env = Size::env(&[("n", 1024)]);
/// assert_eq!(tiles.eval(&env), Ok(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Size {
    /// Integer constant.
    Const(i64),
    /// Named symbolic dimension.
    Var(String),
    /// Sum of two sizes.
    Add(Box<Size>, Box<Size>),
    /// Difference of two sizes.
    Sub(Box<Size>, Box<Size>),
    /// Product of two sizes.
    Mul(Box<Size>, Box<Size>),
    /// Exact division (strided tile-count domains).
    Div(Box<Size>, Box<Size>),
}

/// Environment assigning concrete values to symbolic dimensions.
pub type SizeEnv = BTreeMap<String, i64>;

/// Error produced when evaluating a [`Size`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizeError {
    /// A symbolic dimension had no binding in the environment.
    Unbound(String),
    /// A division was not exact.
    Indivisible { dividend: i64, divisor: i64 },
    /// Division by zero.
    DivByZero,
    /// Evaluated to a negative value.
    Negative(i64),
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeError::Unbound(v) => write!(f, "unbound size variable `{v}`"),
            SizeError::Indivisible { dividend, divisor } => {
                write!(f, "size division {dividend}/{divisor} is not exact")
            }
            SizeError::DivByZero => write!(f, "size division by zero"),
            SizeError::Negative(v) => write!(f, "size evaluated to negative value {v}"),
        }
    }
}

impl std::error::Error for SizeError {}

impl Size {
    /// Creates a symbolic dimension with the given name.
    pub fn var(name: impl Into<String>) -> Self {
        Size::Var(name.into())
    }

    /// Builds a [`SizeEnv`] from `(name, value)` pairs.
    pub fn env(pairs: &[(&str, i64)]) -> SizeEnv {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// Evaluates the size under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`SizeError`] if a variable is unbound, a division is not
    /// exact, or the result is negative.
    pub fn eval(&self, env: &SizeEnv) -> Result<i64, SizeError> {
        let v = self.eval_inner(env)?;
        if v < 0 {
            return Err(SizeError::Negative(v));
        }
        Ok(v)
    }

    fn eval_inner(&self, env: &SizeEnv) -> Result<i64, SizeError> {
        match self {
            Size::Const(c) => Ok(*c),
            Size::Var(v) => env
                .get(v)
                .copied()
                .ok_or_else(|| SizeError::Unbound(v.clone())),
            Size::Add(a, b) => Ok(a.eval_inner(env)? + b.eval_inner(env)?),
            Size::Sub(a, b) => Ok(a.eval_inner(env)? - b.eval_inner(env)?),
            Size::Mul(a, b) => Ok(a.eval_inner(env)? * b.eval_inner(env)?),
            Size::Div(a, b) => {
                let (a, b) = (a.eval_inner(env)?, b.eval_inner(env)?);
                if b == 0 {
                    return Err(SizeError::DivByZero);
                }
                if a % b != 0 {
                    return Err(SizeError::Indivisible {
                        dividend: a,
                        divisor: b,
                    });
                }
                Ok(a / b)
            }
        }
    }

    /// Returns the constant value if this size is a literal constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.simplified() {
            Size::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Returns `true` if no symbolic variables occur in the size.
    pub fn is_static(&self) -> bool {
        self.all_vars(&|_| false)
    }

    /// `true` when `ok` holds for every symbolic variable in the size
    /// (the allocation-free question [`Size::vars`] is usually asked for).
    pub fn all_vars(&self, ok: &impl Fn(&str) -> bool) -> bool {
        match self {
            Size::Const(_) => true,
            Size::Var(v) => ok(v),
            Size::Add(a, b) | Size::Sub(a, b) | Size::Mul(a, b) | Size::Div(a, b) => {
                a.all_vars(ok) && b.all_vars(ok)
            }
        }
    }

    /// Collects the names of all symbolic variables occurring in the size.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Size::Const(_) => {}
            Size::Var(v) => out.push(v.clone()),
            Size::Add(a, b) | Size::Sub(a, b) | Size::Mul(a, b) | Size::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Returns a structurally simplified copy (constant folding, neutral
    /// element elimination). Simplification is conservative: symbolic terms
    /// are never reordered.
    pub fn simplified(&self) -> Size {
        match self {
            Size::Const(_) | Size::Var(_) => self.clone(),
            Size::Add(a, b) => match (a.simplified(), b.simplified()) {
                (Size::Const(x), Size::Const(y)) => Size::Const(x + y),
                (Size::Const(0), s) | (s, Size::Const(0)) => s,
                (a, b) => Size::Add(Box::new(a), Box::new(b)),
            },
            Size::Sub(a, b) => match (a.simplified(), b.simplified()) {
                (Size::Const(x), Size::Const(y)) => Size::Const(x - y),
                (s, Size::Const(0)) => s,
                (a, b) if a == b => Size::Const(0),
                (a, b) => Size::Sub(Box::new(a), Box::new(b)),
            },
            Size::Mul(a, b) => match (a.simplified(), b.simplified()) {
                (Size::Const(x), Size::Const(y)) => Size::Const(x * y),
                (Size::Const(1), s) | (s, Size::Const(1)) => s,
                (Size::Const(0), _) | (_, Size::Const(0)) => Size::Const(0),
                // (n/b) * b  ==>  n  (tile count times tile size)
                (Size::Div(x, y), b) if *y == b => x.simplified(),
                (b, Size::Div(x, y)) if *y == b => x.simplified(),
                (a, b) => Size::Mul(Box::new(a), Box::new(b)),
            },
            Size::Div(a, b) => match (a.simplified(), b.simplified()) {
                (Size::Const(x), Size::Const(y)) if y != 0 && x % y == 0 => Size::Const(x / y),
                (s, Size::Const(1)) => s,
                (a, b) if a == b => Size::Const(1),
                // (x * b) / b  ==>  x   and   (b * x) / b  ==>  x
                (Size::Mul(x, y), b) if *y == b => x.simplified(),
                (Size::Mul(x, y), b) if *x == b => y.simplified(),
                (a, b) => Size::Div(Box::new(a), Box::new(b)),
            },
        }
    }
}

impl From<i64> for Size {
    fn from(v: i64) -> Self {
        Size::Const(v)
    }
}

impl From<&str> for Size {
    fn from(v: &str) -> Self {
        Size::Var(v.to_string())
    }
}

impl Add for Size {
    type Output = Size;
    fn add(self, rhs: Size) -> Size {
        Size::Add(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Sub for Size {
    type Output = Size;
    fn sub(self, rhs: Size) -> Size {
        Size::Sub(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Mul for Size {
    type Output = Size;
    fn mul(self, rhs: Size) -> Size {
        Size::Mul(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl Div for Size {
    type Output = Size;
    fn div(self, rhs: Size) -> Size {
        Size::Div(Box::new(self), Box::new(rhs)).simplified()
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Size::Const(c) => write!(f, "{c}"),
            Size::Var(v) => write!(f, "{v}"),
            Size::Add(a, b) => write!(f, "({a} + {b})"),
            Size::Sub(a, b) => write!(f, "({a} - {b})"),
            Size::Mul(a, b) => write!(f, "{a}*{b}"),
            Size::Div(a, b) => write!(f, "{a}/{b}"),
        }
    }
}

/// Computes the product of a shape's extents as a single [`Size`].
pub fn shape_elems(shape: &[Size]) -> Size {
    shape.iter().cloned().fold(Size::Const(1), |a, b| a * b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_eval() {
        assert_eq!(Size::from(7).eval(&SizeEnv::new()), Ok(7));
    }

    #[test]
    fn var_eval_and_unbound() {
        let n = Size::var("n");
        assert_eq!(n.eval(&Size::env(&[("n", 12)])), Ok(12));
        assert_eq!(n.eval(&SizeEnv::new()), Err(SizeError::Unbound("n".into())));
    }

    #[test]
    fn arithmetic_eval() {
        let e = (Size::var("n") * Size::from(2) + Size::from(4)) / Size::from(4);
        assert_eq!(e.eval(&Size::env(&[("n", 6)])), Ok(4));
    }

    #[test]
    fn indivisible_errors() {
        let e = Size::var("n") / Size::from(5);
        assert_eq!(
            e.eval(&Size::env(&[("n", 7)])),
            Err(SizeError::Indivisible {
                dividend: 7,
                divisor: 5
            })
        );
    }

    #[test]
    fn div_by_zero_errors() {
        let e = Size::var("n") / Size::from(0);
        assert_eq!(e.eval(&Size::env(&[("n", 7)])), Err(SizeError::DivByZero));
    }

    #[test]
    fn negative_errors() {
        let e = Size::from(3) - Size::from(5);
        assert_eq!(e.eval(&SizeEnv::new()), Err(SizeError::Negative(-2)));
    }

    #[test]
    fn simplify_neutral_elements() {
        let n = Size::var("n");
        assert_eq!(n.clone() * Size::from(1), n);
        assert_eq!(n.clone() + Size::from(0), n);
        assert_eq!(n.clone() - n.clone(), Size::from(0));
        assert_eq!((n.clone() * Size::from(4)) / Size::from(4), n);
        assert_eq!(n.clone() / n.clone(), Size::from(1));
    }

    #[test]
    fn simplify_is_stable_on_symbolic() {
        let e = Size::var("n") / Size::var("b0");
        assert_eq!(e.simplified(), e);
    }

    #[test]
    fn vars_collects_unique_sorted() {
        let e = (Size::var("n") / Size::var("b")) + Size::var("b") + Size::var("n");
        assert_eq!(e.vars(), vec!["b".to_string(), "n".to_string()]);
    }

    #[test]
    fn tile_count_times_tile_cancels() {
        let e = (Size::var("n") / Size::var("b")) * Size::var("b");
        assert_eq!(e.simplified(), Size::var("n"));
    }

    #[test]
    fn is_static() {
        assert!((Size::from(6) / Size::from(2)).is_static());
        assert!(!(Size::var("n") / Size::from(2)).is_static());
    }

    #[test]
    fn shape_elems_product() {
        let s = shape_elems(&[Size::var("k"), Size::var("d")]);
        assert_eq!(s.eval(&Size::env(&[("k", 4), ("d", 8)])), Ok(32));
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Size::var("n") / Size::var("b0");
        assert_eq!(e.to_string(), "n/b0");
    }
}
