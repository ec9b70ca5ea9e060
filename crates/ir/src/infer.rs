//! Scalar type inference for expressions.

use std::fmt;

use crate::expr::{BinOp, Expr, Lit, UnOp};
use crate::types::{DType, ScalarType, SymTable, Type};

/// Errors produced during expression type inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A variable referenced a non-scalar symbol in scalar position.
    NotScalar(String),
    /// Tuple field projection on a non-tuple or out of range.
    BadField { ty: ScalarType, index: usize },
    /// A read indexed a non-tensor symbol.
    NotTensor(String),
    /// Operand types disagree where they must match.
    Mismatch { left: ScalarType, right: ScalarType },
    /// Tuple expressions may only contain primitive fields.
    NestedTuple,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::NotScalar(s) => write!(f, "symbol {s} is not scalar-typed"),
            TypeError::BadField { ty, index } => {
                write!(f, "field {index} projection on scalar of type {ty}")
            }
            TypeError::NotTensor(s) => write!(f, "symbol {s} is not a tensor"),
            TypeError::Mismatch { left, right } => {
                write!(f, "operand type mismatch: {left} vs {right}")
            }
            TypeError::NestedTuple => write!(f, "tuple expressions must have primitive fields"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Infers the scalar type of `expr` under the symbol table.
///
/// # Errors
///
/// Returns a [`TypeError`] if the expression is ill-typed (non-scalar
/// variable in scalar position, bad tuple projection, and so on).
pub fn infer_scalar_type(expr: &Expr, syms: &SymTable) -> Result<ScalarType, TypeError> {
    match expr {
        Expr::Lit(Lit::F32(_)) => Ok(ScalarType::Prim(DType::F32)),
        Expr::Lit(Lit::I32(_)) => Ok(ScalarType::Prim(DType::I32)),
        Expr::Lit(Lit::Bool(_)) => Ok(ScalarType::Prim(DType::Bool)),
        Expr::SizeOf(_) => Ok(ScalarType::Prim(DType::I32)),
        Expr::Var(s) => match syms.ty(*s) {
            Type::Scalar(t) => Ok(t.clone()),
            other => Err(TypeError::NotScalar(format!("{s} : {other}"))),
        },
        Expr::Un(op, a) => {
            let at = infer_scalar_type(a, syms)?;
            Ok(match op {
                UnOp::Not => ScalarType::Prim(DType::Bool),
                UnOp::ToF32 => ScalarType::Prim(DType::F32),
                UnOp::ToI32 => ScalarType::Prim(DType::I32),
                UnOp::Neg | UnOp::Sqrt | UnOp::Ln | UnOp::Exp | UnOp::Abs | UnOp::Square => at,
            })
        }
        Expr::Bin(op, a, b) => {
            let at = infer_scalar_type(a, syms)?;
            let bt = infer_scalar_type(b, syms)?;
            if op.is_comparison() {
                return Ok(ScalarType::Prim(DType::Bool));
            }
            match op {
                BinOp::And | BinOp::Or => Ok(ScalarType::Prim(DType::Bool)),
                _ => {
                    if at != bt {
                        // Integer/float mixing is permitted where one side is
                        // an index expression scaled into float math; the
                        // result takes the float side.
                        let f32t = ScalarType::Prim(DType::F32);
                        if at == f32t || bt == f32t {
                            return Ok(f32t);
                        }
                        return Err(TypeError::Mismatch {
                            left: at,
                            right: bt,
                        });
                    }
                    Ok(at)
                }
            }
        }
        Expr::Select {
            if_true, if_false, ..
        } => {
            let t = infer_scalar_type(if_true, syms)?;
            let f = infer_scalar_type(if_false, syms)?;
            if t != f {
                return Err(TypeError::Mismatch { left: t, right: f });
            }
            Ok(t)
        }
        Expr::Tuple(es) => {
            let mut fields = Vec::with_capacity(es.len());
            for e in es {
                match infer_scalar_type(e, syms)? {
                    ScalarType::Prim(d) => fields.push(d),
                    ScalarType::Tuple(_) => return Err(TypeError::NestedTuple),
                }
            }
            Ok(ScalarType::Tuple(fields))
        }
        Expr::Field(a, i) => {
            let at = infer_scalar_type(a, syms)?;
            match &at {
                ScalarType::Tuple(fs) if *i < fs.len() => Ok(ScalarType::Prim(fs[*i])),
                _ => Err(TypeError::BadField { ty: at, index: *i }),
            }
        }
        Expr::Read { tensor, .. } => match syms.ty(*tensor) {
            Type::Tensor { elem, .. } => Ok(elem.clone()),
            Type::DynVec { elem } => Ok(elem.clone()),
            other => Err(TypeError::NotTensor(format!("{tensor} : {other}"))),
        },
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::size::Size;
    use crate::types::Type;

    #[test]
    fn literals_and_arith() {
        let syms = SymTable::new();
        let e = Expr::f32(1.0).add(Expr::f32(2.0));
        assert_eq!(
            infer_scalar_type(&e, &syms),
            Ok(ScalarType::Prim(DType::F32))
        );
    }

    #[test]
    fn comparison_is_bool() {
        let syms = SymTable::new();
        let e = Expr::int(1).lt(Expr::int(2));
        assert_eq!(
            infer_scalar_type(&e, &syms),
            Ok(ScalarType::Prim(DType::Bool))
        );
    }

    #[test]
    fn mixed_int_float_promotes() {
        let syms = SymTable::new();
        let e = Expr::int(1).mul(Expr::f32(2.0));
        assert_eq!(
            infer_scalar_type(&e, &syms),
            Ok(ScalarType::Prim(DType::F32))
        );
    }

    #[test]
    fn tuple_and_field() {
        let syms = SymTable::new();
        let e = Expr::Tuple(vec![Expr::f32(0.0), Expr::int(1)]);
        assert_eq!(
            infer_scalar_type(&e, &syms),
            Ok(ScalarType::Tuple(vec![DType::F32, DType::I32]))
        );
        let f = e.field(1);
        assert_eq!(
            infer_scalar_type(&f, &syms),
            Ok(ScalarType::Prim(DType::I32))
        );
    }

    #[test]
    fn read_elem_type() {
        let mut syms = SymTable::new();
        let x = syms.fresh("x", Type::tensor(DType::F32, vec![Size::var("n")]));
        let e = Expr::read(x, vec![Expr::int(0)]);
        assert_eq!(
            infer_scalar_type(&e, &syms),
            Ok(ScalarType::Prim(DType::F32))
        );
    }

    #[test]
    fn read_non_tensor_errors() {
        let mut syms = SymTable::new();
        let x = syms.fresh("x", Type::f32());
        let e = Expr::read(x, vec![Expr::int(0)]);
        assert!(infer_scalar_type(&e, &syms).is_err());
    }

    #[test]
    fn select_mismatch_errors() {
        let syms = SymTable::new();
        let e = Expr::select(
            Expr::Lit(Lit::Bool(true)),
            Expr::int(1),
            Expr::Lit(Lit::Bool(false)),
        );
        assert!(infer_scalar_type(&e, &syms).is_err());
    }
}
