//! IR well-formedness verifier: the deep walk of [`pphw_ir::check`]
//! (def-before-use, binding discipline, arity, expression typing, access
//! rank, accumulator update/initializer shapes — every finding collected,
//! each at its [`IrPath`](pphw_ir::path::IrPath)), reported under the
//! stable `PPHW001`–`PPHW008` codes.

use pphw_ir::check::{check_deep, ValidateError};
use pphw_ir::program::Program;

use crate::{DiagCode, Severity, VerifyReport};

/// Checks the whole program, appending findings to `report`.
pub fn check_program(prog: &Program, report: &mut VerifyReport) {
    for f in check_deep(prog) {
        let code = match f.kind {
            ValidateError::UnboundSym => DiagCode::UnboundSym,
            ValidateError::Rebound => DiagCode::Rebound,
            ValidateError::OutputArity => DiagCode::OutputArity,
            ValidateError::BadDomain => DiagCode::BadDomain,
            ValidateError::UnknownSizeVar => DiagCode::UnknownSizeVar,
            ValidateError::IllTyped => DiagCode::IllTypedExpr,
            ValidateError::DimArity | ValidateError::ReadRank => DiagCode::RankMismatch,
            ValidateError::UpdateShape => DiagCode::UpdateShapeMismatch,
        };
        report.push(code, Severity::Error, f.path, f.message);
    }
}
