//! # pphw-ir — the parallel pattern language (PPL)
//!
//! The intermediate representation from *Generating Configurable Hardware
//! from Parallel Patterns*: four parallel patterns (`Map`, `MultiFold`,
//! `FlatMap`, `GroupByFold`) over multidimensional arrays, a scalar
//! expression language, symbolic sizes, slices and explicit tile copies,
//! plus a reference interpreter and the analyses (access patterns, shapes,
//! uses) that the tiling and hardware-generation passes build on.
//!
//! Programs are written as PPL text and parsed by `pphw-frontend`; the
//! transforms are the only other code that constructs one.
//!
//! ## Quick tour
//!
//! ```
//! use pphw_ir::interp::{Interpreter, Value};
//!
//! let src = "program double(d) {
//!   input x: Float[d]
//!   let y = map(d) { (i) => yield 2.0 * x(i) }
//!   return (y)
//! }";
//! let prog = pphw_frontend::parse_program(src, "double.ppl").unwrap().program;
//!
//! let input = Value::tensor_f32(&[3], vec![1.0, 2.0, 3.0]);
//! let out = Interpreter::new(&prog, &[("d", 3)]).run(vec![input]).unwrap();
//! assert_eq!(out[0].as_f32_slice(), vec![2.0, 4.0, 6.0]);
//! ```

pub mod access;
pub mod block;
pub mod check;
pub mod equiv;
pub mod expr;
pub mod infer;
pub mod interp;
pub mod json;
pub mod path;
pub mod pattern;
pub mod pretty;
pub mod program;
pub mod size;
pub mod span;
pub mod types;

pub use block::{Block, CopyOp, GuardedItem, Op, SliceDim, SliceOp, Stmt};
pub use check::{Finding, ValidateError};
pub use equiv::{structural_diff, structural_eq};
pub use expr::{BinOp, Expr, Lit, UnOp};
pub use path::IrPath;
pub use pattern::{
    AccDef, AccUpdate, FlatMapPat, GbfBody, GroupByFoldPat, Init, Lambda, MapPat, MultiFoldPat,
    Pattern,
};
pub use program::Program;
pub use size::{Size, SizeEnv};
pub use span::{SourceMap, Span};
pub use types::{DType, ScalarType, Sym, SymTable, Type};
