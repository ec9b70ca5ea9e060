//! # pphw-ir — the parallel pattern language (PPL)
//!
//! The intermediate representation from *Generating Configurable Hardware
//! from Parallel Patterns*: four parallel patterns (`Map`, `MultiFold`,
//! `FlatMap`, `GroupByFold`) over multidimensional arrays, a scalar
//! expression language, symbolic sizes, slices and explicit tile copies,
//! plus a reference interpreter and the analyses (access patterns, shapes,
//! uses) that the tiling and hardware-generation passes build on.
//!
//! ## Quick tour
//!
//! ```
//! use pphw_ir::builder::ProgramBuilder;
//! use pphw_ir::types::DType;
//! use pphw_ir::interp::{Interpreter, Value};
//!
//! // map(d){ i => 2 * x(i) }
//! let mut b = ProgramBuilder::new("double");
//! let d = b.size("d");
//! let x = b.input("x", DType::F32, vec![d.clone()]);
//! let out = b.map(vec![d], |c, idx| {
//!     c.mul(c.f32(2.0), c.read(x, vec![c.var(idx[0])]))
//! });
//! let prog = b.finish(vec![out]);
//!
//! let input = Value::tensor_f32(&[3], vec![1.0, 2.0, 3.0]);
//! let out = Interpreter::new(&prog, &[("d", 3)]).run(vec![input]).unwrap();
//! assert_eq!(out[0].as_f32_slice(), vec![2.0, 4.0, 6.0]);
//! ```

pub mod access;
pub mod block;
pub mod builder;
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
