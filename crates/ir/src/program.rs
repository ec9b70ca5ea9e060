//! Whole-program container. Well-formedness ([`Program::validate`]) lives
//! in [`crate::check`].

use crate::block::Block;
use crate::types::{Sym, SymTable, Type};

/// A complete PPL program: symbolic sizes, tensor/scalar inputs, and a body
/// block whose results are the program outputs.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (used in reports and emitted HGL).
    pub name: String,
    /// Names of the symbolic dimensions the program is parameterized over.
    pub size_vars: Vec<String>,
    /// Input symbols (bound externally).
    pub inputs: Vec<Sym>,
    /// Program body; `body.result` are the outputs.
    pub body: Block,
    /// Symbol table covering every symbol in the program.
    pub syms: SymTable,
}

impl Program {
    /// Creates a program.
    pub fn new(
        name: impl Into<String>,
        size_vars: Vec<String>,
        inputs: Vec<Sym>,
        body: Block,
        syms: SymTable,
    ) -> Program {
        Program {
            name: name.into(),
            size_vars,
            inputs,
            body,
            syms,
        }
    }

    /// The program's output symbols.
    pub fn outputs(&self) -> &[Sym] {
        &self.body.result
    }

    /// Returns the type of a symbol.
    pub fn ty(&self, sym: Sym) -> &Type {
        self.syms.ty(sym)
    }
}
