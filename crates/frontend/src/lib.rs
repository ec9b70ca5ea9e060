//! Textual frontend for the PPL parallel-pattern language.
//!
//! This crate turns `.ppl` source text into the [`pphw_ir`] program
//! representation used by the rest of the pipeline:
//!
//! 1. [`lexer`] tokenizes the source (never panics; bad bytes become
//!    diagnostics),
//! 2. [`parser`] builds a parse tree with statement-level error recovery,
//! 3. [`lower`] resolves names, infers types, and emits a
//!    [`pphw_ir::program::Program`] plus a [`pphw_ir::span::SourceMap`]
//!    relating verifier pattern paths back to byte spans.
//!
//! The surface syntax is exactly what [`pphw_ir::pretty::emit_program`]
//! prints, so `parse(pretty(p))` is structurally equal to `p` and
//! `pretty(parse(text))` is a canonical form of `text`.
//!
//! The single entry point is [`parse_program`]; everything it reports goes
//! through [`ParseError`], whose `PPLP0xx` codes are listed in [`codes`].

pub mod arbitrary;
pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

use pphw_ir::json::{self, ToJson};
use pphw_ir::program::Program;
use pphw_ir::span::{caret_snippet, line_col, DiagSpan, SourceMap, Span};

/// Stable diagnostic codes for frontend errors, in the `PPLP0xx` space
/// (the verifier owns `PPHW0xx`).
pub mod codes {
    /// A character or literal the lexer cannot tokenize.
    pub const INVALID_TOKEN: &str = "PPLP001";
    /// The parser found a token the grammar does not allow here.
    pub const UNEXPECTED_TOKEN: &str = "PPLP002";
    /// A name is used but not in scope.
    pub const UNDEFINED_NAME: &str = "PPLP003";
    /// A name is declared (or a clause is given) twice.
    pub const DUPLICATE: &str = "PPLP004";
    /// An expression does not type-check.
    pub const TYPE_ERROR: &str = "PPLP005";
    /// Wrong arity, rank, or shape.
    pub const ARITY: &str = "PPLP006";
    /// A literal is malformed or out of range.
    pub const BAD_LITERAL: &str = "PPLP007";
    /// A size expression names an undeclared size variable.
    pub const UNDECLARED_SIZE_VAR: &str = "PPLP008";
    /// The lowered program failed IR validation (frontend bug guard).
    pub const PROGRAM_STRUCTURE: &str = "PPLP009";
}

/// One frontend diagnostic: a stable code, a message, and the byte span
/// of the offending source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// `PPLP0xx` code (see [`codes`]).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Byte span in the source text.
    pub span: Span,
}

impl ParseError {
    /// Creates a diagnostic.
    pub fn new(code: &'static str, message: impl Into<String>, span: Span) -> Self {
        ParseError {
            code,
            message: message.into(),
            span,
        }
    }

    /// Renders as `file:line:col: error[CODE]: message` with a caret
    /// snippet underneath.
    pub fn render(&self, src: &str, file: &str) -> String {
        let (line, col) = line_col(src, self.span.start);
        let mut out = format!(
            "{file}:{line}:{col}: error[{}]: {}",
            self.code, self.message
        );
        let snippet = caret_snippet(src, self.span);
        if !snippet.is_empty() {
            out.push('\n');
            out.push_str(&snippet);
        }
        out
    }

    /// This error located in `src`, the text of `file`: what the `parse
    /// --json` binary prints and the daemon's `EPPL` errors carry.
    pub fn locate(&self, src: &str, file: &str) -> LocatedError {
        LocatedError {
            code: self.code,
            message: self.message.clone(),
            file: file.to_string(),
            span: DiagSpan::locate(src, self.span),
        }
    }
}

/// A [`ParseError`] located in its source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedError {
    /// `PPLP0xx` code (see [`codes`]).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The file the error cites.
    pub file: String,
    /// The byte span with its line and column.
    pub span: DiagSpan,
}

/// `{"code":…,"message":…,"file":…,"span":{…}}`.
impl ToJson for LocatedError {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("code", self.code)
                .field("message", &self.message)
                .field("file", &self.file)
                .field("span", self.span);
        });
    }
}

/// Result of a successful parse: the IR program and the pattern-path →
/// byte-span side table.
#[derive(Debug, Clone)]
pub struct ParseOutput {
    /// The lowered program.
    pub program: Program,
    /// Byte spans keyed by verifier pattern paths (root = program name).
    pub source_map: SourceMap,
}

impl ParseOutput {
    /// Renames the program and moves every source-map path onto the new
    /// root with it, so findings about the renamed program still locate.
    pub fn rename(&mut self, name: String) {
        let mut map = SourceMap::new(self.source_map.file.clone());
        for (path, span) in self.source_map.iter() {
            let below_root = path.find('/').map_or("", |cut| &path[cut..]);
            map.record(format!("{name}{below_root}"), span);
        }
        self.source_map = map;
        self.program.name = name;
    }
}

/// Parses, lowers, and validates `.ppl` source text.
///
/// `file` is recorded in the returned [`SourceMap`] and used when
/// rendering diagnostics. On failure every collected diagnostic is
/// returned; the list is never empty.
pub fn parse_program(src: &str, file: &str) -> Result<ParseOutput, Vec<ParseError>> {
    let mut errors = Vec::new();
    let toks = lexer::lex(src, &mut errors);
    let ast = parser::parse(&toks, &mut errors);
    if !errors.is_empty() {
        return Err(errors);
    }
    let Some(ast) = ast else {
        return Err(vec![ParseError::new(
            codes::PROGRAM_STRUCTURE,
            "no program found",
            Span::new(0, src.len().min(1)),
        )]);
    };
    let out = lower::lower(&ast, file)?;
    // Safety net: the lowered IR must satisfy the same invariants builder
    // programs do. A failure here is a frontend bug, not a user error,
    // but it must surface as a diagnostic rather than a panic downstream.
    if let Err(e) = out.program.validate() {
        return Err(vec![ParseError::new(
            codes::PROGRAM_STRUCTURE,
            format!("lowered program failed validation: {e}"),
            ast.name.span,
        )]);
    }
    Ok(out)
}
