//! Pretty-printer producing paper-style PPL text.
//!
//! The output mirrors the notation of the paper's figures: patterns print
//! as `multiFold(n/b0)((k,d),k)(init){ ii => … }{ (a,b) => … }`, copies as
//! `points.copy(ii*b0 :+ b0, *)`, and slices as `points.slice(i, *)`.

use std::fmt::Write as _;

use crate::block::{Block, Op, SliceDim, Stmt};
use crate::expr::{BinOp, Expr, UnOp};
use crate::path::IrPath;
use crate::pattern::{GbfBody, Pattern, Seg};
use crate::program::Program;
use crate::types::{Sym, SymTable};

/// Renders a whole program.
pub fn print_program(prog: &Program) -> String {
    render_program(prog, None)
}

/// Like [`print_program`] but annotates every pattern statement with its
/// [`IrPath`] (`// at kmeans/sums[2]`) — the same paths verifier
/// diagnostics carry, so an error can be matched to a line of output.
pub fn print_program_with_paths(prog: &Program) -> String {
    render_program(prog, Some(IrPath::root(&prog.name)))
}

fn render_program(prog: &Program, path: Option<IrPath>) -> String {
    let mut p = Printer::new(&prog.syms);
    p.path = path;
    let _ = writeln!(p.out, "// program {}", prog.name);
    for i in &prog.inputs {
        let _ = writeln!(p.out, "{}: {}", prog.syms.name(*i), prog.syms.ty(*i));
    }
    p.block_stmts(&prog.body);
    let results: Vec<String> = prog.body.result.iter().map(|s| p.name(*s)).collect();
    let _ = writeln!(p.out, "return ({})", results.join(", "));
    p.out
}

/// Renders a single block (at indent level 0).
pub fn print_block(block: &Block, syms: &SymTable) -> String {
    let mut p = Printer::new(syms);
    p.block_stmts(block);
    p.out
}

struct Printer<'a> {
    syms: &'a SymTable,
    out: String,
    indent: usize,
    /// When set, pattern statements are annotated with their path and the
    /// path is threaded through nested blocks.
    path: Option<IrPath>,
}

impl<'a> Printer<'a> {
    fn new(syms: &'a SymTable) -> Self {
        Printer {
            syms,
            out: String::new(),
            indent: 0,
            path: None,
        }
    }

    /// Descends the path by one segment for the duration of `f`.
    fn scoped(&mut self, seg: Seg, f: impl FnOnce(&mut Self)) {
        let saved = self.path.clone();
        if let Some(p) = &self.path {
            self.path = Some(p.child(seg.to_string()));
        }
        f(self);
        self.path = saved;
    }

    fn name(&self, s: Sym) -> String {
        self.syms.name(s)
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn line(&mut self, text: &str) {
        self.pad();
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block_stmts(&mut self, block: &Block) {
        for (i, stmt) in block.stmts.iter().enumerate() {
            self.stmt(stmt, i);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, index: usize) {
        let lhs = stmt
            .syms
            .iter()
            .map(|s| self.name(*s))
            .collect::<Vec<_>>()
            .join(", ");
        let lhs = if stmt.syms.len() > 1 {
            format!("({lhs})")
        } else {
            lhs
        };
        match &stmt.op {
            Op::Expr(e) => {
                let e = self.expr(e);
                self.line(&format!("{lhs} = {e}"));
            }
            Op::Slice(s) => {
                let dims = self.dims(&s.dims);
                self.line(&format!("{lhs} = {}.slice({dims})", self.name(s.tensor)));
            }
            Op::Copy(c) => {
                let dims = self.dims(&c.dims);
                let reuse = if c.reuse > 1 {
                    format!(" /* reuse {} */", c.reuse)
                } else {
                    String::new()
                };
                self.line(&format!(
                    "{lhs} = {}.copy({dims}){reuse}",
                    self.name(c.tensor)
                ));
            }
            Op::VarVec(items) => {
                let parts: Vec<String> = items
                    .iter()
                    .map(|it| match &it.guard {
                        Some(g) => format!("if ({}) {}", self.expr(g), self.expr(&it.value)),
                        None => self.expr(&it.value),
                    })
                    .collect();
                self.line(&format!("{lhs} = [{}]", parts.join(", ")));
            }
            Op::Pattern(p) => {
                let at = self.path.as_ref().map(|b| b.stmt(self.syms, stmt, index));
                match at {
                    Some(at) => {
                        self.line(&format!("// at {at}"));
                        let saved = self.path.replace(at);
                        self.pattern(&lhs, p);
                        self.path = saved;
                    }
                    None => self.pattern(&lhs, p),
                }
            }
        }
    }

    fn dims(&self, dims: &[SliceDim]) -> String {
        dims.iter()
            .map(|d| match d {
                SliceDim::Point(e) => self.expr(e),
                SliceDim::Window { start, len } => {
                    format!("{} :+ {}", self.expr(start), len)
                }
                SliceDim::Full => "*".to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn sizes(sizes: &[crate::size::Size]) -> String {
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    fn pattern(&mut self, lhs: &str, p: &Pattern) {
        match p {
            Pattern::Map(m) => {
                let params = m
                    .body
                    .params
                    .iter()
                    .map(|s| self.name(*s))
                    .collect::<Vec<_>>()
                    .join(",");
                self.line(&format!(
                    "{lhs} = map({}){{ ({params}) =>",
                    Self::sizes(&m.domain)
                ));
                self.scoped(Seg::Body, |p| p.nested(&m.body.body, true));
                self.line("}");
            }
            Pattern::MultiFold(mf) => {
                let accs = mf
                    .accs
                    .iter()
                    .map(|a| {
                        if a.shape.is_empty() {
                            "1".to_string()
                        } else {
                            format!("({})", Self::sizes(&a.shape))
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                let idx = mf
                    .idx
                    .iter()
                    .map(|s| self.name(*s))
                    .collect::<Vec<_>>()
                    .join(",");
                self.line(&format!(
                    "{lhs} = multiFold({})({accs})(init){{ ({idx}) =>",
                    Self::sizes(&mf.domain)
                ));
                self.indent += 1;
                self.scoped(Seg::Pre, |p| p.block_stmts(&mf.pre));
                for (k, u) in mf.updates.iter().enumerate() {
                    let loc = u
                        .loc
                        .iter()
                        .map(|e| self.expr(e))
                        .collect::<Vec<_>>()
                        .join(",");
                    let loc = if u.loc.is_empty() {
                        "·".to_string()
                    } else {
                        loc
                    };
                    self.line(&format!(
                        "upd[{k}] @({loc}) : {} =>",
                        self.name(u.acc_param)
                    ));
                    self.scoped(Seg::Update(Some(k)), |p| p.nested(&u.body, true));
                }
                self.indent -= 1;
                self.line("}{ (a,b) =>");
                self.indent += 1;
                for (k, c) in mf.combines.iter().enumerate() {
                    match c {
                        Some(l) => {
                            let params = l
                                .params
                                .iter()
                                .map(|s| self.name(*s))
                                .collect::<Vec<_>>()
                                .join(",");
                            self.line(&format!("combine({params}):"));
                            self.scoped(Seg::Combine(Some(k)), |p| p.nested(&l.body, true));
                        }
                        None => self.line("_"),
                    }
                }
                self.indent -= 1;
                self.line("}");
            }
            Pattern::FlatMap(fm) => {
                let i = self.name(fm.body.params[0]);
                self.line(&format!("{lhs} = flatMap({}){{ {i} =>", fm.domain));
                self.scoped(Seg::Body, |p| p.nested(&fm.body.body, true));
                self.line("}");
            }
            Pattern::GroupByFold(g) => {
                let i = self.name(g.idx);
                self.line(&format!("{lhs} = groupByFold({})(init){{ {i} =>", g.domain));
                self.indent += 1;
                self.scoped(Seg::Pre, |p| p.block_stmts(&g.pre));
                match &g.body {
                    GbfBody::Element { key, update } => {
                        let key = self.expr(key);
                        self.line(&format!("key = {key}; {} =>", self.name(update.acc_param)));
                        self.scoped(Seg::Update(None), |p| p.nested(&update.body, true));
                    }
                    GbfBody::Merge { dict } => {
                        self.line(&format!("merge {}", self.name(*dict)));
                    }
                }
                self.indent -= 1;
                self.line("}{ combine }");
            }
        }
    }

    fn nested(&mut self, block: &Block, with_result: bool) {
        self.indent += 1;
        self.block_stmts(block);
        if with_result && !block.result.is_empty() {
            let results: Vec<String> = block.result.iter().map(|s| self.name(*s)).collect();
            self.line(&format!("-> {}", results.join(", ")));
        }
        self.indent -= 1;
    }

    fn expr(&self, e: &Expr) -> String {
        match e {
            Expr::Lit(l) => l.to_string(),
            Expr::Var(s) => self.name(*s),
            Expr::SizeOf(s) => s.to_string(),
            Expr::Un(op, a) => {
                let a = self.expr(a);
                match op {
                    UnOp::Neg => format!("-{a}"),
                    UnOp::Not => format!("!{a}"),
                    UnOp::Sqrt => format!("sqrt({a})"),
                    UnOp::Ln => format!("ln({a})"),
                    UnOp::Exp => format!("exp({a})"),
                    UnOp::Abs => format!("abs({a})"),
                    UnOp::Square => format!("square({a})"),
                    UnOp::ToF32 => format!("float({a})"),
                    UnOp::ToI32 => format!("int({a})"),
                }
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                match op {
                    BinOp::Min => format!("min({a}, {b})"),
                    BinOp::Max => format!("max({a}, {b})"),
                    _ => format!("({a} {} {b})", op.symbol()),
                }
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => format!(
                "if ({}) {} else {}",
                self.expr(cond),
                self.expr(if_true),
                self.expr(if_false)
            ),
            Expr::Tuple(es) => {
                let parts: Vec<String> = es.iter().map(|e| self.expr(e)).collect();
                format!("({})", parts.join(", "))
            }
            Expr::Field(a, i) => format!("{}._{}", self.expr(a), i + 1),
            Expr::Read { tensor, index } => {
                let idx: Vec<String> = index.iter().map(|e| self.expr(e)).collect();
                format!("{}({})", self.name(*tensor), idx.join(", "))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Faithful emitter: canonical `.ppl` surface syntax
// ---------------------------------------------------------------------------

/// Reserved words of the textual PPL surface syntax. The frontend lexer
/// treats these as keywords; the emitter renames any symbol whose base name
/// collides with one. Kept here (next to the emitter) so lexer and emitter
/// cannot drift apart.
///
/// Clause words that only occur in unambiguous positions (`acc`, `pre`,
/// `update`, `combine`, `merge`, `key`, `splat`, `reuse`, `slice`, `copy`,
/// and the type names) are *contextual*: the parser matches them by text
/// where the grammar expects them, and they remain usable as ordinary
/// identifiers — builder programs routinely name symbols `acc` or `key`.
pub const KEYWORDS: &[&str] = &[
    "program",
    "input",
    "let",
    "return",
    "yield",
    "map",
    "multiFold",
    "fold",
    "flatMap",
    "groupByFold",
    "if",
    "else",
    "true",
    "false",
    "inf",
    "nan",
    "min",
    "max",
    "sqrt",
    "ln",
    "exp",
    "abs",
    "square",
    "float",
    "int",
    "neg",
    "tuple",
    "size",
];

/// Returns `true` if `s` is a reserved word of the surface syntax.
#[must_use]
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Emits the program in the canonical textual PPL surface syntax accepted
/// by the `pphw-frontend` parser.
///
/// Unlike [`print_program`] (a human-oriented rendering in the paper's
/// notation), this output is *faithful*: parsing it back yields a program
/// structurally equal to `prog` (see [`crate::equiv`]), and re-emitting the
/// parsed program reproduces the text byte-for-byte. Symbols are given
/// globally unique identifier names derived from their base names, so the
/// text carries no symbol ids.
#[must_use]
pub fn emit_program(prog: &Program) -> String {
    let mut e = Emitter {
        syms: &prog.syms,
        out: String::new(),
        indent: 0,
        names: std::collections::HashMap::new(),
        used: std::collections::HashSet::new(),
    };
    let _ = writeln!(
        e.out,
        "program {}({}) {{",
        sanitize_ident(&prog.name),
        prog.size_vars.join(", ")
    );
    e.indent = 1;
    for &i in &prog.inputs {
        let n = e.bind_name(i);
        let t = ty_text(prog.syms.ty(i));
        e.line(&format!("input {n}: {t}"));
    }
    for stmt in &prog.body.stmts {
        e.stmt(stmt);
    }
    let rs: Vec<String> = prog.body.result.iter().map(|s| e.name(*s)).collect();
    e.line(&format!("return ({})", rs.join(", ")));
    e.out.push_str("}\n");
    e.out
}

/// Forces `raw` into a non-keyword identifier shape.
fn sanitize_ident(raw: &str) -> String {
    let mut base: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if base.is_empty() || base.starts_with(|c: char| c.is_ascii_digit()) {
        base.insert(0, 'v');
    }
    if is_keyword(&base) {
        base.push('_');
    }
    base
}

fn dtype_text(d: crate::types::DType) -> &'static str {
    match d {
        crate::types::DType::F32 => "Float",
        crate::types::DType::I32 => "Int",
        crate::types::DType::Bool => "Bool",
    }
}

fn scalar_ty_text(st: &crate::types::ScalarType) -> String {
    match st {
        crate::types::ScalarType::Prim(d) => dtype_text(*d).to_string(),
        crate::types::ScalarType::Tuple(fs) => {
            let parts: Vec<&str> = fs.iter().map(|d| dtype_text(*d)).collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn ty_text(ty: &crate::types::Type) -> String {
    use crate::types::Type;
    match ty {
        Type::Scalar(s) => scalar_ty_text(s),
        Type::Tensor { elem, shape } => {
            format!("{}[{}]", scalar_ty_text(elem), sizes_text(shape))
        }
        Type::DynVec { elem } => format!("{}[?]", scalar_ty_text(elem)),
        Type::Dict { key, value } => {
            format!("Dict[{} -> {}]", scalar_ty_text(key), ty_text(value))
        }
    }
}

/// Size expressions with every compound form parenthesized, so the parse
/// reproduces the structure exactly (the `Display` impl elides parentheses
/// around `*` and `/`, which is ambiguous).
fn size_text(s: &crate::size::Size) -> String {
    use crate::size::Size;
    match s {
        Size::Const(c) => c.to_string(),
        Size::Var(v) => v.clone(),
        Size::Add(a, b) => format!("({} + {})", size_text(a), size_text(b)),
        Size::Sub(a, b) => format!("({} - {})", size_text(a), size_text(b)),
        Size::Mul(a, b) => format!("({} * {})", size_text(a), size_text(b)),
        Size::Div(a, b) => format!("({} / {})", size_text(a), size_text(b)),
    }
}

fn sizes_text(sizes: &[crate::size::Size]) -> String {
    sizes.iter().map(size_text).collect::<Vec<_>>().join(", ")
}

/// Literals in re-parseable form: floats use the shortest round-trip
/// representation (always with `.` or an exponent), non-finite values the
/// `inf` / `-inf` / `nan` keywords.
fn lit_text(l: &crate::expr::Lit) -> String {
    use crate::expr::Lit;
    match l {
        Lit::F32(v) => {
            if v.is_nan() {
                "nan".to_string()
            } else if *v == f32::INFINITY {
                "inf".to_string()
            } else if *v == f32::NEG_INFINITY {
                "-inf".to_string()
            } else {
                format!("{v:?}")
            }
        }
        Lit::I32(v) => v.to_string(),
        Lit::Bool(v) => v.to_string(),
    }
}

struct Emitter<'a> {
    syms: &'a SymTable,
    out: String,
    indent: usize,
    names: std::collections::HashMap<Sym, String>,
    used: std::collections::HashSet<String>,
}

impl Emitter<'_> {
    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn line(&mut self, text: &str) {
        self.pad();
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Assigns (on first call) a globally unique identifier for `s`.
    fn bind_name(&mut self, s: Sym) -> String {
        if let Some(n) = self.names.get(&s) {
            return n.clone();
        }
        let base = sanitize_ident(&self.syms.info(s).name);
        let mut candidate = base.clone();
        let mut k = 1;
        while self.used.contains(&candidate) {
            k += 1;
            candidate = format!("{base}_{k}");
        }
        self.used.insert(candidate.clone());
        self.names.insert(s, candidate.clone());
        candidate
    }

    /// The already-assigned name of `s` (uses always follow bindings in
    /// emission order; the fallback covers invalid programs only).
    fn name(&self, s: Sym) -> String {
        self.names
            .get(&s)
            .cloned()
            .unwrap_or_else(|| format!("v{}", s.0))
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let names: Vec<String> = stmt.syms.iter().map(|s| self.bind_name(*s)).collect();
        let lhs = if names.len() == 1 {
            names[0].clone()
        } else {
            format!("({})", names.join(", "))
        };
        match &stmt.op {
            Op::Expr(e) => {
                let t = self.expr_text(e);
                self.line(&format!("let {lhs} = {t}"));
            }
            Op::Slice(s) => {
                let dims = self.dims_text(&s.dims);
                self.line(&format!(
                    "let {lhs} = {}.slice({dims})",
                    self.name(s.tensor)
                ));
            }
            Op::Copy(c) => {
                let dims = self.dims_text(&c.dims);
                let reuse = if c.reuse == 1 {
                    String::new()
                } else {
                    format!(" reuse {}", c.reuse)
                };
                self.line(&format!(
                    "let {lhs} = {}.copy({dims}){reuse}",
                    self.name(c.tensor)
                ));
            }
            Op::VarVec(items) => {
                let parts: Vec<String> = items
                    .iter()
                    .map(|it| match &it.guard {
                        Some(g) => {
                            format!("if ({}) {}", self.expr_text(g), self.expr_text(&it.value))
                        }
                        None => self.expr_text(&it.value),
                    })
                    .collect();
                self.line(&format!("let {lhs} = [{}]", parts.join(", ")));
            }
            Op::Pattern(p) => self.emit_pattern(&lhs, p),
        }
    }

    /// Statements of a nested block followed by its `yield` (when the block
    /// has results), between braces the caller emits.
    fn body_block(&mut self, b: &Block) {
        self.indent += 1;
        for stmt in &b.stmts {
            self.stmt(stmt);
        }
        if !b.result.is_empty() {
            let rs: Vec<String> = b.result.iter().map(|s| self.name(*s)).collect();
            self.line(&format!("yield {}", rs.join(", ")));
        }
        self.indent -= 1;
    }

    fn acc_decl(&mut self, a: &crate::pattern::AccDef) -> String {
        let ty = if a.shape.is_empty() {
            scalar_ty_text(&a.elem)
        } else {
            format!("{}[{}]", scalar_ty_text(&a.elem), sizes_text(&a.shape))
        };
        let lits: Vec<String> = a.init.splat.iter().map(lit_text).collect();
        format!(
            "acc {}: {} = splat({})",
            sanitize_ident(&a.name),
            ty,
            lits.join(", ")
        )
    }

    fn emit_pattern(&mut self, lhs: &str, p: &Pattern) {
        match p {
            Pattern::Map(m) => {
                let params: Vec<String> =
                    m.body.params.iter().map(|s| self.bind_name(*s)).collect();
                self.line(&format!(
                    "let {lhs} = map({}) {{ ({}) =>",
                    sizes_text(&m.domain),
                    params.join(", ")
                ));
                self.body_block(&m.body.body);
                self.line("}");
            }
            Pattern::MultiFold(mf) => {
                self.line(&format!(
                    "let {lhs} = multiFold({}) {{",
                    sizes_text(&mf.domain)
                ));
                self.indent += 1;
                let acc_names: Vec<String> =
                    mf.accs.iter().map(|a| sanitize_ident(&a.name)).collect();
                for a in &mf.accs {
                    let decl = self.acc_decl(a);
                    self.line(&decl);
                }
                let idx: Vec<String> = mf.idx.iter().map(|s| self.bind_name(*s)).collect();
                self.line(&format!("({}) =>", idx.join(", ")));
                if !mf.pre.stmts.is_empty() || !mf.pre.result.is_empty() {
                    self.line("pre {");
                    self.body_block(&mf.pre);
                    self.line("}");
                }
                for (k, u) in mf.updates.iter().enumerate() {
                    let locs: Vec<String> = u.loc.iter().map(|e| self.expr_text(e)).collect();
                    let param = self.bind_name(u.acc_param);
                    let acc = acc_names.get(k).cloned().unwrap_or_else(|| "_".into());
                    self.line(&format!(
                        "update {acc} @ ({}) [{}] ({param}) {{",
                        locs.join(", "),
                        sizes_text(&u.shape)
                    ));
                    self.body_block(&u.body);
                    self.line("}");
                }
                for (k, c) in mf.combines.iter().enumerate() {
                    let acc = acc_names.get(k).cloned().unwrap_or_else(|| "_".into());
                    match c {
                        Some(l) => {
                            let params: Vec<String> =
                                l.params.iter().map(|s| self.bind_name(*s)).collect();
                            self.line(&format!("combine {acc} ({}) {{", params.join(", ")));
                            self.body_block(&l.body);
                            self.line("}");
                        }
                        None => self.line(&format!("combine {acc} _")),
                    }
                }
                self.indent -= 1;
                self.line("}");
            }
            Pattern::FlatMap(fm) => {
                let params: Vec<String> =
                    fm.body.params.iter().map(|s| self.bind_name(*s)).collect();
                self.line(&format!(
                    "let {lhs} = flatMap({}) {{ ({}) =>",
                    size_text(&fm.domain),
                    params.join(", ")
                ));
                self.body_block(&fm.body.body);
                self.line("}");
            }
            Pattern::GroupByFold(g) => {
                self.line(&format!(
                    "let {lhs} = groupByFold({}) {{",
                    size_text(&g.domain)
                ));
                self.indent += 1;
                let decl = self.acc_decl(&g.acc);
                self.line(&decl);
                let idx = self.bind_name(g.idx);
                self.line(&format!("({idx}) =>"));
                if !g.pre.stmts.is_empty() || !g.pre.result.is_empty() {
                    self.line("pre {");
                    self.body_block(&g.pre);
                    self.line("}");
                }
                match &g.body {
                    GbfBody::Element { key, update } => {
                        let k = self.expr_text(key);
                        self.line(&format!("key = {k}"));
                        let locs: Vec<String> =
                            update.loc.iter().map(|e| self.expr_text(e)).collect();
                        let param = self.bind_name(update.acc_param);
                        self.line(&format!(
                            "update @ ({}) [{}] ({param}) {{",
                            locs.join(", "),
                            sizes_text(&update.shape)
                        ));
                        self.body_block(&update.body);
                        self.line("}");
                    }
                    GbfBody::Merge { dict } => {
                        self.line(&format!("merge {}", self.name(*dict)));
                    }
                }
                let params: Vec<String> = g
                    .combine
                    .params
                    .iter()
                    .map(|s| self.bind_name(*s))
                    .collect();
                self.line(&format!("combine ({}) {{", params.join(", ")));
                self.body_block(&g.combine.body);
                self.line("}");
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    fn dims_text(&self, dims: &[SliceDim]) -> String {
        dims.iter()
            .map(|d| match d {
                SliceDim::Point(e) => self.expr_text(e),
                SliceDim::Window { start, len } => {
                    format!("{} :+ {}", self.expr_text(start), size_text(len))
                }
                SliceDim::Full => "*".to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Canonical expression text: binaries fully parenthesized, `min`/`max`
    /// as functions, `Select` as a parenthesized `if`, negation via `neg()`
    /// (a bare `-` always denotes a negative literal in the grammar).
    fn expr_text(&self, e: &Expr) -> String {
        match e {
            Expr::Lit(l) => lit_text(l),
            Expr::Var(s) => self.name(*s),
            Expr::SizeOf(s) => format!("size({})", size_text(s)),
            Expr::Un(op, a) => {
                let a = self.expr_text(a);
                match op {
                    UnOp::Neg => format!("neg({a})"),
                    UnOp::Not => format!("(!{a})"),
                    UnOp::Sqrt => format!("sqrt({a})"),
                    UnOp::Ln => format!("ln({a})"),
                    UnOp::Exp => format!("exp({a})"),
                    UnOp::Abs => format!("abs({a})"),
                    UnOp::Square => format!("square({a})"),
                    UnOp::ToF32 => format!("float({a})"),
                    UnOp::ToI32 => format!("int({a})"),
                }
            }
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.expr_text(a), self.expr_text(b));
                match op {
                    BinOp::Min => format!("min({a}, {b})"),
                    BinOp::Max => format!("max({a}, {b})"),
                    _ => format!("({a} {} {b})", op.symbol()),
                }
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => format!(
                "(if ({}) {} else {})",
                self.expr_text(cond),
                self.expr_text(if_true),
                self.expr_text(if_false)
            ),
            Expr::Tuple(es) => {
                let parts: Vec<String> = es.iter().map(|e| self.expr_text(e)).collect();
                if es.len() >= 2 {
                    format!("({})", parts.join(", "))
                } else {
                    format!("tuple({})", parts.join(", "))
                }
            }
            Expr::Field(a, i) => format!("{}._{}", self.expr_text(a), i + 1),
            Expr::Read { tensor, index } => {
                let idx: Vec<String> = index.iter().map(|e| self.expr_text(e)).collect();
                format!("{}({})", self.name(*tensor), idx.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::DType;

    #[test]
    fn prints_map_program() {
        let mut b = ProgramBuilder::new("double");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.map(vec![d], |c, idx| {
            c.mul(c.f32(2.0), c.read(x, vec![c.var(idx[0])]))
        });
        let prog = b.finish(vec![out]);
        let text = print_program(&prog);
        assert!(text.contains("map(d)"), "got:\n{text}");
        assert!(text.contains("x_0("), "got:\n{text}");
    }

    #[test]
    fn prints_fold_with_combine() {
        let mut b = ProgramBuilder::new("sum");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            crate::types::ScalarType::Prim(DType::F32),
            crate::pattern::Init::zeros(),
            |c, i, acc| c.add(c.var(acc), c.read(x, vec![c.var(i[0])])),
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        let prog = b.finish(vec![out]);
        let text = print_program(&prog);
        assert!(text.contains("multiFold(d)"), "got:\n{text}");
        assert!(text.contains("combine"), "got:\n{text}");
    }

    #[test]
    fn path_annotated_print_marks_patterns() {
        let mut b = ProgramBuilder::new("sum");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            crate::types::ScalarType::Prim(DType::F32),
            crate::pattern::Init::zeros(),
            |c, i, acc| c.add(c.var(acc), c.read(x, vec![c.var(i[0])])),
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        let prog = b.finish(vec![out]);
        let plain = print_program(&prog);
        assert!(
            !plain.contains("// at "),
            "default output unchanged:\n{plain}"
        );
        let annotated = print_program_with_paths(&prog);
        assert!(annotated.contains("// at sum/sum[0]"), "got:\n{annotated}");
    }

    #[test]
    fn emit_is_canonical_surface_syntax() {
        let mut b = ProgramBuilder::new("sum");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.fold(
            "sum",
            vec![d],
            vec![],
            crate::types::ScalarType::Prim(DType::F32),
            crate::pattern::Init::zeros(),
            |c, i, acc| c.add(c.var(acc), c.read(x, vec![c.var(i[0])])),
            |c, a, b2| c.add(c.var(a), c.var(b2)),
        );
        let prog = b.finish(vec![out]);
        let text = emit_program(&prog);
        assert!(text.starts_with("program sum(d) {\n"), "got:\n{text}");
        assert!(text.contains("input x: Float[d]"), "got:\n{text}");
        assert!(text.contains("multiFold(d) {"), "got:\n{text}");
        assert!(text.contains("acc sum: Float = splat(0.0)"), "got:\n{text}");
        assert!(text.contains("update sum @ () [] (acc) {"), "got:\n{text}");
        assert!(text.contains("combine sum (a, b) {"), "got:\n{text}");
        assert!(text.contains("yield"), "got:\n{text}");
        assert!(text.trim_end().ends_with('}'), "got:\n{text}");
        // No symbol ids leak into the canonical text.
        assert!(!text.contains("x_0"), "got:\n{text}");
    }

    #[test]
    fn emit_uniquifies_repeated_base_names() {
        // Two nested folds both mint `acc`, `a`, `b`, `upd`, `comb` bases.
        let mut b = ProgramBuilder::new("two");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let mk = |b: &mut ProgramBuilder, d: &crate::size::Size, x: Sym, name: &str| {
            b.fold(
                name,
                vec![d.clone()],
                vec![],
                crate::types::ScalarType::Prim(DType::F32),
                crate::pattern::Init::zeros(),
                |c, i, acc| c.add(c.var(acc), c.read(x, vec![c.var(i[0])])),
                |c, a, b2| c.add(c.var(a), c.var(b2)),
            )
        };
        let s1 = mk(&mut b, &d, x, "s1");
        let s2 = mk(&mut b, &d, x, "s2");
        let prog = b.finish(vec![s1, s2]);
        let text = emit_program(&prog);
        assert!(
            text.contains("(acc_2)"),
            "second acc param renamed:\n{text}"
        );
        assert!(
            text.contains("(a_2, b_2)"),
            "combine params renamed:\n{text}"
        );
    }

    #[test]
    fn emit_handles_special_floats_and_keyword_names() {
        let mut b = ProgramBuilder::new("arg");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        // `map` is both a keyword and the builder's output base name.
        let out = b.map(vec![d], |c, idx| {
            c.select(
                c.lt(c.read(x, vec![c.var(idx[0])]), c.f32(f32::MAX)),
                c.f32(f32::INFINITY),
                c.f32(f32::NEG_INFINITY),
            )
        });
        let prog = b.finish(vec![out]);
        let text = emit_program(&prog);
        assert!(
            text.contains("3.4028235e38"),
            "f32::MAX round-trips:\n{text}"
        );
        assert!(text.contains("inf"), "got:\n{text}");
        assert!(text.contains("-inf"), "got:\n{text}");
        assert!(!text.contains("let map ="), "keyword renamed:\n{text}");
        assert!(text.contains("let map_ ="), "got:\n{text}");
    }

    #[test]
    fn keyword_table_is_consistent() {
        assert!(is_keyword("multiFold"));
        // Clause words and type names are contextual, not reserved.
        assert!(!is_keyword("Float"));
        assert!(!is_keyword("acc"));
        assert!(!is_keyword("sums"));
        assert_eq!(sanitize_ident("map"), "map_");
        assert_eq!(sanitize_ident("9lives"), "v9lives");
        assert_eq!(sanitize_ident("a-b"), "a_b");
    }
}
