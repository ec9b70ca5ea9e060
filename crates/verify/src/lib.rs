//! # pphw-verify — static semantic analysis
//!
//! A multi-pass analyzer over PPL programs and generated hardware designs,
//! with stable diagnostic codes (`PPHW0xx`) and a machine-readable JSON
//! report. Four analyzer families:
//!
//! 1. **IR verifier** ([`ir_check`], the deep mode of
//!    [`pphw_ir::check`]) — def-before-use, binding discipline,
//!    output/update arity, shape and rank consistency (cross-checked with
//!    [`pphw_ir::infer`]), accessor legality. Because blocks are
//!    straight-line with single bindings, def-before-use also establishes
//!    acyclicity.
//! 2. **Parallelization race detector** ([`race`]) — a `MultiFold` /
//!    `GroupByFold` combine that is not structurally provably
//!    associative-commutative is a data race the moment `inner_par > 1`
//!    parallelizes the reduction; an allowlist of node paths is the escape
//!    hatch for combines proven correct by other means.
//! 3. **Metapipeline hazard checker** ([`hazard`]) — inter-stage RAW/WAW
//!    on shared buffers lacking double-buffering, sibling-parallel write
//!    conflicts, on-chip budget and degenerate-capacity pre-checks over
//!    [`pphw_hw::design::Design`].
//! 4. **Dataflow-balance analyzer** ([`flow`]) — SDF-style balance
//!    equations over the producer→consumer channel graph of each
//!    metapipeline: statically-guaranteed deadlocks and stalls on
//!    undersized FIFOs/double buffers, FIFO rate inconsistencies,
//!    starved and over-provisioned channels, plus minimal safe capacity
//!    inference ([`flow::infer_capacities`]) and a contention-free
//!    bottleneck predictor cross-checked against the simulator.
//!
//! Every diagnostic carries a human-readable node path (see
//! [`pphw_ir::path`]), e.g. `kmeans/best[1]/combine[0]`, so errors point
//! at a node instead of a bare symbol id.

pub mod flow;
pub mod hazard;
pub mod ir_check;
pub mod race;

use std::collections::BTreeSet;
use std::fmt;

use pphw_hw::design::Design;
use pphw_ir::json::{self, ToJson};
use pphw_ir::program::Program;
pub use pphw_ir::span::DiagSpan;

/// Stable diagnostic codes. The numeric ranges group the families:
/// `001`–`009` IR well-formedness, `010`–`019` parallelization races,
/// `020`–`029` metapipeline hazards, `030`–`039` area legality,
/// `040`–`049` dataflow balance.
///
/// Codes are part of the tool's contract: tests and downstream consumers
/// match on them, so a code is never renumbered or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// Symbol referenced before binding (or out of table range).
    UnboundSym,
    /// Symbol bound more than once.
    Rebound,
    /// Statement/update/combine arity disagrees with the operation.
    OutputArity,
    /// Pattern domain arity disagrees with its index parameters.
    BadDomain,
    /// A size expression references an undeclared size variable.
    UnknownSizeVar,
    /// An expression is ill-typed per [`pphw_ir::infer`].
    IllTypedExpr,
    /// A read/slice/copy indexes a tensor with the wrong rank.
    RankMismatch,
    /// An accumulator update or initializer disagrees with the
    /// accumulator's shape or element width.
    UpdateShapeMismatch,
    /// A parallelized reduction's combine is not provably
    /// associative-commutative.
    NonAssocCombine,
    /// Two sibling stages of a parallel controller write the same buffer.
    SiblingWriteConflict,
    /// Metapipeline read-after-write on a buffer without double-buffering.
    MetapipelineRaw,
    /// Metapipeline write-after-write on a shared single buffer.
    MetapipelineWaw,
    /// Design exceeds the on-chip memory budget.
    OverBudget,
    /// A buffer has zero capacity.
    DegenerateBuffer,
    /// A FIFO channel's producer and consumer move different volumes per
    /// metapipeline iteration (destructive reads accumulate or underflow).
    RateMismatch,
    /// A channel's capacity cannot hold even one producer token: the
    /// metapipeline is statically guaranteed to deadlock.
    ChannelDeadlock,
    /// A forward channel holds exactly one token: the producer stalls
    /// until the consumer drains it, serializing the metapipeline.
    ChannelStall,
    /// A FIFO/double buffer is read but never written: its consumer can
    /// never be satisfied.
    StarvedChannel,
    /// A channel has more capacity than full overlap can use (warning;
    /// capacity inference would reclaim the area).
    OverProvisionedChannel,
}

impl DiagCode {
    /// The stable `PPHW0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::UnboundSym => "PPHW001",
            DiagCode::Rebound => "PPHW002",
            DiagCode::OutputArity => "PPHW003",
            DiagCode::BadDomain => "PPHW004",
            DiagCode::UnknownSizeVar => "PPHW005",
            DiagCode::IllTypedExpr => "PPHW006",
            DiagCode::RankMismatch => "PPHW007",
            DiagCode::UpdateShapeMismatch => "PPHW008",
            DiagCode::NonAssocCombine => "PPHW010",
            DiagCode::SiblingWriteConflict => "PPHW011",
            DiagCode::MetapipelineRaw => "PPHW020",
            DiagCode::MetapipelineWaw => "PPHW021",
            DiagCode::OverBudget => "PPHW030",
            DiagCode::DegenerateBuffer => "PPHW031",
            DiagCode::RateMismatch => "PPHW040",
            DiagCode::ChannelDeadlock => "PPHW041",
            DiagCode::ChannelStall => "PPHW042",
            DiagCode::StarvedChannel => "PPHW043",
            DiagCode::OverProvisionedChannel => "PPHW044",
        }
    }

    /// One-line description for the diagnostic-code table.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::UnboundSym => "symbol referenced before binding",
            DiagCode::Rebound => "symbol bound more than once",
            DiagCode::OutputArity => "statement or lambda arity mismatch",
            DiagCode::BadDomain => "pattern domain/index arity mismatch",
            DiagCode::UnknownSizeVar => "undeclared size variable",
            DiagCode::IllTypedExpr => "ill-typed scalar expression",
            DiagCode::RankMismatch => "tensor access with wrong rank",
            DiagCode::UpdateShapeMismatch => "accumulator update/init shape mismatch",
            DiagCode::NonAssocCombine => {
                "parallelized combine not provably associative-commutative"
            }
            DiagCode::SiblingWriteConflict => "sibling parallel stages write the same buffer",
            DiagCode::MetapipelineRaw => "metapipeline RAW on non-double-buffered memory",
            DiagCode::MetapipelineWaw => "metapipeline WAW on shared single memory",
            DiagCode::OverBudget => "design exceeds on-chip memory budget",
            DiagCode::DegenerateBuffer => "zero-capacity buffer",
            DiagCode::RateMismatch => "FIFO channel with rate-inconsistent endpoints",
            DiagCode::ChannelDeadlock => "channel cannot hold one token (guaranteed deadlock)",
            DiagCode::ChannelStall => "single-token channel serializes the metapipeline",
            DiagCode::StarvedChannel => "channel read but never written",
            DiagCode::OverProvisionedChannel => "channel capacity beyond what overlap can use",
        }
    }

    /// Every code, in numeric order (drives the DESIGN.md table).
    pub fn all() -> &'static [DiagCode] {
        &[
            DiagCode::UnboundSym,
            DiagCode::Rebound,
            DiagCode::OutputArity,
            DiagCode::BadDomain,
            DiagCode::UnknownSizeVar,
            DiagCode::IllTypedExpr,
            DiagCode::RankMismatch,
            DiagCode::UpdateShapeMismatch,
            DiagCode::NonAssocCombine,
            DiagCode::SiblingWriteConflict,
            DiagCode::MetapipelineRaw,
            DiagCode::MetapipelineWaw,
            DiagCode::OverBudget,
            DiagCode::DegenerateBuffer,
            DiagCode::RateMismatch,
            DiagCode::ChannelDeadlock,
            DiagCode::ChannelStall,
            DiagCode::StarvedChannel,
            DiagCode::OverProvisionedChannel,
        ]
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational/heuristic finding; does not fail verification.
    Warning,
    /// A violated invariant; verification fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity.
    pub severity: Severity,
    /// Human-readable node path (`prog/stmt[i]/…` or `design/ctrl/buf`).
    pub path: String,
    /// What went wrong, in terms of the node at `path`.
    pub message: String,
    /// Source location, when the program was parsed from text (see
    /// [`VerifyReport::attach_spans`]).
    pub span: Option<DiagSpan>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity,
            self.code.code(),
            self.path,
            self.message
        )
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct VerifyConfig {
    /// The inner parallelism the pipeline would apply: combines are only a
    /// race when `inner_par > 1` parallelizes them.
    pub inner_par: u32,
    /// On-chip budget for the area pre-check; `None` skips it.
    pub on_chip_budget_bytes: Option<u64>,
    /// Node paths of combines the user asserts are associative-commutative
    /// despite the structural analysis not proving it (the escape hatch).
    pub allow_combines: BTreeSet<String>,
}

impl VerifyConfig {
    /// Config for a run at the given parallelism.
    #[must_use]
    pub fn with_inner_par(inner_par: u32) -> VerifyConfig {
        VerifyConfig {
            inner_par,
            ..VerifyConfig::default()
        }
    }

    /// Adds a combine path to the allowlist.
    #[must_use]
    pub fn allow_combine(mut self, path: impl Into<String>) -> VerifyConfig {
        self.allow_combines.insert(path.into());
        self
    }
}

/// The collected findings of one or more analyzer runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, in traversal order.
    pub diagnostics: Vec<Diagnostic>,
    /// Display name of the source file the spans index into (set by
    /// [`attach_spans`](VerifyReport::attach_spans); `None` for programs
    /// without a source map, such as tiled ones).
    pub file: Option<String>,
}

impl VerifyReport {
    /// An empty (clean) report.
    #[must_use]
    pub fn new() -> VerifyReport {
        VerifyReport::default()
    }

    /// `true` when no error-severity diagnostic was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// `true` if any diagnostic carries `code`.
    #[must_use]
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Appends all of `other`'s findings.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
        if self.file.is_none() {
            self.file = other.file;
        }
    }

    /// Resolves source locations for every diagnostic whose path (or an
    /// ancestor of it) is recorded in `map`, using `src` to compute
    /// line/column. Call this after verifying a program parsed from text;
    /// transformed programs have no map, so their reports stay span-free.
    pub fn attach_spans(&mut self, map: &pphw_ir::span::SourceMap, src: &str) {
        self.file = Some(map.file.clone());
        for d in &mut self.diagnostics {
            if let Some(span) = map.lookup(&d.path) {
                d.span = Some(DiagSpan::locate(src, span));
            }
        }
    }

    pub(crate) fn push(
        &mut self,
        code: DiagCode,
        severity: Severity,
        path: impl fmt::Display,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            path: path.to_string(),
            message: message.into(),
            span: None,
        });
    }

    /// Renders the report as JSON (machine-readable; the `verify` bin and
    /// CI gate consume this).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// One line per finding (empty string when clean). Findings with a
    /// resolved source location are prefixed `file:line:col: `.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| match (&self.file, &d.span) {
                (Some(file), Some(s)) => format!("{file}:{}:{}: {d}\n", s.line, s.col),
                _ => format!("{d}\n"),
            })
            .collect::<String>()
    }
}

/// `{"error_count":…,["file":…,]"diagnostics":[…]}`, each finding
/// `{"code","severity","path","message"[,"span"]}`.
impl ToJson for VerifyReport {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("error_count", self.error_count());
            if let Some(file) = &self.file {
                o.field("file", file);
            }
            o.arr("diagnostics", |a| {
                for d in &self.diagnostics {
                    a.obj(|o| {
                        o.field("code", d.code.code())
                            .field("severity", d.severity.to_string())
                            .field("path", &d.path)
                            .field("message", &d.message);
                        if let Some(span) = &d.span {
                            o.field("span", span);
                        }
                    });
                }
            });
        });
    }
}

/// Runs the program-level analyzers (IR verifier + race detector).
#[must_use]
pub fn verify_program(prog: &Program, cfg: &VerifyConfig) -> VerifyReport {
    let mut report = VerifyReport::new();
    ir_check::check_program(prog, &mut report);
    // Racing on a structurally broken program would produce noise on top
    // of noise; combines are still analyzed because their blocks were
    // already visited above only for well-formedness, not semantics.
    race::check_races(prog, cfg, &mut report);
    report
}

/// Runs the design-level analyzers (metapipeline hazards + area checks +
/// dataflow balance).
#[must_use]
pub fn verify_design(design: &Design, cfg: &VerifyConfig) -> VerifyReport {
    let mut report = VerifyReport::new();
    hazard::check_design(design, cfg, &mut report);
    flow::check_design(design, cfg, &mut report);
    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = DiagCode::all();
        let codes: BTreeSet<&str> = all.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), all.len(), "codes must be unique");
        assert_eq!(DiagCode::NonAssocCombine.code(), "PPHW010");
        assert_eq!(DiagCode::MetapipelineRaw.code(), "PPHW020");
        assert_eq!(DiagCode::OverBudget.code(), "PPHW030");
    }

    #[test]
    fn report_json_escapes_and_counts() {
        let mut r = VerifyReport::new();
        r.push(
            DiagCode::UnboundSym,
            Severity::Error,
            "p/x[0]",
            "bad \"quote\"",
        );
        r.push(DiagCode::DegenerateBuffer, Severity::Warning, "d/b", "w");
        assert_eq!(r.error_count(), 1);
        assert!(!r.is_clean());
        let json = r.to_json();
        assert!(json.starts_with("{\"error_count\":1,"), "{json}");
        assert!(json.contains("\\\"quote\\\""), "{json}");
        assert!(json.contains("PPHW001"), "{json}");
    }

    #[test]
    fn attach_spans_resolves_locations() {
        let src = "program p(n) {\n  let x = 1\n}\n";
        let mut map = pphw_ir::span::SourceMap::new("t.ppl");
        map.record("p/x[0]", pphw_ir::span::Span::new(17, 26));
        let mut r = VerifyReport::new();
        r.push(DiagCode::UnboundSym, Severity::Error, "p/x[0]/body", "m");
        r.push(DiagCode::Rebound, Severity::Error, "q/z[9]", "m");
        r.attach_spans(&map, src);
        assert_eq!(r.file.as_deref(), Some("t.ppl"));
        // First diagnostic resolves via ancestor fallback; second has no
        // recorded path and stays span-free.
        let s = r.diagnostics[0].span.expect("resolved");
        assert_eq!((s.line, s.col), (2, 3));
        assert_eq!(r.diagnostics[1].span, None);
        let text = r.to_text();
        assert!(text.starts_with("t.ppl:2:3: error [PPHW001]"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"file\":\"t.ppl\""), "{json}");
        assert!(
            json.contains("\"span\":{\"start\":17,\"end\":26,\"line\":2,\"col\":3}"),
            "{json}"
        );
    }

    /// Every byte of a report without and with a file and spans; the
    /// literals are never edited to make a change pass.
    #[test]
    fn json_bytes_are_pinned() {
        let mut r = VerifyReport::new();
        r.push(
            DiagCode::UnboundSym,
            Severity::Error,
            "p/x[0]/body",
            "a \"b\"",
        );
        r.push(
            DiagCode::OverProvisionedChannel,
            Severity::Warning,
            "d/c",
            "w\n",
        );
        assert_eq!(
            r.to_json(),
            "{\"error_count\":1,\"diagnostics\":[\
             {\"code\":\"PPHW001\",\"severity\":\"error\",\"path\":\"p/x[0]/body\",\
             \"message\":\"a \\\"b\\\"\"},\
             {\"code\":\"PPHW044\",\"severity\":\"warning\",\"path\":\"d/c\",\
             \"message\":\"w\\n\"}]}"
        );
        let mut map = pphw_ir::span::SourceMap::new("t\\.ppl");
        map.record("p/x[0]", pphw_ir::span::Span::new(17, 26));
        r.attach_spans(&map, "program p(n) {\n  let x = 1\n}\n");
        assert_eq!(
            r.to_json(),
            "{\"error_count\":1,\"file\":\"t\\\\.ppl\",\"diagnostics\":[\
             {\"code\":\"PPHW001\",\"severity\":\"error\",\"path\":\"p/x[0]/body\",\
             \"message\":\"a \\\"b\\\"\",\"span\":{\"start\":17,\"end\":26,\"line\":2,\"col\":3}},\
             {\"code\":\"PPHW044\",\"severity\":\"warning\",\"path\":\"d/c\",\
             \"message\":\"w\\n\"}]}"
        );
        assert_eq!(
            VerifyReport::new().to_json(),
            "{\"error_count\":0,\"diagnostics\":[]}"
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut a = VerifyReport::new();
        a.push(DiagCode::Rebound, Severity::Error, "p", "m");
        let mut b = VerifyReport::new();
        b.push(DiagCode::OverBudget, Severity::Error, "d", "m");
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert!(a.has(DiagCode::OverBudget));
    }

    #[test]
    fn spans_survive_merging_multi_family_reports() {
        let src = "program p(n) {\n  let x = 1\n}\n";
        let mut map = pphw_ir::span::SourceMap::new("t.ppl");
        map.record("p/x[0]", pphw_ir::span::Span::new(17, 26));

        // Frontend-family report with spans already attached.
        let mut front = VerifyReport::new();
        front.push(DiagCode::NonAssocCombine, Severity::Error, "p/x[0]", "m");
        front.attach_spans(&map, src);
        let resolved = front.diagnostics[0].span.expect("resolved before merge");

        // Design-family report: no source paths, stays span-free.
        let mut design = VerifyReport::new();
        design.push(DiagCode::ChannelStall, Severity::Error, "top/tile", "m");

        front.merge(design);
        assert_eq!(front.diagnostics.len(), 2);
        assert_eq!(
            front.diagnostics[0].span,
            Some(resolved),
            "merging must not drop previously attached spans"
        );
        assert_eq!(front.diagnostics[1].span, None);
        assert_eq!(front.file.as_deref(), Some("t.ppl"));

        // Attaching after the merge resolves every mapped path without
        // disturbing unmapped design-level diagnostics.
        let mut merged = VerifyReport::new();
        merged.push(DiagCode::NonAssocCombine, Severity::Error, "p/x[0]", "m");
        merged.merge({
            let mut d = VerifyReport::new();
            d.push(DiagCode::ChannelDeadlock, Severity::Error, "top/fifo", "m");
            d
        });
        merged.attach_spans(&map, src);
        assert_eq!(merged.diagnostics[0].span, Some(resolved));
        assert_eq!(merged.diagnostics[1].span, None);
        let text = merged.to_text();
        assert!(text.contains("t.ppl:2:3: error [PPHW010]"), "{text}");
        assert!(text.contains("[PPHW041]"), "{text}");
    }
}
