//! Acceptance tests for the `pphw-verify` static-analysis layer.
//!
//! Two halves keep each other honest:
//!
//! - **Pristine programs verify clean.** Every Table 5 benchmark passes
//!   all three analyzer families — the IR verifier, the parallelization
//!   race detector at its real lane count, and the metapipeline hazard
//!   checker — at the source level and after compilation at every
//!   optimization level. The per-pass deep verifier is also shown to be
//!   live inside the tiling pipeline, so a transform bug is caught at the
//!   pass that introduced it.
//! - **Seeded-illegal inputs are rejected with their stable code.** One
//!   mutant per analyzer family (plus extras) asserts the exact `PPHW0xx`
//!   diagnostic, the mutation-testing discipline that proves the
//!   analyzers actually fire.

use std::collections::BTreeSet;

use pphw::{compile, OptLevel, VerifyConfig};
use pphw_apps::all_benchmarks;
use pphw_hw::design::{
    BufId, Buffer, BufferKind, Ctrl, CtrlKind, Design, DesignStyle, Node, Unit, UnitKind,
};
use pphw_ir::block::{Block, Op};
use pphw_ir::check::check_deep;
use pphw_ir::expr::{Expr, Lit};
use pphw_ir::json::{parse_json, Json};
use pphw_ir::pattern::Pattern;
use pphw_ir::size::Size;
use pphw_ir::types::Sym;
use pphw_ir::Program;
use pphw_verify::{verify_design, verify_program, DiagCode};

/// All six pristine benchmarks verify clean at every stage: the source
/// program under the IR verifier + race detector at the benchmark's real
/// parallelism, and the compiled artifact (program + generated design) at
/// all three optimization levels.
#[test]
fn six_benchmarks_verify_clean_at_every_stage() {
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        let cfg = VerifyConfig::with_inner_par(spec.inner_par.max(spec.meta_par.unwrap_or(0)));
        let report = verify_program(&prog, &cfg);
        assert!(
            report.is_clean(),
            "{} source:\n{}",
            spec.name,
            report.to_text()
        );
        for opt in OptLevel::all() {
            let compiled = compile(&prog, &spec.options().opt(opt))
                .unwrap_or_else(|e| panic!("{} [{opt}] failed to compile: {e}", spec.name));
            let report = compiled.verify();
            assert!(
                report.is_clean(),
                "{} [{opt}]:\n{}",
                spec.name,
                report.to_text()
            );
        }
    }
}

/// The deep per-pass verifier is installed by `pphw::compile` and runs
/// after every pass of the tiling pipeline (debug builds and whenever
/// `PPHW_VERIFY` is set).
#[test]
fn deep_verifier_runs_after_every_tiling_pass() {
    let spec = pphw_apps::benchmark("gemm").expect("benchmark exists");
    let before = pphw_transform::deep_verifier_runs();
    compile(&(spec.program)(), &spec.options().opt(OptLevel::Tiled)).expect("gemm compiles");
    let after = pphw_transform::deep_verifier_runs();
    if pphw_transform::verification_enabled() {
        assert!(
            after > before,
            "deep verifier never ran during a tiled compile"
        );
    } else {
        assert_eq!(after, before, "verifier must stay off when disabled");
    }
    // Tier-1 runs tests in debug, where the verifier is unconditionally on;
    // in release (`ci.sh` runs this test there) `PPHW_VERIFY` decides.
    let expected = cfg!(debug_assertions) || std::env::var("PPHW_VERIFY").is_ok_and(|v| v != "0");
    assert_eq!(pphw_transform::verification_enabled(), expected);
}

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

/// A fold whose combine is subtraction — not associative-commutative.
fn subfold() -> Program {
    parse(
        "program subfold(m) {
           input x: Float[m]
           let total = fold(m) {
             acc total: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a - b }
           }
           return (total)
         }",
    )
}

/// Race-detector family: a parallelized non-associative combine is
/// `PPHW010`; the same program is legal serially; the allowlist escape
/// hatch suppresses the finding at the diagnosed path.
#[test]
fn non_associative_parallel_combine_is_pphw010_with_allowlist_escape() {
    let prog = subfold();

    let parallel = verify_program(&prog, &VerifyConfig::with_inner_par(8));
    assert!(
        parallel.has(DiagCode::NonAssocCombine),
        "{}",
        parallel.to_text()
    );
    let path = parallel
        .errors()
        .find(|d| d.code == DiagCode::NonAssocCombine)
        .map(|d| d.path.clone())
        .expect("diagnostic carries a pattern path");
    assert!(
        path.starts_with("subfold"),
        "path is human-readable: {path}"
    );

    let serial = verify_program(&prog, &VerifyConfig::with_inner_par(1));
    assert!(serial.is_clean(), "{}", serial.to_text());

    let allowed = verify_program(&prog, &VerifyConfig::with_inner_par(8).allow_combine(path));
    assert!(allowed.is_clean(), "{}", allowed.to_text());
}

fn unit(name: &str, reads: Vec<BufId>, writes: Vec<BufId>) -> Node {
    Node::Unit(Unit {
        name: name.into(),
        kind: UnitKind::Vector { lanes: 1 },
        elems: 64,
        ops_per_elem: 1,
        depth: 4,
        streams: vec![],
        reads,
        writes,
    })
}

fn two_stage_metapipeline(kind: BufferKind) -> Design {
    Design {
        name: "seeded".into(),
        style: DesignStyle::Metapipelined,
        root: Node::Ctrl(Ctrl {
            name: "top".into(),
            kind: CtrlKind::Metapipeline,
            iters: 4,
            stages: vec![
                unit("load", vec![], vec![BufId(0)]),
                unit("compute", vec![BufId(0)], vec![]),
            ],
        }),
        buffers: vec![Buffer {
            id: BufId(0),
            name: "tile".into(),
            words: 64,
            word_bytes: 4,
            kind,
            banks: 1,
            readers: 1,
            writers: 1,
        }],
    }
}

/// Hazard-checker family: a shared single-buffered memory between
/// overlapped metapipeline stages is `PPHW020`; double-buffering (the
/// promotion hardware generation applies) is the fix.
#[test]
fn shared_buffer_metapipeline_raw_is_pphw020() {
    let cfg = VerifyConfig::default();
    let racy = verify_design(&two_stage_metapipeline(BufferKind::Buffer), &cfg);
    assert!(racy.has(DiagCode::MetapipelineRaw), "{}", racy.to_text());

    let fixed = verify_design(&two_stage_metapipeline(BufferKind::DoubleBuffer), &cfg);
    assert!(fixed.is_clean(), "{}", fixed.to_text());
}

/// IR-verifier family: a read of a rank-2 tensor through a single index
/// is `PPHW007`, located at a human-readable pattern path.
#[test]
fn rank_mismatch_is_pphw007() {
    let mut prog = parse(
        "program badrank(m, n) {
           input x: Float[m, n]
           let y = map(m) { (i) => yield x(i, 0) }
           return (y)
         }",
    );
    // The lowering rejects a rank-2 read through one index, so drop the
    // column index from a read it accepts.
    let Op::Pattern(Pattern::Map(map)) = &mut prog.body.stmts[0].op else {
        panic!("badrank is one map");
    };
    let Op::Expr(Expr::Read { index, .. }) = &mut map.body.body.stmts[0].op else {
        panic!("the map body is one read");
    };
    index.pop();
    let report = verify_program(&prog, &VerifyConfig::default());
    assert!(report.has(DiagCode::RankMismatch), "{}", report.to_text());
    assert!(
        report.errors().all(|d| d.path.starts_with("badrank")),
        "{}",
        report.to_text()
    );
}

/// IR-verifier family: a dangling result symbol is `PPHW001`.
#[test]
fn unbound_result_is_pphw001() {
    let mut prog = subfold();
    prog.body.result = vec![Sym(9999)];
    let report = verify_program(&prog, &VerifyConfig::default());
    assert!(report.has(DiagCode::UnboundSym), "{}", report.to_text());
}

/// Visits `block` and every nested block, numbering them in pre-order.
fn blocks_mut(block: &mut Block, n: &mut usize, f: &mut impl FnMut(&mut Block, usize)) {
    f(block, *n);
    *n += 1;
    for stmt in &mut block.stmts {
        if let Op::Pattern(p) = &mut stmt.op {
            for child in p.child_blocks_mut() {
                blocks_mut(child, n, f);
            }
        }
    }
}

/// Mutation `m` of statement `j` of `b`; `false` where it does not apply.
/// 0–5 break the binding discipline; 6–8 and 11 only what the deep run
/// checks (rank, typing, initializer width, update shape); the rest a
/// pattern's own arities and scopes.
fn mutate(b: &mut Block, j: usize, m: usize, tensor: Sym) -> bool {
    let dangling = Sym(99_999);
    if j >= b.stmts.len() {
        return false;
    }
    let stmt = &mut b.stmts[j];
    match (m, &mut stmt.op) {
        (0, _) => b.result = vec![dangling],
        (1, _) => drop(b.stmts.remove(j)),
        (2, _) => {
            let twin = stmt.clone();
            b.stmts.insert(j, twin);
        }
        (3, _) => stmt.syms.push(stmt.syms[0]),
        (4, _) => stmt.syms[0] = dangling,
        (5, Op::Slice(s)) => drop(s.dims.pop()),
        (5, Op::Copy(c)) => drop(c.dims.pop()),
        (6, Op::Expr(e)) => *e = Expr::read(tensor, vec![]),
        (7, Op::Expr(e)) => *e = Expr::var(tensor),
        (8, Op::Pattern(Pattern::MultiFold(mf))) => mf.accs[0].init.splat.push(Lit::I32(0)),
        (9, Op::Pattern(Pattern::MultiFold(mf))) => mf.domain.push(Size::var("undeclared")),
        (9, Op::Pattern(Pattern::Map(map))) => map.domain.push(Size::var("undeclared")),
        (10, Op::Pattern(Pattern::MultiFold(mf))) => drop(mf.idx.pop()),
        (10, Op::Pattern(Pattern::Map(map))) => drop(map.body.params.pop()),
        (10, Op::Pattern(Pattern::FlatMap(fm))) => drop(fm.body.params.pop()),
        (11, Op::Pattern(Pattern::MultiFold(mf))) => mf.updates[0].loc.push(Expr::int(0)),
        (12, Op::Pattern(Pattern::MultiFold(mf))) => drop(mf.combines.pop()),
        (13, Op::Pattern(Pattern::MultiFold(mf))) => mf.updates[0].body.result.clear(),
        (14, Op::Pattern(Pattern::MultiFold(mf))) => match &mut mf.combines[0] {
            // A combine sees neither the indices nor `pre`.
            Some(c) => c.body.result = vec![mf.idx[0]],
            None => return false,
        },
        (15, Op::Pattern(Pattern::GroupByFold(g))) => drop(g.combine.params.pop()),
        _ => return false,
    }
    true
}

/// The checker's two modes agree on every seeded mutant of every
/// benchmark, source and tiled: `validate()` fails exactly when the deep
/// run has a structural finding, its one finding is among the deep run's,
/// and `verify_program` reports the deep findings one for one — a
/// structural kind under `PPHW001`–`PPHW005` or a slice/copy `PPHW007`.
#[test]
fn structural_and_deep_checks_agree_on_seeded_mutants() {
    let (mut structural, mut deep_only) = (0, 0);
    let mut coded = BTreeSet::new();
    for spec in all_benchmarks() {
        let source = (spec.program)();
        let tiled = compile(&source, &spec.options().opt(OptLevel::Tiled))
            .expect("benchmark compiles")
            .program;
        for prog in [source, tiled] {
            let mut blocks = 0;
            blocks_mut(&mut prog.clone().body, &mut blocks, &mut |_, _| {});
            for (at, j, m) in (0..blocks)
                .flat_map(|at| (0..8).flat_map(move |j| (0..16).map(move |m| (at, j, m))))
            {
                let mut mutant = prog.clone();
                let (tensor, mut applied) = (mutant.inputs[0], false);
                blocks_mut(&mut mutant.body, &mut 0, &mut |b, k| {
                    applied |= k == at && mutate(b, j, m, tensor);
                });
                if !applied {
                    continue;
                }
                let deep = check_deep(&mutant);
                let first = mutant.validate().err();
                let tag = format!("{} block {at} stmt {j} mutation {m}: {deep:?}", prog.name);
                assert_eq!(
                    first.is_some(),
                    deep.iter().any(|f| f.kind.is_structural()),
                    "{tag}"
                );
                assert!(
                    first.iter().all(|f| deep.contains(f)),
                    "{first:?} not in {tag}"
                );
                let report = verify_program(&mutant, &VerifyConfig::default());
                assert_eq!(report.diagnostics.len(), deep.len(), "{tag}");
                for (d, f) in report.diagnostics.iter().zip(&deep) {
                    assert_eq!((&d.path, &d.message), (&f.path.to_string(), &f.message));
                    let structural_code = d.code <= DiagCode::UnknownSizeVar
                        || (d.code == DiagCode::RankMismatch
                            && d.message.starts_with("slice/copy"));
                    assert_eq!(structural_code, f.kind.is_structural(), "{d} in {tag}");
                    coded.insert((d.code.code(), format!("{:?}", f.kind)));
                }
                structural += usize::from(first.is_some());
                deep_only += usize::from(first.is_none() && !deep.is_empty());
            }
        }
    }
    // Every rule was exercised, and each is reported under one code.
    let coded: Vec<_> = coded.iter().map(|(c, k)| format!("{c} {k}")).collect();
    assert_eq!(
        coded.join(", "),
        "PPHW001 UnboundSym, PPHW002 Rebound, PPHW003 OutputArity, PPHW004 BadDomain, \
         PPHW005 UnknownSizeVar, PPHW006 IllTyped, PPHW007 DimArity, PPHW007 ReadRank, \
         PPHW008 UpdateShape"
    );
    assert!(
        structural > 500 && deep_only > 50,
        "the mutant family went vacuous: {structural} structural, {deep_only} deep-only"
    );
}

/// The JSON report is machine-readable: codes, severities, and paths all
/// appear, and a clean report is an empty diagnostics array.
#[test]
fn json_report_is_machine_readable() {
    let keys = |v: &Json| -> Vec<String> {
        let fields = v.as_obj().expect("an object");
        fields.iter().map(|(k, _)| k.clone()).collect()
    };
    let report = verify_program(&subfold(), &VerifyConfig::with_inner_par(8));
    let json = parse_json(&report.to_json()).expect("the report is JSON");
    assert_eq!(keys(&json), ["error_count", "diagnostics"]);
    let errors = json.get("error_count").and_then(Json::as_u64);
    assert_eq!(errors, Some(report.error_count() as u64));
    let diags = json
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("array");
    assert_eq!(diags.len(), report.diagnostics.len());
    for (got, want) in diags.iter().zip(&report.diagnostics) {
        assert_eq!(keys(got), ["code", "severity", "path", "message"]);
        let text = |key: &str| got.get(key).and_then(Json::as_str).expect("a string");
        assert_eq!(text("code"), want.code.code());
        assert_eq!(text("severity"), want.severity.to_string());
        assert_eq!(text("path"), want.path);
        assert_eq!(text("message"), want.message);
    }
    let race = diags
        .iter()
        .find(|d| d.get("code") == Some(&Json::Str("PPHW010".into())));
    let race = race.expect("the race is reported");
    assert_eq!(race.get("severity").and_then(Json::as_str), Some("error"));
    let path = race.get("path").and_then(Json::as_str).expect("a path");
    assert!(path.starts_with("subfold/"), "{path}");

    let clean = verify_program(&subfold(), &VerifyConfig::default());
    assert!(clean.is_clean());
    let json = parse_json(&clean.to_json()).expect("the report is JSON");
    assert_eq!(json.get("diagnostics"), Some(&Json::Arr(Vec::new())));
}

/// Flow-analyzer family (`PPHW040`–`PPHW044`): seeded channel mutants of
/// the clean two-stage metapipeline, one per code.
#[test]
fn flow_family_mutants_raise_their_stable_codes() {
    let cfg = VerifyConfig::default();

    // PPHW042: one word below the double-buffered capacity leaves a
    // single slot — producer and consumer serialize.
    let mut stall = two_stage_metapipeline(BufferKind::DoubleBuffer);
    stall.buffers[0].words = 63;
    let report = verify_design(&stall, &cfg);
    assert!(report.has(DiagCode::ChannelStall), "{}", report.to_text());

    // PPHW041: capacity below one token is a guaranteed deadlock.
    let mut dead = two_stage_metapipeline(BufferKind::DoubleBuffer);
    dead.buffers[0].words = 31;
    let report = verify_design(&dead, &cfg);
    assert!(
        report.has(DiagCode::ChannelDeadlock),
        "{}",
        report.to_text()
    );

    // PPHW040: FIFO reads are destructive, so endpoints moving different
    // volumes per iteration are rate-inconsistent.
    let mut skewed = two_stage_metapipeline(BufferKind::Fifo);
    if let Node::Ctrl(c) = &mut skewed.root {
        if let Node::Unit(u) = &mut c.stages[1] {
            u.elems = 32;
        }
    }
    let report = verify_design(&skewed, &cfg);
    assert!(report.has(DiagCode::RateMismatch), "{}", report.to_text());

    // PPHW043: a channel read but written by no one starves its consumer.
    let mut starved = two_stage_metapipeline(BufferKind::DoubleBuffer);
    if let Node::Ctrl(c) = &mut starved.root {
        c.stages[0] = unit("load", vec![], vec![]);
    }
    let report = verify_design(&starved, &cfg);
    assert!(report.has(DiagCode::StarvedChannel), "{}", report.to_text());

    // PPHW044 (warning): capacity beyond the minimal overlap depth is
    // reclaimable area, but not an error — the report stays clean.
    let mut fat = two_stage_metapipeline(BufferKind::DoubleBuffer);
    fat.buffers[0].words = 128;
    let report = verify_design(&fat, &cfg);
    assert!(
        report.has(DiagCode::OverProvisionedChannel),
        "{}",
        report.to_text()
    );
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.warning_count(), 1, "{}", report.to_text());
}

/// `pphw_verify::flow::infer_capacities` repairs an over-provisioned
/// channel down to the minimal safe depth and reports the change; the
/// repaired design is flow-clean.
#[test]
fn infer_capacities_repairs_over_provisioned_channels() {
    let mut fat = two_stage_metapipeline(BufferKind::DoubleBuffer);
    fat.buffers[0].words = 256;
    let changes = pphw_verify::flow::infer_capacities(&mut fat);
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].old_words, 256);
    assert_eq!(changes[0].new_words, 64);
    assert_eq!(fat.buffers[0].words, 64);
    let report = verify_design(&fat, &VerifyConfig::default());
    assert!(
        report.is_clean() && report.warning_count() == 0,
        "{}",
        report.to_text()
    );
}
