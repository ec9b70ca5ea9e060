//! Round trips between text and IR. Every `examples/*.ppl` file is the
//! pretty-printer's output of its own parse, byte for byte; and for a
//! seeded family of random IR programs `parse(pretty(p))` is structurally
//! equal to `p` and prints back byte-identically (emitter idempotence).
//! Every key of a parse's source map must be *exactly* a path the scope
//! walk enumerates — `SourceMap::lookup`'s ancestor fallback would
//! otherwise turn a drifted spelling into a silently coarser span.

use std::collections::BTreeSet;

use pphw_frontend::{arbitrary::random_program, parse_program, ParseOutput};
use pphw_ir::block::{Block, Op};
use pphw_ir::equiv::structural_diff;
use pphw_ir::path::IrPath;
use pphw_ir::pretty::emit_program;
use pphw_ir::program::Program;
use pphw_ir::types::SymTable;
use pphw_testkit::example_ppl_files;
use pphw_testkit::prop::Check;

/// Every path below `at`: each statement, each pattern sub-scope.
fn walk_paths(block: &Block, syms: &SymTable, at: &IrPath, out: &mut BTreeSet<String>) {
    for (i, stmt) in block.stmts.iter().enumerate() {
        let here = at.stmt(syms, stmt, i);
        out.insert(here.to_string());
        let Op::Pattern(p) = &stmt.op else { continue };
        for scope in p.scopes() {
            let sub = here.child(scope.seg.to_string());
            out.insert(sub.to_string());
            if let Some(b) = scope.block {
                walk_paths(b, syms, &sub, out);
            }
        }
    }
}

/// The first source-map key of `out` that is no path of its program.
fn stray_source_map_key(out: &ParseOutput) -> Option<&str> {
    let root = IrPath::root(&out.program.name);
    let mut paths = BTreeSet::from([root.to_string()]);
    walk_paths(&out.program.body, &out.program.syms, &root, &mut paths);
    let mut keys = out.source_map.iter().map(|(k, _)| k);
    keys.find(|k| !paths.contains(*k))
}

/// Checks the full round trip for one program.
fn check_round_trip(p: &Program, label: &str) -> Result<(), String> {
    let text = emit_program(p);
    let out = match parse_program(&text, &format!("{label}.ppl")) {
        Ok(out) => out,
        Err(errs) => {
            let rendered: Vec<String> = errs.iter().map(|e| e.render(&text, "emitted")).collect();
            return Err(format!(
                "{label}: emitted text failed to parse:\n{}\n--- source ---\n{text}",
                rendered.join("\n")
            ));
        }
    };
    if let Some(diff) = structural_diff(p, &out.program) {
        return Err(format!(
            "{label}: round trip not structurally equal: {diff}\n--- source ---\n{text}"
        ));
    }
    if let Some(stray) = stray_source_map_key(&out) {
        return Err(format!(
            "{label}: source map records `{stray}`, which is no path of the program\n--- source ---\n{text}"
        ));
    }
    let second = emit_program(&out.program);
    if text != second {
        return Err(format!(
            "{label}: second pretty-print is not byte-identical\n--- first ---\n{text}\n--- second ---\n{second}"
        ));
    }
    Ok(())
}

/// Every `.ppl` file under `examples/` prints back as itself.
#[test]
fn benchmarks_round_trip() {
    let files = example_ppl_files();
    assert!(files.len() >= 10, "{files:?}");
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        let name = format!(
            "examples/{}",
            file.file_name().expect("a file").to_string_lossy()
        );
        let out = parse_program(&text, &name).unwrap_or_else(|errs| {
            let rendered: Vec<String> = errs.iter().map(|e| e.render(&text, &name)).collect();
            panic!("{}", rendered.join("\n"))
        });
        assert_eq!(
            emit_program(&out.program),
            text,
            "{name}: not its own print"
        );
        if let Some(stray) = stray_source_map_key(&out) {
            panic!("{name}: source map records `{stray}`, which is no path of the program");
        }
    }
}

#[test]
fn random_programs_round_trip() {
    Check::new("frontend_roundtrip_random").cases(64).run(
        |rng| rng.next_u64(),
        |seed| {
            let p = random_program(*seed);
            check_round_trip(&p, &format!("rand_seed_{seed}"))
        },
    );
}
