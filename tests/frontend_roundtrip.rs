//! Round trips between text and IR. Every `examples/*.ppl` file is the
//! printer's output of its own parse, byte for byte; and for every
//! benchmark's compiled program at each `OptLevel`, and for a seeded
//! family of random PPL texts, the program `p` satisfies
//! `parse(emit(p)) == p` structurally and prints back byte-identically
//! (emitter idempotence).
//! Every key of a parse's source map must be *exactly* a path the scope
//! walk enumerates — `SourceMap::lookup`'s ancestor fallback would
//! otherwise turn a drifted spelling into a silently coarser span.

use std::collections::BTreeSet;

use pphw_frontend::{parse_program, ParseOutput};
use pphw_ir::block::{Block, Op};
use pphw_ir::equiv::structural_diff;
use pphw_ir::path::IrPath;
use pphw_ir::pretty::emit_program;
use pphw_ir::program::Program;
use pphw_ir::types::SymTable;
use pphw_testkit::example_ppl_files;
use pphw_testkit::prop::Check;
use pphw_testkit::Rng;

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
            "{label}: second print is not byte-identical\n--- first ---\n{text}\n--- second ---\n{second}"
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

/// What the compiler hands on, strip mined and interchanged, prints as text
/// that parses back: six benchmarks at every `OptLevel`, default options.
#[test]
fn tiled_benchmarks_round_trip() {
    for spec in pphw_apps::all_benchmarks() {
        for level in pphw::OptLevel::all() {
            let compiled = pphw::compile(&(spec.program)(), &spec.options().opt(level))
                .unwrap_or_else(|e| panic!("{} {level:?}: {e}", spec.name));
            let label = format!("{}_{level:?}", spec.name);
            check_round_trip(&compiled.program, &label).unwrap_or_else(|msg| panic!("{msg}"));
        }
    }
}

/// A random float expression over `leaves`, fully parenthesized.
fn rand_expr(rng: &mut Rng, leaves: &[&str], depth: u32) -> String {
    let leaf = |rng: &mut Rng| {
        if rng.gen_range(0..4) == 0 {
            quarter(rng)
        } else {
            rng.choose(leaves).to_string()
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    let sub = |rng: &mut Rng| rand_expr(rng, leaves, depth - 1);
    match rng.gen_range(0..8) {
        0 | 1 => format!("({} + {})", sub(rng), sub(rng)),
        2 => format!("({} * {})", sub(rng), sub(rng)),
        3 => format!("min({}, {})", sub(rng), sub(rng)),
        4 => format!("max({}, {})", sub(rng), sub(rng)),
        5 => format!("abs({})", sub(rng)),
        6 => format!("square({})", sub(rng)),
        _ => {
            let cond = format!("{} < {}", leaf(rng), quarter(rng));
            format!("(if ({cond}) {} else {})", sub(rng), sub(rng))
        }
    }
}

/// A float literal: a quarter-integer in [-25, 25].
fn quarter(rng: &mut Rng) -> String {
    format!("{:?}", rng.gen_range(-100i32..101) as f32 / 4.0)
}

/// A random valid program: one to three outputs, each a 1-D map, a scalar
/// `fold`, a filter `flatMap`, a `groupByFold` or a 2-D map.
fn random_ppl(rng: &mut Rng) -> String {
    let mut text = String::from(
        "program rand(d, m) {\n  input x: Float[d]\n  input y: Float[d]\n  input w: Float[m, d]\n",
    );
    let mut outs = Vec::new();
    for k in 0..rng.gen_range(1..4) {
        let (name, rhs) = match rng.gen_range(0..5) {
            0 => {
                let depth = rng.gen_range(1..4);
                let e = rand_expr(rng, &["x(i)", "y(i)"], depth);
                (format!("map{k}"), format!("map(d) {{ (i) => yield {e} }}"))
            }
            1 => {
                let depth = rng.gen_range(1..3);
                let e = rand_expr(rng, &["x(i)"], depth);
                let name = format!("s{k}");
                let rhs = format!(
                    "fold(d) {{ acc {name}: Float = splat(0.0) (i) (acc) => \
                     yield acc + {e} combine (a, b) {{ yield a + b }} }}"
                );
                (name, rhs)
            }
            2 => {
                let cutoff = quarter(rng);
                let rhs = format!(
                    "flatMap(d) {{ (i) => let items = [if (x(i) < {cutoff}) y(i)] yield items }}"
                );
                (format!("f{k}"), rhs)
            }
            3 => {
                let name = format!("g{k}");
                let rhs = format!(
                    "groupByFold(d) {{ acc {name}: Float = splat(0.0) (i) => key = int(x(i)) \
                     update @ () [] (acc) {{ yield acc + y(i) }} combine (a, b) {{ yield a + b }} }}"
                );
                (name, rhs)
            }
            _ => {
                let depth = rng.gen_range(1..3);
                let e = rand_expr(rng, &["w(i, j)", "x(j)"], depth);
                (
                    format!("grid{k}"),
                    format!("map(m, d) {{ (i, j) => yield {e} }}"),
                )
            }
        };
        text.push_str(&format!("  let {name} = {rhs}\n"));
        outs.push(name);
    }
    text.push_str(&format!("  return ({})\n}}\n", outs.join(", ")));
    text
}

#[test]
fn random_programs_round_trip() {
    Check::new("frontend_roundtrip_random")
        .cases(64)
        .run(random_ppl, |text| {
            let out = parse_program(text, "rand.ppl").map_err(|errs| {
                let rendered: Vec<String> =
                    errs.iter().map(|e| e.render(text, "rand.ppl")).collect();
                format!(
                    "generated text failed to parse:\n{}\n{text}",
                    rendered.join("\n")
                )
            })?;
            check_round_trip(&out.program, "rand")
        });
}

#[test]
fn random_text_is_deterministic_in_the_seed() {
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let draw = || random_ppl(&mut Rng::seed_from_u64(seed));
        assert_eq!(draw(), draw(), "seed {seed}");
    }
}

#[test]
fn distinct_seeds_draw_distinct_text() {
    let draw = |seed| random_ppl(&mut Rng::seed_from_u64(seed));
    assert_ne!(draw(1), draw(2));
}
