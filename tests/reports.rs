//! Cross-crate reporting-surface tests: the artifacts a user reads
//! (pretty-printed IR, design diagrams, MaxJ, cost tables, simulation
//! reports) stay well-formed for every benchmark.

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_sim::SimConfig;

#[allow(clippy::type_complexity)]
fn small_opts(name: &str) -> (pphw_ir::Program, CompileOptions) {
    let spec = pphw_apps::benchmark(name).expect("benchmark exists");
    let (sizes, tiles): (Vec<(&str, i64)>, Vec<(&str, i64)>) = match name {
        "outerprod" => (vec![("m", 64), ("n", 64)], vec![("m", 16), ("n", 16)]),
        "sumrows" => (vec![("m", 64), ("n", 64)], vec![("m", 16), ("n", 64)]),
        "gemm" => (
            vec![("m", 32), ("n", 32), ("p", 32)],
            vec![("m", 8), ("n", 8), ("p", 8)],
        ),
        "tpchq6" => (vec![("n", 2048)], vec![("n", 256)]),
        "gda" => (vec![("n", 128), ("d", 16)], vec![("n", 32)]),
        "kmeans" => (
            vec![("n", 256), ("k", 8), ("d", 8)],
            vec![("n", 32), ("k", 4)],
        ),
        other => panic!("unknown {other}"),
    };
    ((spec.program)(), CompileOptions::new(&sizes).tiles(&tiles))
}

#[test]
fn pretty_printed_ir_is_stable_under_reprint() {
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        let a = pphw_ir::pretty::print_program(&prog);
        let b = pphw_ir::pretty::print_program(&prog);
        assert_eq!(a, b, "{} printing is nondeterministic", spec.name);
        assert!(!a.is_empty());
    }
}

#[test]
fn diagrams_name_every_buffer() {
    for spec in all_benchmarks() {
        let (prog, opts) = small_opts(spec.name);
        let compiled = compile(&prog, &opts.opt(OptLevel::Metapipelined)).expect("compiles");
        let diagram = compiled.design.to_diagram();
        for buf in &compiled.design.buffers {
            assert!(
                diagram.contains(&buf.name),
                "{}: buffer {} missing from diagram\n{diagram}",
                spec.name,
                buf.name
            );
        }
    }
}

#[test]
fn sim_reports_are_consistent() {
    let cfg = SimConfig::default();
    for spec in all_benchmarks() {
        let (prog, opts) = small_opts(spec.name);
        for level in OptLevel::all() {
            let compiled = compile(&prog, &opts.clone().opt(level)).expect("compiles");
            let report = compiled.simulate(&cfg).expect("simulates");
            assert!(report.cycles > 0, "{}: zero cycles", spec.name);
            assert!(
                report.dram_bytes >= report.dram_words * 4,
                "{}: burst padding cannot shrink traffic",
                spec.name
            );
            let text = report.to_text();
            assert!(text.contains("cycles"), "{text}");
            // Bandwidth fraction is a sane ratio.
            let bw = report.bandwidth_fraction(&cfg);
            assert!(
                (0.0..=1.5).contains(&bw),
                "{}: absurd bandwidth fraction {bw}",
                spec.name
            );
        }
    }
}

#[test]
fn cost_tables_cover_all_inputs() {
    for spec in all_benchmarks() {
        let (prog, opts) = small_opts(spec.name);
        let compiled = compile(&prog, &opts.opt(OptLevel::Metapipelined)).expect("compiles");
        let report = compiled.cost();
        let table = report.to_table(&compiled.options.env());
        // Every tensor input that is actually read appears in the table.
        for input in &compiled.program.inputs {
            let name = compiled.program.syms.info(*input).name.clone();
            if matches!(compiled.program.ty(*input), pphw_ir::Type::Tensor { .. })
                && report.get(&name).is_some()
            {
                assert!(table.contains(&name), "{}: {name} missing", spec.name);
            }
        }
    }
}

#[test]
fn evaluation_table_renders_for_every_benchmark() {
    let cfg = SimConfig::default();
    for spec in all_benchmarks() {
        let (prog, opts) = small_opts(spec.name);
        let eval = pphw::evaluate(&prog, &opts, &cfg).expect("evaluates");
        assert_eq!(eval.rows.len(), 3);
        assert!((eval.row(OptLevel::Baseline).speedup - 1.0).abs() < 1e-9);
        let table = eval.to_table();
        assert!(table.contains("baseline"), "{table}");
        assert!(table.contains("+tiling+metapipelining"), "{table}");
    }
}

/// Every unit of the 18 Figure 7 designs has its own name, so each stage
/// of a `SimReport` (stage statistics are keyed by unit name) is exactly
/// one unit and a bottleneck is never two units added together.
#[test]
fn no_two_units_of_a_design_share_a_stage_name() {
    let mut shared = Vec::new();
    for spec in all_benchmarks() {
        for level in OptLevel::all() {
            let compiled =
                compile(&(spec.program)(), &spec.options().opt(level)).expect("compiles");
            let mut seen = std::collections::BTreeSet::new();
            compiled.design.root.visit_units(&mut |u| {
                if !seen.insert(u.name.as_str()) {
                    shared.push(format!("{} [{level}]: `{}`", spec.name, u.name));
                }
            });
        }
    }
    assert!(
        shared.is_empty(),
        "units sharing a name:\n{}",
        shared.join("\n")
    );
}
