//! End-to-end validation: every benchmark of Table 5, compiled at every
//! optimization level, computes the same values as its plain-Rust golden
//! implementation. This is the cross-crate contract — tiling, interchange,
//! copy insertion, and the design's functional semantics (the transformed
//! IR) must all preserve the program's meaning.

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};

/// Small sizes so the interpreter-based functional check stays fast while
/// still exercising several tiles per dimension.
#[allow(clippy::type_complexity)]
fn small_sizes(spec: &BenchSpec) -> (Vec<(&'static str, i64)>, Vec<(&'static str, i64)>) {
    match spec.name {
        "outerprod" => (vec![("m", 64), ("n", 48)], vec![("m", 16), ("n", 16)]),
        "sumrows" => (vec![("m", 32), ("n", 64)], vec![("m", 8), ("n", 64)]),
        "gemm" => (
            vec![("m", 24), ("n", 16), ("p", 32)],
            vec![("m", 8), ("n", 8), ("p", 8)],
        ),
        "tpchq6" => (vec![("n", 1024)], vec![("n", 128)]),
        "gda" => (vec![("n", 96), ("d", 8)], vec![("n", 16)]),
        "kmeans" => (
            vec![("n", 128), ("k", 8), ("d", 8)],
            vec![("n", 16), ("k", 4)],
        ),
        other => panic!("unknown benchmark {other}"),
    }
}

fn check_benchmark(spec: &BenchSpec, level: OptLevel) {
    let (sizes, tiles) = small_sizes(spec);
    let env = pphw_ir::Size::env(&sizes);
    let prog = (spec.program)();
    let opts = CompileOptions::new(&sizes).tiles(&tiles).opt(level);
    let compiled = compile(&prog, &opts)
        .unwrap_or_else(|e| panic!("{} failed to compile at {level}: {e}", spec.name));

    let inputs = (spec.inputs)(&env, 42);
    let got = compiled
        .execute(inputs.clone())
        .unwrap_or_else(|e| panic!("{} failed to execute at {level}: {e}", spec.name));
    let want = (spec.golden)(&inputs, &env);
    assert_eq!(got.len(), want.len(), "{} output arity", spec.name);
    for (g, w) in got.iter().zip(&want) {
        assert!(
            g.approx_eq(w, 1e-3),
            "{} at {level}: compiled output diverges from golden\n\
             transformed IR:\n{}",
            spec.name,
            pphw_ir::pretty::emit_program(&compiled.program)
        );
    }
    // The design must be non-trivial.
    let mut units = 0;
    compiled.design.root.visit_units(&mut |_| units += 1);
    assert!(units > 0, "{} produced an empty design", spec.name);
}

macro_rules! level_tests {
    ($($name:ident: $bench:expr, $level:expr;)*) => {
        $(
            #[test]
            fn $name() {
                let spec = pphw_apps::benchmark($bench).expect("benchmark exists");
                check_benchmark(&spec, $level);
            }
        )*
    };
}

level_tests! {
    outerprod_baseline_matches_golden: "outerprod", OptLevel::Baseline;
    outerprod_tiled_matches_golden: "outerprod", OptLevel::Tiled;
    outerprod_meta_matches_golden: "outerprod", OptLevel::Metapipelined;
    sumrows_baseline_matches_golden: "sumrows", OptLevel::Baseline;
    sumrows_tiled_matches_golden: "sumrows", OptLevel::Tiled;
    sumrows_meta_matches_golden: "sumrows", OptLevel::Metapipelined;
    gemm_baseline_matches_golden: "gemm", OptLevel::Baseline;
    gemm_tiled_matches_golden: "gemm", OptLevel::Tiled;
    gemm_meta_matches_golden: "gemm", OptLevel::Metapipelined;
    tpchq6_baseline_matches_golden: "tpchq6", OptLevel::Baseline;
    tpchq6_tiled_matches_golden: "tpchq6", OptLevel::Tiled;
    tpchq6_meta_matches_golden: "tpchq6", OptLevel::Metapipelined;
    gda_baseline_matches_golden: "gda", OptLevel::Baseline;
    gda_tiled_matches_golden: "gda", OptLevel::Tiled;
    gda_meta_matches_golden: "gda", OptLevel::Metapipelined;
    kmeans_baseline_matches_golden: "kmeans", OptLevel::Baseline;
    kmeans_tiled_matches_golden: "kmeans", OptLevel::Tiled;
    kmeans_meta_matches_golden: "kmeans", OptLevel::Metapipelined;
}

/// Multiple seeds: the functional contract holds across workloads.
#[test]
fn kmeans_multiple_seeds() {
    let spec = pphw_apps::benchmark("kmeans").expect("benchmark exists");
    let (sizes, tiles) = small_sizes(&spec);
    let env = pphw_ir::Size::env(&sizes);
    let prog = (spec.program)();
    let opts = CompileOptions::new(&sizes)
        .tiles(&tiles)
        .opt(OptLevel::Metapipelined);
    let compiled = compile(&prog, &opts).unwrap();
    for seed in [1u64, 7, 99, 1234] {
        let inputs = (spec.inputs)(&env, seed);
        let got = compiled.execute(inputs.clone()).unwrap();
        let want = (spec.golden)(&inputs, &env);
        assert!(
            got[0].approx_eq(&want[0], 1e-3),
            "kmeans seed {seed} diverged"
        );
    }
}

/// Every benchmark's HGL emission mentions its main templates.
#[test]
fn hgl_emission_for_all_benchmarks() {
    for spec in all_benchmarks() {
        let (sizes, tiles) = small_sizes(&spec);
        let prog = (spec.program)();
        let opts = CompileOptions::new(&sizes)
            .tiles(&tiles)
            .opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).unwrap();
        let hgl = compiled.emit_hgl();
        assert!(
            hgl.contains("extends Kernel"),
            "{}: no kernel class\n{hgl}",
            spec.name
        );
        assert!(
            hgl.contains("io.tileLoad") || hgl.contains("compute."),
            "{}: no template instantiations\n{hgl}",
            spec.name
        );
    }
}

/// Tiling + metapipelining never loses to the baseline on simulated cycles
/// for the locality-bound benchmarks.
#[test]
fn locality_benchmarks_speed_up() {
    for name in ["sumrows", "gemm", "gda", "kmeans"] {
        let spec = pphw_apps::benchmark(name).expect("benchmark exists");
        let prog = (spec.program)();
        let eval = pphw::evaluate(&prog, &spec.options(), &pphw_sim::SimConfig::default()).unwrap();
        let meta = eval.row(OptLevel::Metapipelined).speedup;
        assert!(
            meta > 2.0,
            "{name}: expected >2x metapipelined speedup, got {meta:.2}"
        );
    }
}
