//! Compiler-driver tests: options plumbing, error paths, and the
//! level-to-design mapping.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw::{compile, evaluate, CompileOptions, OptLevel, PphwError};
use pphw_hw::design::{CtrlKind, DesignStyle};
use pphw_ir::Program;
use pphw_sim::SimConfig;

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

fn sumrows_program() -> Program {
    parse(
        "program sumrows(m, n) {
           input x: Float[m, n]
           let sums = map(m) { (i) =>
             let rowsum = fold(n) {
               acc rowsum: Float = splat(0.0)
               (j) (acc) => yield acc + x(i, j)
               combine (a, b) { yield a + b }
             }
             yield rowsum
           }
           return (sums)
         }",
    )
}

#[test]
fn indivisible_tile_is_a_compile_error() {
    let prog = sumrows_program();
    let opts = CompileOptions::new(&[("m", 100), ("n", 64)])
        .tiles(&[("m", 33)])
        .opt(OptLevel::Tiled);
    match compile(&prog, &opts) {
        Err(PphwError::Tile(_)) => {}
        other => panic!("expected tile error, got {other:?}"),
    }
}

#[test]
fn baseline_ignores_tiles() {
    // The same bad tile config compiles fine at the baseline level.
    let prog = sumrows_program();
    let opts = CompileOptions::new(&[("m", 100), ("n", 64)])
        .tiles(&[("m", 33)])
        .opt(OptLevel::Baseline);
    let compiled = compile(&prog, &opts).expect("baseline ignores tiling");
    assert_eq!(compiled.design.style, DesignStyle::Baseline);
}

#[test]
fn levels_map_to_design_styles() {
    let prog = sumrows_program();
    let base = CompileOptions::new(&[("m", 64), ("n", 64)]).tiles(&[("m", 16)]);
    for (level, style) in [
        (OptLevel::Baseline, DesignStyle::Baseline),
        (OptLevel::Tiled, DesignStyle::Tiled),
        (OptLevel::Metapipelined, DesignStyle::Metapipelined),
    ] {
        let compiled = compile(&prog, &base.clone().opt(level)).expect("compiles");
        assert_eq!(compiled.design.style, style);
    }
}

#[test]
fn metapipelined_level_has_memory_overlap_tiled_does_not() {
    let prog = sumrows_program();
    let base = CompileOptions::new(&[("m", 256), ("n", 256)]).tiles(&[("m", 32)]);
    let tiled = compile(&prog, &base.clone().opt(OptLevel::Tiled)).expect("tiled");
    let meta = compile(&prog, &base.clone().opt(OptLevel::Metapipelined)).expect("meta");
    let has_mem_meta = |d: &pphw_hw::Design| {
        let mut found = false;
        d.root.visit_ctrls(&mut |c| {
            if c.kind == CtrlKind::Metapipeline {
                let mem = c.stages.iter().any(|s| {
                    let mut m = false;
                    s.visit_units(&mut |u| {
                        if !u.streams.is_empty() {
                            m = true;
                        }
                    });
                    m
                });
                if mem {
                    found = true;
                }
            }
        });
        found
    };
    assert!(has_mem_meta(&meta.design), "{}", meta.design.to_diagram());
    assert!(
        !has_mem_meta(&tiled.design),
        "{}",
        tiled.design.to_diagram()
    );
}

#[test]
fn interchange_toggle_changes_the_ir() {
    // Figure 5a (no interchange) vs 5b for a gemm-shaped nest.
    let prog = parse(
        "program gemm(m, n, p) {
           input x: Float[m, p]
           input y: Float[p, n]
           let prod = map(m, n) { (i, j) =>
             let dot = fold(p) {
               acc dot: Float = splat(0.0)
               (k) (acc) => yield acc + x(i, k) * y(k, j)
               combine (a, b) { yield a + b }
             }
             yield dot
           }
           return (prod)
         }",
    );
    let base = CompileOptions::new(&[("m", 32), ("n", 32), ("p", 32)]).tiles(&[
        ("m", 8),
        ("n", 8),
        ("p", 8),
    ]);
    let with_ic = compile(&prog, &base.clone()).expect("interchange on");
    let without = compile(&prog, &base.clone().interchange(false)).expect("interchange off");
    assert_ne!(
        pphw_ir::pretty::emit_program(&with_ic.program),
        pphw_ir::pretty::emit_program(&without.program)
    );
}

#[test]
fn meta_inner_par_only_affects_metapipelined_level() {
    let prog = sumrows_program();
    let base = CompileOptions::new(&[("m", 256), ("n", 256)])
        .tiles(&[("m", 32)])
        .inner_par(16)
        .meta_inner_par(64);
    let sim = SimConfig::default();
    let tiled16 = compile(&prog, &base.clone().opt(OptLevel::Tiled)).expect("t");
    let tiled_ref = compile(
        &prog,
        &CompileOptions::new(&[("m", 256), ("n", 256)])
            .tiles(&[("m", 32)])
            .inner_par(16)
            .opt(OptLevel::Tiled),
    )
    .expect("t2");
    assert_eq!(
        tiled16.simulate(&sim).expect("simulates").cycles,
        tiled_ref.simulate(&sim).expect("simulates").cycles,
        "meta_inner_par must not change the tiled design"
    );
    let meta64 = compile(&prog, &base.clone().opt(OptLevel::Metapipelined)).expect("m");
    let meta16 = compile(
        &prog,
        &CompileOptions::new(&[("m", 256), ("n", 256)])
            .tiles(&[("m", 32)])
            .inner_par(16)
            .opt(OptLevel::Metapipelined),
    )
    .expect("m2");
    assert!(
        meta64.simulate(&sim).expect("simulates").cycles
            < meta16.simulate(&sim).expect("simulates").cycles,
        "wider metapipelined design should be faster"
    );
}

#[test]
fn evaluate_reports_three_monotone_rows() {
    let prog = sumrows_program();
    let opts = CompileOptions::new(&[("m", 512), ("n", 256)]).tiles(&[("m", 64)]);
    let eval = evaluate(&prog, &opts, &SimConfig::default()).expect("evaluates");
    let b = eval.row(OptLevel::Baseline);
    let t = eval.row(OptLevel::Tiled);
    let m = eval.row(OptLevel::Metapipelined);
    assert!(b.cycles >= t.cycles, "tiling should help sumrows");
    assert!(t.cycles >= m.cycles, "metapipelining should help sumrows");
    assert!(m.speedup >= t.speedup && t.speedup > 1.0);
}

#[test]
fn options_builders_chain() {
    let opts = CompileOptions::new(&[("n", 10)])
        .tiles(&[("n", 5)])
        .inner_par(8)
        .interchange(false)
        .meta_inner_par(32)
        .opt(OptLevel::Tiled);
    assert_eq!(opts.inner_par, 8);
    assert!(!opts.interchange);
    assert_eq!(opts.meta_inner_par, Some(32));
    assert_eq!(opts.env().get("n"), Some(&10));
}

#[test]
fn opt_level_display_names() {
    assert_eq!(OptLevel::Baseline.to_string(), "baseline");
    assert_eq!(OptLevel::Tiled.to_string(), "+tiling");
    assert_eq!(
        OptLevel::Metapipelined.to_string(),
        "+tiling+metapipelining"
    );
}
