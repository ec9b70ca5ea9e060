//! End-to-end tiling pipeline tests: strip mine → split → interchange →
//! copy insertion → cleanups, checked for semantic equivalence and for the
//! structural/cost properties of Figure 5 and Table 3.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::builder::ProgramBuilder;
use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::pattern::Init;
use pphw_ir::pretty::print_program;
use pphw_ir::size::Size;
use pphw_ir::types::{DType, ScalarType};
use pphw_ir::Program;
use pphw_transform::cost::analyze_cost;
use pphw_transform::{
    deep_verifier_runs, tile_program, tile_program_no_interchange, verification_enabled, TileConfig,
};

fn mat_f32(r: usize, c: usize, f: impl Fn(usize, usize) -> f32) -> Value {
    let mut data = Vec::with_capacity(r * c);
    for i in 0..r {
        for j in 0..c {
            data.push(f(i, j));
        }
    }
    Value::tensor_f32(&[r, c], data)
}

fn gemm_program() -> Program {
    let mut b = ProgramBuilder::new("gemm");
    let m = b.size("m");
    let n = b.size("n");
    let p = b.size("p");
    let x = b.input("x", DType::F32, vec![m.clone(), p.clone()]);
    let y = b.input("y", DType::F32, vec![p.clone(), n.clone()]);
    let out = b.with_ctx(|c| {
        c.map(vec![m, n], |c, idx| {
            let (i, j) = (idx[0], idx[1]);
            c.fold(
                "dot",
                vec![p.clone()],
                vec![],
                ScalarType::Prim(DType::F32),
                Init::zeros(),
                |c, kk, acc| {
                    let prod = c.mul(
                        c.read(x, vec![c.var(i), c.var(kk[0])]),
                        c.read(y, vec![c.var(kk[0]), c.var(j)]),
                    );
                    c.add(c.var(acc), prod)
                },
                |c, a, b2| c.add(c.var(a), c.var(b2)),
            )
        })
    });
    b.finish(vec![out])
}

#[test]
fn gemm_full_pipeline_preserves_semantics() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 4), ("n", 4), ("p", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    tiled.validate().unwrap();

    let x = mat_f32(8, 16, |i, j| ((i + 2 * j) % 7) as f32);
    let y = mat_f32(16, 12, |i, j| ((3 * i + j) % 5) as f32);
    let base = Interpreter::new(&prog, &sizes)
        .run(vec![x.clone(), y.clone()])
        .unwrap();
    let out = Interpreter::new(&tiled, &sizes).run(vec![x, y]).unwrap();
    assert!(
        base[0].approx_eq(&out[0], 1e-5),
        "pipeline broke gemm:\n{}",
        print_program(&tiled)
    );
}

/// The deep per-pass check is part of the pipeline, not something a
/// driver installs: a bare `tile_program` call runs it after each of its
/// seven passes whenever verification is on (always in debug builds).
#[test]
fn bare_tile_program_runs_the_deep_check_after_every_pass() {
    let cfg = TileConfig::new(
        &[("m", 4), ("n", 4), ("p", 4)],
        &[("m", 8), ("n", 12), ("p", 16)],
    );
    let before = deep_verifier_runs();
    tile_program(&gemm_program(), &cfg).unwrap();
    // Tests of this binary tile concurrently, so the count is a floor.
    let ran = deep_verifier_runs() - before;
    if verification_enabled() {
        assert!(ran >= 7, "deep check ran {ran} times across seven passes");
    } else {
        assert_eq!(ran, 0, "deep check must stay off when disabled");
    }
    assert_eq!(
        verification_enabled(),
        cfg!(debug_assertions) || std::env::var("PPHW_VERIFY").is_ok_and(|v| v != "0")
    );
}

/// Table 3: tile copies of both inputs appear after the full pipeline.
#[test]
fn gemm_pipeline_inserts_tile_copies() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 4), ("n", 4), ("p", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let text = print_program(&tiled);
    assert!(text.contains("xTile"), "no x tile copy:\n{text}");
    assert!(text.contains("yTile"), "no y tile copy:\n{text}");
    assert!(text.contains(".copy("), "no copy ops:\n{text}");
}

fn kmeans_assign_program() -> Program {
    let mut b = ProgramBuilder::new("assign");
    let n = b.size("n");
    let k = b.size("k");
    let d = b.size("d");
    let points = b.input("points", DType::F32, vec![n.clone(), d.clone()]);
    let centroids = b.input("centroids", DType::F32, vec![k.clone(), d.clone()]);
    let out = b.with_ctx(|c| {
        let (k2, d2) = (k.clone(), d.clone());
        c.multi_fold(
            "counts",
            vec![n.clone()],
            vec![k.clone()],
            ScalarType::Prim(DType::F32),
            Init::zeros(),
            move |c, idx| {
                let i = idx[0];
                let best = c.fold(
                    "best",
                    vec![k2.clone()],
                    vec![],
                    ScalarType::Tuple(vec![DType::F32, DType::I32]),
                    Init::argmin(),
                    |c, j, acc| {
                        let j = j[0];
                        let dist = c.fold(
                            "dist",
                            vec![d2.clone()],
                            vec![],
                            ScalarType::Prim(DType::F32),
                            Init::zeros(),
                            |c, p, acc2| {
                                let diff = c.sq_diff(
                                    c.read(points, vec![c.var(i), c.var(p[0])]),
                                    c.read(centroids, vec![c.var(j), c.var(p[0])]),
                                );
                                c.add(c.var(acc2), diff)
                            },
                            |c, a, b2| c.add(c.var(a), c.var(b2)),
                        );
                        let cand = c.tuple(vec![c.var(dist), c.var(j)]);
                        c.select(c.lt(c.field(c.var(acc), 0), c.var(dist)), c.var(acc), cand)
                    },
                    |c, a, b2| {
                        c.select(
                            c.lt(c.field(c.var(a), 0), c.field(c.var(b2), 0)),
                            c.var(a),
                            c.var(b2),
                        )
                    },
                );
                let min_idx = c.scalar("minIdx", c.field(c.var(best), 1));
                (
                    vec![pphw_ir::expr::Expr::var(min_idx)],
                    vec![],
                    Box::new(move |c2: &mut pphw_ir::builder::Ctx<'_>, acc| {
                        c2.add(c2.var(acc), c2.f32(1.0))
                    }),
                )
            },
            Some(Box::new(|c2: &mut pphw_ir::builder::Ctx<'_>, a, b2| {
                c2.add(c2.var(a), c2.var(b2))
            })),
        )
    });
    b.finish(vec![out])
}

#[test]
fn kmeans_full_pipeline_preserves_semantics() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    tiled.validate().unwrap();

    let points = mat_f32(16, 4, |i, j| ((i * 13 + j * 5) % 31) as f32);
    let centroids = mat_f32(8, 4, |i, j| ((i * 17 + j * 3) % 29) as f32);
    let base = Interpreter::new(&prog, &sizes)
        .run(vec![points.clone(), centroids.clone()])
        .unwrap();
    let out = Interpreter::new(&tiled, &sizes)
        .run(vec![points, centroids])
        .unwrap();
    assert!(
        base[0].approx_eq(&out[0], 1e-5),
        "pipeline broke kmeans:\n{}",
        print_program(&tiled)
    );
}

/// Figure 5b structure: both points and centroids get tile copies, and the
/// centroid tile copy lands inside the interchanged strided fold (reused
/// across the point tile).
#[test]
fn kmeans_pipeline_copies_both_inputs() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let text = print_program(&tiled);
    assert!(text.contains("pointsTile"), "no points tile:\n{text}");
    assert!(text.contains("centroidsTile"), "no centroids tile:\n{text}");
}

/// Figure 5c, interchanged row: centroids main-memory reads drop from
/// n×k×d (strip-mined only) to (n/b0)×k×d after interchange.
#[test]
fn kmeans_cost_matches_figure_5c() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let env = Size::env(&sizes);
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);

    let strip = tile_program_no_interchange(&prog, &cfg).unwrap();
    let inter = tile_program(&prog, &cfg).unwrap();

    let cost_strip = analyze_cost(&strip);
    let cost_inter = analyze_cost(&inter);

    let (n, k, d, b0) = (16i64, 8, 4, 4);

    // Points are read exactly once in both variants.
    let pts_strip = cost_strip
        .get("points")
        .expect("points cost")
        .dram_reads
        .eval(&env)
        .unwrap();
    let pts_inter = cost_inter
        .get("points")
        .expect("points cost")
        .dram_reads
        .eval(&env)
        .unwrap();
    assert_eq!(pts_strip, n * d, "strip-mined points reads");
    assert_eq!(pts_inter, n * d, "interchanged points reads");

    // Centroids: n×k×d strip-mined, (n/b0)×k×d after interchange.
    let cen_strip = cost_strip
        .get("centroids")
        .expect("centroids")
        .dram_reads
        .eval(&env)
        .unwrap();
    let cen_inter = cost_inter
        .get("centroids")
        .expect("centroids")
        .dram_reads
        .eval(&env)
        .unwrap();
    assert_eq!(cen_strip, n * k * d, "strip-mined centroids reads");
    assert_eq!(cen_inter, (n / b0) * k * d, "interchanged centroids reads");
    assert!(
        cen_inter < cen_strip,
        "interchange must reduce centroid traffic by b0"
    );
}

/// The cost report renders a readable table with symbolic formulas.
#[test]
fn cost_report_table_renders() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let report = analyze_cost(&tiled);
    let table = report.to_table(&Size::env(&sizes));
    assert!(table.contains("points"), "{table}");
    assert!(table.contains("centroids"), "{table}");
}

/// Without tiling, the pipeline is the identity (modulo cleanups) and the
/// cost model charges full re-reads per use.
#[test]
fn untiled_gemm_cost_is_quadratic_in_reuse() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let env = Size::env(&sizes);
    let report = analyze_cost(&prog);
    let (m, n, p) = (8i64, 12, 16);
    // Untransformed gemm reads each input element once per (i,j,k).
    assert_eq!(
        report.get("x").unwrap().dram_reads.eval(&env).unwrap(),
        m * n * p
    );
    assert_eq!(
        report.get("y").unwrap().dram_reads.eval(&env).unwrap(),
        m * n * p
    );
}

/// Tiling reduces gemm's y traffic by the m-tile factor and x traffic by
/// the n-tile factor.
#[test]
fn tiled_gemm_cost_drops() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let env = Size::env(&sizes);
    let cfg = TileConfig::new(&[("m", 4), ("n", 4), ("p", 4)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let report = analyze_cost(&tiled);
    let untiled = analyze_cost(&prog);
    let before = untiled.total_reads(&env).unwrap();
    let after = report.total_reads(&env).unwrap();
    assert!(
        after * 2 < before,
        "tiling should cut gemm traffic at least 2x: {after} vs {before}"
    );
}
