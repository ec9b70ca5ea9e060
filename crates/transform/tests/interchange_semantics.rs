//! Semantic equivalence of pattern interchange (§4, Table 3, Figure 5) and
//! the split heuristic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::pretty::emit_program;
use pphw_ir::Program;
use pphw_transform::interchange::{interchange_program, split_multifolds};
use pphw_transform::{strip_mine_program, TileConfig};

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

fn mat_f32(r: usize, c: usize, f: impl Fn(usize, usize) -> f32) -> Value {
    let mut data = Vec::with_capacity(r * c);
    for i in 0..r {
        for j in 0..c {
            data.push(f(i, j));
        }
    }
    Value::tensor_f32(&[r, c], data)
}

/// gemm in PPL: x.map{row => y-col map { dot-product fold } } expressed as
/// map(m,n){ fold(p) }.
fn gemm_program() -> Program {
    parse(
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
    )
}

fn run_gemm(prog: &Program, sizes: &[(&str, i64)]) -> Vec<f32> {
    let (m, n, p) = (
        sizes[0].1 as usize,
        sizes[1].1 as usize,
        sizes[2].1 as usize,
    );
    let x = mat_f32(m, p, |i, j| ((i + 2 * j) % 7) as f32);
    let y = mat_f32(p, n, |i, j| ((3 * i + j) % 5) as f32);
    Interpreter::new(prog, sizes).run(vec![x, y]).unwrap()[0].as_f32_slice()
}

/// Table 3: tiling gemm then interchanging the strided reduction out of
/// the unstrided map keeps the result identical.
#[test]
fn gemm_strip_mine_then_interchange() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 4), ("n", 4), ("p", 4)], &sizes);

    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    tiled.validate().unwrap();
    let inter = interchange_program(&tiled, &cfg);
    inter.validate().unwrap();

    let base = run_gemm(&prog, &sizes);
    let after_tile = run_gemm(&tiled, &sizes);
    let after_inter = run_gemm(&inter, &sizes);
    assert_eq!(base, after_tile, "strip mining changed gemm");
    assert_eq!(
        base,
        after_inter,
        "interchange changed gemm:\n{}",
        emit_program(&inter)
    );
}

/// Interchange actually fires on tiled gemm: the strided reduction domain
/// moves outside the tile-level map.
#[test]
fn gemm_interchange_restructures() {
    let prog = gemm_program();
    let sizes = [("m", 8), ("n", 12), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 4), ("n", 4), ("p", 4)], &sizes);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    let inter = interchange_program(&tiled, &cfg);
    let before = emit_program(&tiled);
    let after = emit_program(&inter);
    assert_ne!(before, after, "interchange did not fire");
    // The interchanged form has a p/4-strided multiFold carrying a (4,4)
    // tensor accumulator (the partial output tile).
    assert!(
        after.contains("multiFold((p / 4)) {\n        acc dot_vec: Float[4, 4]"),
        "got:\n{after}"
    );
}

/// Interchange without any strided pattern is the identity.
#[test]
fn interchange_noop_on_untiled() {
    let prog = gemm_program();
    let sizes = [("m", 4), ("n", 4), ("p", 4)];
    let cfg = TileConfig::new(&[], &sizes);
    let inter = interchange_program(&prog, &cfg);
    assert_eq!(emit_program(&prog), emit_program(&inter));
}

/// A k-means-shaped kernel: for each point, find the closest centroid
/// (strided argmin after tiling k), then count points per centroid.
/// Exercises split + interchange on an imperfect nest with a
/// data-dependent accumulator location.
fn kmeans_assign_program() -> Program {
    parse(
        "program assign(n, k, d) {
           input points: Float[n, d]
           input centroids: Float[k, d]
           let counts = multiFold(n) {
             acc counts: Float[k] = splat(0.0)
             (i) =>
             pre {
               // argmin over centroids of squared distance
               let best = fold(k) {
                 acc best: (Float, Int) = splat(3.4028235e38, -1)
                 (j) (acc) =>
                   let dist = fold(d) {
                     acc dist: Float = splat(0.0)
                     (p) (acc2) => yield acc2 + square(points(i, p) - centroids(j, p))
                     combine (a, b) { yield a + b }
                   }
                   yield if (acc._1 < dist) acc else (dist, j)
                 combine (a, b) { yield if (a._1 < b._1) a else b }
               }
               let minIdx = best._2
             }
             update counts @ (minIdx) [] (acc) { yield acc + 1.0 }
             combine counts (a, b) { yield a + b }
           }
           return (counts)
         }",
    )
}

fn run_assign(prog: &Program, sizes: &[(&str, i64)]) -> Vec<f32> {
    let (n, k, d) = (
        sizes[0].1 as usize,
        sizes[1].1 as usize,
        sizes[2].1 as usize,
    );
    let points = mat_f32(n, d, |i, j| ((i * 13 + j * 5) % 31) as f32);
    let centroids = mat_f32(k, d, |i, j| ((i * 17 + j * 3) % 29) as f32);
    Interpreter::new(prog, sizes)
        .run(vec![points, centroids])
        .unwrap()[0]
        .as_f32_slice()
}

/// Figure 5 pipeline on the k-means assignment: strip mine (n, k), split
/// the per-point argmin out of the count fold, interchange the strided
/// centroid loop out of the per-point map. Values must be preserved at
/// every step.
#[test]
fn kmeans_split_and_interchange_preserve_semantics() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);

    let base = run_assign(&prog, &sizes);

    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    tiled.validate().unwrap();
    assert_eq!(
        base,
        run_assign(&tiled, &sizes),
        "strip mining broke kmeans"
    );

    let split = split_multifolds(&tiled, &cfg);
    split.validate().unwrap();
    assert_eq!(
        base,
        run_assign(&split, &sizes),
        "split broke kmeans:\n{}",
        emit_program(&split)
    );

    let inter = interchange_program(&split, &cfg);
    inter.validate().unwrap();
    assert_eq!(
        base,
        run_assign(&inter, &sizes),
        "interchange broke kmeans:\n{}",
        emit_program(&inter)
    );
}

/// The split heuristic extracts the strided argmin into a map over the
/// point tile, and interchange then moves the strided centroid-tile loop
/// out of that map (Figure 5b's minDistWithInds structure).
#[test]
fn kmeans_split_extracts_intermediate() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    let split = split_multifolds(&tiled, &cfg);
    let text = emit_program(&split);
    // A new map over the point tile domain (4) computing the per-point best
    // appears before the counting fold.
    assert!(text.contains("bests"), "split did not extract:\n{text}");
    let inter = interchange_program(&split, &cfg);
    let itext = emit_program(&inter);
    assert!(
        itext.contains("multiFold((k / 4)) {\n        acc best_vec: (Float, Int)[4]"),
        "interchange did not produce the per-tile argmin vector:\n{itext}"
    );
}

/// The split heuristic refuses when the intermediate exceeds the budget.
#[test]
fn split_respects_budget() {
    let prog = kmeans_assign_program();
    let sizes = [("n", 16), ("k", 8), ("d", 4)];
    let cfg = TileConfig::new(&[("n", 4), ("k", 4)], &sizes).with_budget(4);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    let split = split_multifolds(&tiled, &cfg);
    assert_eq!(
        emit_program(&tiled),
        emit_program(&split),
        "split fired despite tiny budget"
    );
}

/// Rule 2: an unstrided fold whose update body is a strided write-once
/// `MultiFold` (a tiled map producing row tiles) merged elementwise into
/// the accumulator. Interchange moves the strided tile loop outermost,
/// turning the nest into a write-once `MultiFold` of scalar folds.
fn rule2_program() -> Program {
    parse(
        "program rowacc(n, d) {
           input x: Float[n, d]
           let colsums = fold(n) {
             acc colsums: Float[d] = splat(0.0)
             (i) (acc) =>
               // W: strided write-once multiFold producing the scaled row
               // in d/4-sized tiles (the outer pattern of a tiled map).
               let w = multiFold(d / 4) {
                 acc w: Float[d] = splat(0.0)
                 (ii) =>
                 update w @ (ii * size(4)) [4] (reg) {
                   let tile = map(4) { (j) => yield 2.0 * x(i, ii * 4 + j) }
                   yield tile
                 }
                 combine w _
               }
               // Elementwise merge of the accumulator with W's row.
               let merged = map(d) { (r) => yield acc(r) + w(r) }
               yield merged
             combine (a, b) { yield a + b }
           }
           return (colsums)
         }",
    )
}

#[test]
fn rule2_strided_multifold_moves_out_of_fold() {
    let prog = rule2_program();
    let sizes = [("n", 8), ("d", 16)];
    let cfg = TileConfig::new(&[], &sizes);
    let inter = interchange_program(&prog, &cfg);
    inter.validate().unwrap();
    let before = emit_program(&prog);
    let after = emit_program(&inter);
    assert_ne!(before, after, "rule 2 did not fire:\n{before}");
    // The strided tile domain is now outermost (a d/4-strided multiFold
    // carrying 4-wide regions of scalar folds over n).
    assert!(
        after.contains("multiFold((d / 4))"),
        "expected strided outer loop:\n{after}"
    );
}

#[test]
fn rule2_preserves_semantics() {
    let prog = rule2_program();
    let sizes = [("n", 8), ("d", 16)];
    let cfg = TileConfig::new(&[], &sizes);
    let inter = interchange_program(&prog, &cfg);
    let x = mat_f32(8, 16, |i, j| ((i * 5 + j * 3) % 11) as f32);
    let base = Interpreter::new(&prog, &sizes)
        .run(vec![x.clone()])
        .unwrap();
    let got = Interpreter::new(&inter, &sizes).run(vec![x]).unwrap();
    assert!(
        base[0].approx_eq(&got[0], 1e-4),
        "rule 2 broke semantics:\n{}",
        emit_program(&inter)
    );
}
