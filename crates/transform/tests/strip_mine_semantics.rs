//! Semantic equivalence of strip mining (Table 1 / Table 2): the tiled
//! program must compute exactly what the original computes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::size::Size;
use pphw_ir::Program;
use pphw_transform::{strip_mine_program, TileConfig};

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

/// `map(d) { (i) => yield <body> }` over one `Float[d]` input `x`.
fn map_1d(name: &str, body: &str) -> Program {
    parse(&format!(
        "program {name}(d) {{
           input x: Float[d]
           let y = map(d) {{ (i) => yield {body} }}
           return (y)
         }}"
    ))
}

/// `sumrows` as a map of a row `fold`.
fn nested_sumrows(name: &str) -> Program {
    parse(&format!(
        "program {name}(m, n) {{
           input x: Float[m, n]
           let sums = map(m) {{ (i) =>
             let rowsum = fold(n) {{
               acc rowsum: Float = splat(0.0)
               (j) (acc) => yield acc + x(i, j)
               combine (a, b) {{ yield a + b }}
             }}
             yield rowsum
           }}
           return (sums)
         }}"
    ))
}

fn check_equiv(prog: &Program, cfg: &TileConfig, sizes: &[(&str, i64)], inputs: Vec<Value>) {
    let tiled = strip_mine_program(prog, cfg).expect("strip mining succeeds");
    tiled.validate().expect("tiled program validates");
    let base = Interpreter::new(prog, sizes)
        .run(inputs.clone())
        .expect("original runs");
    let out = Interpreter::new(&tiled, sizes)
        .run(inputs)
        .expect("tiled runs");
    assert_eq!(base.len(), out.len());
    for (a, b) in base.iter().zip(&out) {
        assert!(
            a.approx_eq(b, 1e-5),
            "strip-mined output differs:\noriginal: {a:?}\ntiled: {b:?}\n\ntiled IR:\n{}",
            pphw_ir::pretty::emit_program(&tiled)
        );
    }
}

fn vec_f32(n: usize, f: impl Fn(usize) -> f32) -> Value {
    Value::tensor_f32(&[n], (0..n).map(f).collect())
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

/// Table 2 row 1: element-wise map.
#[test]
fn strip_mine_map_1d() {
    let prog = map_1d("double", "2.0 * x(i)");
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    check_equiv(&prog, &cfg, &[("d", 64)], vec![vec_f32(64, |i| i as f32)]);
}

/// 2-D map with both dimensions tiled.
#[test]
fn strip_mine_map_2d_both_dims() {
    let prog = parse(
        "program scale2d(m, n) {
           input x: Float[m, n]
           let y = map(m, n) { (i, j) => yield x(i, j) + 1.0 }
           return (y)
         }",
    );
    let cfg = TileConfig::new(&[("m", 4), ("n", 8)], &[("m", 12), ("n", 24)]);
    check_equiv(
        &prog,
        &cfg,
        &[("m", 12), ("n", 24)],
        vec![mat_f32(12, 24, |i, j| (i * 31 + j) as f32)],
    );
}

/// 2-D map with only one dimension tiled (the other stays inner).
#[test]
fn strip_mine_map_2d_one_dim() {
    let prog = parse(
        "program scale1of2(m, n) {
           input x: Float[m, n]
           let y = map(m, n) { (i, j) => yield x(i, j) * 0.5 }
           return (y)
         }",
    );
    let cfg = TileConfig::new(&[("m", 3)], &[("m", 9), ("n", 5)]);
    check_equiv(
        &prog,
        &cfg,
        &[("m", 9), ("n", 5)],
        vec![mat_f32(9, 5, |i, j| (i + j * 7) as f32)],
    );
}

/// Scalar full fold (tpchq6-style reduction).
#[test]
fn strip_mine_scalar_fold() {
    let prog = parse(
        "program sum(d) {
           input x: Float[d]
           let sum = fold(d) {
             acc sum: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a + b }
           }
           return (sum)
         }",
    );
    let cfg = TileConfig::new(&[("d", 8)], &[("d", 48)]);
    check_equiv(&prog, &cfg, &[("d", 48)], vec![vec_f32(48, |i| i as f32)]);
}

/// Argmin-style tuple fold: combine is a selection, not an addition.
#[test]
fn strip_mine_argmin_fold() {
    let prog = parse(
        "program argmin(d) {
           input x: Float[d]
           let argmin = fold(d) {
             acc argmin: (Float, Int) = splat(3.4028235e38, -1)
             (i) (acc) => yield if (acc._1 < x(i)) acc else (x(i), i)
             combine (a, b) { yield if (a._1 < b._1) a else b }
           }
           return (argmin)
         }",
    );
    let cfg = TileConfig::new(&[("d", 6)], &[("d", 24)]);
    // Distinct values so the argmin is unique and order-insensitive.
    check_equiv(
        &prog,
        &cfg,
        &[("d", 24)],
        vec![vec_f32(24, |i| ((i * 7 + 3) % 24) as f32)],
    );
}

/// Table 2 row 2: sumrows as a MultiFold with a tracked (point) update.
#[test]
fn strip_mine_sumrows_tracked() {
    let prog = parse(
        "program sumrows(m, n) {
           input x: Float[m, n]
           let rowsums = multiFold(m, n) {
             acc rowsums: Float[m] = splat(0.0)
             (i, j) =>
             update rowsums @ (i) [] (acc) { yield acc + x(i, j) }
             combine rowsums (a, b) { yield a + b }
           }
           return (rowsums)
         }",
    );
    let cfg = TileConfig::new(&[("m", 4), ("n", 8)], &[("m", 16), ("n", 32)]);
    check_equiv(
        &prog,
        &cfg,
        &[("m", 16), ("n", 32)],
        vec![mat_f32(16, 32, |i, j| ((i * j) % 13) as f32)],
    );
}

/// Histogram-style dynamic-location MultiFold (untracked dimension).
#[test]
fn strip_mine_dynamic_location_fold() {
    let prog = parse(
        "program bincount(n, k) {
           input x: Int[n]
           let counts = multiFold(n) {
             acc counts: Float[k] = splat(0.0)
             (i) =>
             pre { let bucket = x(i) }
             update counts @ (bucket) [] (acc) { yield acc + 1.0 }
             combine counts (a, b) { yield a + b }
           }
           return (counts)
         }",
    );
    let cfg = TileConfig::new(&[("n", 8)], &[("n", 32), ("k", 4)]);
    let data = Value::tensor_i32(&[32], (0..32).map(|i| (i * 5 + 1) % 4).collect());
    check_equiv(&prog, &cfg, &[("n", 32), ("k", 4)], vec![data]);
}

/// Table 2 row 3: filter via FlatMap.
#[test]
fn strip_mine_filter() {
    let prog = parse(
        "program pos(d) {
           input x: Float[d]
           let pos = flatMap(d) { (i) =>
             let items = [if (10.0 < x(i)) x(i)]
             yield items
           }
           return (pos)
         }",
    );
    let cfg = TileConfig::new(&[("d", 8)], &[("d", 40)]);
    check_equiv(
        &prog,
        &cfg,
        &[("d", 40)],
        vec![vec_f32(40, |i| ((i * 11) % 23) as f32)],
    );
}

/// Table 2 row 4: histogram via GroupByFold, tiled into a dict merge.
#[test]
fn strip_mine_histogram() {
    let prog = parse(
        "program hist(d) {
           input x: Int[d]
           let hist = groupByFold(d) {
             acc hist: Int = splat(0)
             (i) =>
             key = x(i) / 10
             update @ () [] (acc) { yield acc + 1 }
             combine (a, b) { yield a + b }
           }
           return (hist)
         }",
    );
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    let data = Value::tensor_i32(&[64], (0..64).map(|i| (i * 7) % 50).collect());
    check_equiv(&prog, &cfg, &[("d", 64)], vec![data]);
}

/// Nested patterns: only the inner fold's dimension tiled.
#[test]
fn strip_mine_nested_inner_only() {
    let prog = nested_sumrows("sumrows_nested");
    let cfg = TileConfig::new(&[("n", 8)], &[("m", 6), ("n", 32)]);
    check_equiv(
        &prog,
        &cfg,
        &[("m", 6), ("n", 32)],
        vec![mat_f32(6, 32, |i, j| (i * 3 + j) as f32)],
    );
}

/// Nested patterns with both levels tiled.
#[test]
fn strip_mine_nested_both_levels() {
    let prog = nested_sumrows("sumrows_nested2");
    let cfg = TileConfig::new(&[("m", 2), ("n", 8)], &[("m", 6), ("n", 32)]);
    check_equiv(
        &prog,
        &cfg,
        &[("m", 6), ("n", 32)],
        vec![mat_f32(6, 32, |i, j| ((i * 17 + j * 3) % 29) as f32)],
    );
}

/// Strip mining with no matching tile config is the identity.
#[test]
fn strip_mine_noop_without_config() {
    let prog = map_1d("id", "x(i)");
    let cfg = TileConfig::new(&[], &[("d", 16)]);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    assert_eq!(
        pphw_ir::pretty::emit_program(&tiled),
        pphw_ir::pretty::emit_program(&prog)
    );
}

/// Indivisible tile sizes are rejected.
#[test]
fn strip_mine_rejects_indivisible() {
    let prog = map_1d("bad", "x(i)");
    let cfg = TileConfig::new(&[("d", 7)], &[("d", 16)]);
    assert!(strip_mine_program(&prog, &cfg).is_err());
}

/// The tiled program validates and contains a strided (d/b) domain.
#[test]
fn strip_mine_introduces_strided_domain() {
    let prog = map_1d("double", "2.0 * x(i)");
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    let text = pphw_ir::pretty::emit_program(&tiled);
    assert!(text.contains("multiFold((d / 16))"), "got:\n{text}");
    assert!(text.contains("map(16)"), "got:\n{text}");
}

/// Two independent outputs both get tiled.
#[test]
fn strip_mine_multiple_outputs() {
    let prog = parse(
        "program two(d) {
           input x: Float[d]
           let doubled = map(d) { (i) => yield 2.0 * x(i) }
           let sum = fold(d) {
             acc sum: Float = splat(0.0)
             (i) (acc) => yield acc + x(i)
             combine (a, b) { yield a + b }
           }
           return (doubled, sum)
         }",
    );
    let cfg = TileConfig::new(&[("d", 4)], &[("d", 16)]);
    check_equiv(&prog, &cfg, &[("d", 16)], vec![vec_f32(16, |i| i as f32)]);
}

/// Tile size equal to the dimension leaves the pattern untouched.
#[test]
fn strip_mine_full_tile_is_noop() {
    let prog = map_1d("fulltile", "x(i)");
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 16)]);
    let tiled = strip_mine_program(&prog, &cfg).unwrap();
    let text = pphw_ir::pretty::emit_program(&tiled);
    assert!(text.contains("map(d)"), "got:\n{text}");
}

/// Size expressions in strided domains evaluate to the tile count.
#[test]
fn strided_domain_evaluates() {
    let s = (Size::var("d") / Size::Const(16)).simplified();
    assert_eq!(s.eval(&Size::env(&[("d", 64)])), Ok(4));
}
