//! Focused tests for tile-copy insertion and the cleanup passes as they
//! compose in the full pipeline.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::pretty::emit_program;
use pphw_ir::{Block, Op, Program};
use pphw_transform::copies::insert_copies;
use pphw_transform::cse::cse_program;
use pphw_transform::dce::dce_program;
use pphw_transform::fusion::fuse_program;
use pphw_transform::motion::hoist_program;
use pphw_transform::{strip_mine_program, tile_program, TileConfig};

fn count_copies(prog: &Program) -> usize {
    fn walk(b: &Block, n: &mut usize) {
        for s in &b.stmts {
            match &s.op {
                Op::Copy(_) => *n += 1,
                Op::Pattern(p) => {
                    for cb in p.child_blocks() {
                        walk(cb, n);
                    }
                }
                _ => {}
            }
        }
    }
    let mut n = 0;
    walk(&prog.body, &mut n);
    n
}

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

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

fn doubling_program() -> Program {
    parse(
        "program double(d) {
           input x: Float[d]
           let y = map(d) { (i) => yield 2.0 * x(i) }
           return (y)
         }",
    )
}

#[test]
fn copy_insertion_on_untiled_program_preloads_small_tensors() {
    // Without strided indices, the only copy the inserter may create is a
    // whole-tensor preload — and only when the tensor fits the budget.
    let prog = doubling_program();
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    assert_eq!(count_copies(&prog), 0);
    let preloaded = insert_copies(&prog, &cfg);
    assert_eq!(count_copies(&preloaded), 1, "{}", emit_program(&preloaded));
    // With no budget, nothing is preloaded.
    let tight = TileConfig::new(&[("d", 16)], &[("d", 64)]).with_budget(4);
    let untouched = insert_copies(&prog, &tight);
    assert_eq!(count_copies(&untouched), 0);
}

#[test]
fn strip_mined_program_gets_window_copies() {
    let prog = doubling_program();
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    let strip = strip_mine_program(&prog, &cfg).unwrap();
    let with_copies = insert_copies(&strip, &cfg);
    assert_eq!(
        count_copies(&with_copies),
        1,
        "{}",
        emit_program(&with_copies)
    );
    let text = emit_program(&with_copies);
    assert!(
        text.contains(":+ 16"),
        "expected a 16-wide window:
{text}"
    );
}

#[test]
fn copy_insertion_preserves_semantics() {
    let prog = doubling_program();
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]);
    let strip = strip_mine_program(&prog, &cfg).unwrap();
    let with_copies = insert_copies(&strip, &cfg);
    with_copies.validate().unwrap();
    let data = Value::tensor_f32(&[64], (0..64).map(|i| i as f32).collect());
    let a = Interpreter::new(&strip, &[("d", 64)])
        .run(vec![data.clone()])
        .unwrap();
    let b = Interpreter::new(&with_copies, &[("d", 64)])
        .run(vec![data])
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn copies_respect_budget() {
    let prog = doubling_program();
    // A budget too small for even one 16-element tile: no copies inserted.
    let cfg = TileConfig::new(&[("d", 16)], &[("d", 64)]).with_budget(16);
    let strip = strip_mine_program(&prog, &cfg).unwrap();
    let with_copies = insert_copies(&strip, &cfg);
    assert_eq!(count_copies(&with_copies), 0);
}

#[test]
fn small_resident_tensor_is_preloaded_at_top_level() {
    // A lookup table indexed only by local/static indices is preloaded
    // whole (the Figure 6 Pipe-0 pattern).
    let prog = parse(
        "program scalelut(n, k) {
           input lut: Float[k]
           input x: Float[n, k]
           let y = map(n, k) { (i, j) => yield x(i, j) * lut(j) }
           return (y)
         }",
    );
    let cfg = TileConfig::new(&[("n", 8)], &[("n", 32), ("k", 16)]);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let text = emit_program(&tiled);
    assert!(text.contains("lutTile"), "lut should be preloaded:\n{text}");
    // Semantics preserved.
    let lut_v = Value::tensor_f32(&[16], (0..16).map(|i| i as f32).collect());
    let x_v = Value::tensor_f32(&[32, 16], (0..512).map(|i| (i % 7) as f32).collect());
    let base = Interpreter::new(&prog, &[("n", 32), ("k", 16)])
        .run(vec![lut_v.clone(), x_v.clone()])
        .unwrap();
    let got = Interpreter::new(&tiled, &[("n", 32), ("k", 16)])
        .run(vec![lut_v, x_v])
        .unwrap();
    assert!(base[0].approx_eq(&got[0], 1e-5));
}

#[test]
fn data_dependent_tensor_is_not_copied() {
    // A gather through a data-dependent index must not get a tile copy.
    let prog = parse(
        "program gather(n, m) {
           input idx: Int[n]
           input table: Float[m]
           let y = map(n) { (i) => yield table(idx(i)) }
           return (y)
         }",
    );
    let cfg = TileConfig::new(&[("n", 8)], &[("n", 64), ("m", 256)]);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let text = emit_program(&tiled);
    assert!(
        text.contains("idxTile"),
        "the affine idx stream should be tiled:\n{text}"
    );
    assert!(
        !text.contains("tableTile"),
        "the gathered table must not be tiled:\n{text}"
    );
}

#[test]
fn cleanup_passes_are_idempotent() {
    let prog = gemm_program();
    let sizes = [("m", 16), ("n", 16), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 8), ("n", 8), ("p", 8)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let once = dce_program(&cse_program(&hoist_program(&tiled)));
    let twice = dce_program(&cse_program(&hoist_program(&once)));
    assert_eq!(emit_program(&once), emit_program(&twice));
}

#[test]
fn fusion_then_tiling_composes() {
    // An unfused two-stage program: scale then sum. Fusion inlines the
    // producer; tiling the result still matches the original semantics.
    let prog = parse(
        "program scalesum(d) {
           input x: Float[d]
           let scaled = map(d) { (i) => yield 0.5 * x(i) }
           let sum = fold(d) {
             acc sum: Float = splat(0.0)
             (i) (acc) => yield acc + scaled(i)
             combine (a, b) { yield a + b }
           }
           return (sum)
         }",
    );

    let fused = fuse_program(&prog);
    assert_eq!(fused.body.stmts.len(), 1, "producer map should be gone");

    let cfg = TileConfig::new(&[("d", 8)], &[("d", 64)]);
    let tiled = tile_program(&fused, &cfg).unwrap();
    let data = Value::tensor_f32(&[64], (0..64).map(|i| i as f32).collect());
    let base = Interpreter::new(&prog, &[("d", 64)])
        .run(vec![data.clone()])
        .unwrap();
    let got = Interpreter::new(&tiled, &[("d", 64)])
        .run(vec![data])
        .unwrap();
    assert!(base[0].approx_eq(&got[0], 1e-4));
}

#[test]
fn hoisting_enables_cse_of_duplicate_copies() {
    // Two sibling patterns both consume the same tile range; after the
    // pipeline the copies are deduplicated.
    let prog = gemm_program();
    let sizes = [("m", 16), ("n", 16), ("p", 16)];
    let cfg = TileConfig::new(&[("m", 8), ("n", 8), ("p", 8)], &sizes);
    let tiled = tile_program(&prog, &cfg).unwrap();
    // gemm has exactly two distinct tile copies (x and y) per loop level.
    let n = count_copies(&tiled);
    assert!(
        n <= 2,
        "duplicate copies survived: {n}\n{}",
        emit_program(&tiled)
    );
}
