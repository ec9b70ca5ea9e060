//! Property-based tests: the tiling pipeline preserves program semantics
//! for arbitrary workloads and (dividing) tile-size choices — on the
//! hermetic `pphw-testkit` harness, with a pinned seed for reproducible CI
//! runs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_testkit::prop::{shrink, Check};
use pphw_testkit::{prop_assert, Rng};

use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::Program;
use pphw_transform::{tile_program, TileConfig};

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

/// A dimension that is a multiple of 8 (up to 24), with a dividing tile
/// size drawn from the small powers of two.
fn dim_and_tile(rng: &mut Rng) -> (i64, i64) {
    let v = rng.gen_range(1i64..4) * 8;
    let divs: Vec<i64> = [1i64, 2, 4, 8].into_iter().filter(|d| v % d == 0).collect();
    (v, *rng.choose(&divs))
}

/// gemm tiled with arbitrary dividing tile sizes computes the same matrix
/// as the untiled program, for random inputs.
#[test]
fn tiled_gemm_equivalent() {
    Check::new("tiled_gemm_equivalent").cases(24).run(
        |rng| {
            (
                dim_and_tile(rng),
                dim_and_tile(rng),
                dim_and_tile(rng),
                rng.gen_range(0u64..1000),
            )
        },
        |&((m, bm), (n, bn), (p, bp), seed)| {
            let prog = gemm_program();
            let sizes = [("m", m), ("n", n), ("p", p)];
            // Tile sizes must divide; clamp away degenerate 1-wide tiles.
            let cfg = TileConfig::new(
                &[("m", bm.max(2)), ("n", bn.max(2)), ("p", bp.max(2))],
                &sizes,
            );
            let tiled = match tile_program(&prog, &cfg) {
                Ok(t) => t,
                Err(e) => return Err(format!("tiling failed: {e}")),
            };
            tiled.validate().unwrap();

            let mut rng = Rng::seed_from_u64(seed);
            let xm = rng.f32_vec((m * p) as usize, -1.0, 1.0);
            let ym = rng.f32_vec((p * n) as usize, -1.0, 1.0);
            let inputs = vec![
                Value::tensor_f32(&[m as usize, p as usize], xm),
                Value::tensor_f32(&[p as usize, n as usize], ym),
            ];
            let base = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
            let got = Interpreter::new(&tiled, &sizes).run(inputs).unwrap();
            prop_assert!(
                base[0].approx_eq(&got[0], 1e-3),
                "tiled gemm diverged at m={m}/{bm} n={n}/{bn} p={p}/{bp} seed={seed}"
            );
            Ok(())
        },
    );
}

/// A predicated reduction (tpchq6 shape) survives tiling for any threshold
/// and data.
#[test]
fn tiled_predicated_fold_equivalent() {
    Check::new("tiled_predicated_fold_equivalent")
        .cases(32)
        .run_shrink(
            |rng| {
                let n = rng.gen_range(16usize..128);
                (rng.f32_vec(n, 0.0, 100.0), rng.gen_range(0.0f32..100.0))
            },
            |(data, threshold)| {
                shrink::vec(data, 16)
                    .into_iter()
                    .map(|d| (d, *threshold))
                    .collect()
            },
            |(data, threshold)| {
                let threshold = *threshold;
                // Pad to a multiple of 8 so the tile divides.
                let mut data = data.clone();
                while data.len() % 8 != 0 {
                    data.push(0.0);
                }
                let n = data.len() as i64;

                let prog = parse(&format!(
                    "program predsum(n) {{
                       input x: Float[n]
                       let s = fold(n) {{
                         acc s: Float = splat(0.0)
                         (i) (acc) => yield acc + (if ({threshold:?} < x(i)) x(i) else 0.0)
                         combine (a, b) {{ yield a + b }}
                       }}
                       return (s)
                     }}"
                ));

                let sizes = [("n", n)];
                let cfg = TileConfig::new(&[("n", 8)], &sizes);
                let tiled = tile_program(&prog, &cfg).unwrap();
                let inputs = vec![Value::tensor_f32(&[n as usize], data.clone())];
                let base = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
                let got = Interpreter::new(&tiled, &sizes).run(inputs).unwrap();
                prop_assert!(
                    base[0].approx_eq(&got[0], 1e-3),
                    "predicated fold diverged at n={n} threshold={threshold}"
                );
                Ok(())
            },
        );
}

/// Tiling never increases the modeled DRAM read traffic of gemm.
#[test]
fn tiling_never_increases_gemm_traffic() {
    Check::new("tiling_never_increases_gemm_traffic")
        .cases(8)
        .run(
            |rng| *rng.choose(&[2i64, 4, 8]),
            |&b| {
                let prog = gemm_program();
                let sizes = [("m", 16), ("n", 16), ("p", 16)];
                let env = pphw_ir::Size::env(&sizes);
                let cfg = TileConfig::new(&[("m", b), ("n", b), ("p", b)], &sizes);
                let tiled = tile_program(&prog, &cfg).unwrap();
                let before = pphw_transform::cost::analyze_cost(&prog)
                    .total_reads(&env)
                    .unwrap();
                let after = pphw_transform::cost::analyze_cost(&tiled)
                    .total_reads(&env)
                    .unwrap();
                prop_assert!(
                    after <= before,
                    "tiling increased traffic: {after} > {before}"
                );
                Ok(())
            },
        );
}
