//! Property-based tests on core IR invariants, on the hermetic
//! `pphw-testkit` harness.
//!
//! Each property draws a fixed number of cases from a pinned seed, so CI is
//! reproducible; a failure prints a `PPHW_PROP_SEED` value that replays the
//! failing input exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_testkit::prop::{shrink, Check};
use pphw_testkit::{prop_assert, prop_assert_eq};

use pphw_ir::interp::{Interpreter, Value};
use pphw_ir::size::{Size, SizeEnv};
use pphw_ir::Program;

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

/// Size arithmetic agrees with integer arithmetic under evaluation.
#[test]
fn size_arithmetic_matches_integers() {
    Check::new("size_arithmetic_matches_integers").run(
        |rng| {
            (
                rng.gen_range(1i64..1000),
                rng.gen_range(1i64..1000),
                rng.gen_range(1i64..100),
            )
        },
        |&(a, b, c)| {
            let env = SizeEnv::new();
            let sa = Size::from(a);
            let sb = Size::from(b);
            prop_assert_eq!((sa.clone() + sb.clone()).eval(&env).unwrap(), a + b);
            prop_assert_eq!((sa.clone() * sb.clone()).eval(&env).unwrap(), a * b);
            let prod = Size::from(a * c);
            prop_assert_eq!((prod / Size::from(c)).eval(&env).unwrap(), a);
            prop_assert_eq!(sb.eval(&env).unwrap(), b);
            Ok(())
        },
    );
}

/// Simplification never changes the value of a size expression.
#[test]
fn size_simplify_preserves_value() {
    Check::new("size_simplify_preserves_value").run(
        |rng| {
            (
                rng.gen_range(1i64..512),
                *rng.choose(&[1i64, 2, 4, 8, 16]),
                rng.gen_range(0i64..64),
            )
        },
        |&(n, b, k)| {
            let env = Size::env(&[("n", n * b), ("k", k)]);
            let e = (Size::var("n") / Size::from(b)) * Size::from(b) + Size::var("k");
            prop_assert_eq!(e.eval(&env).unwrap(), e.simplified().eval(&env).unwrap());
            Ok(())
        },
    );
}

/// map over a vector equals the element-wise golden computation.
#[test]
fn interp_map_matches_golden() {
    Check::new("interp_map_matches_golden").run_shrink(
        |rng| {
            let n = rng.gen_range(1usize..64);
            rng.f32_vec(n, -100.0, 100.0)
        },
        |data| shrink::vec(data, 1),
        |data| {
            let prog = parse(
                "program affine(d) {
                   input x: Float[d]
                   let y = map(d) { (i) => yield 3.0 * x(i) + 1.0 }
                   return (y)
                 }",
            );
            let n = data.len();
            let r = Interpreter::new(&prog, &[("d", n as i64)])
                .run(vec![Value::tensor_f32(&[n], data.clone())])
                .unwrap();
            let expect: Vec<f32> = data.iter().map(|v| 3.0 * v + 1.0).collect();
            prop_assert_eq!(r[0].as_f32_slice(), expect);
            Ok(())
        },
    );
}

/// A scalar sum fold equals the golden sum (within f32 tolerance).
#[test]
fn interp_fold_matches_golden() {
    Check::new("interp_fold_matches_golden").run_shrink(
        |rng| {
            let n = rng.gen_range(1usize..128);
            rng.f32_vec(n, -10.0, 10.0)
        },
        |data| shrink::vec(data, 1),
        |data| {
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
            let n = data.len();
            let r = Interpreter::new(&prog, &[("d", n as i64)])
                .run(vec![Value::tensor_f32(&[n], data.clone())])
                .unwrap();
            let expect: f32 = data.iter().sum();
            let got = r[0].as_f32_slice()[0];
            prop_assert!(
                (got - expect).abs() <= 1e-3 * expect.abs().max(1.0),
                "sum diverged: got {got}, want {expect}"
            );
            Ok(())
        },
    );
}

/// Filter preserves exactly the elements satisfying the predicate, in
/// order.
#[test]
fn interp_filter_matches_golden() {
    Check::new("interp_filter_matches_golden").run_shrink(
        |rng| {
            let n = rng.gen_range(1usize..100);
            (rng.f32_vec(n, -50.0, 50.0), rng.gen_range(-20.0f32..20.0))
        },
        |(data, threshold)| {
            shrink::vec(data, 1)
                .into_iter()
                .map(|d| (d, *threshold))
                .collect()
        },
        |(data, threshold)| {
            let threshold = *threshold;
            let prog = parse(&format!(
                "program filter(d) {{
                   input x: Float[d]
                   let keep = flatMap(d) {{ (i) =>
                     let items = [if ({threshold:?} < x(i)) x(i)]
                     yield items
                   }}
                   return (keep)
                 }}"
            ));
            let n = data.len();
            let r = Interpreter::new(&prog, &[("d", n as i64)])
                .run(vec![Value::tensor_f32(&[n], data.clone())])
                .unwrap();
            let expect: Vec<f32> = data.iter().copied().filter(|v| *v > threshold).collect();
            prop_assert_eq!(r[0].as_f32_slice(), expect);
            Ok(())
        },
    );
}

/// Histogram bucket counts sum to the input length and match a BTreeMap
/// golden.
#[test]
fn interp_histogram_matches_golden() {
    Check::new("interp_histogram_matches_golden").run_shrink(
        |rng| {
            let n = rng.gen_range(1usize..100);
            rng.i64_vec(n, 0, 100)
        },
        |data| shrink::vec(data, 1),
        |data| {
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
            let n = data.len();
            let r = Interpreter::new(&prog, &[("d", n as i64)])
                .run(vec![Value::tensor_i32(&[n], data.clone())])
                .unwrap();
            let mut expect = std::collections::BTreeMap::new();
            for v in data {
                *expect.entry(v / 10).or_insert(0i64) += 1;
            }
            match &r[0] {
                Value::Dict(d) => {
                    prop_assert_eq!(d.len(), expect.len());
                    let mut total = 0i64;
                    for (k, v) in d {
                        let key = match k {
                            pphw_ir::interp::ScalarVal::I(i) => *i,
                            other => return Err(format!("bad key {other:?}")),
                        };
                        let count = match v {
                            Value::Scalar(pphw_ir::interp::ScalarVal::I(c)) => *c,
                            other => return Err(format!("bad val {other:?}")),
                        };
                        prop_assert_eq!(Some(&count), expect.get(&key));
                        total += count;
                    }
                    prop_assert_eq!(total, n as i64);
                }
                other => return Err(format!("expected dict, got {other:?}")),
            }
            Ok(())
        },
    );
}

/// classify_index is stable under adding a constant: coefficients are
/// unchanged, only the offset moves.
#[test]
fn affine_classification_offset_invariant() {
    Check::new("affine_classification_offset_invariant").run(
        |rng| (rng.gen_range(0i64..100), rng.gen_range(0i64..100)),
        |&(c1, c2)| {
            use pphw_ir::access::{classify_index, IndexClass};
            use pphw_ir::expr::Expr;
            use pphw_ir::types::Sym;
            let idx: std::collections::BTreeSet<Sym> = [Sym(0)].into_iter().collect();
            let base = Expr::var(Sym(0)).mul(Expr::int(4));
            let e1 = base.clone().add(Expr::int(c1));
            let e2 = base.add(Expr::int(c2));
            match (classify_index(&e1, &idx), classify_index(&e2, &idx)) {
                (IndexClass::Affine { terms: t1, .. }, IndexClass::Affine { terms: t2, .. }) => {
                    prop_assert_eq!(t1, t2);
                }
                other => return Err(format!("{other:?}")),
            }
            Ok(())
        },
    );
}
