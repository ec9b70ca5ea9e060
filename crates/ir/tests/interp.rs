//! The reference interpreter on small programs written as PPL text.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_ir::interp::{EvalError, Interpreter, ScalarVal, Value};
use pphw_ir::Program;

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

/// `map(d) { (i) => yield <body> }` over one `elem[d]` input `x`.
fn map_1d(elem: &str, body: &str) -> Program {
    parse(&format!(
        "program m(d) {{
           input x: {elem}[d]
           let y = map(d) {{ (i) => yield {body} }}
           return (y)
         }}"
    ))
}

#[test]
fn map_doubles() {
    let prog = map_1d("Float", "2.0 * x(i)");
    let r = Interpreter::new(&prog, &[("d", 4)])
        .run(vec![Value::tensor_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])])
        .unwrap();
    assert_eq!(r[0].as_f32_slice(), vec![2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn fold_sums() {
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
    let r = Interpreter::new(&prog, &[("d", 4)])
        .run(vec![Value::tensor_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])])
        .unwrap();
    assert_eq!(r[0], Value::scalar_f32(10.0));
}

#[test]
fn filter_keeps_positive() {
    let prog = parse(
        "program pos(d) {
           input x: Float[d]
           let pos = flatMap(d) { (i) =>
             let items = [if (0.0 < x(i)) x(i)]
             yield items
           }
           return (pos)
         }",
    );
    let r = Interpreter::new(&prog, &[("d", 5)])
        .run(vec![Value::tensor_f32(
            &[5],
            vec![1.0, -2.0, 3.0, -4.0, 5.0],
        )])
        .unwrap();
    assert_eq!(r[0].as_f32_slice(), vec![1.0, 3.0, 5.0]);
}

#[test]
fn histogram_groups() {
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
    let r = Interpreter::new(&prog, &[("d", 6)])
        .run(vec![Value::tensor_i32(&[6], vec![1, 5, 12, 17, 23, 9])])
        .unwrap();
    match &r[0] {
        Value::Dict(d) => {
            let get = |k: i64| {
                d.iter()
                    .find(|(k2, _)| *k2 == ScalarVal::I(k))
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(get(0), Some(Value::Scalar(ScalarVal::I(3))));
            assert_eq!(get(1), Some(Value::Scalar(ScalarVal::I(2))));
            assert_eq!(get(2), Some(Value::Scalar(ScalarVal::I(1))));
        }
        other => panic!("expected dict, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_read_errors() {
    let prog = map_1d("Float", "x(i + 1)");
    let r = Interpreter::new(&prog, &[("d", 2)]).run(vec![Value::tensor_f32(&[2], vec![1.0, 2.0])]);
    assert!(matches!(r, Err(EvalError::OutOfBounds { .. })));
}

#[test]
fn input_arity_checked() {
    let prog = map_1d("Float", "x(i)");
    let r = Interpreter::new(&prog, &[("d", 2)]).run(vec![]);
    assert!(matches!(r, Err(EvalError::InputArity { .. })));
}

#[test]
fn integer_division_by_zero_is_an_error() {
    let prog = map_1d("Int", "x(i) / 0");
    let r = Interpreter::new(&prog, &[("d", 2)]).run(vec![Value::tensor_i32(&[2], vec![1, 2])]);
    assert!(matches!(r, Err(EvalError::Type(_))), "{r:?}");
}

#[test]
fn integer_overflow_wraps_instead_of_aborting() {
    let prog = map_1d("Int", "x(i) * x(i)");
    let r = Interpreter::new(&prog, &[("d", 1)])
        .run(vec![Value::tensor_i32(&[1], vec![i64::MAX])])
        .unwrap();
    assert_eq!(
        r[0],
        Value::tensor_i32(&[1], vec![i64::MAX.wrapping_mul(i64::MAX)])
    );
}

#[test]
fn negative_size_is_an_error() {
    let prog = map_1d("Float", "x(i)");
    let r = Interpreter::new(&prog, &[("d", -4)]).run(vec![Value::tensor_f32(&[0], vec![])]);
    assert!(r.is_err(), "{r:?}");
}

#[test]
fn absurd_size_is_an_error_not_an_allocation() {
    let prog = map_1d("Float", "x(i)");
    let r =
        Interpreter::new(&prog, &[("d", i64::MAX / 2)]).run(vec![Value::tensor_f32(&[0], vec![])]);
    assert!(matches!(r, Err(EvalError::Type(_))), "{r:?}");
}

#[test]
fn tuple_select_argmin_style() {
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
    let r = Interpreter::new(&prog, &[("d", 4)])
        .run(vec![Value::tensor_f32(&[4], vec![3.0, 1.0, 2.0, 5.0])])
        .unwrap();
    assert_eq!(
        r[0],
        Value::Scalar(ScalarVal::Tuple(vec![ScalarVal::F(1.0), ScalarVal::I(1)]))
    );
}
