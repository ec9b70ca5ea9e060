//! TPC-H Query 6: filter purchase records by predicate, then sum
//! `extendedprice * discount` over the matching rows.
//!
//! The paper's implementation fuses the filter into the reduction (one
//! streaming pass over the table); we express exactly that fused form — a
//! scalar fold whose contribution is predicated. A standalone `FlatMap`
//! filter variant is also provided to exercise the parallel-FIFO path.

use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

use crate::data::{dim, rand_tensor, rng};
use crate::Ppl;

/// Query constants (scaled-down TPC-H Q6 predicate), as the golden
/// implementation reads them; `examples/tpchq6.ppl` spells the same ones.
const DATE_LO: f32 = 30.0;
const DATE_HI: f32 = 60.0;
const DISC_LO: f32 = 0.05;
const DISC_HI: f32 = 0.07;
const QTY_MAX: f32 = 24.0;

/// `examples/tpchq6.ppl`.
pub static TPCHQ6: Ppl = ppl!("tpchq6");

/// The fused filter + reduce query.
pub fn tpchq6_program() -> Program {
    TPCHQ6.program()
}

static TPCHQ6_FILTER: Ppl = ppl!("tpchq6_filter");

/// A standalone filter returning the matching discounts (FlatMap form),
/// used to exercise the parallel-FIFO hardware path.
pub fn tpchq6_filter_program() -> Program {
    TPCHQ6_FILTER.program()
}

/// Default workload sizes.
pub fn tpchq6_sizes() -> Vec<(&'static str, i64)> {
    vec![("n", 1 << 20)]
}

/// Default tile sizes.
pub fn tpchq6_tiles() -> Vec<(&'static str, i64)> {
    vec![("n", 8192)]
}

/// Random table columns.
pub fn tpchq6_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    let n = dim(env, "n");
    vec![
        rand_tensor(&mut r, &[n], 0.0, 90.0),  // shipdate
        rand_tensor(&mut r, &[n], 0.0, 0.11),  // discount
        rand_tensor(&mut r, &[n], 1.0, 50.0),  // quantity
        rand_tensor(&mut r, &[n], 1.0, 100.0), // price
    ]
}

/// Reference implementation.
pub fn tpchq6_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let n = dim(env, "n");
    let shipdate = inputs[0].as_f32_slice();
    let discount = inputs[1].as_f32_slice();
    let quantity = inputs[2].as_f32_slice();
    let price = inputs[3].as_f32_slice();
    let mut acc = 0f32;
    for i in 0..n {
        if shipdate[i] > DATE_LO
            && shipdate[i] < DATE_HI
            && discount[i] > DISC_LO
            && discount[i] < DISC_HI
            && quantity[i] < QTY_MAX
        {
            acc += price[i] * discount[i];
        }
    }
    vec![Value::scalar_f32(acc)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphw_ir::interp::Interpreter;
    use pphw_ir::size::Size;

    #[test]
    fn tpchq6_matches_golden() {
        let sizes = [("n", 4096)];
        let env = Size::env(&sizes);
        let prog = tpchq6_program();
        let inputs = tpchq6_inputs(&env, 7);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = tpchq6_golden(&inputs, &env);
        assert!(
            got[0].approx_eq(&want[0], 1e-3),
            "got {:?}, want {:?}",
            got[0],
            want[0]
        );
    }

    #[test]
    fn filter_variant_selects_matching() {
        let sizes = [("n", 512)];
        let env = Size::env(&sizes);
        let prog = tpchq6_filter_program();
        let inputs = tpchq6_inputs(&env, 9);
        let got = Interpreter::new(&prog, &sizes)
            .run(vec![inputs[1].clone()])
            .unwrap();
        let expect: Vec<f32> = inputs[1]
            .as_f32_slice()
            .into_iter()
            .filter(|d| *d > DISC_LO && *d < DISC_HI)
            .collect();
        assert_eq!(got[0].as_f32_slice(), expect);
    }
}
