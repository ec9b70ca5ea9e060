//! The dense linear-algebra benchmarks: vector outer product, matrix row
//! summation, and matrix multiplication (Table 5); and Table 2's
//! element-wise map, fused row sums and histogram.

use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

use crate::data::{dim, rand_tensor, rng};
use crate::Ppl;

// ---------------------------------------------------------------------
// outerprod
// ---------------------------------------------------------------------

/// `examples/outerprod.ppl`.
pub static OUTERPROD: Ppl = ppl!("outerprod");

/// Vector outer product: `out(i,j) = x(i) * y(j)`.
pub fn outerprod_program() -> Program {
    OUTERPROD.program()
}

/// Default workload sizes for outerprod.
pub fn outerprod_sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 1024), ("n", 1024)]
}

/// Default tile sizes for outerprod.
pub fn outerprod_tiles() -> Vec<(&'static str, i64)> {
    vec![("m", 128), ("n", 128)]
}

/// Random inputs for outerprod.
pub fn outerprod_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    vec![
        rand_tensor(&mut r, &[dim(env, "m")], -1.0, 1.0),
        rand_tensor(&mut r, &[dim(env, "n")], -1.0, 1.0),
    ]
}

/// Reference implementation of outerprod.
pub fn outerprod_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let (m, n) = (dim(env, "m"), dim(env, "n"));
    let x = inputs[0].as_f32_slice();
    let y = inputs[1].as_f32_slice();
    let mut out = Vec::with_capacity(m * n);
    for xi in x.iter().take(m) {
        for yj in y.iter().take(n) {
            out.push(xi * yj);
        }
    }
    vec![Value::tensor_f32(&[m, n], out)]
}

// ---------------------------------------------------------------------
// sumrows
// ---------------------------------------------------------------------

/// `examples/sumrows.ppl`.
pub static SUMROWS: Ppl = ppl!("sumrows");

/// Matrix summation through rows: `out(i) = sum_j x(i,j)` — written as
/// the user would (`x.map{ row => row.fold(0)(+) }`), a map of folds.
pub fn sumrows_program() -> Program {
    SUMROWS.program()
}

static SUMROWS_FUSED: Ppl = ppl!("sumrows_fused");

/// The fused single-`MultiFold` variant of sumrows (Table 2's
/// location-based form), used by transformation tests.
pub fn sumrows_fused_program() -> Program {
    SUMROWS_FUSED.program()
}

/// Default workload sizes for sumrows.
pub fn sumrows_sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 2048), ("n", 512)]
}

/// Default tile sizes for sumrows.
pub fn sumrows_tiles() -> Vec<(&'static str, i64)> {
    vec![("m", 64), ("n", 512)]
}

/// Random inputs for sumrows.
pub fn sumrows_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    vec![rand_tensor(
        &mut r,
        &[dim(env, "m"), dim(env, "n")],
        0.0,
        1.0,
    )]
}

/// Reference implementation of sumrows.
pub fn sumrows_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let (m, n) = (dim(env, "m"), dim(env, "n"));
    let x = inputs[0].as_f32_slice();
    let out: Vec<f32> = (0..m).map(|i| x[i * n..(i + 1) * n].iter().sum()).collect();
    vec![Value::tensor_f32(&[m], out)]
}

// ---------------------------------------------------------------------
// gemm
// ---------------------------------------------------------------------

/// `examples/gemm.ppl`.
pub static GEMM: Ppl = ppl!("gemm");

/// Matrix multiplication: `out(i,j) = sum_k x(i,k) * y(k,j)`.
pub fn gemm_program() -> Program {
    GEMM.program()
}

/// Default workload sizes for gemm.
pub fn gemm_sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 256), ("n", 256), ("p", 256)]
}

/// Default tile sizes for gemm.
pub fn gemm_tiles() -> Vec<(&'static str, i64)> {
    vec![("m", 64), ("n", 64), ("p", 64)]
}

/// Random inputs for gemm.
pub fn gemm_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    let (m, n, p) = (dim(env, "m"), dim(env, "n"), dim(env, "p"));
    vec![
        rand_tensor(&mut r, &[m, p], -1.0, 1.0),
        rand_tensor(&mut r, &[p, n], -1.0, 1.0),
    ]
}

/// Reference implementation of gemm.
pub fn gemm_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let (m, n, p) = (dim(env, "m"), dim(env, "n"), dim(env, "p"));
    let x = inputs[0].as_f32_slice();
    let y = inputs[1].as_f32_slice();
    let mut out = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f32;
            for k in 0..p {
                acc += x[i * p + k] * y[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    vec![Value::tensor_f32(&[m, n], out)]
}

// ---------------------------------------------------------------------
// Table 2's other strip-mining examples
// ---------------------------------------------------------------------

static DOUBLE: Ppl = ppl!("double");

/// Element-wise map: `out(i) = 2 * x(i)`.
pub fn doubling_program() -> Program {
    DOUBLE.program()
}

static HISTOGRAM: Ppl = ppl!("histogram");

/// Histogram calculation: a `GroupByFold` counting `x(i) / 10`.
pub fn histogram_program() -> Program {
    HISTOGRAM.program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphw_ir::interp::Interpreter;
    use pphw_ir::size::Size;

    fn env(pairs: &[(&str, i64)]) -> SizeEnv {
        Size::env(pairs)
    }

    #[test]
    fn outerprod_matches_golden() {
        let sizes = [("m", 8), ("n", 12)];
        let prog = outerprod_program();
        let inputs = outerprod_inputs(&env(&sizes), 1);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = outerprod_golden(&inputs, &env(&sizes));
        assert!(got[0].approx_eq(&want[0], 1e-5));
    }

    #[test]
    fn sumrows_matches_golden() {
        let sizes = [("m", 16), ("n", 32)];
        let prog = sumrows_program();
        let inputs = sumrows_inputs(&env(&sizes), 2);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = sumrows_golden(&inputs, &env(&sizes));
        assert!(got[0].approx_eq(&want[0], 1e-4));
    }

    #[test]
    fn gemm_matches_golden() {
        let sizes = [("m", 8), ("n", 8), ("p", 16)];
        let prog = gemm_program();
        let inputs = gemm_inputs(&env(&sizes), 3);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = gemm_golden(&inputs, &env(&sizes));
        assert!(got[0].approx_eq(&want[0], 1e-4));
    }
}
