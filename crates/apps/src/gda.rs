//! Gaussian discriminant analysis (GDA): accumulate the shared covariance
//! matrix of a two-class model, `sigma = Σ_i (x_i - μ_{y_i})ᵀ (x_i -
//! μ_{y_i})`, given samples, binary labels, and per-class means.
//!
//! The structure is the one the paper highlights (§6.2): per sample, a
//! vector subtraction feeds a vector outer product accumulated into a
//! `d×d` on-chip matrix — a naturally balanced nested metapipeline.

use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

use crate::data::{dim, rand_labels, rand_tensor, rng};
use crate::Ppl;

/// `examples/gda.ppl`.
pub static GDA: Ppl = ppl!("gda");

/// The GDA covariance program.
pub fn gda_program() -> Program {
    GDA.program()
}

/// Default workload sizes.
pub fn gda_sizes() -> Vec<(&'static str, i64)> {
    vec![("n", 4096), ("d", 32)]
}

/// Default tile sizes (the feature dimension stays on chip).
pub fn gda_tiles() -> Vec<(&'static str, i64)> {
    vec![("n", 256)]
}

/// Random samples, labels, and class means.
pub fn gda_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    let (n, d) = (dim(env, "n"), dim(env, "d"));
    vec![
        rand_tensor(&mut r, &[n, d], -2.0, 2.0),
        rand_labels(&mut r, n, 2),
        rand_tensor(&mut r, &[d], -1.0, 1.0),
        rand_tensor(&mut r, &[d], -1.0, 1.0),
    ]
}

/// Reference implementation.
pub fn gda_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let (n, d) = (dim(env, "n"), dim(env, "d"));
    let x = inputs[0].as_f32_slice();
    let y = inputs[1].as_f32_slice();
    let mu0 = inputs[2].as_f32_slice();
    let mu1 = inputs[3].as_f32_slice();
    let mut sigma = vec![0f32; d * d];
    let mut sub = vec![0f32; d];
    for i in 0..n {
        let mu = if y[i] < 1.0 { &mu0 } else { &mu1 };
        for p in 0..d {
            sub[p] = x[i * d + p] - mu[p];
        }
        for a in 0..d {
            for b in 0..d {
                sigma[a * d + b] += sub[a] * sub[b];
            }
        }
    }
    vec![Value::tensor_f32(&[d, d], sigma)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphw_ir::interp::Interpreter;
    use pphw_ir::size::Size;

    #[test]
    fn gda_matches_golden() {
        let sizes = [("n", 64), ("d", 8)];
        let env = Size::env(&sizes);
        let prog = gda_program();
        prog.validate().unwrap();
        let inputs = gda_inputs(&env, 11);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = gda_golden(&inputs, &env);
        assert!(got[0].approx_eq(&want[0], 1e-3));
    }
}
