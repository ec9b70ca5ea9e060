//! k-means clustering — one refinement iteration, in the fused form of
//! Figure 4: a two-accumulator `MultiFold` that assigns each point to its
//! closest centroid (summing points and counts per centroid at a
//! data-dependent location), followed by the averaging map that produces
//! the new centroids.

use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_ir::Program;

use crate::data::{dim, rand_tensor, rng};
use crate::Ppl;

/// `examples/kmeans.ppl`.
pub static KMEANS: Ppl = ppl!("kmeans");

/// The fused k-means program (Figure 4): outputs the new centroids.
pub fn kmeans_program() -> Program {
    KMEANS.program()
}

/// Default workload sizes (clusters and features stay on chip, as in
/// Figure 6).
pub fn kmeans_sizes() -> Vec<(&'static str, i64)> {
    vec![("n", 16384), ("k", 16), ("d", 32)]
}

/// Default tile sizes (points tiled; k and d resident).
pub fn kmeans_tiles() -> Vec<(&'static str, i64)> {
    vec![("n", 512), ("k", 8)]
}

/// Random points and initial centroids.
pub fn kmeans_inputs(env: &SizeEnv, seed: u64) -> Vec<Value> {
    let mut r = rng(seed);
    let (n, k, d) = (dim(env, "n"), dim(env, "k"), dim(env, "d"));
    vec![
        rand_tensor(&mut r, &[n, d], 0.0, 10.0),
        rand_tensor(&mut r, &[k, d], 0.0, 10.0),
    ]
}

/// Reference implementation of one k-means iteration.
pub fn kmeans_golden(inputs: &[Value], env: &SizeEnv) -> Vec<Value> {
    let (n, k, d) = (dim(env, "n"), dim(env, "k"), dim(env, "d"));
    let points = inputs[0].as_f32_slice();
    let centroids = inputs[1].as_f32_slice();
    let mut sums = vec![0f32; k * d];
    let mut counts = vec![0f32; k];
    for i in 0..n {
        let mut best = (f32::MAX, usize::MAX);
        for j in 0..k {
            let mut dist = 0f32;
            for p in 0..d {
                let diff = points[i * d + p] - centroids[j * d + p];
                dist += diff * diff;
            }
            // Matches the IR's tie-breaking: later index wins ties.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(best.0 < dist) {
                best = (dist, j);
            }
        }
        let j = best.1;
        for p in 0..d {
            sums[j * d + p] += points[i * d + p];
        }
        counts[j] += 1.0;
    }
    let mut out = vec![0f32; k * d];
    for j in 0..k {
        let denom = counts[j].max(1.0);
        for p in 0..d {
            out[j * d + p] = sums[j * d + p] / denom;
        }
    }
    vec![Value::tensor_f32(&[k, d], out)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphw_ir::interp::Interpreter;
    use pphw_ir::size::Size;

    #[test]
    fn kmeans_validates() {
        kmeans_program().validate().unwrap();
    }

    #[test]
    fn kmeans_matches_golden() {
        let sizes = [("n", 128), ("k", 4), ("d", 8)];
        let env = Size::env(&sizes);
        let prog = kmeans_program();
        let inputs = kmeans_inputs(&env, 13);
        let got = Interpreter::new(&prog, &sizes).run(inputs.clone()).unwrap();
        let want = kmeans_golden(&inputs, &env);
        assert!(
            got[0].approx_eq(&want[0], 1e-3),
            "got {:?}\nwant {:?}",
            got[0].as_f32_slice()[..8].to_vec(),
            want[0].as_f32_slice()[..8].to_vec()
        );
    }
}
