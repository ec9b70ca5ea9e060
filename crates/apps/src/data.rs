//! Workload generation helpers.
//!
//! All randomness comes from the hermetic [`pphw_testkit::Rng`] so that
//! workloads are reproducible from a single `u64` seed with no registry
//! dependencies.

use pphw_ir::interp::Value;
use pphw_ir::size::SizeEnv;
use pphw_testkit::Rng;

/// Looks up a dimension value.
///
/// # Panics
///
/// Panics if the dimension is unbound.
pub fn dim(env: &SizeEnv, name: &str) -> usize {
    *env.get(name)
        .unwrap_or_else(|| panic!("dimension `{name}` not bound")) as usize
}

/// A seeded random vector with values in `[lo, hi)`.
pub fn rand_vec(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A seeded random f32 tensor value.
pub fn rand_tensor(rng: &mut Rng, shape: &[usize], lo: f32, hi: f32) -> Value {
    let n = shape.iter().product();
    Value::tensor_f32(shape, rand_vec(rng, n, lo, hi))
}

/// A seeded random i32 tensor value in `[0, bound)`.
pub fn rand_labels(rng: &mut Rng, n: usize, bound: i64) -> Value {
    Value::tensor_i32(&[n], (0..n).map(|_| rng.gen_range(0..bound)).collect())
}

/// Deterministic RNG for a benchmark seed.
#[must_use]
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}
