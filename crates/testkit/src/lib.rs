//! # pphw-testkit — hermetic test infrastructure
//!
//! Everything the workspace needs to test itself with **zero registry
//! dependencies**, so `cargo build --offline` / `cargo test --offline`
//! succeed with no network access:
//!
//! * [`rng`] — a deterministic, seedable xoshiro256++ generator (the
//!   `rand` replacement behind every seeded workload);
//! * [`prop`] — a minimal property-testing harness with input shrinking
//!   and `PPHW_PROP_SEED` replay (the `proptest` replacement);
//! * [`differential`] — the interpreter ↔ tiling ↔ simulator differential
//!   harness that executes the paper's "tiling preserves semantics" claim
//!   (§4) as a randomized cross-check over seeded size/tile sweeps;
//! * [`chaos`] — a deterministic fault-injecting TCP proxy (seeded
//!   delays, trickle writes, torn bytes, duplicated chunks, mid-stream
//!   disconnects) for hardening the serving stack against hostile
//!   networks;
//! * [`tempdir`] — a scratch directory removed on drop, for the tests
//!   that drive real binaries;
//! * [`example_ppl_files`] — the `examples/*.ppl` programs the tests
//!   parse, run and fuzz.

pub mod chaos;
pub mod differential;
pub mod prop;
pub mod rng;
pub mod tempdir;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, Fault, FaultSchedule};
pub use differential::{run_case, run_differential, DiffCase, DiffError, DiffOptions, DiffReport};
pub use prop::Check;
pub use rng::Rng;
pub use tempdir::TempDir;

/// Every `.ppl` file under the repository's `examples/`, in name order.
/// They are listed from the directory, so a new file cannot be skipped.
///
/// # Panics
///
/// If the directory cannot be read.
pub fn example_ppl_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|entry| entry.expect("a readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ppl"))
        .collect();
    files.sort();
    files
}
