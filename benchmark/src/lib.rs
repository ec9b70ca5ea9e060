//! Outside-in benchmark of the pphw pipeline (PPL text -> tiling ->
//! hardware generation -> simulation, plus verifier, DSE engine and
//! serving daemon), calling only each crate's public functions.
//!
//! See `README.md` in this directory for the metric definitions and why
//! each workload exists; `spec` holds the same definitions as data.

pub mod compare;
pub mod fixture;
pub mod harness;
pub mod layers;
pub mod spec;
pub mod trace;
pub mod workloads;
