//! Per-pass verification for the tiling pipeline.
//!
//! [`tile_program`](crate::tiling) calls [`check_pass`] after every pass,
//! so a transform bug is reported at the pass that introduced it, not
//! three passes later as a simulation divergence. Both layers are modes of
//! the one checker in [`pphw_ir::check`], and run at different costs:
//!
//! - the structural `Program::validate` postcondition is always on (cheap,
//!   and already part of the pipeline's contract);
//! - the deep check (typing, ranks, update shapes) replaces it when
//!   [`verification_enabled`] says so — debug builds, or any build with
//!   `PPHW_VERIFY` set in the environment (CI sets it) — so the release
//!   DSE hot path keeps its measured performance. It needs no installing:
//!   every caller of the pipeline gets it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use pphw_ir::check::check_deep;
use pphw_ir::program::Program;

use crate::config::TileError;

static DEEP_RUNS: AtomicU64 = AtomicU64::new(0);

/// How many times the deep per-pass check has run in this process.
/// Lets tests (and the CI differential gate) assert the per-pass checks
/// were actually active rather than silently skipped.
pub fn deep_verifier_runs() -> u64 {
    DEEP_RUNS.load(Ordering::Relaxed)
}

/// Returns `true` when per-pass deep verification should run: always in
/// debug builds, and in release builds when `PPHW_VERIFY` is set to
/// anything but `0` in the environment.
pub fn verification_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if cfg!(debug_assertions) {
            return true;
        }
        match std::env::var("PPHW_VERIFY") {
            Ok(v) => v != "0",
            Err(_) => false,
        }
    })
}

/// Checks `prog` after `pass`: the deep check when
/// [`verification_enabled`] (it subsumes the structural one), structural
/// validation otherwise.
///
/// # Errors
///
/// Returns [`TileError::Unsupported`] naming the failing pass and every
/// finding of the mode that ran.
pub fn check_pass(prog: &Program, pass: &str) -> Result<(), TileError> {
    let findings = if verification_enabled() {
        DEEP_RUNS.fetch_add(1, Ordering::Relaxed);
        check_deep(prog)
    } else {
        prog.validate().err().into_iter().collect()
    };
    if findings.is_empty() {
        return Ok(());
    }
    let text: Vec<String> = findings.iter().map(ToString::to_string).collect();
    Err(TileError::Unsupported(format!(
        "program invalid after pass `{pass}`: {}",
        text.join("\n")
    )))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_ir::builder::ProgramBuilder;
    use pphw_ir::types::DType;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("t");
        let d = b.size("d");
        let x = b.input("x", DType::F32, vec![d.clone()]);
        let out = b.map(vec![d], |c, idx| c.read(x, vec![c.var(idx[0])]));
        b.finish(vec![out])
    }

    #[test]
    fn check_pass_accepts_valid_program() {
        assert!(check_pass(&tiny(), "unit-test").is_ok());
    }

    #[test]
    fn check_pass_names_failing_pass_on_invalid_program() {
        let mut p = tiny();
        p.body.result = vec![pphw_ir::types::Sym(9999)];
        let err = check_pass(&p, "unit-test").unwrap_err();
        assert!(err.to_string().contains("after pass `unit-test`"), "{err}");
    }
}
