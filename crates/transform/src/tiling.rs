//! The full tiling pipeline.
//!
//! Composes the passes in the order the paper describes (§4): strip mining
//! (Table 1), the split heuristic for imperfect nests, pattern interchange,
//! tile-copy insertion, then code motion / CSE / DCE cleanups. After every
//! pass the program is re-checked via [`check_pass`] — structurally
//! always, deeply in debug/CI builds (see [`crate::pipeline`]) — so a
//! miscompile is attributed to the pass that introduced it.

use pphw_ir::program::Program;

use crate::config::{TileConfig, TileError};
use crate::copies::insert_copies;
use crate::cse::cse_program;
use crate::dce::dce_program;
use crate::interchange::{interchange_program, split_multifolds};
use crate::motion::hoist_program;
use crate::pipeline::check_pass;
use crate::strip_mine::strip_mine_program;

/// Runs the complete tiling pipeline on a (fused) PPL program.
///
/// # Errors
///
/// Returns a [`TileError`] if strip mining fails (indivisible tile size or
/// untileable write-once pattern), or if any pass produces a program the
/// per-pass verifier rejects.
pub fn tile_program(prog: &Program, cfg: &TileConfig) -> Result<Program, TileError> {
    let p = strip_mine_program(prog, cfg)?;
    check_pass(&p, "strip_mine")?;
    let p = split_multifolds(&p, cfg);
    check_pass(&p, "split_multifolds")?;
    let p = interchange_program(&p, cfg);
    check_pass(&p, "interchange")?;
    finish(p, cfg)
}

/// Runs only strip mining plus copies and cleanups (no interchange) —
/// the paper's "tiling without interchange" comparison point (Figure 5a).
///
/// # Errors
///
/// Returns a [`TileError`] if strip mining fails or a pass produces a
/// program the per-pass verifier rejects.
pub fn tile_program_no_interchange(prog: &Program, cfg: &TileConfig) -> Result<Program, TileError> {
    let p = strip_mine_program(prog, cfg)?;
    check_pass(&p, "strip_mine")?;
    finish(p, cfg)
}

/// The shared tail of both pipelines: copies, hoisting, CSE, DCE, each
/// followed by the per-pass check.
fn finish(p: Program, cfg: &TileConfig) -> Result<Program, TileError> {
    let p = insert_copies(&p, cfg);
    check_pass(&p, "insert_copies")?;
    let p = hoist_program(&p);
    check_pass(&p, "hoist")?;
    let p = cse_program(&p);
    check_pass(&p, "cse")?;
    let p = dce_program(&p);
    check_pass(&p, "dce")?;
    Ok(p)
}
