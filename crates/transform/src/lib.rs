//! # pphw-transform — pattern transformations
//!
//! The tiling half of the paper: target-agnostic cleanups (fusion, CSE,
//! code motion, DCE) plus the two tiling transformations — **strip mining**
//! (Table 1) and **pattern interchange** (§4) — together with tile-copy
//! insertion and the memory-traffic cost analysis that reproduces Figure 5c.
//!
//! The usual entry point is [`tiling::tile_program`], which runs the full
//! pipeline: strip mine → split → interchange → insert copies → clean up.

pub mod config;
pub mod copies;
pub mod cost;
pub mod cse;
pub mod dce;
pub mod fusion;
pub mod interchange;
pub mod motion;
pub mod pipeline;
pub mod rewrite;
pub mod strip_mine;
pub mod tiling;

pub use config::{TileConfig, TileError};
pub use pipeline::{check_pass, deep_verifier_runs, verification_enabled};
pub use strip_mine::strip_mine_program;
pub use tiling::{tile_program, tile_program_no_interchange};
