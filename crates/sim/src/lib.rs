//! # pphw-sim — cycle-approximate design simulation
//!
//! A discrete-event, cycle-approximate simulator for the hardware designs
//! produced by `pphw-hw`. It models the substrate the paper evaluates on —
//! a Max4 Maia board (DDR3 DRAM at 76.8 GB/s, 384-byte bursts) driving an
//! FPGA fabric at ~150 MHz — at the fidelity the paper's speedups depend
//! on:
//!
//! * a shared DRAM channel with finite bandwidth, request latency, and
//!   burst quantization (partial bursts waste bandwidth);
//! * *prefetched* streams (tile loads) that pay the request latency once
//!   and then saturate the channel, versus *synchronous* streams (the
//!   HLS-style baseline) that pay per-burst request turnaround;
//! * pipelined compute units with an initiation interval of one element
//!   per lane per cycle plus fill/drain depth;
//! * sequential controllers that run stages back-to-back, and
//!   metapipeline controllers that overlap stage `i` of iteration `t`
//!   with stage `i-1` of iteration `t+1` through double buffers.
//!
//! Absolute cycle counts are indicative; the reproduction relies on
//! relative performance between baseline, tiled, and metapipelined
//! designs, which these mechanisms capture directly.
//!
//! ## Robustness
//!
//! The simulator is panic-free and hang-free on adversarial input:
//! configurations are validated up front ([`SimConfig::validate`]), a
//! watchdog cycle budget turns runaway designs into
//! [`SimError::BudgetExceeded`], and deterministic DRAM fault injection
//! ([`FaultConfig`], [`simulate_with_faults`]) models latency jitter,
//! bandwidth-degradation windows, and transient burst failures with a
//! bounded retry-with-backoff path — reproducible bit-for-bit from a seed.

pub mod dram;
pub mod engine;
pub mod error;
pub mod fault;
pub mod report;

pub use dram::{Dram, SimConfig};
pub use engine::{simulate, simulate_stepping, simulate_with_faults};
pub use error::SimError;
pub use fault::{FaultConfig, FaultStats};
pub use report::{SimReport, StageStat};
