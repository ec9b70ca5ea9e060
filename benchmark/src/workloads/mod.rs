//! The six workloads. Each module's `run` sets up (repeatedly, for a
//! steady `setup_s`), runs its fixed number of units untraced and - when
//! asked - the same units again under the span recorder, the two kinds
//! alternating block by block.

pub mod compile_suite;
pub mod dse;
pub mod serve_mix;
pub mod sim_faulted;

use crate::harness::{Params, RunResult};
use crate::trace::{write_jsonl, Span};

/// Runs the named workload, or `None` if there is no such workload.
#[must_use]
pub fn run(name: &str, p: &Params) -> Option<RunResult> {
    match name {
        "compile_suite" => Some(compile_suite::run(p)),
        "dse_cold_gemm" => Some(dse::run_cold_gemm(p)),
        "dse_warm_replay" => Some(dse::run_warm_replay(p)),
        "dse_guided_big" => Some(dse::run_guided_big(p)),
        "sim_faulted" => Some(sim_faulted::run(p)),
        "serve_mix" => Some(serve_mix::run(p)),
        _ => None,
    }
}

/// Writes the run's spans to `<out_dir>/<workload>.trace.jsonl`.
fn write_trace(p: &Params, workload: &str, spans: &[Span], notes: &mut Vec<String>) {
    let path = p.out_dir.join(format!("{workload}.trace.jsonl"));
    match write_jsonl(spans, &path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("FAILED writing {}: {e}", path.display())),
    }
}
