//! # pphw-bench — harness regenerating the paper's tables and figures
//!
//! Shared helpers for the `figure7`, `tables`, `dse`, `verify`, `parse`
//! and `faults` binaries and for the `benchmark/` workloads. The paper's
//! headline numbers (Figure 7) are regenerated by compiling every
//! benchmark of Table 5 at the three optimization levels and simulating
//! each design. Nothing here times anything: wall-clock numbers come from
//! `benchmark/` alone.

pub mod sweep;

use pphw::{evaluate, CompileOptions, Evaluation, OptLevel};
use pphw_apps::BenchSpec;
use pphw_sim::SimConfig;

/// Paper-reported Figure 7 speedups `(benchmark, +tiling, +tiling+meta)`.
pub const PAPER_FIG7: [(&str, f64, f64); 6] = [
    ("outerprod", 1.1, 1.1),
    ("sumrows", 6.5, 11.5),
    ("gemm", 4.1, 6.3),
    ("tpchq6", 1.6, 2.0),
    ("gda", 13.4, 39.4),
    ("kmeans", 15.5, 19.7),
];

/// Looks up the paper's speedups for a benchmark.
pub fn paper_speedups(name: &str) -> Option<(f64, f64)> {
    PAPER_FIG7
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, t, m)| (*t, *m))
}

/// Default compile options for a benchmark spec ([`BenchSpec::options`];
/// `benchmark/` imports it under this name).
pub fn options_for(spec: &BenchSpec) -> CompileOptions {
    spec.options()
}

/// Runs the three-level evaluation for one benchmark.
///
/// # Panics
///
/// Panics if compilation fails — benchmark configurations are expected to
/// be valid.
pub fn evaluate_benchmark(spec: &BenchSpec, sim: &SimConfig) -> Evaluation {
    let prog = (spec.program)();
    evaluate(&prog, &spec.options(), sim)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", spec.name))
}

/// One row of the Figure 7 comparison table.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured +tiling speedup.
    pub tiled: f64,
    /// Measured +tiling+metapipelining speedup.
    pub meta: f64,
    /// Paper-reported +tiling speedup.
    pub paper_tiled: f64,
    /// Paper-reported +tiling+metapipelining speedup.
    pub paper_meta: f64,
    /// Full evaluation (cycles, areas).
    pub eval: Evaluation,
}

/// Evaluates the full suite.
pub fn figure7(sim: &SimConfig) -> Vec<Fig7Row> {
    pphw_apps::all_benchmarks()
        .iter()
        .map(|spec| {
            let eval = evaluate_benchmark(spec, sim);
            let (pt, pm) = paper_speedups(spec.name).unwrap_or((f64::NAN, f64::NAN));
            Fig7Row {
                name: spec.name,
                tiled: eval.row(OptLevel::Tiled).speedup,
                meta: eval.row(OptLevel::Metapipelined).speedup,
                paper_tiled: pt,
                paper_meta: pm,
                eval,
            }
        })
        .collect()
}

/// Formats the Figure 7 table (speedups, paper vs measured).
pub fn format_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::from(
        "Figure 7 — speedup over baseline (paper vs this reproduction)\n\
         benchmark      +tiling          +tiling+metapipelining\n\
                       paper   measured   paper   measured\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6.1}x {:>9.1}x {:>6.1}x {:>9.1}x\n",
            r.name, r.paper_tiled, r.tiled, r.paper_meta, r.meta
        ));
    }
    out
}

/// Formats the Figure 7 resource-usage table (relative to baseline).
pub fn format_fig7_area(rows: &[Fig7Row]) -> String {
    let mut out = String::from(
        "Figure 7 (bottom) — resource use relative to baseline\n\
         benchmark        +tiling (logic/FF/mem)    +tiling+meta (logic/FF/mem)\n",
    );
    for r in rows {
        let t = r.eval.row(OptLevel::Tiled).relative_area;
        let m = r.eval.row(OptLevel::Metapipelined).relative_area;
        out.push_str(&format!(
            "{:<14} {:>6.2} {:>6.2} {:>6.2}      {:>6.2} {:>6.2} {:>6.2}\n",
            r.name, t.logic, t.ff, t.mem, m.logic, m.ff, m.mem
        ));
    }
    out
}
