//! The Figure 7 fixture: the six benchmarks at three optimization levels
//! (18 designs, paper sizes), their simulated cycles, the error of the
//! measured speedups against the paper's Figure 7, and the functional
//! check against the plain-Rust goldens. `compile_suite` and `sim_faulted`
//! use the designs and build it in their set-up; the other workloads build
//! it after their timed part, for its checks and `fig7_logerr`.
//!
//! The timing model is validated only against the *ratios* the paper
//! reports in Figure 7, never against hardware: `fig7_logerr` says how
//! far the reproduced speedups are from the published ones.

use pphw::{compile, CompileOptions, Compiled, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_bench::{options_for, PAPER_FIG7};
use pphw_ir::size::Size;
use pphw_sim::SimConfig;

use crate::harness::Checks;

/// The `.ppl` twins of the six builder benchmarks, in `all_benchmarks`
/// order, compiled into the binary so a run reads nothing but itself.
pub const SOURCES: [(&str, &str); 6] = [
    ("outerprod", include_str!("../../examples/outerprod.ppl")),
    ("sumrows", include_str!("../../examples/sumrows.ppl")),
    ("gemm", include_str!("../../examples/gemm.ppl")),
    ("tpchq6", include_str!("../../examples/tpchq6.ppl")),
    ("gda", include_str!("../../examples/gda.ppl")),
    ("kmeans", include_str!("../../examples/kmeans.ppl")),
];

/// One of the 18 Figure 7 designs.
pub struct Fig7Design {
    /// Benchmark name.
    pub bench: &'static str,
    /// Optimization level.
    pub level: OptLevel,
    /// The compiled design at paper sizes.
    pub compiled: Compiled,
    /// Fault-free simulated cycles on the default substrate.
    pub cycles: u64,
}

/// The fixture.
pub struct Fig7 {
    /// 18 designs: benchmark-major, level-minor.
    pub designs: Vec<Fig7Design>,
    /// Geometric mean of the 18 cycle counts.
    pub geomean_cycles: f64,
    /// Mean `|ln(measured speedup / paper speedup)|` over the 12
    /// (benchmark, optimized level) pairs of the paper's Figure 7.
    pub logerr: f64,
}

/// Geometric mean of positive integers.
#[must_use]
pub fn geomean(xs: impl IntoIterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        let x = x.max(1) as f64;
        sum += x.ln();
        n += 1;
    }
    (sum / f64::from(n.max(1))).exp()
}

/// Sizes small enough for the reference interpreter that still span
/// several tiles per dimension (the table `tests/end_to_end.rs` uses).
#[allow(clippy::type_complexity)]
fn small_sizes(name: &str) -> (Vec<(&'static str, i64)>, Vec<(&'static str, i64)>) {
    match name {
        "outerprod" => (vec![("m", 64), ("n", 48)], vec![("m", 16), ("n", 16)]),
        "sumrows" => (vec![("m", 32), ("n", 64)], vec![("m", 8), ("n", 64)]),
        "gemm" => (
            vec![("m", 24), ("n", 16), ("p", 32)],
            vec![("m", 8), ("n", 8), ("p", 8)],
        ),
        "tpchq6" => (vec![("n", 1024)], vec![("n", 128)]),
        "gda" => (vec![("n", 96), ("d", 8)], vec![("n", 16)]),
        "kmeans" => (
            vec![("n", 128), ("k", 8), ("d", 8)],
            vec![("n", 16), ("k", 4)],
        ),
        other => panic!("no small sizes for benchmark {other}"),
    }
}

/// Compiles the benchmark small, runs it on seeded inputs through the
/// reference interpreter and compares with the plain-Rust golden.
fn golden_matches(spec: &BenchSpec, level: OptLevel, seed: u64) -> bool {
    let (sizes, tiles) = small_sizes(spec.name);
    let env = Size::env(&sizes);
    let opts = CompileOptions::new(&sizes).tiles(&tiles).opt(level);
    let Ok(compiled) = compile(&(spec.program)(), &opts) else {
        return false;
    };
    let inputs = (spec.inputs)(&env, seed);
    let Ok(got) = compiled.execute(inputs.clone()) else {
        return false;
    };
    let want = (spec.golden)(&inputs, &env);
    got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| g.approx_eq(w, 1e-3))
}

/// Builds the fixture and records its correctness checks: every design
/// verifies clean, computes what its golden computes on inputs drawn from
/// `seed`, and simulates to the same report twice.
pub fn build(seed: u64, checks: &mut Checks) -> Fig7 {
    let sim = SimConfig::default();
    let mut designs = Vec::with_capacity(18);
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let what = || format!("{} at {level}", spec.name);
            let compiled = match compile(&prog, &options_for(&spec).opt(level)) {
                Ok(c) => c,
                Err(e) => {
                    checks.that(false, || format!("{}: does not compile: {e}", what()));
                    continue;
                }
            };
            let report = compiled.verify();
            checks.that(report.is_clean(), || {
                format!("{}: verifier found {}", what(), report.to_text())
            });
            checks.that(golden_matches(&spec, level, seed), || {
                format!("{}: execute differs from the golden", what())
            });
            let first = compiled.simulate(&sim);
            let second = compiled.simulate(&sim);
            match (first, second) {
                (Ok(a), Ok(b)) => {
                    checks.eq(
                        &format!("{}: second simulation", what()),
                        b.cycles,
                        a.cycles,
                    );
                    checks.that(a == b, || format!("{}: two reports differ", what()));
                    designs.push(Fig7Design {
                        bench: spec.name,
                        level,
                        compiled,
                        cycles: a.cycles,
                    });
                }
                _ => checks.that(false, || format!("{}: does not simulate", what())),
            }
        }
    }
    let cycles_of = |bench: &str, level: OptLevel| {
        designs
            .iter()
            .find(|d| d.bench == bench && d.level == level)
            .map(|d| d.cycles)
    };
    let mut errs = Vec::with_capacity(12);
    for (bench, paper_tiled, paper_meta) in PAPER_FIG7 {
        for (level, paper) in [
            (OptLevel::Tiled, paper_tiled),
            (OptLevel::Metapipelined, paper_meta),
        ] {
            if let (Some(base), Some(opt)) = (
                cycles_of(bench, OptLevel::Baseline),
                cycles_of(bench, level),
            ) {
                let measured = base as f64 / opt.max(1) as f64;
                errs.push((measured / paper).ln().abs());
            }
        }
    }
    checks.eq("Figure 7 pairs measured", errs.len() as u64, 12);
    let logerr = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    Fig7 {
        geomean_cycles: geomean(designs.iter().map(|d| d.cycles)),
        designs,
        logerr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers_is_the_middle_power() {
        assert!((geomean([10, 100, 1000]) - 100.0).abs() < 1e-9);
        assert!((geomean([7]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn sources_follow_the_benchmark_order() {
        let names: Vec<&str> = all_benchmarks().iter().map(|s| s.name).collect();
        let twins: Vec<&str> = SOURCES.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, twins);
    }
}
