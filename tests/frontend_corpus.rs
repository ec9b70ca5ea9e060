//! The parsed corpus joins the differential harness: every benchmark
//! program, as parsed from its `examples/*.ppl` file, earns the
//! end-to-end guarantees (golden model, tiling, simulated design) on one
//! small sweep case, without repeating the full tier-1 sweep.

use pphw_apps::all_benchmarks;
use pphw_testkit::differential::{run_differential, DiffCase, DiffOptions};

/// One small sweep case per benchmark, enough to push the parsed program
/// through all three semantics.
fn small_case(name: &str) -> DiffCase {
    match name {
        "outerprod" => DiffCase::new(&[("m", 32), ("n", 32)], &[("m", 8), ("n", 8)], 711),
        "sumrows" => DiffCase::new(&[("m", 16), ("n", 64)], &[("m", 4), ("n", 64)], 721),
        "gemm" => DiffCase::new(
            &[("m", 16), ("n", 16), ("p", 16)],
            &[("m", 4), ("n", 4), ("p", 4)],
            731,
        ),
        "tpchq6" => DiffCase::new(&[("n", 256)], &[("n", 32)], 741),
        "gda" => DiffCase::new(&[("n", 64), ("d", 8)], &[("n", 16)], 751),
        "kmeans" => DiffCase::new(
            &[("n", 64), ("k", 4), ("d", 4)],
            &[("n", 16), ("k", 2)],
            761,
        ),
        other => panic!("unknown benchmark {other}"),
    }
}

#[test]
fn parsed_corpus_passes_differential_harness() {
    for spec in all_benchmarks() {
        let report = run_differential(
            spec.name,
            &(spec.program)(),
            &spec.inputs,
            Some(&spec.golden),
            &[small_case(spec.name)],
            &DiffOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: parsed program failed differential: {e}", spec.name));
        assert_eq!(report.cases.len(), 1);
        assert!(report.cases[0].levels.iter().all(|l| l.cycles > 0));
    }
}
