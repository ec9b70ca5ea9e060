//! Acceptance tests for the design-space-exploration subsystem on the
//! real compile+simulate pipeline (the synthetic-evaluator unit tests
//! live in `pphw-dse` itself).
//!
//! The two hard guarantees checked here:
//!
//! 1. **Determinism** — the best point, the Pareto frontier, the full
//!    ranking, and every counter are bit-identical whether the search
//!    runs on 1, 2, or 8 worker threads.
//! 2. **The prefilter pays** — with a constraining budget, the analytic
//!    prefilter measurably reduces the number of compile+simulate
//!    evaluations versus exhaustive enumeration, without changing the
//!    best point it finds.

use std::sync::Arc;

use pphw::dse::{explore_program, explore_with_caches};
use pphw::CompileOptions;
use pphw_dse::cache::{DesignCache, EvalCache};
use pphw_dse::{DseConfig, DseError, SearchSpace};
use pphw_ir::Program;
use pphw_sim::SimConfig;

/// A design cache nobody else shares, for searches that only care about
/// the measurement cache.
fn fresh_designs() -> Arc<DesignCache<pphw::dse::DesignArtifact>> {
    Arc::new(DesignCache::new())
}

fn benchmark(name: &str) -> Program {
    let spec = pphw_apps::benchmark(name).expect("benchmark exists");
    (spec.program)()
}

const GEMM_SIZES: &[(&str, i64)] = &[("m", 32), ("n", 32), ("p", 32)];

fn gemm_space() -> SearchSpace {
    SearchSpace::new(GEMM_SIZES)
        .tune_dim("m")
        .unwrap()
        .tune_dim("n")
        .unwrap()
        .tune_dim("p")
        .unwrap()
        .with_inner_pars(&[8, 16])
}

#[test]
fn dse_is_deterministic_across_thread_counts_on_real_pipeline() {
    let prog = benchmark("gemm");
    let base = CompileOptions::new(GEMM_SIZES);
    let space = gemm_space();
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let cfg = DseConfig {
            threads,
            ..DseConfig::default()
        };
        let report = explore_program(&prog, &base, &space, &cfg).expect("search succeeds");
        assert!(report.best.cycles > 0);
        if let Some(r) = &reference {
            let r: &pphw_dse::DseReport = r;
            assert_eq!(r.best.label, report.best.label, "threads={threads}");
            assert_eq!(r.best.cycles, report.best.cycles);
            assert_eq!(
                r.best.area_score.to_bits(),
                report.best.area_score.to_bits(),
                "bit-identical area objective"
            );
            let labels = |rep: &pphw_dse::DseReport| {
                rep.evaluated
                    .iter()
                    .map(|p| (p.label.clone(), p.cycles))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                labels(r),
                labels(&report),
                "full ranking at {threads} threads"
            );
            let frontier = |rep: &pphw_dse::DseReport| {
                rep.frontier
                    .iter()
                    .map(|p| (p.label.clone(), p.cycles, p.area_score.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(frontier(r), frontier(&report));
            assert_eq!(r.stats, report.stats);
        }
        reference = Some(report);
    }

    // The winner is at least as fast as the smallest tiling compiled and
    // simulated directly, and respects the on-chip budget.
    let best = reference.expect("ran").best;
    let small = pphw::compile(
        &prog,
        &base
            .clone()
            .tiles(&[("m", 4), ("n", 4), ("p", 4)])
            .inner_par(16),
    )
    .expect("4x4x4 compiles");
    let small_cycles = small.simulate_default().expect("simulates").cycles;
    assert!(
        best.cycles <= small_cycles,
        "best {} ({} cycles) lost to the 4x4x4 tiling ({small_cycles} cycles)",
        best.label,
        best.cycles
    );
    assert!(best.on_chip_bytes <= base.on_chip_budget_bytes);
}

#[test]
fn prefilter_reduces_evaluations_without_changing_the_best() {
    let prog = benchmark("gemm");
    // A 2 KiB budget: big tiles need a multi-KiB interchanged accumulator
    // plus tile copies, so the analytic prefilter rejects them before the
    // compiler runs; small tiles fit.
    let budget = 2 * 1024;
    let base = CompileOptions::new(GEMM_SIZES);
    let mut base_budget = base.clone();
    base_budget.on_chip_budget_bytes = budget;
    let space = gemm_space();

    let pruned_cfg = DseConfig {
        threads: 2,
        on_chip_budget_bytes: budget,
        ..DseConfig::default()
    };
    let pruned = explore_program(&prog, &base_budget, &space, &pruned_cfg).expect("search");
    assert!(
        pruned.stats.pruned_budget > 0,
        "budget prune must fire: {:?}",
        pruned.stats
    );
    assert!(
        pruned.stats.evaluated < pruned.stats.exhaustive,
        "prefilter must reduce evaluations: {:?}",
        pruned.stats
    );
    assert!(!pruned.evaluated.is_empty(), "small tiles must fit");
    assert!(pruned.best.on_chip_bytes <= budget);
    // Every pruned point was only *analytically* rejected; the survivors
    // still cover the space, so cache misses equal survivors.
    assert_eq!(
        pruned.stats.cache_misses as usize, pruned.stats.evaluated,
        "fresh cache: every survivor compiled once"
    );

    // A run whose *analytic* prefilter has no budget to prune by, while
    // the evaluator's authoritative post-compile check keeps the 2 KiB
    // budget, must agree on the best point: the prefilter only rejects
    // candidates that check would reject anyway.
    let exhaustive_cfg = DseConfig {
        threads: 2,
        on_chip_budget_bytes: u64::MAX,
        ..DseConfig::default()
    };
    let exhaustive = explore_program(&prog, &base_budget, &space, &exhaustive_cfg).expect("search");
    assert_eq!(exhaustive.stats.pruned_total(), 0);
    assert_eq!(exhaustive.stats.evaluated, exhaustive.stats.exhaustive);
    assert!(
        exhaustive.stats.evaluated > pruned.stats.evaluated,
        "prefilter saved {} of {} compiles",
        exhaustive.stats.evaluated - pruned.stats.evaluated,
        exhaustive.stats.evaluated
    );
    assert_eq!(exhaustive.best.label, pruned.best.label);
    assert_eq!(exhaustive.best.cycles, pruned.best.cycles);
}

#[test]
fn shared_cache_short_circuits_repeat_searches() {
    let prog = benchmark("sumrows");
    let sizes: &[(&str, i64)] = &[("m", 64), ("n", 64)];
    let base = CompileOptions::new(sizes);
    let space = SearchSpace::new(sizes)
        .tune_dim("m")
        .unwrap()
        .with_inner_pars(&[8, 16]);
    let cache = EvalCache::new();
    let cfg = DseConfig::default();

    let first =
        explore_with_caches(&prog, &base, &space, &cfg, &cache, fresh_designs()).expect("search");
    assert_eq!(first.stats.cache_hits, 0);
    assert_eq!(first.stats.cache_misses as usize, first.stats.evaluated);

    let second =
        explore_with_caches(&prog, &base, &space, &cfg, &cache, fresh_designs()).expect("search");
    assert_eq!(second.stats.cache_misses, 0, "everything memoized");
    assert_eq!(second.stats.cache_hits as usize, second.stats.evaluated);
    assert_eq!(second.best.label, first.best.label);
    assert_eq!(second.best.cycles, first.best.cycles);
}

#[test]
fn design_cache_compiles_each_design_once_across_substrate_variants() {
    let prog = benchmark("sumrows");
    let sizes: &[(&str, i64)] = &[("m", 64), ("n", 64)];
    let base = CompileOptions::new(sizes);
    // Two substrate variants sample every (tile, par) point: the design
    // cache must halve the compile count without touching the report.
    let space = SearchSpace::new(sizes)
        .tune_dim("m")
        .unwrap()
        .with_inner_pars(&[8, 16])
        .with_sim_variants(&[
            ("max4", SimConfig::default()),
            ("low-bw", SimConfig::default().with_dram_gbps(38.4)),
        ]);
    let cfg = DseConfig::default();

    let plain = explore_program(&prog, &base, &space, &cfg).expect("search");
    let designs = Arc::new(DesignCache::new());
    let shared = explore_with_caches(
        &prog,
        &base,
        &space,
        &cfg,
        &EvalCache::new(),
        Arc::clone(&designs),
    )
    .expect("search");

    assert_eq!(shared.to_json(), plain.to_json(), "reports must not change");
    assert_eq!(
        designs.builds() + designs.hits(),
        shared.stats.evaluated as u64
    );
    assert_eq!(
        designs.builds() * 2,
        shared.stats.evaluated as u64,
        "each design compiled once, reused by the second substrate"
    );
}

#[test]
fn persistent_cache_round_trips_through_a_real_search() {
    let prog = benchmark("sumrows");
    let sizes: &[(&str, i64)] = &[("m", 64), ("n", 64)];
    let base = CompileOptions::new(sizes);
    let space = SearchSpace::new(sizes)
        .tune_dim("m")
        .unwrap()
        .with_inner_pars(&[8, 16]);
    let cfg = DseConfig::default();

    let dir = pphw_testkit::TempDir::new("dse-persist");
    let path = dir.path().join("evals.pphwc");

    let cache = EvalCache::new();
    let first =
        explore_with_caches(&prog, &base, &space, &cfg, &cache, fresh_designs()).expect("search");
    cache.save(&path).expect("save");

    // A fresh process would reload the file and start with an empty
    // compile-artifact cache: everything must replay from disk with zero
    // evaluator work — not one design compiled — and a report identical
    // but for the hit/miss counters.
    let reloaded = EvalCache::load(&path).expect("load");
    let designs = Arc::new(DesignCache::new());
    let mut second =
        explore_with_caches(&prog, &base, &space, &cfg, &reloaded, Arc::clone(&designs))
            .expect("search");
    assert_eq!(second.stats.cache_misses, 0, "warm from disk");
    assert_eq!(second.stats.cache_hits as usize, second.stats.evaluated);
    assert_eq!(
        designs.builds(),
        0,
        "an eval hit must not reach the compiler"
    );
    second.stats.cache_hits = first.stats.cache_hits;
    second.stats.cache_misses = first.stats.cache_misses;
    assert_eq!(second.to_json(), first.to_json());
}

/// The static-legality stage of the prefilter: a fold whose combine is
/// subtraction cannot be parallelized, so every `inner_par > 1` candidate
/// is rejected *before* compile ([`PPHW010`]'s race condition), counted
/// in `pruned_verify` — while the serial candidates survive, compile, and
/// still produce a best point.
#[test]
fn non_associative_combine_candidates_are_statically_pruned() {
    let src = "program subfold(m) {
      input x: Float[m]
      let total = fold(m) {
        acc total: Float = splat(0.0)
        (i) (acc) => yield acc + x(i)
        combine (a, b) { yield a - b }
      }
      return (total)
    }";
    let prog = pphw_frontend::parse_program(src, "subfold.ppl")
        .expect("parses")
        .program;

    let sizes: &[(&str, i64)] = &[("m", 64)];
    let base = CompileOptions::new(sizes);
    let space = SearchSpace::new(sizes)
        .tune_dim("m")
        .expect("m is a dimension")
        .with_inner_pars(&[1, 8]);
    let cfg = DseConfig::default();

    let report = explore_program(&prog, &base, &space, &cfg).expect("serial candidates survive");
    assert!(
        report.stats.pruned_verify >= 1,
        "static-legality prune must fire: {:?}",
        report.stats
    );
    // Exactly the parallel half of the space is illegal: every surviving
    // evaluation is a serial candidate.
    assert_eq!(
        report.stats.pruned_verify + report.stats.evaluated + report.stats.pruned_tile,
        report.stats.exhaustive,
        "{:?}",
        report.stats
    );
    assert!(report.best.cycles > 0);
    assert!(
        report.best.label.contains("par=1 "),
        "best must be serial: {}",
        report.best.label
    );
}

#[test]
fn impossible_budget_is_no_feasible_config() {
    let prog = benchmark("gemm");
    let mut base = CompileOptions::new(GEMM_SIZES);
    base.on_chip_budget_bytes = 16;
    let cfg = DseConfig {
        on_chip_budget_bytes: 16,
        ..DseConfig::default()
    };
    let err = explore_program(&prog, &base, &gemm_space(), &cfg).unwrap_err();
    assert_eq!(err, DseError::NoFeasibleConfig);
}

#[test]
fn unknown_dimension_is_rejected_when_building_the_space() {
    let err = SearchSpace::new(GEMM_SIZES).tune_dim("zzz").unwrap_err();
    assert_eq!(err, DseError::UnknownDim("zzz".into()));
}

#[test]
fn inferred_minimal_capacity_mode_matches_as_generated_on_minimal_designs() {
    use pphw::dse::CapacityMode;
    let prog = benchmark("sumrows");
    let sizes: &[(&str, i64)] = &[("m", 64), ("n", 64)];
    let base = CompileOptions::new(sizes);
    let space = SearchSpace::new(sizes)
        .tune_dim("m")
        .unwrap()
        .with_inner_pars(&[8]);

    // The generator already emits minimal channel depths, so inferring
    // them must be a no-op on every point of the sweep.
    let plain = explore_program(&prog, &base, &space, &DseConfig::default()).expect("search");
    let cfg = DseConfig {
        capacity_mode: CapacityMode::InferredMinimal,
        ..DseConfig::default()
    };
    let inferred = explore_program(&prog, &base, &space, &cfg).expect("search");
    assert_eq!(inferred.best.label, plain.best.label);
    assert_eq!(inferred.best.cycles, plain.best.cycles);
    assert_eq!(inferred.best.area_score, plain.best.area_score);
}
