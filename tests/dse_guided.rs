//! Acceptance tests for model-guided design-space exploration
//! on the real compile+simulate pipeline (synthetic-evaluator unit tests
//! live in `pphw-dse` itself).
//!
//! The guarantees checked here, for **every one of the six Table 5
//! benchmarks**:
//!
//! 1. **Guided optimality** — for each of the three objective modes
//!    (min-cycles, cycles-then-area, fastest-under-area-cap), the guided
//!    search returns exactly the winner an exhaustive sweep returns,
//!    while simulating strictly fewer points — at most 30% of the `dse`
//!    driver's full-size sumrows space.
//! 2. **Thread independence** — the guided report is identical on 1 and
//!    4 worker threads.
//!
//! Spaces are built over shrunken workload sizes (every dimension capped
//! at 64) so the whole matrix stays fast in debug builds; one evaluation
//! cache is shared across all exhaustive/guided runs so each unique
//! configuration is compiled and simulated exactly once.

use std::sync::Arc;

use pphw::dse::{explore_with_caches, DesignArtifact};
use pphw::CompileOptions;
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_bench::sweep::{sweep_base_options, sweep_sim_variants, sweep_space};
use pphw_dse::cache::{DesignCache, EvalCache};
use pphw_dse::{
    pow2_divisors, DseConfig, DseReport, GuidedConfig, Objective, SearchSpace, Strategy,
};
use pphw_sim::SimConfig;

/// Workload sizes capped at 64 per dimension: big enough that tile and
/// parallelism choices matter, small enough for debug-build simulation.
fn small_sizes(spec: &BenchSpec) -> Vec<(&'static str, i64)> {
    (spec.sizes)()
        .into_iter()
        .map(|(k, v)| (k, v.min(64)))
        .collect()
}

/// Up to three power-of-two tile candidates per tuned dimension, two
/// substrate variants, three parallelism factors.
fn small_space(spec: &BenchSpec, sizes: &[(&'static str, i64)]) -> SearchSpace {
    let mut space = SearchSpace::new(sizes);
    for (dim, _) in (spec.tiles)() {
        let n = sizes
            .iter()
            .find(|(k, _)| *k == dim)
            .map(|(_, v)| *v)
            .expect("tile dim has a size");
        let mut cands = pow2_divisors(n);
        cands.truncate(3);
        space = space.with_tile_candidates(dim, &cands);
    }
    space.with_inner_pars(&[2, 4, 8, 16]).with_sim_variants(&[
        ("max4", SimConfig::default()),
        ("fast-clock", SimConfig::default().with_clock_mhz(200.0)),
        ("low-bw", SimConfig::default().with_dram_gbps(38.4)),
    ])
}

fn explore(
    spec: &BenchSpec,
    sizes: &[(&'static str, i64)],
    space: &SearchSpace,
    cfg: &DseConfig,
    evals: &EvalCache,
    designs: &Arc<DesignCache<DesignArtifact>>,
) -> DseReport {
    let base = CompileOptions::new(sizes);
    explore_with_caches(
        &(spec.program)(),
        &base,
        space,
        cfg,
        evals,
        Arc::clone(designs),
    )
    .unwrap_or_else(|e| panic!("{}: search failed: {e}", spec.name))
}

/// Guided parameters scaled to the space: roughly a sixth of the points
/// calibrate the model and a third are measured from the top of the
/// ranking, so every space — the 36-point 1-dimension ones and the
/// 324-point 3-dimension ones alike — is genuinely subsampled while
/// leaving margin for near-ties the model cannot order (substrate
/// siblings whose true cycles differ by a fraction of a percent). The
/// aggressive slices are exercised where ties are far apart in the
/// ranking: ≤30% on the `dse` driver's sumrows space at the end of the
/// first test, 0.2% on the 131072-point space by the benchmark's
/// `dse_guided_big` workload.
fn guided_for(space_len: usize) -> Strategy {
    Strategy::Guided(GuidedConfig {
        sample: (space_len / 6).max(8),
        top_k: (space_len / 3).max(8),
        explore: 4,
        ..GuidedConfig::default()
    })
}

/// The report identity that must survive strategy and threading: the
/// winner plus the full measured ranking.
fn ranking(r: &DseReport) -> Vec<(String, u64, f64)> {
    r.evaluated
        .iter()
        .map(|p| (p.label.clone(), p.cycles, p.area_score))
        .collect()
}

#[test]
fn guided_matches_exhaustive_on_every_benchmark_and_objective() {
    let evals = EvalCache::new();
    let designs: Arc<DesignCache<DesignArtifact>> = Arc::new(DesignCache::new());
    for spec in &all_benchmarks() {
        let sizes = small_sizes(spec);
        let space = small_space(spec, &sizes);
        let base_cfg = DseConfig {
            threads: 1,
            ..DseConfig::default()
        };

        // Exhaustive under the default objective also calibrates the
        // area cap: the median measured area, so the cap genuinely
        // excludes designs.
        let full = explore(spec, &sizes, &space, &base_cfg, &evals, &designs);
        let mut areas: Vec<f64> = full.evaluated.iter().map(|p| p.area_score).collect();
        areas.sort_by(f64::total_cmp);
        let cap = areas[areas.len() / 2];

        let objectives = [
            Objective::MinCycles,
            Objective::CyclesThenArea,
            Objective::FastestUnderAreaCap { area_cap: cap },
        ];
        for objective in objectives {
            let exhaustive = explore(
                spec,
                &sizes,
                &space,
                &DseConfig {
                    objective,
                    ..base_cfg
                },
                &evals,
                &designs,
            );
            let guided_cfg = DseConfig {
                strategy: guided_for(space.len()),
                objective,
                ..base_cfg
            };
            let g1 = explore(spec, &sizes, &space, &guided_cfg, &evals, &designs);
            assert_eq!(
                (g1.best.label.clone(), g1.best.cycles),
                (exhaustive.best.label.clone(), exhaustive.best.cycles),
                "{}: guided missed the exhaustive optimum under {objective:?}",
                spec.name
            );
            assert!(
                g1.stats.simulated < exhaustive.stats.simulated,
                "{}: guided simulated {} of {} — it skipped nothing",
                spec.name,
                g1.stats.simulated,
                exhaustive.stats.simulated
            );
            assert!(g1.stats.sampled > 0, "{}: no calibration sample", spec.name);

            // Thread independence: the whole guided report, not just the
            // winner, is identical on 4 workers.
            let g4 = explore(
                spec,
                &sizes,
                &space,
                &DseConfig {
                    threads: 4,
                    ..guided_cfg
                },
                &evals,
                &designs,
            );
            assert_eq!(
                ranking(&g1),
                ranking(&g4),
                "{}: thread-dependent",
                spec.name
            );
        }
    }

    // How much guided search saves where it is meant to be used: on the
    // `dse` driver's own full-size sumrows space, 8 calibration samples +
    // the model's top 8 + 2 explored find the exhaustive winner from at
    // most 30% of the enumerated points.
    let spec = pphw_apps::benchmark("sumrows").expect("benchmark exists");
    let budget = 256 * 1024;
    let space = sweep_space(&spec, false, &sweep_sim_variants(false));
    let run = |strategy| {
        let cfg = DseConfig {
            threads: 2,
            on_chip_budget_bytes: budget,
            strategy,
            ..DseConfig::default()
        };
        explore_with_caches(
            &(spec.program)(),
            &sweep_base_options(&spec, budget),
            &space,
            &cfg,
            &evals,
            Arc::clone(&designs),
        )
        .expect("sumrows search")
    };
    let exhaustive = run(Strategy::Exhaustive);
    let guided = run(Strategy::Guided(GuidedConfig {
        sample: 8,
        top_k: 8,
        explore: 2,
        ..GuidedConfig::default()
    }));
    assert_eq!(
        (guided.best.label.as_str(), guided.best.cycles),
        (exhaustive.best.label.as_str(), exhaustive.best.cycles)
    );
    assert!(
        guided.stats.simulated * 10 <= guided.stats.exhaustive * 3,
        "guided simulated {} of {} enumerated points (cap 30%)",
        guided.stats.simulated,
        guided.stats.exhaustive
    );
}
