//! The exploration engine: prefilter, model-guided candidate selection,
//! memoized parallel evaluation, deterministic ranking.

use std::cmp::Ordering;

use pphw_hw::{area_objective, AreaBudget};
use pphw_ir::program::Program;

use crate::cache::{config_key, EvalCache};
use crate::model::{candidate_features, fingerprint, pick_sample, CostModel};
use crate::pareto::{compare_points, pareto_frontier};
use crate::prune::{area_lower_bound, prefilter, Analytic, PruneDecision};
use crate::report::{DseReport, DseStats, EvaluatedPoint, FailedPoint};
use crate::space::{Candidate, SearchSpace};
use crate::{DseError, EvalOutcome, Evaluate};

/// Default seed for guided calibration sampling (`b"pphw-dse"` as a
/// little-endian word): fixed so two guided runs of the same space agree
/// without coordination.
pub const DEFAULT_GUIDED_SEED: u64 = u64::from_le_bytes(*b"pphw-dse");

/// Tuning for [`Strategy::Guided`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuidedConfig {
    /// Calibration sample size: how many survivors are measured to fit
    /// the cost model. The sample is chosen by stable fingerprint, so it
    /// is identical across thread counts.
    pub sample: usize,
    /// How many of the model's top-ranked survivors to actually measure.
    pub top_k: usize,
    /// Exploration band: additionally measure this many survivors spread
    /// evenly across the rest of the ranking, so a systematically wrong
    /// model is visible in the report's prediction-error columns instead
    /// of silently steering the search.
    pub explore: usize,
    /// Seed for the deterministic calibration sample.
    pub seed: u64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            sample: 32,
            top_k: 64,
            explore: 8,
            seed: DEFAULT_GUIDED_SEED,
        }
    }
}

/// How the evaluator sizes the channels (FIFOs, double buffers) of each
/// candidate's generated design before measuring it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityMode {
    /// Keep the depths the hardware generator chose.
    #[default]
    AsGenerated,
    /// Rewrite every channel-carrying memory to the minimal safe depth
    /// the flow analyzer computes (`pphw_verify::flow::infer_capacities`)
    /// — the area-lean end of the throughput/area trade-off.
    InferredMinimal,
}

/// How the engine spends its simulation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Measure every prefilter survivor (the classic sweep).
    #[default]
    Exhaustive,
    /// Measure a seeded calibration sample, fit the analytic cost model
    /// to it, rank every survivor by predicted objective, and measure
    /// only the top slice plus an exploration band.
    Guided(GuidedConfig),
}

impl Strategy {
    /// The strategy a name and the guided tuning values describe — the
    /// one parser behind the daemon's `strategy` field and the `dse`
    /// binary's `--strategy` flag. No name means exhaustive; tuning
    /// values left out take [`GuidedConfig::default`].
    ///
    /// # Errors
    ///
    /// A message naming the unknown strategy, or saying that tuning
    /// values were given without the guided strategy that reads them.
    pub fn parse(
        name: Option<&str>,
        sample: Option<usize>,
        top_k: Option<usize>,
        explore: Option<usize>,
        seed: Option<u64>,
    ) -> Result<Strategy, String> {
        let d = GuidedConfig::default();
        match name {
            None | Some("exhaustive") => {
                if sample.or(top_k).or(explore).is_some() || seed.is_some() {
                    return Err(
                        "sample, top-k, explore and seed tune the `guided` strategy only"
                            .to_string(),
                    );
                }
                Ok(Strategy::Exhaustive)
            }
            Some("guided") => Ok(Strategy::Guided(GuidedConfig {
                sample: sample.unwrap_or(d.sample),
                top_k: top_k.unwrap_or(d.top_k),
                explore: explore.unwrap_or(d.explore),
                seed: seed.unwrap_or(d.seed),
            })),
            Some(other) => Err(format!(
                "unknown strategy `{other}`; known: exhaustive, guided"
            )),
        }
    }
}

/// What "best" means.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Fewest simulated cycles (labels break ties).
    MinCycles,
    /// Fewest cycles, then smallest area, then label — the engine's
    /// historical total order.
    #[default]
    CyclesThenArea,
    /// Fewest cycles among points whose area objective fits under the
    /// cap; [`DseError::NoFeasibleConfig`] if nothing fits.
    FastestUnderAreaCap {
        /// Maximum admissible area objective (device utilization
        /// fraction, same scale as [`EvaluatedPoint::area_score`]).
        area_cap: f64,
    },
}

impl Objective {
    /// The objective a name and an area cap describe — the one parser
    /// behind the daemon's `objective`/`area_cap` fields and the `dse`
    /// binary's `--objective`/`--area-cap` flags. A cap alone implies
    /// `area-cap`; no name and no cap is the default order.
    ///
    /// # Errors
    ///
    /// A message naming the unknown objective, a cap that is not a
    /// positive finite number, `area-cap` without a cap, or a cap beside
    /// an objective that would ignore it.
    pub fn parse(name: Option<&str>, area_cap: Option<f64>) -> Result<Objective, String> {
        if area_cap.is_some_and(|cap| !(cap.is_finite() && cap > 0.0)) {
            return Err("the area cap must be a positive finite number".to_string());
        }
        match (name, area_cap) {
            (None | Some("cycles-area"), None) => Ok(Objective::CyclesThenArea),
            (Some("min-cycles"), None) => Ok(Objective::MinCycles),
            (None | Some("area-cap"), Some(area_cap)) => {
                Ok(Objective::FastestUnderAreaCap { area_cap })
            }
            (Some("area-cap"), None) => Err("objective `area-cap` needs an area cap".to_string()),
            (Some("min-cycles" | "cycles-area"), Some(_)) => {
                Err("an area cap only makes sense with objective `area-cap`".to_string())
            }
            (Some(other), _) => Err(format!(
                "unknown objective `{other}`; known: min-cycles, cycles-area, area-cap"
            )),
        }
    }

    /// The total order this objective ranks feasible points with.
    #[must_use]
    pub fn cmp_points(&self, a: &EvaluatedPoint, b: &EvaluatedPoint) -> Ordering {
        match self {
            Objective::MinCycles => a.cycles.cmp(&b.cycles).then_with(|| a.label.cmp(&b.label)),
            Objective::CyclesThenArea => compare_points(a, b),
            Objective::FastestUnderAreaCap { area_cap } => {
                let a_fits = a.area_score <= *area_cap;
                let b_fits = b.area_score <= *area_cap;
                // Points under the cap sort strictly before points over it.
                b_fits.cmp(&a_fits).then_with(|| compare_points(a, b))
            }
        }
    }

    /// Whether a point satisfies the objective's hard constraint (always
    /// true except under an area cap).
    #[must_use]
    pub fn admits(&self, p: &EvaluatedPoint) -> bool {
        match self {
            Objective::FastestUnderAreaCap { area_cap } => p.area_score <= *area_cap,
            _ => true,
        }
    }
}

/// Attempts per candidate when the evaluator panics. A candidate that
/// fails both is recorded as an [`EvalOutcome::Failed`] in the report; the
/// sweep always completes.
const EVAL_ATTEMPTS: usize = 2;

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Worker threads for candidate evaluation (`0` = one per available
    /// core). The result is identical for every value.
    pub threads: usize,
    /// On-chip memory budget in bytes (prefilter and reporting; the
    /// evaluator enforces its own authoritative post-compile check).
    pub on_chip_budget_bytes: u64,
    /// Area budget for the analytic prefilter.
    pub area_budget: AreaBudget,
    /// Exhaustive or model-guided measurement.
    pub strategy: Strategy,
    /// How the evaluator sizes each candidate's channels (honored by
    /// evaluators that compile real designs; synthetic test evaluators
    /// ignore it).
    pub capacity_mode: CapacityMode,
    /// What "best" means when ranking feasible points.
    pub objective: Objective,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            threads: 0,
            on_chip_budget_bytes: 6 * 1024 * 1024,
            area_budget: AreaBudget::full_device(),
            strategy: Strategy::Exhaustive,
            capacity_mode: CapacityMode::default(),
            objective: Objective::CyclesThenArea,
        }
    }
}

impl DseConfig {
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Explores the space: analytic prefilter, then measurement of the
/// survivors — all of them ([`Strategy::Exhaustive`]) or a model-selected
/// slice ([`Strategy::Guided`]) — then deterministic ranking under the
/// configured [`Objective`] into the best point and the cycles-vs-area
/// Pareto frontier.
///
/// Determinism: the returned report is a pure function of (program,
/// space, evaluator, pre-existing cache contents, config) — thread count
/// and scheduling cannot change it. Candidates are enumerated and pruned
/// in canonical order, the guided sample and ranking derive from stable
/// fingerprints and deterministic arithmetic, results are merged by
/// candidate index, and ranking uses a total order.
///
/// # Errors
///
/// [`DseError::EmptySpace`] if the space enumerates to nothing;
/// [`DseError::NoFeasibleConfig`] if every point is pruned, infeasible,
/// or (under an area cap) over the cap.
pub fn explore(
    prog: &Program,
    space: &SearchSpace,
    evaluator: &dyn Evaluate,
    cache: &EvalCache,
    cfg: &DseConfig,
) -> Result<DseReport, DseError> {
    let candidates = space.candidates();
    if candidates.is_empty() {
        return Err(DseError::EmptySpace);
    }
    let mut stats = DseStats {
        exhaustive: candidates.len(),
        ..DseStats::default()
    };

    // Analytic prefilter: reject before compiling.
    let decisions = prefilter(
        prog,
        space.sizes(),
        &candidates,
        cfg.on_chip_budget_bytes,
        &cfg.area_budget,
    );
    // The scores each survivor was kept on, as `(first survivor, scores)`
    // per run of equal scores: the space enumerates tile configurations
    // outermost, so a run is a configuration's whole lanes x substrate
    // block and a space has a handful of runs (one copy per survivor is
    // 3 MiB on 131072 points). The survivors reuse the candidate list's
    // allocation, so they are not unzipped from pairs either.
    let mut analytics: Vec<(usize, Analytic)> = Vec::new();
    let mut kept = 0;
    let survivors: Vec<Candidate> = candidates
        .into_iter()
        .zip(decisions)
        .filter_map(|(c, d)| {
            let pruned = match d {
                PruneDecision::Keep(a) => {
                    if analytics.last().is_none_or(|(_, last)| *last != a) {
                        analytics.push((kept, a));
                    }
                    kept += 1;
                    return Some(c);
                }
                PruneDecision::Tile(_) => &mut stats.pruned_tile,
                PruneDecision::Illegal(_) => &mut stats.pruned_verify,
                PruneDecision::Budget { .. } => &mut stats.pruned_budget,
                PruneDecision::Area => &mut stats.pruned_area,
            };
            *pruned += 1;
            None
        })
        .collect();
    let n = survivors.len();
    let analytic = |i: usize| &analytics[analytics.partition_point(|(first, _)| *first <= i) - 1].1;

    // Memoized evaluation of an index subset on the work-stealing pool.
    // The bool records whether the measurement came from the cache;
    // counted after the parallel section so the tallies are
    // scheduling-independent. Each job runs under panic isolation with
    // bounded retry, so one crashing candidate is a recorded failure, not
    // a lost sweep. (`EvalCache::insert` refuses `Failed` outcomes, so a
    // later sweep retries them instead of replaying the failure.)
    let salt = evaluator.cache_salt();
    let measure = |indices: &[usize]| -> Vec<(usize, EvalOutcome, bool)> {
        let subset: Vec<Candidate> = indices.iter().map(|&i| survivors[i].clone()).collect();
        let outcomes: Vec<Result<(EvalOutcome, bool), String>> = crate::pool::run_indexed_isolated(
            cfg.resolved_threads(),
            &subset,
            EVAL_ATTEMPTS,
            |_, c| {
                let key = config_key(&prog.name, space.sizes(), &salt, c);
                if let Some(hit) = cache.get(key) {
                    (hit, true)
                } else {
                    let out = evaluator.evaluate(c);
                    cache.insert(key, out.clone());
                    (out, false)
                }
            },
        );
        indices
            .iter()
            .zip(outcomes)
            .map(|(&i, result)| match result {
                Ok((outcome, from_cache)) => (i, outcome, from_cache),
                Err(msg) => (
                    i,
                    EvalOutcome::Failed(format!("evaluator panicked: {msg}")),
                    false,
                ),
            })
            .collect()
    };

    // Decide which survivors to measure.
    let mut predictions: Vec<Option<f64>> = vec![None; n];
    let mut measured: Vec<(usize, EvalOutcome, bool)> = match &cfg.strategy {
        Strategy::Exhaustive => measure(&(0..n).collect::<Vec<_>>()),
        Strategy::Guided(g) => {
            // 1. Calibration: measure a seeded sample chosen by stable
            //    fingerprint, so it does not depend on enumeration
            //    position.
            let fps: Vec<u64> = survivors
                .iter()
                .map(|c| fingerprint(&prog.name, c))
                .collect();
            let sample_idx = pick_sample(&fps, g.sample.max(1), g.seed);
            let in_sample = {
                let mut flags = vec![false; n];
                for &i in &sample_idx {
                    flags[i] = true;
                }
                flags
            };
            let mut measured = measure(&sample_idx);

            // 2. Fit the cost model on the feasible sample measurements,
            //    over features built from the traffic prediction each
            //    survivor passed the prefilter with.
            let features =
                |i: usize| candidate_features(&analytic(i).traffic, space.sizes(), &survivors[i]);
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (i, outcome, _) in &measured {
                if let EvalOutcome::Feasible(m) = outcome {
                    xs.push(features(*i));
                    ys.push(m.cycles as f64);
                }
            }
            match CostModel::fit(&xs, &ys) {
                None => {
                    // Nothing feasible to calibrate on: degenerate to
                    // exhaustive over the remaining survivors rather
                    // than skip points on an unfit model's word.
                    let rest: Vec<usize> = (0..n).filter(|&i| !in_sample[i]).collect();
                    measured.extend(measure(&rest));
                }
                Some(model) => {
                    stats.sampled = sample_idx.len();
                    stats.ranked = n;
                    // 3. Predict every survivor and rank the unsampled
                    //    ones by predicted objective. Under an area cap,
                    //    a candidate that cannot fit ranks last: exactly,
                    //    when the evaluator can compile (not simulate)
                    //    the design and report its true area — area is a
                    //    function of the design alone, so substrate
                    //    siblings share one compile — or conservatively
                    //    by the analytic area lower bound otherwise
                    //    (real designs are at least that large). Without
                    //    the exact check, fast-but-oversized points
                    //    flood the top slice only to be rejected after
                    //    measurement, squeezing out the true winner.
                    let mut keys = Vec::with_capacity(n);
                    for (i, c) in survivors.iter().enumerate() {
                        let pred = model.predict(&features(i));
                        predictions[i] = Some(pred);
                        let capped = match cfg.objective {
                            Objective::FastestUnderAreaCap { area_cap } => {
                                let area = evaluator.area_hint(c).unwrap_or_else(|| {
                                    area_lower_bound(c.inner_par, analytic(i).on_chip_bytes)
                                });
                                area_objective(area) > area_cap
                            }
                            _ => false,
                        };
                        keys.push(if capped { f64::INFINITY } else { pred });
                    }
                    let mut rest: Vec<usize> = (0..n).filter(|&i| !in_sample[i]).collect();
                    rest.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));

                    // 4. Select the top slice plus an exploration band
                    //    spread evenly over the rest of the ranking.
                    let top_end = g.top_k.min(rest.len());
                    let mut selected: Vec<usize> = rest[..top_end].to_vec();
                    let tail = &rest[top_end..];
                    let picks = g.explore.min(tail.len());
                    for k in 0..picks {
                        selected.push(tail[k * tail.len() / picks]);
                    }
                    selected.sort_unstable();
                    selected.dedup();
                    stats.skipped_model = rest.len() - selected.len();

                    // 5. Measure the selected slice.
                    measured.extend(measure(&selected));
                }
            }
            measured
        }
    };
    stats.evaluated = measured.len();
    stats.simulated = measured.len();

    // Merge in candidate-index order so downstream processing (failure
    // lists, tallies) is independent of measurement pass structure.
    measured.sort_by_key(|(i, _, _)| *i);

    let mut points: Vec<EvaluatedPoint> = Vec::with_capacity(measured.len());
    let mut failures: Vec<FailedPoint> = Vec::new();
    for (i, outcome, from_cache) in measured {
        let c = &survivors[i];
        if from_cache {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        match outcome {
            EvalOutcome::Feasible(m) => points.push(EvaluatedPoint {
                label: c.label(),
                tiles: c.tiles.clone(),
                inner_par: c.inner_par,
                sim_label: c.sim_label.clone(),
                cycles: m.cycles,
                dram_words: m.dram_words,
                on_chip_bytes: m.on_chip_bytes,
                area: m.area,
                area_score: area_objective(m.area),
                predicted_cycles: predictions[i],
            }),
            EvalOutcome::Infeasible(_) => stats.infeasible += 1,
            EvalOutcome::Failed(error) => {
                stats.failed += 1;
                failures.push(FailedPoint {
                    label: c.label(),
                    error,
                });
            }
        }
    }

    points.sort_by(|a, b| cfg.objective.cmp_points(a, b));
    let best = points.first().cloned().ok_or(DseError::NoFeasibleConfig)?;
    if !cfg.objective.admits(&best) {
        return Err(DseError::NoFeasibleConfig);
    }
    let frontier = pareto_frontier(&points);
    Ok(DseReport {
        name: prog.name.clone(),
        best,
        frontier,
        evaluated: points,
        failures,
        stats,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::Measurement;
    use pphw_hw::Area;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// map(m,n){ x * 2 } — trivially tileable in both dims.
    fn program() -> Program {
        let src = "program scale2d(m, n) {
          input x: Float[m, n]
          let y = map(m, n) { (i, j) => yield 2.0 * x(i, j) }
          return (y)
        }";
        pphw_frontend::parse_program(src, "scale2d.ppl")
            .expect("parses")
            .program
    }

    /// A synthetic evaluator: cycles fall with tile volume (locality) and
    /// lane count; area grows with lanes. Counts invocations so tests can
    /// assert what was actually (re)computed.
    struct Synthetic {
        calls: AtomicU64,
    }

    impl Synthetic {
        fn new() -> Synthetic {
            Synthetic {
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Evaluate for Synthetic {
        fn evaluate(&self, c: &Candidate) -> EvalOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let vol: i64 = c.tiles.iter().map(|(_, v)| *v).product::<i64>().max(1);
            let cycles = 1_000_000 / (vol as u64) / (c.inner_par as u64);
            EvalOutcome::Feasible(Measurement {
                cycles,
                dram_words: vol as u64,
                on_chip_bytes: (vol * 4) as u64,
                area: Area {
                    logic: c.inner_par as f64 * 320.0,
                    ff: c.inner_par as f64 * 480.0,
                    mem: 4.0,
                },
            })
        }

        fn cache_salt(&self) -> String {
            "synthetic".into()
        }

        fn area_hint(&self, c: &Candidate) -> Option<Area> {
            // Exact, simulation-free: mirrors the area `evaluate` reports,
            // the way a compile-only pass does for the real evaluator.
            Some(Area {
                logic: c.inner_par as f64 * 320.0,
                ff: c.inner_par as f64 * 480.0,
                mem: 4.0,
            })
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new(&[("m", 64), ("n", 64)])
            .tune_dim("m")
            .unwrap()
            .tune_dim("n")
            .unwrap()
            .with_inner_pars(&[8, 16, 32])
    }

    #[test]
    fn best_and_frontier_identical_across_thread_counts() {
        let mut reference: Option<DseReport> = None;
        for threads in [1usize, 2, 8] {
            let eval = Synthetic::new();
            let cache = EvalCache::new();
            let cfg = DseConfig {
                threads,
                ..DseConfig::default()
            };
            let report = explore(&program(), &space(), &eval, &cache, &cfg).unwrap();
            if let Some(r) = &reference {
                assert_eq!(r.best.label, report.best.label, "threads={threads}");
                assert_eq!(r.best.cycles, report.best.cycles);
                assert_eq!(r.frontier.len(), report.frontier.len());
                for (a, b) in r.frontier.iter().zip(&report.frontier) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.cycles, b.cycles);
                    assert_eq!(a.area_score.to_bits(), b.area_score.to_bits());
                }
                let ra: Vec<_> = r.evaluated.iter().map(|p| &p.label).collect();
                let rb: Vec<_> = report.evaluated.iter().map(|p| &p.label).collect();
                assert_eq!(ra, rb, "full ranking identical at {threads} threads");
                assert_eq!(r.stats, report.stats);
            }
            reference = Some(report);
        }
    }

    #[test]
    fn shared_cache_prevents_recompilation() {
        let eval = Synthetic::new();
        let cache = EvalCache::new();
        let cfg = DseConfig::default();
        let first = explore(&program(), &space(), &eval, &cache, &cfg).unwrap();
        let compiled_once = eval.calls.load(Ordering::SeqCst);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(first.stats.cache_misses, compiled_once);

        // Same search again: every measurement is a cache hit.
        let second = explore(&program(), &space(), &eval, &cache, &cfg).unwrap();
        assert_eq!(eval.calls.load(Ordering::SeqCst), compiled_once);
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits as usize, second.stats.evaluated);
        assert_eq!(second.best.label, first.best.label);

        // An overlapping sweep (superset of lane counts) only compiles the
        // new points.
        let wider = space().with_inner_pars(&[8, 16, 32, 64]);
        let third = explore(&program(), &wider, &eval, &cache, &cfg).unwrap();
        assert_eq!(third.stats.cache_hits as usize, first.stats.evaluated);
        assert_eq!(
            third.stats.cache_misses as usize,
            third.stats.evaluated - first.stats.evaluated
        );
    }

    #[test]
    fn empty_space_is_an_error() {
        let s = SearchSpace::new(&[("m", 64)]).with_inner_pars(&[]);
        let err = explore(
            &program(),
            &s,
            &Synthetic::new(),
            &EvalCache::new(),
            &DseConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, DseError::EmptySpace);
    }

    /// An evaluator that rejects everything: the engine must report
    /// NoFeasibleConfig, not panic or return an empty best.
    struct AlwaysInfeasible;
    impl Evaluate for AlwaysInfeasible {
        fn evaluate(&self, _c: &Candidate) -> EvalOutcome {
            EvalOutcome::Infeasible("nope".into())
        }
    }

    #[test]
    fn all_infeasible_is_an_error() {
        let err = explore(
            &program(),
            &space(),
            &AlwaysInfeasible,
            &EvalCache::new(),
            &DseConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, DseError::NoFeasibleConfig);
    }

    /// An evaluator that panics on some candidates: the engine must
    /// record those as failures and still rank the survivors — and the
    /// result must stay identical across thread counts.
    struct Explosive {
        calls: AtomicU64,
    }

    impl Evaluate for Explosive {
        fn evaluate(&self, c: &Candidate) -> EvalOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            assert!(c.inner_par != 16, "injected evaluator crash at par=16");
            Synthetic::new().evaluate(c)
        }

        fn cache_salt(&self) -> String {
            "explosive".into()
        }
    }

    #[test]
    fn panicking_candidates_are_recorded_failures_not_lost_sweeps() {
        let mut reference: Option<DseReport> = None;
        for threads in [1usize, 4] {
            let eval = Explosive {
                calls: AtomicU64::new(0),
            };
            let cfg = DseConfig {
                threads,
                ..DseConfig::default()
            };
            let report = explore(&program(), &space(), &eval, &EvalCache::new(), &cfg).unwrap();
            assert!(report.stats.failed > 0, "par=16 candidates must fail");
            assert_eq!(report.failures.len(), report.stats.failed);
            for f in &report.failures {
                assert!(f.label.contains("par=16"), "unexpected failure {f:?}");
                assert!(f.error.contains("injected evaluator crash"));
            }
            assert!(
                report.evaluated.iter().all(|p| p.inner_par != 16),
                "crashed candidates must not produce points"
            );
            assert!(!report.evaluated.is_empty(), "survivors still ranked");
            assert_eq!(
                report.stats.evaluated,
                report.evaluated.len() + report.stats.failed
            );
            if let Some(r) = &reference {
                assert_eq!(r.best.label, report.best.label, "threads={threads}");
                assert_eq!(r.failures, report.failures);
                assert_eq!(r.stats, report.stats);
            }
            reference = Some(report);
        }
    }

    #[test]
    fn failed_outcomes_are_retried_not_cached() {
        // Fails on the first call for each candidate at par=16; a retry
        // within the same sweep succeeds, so the report has no failures
        // and the retry actually ran (calls > candidates).
        struct FlakyOnce {
            calls: AtomicU64,
            first: std::sync::Mutex<std::collections::HashSet<String>>,
        }
        impl Evaluate for FlakyOnce {
            fn evaluate(&self, c: &Candidate) -> EvalOutcome {
                self.calls.fetch_add(1, Ordering::SeqCst);
                if c.inner_par == 16 && self.first.lock().unwrap().insert(c.label()) {
                    panic!("transient fault");
                }
                Synthetic::new().evaluate(c)
            }
        }
        let eval = FlakyOnce {
            calls: AtomicU64::new(0),
            first: std::sync::Mutex::new(std::collections::HashSet::new()),
        };
        let cfg = DseConfig {
            threads: 1,
            ..DseConfig::default()
        };
        let report = explore(&program(), &space(), &eval, &EvalCache::new(), &cfg).unwrap();
        assert_eq!(report.stats.failed, 0, "{:?}", report.failures);
        assert!(eval.calls.load(Ordering::SeqCst) as usize > report.stats.evaluated);
    }

    /// A wider space (96 points) so guided search has something to skip.
    fn wide_space() -> SearchSpace {
        SearchSpace::new(&[("m", 64), ("n", 64)])
            .tune_dim("m")
            .unwrap()
            .tune_dim("n")
            .unwrap()
            .with_inner_pars(&[1, 2, 4, 8, 16, 32])
    }

    fn guided_cfg(threads: usize) -> DseConfig {
        DseConfig {
            threads,
            strategy: Strategy::Guided(GuidedConfig {
                sample: 16,
                top_k: 8,
                explore: 4,
                seed: DEFAULT_GUIDED_SEED,
            }),
            ..DseConfig::default()
        }
    }

    #[test]
    fn guided_finds_the_exhaustive_optimum_while_skipping_most_points() {
        let exhaustive = explore(
            &program(),
            &wide_space(),
            &Synthetic::new(),
            &EvalCache::new(),
            &DseConfig::default(),
        )
        .unwrap();
        let eval = Synthetic::new();
        let guided = explore(
            &program(),
            &wide_space(),
            &eval,
            &EvalCache::new(),
            &guided_cfg(1),
        )
        .unwrap();
        assert_eq!(guided.best.label, exhaustive.best.label);
        assert_eq!(guided.best.cycles, exhaustive.best.cycles);
        let s = guided.stats;
        assert_eq!(s.sampled, 16);
        assert_eq!(s.ranked, 96, "every survivor ranked");
        assert!(
            s.simulated < s.ranked / 2,
            "guided must skip most points: simulated {} of {}",
            s.simulated,
            s.ranked
        );
        assert_eq!(s.simulated, s.evaluated);
        assert_eq!(
            s.sampled + s.skipped_model + (s.simulated - s.sampled),
            s.ranked
        );
        assert_eq!(eval.calls.load(Ordering::SeqCst) as usize, s.simulated);
        assert!(
            guided.best.predicted_cycles.is_some(),
            "guided points carry model predictions"
        );
    }

    #[test]
    fn guided_reports_are_identical_across_thread_counts() {
        let mut reference: Option<DseReport> = None;
        for threads in [1usize, 4] {
            let report = explore(
                &program(),
                &wide_space(),
                &Synthetic::new(),
                &EvalCache::new(),
                &guided_cfg(threads),
            )
            .unwrap();
            if let Some(r) = &reference {
                assert_eq!(r.best.label, report.best.label);
                assert_eq!(r.stats, report.stats);
                let ra: Vec<_> = r.evaluated.iter().map(|p| &p.label).collect();
                let rb: Vec<_> = report.evaluated.iter().map(|p| &p.label).collect();
                assert_eq!(ra, rb, "threads={threads}");
                for (a, b) in r.evaluated.iter().zip(&report.evaluated) {
                    assert_eq!(
                        a.predicted_cycles.map(f64::to_bits),
                        b.predicted_cycles.map(f64::to_bits)
                    );
                }
            }
            reference = Some(report);
        }
    }

    #[test]
    fn objectives_select_different_winners() {
        // Synthetic: cycles fall with lanes, area grows with lanes, so
        // min-cycles picks the widest design and an area cap forces a
        // narrower one.
        let run = |objective: Objective| {
            explore(
                &program(),
                &wide_space(),
                &Synthetic::new(),
                &EvalCache::new(),
                &DseConfig {
                    objective,
                    ..DseConfig::default()
                },
            )
        };
        let min_cycles = run(Objective::MinCycles).unwrap();
        let lex = run(Objective::CyclesThenArea).unwrap();
        assert_eq!(
            min_cycles.best.cycles, lex.best.cycles,
            "same fastest cycle count either way"
        );
        assert!(min_cycles.best.label.contains("par=32"));

        // Cap below the 32-lane design's area: the winner must fit and
        // be the fastest point that fits.
        let wide_area = min_cycles.best.area_score;
        let cap = wide_area * 0.9;
        let capped = run(Objective::FastestUnderAreaCap { area_cap: cap }).unwrap();
        assert!(capped.best.area_score <= cap);
        assert!(capped.best.cycles >= min_cycles.best.cycles);
        let fastest_fitting = lex
            .evaluated
            .iter()
            .filter(|p| p.area_score <= cap)
            .map(|p| p.cycles)
            .min()
            .unwrap();
        assert_eq!(capped.best.cycles, fastest_fitting);

        // A cap below every point is NoFeasibleConfig, not a silent
        // over-cap winner.
        let err = run(Objective::FastestUnderAreaCap { area_cap: 0.0 }).unwrap_err();
        assert_eq!(err, DseError::NoFeasibleConfig);
    }

    #[test]
    fn guided_respects_the_objective_under_an_area_cap() {
        let cap_source = explore(
            &program(),
            &wide_space(),
            &Synthetic::new(),
            &EvalCache::new(),
            &DseConfig {
                objective: Objective::MinCycles,
                ..DseConfig::default()
            },
        )
        .unwrap();
        let cap = cap_source.best.area_score * 0.9;
        let objective = Objective::FastestUnderAreaCap { area_cap: cap };
        let exhaustive = explore(
            &program(),
            &wide_space(),
            &Synthetic::new(),
            &EvalCache::new(),
            &DseConfig {
                objective,
                ..DseConfig::default()
            },
        )
        .unwrap();
        let guided = explore(
            &program(),
            &wide_space(),
            &Synthetic::new(),
            &EvalCache::new(),
            &DseConfig {
                objective,
                ..guided_cfg(1)
            },
        )
        .unwrap();
        assert_eq!(guided.best.label, exhaustive.best.label);
        assert!(guided.best.area_score <= cap);
    }
}
