//! The three design-space-exploration workloads. They share one engine
//! (`pphw_dse::explore` over `pphw::dse::CompileEvaluator`) and differ in
//! which part of it does the work:
//!
//! - `dse_cold_gemm`: fresh caches, every candidate compiled and
//!   simulated — the simulator's workload.
//! - `dse_warm_replay`: every evaluation answered from a cache file —
//!   enumeration, prefilter, hashing, lookup, Pareto and report rendering.
//! - `dse_guided_big`: 131072 candidates ranked by the fitted cost model,
//!   a few hundred simulated — feature extraction, fit and ranking.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pphw::dse::{CompileEvaluator, DesignArtifact};
use pphw::{compile, install_verifier, CompileOptions};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_bench::sweep::{big_space, sweep_base_options, sweep_sim_variants, sweep_space};
use pphw_dse::cache::{DesignCache, EvalCache};
use pphw_dse::{
    explore, Candidate, DseConfig, DseReport, EvalOutcome, Evaluate, GuidedConfig, SearchSpace,
    Strategy,
};
use pphw_hw::{Area, AreaBudget};
use pphw_ir::program::Program;

use crate::fixture::{self, geomean};
use crate::harness::{blocks, mix, Checks, Params, RunResult, Setups, Timed};
use crate::layers::{self, ns_per_op, Layers};
use crate::spec;
use crate::trace::{span, Tracer};

/// On-chip budget of every sweep (256 KiB, the `dse` driver's default):
/// tight enough that the analytic prefilter has something to reject.
const BUDGET: u64 = 256 * 1024;

fn bench(name: &str) -> BenchSpec {
    all_benchmarks()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} exists"))
}

fn config(strategy: Strategy, threads: usize) -> DseConfig {
    DseConfig {
        threads,
        on_chip_budget_bytes: BUDGET,
        area_budget: AreaBudget::device_fraction(1.0),
        strategy,
        ..DseConfig::default()
    }
}

/// What one exploration searches: a program, the options every
/// candidate shares, and the space.
struct Target {
    prog: Program,
    base: CompileOptions,
    space: SearchSpace,
}

/// One evaluator call as the stopwatch saw it.
struct Evaluation {
    /// The candidate (kept under the recorder only, for the replay).
    candidate: Option<Candidate>,
    ns: u64,
}

/// `CompileEvaluator` with a stopwatch: times every evaluation, and under
/// the recorder gives each a span and remembers its candidate.
struct Stopwatch<'a> {
    inner: CompileEvaluator<'a>,
    tracer: Option<&'a Tracer>,
    parent: Option<u32>,
    op: u64,
    log: Mutex<Vec<Evaluation>>,
}

impl Evaluate for Stopwatch<'_> {
    fn evaluate(&self, c: &Candidate) -> EvalOutcome {
        let t = Instant::now();
        let out = span(self.tracer, self.parent, self.op, "core.evaluate", |_| {
            self.inner.evaluate(c)
        });
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.log
            .lock()
            .expect("no evaluation panics while logging")
            .push(Evaluation {
                candidate: self.tracer.map(|_| c.clone()),
                ns,
            });
        out
    }

    fn cache_salt(&self) -> String {
        self.inner.cache_salt()
    }

    fn area_hint(&self, c: &Candidate) -> Option<Area> {
        self.inner.area_hint(c)
    }
}

/// One exploration and what the stopwatch saw of it.
struct Explored {
    report: DseReport,
    secs: f64,
    /// Every evaluator call, in call order.
    evaluations: Vec<Evaluation>,
    design_builds: u64,
    design_reuses: u64,
}

impl Explored {
    /// The candidates evaluated (traced runs only).
    fn candidates(&self) -> Vec<Candidate> {
        self.evaluations
            .iter()
            .filter_map(|e| e.candidate.clone())
            .collect()
    }

    /// How long each evaluator call took.
    fn evaluation_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.evaluations.iter().map(|e| e.ns)
    }
}

/// What `pphw::dse::explore_with_caches` does, with the stopwatch between
/// the engine and the evaluator.
fn explore_timed(
    target: &Target,
    cfg: &DseConfig,
    cache: &EvalCache,
    tracer: Option<&Tracer>,
    op: u64,
) -> Option<Explored> {
    install_verifier();
    let designs: Arc<DesignCache<DesignArtifact>> = Arc::new(DesignCache::new());
    let t = Instant::now();
    let (report, log) = span(tracer, None, op, "dse.explore", |me| {
        let watch = Stopwatch {
            inner: CompileEvaluator::with_design_cache(
                &target.prog,
                &target.base,
                Arc::clone(&designs),
            )
            .with_capacity_mode(cfg.capacity_mode),
            tracer,
            parent: me,
            op,
            log: Mutex::new(Vec::new()),
        };
        let report = explore(&target.prog, &target.space, &watch, cache, cfg);
        (
            report,
            watch.log.into_inner().expect("no evaluation panicked"),
        )
    });
    let secs = t.elapsed().as_secs_f64();
    Some(Explored {
        report: report.ok()?,
        secs,
        evaluations: log,
        design_builds: designs.builds(),
        design_reuses: designs.hits(),
    })
}

/// Every enumerated candidate is accounted for: pruned, skipped by the
/// model, or measured; and every measured one is feasible, infeasible or
/// failed.
fn accounts_for_every_candidate(r: &DseReport, checks: &mut Checks) {
    let s = &r.stats;
    checks.eq(
        &format!("{}: pruned + skipped + measured", r.name),
        (s.pruned_total() + s.skipped_model + s.shard_skipped + s.evaluated) as u64,
        s.exhaustive as u64,
    );
    checks.eq(
        &format!("{}: feasible + infeasible + failed", r.name),
        (r.evaluated.len() + s.infeasible + s.failed) as u64,
        s.evaluated as u64,
    );
    checks.eq(
        &format!("{}: failed evaluations", r.name),
        s.failed as u64,
        0,
    );
}

fn options_for_point(
    base: &CompileOptions,
    tiles: &[(String, i64)],
    inner_par: u32,
) -> CompileOptions {
    let pairs: Vec<(&str, i64)> = tiles.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut opts = base.clone().tiles(&pairs);
    opts.inner_par = inner_par;
    opts.meta_inner_par = None;
    opts
}

/// The winner's cycles equal a direct `compile` + `simulate` of it.
fn winner_matches_direct(target: &Target, r: &DseReport, checks: &mut Checks) {
    let winner = target
        .space
        .candidates()
        .into_iter()
        .find(|c| c.label() == r.best.label);
    let direct = winner.and_then(|c| {
        let compiled = compile(
            &target.prog,
            &options_for_point(&target.base, &c.tiles, c.inner_par),
        )
        .ok()?;
        compiled.simulate(&c.sim).ok()
    });
    checks.eq(
        &format!("{}: winner {} simulated directly", r.name, r.best.label),
        direct.map_or(0, |d| d.cycles),
        r.best.cycles,
    );
}

/// Report JSON with the cache-state counters masked: hit/miss tallies
/// legitimately differ between a cold and a warm run, no other byte may.
fn mask_cache_counters(json: &str) -> String {
    let Some(i) = json.find("\"cache_hits\":") else {
        return json.to_string();
    };
    let close = json[i..].find('}').map_or(json.len(), |j| i + j);
    format!(
        "{}\"cache_hits\":0,\"cache_misses\":0{}",
        &json[..i],
        &json[close..]
    )
}

fn digest_str(digest: &mut u64, s: &str) {
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(digest, u64::from_le_bytes(word));
    }
}

/// Compile per distinct design and simulate per candidate, each under its
/// own span: what the evaluator's time is made of, measured from outside.
struct Replay {
    cycles: u64,
    dram_words: u64,
}

fn replay(target: &Target, candidates: &[Candidate], tracer: &Tracer) -> Replay {
    let mut out = Replay {
        cycles: 0,
        dram_words: 0,
    };
    // The design of the previous candidate, kept while the next ones
    // differ from it only in their substrate.
    let mut last: Option<(&Candidate, pphw::Compiled)> = None;
    for c in candidates {
        let reuse = last
            .as_ref()
            .is_some_and(|(p, _)| p.tiles == c.tiles && p.inner_par == c.inner_par);
        if !reuse {
            let opts = options_for_point(&target.base, &c.tiles, c.inner_par);
            let compiled = span(Some(tracer), None, 0, "core.compile", |_| {
                compile(&target.prog, &opts)
            });
            last = compiled.ok().map(|d| (c, d));
        }
        if let Some((_, compiled)) = &last {
            let report = span(Some(tracer), None, 0, "sim.simulate", |_| {
                compiled.simulate(&c.sim)
            });
            if let Ok(r) = report {
                out.cycles += r.cycles;
                out.dram_words += r.dram_words;
            }
        }
    }
    out
}

/// Sums over the explorations of a traced run.
#[derive(Default)]
struct Tally {
    enumerated: u64,
    evaluated: u64,
    cache_hits: u64,
    cache_misses: u64,
    pruned: u64,
    simulated: u64,
    design_builds: u64,
    design_reuses: u64,
}

impl Tally {
    fn add(&mut self, e: &Explored) {
        let s = &e.report.stats;
        self.enumerated += s.exhaustive as u64;
        self.evaluated += e.evaluations.len() as u64;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.pruned += s.pruned_total() as u64;
        self.simulated += s.simulated as u64;
        self.design_builds += e.design_builds;
        self.design_reuses += e.design_reuses;
    }
}

/// The `dse.*`, `core.*` and `sim.*` metrics every DSE workload derives
/// the same way from its spans, its tallies and the replay.
fn dse_layers(
    l: &mut Layers,
    totals: &layers::Totals,
    tally: &Tally,
    replayed: Option<&Replay>,
    root_ns: u64,
) {
    let explore = totals.get("dse.explore").copied().unwrap_or_default();
    let evaluate = totals.get("core.evaluate").copied().unwrap_or_default();
    l.insert(
        "dse.evaluate_ns_per_point",
        ns_per_op(totals, "core.evaluate"),
    );
    l.insert(
        "dse.engine_self_ns_per_point",
        explore.self_ns as f64 / tally.enumerated.max(1) as f64,
    );
    l.insert("dse.cache_hits", tally.cache_hits as f64);
    l.insert("dse.cache_misses", tally.cache_misses as f64);
    l.insert("dse.design_builds", tally.design_builds as f64);
    l.insert("dse.design_reuses", tally.design_reuses as f64);
    l.insert("dse.pruned", tally.pruned as f64);
    l.insert("dse.simulated", tally.simulated as f64);
    l.insert(
        "dse.simulated_frac",
        tally.simulated as f64 / tally.enumerated.max(1) as f64,
    );
    l.insert("core.compile_ns_per_op", ns_per_op(totals, "core.compile"));
    l.insert("sim.simulate_ns_per_op", ns_per_op(totals, "sim.simulate"));
    if let Some(r) = replayed {
        let sim_ns = totals.get("sim.simulate").map_or(0, |t| t.total_ns) as f64;
        l.insert(
            "sim.host_ns_per_kcycle",
            sim_ns / (r.cycles.max(1) as f64 / 1e3),
        );
        l.insert("sim.cycles_total", r.cycles as f64);
        l.insert("sim.dram_words_total", r.dram_words as f64);
        // The evaluator's spans cover compile + simulate as one call.
        // The replay ran both back to back; the evaluator's time is
        // split between simulator and driver in the replay's proportion.
        let compile_ns = totals.get("core.compile").map_or(0, |t| t.total_ns) as f64;
        let in_sim = evaluate.total_ns as f64 * sim_ns / (sim_ns + compile_ns).max(1.0);
        l.insert("sim.self_share", in_sim / root_ns.max(1) as f64);
        l.insert(
            "core.self_share",
            (evaluate.total_ns as f64 - in_sim) / root_ns.max(1) as f64,
        );
    }
}

// --------------------------------------------------------------------
// dse_cold_gemm
// --------------------------------------------------------------------

/// gemm at 128^3, an eighth of the paper's 256^3 in simulated work. At
/// 256^3 a sweep takes 4-5 s here and a run holds four: too few, too long
/// segments for any of them to escape the host's slow stretches, and the
/// run-to-run spread of the row was 13-31%. At 128^3 a sweep takes 0.5 s,
/// a run holds 26, and the simulator still does over 90% of the work.
fn gemm_sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 128), ("n", 128), ("p", 128)]
}

fn gemm() -> BenchSpec {
    BenchSpec {
        sizes: gemm_sizes,
        ..bench("gemm")
    }
}

/// The space the `dse` driver sweeps for gemm: every tile x parallelism
/// point on every named substrate, 384 candidates over 128 distinct
/// designs, each design compiled once and simulated three times.
fn gemm_space(spec: &BenchSpec, quick: bool) -> SearchSpace {
    sweep_space(spec, quick, &sweep_sim_variants(quick))
}

fn setup_gemm(checks: &mut Checks) -> Target {
    let spec = gemm();
    let target = |quick| Target {
        prog: (spec.program)(),
        base: sweep_base_options(&spec, BUDGET),
        space: gemm_space(&spec, quick),
    };
    // A cold and a warm sweep of the quick space render the same report.
    let quick = target(true);
    let cache = EvalCache::new();
    let cfg = config(Strategy::Exhaustive, 1);
    let cold = explore_timed(&quick, &cfg, &cache, None, 0);
    let warm = explore_timed(&quick, &cfg, &cache, None, 0);
    match (cold, warm) {
        (Some(cold), Some(warm)) => {
            checks.eq(
                "quick gemm sweep: warm misses",
                warm.report.stats.cache_misses,
                0,
            );
            checks.that(
                mask_cache_counters(&cold.report.to_json())
                    == mask_cache_counters(&warm.report.to_json()),
                || "quick gemm sweep: cold and warm reports differ".to_string(),
            );
        }
        _ => checks.that(false, || {
            "quick gemm sweep found nothing feasible".to_string()
        }),
    }
    target(false)
}

/// The cold sweeps of one kind (untraced or traced) of a run, resumable
/// block by block. Each sweep is a unit and a segment of its own; the
/// latency samples are its evaluator calls.
struct GemmRun<'a> {
    target: &'a Target,
    cfg: DseConfig,
    timed: Timed,
    failed: u64,
    tally: Tally,
    first_json: String,
    first_evaluated: Vec<Candidate>,
}

impl<'a> GemmRun<'a> {
    fn new(target: &'a Target, sweeps: u64, threads: usize) -> GemmRun<'a> {
        GemmRun {
            target,
            cfg: config(Strategy::Exhaustive, threads),
            timed: Timed::new(
                sweeps,
                "candidate evaluated (compile if new, simulate)",
                0.0,
            ),
            failed: 0,
            tally: Tally::default(),
            first_json: String::new(),
            first_evaluated: Vec::new(),
        }
    }

    fn go(&mut self, sweeps: Range<u64>, tracer: Option<&Tracer>, checks: &mut Checks) {
        let per_sweep = self.target.space.candidates().len() as u64;
        for sweep in sweeps {
            let cache = EvalCache::new();
            let Some(e) = explore_timed(self.target, &self.cfg, &cache, tracer, sweep) else {
                checks.that(false, || "gemm sweep found nothing feasible".to_string());
                continue;
            };
            checks.eq(
                "candidates the gemm sweep enumerated",
                e.report.stats.exhaustive as u64,
                per_sweep,
            );
            self.failed += e.report.stats.failed as u64;
            self.timed
                .record(sweep, per_sweep, e.secs, e.evaluation_ns());
            self.timed.design_cycles = e.report.best.cycles as f64;
            let json = e.report.to_json();
            digest_str(&mut self.timed.digest, &json);
            self.tally.add(&e);
            if sweep == 0 {
                accounts_for_every_candidate(&e.report, checks);
                winner_matches_direct(self.target, &e.report, checks);
                self.first_evaluated = e.candidates();
                self.first_json = json;
            } else {
                checks.that(json == self.first_json, || {
                    format!("gemm sweep {sweep}: report differs from sweep 0")
                });
            }
        }
    }
}

/// Runs `dse_cold_gemm`.
#[must_use]
pub fn run_cold_gemm(p: &Params) -> RunResult {
    let w = spec::workload("dse_cold_gemm").expect("dse_cold_gemm is in the spec");
    let sweeps = p.units(w);
    let mut checks = Checks::new(p.sabotage);
    let mut setups = Setups::new(w.setup_reps, sweeps);
    let target = setups.time(|| setup_gemm(&mut checks));
    let mut plain = GemmRun::new(&target, sweeps, 1);
    let mut traced = p
        .trace
        .then(|| (GemmRun::new(&target, sweeps, 1), Tracer::new()));
    for (i, block) in (0..).zip(blocks(sweeps)) {
        setups.between(i, || setup_gemm(&mut Checks::default()));
        plain.go(block.clone(), None, &mut checks);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(block, Some(tracer), &mut checks);
        }
    }
    checks.ops(plain.timed.ops(), plain.failed);
    let mut result = RunResult::from_timed(w, sweeps, setups.fastest(), &plain.timed);
    if let Some((traced, tracer)) = traced {
        checks.ops(traced.timed.ops(), traced.failed);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        let unit_spans = tracer.len();
        let replayed = replay(&target, &traced.first_evaluated, &tracer);
        let spans = tracer.into_spans();
        let (mut l, totals, root_ns) =
            layers::from_spans(&spans, unit_spans, &traced.timed, &plain.timed);
        dse_layers(&mut l, &totals, &traced.tally, Some(&replayed), root_ns);
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if nproc >= 2 {
            // A few sweeps, for the fastest of them to stand beside the
            // fastest 1-thread sweep.
            let mut two = GemmRun::new(&target, 3, 2);
            two.go(0..3, None, &mut checks);
            checks.that(two.first_json == plain.first_json, || {
                "the 2-thread sweep's report differs from the 1-thread one".to_string()
            });
            l.insert(
                "dse.pool_speedup_t2",
                two.timed.rates(0.0).ops_per_s / plain.timed.rates(0.0).ops_per_s,
            );
        } else {
            result
                .notes
                .push("dse.pool_speedup_t2 omitted (reads 0): this host has one CPU".to_string());
        }
        result.layers = Some(l);
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    result.fig7_logerr(fixture::build(p.seed, &mut checks).logerr);
    result.absorb(checks);
    result
}

// --------------------------------------------------------------------
// dse_guided_big
// --------------------------------------------------------------------

fn guided(seed: u64) -> Strategy {
    Strategy::Guided(GuidedConfig {
        sample: 64,
        top_k: 192,
        explore: 16,
        seed,
    })
}

/// sumrows at 1024 x 256, a quarter of the paper's 2048 x 512. At the
/// paper's size simulating the ~270 selected points takes three quarters
/// of a search and a search 0.5-0.7 s, so a run holds 20 long segments; at
/// this size features, fit and ranking of the 131072 candidates - what the
/// workload is for - take over half, a search takes a quarter of a second
/// and a run holds 60. The space is the same 16 x 8 x 1024 points.
fn sumrows_sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 1024), ("n", 256)]
}

fn sumrows_big(quick: bool) -> Target {
    let spec = BenchSpec {
        sizes: sumrows_sizes,
        ..bench("sumrows")
    };
    Target {
        prog: (spec.program)(),
        base: sweep_base_options(&spec, BUDGET),
        space: big_space(&spec, quick),
    }
}

/// The first searches of every run use these guided seeds whatever
/// `--seed` is, and `design_cycles` is the geomean of their winners alone:
/// whether a search finds the space's best point depends on its guided
/// seed (about one in forty misses it by 0.6%), and `design_cycles` has to
/// read the same on every `--seed`, as it does on `sim_faulted`. One of
/// these sixteen misses, so the figure can move both ways.
const REFERENCE_SEARCHES: u64 = 16;
const REFERENCE_GUIDED_SEED: u64 = 1000;

/// Guided seed of search `i` of a run: a reference seed for the first
/// searches, `--seed + i` for the rest.
fn guided_seed(run_seed: u64, i: u64) -> u64 {
    if i < REFERENCE_SEARCHES {
        REFERENCE_GUIDED_SEED + i
    } else {
        run_seed.wrapping_add(i)
    }
}

/// Guided search finds what the exhaustive sweep finds, on a space small
/// enough to sweep (`big_space(sumrows, quick)`).
fn setup_guided(checks: &mut Checks) -> Target {
    let quick = sumrows_big(true);
    let small = GuidedConfig {
        sample: 12,
        top_k: 12,
        explore: 4,
        ..GuidedConfig::default()
    };
    let run = |strategy| explore_timed(&quick, &config(strategy, 1), &EvalCache::new(), None, 0);
    match (run(Strategy::Exhaustive), run(Strategy::Guided(small))) {
        (Some(ex), Some(g)) => {
            checks.eq(
                "quick space: guided winner's cycles",
                g.report.best.cycles,
                ex.report.best.cycles,
            );
            checks.that(g.report.best.label == ex.report.best.label, || {
                format!(
                    "quick space: guided chose {}, exhaustive {}",
                    g.report.best.label, ex.report.best.label
                )
            });
        }
        _ => checks.that(false, || {
            "quick space: a search found nothing feasible".to_string()
        }),
    }
    sumrows_big(false)
}

/// The guided searches of one kind (untraced or traced) of a run,
/// resumable block by block. Search `i` uses `guided_seed(--seed, i)` and
/// is a unit and a segment of its own; the latency samples are its
/// evaluator calls, as on `dse_cold_gemm`.
struct GuidedRun<'a> {
    target: &'a Target,
    seed: u64,
    timed: Timed,
    failed: u64,
    winners: Vec<u64>,
    tally: Tally,
    first_evaluated: Vec<Candidate>,
}

impl<'a> GuidedRun<'a> {
    fn new(target: &'a Target, p: &Params, searches: u64) -> GuidedRun<'a> {
        GuidedRun {
            target,
            seed: p.seed,
            timed: Timed::new(
                searches,
                "candidate evaluated (compile if new, simulate)",
                0.0,
            ),
            failed: 0,
            winners: Vec::new(),
            tally: Tally::default(),
            first_evaluated: Vec::new(),
        }
    }

    fn go(&mut self, searches: Range<u64>, tracer: Option<&Tracer>, checks: &mut Checks) {
        for i in searches {
            let cfg = config(guided(guided_seed(self.seed, i)), 1);
            let cache = EvalCache::new();
            let Some(e) = explore_timed(self.target, &cfg, &cache, tracer, i) else {
                checks.that(false, || {
                    format!("guided search {i} found nothing feasible")
                });
                continue;
            };
            self.failed += e.report.stats.failed as u64;
            self.timed.record(
                i,
                e.report.stats.exhaustive as u64,
                e.secs,
                e.evaluation_ns(),
            );
            self.winners.push(e.report.best.cycles);
            if i < REFERENCE_SEARCHES {
                self.timed.design_cycles = geomean(self.winners.iter().copied());
            }
            digest_str(&mut self.timed.digest, &e.report.to_json());
            self.tally.add(&e);
            if i == 0 {
                accounts_for_every_candidate(&e.report, checks);
                winner_matches_direct(self.target, &e.report, checks);
                self.first_evaluated = e.candidates();
            }
        }
    }
}

/// Runs `dse_guided_big`.
#[must_use]
pub fn run_guided_big(p: &Params) -> RunResult {
    let w = spec::workload("dse_guided_big").expect("dse_guided_big is in the spec");
    let searches = p.units(w);
    let mut checks = Checks::new(p.sabotage);
    let mut setups = Setups::new(w.setup_reps, searches);
    let target = setups.time(|| setup_guided(&mut checks));
    let mut plain = GuidedRun::new(&target, p, searches);
    let mut traced = p
        .trace
        .then(|| (GuidedRun::new(&target, p, searches), Tracer::new()));
    for (i, block) in (0..).zip(blocks(searches)) {
        setups.between(i, || setup_guided(&mut Checks::default()));
        plain.go(block.clone(), None, &mut checks);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(block, Some(tracer), &mut checks);
        }
    }
    checks.ops(plain.timed.ops(), plain.failed);
    let mut result = RunResult::from_timed(w, searches, setups.fastest(), &plain.timed);
    if let Some((traced, tracer)) = traced {
        checks.ops(traced.timed.ops(), traced.failed);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        let unit_spans = tracer.len();
        let replayed = replay(&target, &traced.first_evaluated, &tracer);
        let spans = tracer.into_spans();
        let (mut l, totals, root_ns) =
            layers::from_spans(&spans, unit_spans, &traced.timed, &plain.timed);
        dse_layers(&mut l, &totals, &traced.tally, Some(&replayed), root_ns);
        let rank = l["dse.engine_self_ns_per_point"];
        l.insert("dse.model_rank_ns_per_point", rank);
        l.insert(
            "dse.guided_winner_cycles",
            geomean(traced.winners.iter().copied()),
        );
        result.layers = Some(l);
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    result.fig7_logerr(fixture::build(p.seed, &mut checks).logerr);
    result.absorb(checks);
    result
}

// --------------------------------------------------------------------
// dse_warm_replay
// --------------------------------------------------------------------

struct Warm {
    /// Program, base options and full space of each of the six benchmarks.
    spaces: Vec<Target>,
    cache_file: PathBuf,
    /// Cache-masked report JSON of the cold sweep, one per benchmark.
    cold_reports: Vec<String>,
    winners: Vec<u64>,
}

fn setup_warm(p: &Params, checks: &mut Checks) -> Warm {
    let variants = sweep_sim_variants(false);
    let spaces: Vec<Target> = all_benchmarks()
        .iter()
        .map(|spec| Target {
            prog: (spec.program)(),
            base: sweep_base_options(spec, BUDGET),
            space: sweep_space(spec, false, &variants),
        })
        .collect();
    let cache = EvalCache::new();
    let cfg = config(Strategy::Exhaustive, 1);
    let (mut cold_reports, mut winners) = (Vec::new(), Vec::new());
    for target in &spaces {
        match explore_timed(target, &cfg, &cache, None, 0) {
            Some(e) => {
                accounts_for_every_candidate(&e.report, checks);
                if target.prog.name != "gemm" {
                    // gemm's winner is checked by dse_cold_gemm; the others are cheap.
                    winner_matches_direct(target, &e.report, checks);
                }
                cold_reports.push(mask_cache_counters(&e.report.to_json()));
                winners.push(e.report.best.cycles);
            }
            None => checks.that(false, || {
                format!("{}: cold sweep found nothing feasible", target.prog.name)
            }),
        }
    }
    let cache_file = p.out_dir.join(format!("dse_warm_replay.{}.pphwc", p.seed));
    let saved = std::fs::create_dir_all(&p.out_dir).is_ok() && cache.save(&cache_file).is_ok();
    checks.that(saved, || format!("could not save {}", cache_file.display()));
    Warm {
        spaces,
        cache_file,
        cold_reports,
        winners,
    }
}

/// The replays of one kind (untraced or traced) of a run, resumable block
/// by block. A replay is a unit: load the cache file, explore the six
/// spaces, render the six reports. The latency samples are the six
/// explorations (each with its report).
struct WarmRun<'a> {
    st: &'a Warm,
    timed: Timed,
    failed: u64,
    tally: Tally,
}

impl<'a> WarmRun<'a> {
    fn new(st: &'a Warm, replays: u64) -> WarmRun<'a> {
        WarmRun {
            st,
            timed: Timed::new(
                replays,
                "space explored from the cache and its report rendered",
                geomean(st.winners.iter().copied()),
            ),
            failed: 0,
            tally: Tally::default(),
        }
    }

    fn go(&mut self, replays: Range<u64>, tracer: Option<&Tracer>, checks: &mut Checks) {
        let cfg = config(Strategy::Exhaustive, 1);
        for i in replays {
            let t = Instant::now();
            let cache = span(tracer, None, i, "dse.cache_load", |_| {
                EvalCache::load(&self.st.cache_file)
            });
            let Ok(cache) = cache else {
                checks.that(false, || format!("replay {i}: cache file does not load"));
                continue;
            };
            let mut ops = 0u64;
            let mut same = true;
            let mut latencies = Vec::with_capacity(self.st.spaces.len());
            for (target, cold) in self.st.spaces.iter().zip(&self.st.cold_reports) {
                let t_space = Instant::now();
                let Some(e) = explore_timed(target, &cfg, &cache, tracer, i) else {
                    same = false;
                    continue;
                };
                let json = span(tracer, None, i, "dse.report_json", |_| e.report.to_json());
                latencies.push(u64::try_from(t_space.elapsed().as_nanos()).unwrap_or(u64::MAX));
                ops += e.report.stats.exhaustive as u64;
                self.failed += e.report.stats.failed as u64 + e.report.stats.cache_misses;
                same &= mask_cache_counters(&json) == *cold;
                digest_str(&mut self.timed.digest, &json);
                self.tally.add(&e);
            }
            self.timed
                .record(i, ops, t.elapsed().as_secs_f64(), latencies);
            checks.that(same, || {
                format!("replay {i}: a warm report differs from the cold one")
            });
        }
    }
}

/// Runs `dse_warm_replay`. Its set-up sweeps all six spaces cold, gemm
/// included, which takes seconds; it runs once.
#[must_use]
pub fn run_warm_replay(p: &Params) -> RunResult {
    let w = spec::workload("dse_warm_replay").expect("dse_warm_replay is in the spec");
    let replays = p.units(w);
    let mut checks = Checks::new(p.sabotage);
    // The set-up sweeps all six spaces cold, which takes seconds: once.
    let mut setups = Setups::new(1, 1);
    let st = setups.time(|| setup_warm(p, &mut checks));
    let mut plain = WarmRun::new(&st, replays);
    let mut traced = p.trace.then(|| (WarmRun::new(&st, replays), Tracer::new()));
    for block in blocks(replays) {
        plain.go(block.clone(), None, &mut checks);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(block, Some(tracer), &mut checks);
        }
    }
    checks.ops(plain.timed.ops(), plain.failed);
    checks.eq(
        "evaluations that missed the loaded cache",
        plain.tally.cache_misses,
        0,
    );
    checks.eq(
        "designs compiled during replay",
        plain.tally.design_builds,
        0,
    );
    let mut result = RunResult::from_timed(w, replays, setups.fastest(), &plain.timed);
    if let Some((traced, tracer)) = traced {
        checks.ops(traced.timed.ops(), traced.failed);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        let unit_spans = tracer.len();
        let resave = p
            .out_dir
            .join(format!("dse_warm_replay.{}.resave.pphwc", p.seed));
        let saved = EvalCache::load(&st.cache_file).ok().is_some_and(|c| {
            span(Some(&tracer), None, 0, "dse.cache_save", |_| {
                c.save(&resave)
            })
            .is_ok()
        });
        checks.that(saved, || format!("could not save {}", resave.display()));
        let _ = std::fs::remove_file(&resave);
        let spans = tracer.into_spans();
        let (mut l, totals, root_ns) =
            layers::from_spans(&spans, unit_spans, &traced.timed, &plain.timed);
        dse_layers(&mut l, &totals, &traced.tally, None, root_ns);
        l.insert("dse.cache_load_ns", ns_per_op(&totals, "dse.cache_load"));
        l.insert("dse.cache_save_ns", ns_per_op(&totals, "dse.cache_save"));
        l.insert("dse.report_json_ns", ns_per_op(&totals, "dse.report_json"));
        result.layers = Some(l);
        result.notes.push(
            "dse.report_json_ns is per report (six per replay); dse.cache_load_ns per load of the 672-entry file"
                .to_string(),
        );
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    let _ = std::fs::remove_file(&st.cache_file);
    result.fig7_logerr(fixture::build(p.seed, &mut checks).logerr);
    result.absorb(checks);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_zeroes_only_the_two_cache_counters() {
        let cold =
            "{\"name\":\"x\",\"stats\":{\"evaluated\":3,\"cache_hits\":0,\"cache_misses\":3}}";
        let warm =
            "{\"name\":\"x\",\"stats\":{\"evaluated\":3,\"cache_hits\":3,\"cache_misses\":0}}";
        assert_ne!(cold, warm);
        assert_eq!(mask_cache_counters(cold), mask_cache_counters(warm));
        assert_eq!(
            mask_cache_counters(cold),
            cold.replace("\"cache_misses\":3", "\"cache_misses\":0")
        );
        let other = warm.replace("\"evaluated\":3", "\"evaluated\":4");
        assert_ne!(mask_cache_counters(cold), mask_cache_counters(&other));
    }

    #[test]
    fn only_the_searches_after_the_reference_ones_follow_the_run_seed() {
        for i in 0..REFERENCE_SEARCHES {
            assert_eq!(guided_seed(1, i), guided_seed(u64::MAX, i));
        }
        assert_eq!(guided_seed(1, REFERENCE_SEARCHES), 1 + REFERENCE_SEARCHES);
        assert_ne!(
            guided_seed(1, REFERENCE_SEARCHES),
            guided_seed(2, REFERENCE_SEARCHES)
        );
    }

    #[test]
    fn the_gemm_space_is_384_candidates_over_128_designs() {
        let cands = gemm_space(&gemm(), false).candidates();
        assert_eq!(cands.len(), 384);
        let designs: std::collections::BTreeSet<_> = cands
            .iter()
            .map(|c| (c.tiles.clone(), c.inner_par))
            .collect();
        assert_eq!(designs.len(), 128);
    }
}
