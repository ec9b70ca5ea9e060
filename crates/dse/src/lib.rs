//! # pphw-dse — parallel design-space exploration
//!
//! The paper leaves tile sizes and parallelism factors to the user and
//! names automated selection "through modeling and design space
//! exploration" as future work (§4, Discussion). This crate is that
//! subsystem: a deterministic, parallel search over the joint space of
//! tile sizes per dimension × innermost parallelism factors × simulation
//! substrate variants.
//!
//! The engine is structured so that the expensive path — compiling a
//! candidate to hardware and simulating it — runs as rarely as possible:
//!
//! 1. **Analytic prefilter** ([`prune`]): every candidate is first scored
//!    with the transform-level cost model
//!    ([`pphw_transform::cost::predict_traffic`]) and a conservative
//!    area lower bound from the `pphw-hw` area model. Candidates whose
//!    predicted on-chip footprint exceeds the memory budget, or whose
//!    compute/buffer area lower bound exceeds the [`pphw_hw::AreaBudget`],
//!    are rejected *before* compilation. Because the area estimate is a
//!    lower bound, pruning never discards a genuinely feasible optimum.
//! 2. **Memoized evaluation** ([`cache`]): surviving candidates are keyed
//!    by a canonical configuration hash (program, sizes, tiles, lanes,
//!    substrate, evaluator salt); repeated and overlapping searches reuse
//!    prior measurements instead of recompiling the same design.
//! 3. **Parallel evaluation** ([`pool`]): cache misses are evaluated on a
//!    std-only work-stealing thread pool. Results are merged by candidate
//!    index and ranked with a total order, so the chosen best point and
//!    the Pareto frontier are bit-identical regardless of thread count.
//! 4. **Pareto reporting** ([`pareto`], [`report`]): the search returns
//!    the cycles-vs-area frontier plus the single best point, exportable
//!    as JSON and CSV.
//!
//! The crate deliberately sits *below* the `pphw` driver in the
//! dependency graph: the compile+simulate path is injected through the
//! [`Evaluate`] trait (the driver provides `pphw::dse::CompileEvaluator`),
//! which also lets unit tests exercise the engine with synthetic
//! evaluators at zero cost.

pub mod cache;
pub mod engine;
pub mod journal;
pub mod model;
pub mod pareto;
pub mod pool;
pub mod prune;
pub mod report;
pub mod space;

pub use cache::EvalCache;
pub use engine::{explore, CapacityMode, DseConfig, GuidedConfig, Objective, Strategy};
pub use journal::JournalStats;
pub use model::CostModel;
pub use pareto::pareto_frontier;
pub use report::{DseReport, DseStats, EvaluatedPoint, FailedPoint};
pub use space::{pow2_divisors, Candidate, SearchSpace};

use pphw_hw::Area;

/// Errors from design-space exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// A tuned dimension has no concrete size, or no tile candidates.
    UnknownDim(String),
    /// The search space enumerated to zero candidates.
    EmptySpace,
    /// Every candidate was pruned or evaluated infeasible.
    NoFeasibleConfig,
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::UnknownDim(d) => write!(f, "tuned dimension `{d}` has no concrete size"),
            DseError::EmptySpace => write!(f, "search space is empty"),
            DseError::NoFeasibleConfig => write!(f, "no feasible configuration in search space"),
        }
    }
}

impl std::error::Error for DseError {}

/// Measurement of one feasible candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Simulated cycles.
    pub cycles: u64,
    /// Useful DRAM words requested during simulation.
    pub dram_words: u64,
    /// On-chip memory footprint of the generated design, in bytes.
    pub on_chip_bytes: u64,
    /// Estimated area of the generated design.
    pub area: Area,
}

/// Outcome of evaluating one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// The candidate compiled, fit, and simulated.
    Feasible(Measurement),
    /// The candidate failed to compile or violated a constraint; the
    /// string says why (it shows up in verbose reports).
    Infeasible(String),
    /// The evaluator itself failed on this candidate — it panicked (even
    /// after the pool's bounded retries) or hit an internal error such as
    /// a simulation budget overrun. Unlike [`EvalOutcome::Infeasible`],
    /// this says nothing about the design point; the failure is recorded
    /// in the report and never cached, so a later sweep retries it.
    Failed(String),
}

/// The expensive measurement path, injected by the caller: typically
/// compile-to-hardware plus cycle simulation (`pphw::dse::CompileEvaluator`).
///
/// Implementations must be pure functions of the candidate — the engine
/// caches outcomes by configuration hash and evaluates candidates from
/// multiple threads.
pub trait Evaluate: Sync {
    /// Measures one candidate.
    fn evaluate(&self, candidate: &Candidate) -> EvalOutcome;

    /// Extra state that distinguishes this evaluator's measurements from
    /// another's in a shared cache (e.g. optimization level, interchange
    /// flag, on-chip budget). Two evaluators with equal salts must return
    /// equal outcomes for equal candidates.
    fn cache_salt(&self) -> String {
        String::new()
    }

    /// The exact area of the design this candidate maps to, when it can
    /// be obtained without running a simulation — e.g. by a compile-only
    /// pass through a shared design cache. Area is a function of the
    /// design alone, so every substrate variant of one tile/parallelism
    /// point shares the answer and one compile serves them all.
    ///
    /// The guided engine uses this under an area-cap objective to rank
    /// candidates that genuinely exceed the cap last instead of wasting
    /// its measurement slice on fast-but-oversized points. `None` (the
    /// default) means "unknown": the engine falls back to the analytic
    /// area lower bound, which is safe but loose.
    fn area_hint(&self, _candidate: &Candidate) -> Option<Area> {
        None
    }
}
