//! Design-space exploration over the real compile+simulate pipeline.
//!
//! The generic engine lives in [`pphw_dse`] (below this crate in the
//! dependency graph); this module supplies the expensive part it is
//! parameterized over: [`CompileEvaluator`], which runs a candidate
//! through [`compile`] and [`Compiled::simulate`](crate::Compiled::simulate)
//! and enforces the authoritative post-compile on-chip budget check that
//! the analytic prefilter only approximates.
//!
//! Every caller that turns a design point into a design and its numbers —
//! the engine, the `dse` binary, the serving daemon — does so through
//! [`CompileEvaluator::artifact`] and [`Compiled::measure`], so compile
//! options, cache salt, budget verdict and measurement are each decided
//! once.
//!
//! ```no_run
//! use pphw::dse::{explore_program, CompileEvaluator};
//! use pphw::CompileOptions;
//! use pphw_dse::{DseConfig, SearchSpace};
//! # let prog: pphw_ir::program::Program = unimplemented!();
//!
//! let base = CompileOptions::new(&[("m", 256), ("n", 256)]);
//! let space = SearchSpace::new(&[("m", 256), ("n", 256)])
//!     .tune_dim("m").unwrap()
//!     .with_inner_pars(&[16, 32, 64]);
//! let report = explore_program(&prog, &base, &space, &DseConfig::default()).unwrap();
//! println!("{}", report.summary());
//! ```

use std::sync::Arc;

use pphw_dse::cache::{design_key, DesignCache, EvalCache};
use pphw_dse::report::DseReport;
use pphw_dse::space::{Candidate, SearchSpace};
use pphw_dse::{DseConfig, DseError, EvalOutcome, Evaluate};

pub use pphw_dse::CapacityMode;
use pphw_ir::program::Program;
use pphw_verify::flow;

use crate::{compile, CompileOptions, Compiled};

/// The substrate-independent result of compiling one candidate: a
/// generated design that fits the on-chip budget (boxed: ~400 bytes beside
/// a thin error string), or the reason it cannot exist. Shared by every
/// simulation variant of the same tile/parallelism point through a
/// [`DesignCache`], so a sweep with N substrate configs compiles each
/// distinct design once, not N times.
///
/// The budget verdict is cacheable because the budget is part of the
/// evaluator's salt (and therefore of the design key); an artifact is
/// never consulted under a different budget.
pub type DesignArtifact = Result<Box<Compiled>, String>;

/// Evaluates a candidate by compiling the program with the candidate's
/// tile sizes and parallelism factor and simulating the generated design
/// on the candidate's substrate.
///
/// The candidate's `inner_par` is the parallelism being swept, so it
/// replaces both `inner_par` and any `meta_inner_par` override in the
/// base options — otherwise a fixed override would silently mask the
/// sweep. Every other base option (opt level, interchange, budget) is
/// preserved and folded into the cache salt so cached measurements are
/// never shared across differing pipelines.
pub struct CompileEvaluator<'a> {
    prog: &'a Program,
    base: CompileOptions,
    designs: Arc<DesignCache<DesignArtifact>>,
    capacity_mode: CapacityMode,
}

impl<'a> CompileEvaluator<'a> {
    /// Creates an evaluator for the program under the given base options
    /// over a caller-owned design cache, so consecutive sweeps and direct
    /// requests (or a driver inspecting hit counters) see compile reuse
    /// across evaluator instances.
    #[must_use]
    pub fn with_design_cache(
        prog: &'a Program,
        base: &CompileOptions,
        designs: Arc<DesignCache<DesignArtifact>>,
    ) -> CompileEvaluator<'a> {
        CompileEvaluator {
            prog,
            base: base.clone(),
            designs,
            capacity_mode: CapacityMode::default(),
        }
    }

    /// Sets how generated channel capacities are sized before measuring
    /// (see [`CapacityMode`]).
    #[must_use]
    pub fn with_capacity_mode(mut self, mode: CapacityMode) -> CompileEvaluator<'a> {
        self.capacity_mode = mode;
        self
    }

    /// The candidate's design, built at most once per design key in the
    /// shared [`DesignCache`]: every substrate variant of one
    /// tile/parallelism point — and every direct request for it — shares
    /// the artifact, never a second compile.
    #[must_use]
    pub fn artifact(&self, c: &Candidate) -> Arc<DesignArtifact> {
        let key = design_key(&self.prog.name, &self.base.sizes, &self.cache_salt(), c);
        self.designs.get_or_compute(key, || self.build_artifact(c))
    }

    /// Compiles the candidate's design and applies the authoritative
    /// post-compile on-chip budget check (the analytic prefilter bounds
    /// this from below but cannot see double buffering or banking).
    fn build_artifact(&self, c: &Candidate) -> DesignArtifact {
        let mut opts = self.base.clone().tiles(&c.tile_pairs());
        opts.inner_par = c.inner_par;
        opts.meta_inner_par = None;
        let mut compiled = compile(self.prog, &opts).map_err(|e| e.to_string())?;
        // When requested, normalize channels to the flow analyzer's
        // minimal safe depths — before the budget check and the area
        // model, so capacity decisions flow into cost exactly like
        // generated depths do.
        if self.capacity_mode == CapacityMode::InferredMinimal {
            flow::infer_capacities(&mut compiled.design);
        }
        let on_chip_bytes = compiled.design.on_chip_bytes();
        if on_chip_bytes > opts.on_chip_budget_bytes {
            return Err(format!(
                "design needs {on_chip_bytes} on-chip bytes, budget is {}",
                opts.on_chip_budget_bytes
            ));
        }
        Ok(Box::new(compiled))
    }
}

impl Evaluate for CompileEvaluator<'_> {
    fn evaluate(&self, c: &Candidate) -> EvalOutcome {
        match &*self.artifact(c) {
            Ok(compiled) => match compiled.measure(&c.sim) {
                Ok(m) => EvalOutcome::Feasible(m),
                // A simulation failure (invalid substrate, cycle-budget
                // overrun) is not an infeasible *design* — record it as a
                // failed evaluation so the report says what was lost and
                // the cache does not pin the failure.
                Err(e) => EvalOutcome::Failed(e.to_string()),
            },
            Err(why) => EvalOutcome::Infeasible(why.clone()),
        }
    }

    fn cache_salt(&self) -> String {
        // inner_par and meta_inner_par are intentionally absent: the
        // candidate overrides both, so they cannot influence a measurement.
        // The capacity mode only joins the salt off its default, so every
        // pre-existing cache entry keeps its key.
        let capmode = match self.capacity_mode {
            CapacityMode::AsGenerated => "",
            CapacityMode::InferredMinimal => ";capmode=inferred",
        };
        format!(
            "opt={:?};interchange={};budget={}{capmode}",
            self.base.opt, self.base.interchange, self.base.on_chip_budget_bytes
        )
    }

    fn area_hint(&self, c: &Candidate) -> Option<pphw_hw::Area> {
        // Compile-only: the design (and its area) is independent of the
        // candidate's substrate, so this shares the same cached artifact
        // the full evaluation would build — never a simulation.
        (*self.artifact(c))
            .as_ref()
            .ok()
            .map(|compiled| compiled.area())
    }
}

/// One-call exploration: builds a [`CompileEvaluator`] and a fresh cache
/// and runs the engine.
///
/// # Errors
///
/// Returns [`DseError`] if the space is empty or no candidate survives
/// both the prefilter and compilation.
pub fn explore_program(
    prog: &Program,
    base: &CompileOptions,
    space: &SearchSpace,
    cfg: &DseConfig,
) -> Result<DseReport, DseError> {
    explore_with_caches(
        prog,
        base,
        space,
        cfg,
        &EvalCache::new(),
        Arc::new(DesignCache::new()),
    )
}

/// Like [`explore_program`] but reuses a caller-owned measurement cache,
/// so repeated or overlapping searches only evaluate points they have not
/// seen, and a caller-owned compile-artifact cache, so each distinct
/// design (tile config × parallelism) compiles exactly once no matter how
/// many substrate variants or sweeps sample it, and drivers can report
/// [`DesignCache::builds`] / [`DesignCache::hits`] afterwards.
///
/// # Errors
///
/// Returns [`DseError`] if the space is empty or no candidate survives
/// both the prefilter and compilation.
pub fn explore_with_caches(
    prog: &Program,
    base: &CompileOptions,
    space: &SearchSpace,
    cfg: &DseConfig,
    cache: &EvalCache,
    designs: Arc<DesignCache<DesignArtifact>>,
) -> Result<DseReport, DseError> {
    let evaluator = CompileEvaluator::with_design_cache(prog, base, designs)
        .with_capacity_mode(cfg.capacity_mode);
    pphw_dse::engine::explore(prog, space, &evaluator, cache, cfg)
}
