//! # pphw — parallel patterns to configurable hardware
//!
//! The compiler driver for this reproduction of *Generating Configurable
//! Hardware from Parallel Patterns*: one call takes a PPL program (built
//! with [`pphw_ir::builder::ProgramBuilder`]) through tiling (strip mining
//! plus interchange and tile copies), hardware generation (template
//! selection, memory allocation, metapipelining), and simulation.
//!
//! ```
//! use pphw::{compile, CompileOptions, OptLevel};
//! use pphw_ir::builder::ProgramBuilder;
//! use pphw_ir::types::DType;
//!
//! let mut b = ProgramBuilder::new("double");
//! let d = b.size("d");
//! let x = b.input("x", DType::F32, vec![d.clone()]);
//! let out = b.map(vec![d], |c, i| c.mul(c.f32(2.0), c.read(x, vec![c.var(i[0])])));
//! let prog = b.finish(vec![out]);
//!
//! let opts = CompileOptions::new(&[("d", 4096)])
//!     .tiles(&[("d", 512)])
//!     .opt(OptLevel::Metapipelined);
//! let compiled = compile(&prog, &opts).unwrap();
//! let report = compiled.simulate_default().unwrap();
//! assert!(report.cycles > 0);
//! ```

pub mod dse;

use pphw_dse::Measurement;
use pphw_hw::design::DesignStyle;
use pphw_hw::{design_area, generate, Area, HwConfig, HwError};
use pphw_ir::interp::{EvalError, Interpreter, Value};
use pphw_ir::program::Program;
use pphw_ir::size::{Size, SizeEnv};
use pphw_sim::{simulate, simulate_with_faults, FaultConfig, SimConfig, SimError, SimReport};
use pphw_transform::cost::{analyze_cost, CostReport};
use pphw_transform::{tile_program, tile_program_no_interchange, TileConfig, TileError};
use pphw_verify::flow::FlowTiming;

pub use pphw_hw::Design;
pub use pphw_verify::{VerifyConfig, VerifyReport};

/// The static busy-cycle predictor's view of a simulation substrate.
/// `pphw-verify` sits below the simulator and cannot read a [`SimConfig`]
/// itself, so this is where one becomes a [`FlowTiming`]: a prediction
/// and the simulation it is checked against always describe one board.
#[must_use]
pub fn flow_timing(sim: &SimConfig) -> FlowTiming {
    FlowTiming {
        bytes_per_cycle: sim.bytes_per_cycle(),
        dram_latency: sim.dram_latency,
        burst_bytes: sim.burst_bytes,
        word_bytes: sim.word_bytes,
        sync_gap: sim.sync_gap,
    }
}

/// Does nothing: the per-pass deep check is part of `pphw_transform`
/// itself (see [`pphw_transform::check_pass`]) and needs no installing.
/// Kept only because `benchmark/src/workloads/{dse,compile_suite}.rs`
/// import it; ROADMAP item 4 lists it with the other two `benchmark/`
/// reads the next `benchmark`-archetype PR drops.
pub fn install_verifier() {}

/// Optimization level — the three design points of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// HLS-style baseline: inner parallelism and burst locality only.
    Baseline,
    /// Automatic tiling, sequential stage composition.
    Tiled,
    /// Tiling plus metapipelining.
    Metapipelined,
}

impl OptLevel {
    /// All three levels in evaluation order.
    pub fn all() -> [OptLevel; 3] {
        [OptLevel::Baseline, OptLevel::Tiled, OptLevel::Metapipelined]
    }

    fn style(self) -> DesignStyle {
        match self {
            OptLevel::Baseline => DesignStyle::Baseline,
            OptLevel::Tiled => DesignStyle::Tiled,
            OptLevel::Metapipelined => DesignStyle::Metapipelined,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.style().fmt(f)
    }
}

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level.
    pub opt: OptLevel,
    /// Concrete dimension sizes.
    pub sizes: Vec<(String, i64)>,
    /// Tile sizes per dimension (ignored for the baseline).
    pub tiles: Vec<(String, i64)>,
    /// Innermost parallelism factor (kept constant across levels, §6.1).
    pub inner_par: u32,
    /// On-chip memory budget in bytes.
    pub on_chip_budget_bytes: u64,
    /// Apply pattern interchange (disable to reproduce the Figure 5a
    /// strip-mined-only variant).
    pub interchange: bool,
    /// Parallelism override applied only at the metapipelined level —
    /// models the paper's per-benchmark stage parallelization ("we
    /// parallelize the vector outer product stage", §6.2).
    pub meta_inner_par: Option<u32>,
}

impl CompileOptions {
    /// Creates options with the given concrete sizes.
    pub fn new(sizes: &[(&str, i64)]) -> Self {
        CompileOptions {
            opt: OptLevel::Metapipelined,
            sizes: sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            tiles: Vec::new(),
            inner_par: 64,
            on_chip_budget_bytes: 6 * 1024 * 1024,
            interchange: true,
            meta_inner_par: None,
        }
    }

    /// Sets tile sizes.
    pub fn tiles(mut self, tiles: &[(&str, i64)]) -> Self {
        self.tiles = tiles.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self
    }

    /// Sets the optimization level.
    pub fn opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Sets the innermost parallelism factor.
    pub fn inner_par(mut self, lanes: u32) -> Self {
        self.inner_par = lanes;
        self
    }

    /// Enables or disables interchange.
    pub fn interchange(mut self, on: bool) -> Self {
        self.interchange = on;
        self
    }

    /// Sets the metapipelined-level parallelism override.
    pub fn meta_inner_par(mut self, lanes: u32) -> Self {
        self.meta_inner_par = Some(lanes);
        self
    }

    fn size_pairs(&self) -> Vec<(&str, i64)> {
        self.sizes.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }

    fn tile_pairs(&self) -> Vec<(&str, i64)> {
        self.tiles.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }

    /// The size environment.
    pub fn env(&self) -> SizeEnv {
        Size::env(&self.size_pairs())
    }

    fn tile_config(&self) -> TileConfig {
        TileConfig::new(&self.tile_pairs(), &self.size_pairs())
            .with_budget(self.on_chip_budget_bytes)
    }

    fn hw_config(&self) -> HwConfig {
        let mut cfg = match self.opt {
            OptLevel::Baseline => HwConfig::baseline(),
            OptLevel::Tiled => HwConfig::default().with_metapipeline(false),
            OptLevel::Metapipelined => HwConfig::default(),
        };
        cfg.inner_par = match self.opt {
            OptLevel::Metapipelined => self.meta_inner_par.unwrap_or(self.inner_par),
            _ => self.inner_par,
        };
        cfg.on_chip_budget_bytes = self.on_chip_budget_bytes;
        cfg
    }
}

/// Errors from any stage of the pipeline: tiling, hardware generation,
/// simulation, or reference interpretation.
///
/// Every fallible entry point in this crate returns this type, so a
/// driver (or the DSE engine) can run untrusted configurations end to
/// end and get a structured error instead of a panic.
#[derive(Debug)]
pub enum PphwError {
    /// Tiling failed.
    Tile(TileError),
    /// Hardware generation failed.
    Hw(HwError),
    /// Simulation rejected the configuration or exceeded its budget.
    Sim(SimError),
    /// The reference interpreter rejected the program or its inputs.
    Eval(EvalError),
}

impl std::fmt::Display for PphwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PphwError::Tile(e) => write!(f, "tiling failed: {e}"),
            PphwError::Hw(e) => write!(f, "hardware generation failed: {e}"),
            PphwError::Sim(e) => write!(f, "simulation failed: {e}"),
            PphwError::Eval(e) => write!(f, "interpretation failed: {e}"),
        }
    }
}

impl std::error::Error for PphwError {}

impl From<TileError> for PphwError {
    fn from(e: TileError) -> Self {
        PphwError::Tile(e)
    }
}

impl From<HwError> for PphwError {
    fn from(e: HwError) -> Self {
        PphwError::Hw(e)
    }
}

impl From<SimError> for PphwError {
    fn from(e: SimError) -> Self {
        PphwError::Sim(e)
    }
}

impl From<EvalError> for PphwError {
    fn from(e: EvalError) -> Self {
        PphwError::Eval(e)
    }
}

/// A compiled application: transformed IR plus the generated design.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The (possibly tiled) program the design implements.
    pub program: Program,
    /// The hardware design.
    pub design: Design,
    /// Options used.
    pub options: CompileOptions,
}

impl Compiled {
    /// Simulates the design with the given DRAM/clock parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PphwError::Sim`] if the configuration is invalid or the
    /// run exceeds its cycle budget.
    pub fn simulate(&self, cfg: &SimConfig) -> Result<SimReport, PphwError> {
        Ok(simulate(&self.design, cfg)?)
    }

    /// Simulates with deterministic fault injection (DRAM latency jitter,
    /// bandwidth degradation windows, transient burst failures).
    ///
    /// # Errors
    ///
    /// Returns [`PphwError::Sim`] if either configuration is invalid or
    /// the run exceeds its cycle budget.
    pub fn simulate_with_faults(
        &self,
        cfg: &SimConfig,
        faults: &FaultConfig,
    ) -> Result<SimReport, PphwError> {
        Ok(simulate_with_faults(&self.design, cfg, faults)?)
    }

    /// Simulates with default (Max4 Maia class) parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PphwError::Sim`] if the run exceeds the default cycle
    /// budget.
    pub fn simulate_default(&self) -> Result<SimReport, PphwError> {
        self.simulate(&SimConfig::default())
    }

    /// Area estimate of the design.
    pub fn area(&self) -> Area {
        design_area(&self.design)
    }

    /// Simulates the design on one substrate and pairs the report with the
    /// design's footprint and area: the one step from (design, substrate)
    /// to a [`Measurement`], for sweeps, the daemon and [`evaluate`] alike.
    ///
    /// # Errors
    ///
    /// [`PphwError::Sim`] for an invalid substrate or a cycle-budget
    /// overrun — a failed *simulation*, which says nothing about the design.
    pub fn measure(&self, sim: &SimConfig) -> Result<Measurement, PphwError> {
        let report = self.simulate(sim)?;
        Ok(Measurement {
            cycles: report.cycles,
            dram_words: report.dram_words,
            on_chip_bytes: self.design.on_chip_bytes(),
            area: self.area(),
        })
    }

    /// Memory traffic / on-chip storage analysis of the transformed IR
    /// (the Figure 5c table).
    pub fn cost(&self) -> CostReport {
        analyze_cost(&self.program)
    }

    /// Executes the transformed program on concrete inputs via the
    /// reference interpreter — the functional semantics of the design.
    ///
    /// # Errors
    ///
    /// Returns [`PphwError::Eval`] on malformed inputs.
    pub fn execute(&self, inputs: Vec<Value>) -> Result<Vec<Value>, PphwError> {
        Ok(Interpreter::with_env(&self.program, self.options.env()).run(inputs)?)
    }

    /// Emits MaxJ-style HGL for the design.
    pub fn emit_hgl(&self) -> String {
        pphw_hw::hgl::emit_maxj(&self.design)
    }

    /// Runs the full static analyzer — IR verifier, race detector at this
    /// compilation's effective parallelism, and the metapipeline hazard
    /// checker over the generated design — and returns every finding.
    pub fn verify(&self) -> VerifyReport {
        let cfg = VerifyConfig {
            inner_par: self.options.hw_config().inner_par,
            on_chip_budget_bytes: Some(self.options.on_chip_budget_bytes),
            ..VerifyConfig::default()
        };
        let mut report = pphw_verify::verify_program(&self.program, &cfg);
        report.merge(pphw_verify::verify_design(&self.design, &cfg));
        report
    }
}

/// Compiles a PPL program at the requested optimization level.
///
/// # Errors
///
/// Returns [`PphwError::Tile`] or [`PphwError::Hw`] if tiling or hardware
/// generation fails.
pub fn compile(prog: &Program, opts: &CompileOptions) -> Result<Compiled, PphwError> {
    let transformed = match opts.opt {
        OptLevel::Baseline => prog.clone(),
        OptLevel::Tiled | OptLevel::Metapipelined => {
            let cfg = opts.tile_config();
            if opts.interchange {
                tile_program(prog, &cfg)?
            } else {
                tile_program_no_interchange(prog, &cfg)?
            }
        }
    };
    let design = generate(
        &transformed,
        &opts.env(),
        &opts.hw_config(),
        opts.opt.style(),
    )?;
    Ok(Compiled {
        program: transformed,
        design,
        options: opts.clone(),
    })
}

/// One row of a Figure 7-style evaluation.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Optimization level.
    pub opt: OptLevel,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup over the baseline.
    pub speedup: f64,
    /// Resource use relative to the baseline (logic, FF, mem).
    pub relative_area: Area,
    /// Absolute area.
    pub area: Area,
    /// DRAM words requested.
    pub dram_words: u64,
}

/// A complete three-point evaluation of one benchmark.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Benchmark name.
    pub name: String,
    /// Baseline / tiled / metapipelined rows, in that order.
    pub rows: Vec<EvalRow>,
}

impl Evaluation {
    /// The row for a given level, if that level was evaluated.
    pub fn try_row(&self, opt: OptLevel) -> Option<&EvalRow> {
        self.rows.iter().find(|r| r.opt == opt)
    }

    /// The row for a given level.
    ///
    /// # Panics
    ///
    /// Panics if the level was not evaluated; [`evaluate`] always
    /// produces all three levels, so this only fires on hand-built
    /// `Evaluation`s. Use [`Evaluation::try_row`] when that matters.
    pub fn row(&self, opt: OptLevel) -> &EvalRow {
        match self.try_row(opt) {
            Some(r) => r,
            None => panic!("level {opt} was not evaluated"),
        }
    }

    /// Formats the evaluation as a text table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "{:<26} {:>14} {:>9} {:>8} {:>8} {:>8} {:>14}\n",
            self.name, "cycles", "speedup", "logic", "FF", "mem", "DRAM words"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<24} {:>14} {:>8.1}x {:>8.2} {:>8.2} {:>8.2} {:>14}\n",
                r.opt.to_string(),
                r.cycles,
                r.speedup,
                r.relative_area.logic,
                r.relative_area.ff,
                r.relative_area.mem,
                r.dram_words
            ));
        }
        out
    }
}

/// Runs the full baseline/tiled/metapipelined comparison for one program —
/// the experiment behind Figure 7.
///
/// # Errors
///
/// Returns a [`PphwError`] if any level fails to compile or simulate.
pub fn evaluate(
    prog: &Program,
    opts: &CompileOptions,
    sim: &SimConfig,
) -> Result<Evaluation, PphwError> {
    let mut rows = Vec::new();
    let mut base_cycles = None;
    let mut base_area = None;
    for level in OptLevel::all() {
        let m = compile(prog, &opts.clone().opt(level))?.measure(sim)?;
        let bc = *base_cycles.get_or_insert(m.cycles);
        let ba = *base_area.get_or_insert(m.area);
        rows.push(EvalRow {
            opt: level,
            cycles: m.cycles,
            speedup: bc as f64 / m.cycles.max(1) as f64,
            relative_area: m.area.relative_to(ba),
            area: m.area,
            dram_words: m.dram_words,
        });
    }
    Ok(Evaluation {
        name: prog.name.clone(),
        rows,
    })
}
