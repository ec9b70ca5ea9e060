//! `compile_suite`: text to verified design, no simulation in the timed
//! loop. One op parses a `.ppl` twin, compiles it at one level with one
//! tile configuration, runs the program- and design-level verifiers and
//! sizes the design.

use std::ops::Range;
use std::time::Instant;

use pphw::{compile, install_verifier, CompileOptions, Compiled, OptLevel, PphwError};
use pphw_apps::all_benchmarks;
use pphw_bench::options_for;
use pphw_bench::sweep::tile_candidates_around;
use pphw_frontend::parse_program;
use pphw_hw::{design_area, generate, DesignStyle, HwConfig};
use pphw_ir::pretty::print_program;
use pphw_ir::program::Program;
use pphw_ir::structural_eq;
use pphw_sim::SimConfig;
use pphw_testkit::rng::{splitmix64, Rng};
use pphw_transform::{tile_program, TileConfig};
use pphw_verify::{verify_design, verify_program, VerifyConfig};

use crate::fixture::{self, Fig7, SOURCES};
use crate::harness::{blocks, mix, Checks, Params, RunResult, Setups, Timed};
use crate::layers::{self, ns_per_op};
use crate::spec;
use crate::trace::{span, Tracer};

/// Tile draws per program and pass; each is compiled tiled and
/// metapipelined, so a pass is 6 x (1 + 2 x 4) = 54 ops.
const DRAWS: usize = 4;

struct Twin {
    name: &'static str,
    text: &'static str,
    /// Options at paper sizes with the benchmark's own tiles.
    base: CompileOptions,
    /// Tile candidates per tuned dimension.
    dims: Vec<(&'static str, Vec<i64>)>,
}

struct State {
    twins: Vec<Twin>,
    fig7: Fig7,
}

fn setup(p: &Params, checks: &mut Checks) -> State {
    let fig7 = fixture::build(p.seed, checks);
    let mut twins = Vec::with_capacity(6);
    for (spec, (name, text)) in all_benchmarks().iter().zip(SOURCES) {
        match parse_program(text, name) {
            Ok(out) => checks.that(structural_eq(&out.program, &(spec.program)()), || {
                format!("{name}.ppl is not structurally equal to its builder program")
            }),
            Err(errs) => checks.that(false, || format!("{name}.ppl: {} parse errors", errs.len())),
        }
        let sizes = (spec.sizes)();
        let dims = (spec.tiles)()
            .into_iter()
            .map(|(dim, tile)| {
                let n = sizes
                    .iter()
                    .find(|(k, _)| *k == dim)
                    .map_or(tile, |(_, v)| *v);
                (dim, tile_candidates_around(n, tile, false))
            })
            .collect();
        twins.push(Twin {
            name,
            text,
            base: options_for(spec),
            dims,
        });
    }
    State { twins, fig7 }
}

/// `pphw::compile` taken apart along its public pieces, so each layer
/// gets its own span: tiling (`pphw-transform`), generation (`pphw-hw`),
/// and what is left of the driver around them.
fn compile_split(
    prog: &Program,
    opts: &CompileOptions,
    tracer: Option<&Tracer>,
    parent: Option<u32>,
    op: u64,
) -> Result<Compiled, PphwError> {
    install_verifier();
    span(tracer, parent, op, "core.compile", |me| {
        let (style, mut hw) = match opts.opt {
            OptLevel::Baseline => (DesignStyle::Baseline, HwConfig::baseline()),
            OptLevel::Tiled => (
                DesignStyle::Tiled,
                HwConfig::default().with_metapipeline(false),
            ),
            OptLevel::Metapipelined => (DesignStyle::Metapipelined, HwConfig::default()),
        };
        hw.inner_par = match opts.opt {
            OptLevel::Metapipelined => opts.meta_inner_par.unwrap_or(opts.inner_par),
            _ => opts.inner_par,
        };
        hw.on_chip_budget_bytes = opts.on_chip_budget_bytes;
        let program = match opts.opt {
            OptLevel::Baseline => prog.clone(),
            _ => span(tracer, me, op, "transform.tile", |_| {
                let cfg = TileConfig::new(&refs(&opts.tiles), &refs(&opts.sizes))
                    .with_budget(opts.on_chip_budget_bytes);
                tile_program(prog, &cfg)
            })?,
        };
        let design = span(tracer, me, op, "hw.generate", |_| {
            generate(&program, &opts.env(), &hw, style)
        })?;
        Ok(Compiled {
            program,
            design,
            options: opts.clone(),
        })
    })
}

fn refs(pairs: &[(String, i64)]) -> Vec<(&str, i64)> {
    pairs.iter().map(|(k, n)| (k.as_str(), *n)).collect()
}

fn verify_config(c: &Compiled) -> VerifyConfig {
    let o = &c.options;
    VerifyConfig {
        inner_par: match o.opt {
            OptLevel::Metapipelined => o.meta_inner_par.unwrap_or(o.inner_par),
            _ => o.inner_par,
        },
        on_chip_budget_bytes: Some(o.on_chip_budget_bytes),
        ..VerifyConfig::default()
    }
}

/// Counters of the traced run's first pass (exact for a seed).
#[derive(Default)]
struct FirstPass {
    ir_bytes: u64,
    units: u64,
    buffers: u64,
}

/// The passes of one kind (untraced or traced) of a run, resumable block
/// by block.
struct Passes {
    /// The same draws for the untraced and the traced passes of one seed.
    rng: Rng,
    timed: Timed,
    ops: u64,
    failed: u64,
    parsed_bytes: u64,
    diagnostics: u64,
    first: FirstPass,
}

/// One op. Untraced it calls `compile` and `Compiled::verify` as a user
/// would; traced it calls the same layers one by one under spans.
/// `first_pass` also counts what the op put out (traced first pass only).
fn one_op(
    twin: &Twin,
    opts: &CompileOptions,
    tracer: Option<&Tracer>,
    op: u64,
    out: &mut Passes,
    first_pass: bool,
) -> bool {
    span(tracer, None, op, "bench.op", |me| {
        let parsed = span(tracer, me, op, "frontend.parse", |_| {
            parse_program(twin.text, twin.name)
        });
        let Ok(parsed) = parsed else { return false };
        let compiled = if tracer.is_some() {
            compile_split(&parsed.program, opts, tracer, me, op)
        } else {
            compile(&parsed.program, opts)
        };
        let Ok(compiled) = compiled else { return false };
        let report = if tracer.is_some() {
            let cfg = verify_config(&compiled);
            let mut report = span(tracer, me, op, "verify.program", |_| {
                verify_program(&compiled.program, &cfg)
            });
            report.merge(span(tracer, me, op, "verify.design", |_| {
                verify_design(&compiled.design, &cfg)
            }));
            report
        } else {
            compiled.verify()
        };
        let area = span(tracer, me, op, "hw.area", |_| design_area(&compiled.design));
        out.diagnostics += report.diagnostics.len() as u64;
        out.parsed_bytes += twin.text.len() as u64;
        let digest = &mut out.timed.digest;
        mix(digest, compiled.design.on_chip_bytes());
        mix(digest, compiled.design.buffers.len() as u64);
        mix(
            digest,
            area.logic.to_bits() ^ area.ff.to_bits() ^ area.mem.to_bits(),
        );
        if first_pass {
            compiled
                .design
                .root
                .visit_units(&mut |_| out.first.units += 1);
            out.first.buffers += compiled.design.buffers.len() as u64;
            if opts.opt != OptLevel::Baseline {
                out.first.ir_bytes += print_program(&compiled.program).len() as u64;
            }
        }
        report.is_clean()
    })
}

impl Passes {
    fn new(state: &State, p: &Params, passes: u64) -> Passes {
        Passes {
            rng: Rng::seed_from_u64(splitmix64(p.seed ^ 0x0c09_711e)),
            timed: Timed::new(passes, "design op", state.fig7.geomean_cycles),
            ops: 0,
            failed: 0,
            parsed_bytes: 0,
            diagnostics: 0,
            first: FirstPass::default(),
        }
    }

    fn go(&mut self, state: &State, passes: Range<u64>, tracer: Option<&Tracer>) {
        for pass in passes {
            let mut latencies = Vec::with_capacity(54);
            let t_pass = Instant::now();
            for twin in &state.twins {
                let mut configs = vec![twin.base.clone().opt(OptLevel::Baseline)];
                for _ in 0..DRAWS {
                    let draw: Vec<(&str, i64)> = twin
                        .dims
                        .iter()
                        .map(|(dim, cands)| (*dim, *self.rng.choose(cands)))
                        .collect();
                    for level in [OptLevel::Tiled, OptLevel::Metapipelined] {
                        configs.push(twin.base.clone().tiles(&draw).opt(level));
                    }
                }
                for opts in &configs {
                    let first_pass = pass == 0 && tracer.is_some();
                    let t = Instant::now();
                    let ok = one_op(twin, opts, tracer, self.ops, self, first_pass);
                    latencies.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    self.failed += u64::from(!ok);
                    self.ops += 1;
                }
            }
            let secs = t_pass.elapsed().as_secs_f64();
            self.timed
                .record(pass, latencies.len() as u64, secs, latencies);
        }
    }
}

/// The split compile must produce the design `compile` produces: same
/// on-chip bytes, same area, same simulated cycles, for all 18 designs.
fn split_matches_compile(state: &State, checks: &mut Checks) {
    let sim = SimConfig::default();
    for (twin, spec) in state.twins.iter().zip(all_benchmarks()) {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let reference = state
                .fig7
                .designs
                .iter()
                .find(|d| d.bench == twin.name && d.level == level);
            let split = compile_split(&prog, &twin.base.clone().opt(level), None, None, 0);
            let (Some(reference), Ok(split)) = (reference, split) else {
                checks.that(false, || {
                    format!("{} at {level}: split compile failed", twin.name)
                });
                continue;
            };
            let cycles = split.simulate(&sim).map_or(0, |r| r.cycles);
            checks.eq(
                &format!(
                    "{} at {level}: split compile simulates like compile()",
                    twin.name
                ),
                cycles,
                reference.cycles,
            );
            checks.that(
                split.area() == reference.compiled.area()
                    && split.design.on_chip_bytes() == reference.compiled.design.on_chip_bytes(),
                || format!("{} at {level}: split compile sizes differently", twin.name),
            );
        }
    }
}

/// Runs the workload.
#[must_use]
pub fn run(p: &Params) -> RunResult {
    let w = spec::workload("compile_suite").expect("compile_suite is in the spec");
    let passes = p.units(w);
    let mut checks = Checks::new(p.sabotage);
    let mut setups = Setups::new(w.setup_reps, passes);
    let state = setups.time(|| setup(p, &mut checks));
    let mut plain = Passes::new(&state, p, passes);
    let mut traced = p
        .trace
        .then(|| (Passes::new(&state, p, passes), Tracer::new()));
    for (i, block) in (0..).zip(blocks(passes)) {
        setups.between(i, || setup(p, &mut Checks::default()));
        plain.go(&state, block.clone(), None);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(&state, block, Some(tracer));
        }
    }
    checks.ops(plain.ops, plain.failed);
    checks.eq("verifier diagnostics over all ops", plain.diagnostics, 0);
    let mut result = RunResult::from_timed(w, passes, setups.fastest(), &plain.timed);
    result.fig7_logerr(state.fig7.logerr);
    if let Some((traced, tracer)) = traced {
        checks.ops(traced.ops, traced.failed);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        split_matches_compile(&state, &mut checks);
        let spans = tracer.into_spans();
        let (mut l, totals, _) =
            layers::from_spans(&spans, spans.len(), &traced.timed, &plain.timed);
        l.insert(
            "frontend.parse_ns_per_op",
            ns_per_op(&totals, "frontend.parse"),
        );
        l.insert(
            "frontend.bytes_per_s",
            traced.parsed_bytes as f64 / (totals["frontend.parse"].total_ns as f64 / 1e9),
        );
        l.insert(
            "transform.tile_ns_per_op",
            ns_per_op(&totals, "transform.tile"),
        );
        l.insert("hw.generate_ns_per_op", ns_per_op(&totals, "hw.generate"));
        l.insert("hw.area_ns_per_op", ns_per_op(&totals, "hw.area"));
        l.insert(
            "verify.program_ns_per_op",
            ns_per_op(&totals, "verify.program"),
        );
        l.insert(
            "verify.design_ns_per_op",
            ns_per_op(&totals, "verify.design"),
        );
        l.insert("core.compile_ns_per_op", ns_per_op(&totals, "core.compile"));
        let core = totals["core.compile"];
        l.insert(
            "core.compile_self_ns_per_op",
            core.self_ns as f64 / core.count as f64,
        );
        l.insert("verify.diagnostics", traced.diagnostics as f64);
        l.insert("transform.ir_bytes_out", traced.first.ir_bytes as f64);
        l.insert("hw.units_out", traced.first.units as f64);
        l.insert("hw.buffers_out", traced.first.buffers as f64);
        result.layers = Some(l);
        result.notes.push(
            "transform.ir_bytes_out, hw.units_out and hw.buffers_out count the first traced pass (54 ops)"
                .to_string(),
        );
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    result.absorb(checks);
    result
}
