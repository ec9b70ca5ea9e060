//! Robustness acceptance tests for the hardened, panic-free pipeline:
//!
//! 1. **Fuzz sweep** — randomly built programs with adversarial sizes,
//!    tile configurations, simulation substrates, and fault models run
//!    through compile → simulate. Invalid inputs must come back as typed
//!    `Err`s; nothing may panic. Failing cases shrink to a minimal
//!    witness via the testkit property harness.
//! 2. **Fault-injection guarantees** on all six Table 5 benchmarks:
//!    same seed ⇒ bit-identical report; faulted runs are never faster
//!    than clean ones; an inert fault config reproduces the fault-free
//!    simulation exactly.
//! 3. **DSE resilience** — a sweep whose candidates include a substrate
//!    that cannot finish within its cycle budget completes anyway,
//!    lists the failures, and still returns the best healthy point,
//!    identically across thread counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_dse::{DseConfig, SearchSpace};
use pphw_ir::builder::ProgramBuilder;
use pphw_ir::pattern::Init;
use pphw_ir::types::{DType, ScalarType};
use pphw_ir::Program;
use pphw_sim::{FaultConfig, SimConfig};
use pphw_testkit::prop::Check;
use pphw_testkit::Rng;

/// One fuzzed end-to-end configuration: a program shape plus adversarial
/// compile / simulate / fault knobs.
#[derive(Debug, Clone)]
struct FuzzCase {
    shape: u8,
    dim0: i64,
    dim1: i64,
    tile0: i64,
    tile1: i64,
    inner_par: u32,
    opt: u8,
    clock_mhz: f64,
    dram_gbps: f64,
    cycle_budget: u64,
    fault_seed: u64,
    jitter: u64,
    rate: f64,
    degrade_period: u64,
    degrade_window: u64,
    degrade_factor: f64,
    max_retries: u32,
}

/// Builds the program for a case: three small pattern families covering
/// map, map-of-fold, and a two-input elementwise kernel, including an
/// integer division (the classic hidden-panic site).
fn build_program(shape: u8) -> Program {
    match shape % 3 {
        0 => {
            let mut b = ProgramBuilder::new("fuzz_map");
            let d = b.size("d0");
            let x = b.input("x", DType::F32, vec![d.clone()]);
            let out = b.map(vec![d], |c, i| {
                c.mul(c.f32(2.0), c.read(x, vec![c.var(i[0])]))
            });
            b.finish(vec![out])
        }
        1 => {
            let mut b = ProgramBuilder::new("fuzz_sumrows");
            let m = b.size("d0");
            let n = b.size("d1");
            let x = b.input("x", DType::F32, vec![m.clone(), n.clone()]);
            let out = b.with_ctx(|c| {
                c.map(vec![m], |c, i| {
                    let i = i[0];
                    c.fold(
                        "rowsum",
                        vec![n.clone()],
                        vec![],
                        ScalarType::Prim(DType::F32),
                        Init::zeros(),
                        |c, j, acc| c.add(c.var(acc), c.read(x, vec![c.var(i), c.var(j[0])])),
                        |c, a, b2| c.add(c.var(a), c.var(b2)),
                    )
                })
            });
            b.finish(vec![out])
        }
        _ => {
            let mut b = ProgramBuilder::new("fuzz_zip");
            let d = b.size("d0");
            let x = b.input("x", DType::F32, vec![d.clone()]);
            let y = b.input("y", DType::F32, vec![d.clone()]);
            let out = b.map(vec![d], |c, i| {
                let xv = c.read(x, vec![c.var(i[0])]);
                let yv = c.read(y, vec![c.var(i[0])]);
                c.add(c.mul(xv.clone(), yv.clone()), xv)
            });
            b.finish(vec![out])
        }
    }
}

fn gen_case(rng: &mut Rng) -> FuzzCase {
    // Adversarial pools: zero, negative, indivisible, and absurdly large
    // values alongside healthy ones.
    let dims: &[i64] = &[-4, 0, 1, 3, 7, 64, 100, 4096, 1 << 40];
    let tiles: &[i64] = &[-2, 0, 1, 3, 16, 64, 1 << 33];
    let clocks: &[f64] = &[-1.0, 0.0, f64::NAN, 150.0, 150.0];
    let gbps: &[f64] = &[-3.0, 0.0, f64::INFINITY, 38.4, 38.4];
    let budgets: &[u64] = &[0, 1_000, 100_000, 1 << 53];
    let rates: &[f64] = &[-0.5, 0.0, 0.05, 0.99, 1.5, f64::NAN];
    let factors: &[f64] = &[0.5, 1.0, 1.5, f64::INFINITY];
    FuzzCase {
        shape: rng.gen_range(0u32..3) as u8,
        dim0: *rng.choose(dims),
        dim1: *rng.choose(dims),
        tile0: *rng.choose(tiles),
        tile1: *rng.choose(tiles),
        inner_par: [0u32, 1, 16, 64, 1024][rng.gen_range(0usize..5)],
        opt: rng.gen_range(0u32..3) as u8,
        clock_mhz: *rng.choose(clocks),
        dram_gbps: *rng.choose(gbps),
        cycle_budget: *rng.choose(budgets),
        fault_seed: rng.next_u64(),
        jitter: [0u64, 8, 64][rng.gen_range(0usize..3)],
        rate: *rng.choose(rates),
        degrade_period: [0u64, 1024, 4096][rng.gen_range(0usize..3)],
        degrade_window: [0u64, 256, 8192][rng.gen_range(0usize..3)],
        degrade_factor: *rng.choose(factors),
        max_retries: rng.gen_range(0u32..5),
    }
}

/// Shrink toward the simplest healthy-looking case so a failure witness
/// is readable.
fn shrink_case(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut s = c.clone();
        f(&mut s);
        out.push(s);
    };
    if c.dim0 != 64 {
        push(&|s| s.dim0 = 64);
    }
    if c.dim1 != 64 {
        push(&|s| s.dim1 = 64);
    }
    if c.tile0 != 16 {
        push(&|s| s.tile0 = 16);
    }
    if c.tile1 != 16 {
        push(&|s| s.tile1 = 16);
    }
    if c.inner_par != 16 {
        push(&|s| s.inner_par = 16);
    }
    if c.clock_mhz.to_bits() != 150.0f64.to_bits() {
        push(&|s| s.clock_mhz = 150.0);
    }
    if c.dram_gbps.to_bits() != 38.4f64.to_bits() {
        push(&|s| s.dram_gbps = 38.4);
    }
    if c.cycle_budget != 100_000 {
        push(&|s| s.cycle_budget = 100_000);
    }
    if c.rate != 0.0 || c.jitter != 0 || c.degrade_window != 0 {
        push(&|s| {
            s.rate = 0.0;
            s.jitter = 0;
            s.degrade_window = 0;
        });
    }
    out
}

/// Runs one case end to end. Returns `Err` only on a panic — typed
/// pipeline errors are the expected outcome for adversarial inputs.
fn run_case(c: &FuzzCase) -> Result<(), String> {
    let c = c.clone();
    catch_unwind(AssertUnwindSafe(move || {
        let prog = build_program(c.shape);
        let sizes: Vec<(&str, i64)> = match c.shape % 3 {
            1 => vec![("d0", c.dim0), ("d1", c.dim1)],
            _ => vec![("d0", c.dim0)],
        };
        let tiles: Vec<(&str, i64)> = match c.shape % 3 {
            1 => vec![("d0", c.tile0), ("d1", c.tile1)],
            _ => vec![("d0", c.tile0)],
        };
        let opt = [OptLevel::Baseline, OptLevel::Tiled, OptLevel::Metapipelined][c.opt as usize];
        let opts = CompileOptions::new(&sizes)
            .tiles(&tiles)
            .inner_par(c.inner_par)
            .opt(opt);
        let compiled = match compile(&prog, &opts) {
            Ok(compiled) => compiled,
            Err(_) => return, // typed rejection is a pass
        };
        // Whatever the tiling pipeline accepted, both checker modes
        // accept: its per-pass gate is one of them.
        let deep = pphw_ir::check::check_deep(&compiled.program);
        assert!(deep.is_empty(), "compiled program is ill-formed: {deep:?}");
        assert_eq!(compiled.program.validate(), Ok(()));
        // Keep runaway-but-valid configurations bounded: the watchdog
        // must turn them into errors, and quickly enough to fuzz.
        let budget = if c.dim0.max(c.dim1) > 1 << 20 {
            c.cycle_budget.min(100_000)
        } else {
            c.cycle_budget
        };
        let sim = SimConfig::default()
            .with_clock_mhz(c.clock_mhz)
            .with_dram_gbps(c.dram_gbps)
            .with_cycle_budget(budget);
        let faults = FaultConfig::none()
            .with_seed(c.fault_seed)
            .with_latency_jitter(c.jitter)
            .with_burst_fail_rate(c.rate)
            .with_degradation(c.degrade_period, c.degrade_window, c.degrade_factor)
            .with_retry(c.max_retries, 16);
        let _ = compiled.simulate(&sim);
        let _ = compiled.simulate_with_faults(&sim, &faults);
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("pipeline panicked: {msg}")
    })
}

#[test]
fn fuzzed_pipeline_returns_errors_never_panics() {
    Check::new("pipeline_never_panics")
        .cases(192)
        .run_shrink(gen_case, shrink_case, run_case);
}

#[allow(clippy::type_complexity)]
fn small_opts(name: &str) -> (Program, CompileOptions) {
    let spec = pphw_apps::benchmark(name).expect("benchmark exists");
    let (sizes, tiles): (Vec<(&str, i64)>, Vec<(&str, i64)>) = match name {
        "outerprod" => (vec![("m", 64), ("n", 64)], vec![("m", 16), ("n", 16)]),
        "sumrows" => (vec![("m", 64), ("n", 64)], vec![("m", 16), ("n", 64)]),
        "gemm" => (
            vec![("m", 32), ("n", 32), ("p", 32)],
            vec![("m", 8), ("n", 8), ("p", 8)],
        ),
        "tpchq6" => (vec![("n", 2048)], vec![("n", 256)]),
        "gda" => (vec![("n", 128), ("d", 16)], vec![("n", 32)]),
        "kmeans" => (
            vec![("n", 256), ("k", 8), ("d", 8)],
            vec![("n", 32), ("k", 4)],
        ),
        other => panic!("unknown {other}"),
    };
    ((spec.program)(), CompileOptions::new(&sizes).tiles(&tiles))
}

#[test]
fn fault_injection_is_deterministic_and_monotone_on_all_benchmarks() {
    let sim = SimConfig::default();
    let faults = FaultConfig::none()
        .with_seed(0xDEC0DE)
        .with_latency_jitter(24)
        .with_degradation(2048, 256, 1.5)
        .with_burst_fail_rate(0.05);
    for spec in all_benchmarks() {
        let (prog, opts) = small_opts(spec.name);
        let compiled =
            compile(&prog, &opts.opt(OptLevel::Metapipelined)).expect("benchmark compiles");
        let clean = compiled.simulate(&sim).expect("simulates");

        // Same seed ⇒ identical report, including the fault counters.
        let a = compiled
            .simulate_with_faults(&sim, &faults)
            .expect("simulates");
        let b = compiled
            .simulate_with_faults(&sim, &faults)
            .expect("simulates");
        assert_eq!(a.cycles, b.cycles, "{}", spec.name);
        assert_eq!(a.dram_words, b.dram_words, "{}", spec.name);
        assert_eq!(a.faults, b.faults, "{}", spec.name);

        // Faults only ever cost cycles.
        assert!(
            a.cycles >= clean.cycles,
            "{}: faulted {} < clean {}",
            spec.name,
            a.cycles,
            clean.cycles
        );

        // An inert fault config takes the fault-free path bit-for-bit.
        let inert = compiled
            .simulate_with_faults(&sim, &FaultConfig::none().with_seed(0xDEC0DE))
            .expect("simulates");
        assert_eq!(inert.cycles, clean.cycles, "{}", spec.name);
        assert_eq!(inert.dram_bytes, clean.dram_bytes, "{}", spec.name);
        assert_eq!(inert.faults, Default::default(), "{}", spec.name);
    }
}

#[test]
fn dse_sweep_with_doomed_substrate_records_failures_and_completes() {
    let (prog, _) = small_opts("gemm");
    let sizes = [("m", 32), ("n", 32), ("p", 32)];
    let base = CompileOptions::new(&sizes);
    // One healthy substrate and one whose cycle budget no design can
    // meet: every candidate on it must come back as a recorded failure,
    // not a lost sweep.
    let space = SearchSpace::new(&sizes)
        .tune_dim("m")
        .expect("tunable")
        .with_inner_pars(&[8, 16])
        .with_sim_variants(&[
            ("ok", SimConfig::default()),
            ("doomed", SimConfig::default().with_cycle_budget(1)),
        ]);

    let mut reference: Option<pphw_dse::DseReport> = None;
    for threads in [1usize, 4] {
        let cfg = DseConfig {
            threads,
            ..DseConfig::default()
        };
        let report = pphw::dse::explore_program(&prog, &base, &space, &cfg)
            .expect("sweep completes despite failing candidates");
        assert!(report.stats.failed > 0, "doomed substrate must fail");
        assert_eq!(report.failures.len(), report.stats.failed);
        for f in &report.failures {
            assert!(f.label.contains("sim=doomed"), "unexpected failure {f:?}");
            assert!(f.error.contains("budget"), "unexpected error {f:?}");
        }
        assert_eq!(report.best.sim_label, "ok");
        assert!(report.evaluated.iter().all(|p| p.sim_label == "ok"));
        if let Some(r) = &reference {
            assert_eq!(r.best.label, report.best.label, "threads={threads}");
            assert_eq!(r.failures, report.failures);
            assert_eq!(r.stats, report.stats);
        }
        reference = Some(report);
    }

    // A failure's error is free text (a `PphwError`, or the deep
    // verifier's newline-separated diagnostics): whatever it holds, the
    // JSON report must stay parseable and give the text back unchanged.
    let mut report = reference.expect("ran");
    report.failures.push(pphw_dse::FailedPoint {
        label: "m=4 par=8 sim=\"quoted\"".into(),
        error: "PPHW041 at root\\b: zero slots\n\tsecond line\r\u{1}".into(),
    });
    let json = pphw_server::json::parse_json(&report.to_json()).expect("report is valid JSON");
    let parsed: Vec<(&str, &str)> = json
        .get("failures")
        .and_then(|f| f.as_arr())
        .expect("failures array")
        .iter()
        .map(|f| {
            let field = |k| f.get(k).and_then(|v| v.as_str()).expect("string field");
            (field("label"), field("error"))
        })
        .collect();
    let written: Vec<(&str, &str)> = report
        .failures
        .iter()
        .map(|f| (f.label.as_str(), f.error.as_str()))
        .collect();
    assert_eq!(parsed, written);
}
