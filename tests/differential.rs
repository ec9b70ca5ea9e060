//! Differential sweep over the six paper benchmarks (Table 5).
//!
//! For every benchmark, each seeded size/tile configuration is pushed
//! through the three executable semantics the repo has — the untiled
//! program under the reference interpreter (oracle, cross-checked against
//! the plain-Rust golden model), the tiled program under the same
//! interpreter, and the generated design at all three optimization levels
//! (functional results plus deterministic simulated timing). Any
//! divergence beyond float tolerance fails the sweep with the offending
//! case and stage.
//!
//! The final test injects a deliberately corrupted tiling transform and
//! asserts the harness catches it — the mutation smoke-check that keeps
//! the differential suite honest.

use pphw_ir::expr::{BinOp, Expr};
use pphw_ir::Program;
use pphw_sim::SimConfig;
use pphw_testkit::differential::{run_differential, DiffCase, DiffError, DiffOptions};
use pphw_transform::rewrite::map_exprs;
use pphw_transform::{tile_program, TileConfig, TileError};

fn named_sim_variants() -> Vec<(String, SimConfig)> {
    SimConfig::named_variants()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Seeded size/tile sweeps per benchmark: at least three configurations
/// each, small enough that the interpreter-based oracle stays fast, large
/// enough to cover several tiles per dimension and uneven aspect ratios.
fn sweep(name: &str) -> Vec<DiffCase> {
    match name {
        "outerprod" => vec![
            DiffCase::new(&[("m", 32), ("n", 32)], &[("m", 8), ("n", 8)], 11),
            DiffCase::new(&[("m", 64), ("n", 48)], &[("m", 16), ("n", 16)], 12),
            DiffCase::new(&[("m", 48), ("n", 16)], &[("m", 8), ("n", 16)], 13),
        ],
        "sumrows" => vec![
            DiffCase::new(&[("m", 16), ("n", 64)], &[("m", 4), ("n", 64)], 21),
            DiffCase::new(&[("m", 32), ("n", 32)], &[("m", 8), ("n", 32)], 22),
            DiffCase::new(&[("m", 64), ("n", 16)], &[("m", 16), ("n", 16)], 23),
        ],
        "gemm" => vec![
            DiffCase::new(
                &[("m", 16), ("n", 16), ("p", 16)],
                &[("m", 4), ("n", 4), ("p", 4)],
                31,
            ),
            DiffCase::new(
                &[("m", 24), ("n", 16), ("p", 32)],
                &[("m", 8), ("n", 8), ("p", 8)],
                32,
            ),
            DiffCase::new(
                &[("m", 32), ("n", 24), ("p", 16)],
                &[("m", 16), ("n", 8), ("p", 8)],
                33,
            ),
        ],
        "tpchq6" => vec![
            DiffCase::new(&[("n", 256)], &[("n", 32)], 41),
            DiffCase::new(&[("n", 512)], &[("n", 64)], 42),
            DiffCase::new(&[("n", 1024)], &[("n", 128)], 43),
        ],
        "gda" => vec![
            DiffCase::new(&[("n", 64), ("d", 8)], &[("n", 16)], 51),
            DiffCase::new(&[("n", 96), ("d", 8)], &[("n", 32)], 52),
            DiffCase::new(&[("n", 128), ("d", 16)], &[("n", 32)], 53),
        ],
        "kmeans" => vec![
            DiffCase::new(&[("n", 64), ("k", 4), ("d", 4)], &[("n", 16), ("k", 2)], 61),
            DiffCase::new(
                &[("n", 128), ("k", 8), ("d", 8)],
                &[("n", 16), ("k", 4)],
                62,
            ),
            DiffCase::new(
                &[("n", 256), ("k", 8), ("d", 4)],
                &[("n", 32), ("k", 4)],
                63,
            ),
        ],
        other => panic!("unknown benchmark {other}"),
    }
}

fn run_sweep(name: &str) {
    let spec = pphw_apps::benchmark(name).expect("benchmark exists");
    let prog = (spec.program)();
    let cases = sweep(name);
    assert!(cases.len() >= 3, "sweep must cover >= 3 configurations");
    let report = run_differential(
        name,
        &prog,
        &spec.inputs,
        Some(&spec.golden),
        &cases,
        &DiffOptions::default(),
    )
    .unwrap_or_else(|e| panic!("differential sweep failed: {e}"));
    assert_eq!(report.cases.len(), cases.len());
    // Every case simulated all three optimization levels, non-trivially.
    for case in &report.cases {
        assert_eq!(case.levels.len(), 3, "{}: missing levels", case.label);
        assert!(case.levels.iter().all(|l| l.cycles > 0));
    }
    // The sweep compiles through `pphw::compile`, which installs the deep
    // per-pass verifier: when verification is enabled (debug builds, or
    // PPHW_VERIFY=1 as in CI), the sweep must have exercised it.
    if pphw_transform::verification_enabled() {
        assert!(
            pphw_transform::deep_verifier_runs() > 0,
            "post-transform verifier never ran during the differential sweep"
        );
    }
}

#[test]
fn outerprod_differential() {
    run_sweep("outerprod");
}

#[test]
fn sumrows_differential() {
    run_sweep("sumrows");
}

#[test]
fn gemm_differential() {
    run_sweep("gemm");
}

#[test]
fn tpchq6_differential() {
    run_sweep("tpchq6");
}

#[test]
fn gda_differential() {
    run_sweep("gda");
}

#[test]
fn kmeans_differential() {
    run_sweep("kmeans");
}

/// Joint parallelism × DRAM-substrate sweep on the two streaming
/// benchmarks: every (level, par, substrate) combination must simulate
/// deterministically, stay inside the analytic traffic band, and respect
/// the unconditional orderings (meta <= tiled cycles, tiled <= baseline
/// DRAM words) — but no tiling *speedup* is expected, since streaming
/// bodies have no reuse for tiles to capture.
#[test]
fn par_and_substrate_sweep_on_streaming_benchmarks() {
    let opts = DiffOptions {
        inner_pars: vec![8, 32],
        sim_variants: named_sim_variants(),
        ..DiffOptions::default()
    };
    for (name, case) in [
        (
            "outerprod",
            DiffCase::new(&[("m", 32), ("n", 32)], &[("m", 8), ("n", 8)], 81),
        ),
        ("tpchq6", DiffCase::new(&[("n", 512)], &[("n", 64)], 82)),
    ] {
        let spec = pphw_apps::benchmark(name).expect("benchmark exists");
        let report = run_differential(
            name,
            &(spec.program)(),
            &spec.inputs,
            Some(&spec.golden),
            &[case],
            &opts,
        )
        .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        // 3 levels x 2 parallelism factors x 3 substrates.
        assert_eq!(report.cases[0].levels.len(), 18, "{name}");
    }
}

/// On reuse-heavy benchmarks at sizes where tile copies amortize, the
/// full `meta <= tiled <= baseline` cycle chain must hold across the
/// whole parallelism x substrate sweep (Figure 7's speedups).
#[test]
fn tiling_speedup_ordering_on_reuse_benchmarks() {
    let opts = DiffOptions {
        inner_pars: vec![8, 32],
        sim_variants: named_sim_variants(),
        expect_tiling_speedup: true,
        ..DiffOptions::default()
    };
    for (name, case) in [
        (
            "sumrows",
            DiffCase::new(&[("m", 128), ("n", 128)], &[("m", 16), ("n", 128)], 91),
        ),
        (
            "gemm",
            DiffCase::new(
                &[("m", 64), ("n", 64), ("p", 64)],
                &[("m", 16), ("n", 16), ("p", 16)],
                92,
            ),
        ),
        (
            "gda",
            DiffCase::new(&[("n", 256), ("d", 16)], &[("n", 64)], 93),
        ),
        (
            "kmeans",
            DiffCase::new(
                &[("n", 256), ("k", 8), ("d", 8)],
                &[("n", 32), ("k", 4)],
                94,
            ),
        ),
    ] {
        let spec = pphw_apps::benchmark(name).expect("benchmark exists");
        run_differential(
            name,
            &(spec.program)(),
            &spec.inputs,
            Some(&spec.golden),
            &[case],
            &opts,
        )
        .unwrap_or_else(|e| panic!("speedup ordering failed: {e}"));
    }
}

/// A transform that tiles correctly, then corrupts one reduction: the
/// first floating add in the tiled body becomes a subtract. A single
/// operator flip is the classic mutation-testing mutant — flipping *every*
/// add would be a weaker check, since an even number of sign flips along
/// one accumulation chain cancels out (as it does in tiled gemm).
fn broken_tile(prog: &Program, cfg: &TileConfig) -> Result<Program, TileError> {
    let mut t = tile_program(prog, cfg)?;
    let mut flipped = false;
    map_exprs(&mut t.body, &mut |e| {
        e.map(&mut |sub| match sub {
            Expr::Bin(BinOp::Add, a, b) if !flipped => {
                flipped = true;
                Expr::Bin(BinOp::Sub, a, b)
            }
            other => other,
        })
    });
    Ok(t)
}

/// Mutation smoke-check: the sweep must flag a deliberately broken
/// transform at the tiled-vs-untiled comparison, for every benchmark whose
/// body contains an additive reduction.
#[test]
fn broken_transform_is_caught_on_gemm() {
    let spec = pphw_apps::benchmark("gemm").expect("benchmark exists");
    let prog = (spec.program)();
    let opts = DiffOptions {
        tile_fn: broken_tile,
        ..DiffOptions::default()
    };
    let err = run_differential(
        "gemm-mutated",
        &prog,
        &spec.inputs,
        Some(&spec.golden),
        &sweep("gemm"),
        &opts,
    )
    .expect_err("mutated tiling must be caught");
    match err {
        DiffError::Mismatch { ref stage, .. } => {
            assert_eq!(stage, "tiled vs untiled", "wrong stage: {err}")
        }
        ref other => panic!("expected a mismatch, got: {other}"),
    }
}

/// The same smoke-check on a reduction-of-reductions benchmark (sumrows),
/// guarding against the harness only being sensitive on gemm's shape.
#[test]
fn broken_transform_is_caught_on_sumrows() {
    let spec = pphw_apps::benchmark("sumrows").expect("benchmark exists");
    let prog = (spec.program)();
    let opts = DiffOptions {
        tile_fn: broken_tile,
        ..DiffOptions::default()
    };
    let err = run_differential(
        "sumrows-mutated",
        &prog,
        &spec.inputs,
        Some(&spec.golden),
        &sweep("sumrows"),
        &opts,
    )
    .expect_err("mutated tiling must be caught");
    assert!(
        matches!(err, DiffError::Mismatch { .. }),
        "expected a mismatch, got: {err}"
    );
}
