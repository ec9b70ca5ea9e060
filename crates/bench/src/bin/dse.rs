//! Design-space exploration over the Table 5 benchmarks: jointly sweeps
//! tile sizes, innermost parallelism, and DRAM substrate variants, with
//! the analytic prefilter rejecting infeasible points before they reach
//! the compiler. Reports the cycles-vs-area Pareto frontier, the single
//! best point, and how many compiles the prefilter saved.
//!
//! Usage:
//! `cargo run --release -p pphw-bench --bin dse [--bench NAME] [--threads N]
//!  [--quick] [--budget BYTES] [--area-frac F] [--json PATH] [--csv PATH]
//!  [--cache PATH] [--strategy exhaustive|guided] [--sample N] [--top-k N]
//!  [--explore N] [--seed N] [--objective min-cycles|cycles-area|area-cap]
//!  [--area-cap F] [--capacity-mode as-generated|inferred]`
//!
//! - `--bench NAME`   restrict to one benchmark (default: all six)
//! - `--threads N`    worker threads (0 = one per core; results are
//!   identical for every value)
//! - `--quick`        tiny space for CI smoke runs: 2 tile candidates per
//!   dimension, one parallelism factor, default substrate only
//! - `--budget BYTES` on-chip memory budget (default 256 KiB — a
//!   single-kernel scratchpad slice, deliberately tighter than the Max4's
//!   6 MB so the analytic prune has bite; the paper's full budget would
//!   keep every candidate)
//! - `--area-frac F`  fraction of the device the design may use (default 1.0)
//! - `--json PATH` / `--csv PATH`  export reports (`-` = stdout; with
//!   multiple benchmarks the name is inserted before the extension)
//! - `--cache PATH`   persistent evaluation cache, one file: read before
//!   the sweep, appended to as measured, checkpointed at exit; hit rates
//!   are reported. Reports are bit-identical with or without it.
//! - `--strategy guided` fit the analytic cost model to a seeded
//!   calibration sample and simulate only the model's top slice plus an
//!   exploration band (`--sample`, `--top-k`, `--explore`, `--seed`
//!   tune it; defaults are [`pphw_dse::GuidedConfig::default`])
//! - `--objective`    what "best" means: `min-cycles`, `cycles-area`
//!   (the default lexicographic order), or `area-cap` (fastest design
//!   with `area_score <= --area-cap F`)
//! - `--capacity-mode inferred` rewrite every channel to the flow
//!   analyzer's minimal safe depth before measuring (default
//!   `as-generated` keeps the generator's depths)
//!
//! A usage error (unknown flag, missing or malformed value, a
//! combination the shared parsers refuse) prints `dse: <message>` and
//! exits 2 before anything is swept. A search that finds nothing feasible
//! or a report that cannot be written prints `dse: <message>` and exits 1.

use std::path::Path;
use std::process::exit;
use std::sync::Arc;

use pphw::dse::explore_with_caches;
use pphw_apps::all_benchmarks;
use pphw_bench::sweep::{sweep_base_options, sweep_sim_variants, sweep_space};
use pphw_dse::cache::{DesignCache, EvalCache};
use pphw_dse::{CapacityMode, DseConfig, DseReport, Objective, Strategy};
use pphw_hw::AreaBudget;

#[derive(Default)]
struct Args {
    bench: Option<String>,
    threads: usize,
    quick: bool,
    budget: u64,
    area_frac: f64,
    json: Option<String>,
    csv: Option<String>,
    cache: Option<String>,
    strategy: Option<String>,
    sample: Option<usize>,
    top_k: Option<usize>,
    explore: Option<usize>,
    seed: Option<u64>,
    objective: Option<String>,
    area_cap: Option<f64>,
    capacity_mode: CapacityMode,
}

/// The value after the flag at `argv[*i]`.
fn val(argv: &[String], i: &mut usize) -> Result<String, String> {
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
}

/// That value as a number.
fn num<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> Result<T, String> {
    let text = val(argv, i)?;
    text.parse()
        .map_err(|_| format!("{} takes a number, got `{text}`", argv[*i - 1]))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget: 256 * 1024,
        area_frac: 1.0,
        ..Args::default()
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--bench" => args.bench = Some(val(&argv, &mut i)?),
            "--threads" => args.threads = num(&argv, &mut i)?,
            "--quick" => args.quick = true,
            "--budget" => args.budget = num(&argv, &mut i)?,
            "--area-frac" => args.area_frac = num(&argv, &mut i)?,
            "--json" => args.json = Some(val(&argv, &mut i)?),
            "--csv" => args.csv = Some(val(&argv, &mut i)?),
            "--cache" => args.cache = Some(val(&argv, &mut i)?),
            "--strategy" => args.strategy = Some(val(&argv, &mut i)?),
            "--sample" => args.sample = Some(num(&argv, &mut i)?),
            "--top-k" => args.top_k = Some(num(&argv, &mut i)?),
            "--explore" => args.explore = Some(num(&argv, &mut i)?),
            "--seed" => args.seed = Some(num(&argv, &mut i)?),
            "--objective" => args.objective = Some(val(&argv, &mut i)?),
            "--area-cap" => args.area_cap = Some(num(&argv, &mut i)?),
            "--capacity-mode" => match val(&argv, &mut i)?.as_str() {
                "as-generated" => args.capacity_mode = CapacityMode::AsGenerated,
                "inferred" => args.capacity_mode = CapacityMode::InferredMinimal,
                other => {
                    return Err(format!(
                        "--capacity-mode must be `as-generated` or `inferred`, got `{other}`"
                    ))
                }
            },
            other => return Err(format!("unknown flag {other} (see the module docs)")),
        }
        i += 1;
    }
    Ok(args)
}

/// Prints `dse: <message>` and exits with `code` on an error: 2 for a
/// usage error (this bin's own or one the shared parsers reject, before
/// anything is swept), 1 for a run that fails.
fn or_exit<T>(result: Result<T, String>, code: i32) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("dse: {e}");
        exit(code);
    })
}

fn export(path: &str, name: &str, multi: bool, contents: &str) {
    if path == "-" {
        println!("{contents}");
        return;
    }
    let target = if multi {
        match path.rsplit_once('.') {
            Some((stem, ext)) => format!("{stem}-{name}.{ext}"),
            None => format!("{path}-{name}"),
        }
    } else {
        path.to_string()
    };
    let written = std::fs::write(&target, contents);
    or_exit(written.map_err(|e| format!("writing {target}: {e}")), 1);
    println!("  wrote {target}");
}

fn main() {
    let args = or_exit(parse_args(), 2);
    let specs = match &args.bench {
        Some(name) => vec![or_exit(pphw_apps::benchmark(name), 2)],
        None => all_benchmarks(),
    };
    let multi = specs.len() > 1;

    // The same vocabulary and the same refusals as the daemon's `dse`
    // method (`--area-cap F` alone implies `--objective area-cap`).
    let strategy = Strategy::parse(
        args.strategy.as_deref(),
        args.sample,
        args.top_k,
        args.explore,
        args.seed,
    );
    let objective = Objective::parse(args.objective.as_deref(), args.area_cap);
    let (strategy, objective) = (or_exit(strategy, 2), or_exit(objective, 2));

    let sim_variants = sweep_sim_variants(args.quick);

    // One evaluation cache and one compile-artifact cache span the whole
    // run; keys include the benchmark name, so sharing across benchmarks
    // is safe and lets `--bench` runs reuse an all-benchmark cache file.
    // Journaled when backed by a file: every evaluation is appended
    // crash-safely as it lands, so an interrupted sweep resumes from
    // everything it measured, not just the last clean save.
    let eval_cache = match &args.cache {
        Some(p) => EvalCache::open_journaled(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("cache: journal open failed ({e}); running unjournaled");
            EvalCache::load_or_cold(Path::new(p))
        }),
        None => EvalCache::new(),
    };
    let preloaded = eval_cache.len();
    let designs = Arc::new(DesignCache::new());

    let mut table: Vec<(String, DseReport)> = Vec::new();
    for spec in &specs {
        let base = sweep_base_options(spec, args.budget);
        let space = sweep_space(spec, args.quick, &sim_variants);

        let cfg = DseConfig {
            threads: args.threads,
            on_chip_budget_bytes: args.budget,
            area_budget: AreaBudget::device_fraction(args.area_frac),
            strategy,
            capacity_mode: args.capacity_mode,
            objective,
        };
        let report = explore_with_caches(
            &(spec.program)(),
            &base,
            &space,
            &cfg,
            &eval_cache,
            Arc::clone(&designs),
        )
        .map_err(|e| format!("{}: search failed: {e}", spec.name));
        let report = or_exit(report, 1);
        print!("{}", report.summary());
        if let Some(p) = &args.json {
            export(p, spec.name, multi, &report.to_json());
        }
        if let Some(p) = &args.csv {
            export(p, spec.name, multi, &report.to_csv());
        }
        println!();
        table.push((spec.name.to_string(), report));
    }

    println!(
        "{:<12} {:<34} {:>12} {:>8} {:>14}",
        "benchmark", "best config", "cycles", "area", "evals/points"
    );
    for (name, r) in &table {
        println!(
            "{:<12} {:<34} {:>12} {:>8.4} {:>7}/{:<6}",
            name,
            r.best.label,
            r.best.cycles,
            r.best.area_score,
            r.stats.evaluated,
            r.stats.exhaustive
        );
    }

    println!(
        "cache: {} eval hits / {} misses, {} designs compiled / {} reused",
        eval_cache.hits(),
        eval_cache.misses(),
        designs.builds(),
        designs.hits()
    );
    if let Some(p) = &args.cache {
        let result = if eval_cache.is_journaled() {
            eval_cache.checkpoint().map_err(|e| e.to_string())
        } else {
            eval_cache.save(Path::new(p)).map_err(|e| e.to_string())
        };
        match result {
            Ok(()) => println!(
                "cache: saved {} entries to {p} ({preloaded} preloaded)",
                eval_cache.len()
            ),
            Err(e) => eprintln!("cache: could not save {p}: {e}"),
        }
    }
}
