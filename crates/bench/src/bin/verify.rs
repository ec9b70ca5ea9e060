//! Lints all six benchmarks with the `pphw-verify` static analyzer: the
//! untiled source program, then the transformed program and generated
//! design at every optimization level. Exits nonzero if any benchmark
//! produces a gating diagnostic, so CI can gate on it.
//!
//! Usage: `cargo run --release -p pphw-bench --bin verify
//!   [--json] [--flow] [--warn-ok] [--max-severity LEVEL]`
//!
//! - `--json`  machine-readable report
//! - `--flow`  per-design dataflow view: every metapipeline channel with
//!   its token grain and slot count, the statically predicted bottleneck
//!   stage, and the depth diff `pphw_verify::flow::infer_capacities`
//!   would apply (empty when the generator already sized minimally)
//! - `--max-severity LEVEL` the highest severity tolerated without a
//!   nonzero exit: `none` (any diagnostic gates), `warning` (warnings
//!   pass, errors gate — the default), `error` (report only, never gate)
//! - `--warn-ok`  alias for `--max-severity warning`: warning-level
//!   diagnostics (e.g. `PPHW044` over-provisioned channels) never force
//!   a nonzero exit

use pphw::{compile, flow_timing, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_hw::channel::{channels, Channel};
use pphw_ir::json::{self, Obj};
use pphw_sim::SimConfig;
use pphw_verify::flow::{infer_capacities, predict_bottleneck, CapacityChange};
use pphw_verify::{verify_program, VerifyConfig, VerifyReport};

/// The highest severity the run tolerates without exiting nonzero.
#[derive(Clone, Copy, PartialEq)]
enum Gate {
    /// Any diagnostic gates (strictest: `--max-severity none`).
    None,
    /// Warnings pass, errors gate (default / `--warn-ok`).
    Warning,
    /// Report only, never gate (`--max-severity error`).
    Error,
}

/// The `--flow` view of one compiled design.
struct FlowInfo {
    channels: Vec<Channel>,
    bottleneck: Option<String>,
    inferred: Vec<CapacityChange>,
}

struct Row {
    bench: &'static str,
    stage: String,
    report: VerifyReport,
    flow: Option<FlowInfo>,
}

fn flow_json(o: &mut Obj<'_>, f: &FlowInfo) {
    o.field("bottleneck", &f.bottleneck)
        .arr("channels", |a| {
            for c in &f.channels {
                a.obj(|o| {
                    o.field("ctrl", &c.ctrl)
                        .field("buffer", &c.buf_name)
                        .field("producer", &c.producer_name)
                        .field("consumer", &c.consumer_name)
                        .field("token_words", c.token_words)
                        .field("capacity_words", c.capacity_words)
                        .field("slots", c.slots())
                        .field("backward", c.is_backward());
                });
            }
        })
        .arr("inferred", |a| {
            for c in &f.inferred {
                a.obj(|o| {
                    o.field("buffer", &c.name)
                        .field("old_words", c.old_words)
                        .field("new_words", c.new_words);
                });
            }
        });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let json = argv.iter().any(|a| a == "--json");
    let flow = argv.iter().any(|a| a == "--flow");
    let mut gate = Gate::Warning;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--warn-ok" => gate = Gate::Warning,
            "--max-severity" => {
                i += 1;
                gate = match argv.get(i).map(String::as_str) {
                    Some("none") => Gate::None,
                    Some("warning") => Gate::Warning,
                    Some("error") => Gate::Error,
                    other => {
                        eprintln!(
                            "verify: --max-severity must be none|warning|error, got {other:?}"
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--json" | "--flow" => {}
            other => {
                eprintln!("verify: unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // The bottleneck is predicted for the board the other bins simulate.
    let timing = flow_timing(&SimConfig::default());
    let mut rows: Vec<Row> = Vec::new();
    for spec in all_benchmarks() {
        let base = spec.options();
        let cfg = VerifyConfig {
            inner_par: spec.inner_par,
            on_chip_budget_bytes: Some(base.on_chip_budget_bytes),
            ..VerifyConfig::default()
        };
        // Source findings locate in the benchmark's `.ppl` file; compiled
        // programs have no source map, so their findings keep paths only.
        let mut report = verify_program(&(spec.program)(), &cfg);
        report.attach_spans(&spec.source.parsed().source_map, spec.source.text);
        rows.push(Row {
            bench: spec.name,
            stage: "source".into(),
            report,
            flow: None,
        });
        for level in OptLevel::all() {
            let opts = base.clone().opt(level);
            match compile(&(spec.program)(), &opts) {
                Ok(compiled) => rows.push(Row {
                    bench: spec.name,
                    stage: level.to_string(),
                    flow: flow.then(|| {
                        let mut sized = compiled.design.clone();
                        FlowInfo {
                            channels: channels(&compiled.design),
                            bottleneck: predict_bottleneck(&compiled.design, &timing),
                            inferred: infer_capacities(&mut sized),
                        }
                    }),
                    report: compiled.verify(),
                }),
                Err(e) => {
                    // A benchmark that no longer compiles is as gating as
                    // a diagnostic; surface it and fail.
                    eprintln!("verify: {} [{level}] failed to compile: {e}", spec.name);
                    std::process::exit(2);
                }
            }
        }
    }

    let error_count: usize = rows.iter().map(|r| r.report.error_count()).sum();
    let warning_count: usize = rows.iter().map(|r| r.report.warning_count()).sum();
    if json {
        println!(
            "{}",
            json::object(|o| {
                o.field("error_count", error_count)
                    .field("warning_count", warning_count)
                    .arr("runs", |a| {
                        for r in &rows {
                            a.obj(|o| {
                                o.field("bench", r.bench)
                                    .field("stage", &r.stage)
                                    .field("report", &r.report);
                                if let Some(f) = &r.flow {
                                    o.obj("flow", |o| flow_json(o, f));
                                }
                            });
                        }
                    });
            })
        );
    } else {
        for r in &rows {
            let verdict = if r.report.is_clean() {
                "clean".to_string()
            } else {
                format!("{} error(s)", r.report.error_count())
            };
            println!("{:<12} {:<28} {verdict}", r.bench, r.stage);
            for d in &r.report.diagnostics {
                println!("    {d}");
            }
            if let Some(f) = &r.flow {
                for c in &f.channels {
                    println!(
                        "    flow {}/{}: {} -> {} token={}w cap={}w slots={}{}",
                        c.ctrl,
                        c.buf_name,
                        c.producer_name,
                        c.consumer_name,
                        c.token_words,
                        c.capacity_words,
                        c.slots(),
                        if c.is_backward() { " (backward)" } else { "" }
                    );
                }
                if let Some(b) = &f.bottleneck {
                    println!("    flow bottleneck: {b}");
                }
                if f.inferred.is_empty() {
                    if !f.channels.is_empty() {
                        println!("    flow inferred depths: as generated (already minimal)");
                    }
                } else {
                    for c in &f.inferred {
                        println!(
                            "    flow inferred depth: {} {}w -> {}w",
                            c.name, c.old_words, c.new_words
                        );
                    }
                }
            }
        }
        println!(
            "verify: {} runs, {error_count} error(s), {warning_count} warning(s) total",
            rows.len()
        );
    }
    let gating = match gate {
        Gate::None => error_count + warning_count,
        Gate::Warning => error_count,
        Gate::Error => 0,
    };
    if gating > 0 {
        std::process::exit(1);
    }
}
