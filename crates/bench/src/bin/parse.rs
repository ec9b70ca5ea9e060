//! Parses a textual PPL program, verifies it, and optionally simulates it
//! end-to-end.
//!
//! Usage:
//!   cargo run -p pphw-bench --bin parse -- <file.ppl> [--json] [--simulate]
//!       [--sizes k=v,...] [--seed N]
//!   cargo run -p pphw-bench --bin parse -- --emit <bench>
//!
//! `<file.ppl>` may be `-` to read the program from stdin (diagnostics
//! then cite `<stdin>`), so the tool composes in pipelines:
//! `parse --emit gemm | parse - --json`.
//!
//! `--emit` prints a named benchmark's program: the bytes of its
//! `examples/*.ppl` file. Otherwise the file is
//! parsed; parse diagnostics render as `file:line:col` caret snippets (or
//! a JSON array with `span` objects under `--json`) and exit 1. A program
//! that parses is linted with the static verifier — spans attached from
//! the parse's source map — and error diagnostics also exit 1. With
//! `--simulate`, seeded random inputs are generated from the declared
//! input types (`--sizes` binds size variables; unbound ones default to 8)
//! and the program runs on the reference interpreter.

use pphw_frontend::parse_program;
use pphw_ir::interp::{Interpreter, ScalarVal, Value};
use pphw_ir::json;
use pphw_ir::types::{DType, ScalarType, Type};
use pphw_verify::{verify_program, VerifyConfig};

/// Parsed command line.
struct Args {
    file: Option<String>,
    emit: Option<String>,
    json: bool,
    simulate: bool,
    sizes: Vec<(String, i64)>,
    seed: u64,
    inner_par: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: parse <file.ppl> [--json] [--simulate] [--sizes k=v,...] [--seed N] [--inner-par N]\n       parse --emit <bench>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        file: None,
        emit: None,
        json: false,
        simulate: false,
        sizes: Vec::new(),
        seed: 0xC0FFEE,
        inner_par: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--simulate" => args.simulate = true,
            "--emit" => match it.next() {
                Some(name) => args.emit = Some(name),
                None => usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => args.seed = v,
                None => usage(),
            },
            "--inner-par" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => args.inner_par = v,
                None => usage(),
            },
            "--sizes" => {
                let Some(spec) = it.next() else { usage() };
                for pair in spec.split(',').filter(|p| !p.is_empty()) {
                    let Some((k, v)) = pair.split_once('=') else {
                        usage()
                    };
                    let Ok(v) = v.parse::<i64>() else { usage() };
                    args.sizes.push((k.to_string(), v));
                }
            }
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ if args.file.is_none() => args.file = Some(a),
            _ => usage(),
        }
    }
    args
}

/// A seeded random input value matching a declared input type. Returns an
/// error for types the generator cannot fabricate (dicts, dynamic
/// vectors).
fn random_input(
    ty: &Type,
    env: &pphw_ir::size::SizeEnv,
    rng: &mut pphw_testkit::rng::Rng,
) -> Result<Value, String> {
    let scalar_dtype = |s: &ScalarType| match s {
        ScalarType::Prim(d) => Ok(*d),
        ScalarType::Tuple(_) => Err("tuple-typed inputs are not supported".to_string()),
    };
    match ty {
        Type::Scalar(s) => match scalar_dtype(s)? {
            DType::F32 => Ok(Value::scalar_f32(rng.next_f32() * 2.0 - 1.0)),
            DType::I32 => Ok(Value::Scalar(ScalarVal::I(rng.gen_range(0i64..8)))),
            DType::Bool => Ok(Value::Scalar(ScalarVal::B(rng.gen_bool(0.5)))),
        },
        Type::Tensor { elem, shape } => {
            let dims: Vec<usize> = shape
                .iter()
                .map(|s| {
                    s.eval(env)
                        .map(|v| v as usize)
                        .map_err(|e| format!("cannot size input: {e}"))
                })
                .collect::<Result<_, String>>()?;
            let n: usize = dims.iter().product();
            match scalar_dtype(elem)? {
                DType::F32 => Ok(Value::tensor_f32(&dims, rng.f32_vec(n, -1.0, 1.0))),
                DType::I32 => Ok(Value::tensor_i32(&dims, rng.i64_vec(n, 0, 8))),
                DType::Bool => Err("boolean tensor inputs are not supported".to_string()),
            }
        }
        Type::DynVec { .. } | Type::Dict { .. } => {
            Err(format!("cannot generate an input of type {ty:?}"))
        }
    }
}

/// One-line rendering of an output value.
fn value_summary(v: &Value) -> String {
    if let Value::Dict(d) = v {
        return format!("dict[{} key(s)]", d.len());
    }
    let flat = v.as_f32_slice();
    let head: Vec<String> = flat.iter().take(8).map(|x| format!("{x:.4}")).collect();
    let ellipsis = if flat.len() > 8 { ", …" } else { "" };
    let shape = match v {
        Value::Tensor(t) => format!("tensor{:?}", t.shape),
        Value::Scalar(_) => "scalar".to_string(),
        Value::DynVec(d) => format!("dynvec[{}]", d.len()),
        Value::Dict(_) => unreachable!(),
    };
    format!("{shape} [{}{ellipsis}]", head.join(", "))
}

fn main() {
    let args = parse_args();

    // --emit <bench>: print the benchmark's `.ppl` file.
    if let Some(name) = &args.emit {
        let spec = pphw_apps::benchmark(name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        print!("{}", spec.source.text);
        return;
    }

    let Some(file) = &args.file else { usage() };
    // `-` reads the program from stdin; diagnostics cite `<stdin>`.
    let (file, src) = if file == "-" {
        let mut src = String::new();
        if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut src) {
            eprintln!("parse: cannot read stdin: {e}");
            std::process::exit(2);
        }
        ("<stdin>", src)
    } else {
        match std::fs::read_to_string(file) {
            Ok(s) => (file.as_str(), s),
            Err(e) => {
                eprintln!("parse: cannot read {file}: {e}");
                std::process::exit(2);
            }
        }
    };

    // Parse. Errors render with carets (text) or spans (JSON) and exit 1.
    let out = match parse_program(&src, file) {
        Ok(out) => out,
        Err(errs) => {
            if args.json {
                let located = errs.iter().map(|e| e.locate(&src, file));
                println!(
                    "{}",
                    json::object(|o| {
                        o.field("file", file)
                            .field("error_count", errs.len())
                            .list("parse_errors", located);
                    })
                );
            } else {
                for e in &errs {
                    eprintln!("{}", e.render(&src, file));
                }
                eprintln!("parse: {} error(s) in {file}", errs.len());
            }
            std::process::exit(1);
        }
    };

    // Verify, with spans attached from the parse's source map.
    let cfg = VerifyConfig {
        inner_par: args.inner_par,
        ..VerifyConfig::default()
    };
    let mut report = verify_program(&out.program, &cfg);
    report.attach_spans(&out.source_map, &src);
    let errors = report.error_count();
    if args.json {
        println!(
            "{}",
            json::object(|o| {
                o.field("file", file)
                    .field("error_count", errors)
                    .field("report", &report);
            })
        );
    } else {
        println!(
            "{file}: parsed `{}` ({} statement(s), {} output(s))",
            out.program.name,
            out.program.body.stmts.len(),
            out.program.outputs().len()
        );
        let text = report.to_text();
        if !text.is_empty() {
            println!("{text}");
        }
        if report.is_clean() {
            println!("verify: clean");
        } else {
            println!("verify: {errors} error(s)");
        }
    }
    if errors > 0 {
        std::process::exit(1);
    }

    // --simulate: seeded random inputs, reference interpreter.
    if args.simulate {
        let mut env = pphw_ir::size::SizeEnv::new();
        for (k, v) in &args.sizes {
            env.insert(k.clone(), *v);
        }
        for sv in &out.program.size_vars {
            env.entry(sv.clone()).or_insert(8);
        }
        let mut rng = pphw_testkit::rng::Rng::seed_from_u64(args.seed);
        let mut inputs = Vec::new();
        for &sym in &out.program.inputs {
            let ty = out.program.ty(sym).clone();
            match random_input(&ty, &env, &mut rng) {
                Ok(v) => inputs.push(v),
                Err(e) => {
                    eprintln!("simulate: input `{}`: {e}", out.program.syms.name(sym));
                    std::process::exit(2);
                }
            }
        }
        let interp = Interpreter::with_env(&out.program, env);
        match interp.run(inputs) {
            Ok(outputs) => {
                let names = out.program.outputs();
                for (sym, v) in names.iter().zip(&outputs) {
                    println!(
                        "simulate: {} = {}",
                        out.program.syms.name(*sym),
                        value_summary(v)
                    );
                }
            }
            Err(e) => {
                eprintln!("simulate: evaluation failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
