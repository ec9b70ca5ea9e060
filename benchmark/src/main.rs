//! Command line of the benchmark.
//!
//! ```text
//! pphw-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! pphw-benchmark all [--seed N] [--seconds S] [--trace [0|1]]
//! pphw-benchmark describe
//! pphw-benchmark compare <first set> <second set>
//! ```

use std::process::ExitCode;

use pphw_benchmark::harness::Params;
use pphw_benchmark::{compare, spec, workloads};

fn usage() -> ExitCode {
    eprintln!(
        "usage: pphw-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]]\n       \
         pphw-benchmark all [--seed N] [--seconds S] [--trace [0|1]]\n       \
         pphw-benchmark describe\n       \
         pphw-benchmark compare <first set> <second set>\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// Output of a command, or "unknown" when it cannot run here.
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else {
        return usage();
    };
    if mode == "describe" {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    if mode == "compare" {
        let (Some(a), Some(b)) = (args.next(), args.next()) else {
            return usage();
        };
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        return match read(&a)
            .and_then(|a| Ok((a, read(&b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
        {
            Ok((table, agree)) => {
                print!("{table}");
                println!(
                    "{}",
                    if agree {
                        "A/A: the two sets agree"
                    } else {
                        "A/A: the two sets DISAGREE"
                    }
                );
                if agree {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, 1u64, spec::BASE_SECONDS as f64, false);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(),
            },
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => return usage(),
        }
    }
    let names: Vec<String> = match (mode.as_str(), workload) {
        ("run", Some(name)) => vec![name],
        ("all", None) => spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect(),
        _ => return usage(),
    };
    if names.iter().any(|n| spec::workload(n).is_none()) {
        return usage();
    }

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "pphw-benchmark: commit {}, nproc {nproc}, {}, seed {seed}{}, --seconds {seconds}",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["-V"]),
        if seed == spec::HELD_OUT_SEED {
            " (the held-out seed)"
        } else {
            ""
        },
    );
    println!(
        "fig7_logerr compares simulated speedups with the paper's Figure 7, not with hardware."
    );
    let params = Params::new(seed, seconds, trace);
    let mut all_correct = true;
    for name in names {
        let result = workloads::run(&name, &params).expect("the name was checked above");
        print!("{}", result.to_text());
        // Last line of a run: the object the driver reads.
        println!("{}", result.result_line());
        all_correct &= result.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
