//! Deterministic fault-injection sweep over the Table 5 benchmarks:
//! simulates every metapipelined design under increasing DRAM burst
//! failure rates (plus fixed latency jitter and a periodic bandwidth
//! degradation window) and reports cycles, slowdown, and retry counts.
//! Regenerates the "Fault injection" table of EXPERIMENTS.md.
//!
//! Usage:
//! `cargo run --release -p pphw-bench --bin faults [--seed N] [--rates R,R,..]`
//!
//! Every run is deterministic: the fault stream is a pure function of
//! the seed, so the table reproduces bit-for-bit. A zero-fault
//! configuration must — and is checked to — reproduce the fault-free
//! simulation exactly.
//!
//! A usage error (unknown flag, missing or malformed value) prints
//! `faults: <message>` and exits 2 before anything is simulated.

use pphw::{compile, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_sim::{FaultConfig, SimConfig};

/// `(seed, rates)` from the command line.
fn parse_args() -> Result<(u64, Vec<f64>), String> {
    let mut seed = 0xFA17u64;
    let mut rates = vec![0.01f64, 0.05, 0.10];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let text = val()?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, got `{text}`"))?;
            }
            "--rates" => {
                let text = val()?;
                rates = text
                    .split(',')
                    .map(|r| r.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--rates takes f64,f64,.., got `{text}`"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((seed, rates))
}

fn main() {
    let (seed, rates) = parse_args().unwrap_or_else(|e| {
        eprintln!("faults: {e}");
        std::process::exit(2);
    });

    let sim = SimConfig::default();
    let faults_at = |rate: f64| {
        FaultConfig::none()
            .with_seed(seed)
            .with_latency_jitter(16)
            .with_degradation(4096, 512, 1.5)
            .with_burst_fail_rate(rate)
            .with_retry(4, 16)
    };

    println!(
        "fault injection sweep (metapipelined designs, seed {seed:#x}, \
         jitter<=16 cyc, degrade 512/4096 cyc @1.5x)\n"
    );
    print!("{:<10} {:>14}", "benchmark", "clean cycles");
    for r in &rates {
        print!(
            " | {:>11} {:>8} {:>8}",
            format!("cyc@{r}"),
            "slowdown",
            "retries"
        );
    }
    println!();

    for spec in all_benchmarks() {
        let prog = (spec.program)();
        let opts = spec.options().opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).expect("benchmark compiles");
        let clean = compiled.simulate(&sim).expect("simulates");

        // A zero-fault config must take the identical code path.
        let zero = compiled
            .simulate_with_faults(&sim, &FaultConfig::none().with_seed(seed))
            .expect("simulates");
        assert_eq!(
            (zero.cycles, zero.dram_words, zero.dram_bytes),
            (clean.cycles, clean.dram_words, clean.dram_bytes),
            "{}: zero-fault run must be bit-identical",
            spec.name
        );

        print!("{:<10} {:>14}", spec.name, clean.cycles);
        for &rate in &rates {
            let faulted = compiled
                .simulate_with_faults(&sim, &faults_at(rate))
                .expect("simulates");
            let again = compiled
                .simulate_with_faults(&sim, &faults_at(rate))
                .expect("simulates");
            assert_eq!(
                faulted.cycles, again.cycles,
                "{}: fault injection must be deterministic",
                spec.name
            );
            assert!(
                faulted.cycles >= clean.cycles,
                "{}: faults cannot speed a design up",
                spec.name
            );
            print!(
                " | {:>11} {:>7.3}x {:>8}",
                faulted.cycles,
                faulted.cycles as f64 / clean.cycles as f64,
                faulted.faults.retries
            );
        }
        println!();
    }
    println!(
        "\nall zero-fault runs bit-identical to the fault-free simulator; all sweeps deterministic"
    );
}
