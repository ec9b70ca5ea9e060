//! Regenerates Figure 7: speedups and relative resource usage of the
//! tiled and metapipelined designs over the HLS-style baseline, for all
//! six benchmarks of Table 5.
//!
//! Usage: `cargo run --release -p pphw-bench --bin figure7 [--detail]`
//!
//! Any other argument prints `figure7: unknown flag …` and exits 2.

use pphw_bench::{figure7, format_fig7, format_fig7_area};
use pphw_sim::SimConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| *a != "--detail") {
        eprintln!("figure7: unknown flag {bad} (the only one is --detail)");
        std::process::exit(2);
    }
    let detail = !args.is_empty();
    let sim = SimConfig::default();
    let rows = figure7(&sim);
    println!("{}", format_fig7(&rows));
    println!("{}", format_fig7_area(&rows));
    if detail {
        for r in &rows {
            println!("{}", r.eval.to_table());
        }
    }
}
