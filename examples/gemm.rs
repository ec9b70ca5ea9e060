//! Matrix multiplication with a tile-size sweep: how tile choice trades
//! on-chip memory for DRAM traffic and cycles (the design-space knob the
//! paper leaves to the user, §4 Discussion).
//!
//! Run with: `cargo run --release --example gemm`

use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::simple::{gemm_golden, gemm_inputs, gemm_program};
use pphw_ir::size::Size;
use pphw_sim::SimConfig;

fn main() {
    let prog = gemm_program();
    let sizes = [("m", 256), ("n", 256), ("p", 256)];
    let env = Size::env(&sizes);
    let sim = SimConfig::default();

    println!("gemm 256x256x256 — tile size sweep (metapipelined)\n");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>12}",
        "tile", "cycles", "DRAM words", "on-chip bytes", "vs 16-tile"
    );
    let mut first = 0u64;
    for b in [16i64, 32, 64, 128] {
        let opts = CompileOptions::new(&sizes)
            .tiles(&[("m", b), ("n", b), ("p", b)])
            .opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).expect("compiles");
        let report = compiled.simulate(&sim).expect("simulates");
        if first == 0 {
            first = report.cycles;
        }
        println!(
            "{:<10} {:>12} {:>14} {:>16} {:>11.2}x",
            format!("{b}x{b}x{b}"),
            report.cycles,
            report.dram_words,
            compiled.design.on_chip_bytes(),
            first as f64 / report.cycles as f64
        );
    }

    // Functional check at one configuration.
    let opts = CompileOptions::new(&sizes)
        .tiles(&[("m", 64), ("n", 64), ("p", 64)])
        .opt(OptLevel::Metapipelined);
    let compiled = compile(&prog, &opts).expect("compiles");
    let inputs = gemm_inputs(&env, 3);
    let got = compiled.execute(inputs.clone()).expect("executes");
    let want = gemm_golden(&inputs, &env);
    assert!(got[0].approx_eq(&want[0], 1e-3), "gemm result mismatch");
    println!("\nfunctional check vs plain-Rust reference: OK");

    // Show the interchanged IR (Table 3).
    println!(
        "\n=== tiled + interchanged IR (Table 3) ===\n{}",
        pphw_ir::pretty::emit_program(&compiled.program)
    );
}
