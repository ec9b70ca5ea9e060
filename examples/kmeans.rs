//! The paper's running example end to end: k-means clustering (Figures 3,
//! 4, 5 and 6).
//!
//! Shows the fused PPL program, the strip-mined and interchanged forms,
//! the Figure 5c memory-traffic table, the generated hardware (Figure 6),
//! and the three-level performance comparison — all on one workload.
//!
//! Run with: `cargo run --release --example kmeans [--hw]`

use pphw::{compile, evaluate, CompileOptions, OptLevel};
use pphw_apps::kmeans::{kmeans_golden, kmeans_inputs, kmeans_program};
use pphw_ir::pretty::emit_program;
use pphw_ir::size::Size;
use pphw_sim::SimConfig;
use pphw_transform::cost::analyze_cost;
use pphw_transform::{tile_program, tile_program_no_interchange, TileConfig};

fn main() {
    let hw_only = std::env::args().any(|a| a == "--hw");
    let prog = kmeans_program();
    let sizes = [("n", 16384), ("k", 16), ("d", 32)];
    let tiles = [("n", 512), ("k", 8)];
    let env = Size::env(&sizes);
    let cfg = TileConfig::new(&tiles, &sizes);

    if !hw_only {
        println!("=== Figure 4: fused k-means in PPL ===");
        println!("{}", emit_program(&prog));

        let strip = tile_program_no_interchange(&prog, &cfg).expect("strip mines");
        println!("=== Figure 5a: strip mined ===\n{}", emit_program(&strip));

        let inter = tile_program(&prog, &cfg).expect("tiles");
        println!(
            "=== Figure 5b: split + interchanged ===\n{}",
            emit_program(&inter)
        );

        println!("=== Figure 5c: memory traffic and on-chip storage ===");
        println!("fused:\n{}", analyze_cost(&prog).to_table(&env));
        println!("strip mined:\n{}", analyze_cost(&strip).to_table(&env));
        println!("interchanged:\n{}", analyze_cost(&inter).to_table(&env));
    }

    // Figure 6: the generated hardware.
    let opts = CompileOptions::new(&sizes).tiles(&tiles);
    let compiled = compile(&prog, &opts.clone().opt(OptLevel::Metapipelined)).expect("compiles");
    println!(
        "=== Figure 6: k-means hardware ===\n{}",
        compiled.design.to_diagram()
    );

    // Functional check against the plain-Rust implementation.
    let inputs = kmeans_inputs(&env, 7);
    let got = compiled.execute(inputs.clone()).expect("executes");
    let want = kmeans_golden(&inputs, &env);
    assert!(
        got[0].approx_eq(&want[0], 1e-3),
        "compiled k-means diverged from reference"
    );
    println!("functional check vs plain-Rust reference: OK");

    // Figure 7 (k-means column): the three-level comparison.
    let eval = evaluate(&prog, &opts, &SimConfig::default()).expect("evaluates");
    println!("\n=== Figure 7 (kmeans) ===\n{}", eval.to_table());
}
