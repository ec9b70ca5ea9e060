//! Quickstart: parse a parallel-pattern program from its PPL text, tile
//! it, generate hardware, simulate it, and check the result — the
//! complete pipeline in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use pphw::{compile, CompileOptions, OptLevel};
use pphw_ir::interp::Value;
use pphw_sim::SimConfig;

/// A dot product, `sum(x .* y)`: a scalar fold over element-wise products.
const DOT: &str = "\
program dot(n) {
  input x: Float[n]
  input y: Float[n]
  let dot = multiFold(n) {
    acc dot: Float = splat(0.0)
    (i) =>
    update dot @ () [] (acc) {
      let upd = (acc + (x(i) * y(i)))
      yield upd
    }
    combine dot (a, b) {
      let comb = (a + b)
      yield comb
    }
  }
  return (dot)
}
";

fn main() {
    // 1. Parse a program written with parallel patterns.
    let prog = match pphw_frontend::parse_program(DOT, "dot.ppl") {
        Ok(out) => out.program,
        Err(errs) => panic!("{}", errs[0].render(DOT, "dot.ppl")),
    };
    println!(
        "=== PPL program ===\n{}",
        pphw_ir::pretty::print_program(&prog)
    );

    // 2. Compile at each optimization level for a 1M-element workload.
    let n_val = 1 << 20;
    let sim = SimConfig::default();
    let mut baseline_cycles = 0;
    for level in OptLevel::all() {
        let opts = CompileOptions::new(&[("n", n_val)])
            .tiles(&[("n", 8192)])
            .opt(level);
        let compiled = compile(&prog, &opts).expect("compiles");

        // 3. Simulate the generated design.
        let report = compiled.simulate(&sim).expect("simulates");
        if level == OptLevel::Baseline {
            baseline_cycles = report.cycles;
        }
        println!(
            "{level:<24} {:>12} cycles  ({:.2} ms, {:.2}x)",
            report.cycles,
            report.seconds * 1e3,
            baseline_cycles as f64 / report.cycles as f64
        );

        // 4. Check functional correctness on real data.
        let xs: Vec<f32> = (0..n_val).map(|i| ((i % 17) as f32) * 0.25).collect();
        let ys: Vec<f32> = (0..n_val).map(|i| ((i % 13) as f32) * 0.5).collect();
        let expect: f32 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let got = compiled
            .execute(vec![
                Value::tensor_f32(&[n_val as usize], xs),
                Value::tensor_f32(&[n_val as usize], ys),
            ])
            .expect("executes");
        let got = got[0].as_f32_slice()[0];
        let rel = ((got - expect) / expect).abs();
        assert!(rel < 1e-3, "result mismatch: {got} vs {expect}");
    }

    // 5. Look at what was generated for the best design.
    let opts = CompileOptions::new(&[("n", n_val)])
        .tiles(&[("n", 8192)])
        .opt(OptLevel::Metapipelined);
    let compiled = compile(&prog, &opts).expect("compiles");
    println!(
        "\n=== hardware design ===\n{}",
        compiled.design.to_diagram()
    );
    println!("=== emitted MaxJ ===\n{}", compiled.emit_hgl());
}
