//! Regenerates the paper's non-headline tables and figures:
//!
//! * `--table1`  strip-mining rules demonstrated on each pattern kind
//! * `--table2`  strip-mining examples (map, sumrows, filter, histogram)
//! * `--table3`  interchange on matrix multiplication
//! * `--table4`  hardware template inventory with per-benchmark counts
//! * `--table5`  benchmark suite
//! * `--fig5`    k-means strip-mined vs interchanged IR
//! * `--fig5c`   k-means memory traffic / on-chip storage table
//! * `--fig6`    k-means hardware block diagram (textual)
//! * `--ablation` the design choices DESIGN.md calls out, one table each:
//!   metapipelining on/off, gemm tile size, k-means interchange on/off,
//!   accumulator elision on/off, gda outer-product parallelism
//!
//! With no arguments, prints everything. Any other argument prints
//! `tables: unknown flag …` and exits 2.

use pphw::{compile, CompileOptions, OptLevel};
use pphw_ir::pretty::print_program;
use pphw_ir::size::Size;
use pphw_sim::SimConfig;
use pphw_transform::cost::analyze_cost;
use pphw_transform::{strip_mine_program, tile_program, tile_program_no_interchange, TileConfig};

/// The sections, in print order, under the flag that selects each.
const SECTIONS: [(&str, fn()); 9] = [
    ("--table1", table1),
    ("--table2", table2),
    ("--table3", table3),
    ("--table4", table4),
    ("--table5", table5),
    ("--fig5", fig5),
    ("--fig5c", fig5c),
    ("--fig6", fig6),
    ("--ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = SECTIONS.map(|(flag, _)| flag);
    if let Some(bad) = args.iter().find(|a| !flags.contains(&a.as_str())) {
        eprintln!("tables: unknown flag {bad} (one of {})", flags.join(" "));
        std::process::exit(2);
    }
    for (flag, print) in SECTIONS {
        if args.is_empty() || args.iter().any(|a| a == flag) {
            print();
        }
    }
}

fn ablation() {
    ablation_metapipeline();
    ablation_tile_size();
    ablation_interchange();
    ablation_elision();
    ablation_gda_parallelism();
}

fn header(title: &str) {
    println!("\n======================================================");
    println!("{title}");
    println!("======================================================");
}

/// Table 1: the strip-mining rule firing on each pattern kind.
fn table1() {
    header("Table 1 — strip mining rules (before => after)");

    // Map
    let prog = pphw_apps::simple::outerprod_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16)], &[("m", 64), ("n", 64)]);
    println!(
        "\n--- T[ Map(d)(m) ] => MultiFold(d/b)(d)(zeros){{ ii => (ii*b, acc => Map(b)) }}(_)"
    );
    println!("before:\n{}", print_program(&prog));
    println!(
        "after:\n{}",
        print_program(&strip_mine_program(&prog, &cfg).unwrap())
    );

    // MultiFold (fold special case)
    let prog = pphw_apps::tpchq6::tpchq6_program();
    let cfg = TileConfig::new(&[("n", 64)], &[("n", 1024)]);
    println!(
        "\n--- T[ MultiFold(d)(r)(z)(f)(c) ] => MultiFold(d/b){{ acc => c(acc, MultiFold(b)) }}(c)"
    );
    println!(
        "after:\n{}",
        print_program(&strip_mine_program(&prog, &cfg).unwrap())
    );

    // FlatMap
    let prog = pphw_apps::tpchq6::tpchq6_filter_program();
    let cfg = TileConfig::new(&[("n", 64)], &[("n", 1024)]);
    println!("\n--- T[ FlatMap(d)(f) ] => FlatMap(d/b){{ FlatMap(b) }}");
    println!(
        "after:\n{}",
        print_program(&strip_mine_program(&prog, &cfg).unwrap())
    );

    // GroupByFold
    let prog = pphw_apps::simple::histogram_program();
    let cfg = TileConfig::new(&[("n", 64)], &[("n", 1024)]);
    println!("\n--- T[ GroupByFold(d)(z)(h)(c) ] => GroupByFold(d/b){{ merge GroupByFold(b) }}(c)");
    println!(
        "after:\n{}",
        print_program(&strip_mine_program(&prog, &cfg).unwrap())
    );
}

/// Table 2: the four worked strip-mining examples.
fn table2() {
    header("Table 2 — strip mining examples (with tile copies)");
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, pphw_ir::Program, Vec<(&str, i64)>, Vec<(&str, i64)>)> = vec![
        (
            "element-wise map",
            pphw_apps::simple::doubling_program(),
            vec![("d", 64)],
            vec![("d", 1024)],
        ),
        (
            "sums along matrix rows",
            pphw_apps::simple::sumrows_fused_program(),
            vec![("m", 16), ("n", 32)],
            vec![("m", 64), ("n", 128)],
        ),
        (
            "simple filter",
            pphw_apps::tpchq6::tpchq6_filter_program(),
            vec![("n", 64)],
            vec![("n", 1024)],
        ),
        (
            "histogram calculation",
            pphw_apps::simple::histogram_program(),
            vec![("n", 64)],
            vec![("n", 1024)],
        ),
    ];
    for (name, prog, tiles, sizes) in cases {
        let cfg = TileConfig::new(&tiles, &sizes);
        let tiled = tile_program_no_interchange(&prog, &cfg).unwrap();
        println!("\n--- {name}\n{}", print_program(&tiled));
    }
}

/// Table 3: interchange on matrix multiplication.
fn table3() {
    header("Table 3 — pattern interchange on matrix multiplication");
    let prog = pphw_apps::simple::gemm_program();
    let sizes = [("m", 64), ("n", 64), ("p", 64)];
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes);
    let strip = tile_program_no_interchange(&prog, &cfg).unwrap();
    let inter = tile_program(&prog, &cfg).unwrap();
    println!("\n--- strip mined\n{}", print_program(&strip));
    println!("\n--- interchanged\n{}", print_program(&inter));
}

/// Table 4: template inventory, plus instance counts per benchmark design.
fn table4() {
    header("Table 4 — hardware templates");
    println!(
        "{:<16} {:<28} {:<48} IR construct",
        "template", "category", "description"
    );
    for row in pphw_hw::design::table4() {
        println!(
            "{:<16} {:<28} {:<48} {}",
            row.template, row.category, row.description, row.ir_construct
        );
    }
    println!("\nTemplate instances per metapipelined benchmark design:");
    for spec in pphw_apps::all_benchmarks() {
        let prog = (spec.program)();
        let opts = CompileOptions::new(&(spec.sizes)())
            .tiles(&(spec.tiles)())
            .opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).expect("compiles");
        let counts: Vec<String> = compiled
            .design
            .template_counts()
            .into_iter()
            .map(|(k, v)| format!("{k} x{v}"))
            .collect();
        println!("  {:<10} {}", spec.name, counts.join(", "));
    }
}

/// Table 5: the benchmark suite.
fn table5() {
    header("Table 5 — evaluation benchmarks");
    println!("{:<12} {:<40} collections ops", "benchmark", "description");
    for spec in pphw_apps::all_benchmarks() {
        println!(
            "{:<12} {:<40} {}",
            spec.name, spec.description, spec.collections_ops
        );
    }
}

fn kmeans_cfg() -> (pphw_ir::Program, Vec<(&'static str, i64)>, TileConfig) {
    let prog = pphw_apps::kmeans::kmeans_program();
    let sizes = vec![("n", 1024), ("k", 32), ("d", 16)];
    let cfg = TileConfig::new(&[("n", 64), ("k", 8)], &sizes);
    (prog, sizes, cfg)
}

/// Figure 5a/5b: strip-mined vs interchanged k-means.
fn fig5() {
    header("Figure 5 — tiling k-means clustering");
    let (prog, _, cfg) = kmeans_cfg();
    let strip = tile_program_no_interchange(&prog, &cfg).unwrap();
    let inter = tile_program(&prog, &cfg).unwrap();
    println!("\n--- (a) strip mined\n{}", print_program(&strip));
    println!("\n--- (b) split + interchanged\n{}", print_program(&inter));
}

/// Figure 5c: DRAM reads and on-chip storage per structure per variant.
fn fig5c() {
    header("Figure 5c — k-means memory traffic per IR transformation");
    let (prog, sizes, cfg) = kmeans_cfg();
    let env = Size::env(&sizes);
    let fused = analyze_cost(&prog);
    let strip = analyze_cost(&tile_program_no_interchange(&prog, &cfg).unwrap());
    let inter = analyze_cost(&tile_program(&prog, &cfg).unwrap());
    println!("\n--- fused\n{}", fused.to_table(&env));
    println!("--- strip mined\n{}", strip.to_table(&env));
    println!("--- interchanged\n{}", inter.to_table(&env));
}

/// Figure 6: the k-means hardware block diagram plus MaxJ.
fn fig6() {
    header("Figure 6 — k-means hardware (textual block diagram)");
    let (prog, sizes, _) = kmeans_cfg();
    let opts = CompileOptions::new(&sizes)
        .tiles(&[("n", 64)])
        .opt(OptLevel::Metapipelined);
    let compiled = compile(&prog, &opts).expect("kmeans compiles");
    println!("{}", compiled.design.to_diagram());
    println!("--- emitted MaxJ ---\n{}", compiled.emit_hgl());
}

/// Ablation: the same tiled IR scheduled sequentially vs metapipelined.
fn ablation_metapipeline() {
    header("Ablation — metapipelining on/off (same tiled IR)");
    let sim = SimConfig::default();
    for spec in pphw_apps::all_benchmarks() {
        let prog = (spec.program)();
        let base = CompileOptions::new(&(spec.sizes)())
            .tiles(&(spec.tiles)())
            .inner_par(spec.inner_par);
        let cycles = |level| {
            let compiled = compile(&prog, &base.clone().opt(level)).expect("compiles");
            compiled.simulate(&sim).expect("simulates").cycles
        };
        let (cs, cm) = (cycles(OptLevel::Tiled), cycles(OptLevel::Metapipelined));
        println!(
            "  {:<10} sequential {cs:>12} cyc   metapipelined {cm:>12} cyc   gain {:>5.2}x",
            spec.name,
            cs as f64 / cm as f64
        );
    }
}

/// Ablation: gemm tile size, locality against buffer area.
fn ablation_tile_size() {
    header("Ablation — gemm tile size (cycles vs on-chip bytes)");
    let prog = pphw_apps::simple::gemm_program();
    let sizes = [("m", 256), ("n", 256), ("p", 256)];
    for b in [16i64, 32, 64, 128] {
        let opts = CompileOptions::new(&sizes)
            .tiles(&[("m", b), ("n", b), ("p", b)])
            .opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).expect("compiles");
        let report = compiled.simulate(&SimConfig::default()).expect("simulates");
        println!(
            "  tile {b:>4}: {:>12} cyc  {:>12} DRAM words  {:>10} on-chip bytes",
            report.cycles,
            report.dram_words,
            compiled.design.on_chip_bytes()
        );
    }
}

/// The k-means configuration the interchange and elision ablations share.
fn kmeans_ablation_cfg() -> (pphw_ir::Program, [(&'static str, i64); 3], TileConfig) {
    let sizes = [("n", 16384), ("k", 16), ("d", 32)];
    let cfg = TileConfig::new(&[("n", 512), ("k", 8)], &sizes);
    (pphw_apps::kmeans::kmeans_program(), sizes, cfg)
}

/// Ablation: k-means with and without interchange (the Figure 5a vs 5b
/// traffic).
fn ablation_interchange() {
    header("Ablation — k-means interchange on/off (Figure 5 traffic)");
    let (prog, sizes, cfg) = kmeans_ablation_cfg();
    let env = Size::env(&sizes);
    let reads = |tiled: &pphw_ir::Program| analyze_cost(tiled).total_reads(&env).expect("reads");
    let rs = reads(&tile_program_no_interchange(&prog, &cfg).expect("strip"));
    let ri = reads(&tile_program(&prog, &cfg).expect("tile"));
    println!(
        "  strip-mined DRAM reads {rs:>12}   interchanged {ri:>12}   reduction {:.1}x",
        rs as f64 / ri as f64
    );
    assert!(ri < rs, "interchange must reduce traffic");
}

/// Ablation: accumulator elision on the k-means tile merge. gemm's tiled
/// update is real compute (the interchanged map-of-fold), so elision
/// correctly never fires there; k-means' outer tile merge is a pure
/// elementwise merge and is the paper's motivating case.
fn ablation_elision() {
    header("Ablation — accumulator elision on/off (kmeans tile merge)");
    let (prog, sizes, cfg) = kmeans_ablation_cfg();
    let tiled = tile_program(&prog, &cfg).expect("tiles");
    let env = Size::env(&sizes);
    for elide in [true, false] {
        let hw = pphw_hw::HwConfig {
            elide_accumulators: elide,
            ..pphw_hw::HwConfig::default()
        };
        let design = pphw_hw::generate(&tiled, &env, &hw, pphw_hw::DesignStyle::Metapipelined)
            .expect("generates");
        let report = pphw_sim::simulate(&design, &SimConfig::default()).expect("simulates");
        println!(
            "  elide={elide:<5} {:>12} cyc  {:>8.0} mem blocks  {} buffers",
            report.cycles,
            pphw_hw::design_area(&design).mem,
            design.buffers.len()
        );
    }
}

/// Ablation: parallelism factor of gda's outer-product stage.
fn ablation_gda_parallelism() {
    header("Ablation — gda outer-product parallelism sweep");
    let prog = pphw_apps::gda::gda_program();
    for par in [64u32, 128, 256, 512] {
        let opts = CompileOptions::new(&[("n", 4096), ("d", 32)])
            .tiles(&[("n", 256)])
            .inner_par(128)
            .meta_inner_par(par)
            .opt(OptLevel::Metapipelined);
        let compiled = compile(&prog, &opts).expect("compiles");
        let report = compiled.simulate(&SimConfig::default()).expect("simulates");
        println!(
            "  par {par:>4}: {:>10} cyc  logic {:>9.0}",
            report.cycles,
            compiled.area().logic
        );
    }
}
