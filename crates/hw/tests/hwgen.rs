//! Hardware generation integration tests: tiled programs become
//! metapipelined template designs (Figure 6 structure) and untiled
//! programs become the HLS-style baseline.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pphw_hw::design::{BufferKind, CtrlKind, DesignStyle, Node, UnitKind};
use pphw_hw::{design_area, generate, HwConfig};
use pphw_ir::size::Size;
use pphw_ir::Program;
use pphw_transform::{tile_program, TileConfig};

fn parse(src: &str) -> Program {
    pphw_frontend::parse_program(src, "test.ppl")
        .expect("parses")
        .program
}

fn gemm_program() -> Program {
    parse(
        "program gemm(m, n, p) {
           input x: Float[m, p]
           input y: Float[p, n]
           let prod = map(m, n) { (i, j) =>
             let dot = fold(p) {
               acc dot: Float = splat(0.0)
               (k) (acc) => yield acc + x(i, k) * y(k, j)
               combine (a, b) { yield a + b }
             }
             yield dot
           }
           return (prod)
         }",
    )
}

fn sizes() -> Vec<(&'static str, i64)> {
    vec![("m", 64), ("n", 64), ("p", 64)]
}

fn env() -> pphw_ir::SizeEnv {
    Size::env(&sizes())
}

#[test]
fn tiled_gemm_generates_metapipeline() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();

    let mut meta = 0;
    design.root.visit_ctrls(&mut |c| {
        if c.kind == CtrlKind::Metapipeline {
            meta += 1;
        }
    });
    assert!(meta >= 1, "no metapipeline:\n{}", design.to_diagram());

    let mut loads = 0;
    let mut trees = 0;
    design.root.visit_units(&mut |u| match u.kind {
        UnitKind::TileLoad { .. } => loads += 1,
        UnitKind::ReduceTree { .. } => trees += 1,
        _ => {}
    });
    assert!(
        loads >= 2,
        "expected x and y tile loads:\n{}",
        design.to_diagram()
    );
    assert!(
        trees >= 1,
        "expected dot-product reduce tree:\n{}",
        design.to_diagram()
    );
}

#[test]
fn tiled_gemm_promotes_double_buffers() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let doubles = design
        .buffers
        .iter()
        .filter(|b| b.kind == BufferKind::DoubleBuffer)
        .count();
    assert!(
        doubles >= 1,
        "tile buffers feeding compute stages must be double buffered:\n{}",
        design.to_diagram()
    );
}

#[test]
fn sequential_mode_serializes_memory_stages() {
    // Without metapipelining, every controller containing tile-memory
    // stages composes them sequentially; pure compute loops still pipeline
    // (the paper's baseline already exploits pipelining within patterns).
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env(),
        &HwConfig::default().with_metapipeline(false),
        DesignStyle::Tiled,
    )
    .unwrap();
    fn check(node: &Node, diagram: &str) {
        if let Node::Ctrl(c) = node {
            let has_mem = c.stages.iter().any(|s| {
                let mut found = false;
                s.visit_units(&mut |u| {
                    if !u.streams.is_empty() {
                        found = true;
                    }
                });
                found
            });
            if has_mem {
                assert_ne!(c.kind, CtrlKind::Metapipeline, "{diagram}");
            }
            for s in &c.stages {
                check(s, diagram);
            }
        }
    }
    check(&design.root, &design.to_diagram());
}

#[test]
fn baseline_gemm_streams_from_dram() {
    let prog = gemm_program();
    let design = generate(&prog, &env(), &HwConfig::baseline(), DesignStyle::Baseline).unwrap();
    // Total read traffic = per-invocation stream words times enclosing
    // controller iterations.
    fn walk(n: &Node, mult: u64, total: &mut u64) {
        match n {
            Node::Ctrl(c) => {
                for s in &c.stages {
                    walk(s, mult * c.iters, total);
                }
            }
            Node::Unit(u) => {
                *total += mult
                    * u.streams
                        .iter()
                        .filter(|s| !s.write)
                        .map(|s| s.words)
                        .sum::<u64>();
            }
        }
    }
    let mut dram_words = 0u64;
    walk(&design.root, 1, &mut dram_words);
    // The baseline vectorizes the output's innermost dimension across
    // inner_par (64) lanes: m*n/64 invocations, each re-streaming the
    // shared x row (p words) and gathering a 64-wide y slice per k
    // (p * 64 words): (m*n/64) * (p + p*64) in total.
    let (m, n, p) = (64u64, 64, 64);
    let lanes = 64u64;
    let expected = (m * n / lanes) * (p + p * lanes);
    assert_eq!(dram_words, expected, "{}", design.to_diagram());
}

#[test]
fn tiled_gemm_moves_less_dram_data_than_baseline() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let t = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let b = generate(&prog, &env(), &HwConfig::baseline(), DesignStyle::Baseline).unwrap();
    let words = |d: &pphw_hw::Design| {
        let mut total = 0u64;
        let mut per_iter = Vec::new();
        d.root
            .visit_units(&mut |u| per_iter.push(u.streams.iter().map(|s| s.words).sum::<u64>()));
        // Scale by controller iterations: walk with multipliers.
        fn walk(n: &Node, mult: u64, total: &mut u64) {
            match n {
                Node::Ctrl(c) => {
                    for s in &c.stages {
                        walk(s, mult * c.iters, total);
                    }
                }
                Node::Unit(u) => {
                    *total += mult * u.streams.iter().map(|s| s.words).sum::<u64>();
                }
            }
        }
        walk(&d.root, 1, &mut total);
        total
    };
    let tw = words(&t);
    let bw = words(&b);
    assert!(
        tw * 2 < bw,
        "tiled design should move far less data: tiled={tw} baseline={bw}\n{}",
        t.to_diagram()
    );
}

#[test]
fn area_grows_from_baseline_to_metapipelined_mem() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let base = generate(&prog, &env(), &HwConfig::baseline(), DesignStyle::Baseline).unwrap();
    let seq = generate(
        &tiled,
        &env(),
        &HwConfig::default().with_metapipeline(false),
        DesignStyle::Tiled,
    )
    .unwrap();
    let meta = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let (ab, at, am) = (design_area(&base), design_area(&seq), design_area(&meta));
    assert!(at.mem > 0.0 && am.mem > 0.0 && ab.mem >= 0.0);
    // Metapipelining costs extra memory (double buffers) over plain tiling.
    assert!(
        am.mem >= at.mem,
        "metapipelined mem {} < tiled mem {}",
        am.mem,
        at.mem
    );
}

#[test]
fn kmeans_style_design_preloads_centroids() {
    // k-means with k,d untiled and small: centroids are preloaded whole
    // (Figure 6, Pipe 0).
    let prog = parse(
        "program kmeans_assign(n, k, d) {
           input points: Float[n, d]
           input centroids: Float[k, d]
           let counts = multiFold(n) {
             acc counts: Float[k] = splat(0.0)
             (i) =>
             pre {
               let best = fold(k) {
                 acc best: (Float, Int) = splat(3.4028235e38, -1)
                 (j) (acc) =>
                   let dist = fold(d) {
                     acc dist: Float = splat(0.0)
                     (p) (acc2) => yield acc2 + square(points(i, p) - centroids(j, p))
                     combine (a, b) { yield a + b }
                   }
                   yield if (acc._1 < dist) acc else (dist, j)
                 combine (a, b) { yield if (a._1 < b._1) a else b }
               }
               let minIdx = best._2
             }
             update counts @ (minIdx) [] (acc) { yield acc + 1.0 }
             combine counts (a, b) { yield a + b }
           }
           return (counts)
         }",
    );
    let sz = [("n", 256), ("k", 8), ("d", 16)];
    // Tile only n: k and d stay on chip.
    let cfg = TileConfig::new(&[("n", 32)], &sz);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &Size::env(&sz),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let diagram = design.to_diagram();
    // The centroids tensor is preloaded whole into a buffer by a top-level
    // tile load before the main metapipeline.
    assert!(
        design.buffers.iter().any(|b| b.name.contains("centroids")),
        "no centroid buffer:\n{diagram}"
    );
    assert!(
        diagram.contains("load_centroids"),
        "no centroid preload stage:\n{diagram}"
    );
}

#[test]
fn maxj_emission_contains_templates() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let maxj = pphw_hw::hgl::emit_maxj(&design);
    assert!(maxj.contains("class GemmKernel"), "{maxj}");
    assert!(maxj.contains("io.tileLoad"), "{maxj}");
    assert!(maxj.contains("control.metapipeline"), "{maxj}");
}

/// `table(idx(i))` over `n` indices into an `m`-entry table.
fn gather_program(name: &str) -> Program {
    parse(&format!(
        "program {name}(n, m) {{
           input idx: Int[n]
           input table: Float[m]
           let y = map(n) {{ (i) => yield table(idx(i)) }}
           return (y)
         }}"
    ))
}

/// Data-dependent gathers get caches (Table 4's cache row): a permutation
/// read `table(idx(i))` cannot be tiled and must be served by a tagged
/// cache in front of DRAM.
#[test]
fn non_affine_access_infers_cache() {
    let prog = gather_program("gather");
    let env = Size::env(&[("n", 1024), ("m", 4096)]);
    let design = generate(&prog, &env, &HwConfig::baseline(), DesignStyle::Baseline).unwrap();
    assert!(
        design
            .buffers
            .iter()
            .any(|buf| buf.kind == BufferKind::Cache && buf.name.contains("table")),
        "no cache inferred for the gathered table:\n{}",
        design.to_diagram()
    );
}

/// The affine index stream feeding the gather is NOT cached (it tiles
/// normally in the optimized design).
#[test]
fn affine_stream_is_not_cached() {
    let prog = gather_program("gather2");
    let env = Size::env(&[("n", 1024), ("m", 4096)]);
    let design = generate(&prog, &env, &HwConfig::baseline(), DesignStyle::Baseline).unwrap();
    assert!(
        !design
            .buffers
            .iter()
            .any(|buf| buf.kind == BufferKind::Cache && buf.name.contains("idx")),
        "the affine idx stream must not get a cache:\n{}",
        design.to_diagram()
    );
}

/// GroupByFold designs contain a CAM (Table 4's CAM row).
#[test]
fn group_by_fold_infers_cam() {
    let prog = parse(
        "program hist(n) {
           input x: Int[n]
           let hist = groupByFold(n) {
             acc hist: Int = splat(0)
             (i) =>
             key = x(i) / 10
             update @ () [] (acc) { yield acc + 1 }
             combine (a, b) { yield a + b }
           }
           return (hist)
         }",
    );
    let env = Size::env(&[("n", 1024)]);
    let cfg = TileConfig::new(&[("n", 128)], &[("n", 1024)]);
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env,
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    assert!(
        design.buffers.iter().any(|buf| buf.kind == BufferKind::Cam),
        "no CAM in the histogram design:\n{}",
        design.to_diagram()
    );
}

/// Adjacent independent tile loads are grouped under a Parallel controller.
#[test]
fn independent_loads_start_in_parallel() {
    let prog = gemm_program();
    let cfg = TileConfig::new(&[("m", 16), ("n", 16), ("p", 16)], &sizes());
    let tiled = tile_program(&prog, &cfg).unwrap();
    let design = generate(
        &tiled,
        &env(),
        &HwConfig::default(),
        DesignStyle::Metapipelined,
    )
    .unwrap();
    let mut par = 0;
    design.root.visit_ctrls(&mut |c| {
        if c.kind == CtrlKind::Parallel {
            par += 1;
        }
    });
    assert!(
        par >= 1,
        "x and y tile loads should be grouped in a Parallel controller:\n{}",
        design.to_diagram()
    );
}
