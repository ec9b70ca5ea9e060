//! Golden-equivalence suite for the DSE fast-lane optimisation.
//!
//! The allocation-free simulator core, the shared-compile `DesignCache`,
//! and the persistent `EvalCache` are all required to preserve reports
//! *bit for bit*. This suite pins that guarantee: every fingerprint below
//! was captured from the pre-optimisation implementation (commit
//! `bee8d96`, `BTreeMap`-keyed stage stats, per-call `SimConfig` clones,
//! no compile sharing), and the optimised pipeline must reproduce each of
//! them exactly — fault-free and seeded-fault simulation at all three
//! optimisation levels, and full `explore` sweeps, on all six benchmarks.
//! The simulation tables hash stage names, which come from the programs'
//! symbol names; they were re-pinned once, when the benchmarks moved from
//! builder code to `examples/*.ppl`, while [`GOLDEN_NAME_BLIND`] (pinned
//! before that move) and `GOLDEN_DSE` held every number in place.
//!
//! To regenerate after an *intentional* semantic change:
//! `PPHW_GOLDEN_PRINT=1 cargo test --test golden_equivalence -- --nocapture`
//! and paste the printed tables over the constants.

use std::sync::Arc;

use pphw::dse::explore_with_caches;
use pphw::{compile, CompileOptions, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_dse::cache::DesignCache;
use pphw_dse::{DseConfig, DseReport, EvalCache, SearchSpace};
use pphw_sim::{FaultConfig, SimConfig, SimReport};

/// Fault-free simulation fingerprints, one per (benchmark, opt level).
const GOLDEN_SIM: &[(&str, &str, u64)] = &[
    ("outerprod", "baseline", 0x26397d67e12f7629),
    ("outerprod", "tiled", 0x4762d0b1c8d466e2),
    ("outerprod", "meta", 0xa1c55783864cb40e),
    ("sumrows", "baseline", 0xa8a52803ae5602e4),
    ("sumrows", "tiled", 0xb8e3f5a03d016dff),
    ("sumrows", "meta", 0x56fcef4f5f9e0432),
    ("gemm", "baseline", 0x08dc46441dc96706),
    ("gemm", "tiled", 0x0019b623d3287bd9),
    ("gemm", "meta", 0x5beb2b58876a612a),
    ("tpchq6", "baseline", 0xa193db608c490046),
    ("tpchq6", "tiled", 0xaf49096f81695757),
    ("tpchq6", "meta", 0x5f4a6d6be9006149),
    ("gda", "baseline", 0xed518bf23971c921),
    ("gda", "tiled", 0x7084168585609cb9),
    ("gda", "meta", 0xfd3ea35040d023fb),
    ("kmeans", "baseline", 0xd630079ef8d90d2a),
    ("kmeans", "tiled", 0x95150fb0f4edbaf0),
    ("kmeans", "meta", 0x07fbe5335f49c4cd),
];

/// Seeded-fault simulation fingerprints (metapipelined level).
const GOLDEN_FAULT: &[(&str, u64)] = &[
    ("outerprod", 0x2597be0218f2bd5e),
    ("sumrows", 0xad477a510a421ea4),
    ("gemm", 0xc8aa4ec6363bcfe9),
    ("tpchq6", 0x05097c4d7e0656ff),
    ("gda", 0x5c0b594a5df79811),
    ("kmeans", 0x11c76f2ac0a0b5ca),
];

/// Fingerprints on the substrates the default-substrate tables above do
/// not reach: the other two named variants (dyadic bytes/cycle, where
/// the simulator may advance periodic loops in closed form) and one
/// non-dyadic substrate (250 MHz x 19.2 GB/s = 76.8 B/cycle in 64-byte
/// bursts of 5/6 cycle each, where it must step). Fault-free at every level plus the seeded-fault run of
/// the metapipelined design, captured from the all-stepping engine at
/// commit `cc25689`.
const GOLDEN_SUBSTRATE: &[(&str, &str, &str, u64)] = &[
    ("outerprod", "fast-clock", "baseline", 0x1171af29980f0a90),
    ("outerprod", "low-bw", "baseline", 0x8231b59172b80ce5),
    ("outerprod", "c250g19b64", "baseline", 0x8eb2b55496201a90),
    ("outerprod", "fast-clock", "tiled", 0x97223d7b8fa1db46),
    ("outerprod", "low-bw", "tiled", 0x17b1163920f2705a),
    ("outerprod", "c250g19b64", "tiled", 0xe5833f1bcda4a148),
    ("outerprod", "fast-clock", "meta", 0xf7b15ec73a04b0d6),
    ("outerprod", "fast-clock", "faulted", 0x7926394f49240a35),
    ("outerprod", "low-bw", "meta", 0x6ec59d59c722886e),
    ("outerprod", "low-bw", "faulted", 0x7ee0f51522650fd3),
    ("outerprod", "c250g19b64", "meta", 0x0bcaa244d5997528),
    ("outerprod", "c250g19b64", "faulted", 0x2822a14fc3ffe4a1),
    ("sumrows", "fast-clock", "baseline", 0x6d7870fa50d56f25),
    ("sumrows", "low-bw", "baseline", 0xfb3e385704fe6e54),
    ("sumrows", "c250g19b64", "baseline", 0xcedda07946784647),
    ("sumrows", "fast-clock", "tiled", 0xf7d042e733d98a7d),
    ("sumrows", "low-bw", "tiled", 0x08630e01c4e308d9),
    ("sumrows", "c250g19b64", "tiled", 0x8cd45e00219e0b23),
    ("sumrows", "fast-clock", "meta", 0xd6b8c73afc34c237),
    ("sumrows", "fast-clock", "faulted", 0x501fa11751c46df1),
    ("sumrows", "low-bw", "meta", 0x23fc840a5d2d8a8a),
    ("sumrows", "low-bw", "faulted", 0x81f6fd4854e0953b),
    ("sumrows", "c250g19b64", "meta", 0xc9685b3e728987cd),
    ("sumrows", "c250g19b64", "faulted", 0xf42aa6eaf9bc6cd3),
    ("gemm", "fast-clock", "baseline", 0x4e1a7707aed2362a),
    ("gemm", "low-bw", "baseline", 0x8a613d2cc5812f65),
    ("gemm", "c250g19b64", "baseline", 0x7b8b508f56d08975),
    ("gemm", "fast-clock", "tiled", 0xd0f433b2188f240c),
    ("gemm", "low-bw", "tiled", 0xd4e2e3bb76dc6eec),
    ("gemm", "c250g19b64", "tiled", 0x9acd81f3a59d1885),
    ("gemm", "fast-clock", "meta", 0xa586b89e8419c496),
    ("gemm", "fast-clock", "faulted", 0xba03d30e5aa3c0ff),
    ("gemm", "low-bw", "meta", 0xa0048e55347315d1),
    ("gemm", "low-bw", "faulted", 0x645719acf7841fae),
    ("gemm", "c250g19b64", "meta", 0x63bb86e8ffea61ae),
    ("gemm", "c250g19b64", "faulted", 0xc390cde04de439fa),
    ("tpchq6", "fast-clock", "baseline", 0xe76c34d4bc27b746),
    ("tpchq6", "low-bw", "baseline", 0xe520b23b8ef9f62d),
    ("tpchq6", "c250g19b64", "baseline", 0xe191357587223775),
    ("tpchq6", "fast-clock", "tiled", 0x332e7a5ad639e700),
    ("tpchq6", "low-bw", "tiled", 0x48a52701c835e811),
    ("tpchq6", "c250g19b64", "tiled", 0x9d77ff135022bbab),
    ("tpchq6", "fast-clock", "meta", 0xda78d6fe85053d23),
    ("tpchq6", "fast-clock", "faulted", 0x89e8eb1ce86b8bfb),
    ("tpchq6", "low-bw", "meta", 0x69c3a0b93f4e5dd7),
    ("tpchq6", "low-bw", "faulted", 0x926422fa8e32d565),
    ("tpchq6", "c250g19b64", "meta", 0xefff6afb70e9c761),
    ("tpchq6", "c250g19b64", "faulted", 0xc3a0c8806af0f204),
    ("gda", "fast-clock", "baseline", 0xc308c9441566185a),
    ("gda", "low-bw", "baseline", 0xed518bf23971c921),
    ("gda", "c250g19b64", "baseline", 0x20f3a1c40bde0d30),
    ("gda", "fast-clock", "tiled", 0xe8c7677537901cbf),
    ("gda", "low-bw", "tiled", 0xfefac0dc26b76aab),
    ("gda", "c250g19b64", "tiled", 0x5f328c893eec5783),
    ("gda", "fast-clock", "meta", 0x26e9619387090441),
    ("gda", "fast-clock", "faulted", 0x7bd1ef8911405b10),
    ("gda", "low-bw", "meta", 0xda6ae0bcbfb14755),
    ("gda", "low-bw", "faulted", 0x7b0da277da8f27b5),
    ("gda", "c250g19b64", "meta", 0xb065db1aabf025ba),
    ("gda", "c250g19b64", "faulted", 0xff9351f2dc548ca3),
    ("kmeans", "fast-clock", "baseline", 0x4d3725d22de7a082),
    ("kmeans", "low-bw", "baseline", 0xd630079ef8d90d2a),
    ("kmeans", "c250g19b64", "baseline", 0x54ff9c70af3c7f09),
    ("kmeans", "fast-clock", "tiled", 0x449e4b16782ff9d7),
    ("kmeans", "low-bw", "tiled", 0xb07e6c9fc06a0221),
    ("kmeans", "c250g19b64", "tiled", 0xe79f68ca42bf0d0b),
    ("kmeans", "fast-clock", "meta", 0xa643ff030f86207f),
    ("kmeans", "fast-clock", "faulted", 0x8ab3f897a6853e49),
    ("kmeans", "low-bw", "meta", 0x32f6ae34f347c73a),
    ("kmeans", "low-bw", "faulted", 0x3a48c211d08b8218),
    ("kmeans", "c250g19b64", "meta", 0x4302c70b363605b5),
    ("kmeans", "c250g19b64", "faulted", 0x1c4554eb9edfa91d),
];

/// `explore` fingerprints over a fixed two-substrate space.
const GOLDEN_DSE: &[(&str, u64)] = &[
    ("outerprod", 0x4d644f66c3c27159),
    ("sumrows", 0x24c1fa27ac47fa1d),
    ("gemm", 0x6f62d5ce49767ba1),
    ("tpchq6", 0x501fbdcb1bff4e42),
    ("gda", 0x0c9d889c77cb85e2),
    ("kmeans", 0x9eadad22b6b94264),
];

/// Name-blind fingerprints, one per (benchmark, opt level), each over the
/// eight reports of that design: the four substrates of
/// [`name_blind_substrates`], fault-free and under [`golden_faults`].
/// Every number of a report is in, but no name, and stage statistics
/// only as totals; the design's area and on-chip bytes are in too. Two
/// programs that differ only in how their symbols are spelled compile
/// to designs with equal rows here.
const GOLDEN_NAME_BLIND: &[(&str, &str, u64)] = &[
    ("outerprod", "baseline", 0x39522575ee334ceb),
    ("outerprod", "tiled", 0x1890b6721c68ef53),
    ("outerprod", "meta", 0x3e259950d1aae10e),
    ("sumrows", "baseline", 0xf8d92fce86c8d49f),
    ("sumrows", "tiled", 0xc84145c1f324fa2a),
    ("sumrows", "meta", 0x283f07395f2db134),
    ("gemm", "baseline", 0x10927edfbb0817cc),
    ("gemm", "tiled", 0x22878cc8720aeb2f),
    ("gemm", "meta", 0xc4de5857394393b8),
    ("tpchq6", "baseline", 0xe007c60238615c5b),
    ("tpchq6", "tiled", 0xbdae7a22ad49b193),
    ("tpchq6", "meta", 0x4190426a001651ae),
    ("gda", "baseline", 0x6d7bfe7c77584f86),
    ("gda", "tiled", 0x4cf2e2e41dcb144b),
    ("gda", "meta", 0x80269b628083c892),
    ("kmeans", "baseline", 0x3fa69cfd51b8a648),
    ("kmeans", "tiled", 0x80fc66c87c7fab30),
    ("kmeans", "meta", 0xf1f935041ac6fed4),
];

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn mix_u64(h: &mut u64, v: u64) {
    mix(h, &v.to_le_bytes());
}

fn mix_str(h: &mut u64, s: &str) {
    mix(h, s.as_bytes());
    mix(h, &[0xff]);
}

/// Canonical fingerprint of a simulation report: every field, with floats
/// by bit pattern, so two reports hash equal iff they are bit-identical.
fn fingerprint_sim(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    mix_str(&mut h, &r.design);
    mix_str(&mut h, &r.style.to_string());
    mix_u64(&mut h, r.cycles);
    mix_u64(&mut h, r.seconds.to_bits());
    mix_u64(&mut h, r.dram_bytes);
    mix_u64(&mut h, r.dram_words);
    mix_u64(&mut h, r.faults.jitter_cycles);
    mix_u64(&mut h, r.faults.degraded_requests);
    mix_u64(&mut h, r.faults.retries);
    mix_u64(&mut h, r.faults.retry_cycles.to_bits());
    for s in &r.stages {
        mix_str(&mut h, &s.name);
        mix_u64(&mut h, s.invocations);
        mix_u64(&mut h, s.busy_cycles.to_bits());
        mix_u64(&mut h, s.dram_words);
    }
    h
}

/// [`fingerprint_sim`] without names: the design and stage names are
/// left out, and the per-stage statistics enter as their integer totals.
fn mix_name_blind(h: &mut u64, r: &SimReport) {
    mix_u64(h, r.cycles);
    mix_u64(h, r.seconds.to_bits());
    mix_u64(h, r.dram_bytes);
    mix_u64(h, r.dram_words);
    mix_u64(h, r.faults.jitter_cycles);
    mix_u64(h, r.faults.degraded_requests);
    mix_u64(h, r.faults.retries);
    mix_u64(h, r.faults.retry_cycles.to_bits());
    mix_u64(h, r.stages.iter().map(|s| s.invocations).sum());
    mix_u64(h, r.stages.iter().map(|s| s.dram_words).sum());
}

/// Canonical fingerprint of a DSE report: the best point, the frontier,
/// the full ranking, failures, and every stats counter.
fn fingerprint_dse(r: &DseReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    mix_str(&mut h, &r.name);
    for p in std::iter::once(&r.best)
        .chain(r.frontier.iter())
        .chain(r.evaluated.iter())
    {
        mix_str(&mut h, &p.label);
        mix_u64(&mut h, p.cycles);
        mix_u64(&mut h, p.dram_words);
        mix_u64(&mut h, p.on_chip_bytes);
        mix_u64(&mut h, p.area.logic.to_bits());
        mix_u64(&mut h, p.area.ff.to_bits());
        mix_u64(&mut h, p.area.mem.to_bits());
        mix_u64(&mut h, p.area_score.to_bits());
    }
    for f in &r.failures {
        mix_str(&mut h, &f.label);
        mix_str(&mut h, &f.error);
    }
    let s = &r.stats;
    for v in [
        s.exhaustive,
        s.pruned_tile,
        s.pruned_budget,
        s.pruned_area,
        s.evaluated,
        s.infeasible,
        s.failed,
    ] {
        mix_u64(&mut h, v as u64);
    }
    mix_u64(&mut h, s.cache_hits);
    mix_u64(&mut h, s.cache_misses);
    h
}

fn print_mode() -> bool {
    std::env::var("PPHW_GOLDEN_PRINT").is_ok()
}

/// The seeded fault model used for the fault-run fingerprints: every
/// fault class active, fixed seed.
fn golden_faults() -> FaultConfig {
    FaultConfig::none()
        .with_seed(0xFEED)
        .with_latency_jitter(24)
        .with_degradation(2048, 256, 1.5)
        .with_burst_fail_rate(0.05)
}

fn level_tag(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::Baseline => "baseline",
        OptLevel::Tiled => "tiled",
        OptLevel::Metapipelined => "meta",
    }
}

#[test]
fn simulate_matches_pre_optimisation_fingerprints() {
    let mut failures = Vec::new();
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let compiled = compile(&prog, &spec.options().opt(level)).expect("benchmark compiles");
            let report = compiled
                .simulate(&SimConfig::default())
                .expect("benchmark simulates");
            let got = fingerprint_sim(&report);
            if print_mode() {
                println!(
                    "    (\"{}\", \"{}\", {:#018x}),",
                    spec.name,
                    level_tag(level),
                    got
                );
                continue;
            }
            let want = GOLDEN_SIM
                .iter()
                .find(|(n, l, _)| *n == spec.name && *l == level_tag(level))
                .map(|(_, _, f)| *f)
                .expect("fingerprint recorded");
            if got != want {
                failures.push(format!(
                    "{} [{}]: fingerprint {got:#018x} != golden {want:#018x}",
                    spec.name,
                    level_tag(level)
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "drifted reports:\n{}",
        failures.join("\n")
    );
}

#[test]
fn simulate_with_faults_matches_pre_optimisation_fingerprints() {
    let mut failures = Vec::new();
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        let compiled = compile(&prog, &spec.options()).expect("benchmark compiles");
        let report = compiled
            .simulate_with_faults(&SimConfig::default(), &golden_faults())
            .expect("benchmark simulates under faults");
        let got = fingerprint_sim(&report);
        if print_mode() {
            println!("    (\"{}\", {:#018x}),", spec.name, got);
            continue;
        }
        let want = GOLDEN_FAULT
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, f)| *f)
            .expect("fingerprint recorded");
        if got != want {
            failures.push(format!(
                "{} [faulted]: fingerprint {got:#018x} != golden {want:#018x}",
                spec.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "drifted reports:\n{}",
        failures.join("\n")
    );
}

/// The substrates of [`GOLDEN_SUBSTRATE`].
fn golden_substrates() -> Vec<(&'static str, SimConfig)> {
    let mut out: Vec<_> = SimConfig::named_variants()
        .into_iter()
        .filter(|(name, _)| *name != "max4")
        .collect();
    out.push((
        "c250g19b64",
        SimConfig::default()
            .with_clock_mhz(250.0)
            .with_dram_gbps(19.2)
            .with_burst_bytes(64),
    ));
    out
}

#[test]
fn simulate_matches_stepping_fingerprints_on_every_substrate() {
    let mut failures = Vec::new();
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let compiled = compile(&prog, &spec.options().opt(level)).expect("benchmark compiles");
            for (substrate, cfg) in golden_substrates() {
                let mut runs = vec![(
                    level_tag(level),
                    compiled.simulate(&cfg).expect("benchmark simulates"),
                )];
                if level == OptLevel::Metapipelined {
                    runs.push((
                        "faulted",
                        compiled
                            .simulate_with_faults(&cfg, &golden_faults())
                            .expect("benchmark simulates under faults"),
                    ));
                }
                for (tag, report) in runs {
                    let got = fingerprint_sim(&report);
                    if print_mode() {
                        println!(
                            "    (\"{}\", \"{substrate}\", \"{tag}\", {got:#018x}),",
                            spec.name
                        );
                        continue;
                    }
                    let want = GOLDEN_SUBSTRATE
                        .iter()
                        .find(|(n, s, t, _)| *n == spec.name && *s == substrate && *t == tag)
                        .map(|(_, _, _, f)| *f)
                        .expect("fingerprint recorded");
                    if got != want {
                        failures.push(format!(
                            "{} [{substrate}, {tag}]: fingerprint {got:#018x} != golden {want:#018x}",
                            spec.name
                        ));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "drifted reports:\n{}",
        failures.join("\n")
    );
}

/// The substrates of [`GOLDEN_NAME_BLIND`]: the default board, then those
/// of [`GOLDEN_SUBSTRATE`].
fn name_blind_substrates() -> Vec<SimConfig> {
    let rest = golden_substrates().into_iter().map(|(_, cfg)| cfg);
    std::iter::once(SimConfig::default()).chain(rest).collect()
}

#[test]
fn designs_match_name_blind_fingerprints() {
    let mut failures = Vec::new();
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let compiled = compile(&prog, &spec.options().opt(level)).expect("benchmark compiles");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for cfg in name_blind_substrates() {
                let clean = compiled.simulate(&cfg).expect("benchmark simulates");
                let faulted = compiled
                    .simulate_with_faults(&cfg, &golden_faults())
                    .expect("benchmark simulates under faults");
                mix_name_blind(&mut h, &clean);
                mix_name_blind(&mut h, &faulted);
            }
            let area = compiled.area();
            for v in [area.logic, area.ff, area.mem] {
                mix_u64(&mut h, v.to_bits());
            }
            mix_u64(&mut h, compiled.design.on_chip_bytes());
            let tag = level_tag(level);
            if print_mode() {
                println!("    (\"{}\", \"{tag}\", {h:#018x}),", spec.name);
                continue;
            }
            let want = GOLDEN_NAME_BLIND
                .iter()
                .find(|(n, l, _)| *n == spec.name && *l == tag)
                .map(|(_, _, f)| *f)
                .expect("fingerprint recorded");
            if h != want {
                failures.push(format!(
                    "{} [{tag}]: name-blind fingerprint {h:#018x} != golden {want:#018x}",
                    spec.name
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "drifted designs:\n{}",
        failures.join("\n")
    );
}

/// The fixed sweep the `explore` fingerprints are taken over: the two
/// smallest tile candidates per tuned dimension, the benchmark's default
/// parallelism, and two DRAM substrates — small enough for a debug-mode
/// test, wide enough to exercise compile sharing across substrates.
fn golden_space(spec: &pphw_apps::BenchSpec) -> SearchSpace {
    let sizes = (spec.sizes)();
    let mut space = SearchSpace::new(&sizes);
    for (dim, _) in (spec.tiles)() {
        let n = sizes
            .iter()
            .find(|(k, _)| *k == dim)
            .map(|(_, v)| *v)
            .expect("tile dim has a size");
        let mut cands: Vec<i64> = Vec::new();
        let mut b = 4i64;
        while b <= n {
            if n % b == 0 {
                cands.push(b);
            }
            b *= 2;
        }
        cands.truncate(2); // smallest two: they always fit the budget
        cands.reverse();
        space = space.with_tile_candidates(dim, &cands);
    }
    space
        .with_inner_pars(&[spec.inner_par])
        .with_sim_variants(&[
            ("max4", SimConfig::default()),
            ("low-bw", SimConfig::default().with_dram_gbps(38.4)),
        ])
}

fn golden_dse_config(threads: usize) -> DseConfig {
    DseConfig {
        threads,
        on_chip_budget_bytes: 256 * 1024,
        ..DseConfig::default()
    }
}

#[test]
fn explore_matches_pre_optimisation_fingerprints_at_any_thread_count() {
    let mut failures = Vec::new();
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        let mut base = CompileOptions::new(&(spec.sizes)()).inner_par(spec.inner_par);
        base.on_chip_budget_bytes = 256 * 1024;
        let space = golden_space(&spec);
        let mut first: Option<u64> = None;
        for threads in [1usize, 4] {
            let report = explore_with_caches(
                &prog,
                &base,
                &space,
                &golden_dse_config(threads),
                &EvalCache::new(),
                Arc::new(DesignCache::new()),
            )
            .expect("search succeeds");
            let got = fingerprint_dse(&report);
            match first {
                None => first = Some(got),
                Some(f) => assert_eq!(
                    f, got,
                    "{}: explore not deterministic across thread counts",
                    spec.name
                ),
            }
        }
        let got = first.expect("at least one run");
        if print_mode() {
            println!("    (\"{}\", {:#018x}),", spec.name, got);
            continue;
        }
        let want = GOLDEN_DSE
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, f)| *f)
            .expect("fingerprint recorded");
        if got != want {
            failures.push(format!(
                "{} [dse]: fingerprint {got:#018x} != golden {want:#018x}",
                spec.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "drifted reports:\n{}",
        failures.join("\n")
    );
}
