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
    ("outerprod", "baseline", 0xdb5ce75d0359e094),
    ("outerprod", "tiled", 0x291ede8c55080629),
    ("outerprod", "meta", 0xc6d7fd45fdb20fe5),
    ("sumrows", "baseline", 0x33c060c1b302e9f3),
    ("sumrows", "tiled", 0x98a1c8585d8eba9a),
    ("sumrows", "meta", 0xdec596b40f15fe89),
    ("gemm", "baseline", 0xdd56542f65e809a3),
    ("gemm", "tiled", 0x11c5f532bd1e76c6),
    ("gemm", "meta", 0x7d067c9c2c0f0d27),
    ("tpchq6", "baseline", 0xa193db608c490046),
    ("tpchq6", "tiled", 0xaf49096f81695757),
    ("tpchq6", "meta", 0x5f4a6d6be9006149),
    ("gda", "baseline", 0xb1202700b8a0156a),
    ("gda", "tiled", 0xbaa11ec2247e54bf),
    ("gda", "meta", 0xcad442c4c7f5dbfb),
    ("kmeans", "baseline", 0x819fc93071119920),
    ("kmeans", "tiled", 0xef61e83410524161),
    ("kmeans", "meta", 0xa4761306cae801d8),
];

/// Seeded-fault simulation fingerprints (metapipelined level).
const GOLDEN_FAULT: &[(&str, u64)] = &[
    ("outerprod", 0x818eaeadfba4d057),
    ("sumrows", 0xa4544939d6921769),
    ("gemm", 0x311e6bd92a600a9c),
    ("tpchq6", 0x05097c4d7e0656ff),
    ("gda", 0x9dc759647a0d28b9),
    ("kmeans", 0xa9d976d74b87b54b),
];

/// Fingerprints on the substrates the default-substrate tables above do
/// not reach: the other two named variants (dyadic bytes/cycle, where
/// the simulator may advance periodic loops in closed form) and one
/// non-dyadic substrate (250 MHz x 19.2 GB/s = 76.8 B/cycle in 64-byte
/// bursts of 5/6 cycle each, where it must step). Fault-free at every level plus the seeded-fault run of
/// the metapipelined design, captured from the all-stepping engine at
/// commit `cc25689`.
const GOLDEN_SUBSTRATE: &[(&str, &str, &str, u64)] = &[
    ("outerprod", "fast-clock", "baseline", 0xeedec1293d151d33),
    ("outerprod", "low-bw", "baseline", 0xec076c111528ea90),
    ("outerprod", "c250g19b64", "baseline", 0x0436a63253795665),
    ("outerprod", "fast-clock", "tiled", 0x6c6d606cf2806e8d),
    ("outerprod", "low-bw", "tiled", 0xb000403ef30c9d61),
    ("outerprod", "c250g19b64", "tiled", 0xd35227332b327d6b),
    ("outerprod", "fast-clock", "meta", 0xce72eabc9b93b2dd),
    ("outerprod", "fast-clock", "faulted", 0x6534c2523c0083d6),
    ("outerprod", "low-bw", "meta", 0x1178b0cf2db72ea5),
    ("outerprod", "low-bw", "faulted", 0x25193ed58c201274),
    ("outerprod", "c250g19b64", "meta", 0x04d351d6c8217c1f),
    ("outerprod", "c250g19b64", "faulted", 0x30887f4773b2635a),
    ("sumrows", "fast-clock", "baseline", 0xaadfc50dac9a4d28),
    ("sumrows", "low-bw", "baseline", 0xfd0713b40a96cba3),
    ("sumrows", "c250g19b64", "baseline", 0xdd929625640fd26c),
    ("sumrows", "fast-clock", "tiled", 0x6a4ce9d75089b4d0),
    ("sumrows", "low-bw", "tiled", 0x30e028f3808fabec),
    ("sumrows", "c250g19b64", "tiled", 0x7c623d33244f580e),
    ("sumrows", "fast-clock", "meta", 0x218db5d62e1b6832),
    ("sumrows", "fast-clock", "faulted", 0x1f312310d8b7af4e),
    ("sumrows", "low-bw", "meta", 0x2d9d67b08658afa1),
    ("sumrows", "low-bw", "faulted", 0xd6879551463ce750),
    ("sumrows", "c250g19b64", "meta", 0x0dd2048f0537dd20),
    ("sumrows", "c250g19b64", "faulted", 0x79eba834d6ab47c8),
    ("gemm", "fast-clock", "baseline", 0x7a51b9a8f53ced17),
    ("gemm", "low-bw", "baseline", 0x95ad5d3c43956bf6),
    ("gemm", "c250g19b64", "baseline", 0x2a670955c4e5a9ce),
    ("gemm", "fast-clock", "tiled", 0xffcb4b5a4634cff1),
    ("gemm", "low-bw", "tiled", 0x2fa4bcceaba30851),
    ("gemm", "c250g19b64", "tiled", 0xfa8cac7328dbee2e),
    ("gemm", "fast-clock", "meta", 0x388425f44912d143),
    ("gemm", "fast-clock", "faulted", 0x4db121d39a173584),
    ("gemm", "low-bw", "meta", 0xecf574b265a969fe),
    ("gemm", "low-bw", "faulted", 0xa72e066bfbdf7713),
    ("gemm", "c250g19b64", "meta", 0xfe704083b90b066d),
    ("gemm", "c250g19b64", "faulted", 0xbfbeac25834e1d65),
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
    ("gda", "fast-clock", "baseline", 0x41f5ed85ae584381),
    ("gda", "low-bw", "baseline", 0xb1202700b8a0156a),
    ("gda", "c250g19b64", "baseline", 0x7fe37189f17ed7e7),
    ("gda", "fast-clock", "tiled", 0x2ee6384e8bb77169),
    ("gda", "low-bw", "tiled", 0xc138d263e29f01b5),
    ("gda", "c250g19b64", "tiled", 0xee432c96be72174d),
    ("gda", "fast-clock", "meta", 0x7a3203529cd79ee9),
    ("gda", "fast-clock", "faulted", 0x3bbc070887c710c8),
    ("gda", "low-bw", "meta", 0xa0baaf174ff42e9d),
    ("gda", "low-bw", "faulted", 0xe0ac87487e87c07d),
    ("gda", "c250g19b64", "meta", 0xc3cf94fa7af345a2),
    ("gda", "c250g19b64", "faulted", 0xfd0eb41825b67e73),
    ("kmeans", "fast-clock", "baseline", 0x2f27b4de9dead3a8),
    ("kmeans", "low-bw", "baseline", 0x819fc93071119920),
    ("kmeans", "c250g19b64", "baseline", 0x26a9e64be2235c0f),
    ("kmeans", "fast-clock", "tiled", 0x89fd28cdad6e402a),
    ("kmeans", "low-bw", "tiled", 0x5e0db15aabe392c0),
    ("kmeans", "c250g19b64", "tiled", 0x1ffae33235e9fb02),
    ("kmeans", "fast-clock", "meta", 0x0940d6f9974fd582),
    ("kmeans", "fast-clock", "faulted", 0x1a07f30e82d6723c),
    ("kmeans", "low-bw", "meta", 0xb3c9c4ad4ae77247),
    ("kmeans", "low-bw", "faulted", 0xefd26dde036584bd),
    ("kmeans", "c250g19b64", "meta", 0x4aa0e3cb6d781704),
    ("kmeans", "c250g19b64", "faulted", 0xe8d06e8b7806e9dc),
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
