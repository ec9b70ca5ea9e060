//! Shared search-space construction for the `dse` binary and the
//! `benchmark/` workloads, so the sweep the benchmark times is the sweep
//! the driver exposes.

use pphw::CompileOptions;
use pphw_apps::BenchSpec;
use pphw_dse::SearchSpace;
use pphw_sim::SimConfig;

/// Power-of-two dividing tile candidates around the benchmark's default
/// tile size: `[default/4, default*2]` clamped to the dimension, largest
/// first. Keeps the per-benchmark space small while still bracketing the
/// paper's hand-picked tile from both sides. In quick mode only the two
/// smallest candidates survive: they are the ones guaranteed to fit the
/// budget, so a smoke run always finds a feasible point.
pub fn tile_candidates_around(n: i64, default_tile: i64, quick: bool) -> Vec<i64> {
    let lo = (default_tile / 4).max(4);
    let hi = (default_tile * 2).min(n);
    let mut out = Vec::new();
    let mut b = 4i64;
    while b <= n {
        if n % b == 0 && b >= lo && b <= hi {
            out.push(b);
        }
        b *= 2;
    }
    out.reverse();
    if quick {
        let keep = out.len().saturating_sub(2);
        out.drain(..keep);
    }
    out
}

/// Substrate variants swept: the default substrate only in quick mode,
/// every named variant otherwise.
pub fn sweep_sim_variants(quick: bool) -> Vec<(String, SimConfig)> {
    if quick {
        vec![("max4".to_string(), SimConfig::default())]
    } else {
        SimConfig::named_variants()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }
}

/// The joint tile × parallelism × substrate space the `dse` driver sweeps
/// for one benchmark.
///
/// # Panics
///
/// Panics if a tuned tile dimension has no declared size — benchmark
/// specs are expected to be internally consistent.
pub fn sweep_space(
    spec: &BenchSpec,
    quick: bool,
    sim_variants: &[(String, SimConfig)],
) -> SearchSpace {
    let sizes = (spec.sizes)();
    let mut space = SearchSpace::new(&sizes);
    for (dim, t) in (spec.tiles)() {
        let n = sizes
            .iter()
            .find(|(k, _)| *k == dim)
            .map(|(_, v)| *v)
            .expect("tile dim has a size");
        space = space.with_tile_candidates(dim, &tile_candidates_around(n, t, quick));
    }
    let pars: Vec<u32> = if quick {
        vec![spec.inner_par]
    } else {
        vec![32, 64]
    };
    let variants: Vec<(&str, SimConfig)> = sim_variants
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    space.with_inner_pars(&pars).with_sim_variants(&variants)
}

/// Dense DRAM-substrate grid for the guided-vs-exhaustive rows: the
/// cross product of clock, bandwidth, latency, burst size, and
/// synchronization gap — every knob the analytic cost model claims to
/// understand. Full mode enumerates 4^4 x 4 = 1024 variants; quick mode
/// a representative 16. Labels are canonical (`c150g38l64b64s8`) so
/// cache keys and reports stay stable.
pub fn big_sim_grid(quick: bool) -> Vec<(String, SimConfig)> {
    struct Grid {
        clocks: Vec<f64>,
        gbps: Vec<f64>,
        lats: Vec<u64>,
        bursts: Vec<u64>,
        gaps: Vec<u64>,
    }
    let Grid {
        clocks,
        gbps,
        lats,
        bursts,
        gaps,
    } = if quick {
        Grid {
            clocks: vec![150.0, 250.0],
            gbps: vec![38.4, 153.6],
            lats: vec![64, 256],
            bursts: vec![64],
            gaps: vec![0, 8],
        }
    } else {
        Grid {
            clocks: vec![100.0, 150.0, 200.0, 250.0],
            gbps: vec![19.2, 38.4, 76.8, 153.6],
            lats: vec![32, 64, 128, 256],
            bursts: vec![32, 64, 128, 256],
            gaps: vec![0, 4, 8, 16],
        }
    };
    let mut out = Vec::new();
    for &c in &clocks {
        for &g in &gbps {
            for &l in &lats {
                for &b in &bursts {
                    for &s in &gaps {
                        let mut cfg = SimConfig::default()
                            .with_clock_mhz(c)
                            .with_dram_gbps(g)
                            .with_dram_latency(l)
                            .with_burst_bytes(b);
                        cfg.sync_gap = s;
                        out.push((format!("c{c:.0}g{g:.0}l{l}b{b}s{s}"), cfg));
                    }
                }
            }
        }
    }
    out
}

/// A dense synthetic space for the guided-vs-exhaustive benchmark rows:
/// the smallest power-of-two tiles per tuned dimension (so the on-chip
/// prefilter keeps essentially everything and the exhaustive sweep
/// really pays for the whole space) x a wide parallelism ladder x the
/// [`big_sim_grid`]. On `sumrows` this enumerates 16 x 8 x 1024 =
/// 131072 candidates in full mode and a few hundred in quick mode.
///
/// # Panics
///
/// Panics if a tuned tile dimension has no declared size.
pub fn big_space(spec: &BenchSpec, quick: bool) -> SearchSpace {
    let sizes = (spec.sizes)();
    let mut space = SearchSpace::new(&sizes);
    let per_dim = if quick { 3 } else { 4 };
    for (dim, _) in (spec.tiles)() {
        let n = sizes
            .iter()
            .find(|(k, _)| *k == dim)
            .map(|(_, v)| *v)
            .expect("tile dim has a size");
        let mut cands = pphw_dse::pow2_divisors(n);
        let keep = cands.len().saturating_sub(per_dim);
        cands.drain(..keep);
        space = space.with_tile_candidates(dim, &cands);
    }
    let pars: Vec<u32> = if quick {
        vec![16, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };
    let grid = big_sim_grid(quick);
    let variants: Vec<(&str, SimConfig)> =
        grid.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    space.with_inner_pars(&pars).with_sim_variants(&variants)
}

/// Base compile options for a swept benchmark under an explicit on-chip
/// budget.
pub fn sweep_base_options(spec: &BenchSpec, budget: u64) -> CompileOptions {
    let mut base = CompileOptions::new(&(spec.sizes)()).inner_par(spec.inner_par);
    base.on_chip_budget_bytes = budget;
    base
}
