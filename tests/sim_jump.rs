//! The closed-form advance of periodic DRAM-free loops against the
//! all-stepping reference (`pphw_sim::simulate_stepping`): reports and
//! errors must be equal bit for bit, on the designs the benchmarks time,
//! on substrates where the advance applies and where it must not, on
//! random loop nests, and at the watchdog's limits.
//!
//! That the advance really skips iterations where it applies is asserted
//! inside `pphw-sim` (`engine::tests`), which can count stepped units.

use pphw::{compile, CompileOptions, Compiled, OptLevel};
use pphw_apps::{all_benchmarks, BenchSpec};
use pphw_bench::sweep::{big_sim_grid, sweep_base_options, sweep_sim_variants, sweep_space};
use pphw_hw::design::{
    BufId, Buffer, BufferKind, Ctrl, CtrlKind, Design, DesignStyle, DramStream, Node, Unit,
    UnitKind,
};
use pphw_sim::{
    simulate, simulate_stepping, simulate_with_faults, FaultConfig, SimConfig, SimError, SimReport,
};
use pphw_testkit::prop::{shrink, Check};
use pphw_testkit::rng::Rng;

type Outcome = Result<SimReport, SimError>;

/// `==` on the outcomes, plus bit equality on every float of a report.
fn same(what: &str, fast: &Outcome, stepped: &Outcome) -> Result<(), String> {
    if fast != stepped {
        return Err(format!(
            "{what}: advance and stepping disagree\n  fast:    {fast:?}\n  stepped: {stepped:?}"
        ));
    }
    if let (Ok(a), Ok(b)) = (fast, stepped) {
        let floats = |r: &SimReport| {
            let mut bits = vec![r.seconds.to_bits(), r.faults.retry_cycles.to_bits()];
            bits.extend(r.stages.iter().map(|s| s.busy_cycles.to_bits()));
            bits
        };
        if floats(a) != floats(b) {
            return Err(format!("{what}: floats differ in their bits\n{a:?}\n{b:?}"));
        }
    }
    Ok(())
}

/// Both engines on one (design, substrate, fault) point; returns the
/// shared outcome.
fn check(what: &str, design: &Design, cfg: &SimConfig, faults: &FaultConfig) -> Outcome {
    let fast = simulate_with_faults(design, cfg, faults);
    let stepped = simulate_stepping(design, cfg, faults);
    if let Err(e) = same(what, &fast, &stepped) {
        panic!("{e}");
    }
    fast
}

/// The `faults` bin's fault model at its middle rate.
fn faults_bin_config(seed: u64) -> FaultConfig {
    FaultConfig::none()
        .with_seed(seed)
        .with_latency_jitter(16)
        .with_degradation(4096, 512, 1.5)
        .with_burst_fail_rate(0.05)
        .with_retry(4, 16)
}

fn bench(name: &str) -> BenchSpec {
    pphw_apps::benchmark(name).expect("benchmark exists")
}

#[test]
fn figure7_designs_agree_on_every_named_substrate_clean_and_faulted() {
    let mut points = 0;
    for spec in all_benchmarks() {
        let prog = (spec.program)();
        for level in OptLevel::all() {
            let compiled = compile(&prog, &spec.options().opt(level)).expect("compiles");
            for (substrate, cfg) in SimConfig::named_variants() {
                let what = format!("{} at {level} on {substrate}", spec.name);
                check(&what, &compiled.design, &cfg, &FaultConfig::none()).expect("simulates");
                for seed in [0xFA17, 1, 42] {
                    check(
                        &format!("{what}, fault seed {seed:#x}"),
                        &compiled.design,
                        &cfg,
                        &faults_bin_config(seed),
                    )
                    .expect("simulates under faults");
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 18 * 3 * 3);
}

fn gemm_128() -> BenchSpec {
    BenchSpec {
        sizes: || vec![("m", 128), ("n", 128), ("p", 128)],
        ..bench("gemm")
    }
}

/// The space `dse_cold_gemm` sweeps, compiled as its evaluator compiles
/// it: one design per tile x parallelism point.
fn gemm_sweep() -> Vec<(String, Compiled, SimConfig)> {
    let spec = gemm_128();
    let prog = (spec.program)();
    let base = sweep_base_options(&spec, 256 * 1024);
    let candidates = sweep_space(&spec, false, &sweep_sim_variants(false)).candidates();
    assert_eq!(candidates.len(), 384);
    let mut out = Vec::new();
    let mut last: Option<(CompileOptions, Compiled)> = None;
    for c in candidates {
        let mut opts = base.clone().tiles(&c.tile_pairs());
        opts.inner_par = c.inner_par;
        opts.meta_inner_par = None;
        let compiled = match &last {
            Some((o, compiled)) if o.tiles == opts.tiles && o.inner_par == opts.inner_par => {
                compiled.clone()
            }
            _ => match compile(&prog, &opts) {
                Ok(compiled) => compiled,
                Err(_) => continue, // over the on-chip budget: the sweep skips it too
            },
        };
        last = Some((opts, compiled.clone()));
        out.push((c.label(), compiled, c.sim));
    }
    out
}

#[test]
fn every_gemm_sweep_candidate_agrees() {
    let sweep = gemm_sweep();
    assert!(
        sweep.len() > 300,
        "only {} candidates compiled",
        sweep.len()
    );
    for (label, compiled, cfg) in &sweep {
        check(label, &compiled.design, cfg, &FaultConfig::none()).expect("simulates");
    }
}

/// Every float of the report is a multiple of 2^-20: no time the run
/// produced left the grid, so every DRAM-free loop was free to advance.
fn on_grid(r: &SimReport, cfg: &SimConfig) -> bool {
    let dyadic = |x: f64| (x * f64::from(1u32 << 20)).fract() == 0.0;
    dyadic(r.seconds * cfg.clock_mhz * 1e6) && r.stages.iter().all(|s| dyadic(s.busy_cycles))
}

#[test]
fn seeded_substrate_grid_draws_agree_whether_or_not_they_advance() {
    let sumrows = BenchSpec {
        sizes: || vec![("m", 1024), ("n", 256)],
        ..bench("sumrows")
    };
    let designs: Vec<(&str, Compiled)> = [sumrows, gemm_128()]
        .into_iter()
        .map(|spec| {
            let compiled = compile(&(spec.program)(), &spec.options()).expect("compiles");
            (spec.name, compiled)
        })
        .collect();
    let grid = big_sim_grid(false);
    let mut rng = Rng::seed_from_u64(0x6A1D);
    let (mut advanced, mut stepped) = (0, 0);
    for _ in 0..64 {
        let (label, cfg) = rng.choose(&grid);
        for (name, compiled) in &designs {
            let what = format!("{name} on {label}");
            let report = check(&what, &compiled.design, cfg, &FaultConfig::none())
                .expect("grid substrates simulate");
            if on_grid(&report, cfg) {
                advanced += 1;
            } else {
                stepped += 1;
            }
        }
    }
    assert!(
        advanced >= 16 && stepped >= 16,
        "the draws must cover both regimes: {advanced} on the grid, {stepped} off it"
    );
}

// --------------------------------------------------------------------
// Random DRAM-free loop nests
// --------------------------------------------------------------------

/// A loop nest under test. Unit names come from a pool of three, so
/// units share stat ids.
#[derive(Debug, Clone)]
enum Nest {
    Unit {
        name: u32,
        elems: u64,
        lanes: u32,
        depth: u32,
        store: bool,
    },
    Loop {
        kind: CtrlKind,
        iters: u64,
        /// Link the first two unit stages of a metapipeline through a
        /// FIFO holding this many tokens (0: no channel).
        slots: u64,
        stages: Vec<Nest>,
    },
}

fn gen_nest(rng: &mut Rng, depth: u32) -> Nest {
    if depth == 0 || rng.gen_bool(0.35) {
        return Nest::Unit {
            name: rng.gen_range(0u32..3),
            elems: rng.gen_range(0u64..200),
            lanes: *rng.choose(&[1, 4, 64]),
            depth: rng.gen_range(0u32..12),
            store: rng.gen_bool(0.15),
        };
    }
    let stages = (0..rng.gen_range(1usize..4))
        .map(|_| gen_nest(rng, depth - 1))
        .collect();
    Nest::Loop {
        kind: *rng.choose(&[
            CtrlKind::Metapipeline,
            CtrlKind::Metapipeline,
            CtrlKind::Sequential,
            CtrlKind::Parallel,
        ]),
        iters: *rng.choose(&[1, 2, 7, 8, 9, 40, 150]),
        slots: rng.gen_range(0u64..3),
        stages,
    }
}

fn shrink_nest(n: &Nest) -> Vec<Nest> {
    match n {
        Nest::Unit {
            name,
            elems,
            lanes,
            depth,
            store,
        } => {
            let unit = |elems, depth, store| Nest::Unit {
                name: *name,
                elems,
                lanes: *lanes,
                depth,
                store,
            };
            let mut out: Vec<Nest> = shrink::i64_toward(*elems as i64, 1)
                .into_iter()
                .map(|e| unit(e as u64, *depth, *store))
                .collect();
            out.extend(
                shrink::i64_toward(i64::from(*depth), 0)
                    .into_iter()
                    .map(|d| unit(*elems, d as u32, *store)),
            );
            if *store {
                out.push(unit(*elems, *depth, false));
            }
            out
        }
        Nest::Loop {
            kind,
            iters,
            slots,
            stages,
        } => {
            let with = |iters, slots, stages| Nest::Loop {
                kind: *kind,
                iters,
                slots,
                stages,
            };
            let mut out = stages.clone();
            out.extend(
                shrink::vec(stages, 1)
                    .into_iter()
                    .map(|s| with(*iters, *slots, s)),
            );
            out.extend(
                shrink::i64_toward(*iters as i64, 1)
                    .into_iter()
                    .map(|i| with(i as u64, *slots, stages.clone())),
            );
            if *slots > 0 {
                out.push(with(*iters, 0, stages.clone()));
            }
            for (i, s) in stages.iter().enumerate() {
                for smaller in shrink_nest(s) {
                    let mut stages = stages.clone();
                    stages[i] = smaller;
                    out.push(with(*iters, *slots, stages));
                }
            }
            out
        }
    }
}

/// Lowers a nest to design nodes, allocating a FIFO per linked pair.
fn build_nest(n: &Nest, buffers: &mut Vec<Buffer>, ctrls: &mut u32) -> Node {
    match n {
        Nest::Unit {
            name,
            elems,
            lanes,
            depth,
            store,
        } => Node::Unit(Unit {
            name: format!("u{name}"),
            kind: if *store {
                UnitKind::TileStore { buf: BufId(0) }
            } else {
                UnitKind::Vector { lanes: *lanes }
            },
            elems: *elems,
            ops_per_elem: 1,
            depth: *depth,
            streams: vec![],
            reads: vec![],
            writes: vec![],
        }),
        Nest::Loop {
            kind,
            iters,
            slots,
            stages,
        } => {
            *ctrls += 1;
            let name = format!("c{ctrls}");
            let mut nodes: Vec<Node> = stages
                .iter()
                .map(|s| build_nest(s, buffers, ctrls))
                .collect();
            let units: Vec<usize> = (0..nodes.len())
                .filter(|&i| matches!(&nodes[i], Node::Unit(u) if u.elems > 0))
                .collect();
            if let (CtrlKind::Metapipeline, true, [p, c, ..]) = (kind, *slots > 0, &units[..]) {
                let id = BufId(buffers.len());
                let token = |n: &Node| match n {
                    Node::Unit(u) => u.elems,
                    Node::Ctrl(_) => unreachable!("filtered to units"),
                };
                buffers.push(Buffer {
                    id,
                    name: format!("q{}", id.0),
                    words: slots * token(&nodes[*p]).min(token(&nodes[*c])),
                    word_bytes: 4,
                    kind: BufferKind::Fifo,
                    banks: 1,
                    readers: 1,
                    writers: 1,
                });
                if let Node::Unit(u) = &mut nodes[*p] {
                    u.writes.push(id);
                }
                if let Node::Unit(u) = &mut nodes[*c] {
                    u.reads.push(id);
                }
            }
            Node::Ctrl(Ctrl {
                name,
                kind: *kind,
                iters: *iters,
                stages: nodes,
            })
        }
    }
}

/// The nest after a 100-word tile load under a sequential root: on the
/// default substrate the load ends 61.5 cycles in, so the nest starts at
/// a fractional time; on the last of [`nest_substrates`], off the grid.
fn nest_design(n: &Nest) -> Design {
    let mut buffers = vec![Buffer {
        id: BufId(0),
        name: "tile".into(),
        words: 100,
        word_bytes: 4,
        kind: BufferKind::Buffer,
        banks: 1,
        readers: 1,
        writers: 1,
    }];
    let load = Node::Unit(Unit {
        name: "load".into(),
        kind: UnitKind::TileLoad { buf: BufId(0) },
        elems: 100,
        ops_per_elem: 0,
        depth: 4,
        streams: vec![DramStream {
            words: 100,
            run_words: 100,
            prefetch: true,
            write: false,
        }],
        reads: vec![],
        writes: vec![BufId(0)],
    });
    let nest = build_nest(n, &mut buffers, &mut 0);
    Design {
        name: "nest".into(),
        style: DesignStyle::Metapipelined,
        root: Node::Ctrl(Ctrl {
            name: "root".into(),
            kind: CtrlKind::Sequential,
            iters: 3,
            stages: vec![load, nest],
        }),
        buffers,
    }
}

fn nest_substrates() -> Vec<SimConfig> {
    let mut out: Vec<SimConfig> = SimConfig::named_variants()
        .into_iter()
        .map(|(_, cfg)| cfg)
        .collect();
    // 76.8 bytes per cycle in 64-byte bursts: 5/6 of a cycle each.
    out.push(
        SimConfig::default()
            .with_clock_mhz(250.0)
            .with_dram_gbps(19.2)
            .with_burst_bytes(64),
    );
    out
}

#[test]
fn random_dram_free_nests_agree_with_stepping_at_any_budget() {
    Check::new("random_dram_free_nests_agree_with_stepping_at_any_budget")
        .cases(128)
        .run_shrink(
            |rng| gen_nest(rng, 3),
            shrink_nest,
            |nest| {
                let design = nest_design(nest);
                for cfg in nest_substrates() {
                    let free = simulate(&design, &cfg);
                    same(
                        "unbounded",
                        &free,
                        &simulate_stepping(&design, &cfg, &FaultConfig::none()),
                    )?;
                    // The same run cut off around its end and halfway:
                    // the advance must stop where stepping trips.
                    let Ok(report) = free else { continue };
                    for budget in [report.cycles / 2, report.cycles - 1, report.cycles] {
                        let cfg = cfg.clone().with_cycle_budget(budget.max(1));
                        same(
                            &format!("budget {budget}"),
                            &simulate(&design, &cfg),
                            &simulate_stepping(&design, &cfg, &FaultConfig::none()),
                        )?;
                    }
                }
                Ok(())
            },
        );
}

// --------------------------------------------------------------------
// Watchdog parity
// --------------------------------------------------------------------

fn vector(name: &str, elems: u64) -> Node {
    Node::Unit(Unit {
        name: name.into(),
        kind: UnitKind::Vector { lanes: 1 },
        elems,
        ops_per_elem: 1,
        depth: 3,
        streams: vec![],
        reads: vec![],
        writes: vec![],
    })
}

fn looped(kind: CtrlKind, iters: u64, stages: Vec<Node>) -> Design {
    Design {
        name: "loop".into(),
        style: DesignStyle::Metapipelined,
        root: Node::Ctrl(Ctrl {
            name: "root".into(),
            kind,
            iters,
            stages,
        }),
        buffers: vec![],
    }
}

#[test]
fn a_loop_crossing_the_cycle_budget_fails_as_stepping_does() {
    let d = looped(
        CtrlKind::Metapipeline,
        100_000,
        vec![vector("a", 9), vector("b", 2)],
    );
    let unbounded = check("unbounded", &d, &SimConfig::default(), &FaultConfig::none())
        .expect("in budget by default");
    for budget in [1, 1000, unbounded.cycles - 1] {
        let cfg = SimConfig::default().with_cycle_budget(budget);
        let got = check(&format!("budget {budget}"), &d, &cfg, &FaultConfig::none());
        assert_eq!(
            got,
            Err(SimError::BudgetExceeded {
                what: "cycle budget",
                budget
            })
        );
    }
    let exact = SimConfig::default().with_cycle_budget(unbounded.cycles);
    assert_eq!(
        check("exact budget", &d, &exact, &FaultConfig::none()),
        Ok(unbounded)
    );
}

#[test]
fn a_loop_past_the_event_cap_still_trips_the_event_watchdog() {
    // 30 M unit invocations stepped, one cycle each; the cap is 20 M
    // events.
    let d = looped(CtrlKind::Sequential, 30_000_000, vec![vector("a", 1)]);
    let tripped = |what: &'static str, cfg: SimConfig| {
        let got = check(what, &d, &cfg, &FaultConfig::none());
        match got {
            Err(SimError::BudgetExceeded { what: w, .. }) if w == what => {}
            other => panic!("expected the {what} to trip, got {other:?}"),
        }
    };
    tripped("event watchdog", SimConfig::default());
    // Both limits in reach: whichever stepping meets first wins.
    tripped(
        "event watchdog",
        SimConfig::default().with_cycle_budget(25_000_000),
    );
    tripped(
        "cycle budget",
        SimConfig::default().with_cycle_budget(10_000_000),
    );
}

/// A substrate moving 2^20 one-byte bursts per cycle: a five-byte
/// transfer takes 5 x 2^-20 cycles, the finest time on the grid.
fn finest_grid_substrate() -> SimConfig {
    let cfg = SimConfig {
        word_bytes: 1,
        ..SimConfig::default()
            .with_dram_gbps(157_286.4)
            .with_burst_bytes(1)
    };
    assert_eq!(cfg.bytes_per_cycle(), f64::from(1u32 << 20));
    cfg
}

fn five_byte(kind: UnitKind, name: &str, write: bool) -> Node {
    Node::Unit(Unit {
        name: name.into(),
        kind,
        elems: 5,
        ops_per_elem: 0,
        depth: 0,
        streams: vec![DramStream {
            words: 5,
            run_words: 5,
            prefetch: true,
            write,
        }],
        reads: vec![],
        writes: vec![],
    })
}

/// Past 2^32 `f64` drops low grid bits, and stepping rounds at every
/// add where one closed-form add rounds once: by 2^35 the two differ
/// (5 x 2^-20 steps to 0, jumps to 8 x 2^-20). The advance has to stop
/// at 2^32, for times and for `busy_cycles` sums each on their own.
#[test]
fn times_and_busy_sums_past_the_exact_range_are_stepped() {
    let cfg = finest_grid_substrate();
    let units = |name: &dyn Fn(u32) -> String, elems| -> Vec<Node> {
        (0..16).map(|i| vector(&name(i), elems)).collect()
    };
    // Sixteen stats in sequence from 60 + 5 x 2^-20, where the load ends:
    // the time passes 2^35 with every busy sum still under 2^32.
    let load = five_byte(UnitKind::TileLoad { buf: BufId(0) }, "load", false);
    let long = Ctrl {
        name: "long".into(),
        kind: CtrlKind::Sequential,
        iters: 5000,
        stages: units(&|i| format!("a{i}"), 1 << 19),
    };
    let fractional_times = looped(CtrlKind::Sequential, 1, vec![load, Node::Ctrl(long)]);
    // Sixteen units in parallel on the stat of a posted store that was
    // busy for 5 x 2^-20: the sum passes 2^35 with the time (whole
    // cycles: the hand-off takes 4) still under 2^32.
    let store = five_byte(UnitKind::TileStore { buf: BufId(0) }, "s", true);
    let wide = Ctrl {
        name: "wide".into(),
        kind: CtrlKind::Parallel,
        iters: 500,
        stages: units(&|_| "s".into(), 1 << 23),
    };
    let fractional_busy = looped(CtrlKind::Sequential, 1, vec![store, Node::Ctrl(wide)]);
    let past = |x: f64| x > f64::from(1u32 << 31) * 16.0;
    let r = check(
        "fractional times",
        &fractional_times,
        &cfg,
        &FaultConfig::none(),
    )
    .expect("in the default budget");
    assert!(past(r.cycles as f64) && !r.stages.iter().any(|s| past(s.busy_cycles)));
    let r = check(
        "fractional busy sum",
        &fractional_busy,
        &cfg,
        &FaultConfig::none(),
    )
    .expect("in the default budget");
    assert!(r.cycles < 1 << 32 && r.stages.iter().any(|s| past(s.busy_cycles)));
}

#[test]
fn trip_counts_past_the_exact_range_fall_back() {
    // 2^33 iterations of a nested 4-iteration loop: the inner loop is too
    // short to advance, the outer advance is cut at the event cap, and the
    // run ends as stepping ends it.
    let inner = Node::Ctrl(Ctrl {
        name: "inner".into(),
        kind: CtrlKind::Sequential,
        iters: 4,
        stages: vec![vector("a", 1)],
    });
    let d = looped(CtrlKind::Metapipeline, 1 << 33, vec![inner]);
    let got = check(
        "2^33 iterations",
        &d,
        &SimConfig::default(),
        &FaultConfig::none(),
    );
    assert!(
        matches!(
            got,
            Err(SimError::BudgetExceeded {
                what: "event watchdog",
                ..
            })
        ),
        "{got:?}"
    );
}
