//! `sim_faulted`: the simulator on its stepping path. The 18 Figure 7
//! designs are compiled in set-up; one op simulates one of them under
//! seeded DRAM latency jitter, bandwidth-degradation windows and transient
//! burst failures, none of which a periodic-schedule shortcut can skip.

use std::ops::Range;
use std::time::Instant;

use pphw_sim::{FaultConfig, SimConfig};
use pphw_testkit::rng::splitmix64;

use crate::fixture::{self, geomean, Fig7};
use crate::harness::{blocks, mix, Checks, Params, RunResult, Setups, Timed};
use crate::layers::{self, ns_per_op};
use crate::spec;
use crate::trace::{span, Tracer};

/// Fault seed of the reference schedule `design_cycles` is measured
/// under (the `faults` driver's default), so that it repeats for every
/// `--seed`.
const REFERENCE_FAULT_SEED: u64 = 0xFA17;

/// The `faults` driver's configuration at its middle failure rate.
fn faults(seed: u64) -> FaultConfig {
    FaultConfig::none()
        .with_seed(seed)
        .with_latency_jitter(16)
        .with_degradation(4096, 512, 1.5)
        .with_burst_fail_rate(0.05)
        .with_retry(4, 16)
}

struct State {
    fig7: Fig7,
    /// Geomean of the 18 designs' cycles under the reference schedule.
    reference_cycles: f64,
}

fn setup(p: &Params, checks: &mut Checks) -> State {
    let fig7 = fixture::build(p.seed, checks);
    let sim = SimConfig::default();
    let mut cycles = Vec::with_capacity(18);
    for d in &fig7.designs {
        let what = || format!("{} at {}", d.bench, d.level);
        let inert = d
            .compiled
            .simulate_with_faults(&sim, &FaultConfig::none().with_seed(p.seed));
        checks.eq(
            &format!("{}: zero-fault run", what()),
            inert.map_or(0, |r| r.cycles),
            d.cycles,
        );
        let reference = faults(REFERENCE_FAULT_SEED);
        let first = d.compiled.simulate_with_faults(&sim, &reference);
        let second = d.compiled.simulate_with_faults(&sim, &reference);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                checks.that(a == b, || {
                    format!("{}: same fault seed, two reports", what())
                });
                checks.that(a.cycles >= d.cycles, || {
                    format!("{}: faults sped the design up", what())
                });
                cycles.push(a.cycles);
            }
            _ => checks.that(false, || format!("{}: faulted simulation failed", what())),
        }
    }
    State {
        reference_cycles: geomean(cycles),
        fig7,
    }
}

/// The passes of one kind (untraced or traced) of a run, resumable block
/// by block, with their exact counters.
struct Passes {
    timed: Timed,
    ops: u64,
    failed: u64,
    cycles: u64,
    dram_words: u64,
    retries: u64,
}

impl Passes {
    fn new(st: &State, passes: u64) -> Passes {
        Passes {
            timed: Timed::new(passes, "faulted simulation", st.reference_cycles),
            ops: 0,
            failed: 0,
            cycles: 0,
            dram_words: 0,
            retries: 0,
        }
    }

    fn go(&mut self, st: &State, p: &Params, passes: Range<u64>, tracer: Option<&Tracer>) {
        let sim = SimConfig::default();
        for pass in passes {
            // A fresh fault schedule per pass, all drawn from `--seed`.
            let cfg = faults(splitmix64(
                p.seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            let mut latencies = Vec::with_capacity(18);
            let t_pass = Instant::now();
            for d in &st.fig7.designs {
                let op = self.ops;
                let t = Instant::now();
                let report = span(tracer, None, op, "bench.op", |me| {
                    span(tracer, me, op, "sim.faulted", |_| {
                        d.compiled.simulate_with_faults(&sim, &cfg)
                    })
                });
                latencies.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                match report {
                    Ok(r) if r.cycles >= d.cycles => {
                        mix(&mut self.timed.digest, r.cycles);
                        self.cycles += r.cycles;
                        self.dram_words += r.dram_words;
                        self.retries += r.faults.retries;
                    }
                    _ => self.failed += 1,
                }
                self.ops += 1;
            }
            let secs = t_pass.elapsed().as_secs_f64();
            self.timed
                .record(pass, latencies.len() as u64, secs, latencies);
        }
    }
}

/// Runs the workload.
#[must_use]
pub fn run(p: &Params) -> RunResult {
    let w = spec::workload("sim_faulted").expect("sim_faulted is in the spec");
    let passes = p.units(w);
    let mut checks = Checks::new(p.sabotage);
    let mut setups = Setups::new(w.setup_reps, passes);
    let st = setups.time(|| setup(p, &mut checks));
    let mut plain = Passes::new(&st, passes);
    let mut traced = p.trace.then(|| (Passes::new(&st, passes), Tracer::new()));
    for (i, block) in (0..).zip(blocks(passes)) {
        setups.between(i, || setup(p, &mut Checks::default()));
        plain.go(&st, p, block.clone(), None);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(&st, p, block, Some(tracer));
        }
    }
    checks.ops(plain.ops, plain.failed);
    let mut result = RunResult::from_timed(w, passes, setups.fastest(), &plain.timed);
    result.fig7_logerr(st.fig7.logerr);
    if let Some((traced, tracer)) = traced {
        checks.ops(traced.ops, traced.failed);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        let unit_spans = tracer.len();
        // One fault-free pass, for the stepping path's cost next to the
        // plain path's on the same designs.
        let sim = SimConfig::default();
        for d in &st.fig7.designs {
            let clean = span(Some(&tracer), None, 0, "sim.simulate", |_| {
                d.compiled.simulate(&sim)
            });
            checks.eq(
                &format!("{} at {}: fault-free cycles", d.bench, d.level),
                clean.map_or(0, |r| r.cycles),
                d.cycles,
            );
        }
        let spans = tracer.into_spans();
        let (mut l, totals, _) =
            layers::from_spans(&spans, unit_spans, &traced.timed, &plain.timed);
        l.insert("sim.faulted_ns_per_op", ns_per_op(&totals, "sim.faulted"));
        l.insert("sim.simulate_ns_per_op", ns_per_op(&totals, "sim.simulate"));
        l.insert(
            "sim.host_ns_per_kcycle",
            totals["sim.faulted"].total_ns as f64 / (traced.cycles as f64 / 1e3),
        );
        l.insert("sim.cycles_total", traced.cycles as f64);
        l.insert("sim.dram_words_total", traced.dram_words as f64);
        l.insert("sim.fault_retries", traced.retries as f64);
        result.layers = Some(l);
        result.notes.push(
            "sim.cycles_total, sim.dram_words_total and sim.host_ns_per_kcycle are of the faulted simulations"
                .to_string(),
        );
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    result.absorb(checks);
    result
}
