//! Cross-checks between the static dataflow-balance analyzer
//! (`pphw-verify::flow`) and the cycle simulator, over all six
//! benchmarks:
//!
//! - every generated design is flow-clean at every optimization level;
//! - the statically predicted bottleneck stage (`predict_bottleneck`)
//!   is the stage the simulator reports as busiest;
//! - the generator's channel depths are already the inferred minimum
//!   (`infer_capacities` is the identity), and doubling every channel
//!   depth buys zero cycles — the minimal sizing is perf-neutral;
//! - shrinking any channel below the inferred minimum is flagged
//!   statically (`PPHW041`/`PPHW042`) and never helps dynamically: the
//!   simulation stalls (strictly more cycles) or deadlocks outright.

use pphw::{compile, flow_timing, OptLevel};
use pphw_apps::all_benchmarks;
use pphw_hw::channel::channels;
use pphw_sim::{SimConfig, SimError};
use pphw_verify::flow::{infer_capacities, predict_bottleneck, scale_capacities};
use pphw_verify::{verify_design, DiagCode, VerifyConfig};

#[test]
fn every_benchmark_design_is_flow_clean_at_every_level() {
    for spec in all_benchmarks() {
        for level in OptLevel::all() {
            let opts = spec.options().opt(level);
            let compiled = compile(&(spec.program)(), &opts).expect("compiles");
            let report = verify_design(&compiled.design, &VerifyConfig::default());
            assert!(
                report.is_clean(),
                "{} [{level}] not flow-clean: {:?}",
                spec.name,
                report.diagnostics
            );
        }
    }
}

/// The simulator's busiest stage: max total busy cycles, first by name
/// on exact ties (stage stats arrive sorted by name), mirroring the
/// predictor's tie-break.
fn sim_busiest(report: &pphw_sim::SimReport) -> Option<String> {
    report
        .stages
        .iter()
        .reduce(|best, s| {
            if s.busy_cycles > best.busy_cycles {
                s
            } else {
                best
            }
        })
        .map(|s| s.name.clone())
}

#[test]
fn predicted_bottleneck_matches_simulator_busiest_stage() {
    for spec in all_benchmarks() {
        for level in OptLevel::all() {
            let opts = spec.options().opt(level);
            let compiled = compile(&(spec.program)(), &opts).expect("compiles");
            let sim = SimConfig::default();
            let report = compiled.simulate(&sim).expect("simulates");
            let predicted = predict_bottleneck(&compiled.design, &flow_timing(&sim));
            assert_eq!(
                predicted,
                sim_busiest(&report),
                "{} [{level}]: static bottleneck prediction disagrees with simulation",
                spec.name
            );
        }
    }
}

#[test]
fn generated_depths_are_minimal_and_doubling_them_buys_nothing() {
    for spec in all_benchmarks() {
        let opts = spec.options().opt(OptLevel::Metapipelined);
        let compiled = compile(&(spec.program)(), &opts).expect("compiles");
        assert!(
            !channels(&compiled.design).is_empty(),
            "{}: metapipelined design should expose channels",
            spec.name
        );

        // The generator already sizes every channel at the inferred
        // minimum: capacity inference is the identity.
        let mut inferred = compiled.design.clone();
        let changes = infer_capacities(&mut inferred);
        assert!(
            changes.is_empty(),
            "{}: infer_capacities changed depths: {changes:?}",
            spec.name
        );

        // Doubling every channel depth must be cycle-identical: minimal
        // capacities already sustain full overlap.
        let mut doubled = compiled.design.clone();
        let grown = scale_capacities(&mut doubled, 2000);
        assert!(
            !grown.is_empty(),
            "{}: scaling should grow buffers",
            spec.name
        );
        let base = compiled.simulate(&SimConfig::default()).expect("simulates");
        let big = pphw_sim::simulate(&doubled, &SimConfig::default()).expect("simulates");
        assert_eq!(
            base.cycles, big.cycles,
            "{}: 2x channel depths changed cycle count — minimal sizing was not safe",
            spec.name
        );
        assert_eq!(
            base.stages, big.stages,
            "{}: stage stats diverged",
            spec.name
        );
    }
}

#[test]
fn undersized_channels_are_flagged_statically_and_stall_dynamically() {
    for spec in all_benchmarks() {
        let opts = spec.options().opt(OptLevel::Metapipelined);
        let compiled = compile(&(spec.program)(), &opts).expect("compiles");
        let base = compiled.simulate(&SimConfig::default()).expect("simulates");
        let mut strictly_worse = 0usize;
        for ch in channels(&compiled.design) {
            let mut mutant = compiled.design.clone();
            let words = mutant.buffer(ch.buf).words;
            mutant.buffers[ch.buf.0].words = words - 1;

            // Statically: one word below capacity drops the channel to a
            // single slot (stall) or zero slots (deadlock).
            let report = verify_design(&mutant, &VerifyConfig::default());
            assert!(
                report.has(DiagCode::ChannelStall) || report.has(DiagCode::ChannelDeadlock),
                "{} channel {}/{} shrunk {}w -> {}w: no PPHW041/PPHW042 raised ({:?})",
                spec.name,
                ch.ctrl,
                ch.buf_name,
                words,
                words - 1,
                report.diagnostics
            );

            // Dynamically: never faster; usually strictly slower, or an
            // outright simulated deadlock for zero-slot channels.
            match pphw_sim::simulate(&mutant, &SimConfig::default()) {
                Ok(r) => {
                    assert!(
                        r.cycles >= base.cycles,
                        "{} channel {}/{}: undersizing sped up the design?",
                        spec.name,
                        ch.ctrl,
                        ch.buf_name
                    );
                    if r.cycles > base.cycles {
                        strictly_worse += 1;
                    }
                }
                Err(SimError::ChannelDeadlock { .. }) => {
                    assert!(
                        report.has(DiagCode::ChannelDeadlock),
                        "{} channel {}/{}: dynamic deadlock not predicted statically",
                        spec.name,
                        ch.ctrl,
                        ch.buf_name
                    );
                    strictly_worse += 1;
                }
                Err(e) => panic!("{} channel {}/{}: {e}", spec.name, ch.ctrl, ch.buf_name),
            }
        }
        assert!(
            strictly_worse > 0,
            "{}: no undersized channel bound in simulation",
            spec.name
        );
    }
}
