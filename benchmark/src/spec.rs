//! The benchmark's definition as data: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is generated from these tables
//! (`describe`), the runner looks units up here, and a smoke test compares
//! the committed file with the generated one, so the three cannot drift.

/// Seconds of timed work the base op counts below are sized for.
pub const BASE_SECONDS: u64 = 15;

/// The seed held out from development; a claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 2;

/// One workload.
pub struct WorkloadSpec {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// What one counted op is.
    pub op: &'static str,
    /// Repetitions of the workload's unit at `--seconds 15`.
    pub base_units: u64,
    /// Ops per unit (exact).
    pub ops_per_unit: u64,
    /// The unit the run repeats (and the segments are made of).
    pub unit: &'static str,
    /// Fewest units any scale runs.
    pub min_units: u64,
    /// What `--seed` draws.
    pub seeded: &'static str,
    /// How often set-up is repeated in a run (`setup_s` is the fastest).
    pub setup_reps: u64,
    /// Share of the segments, counted from the fastest, passed over before
    /// the one whose figures are reported (`harness::Timed::rates`).
    pub skip_fastest: f64,
    /// Why the workload exists.
    pub why: &'static str,
}

impl WorkloadSpec {
    /// Units run at `scale` (`--seconds / 15`); a traced run halves the
    /// count because it runs the units twice, untraced and traced.
    #[must_use]
    pub fn units(&self, scale: f64, traced: bool) -> u64 {
        let scaled = (self.base_units as f64 * scale).round() as u64;
        let n = if traced { scaled / 2 } else { scaled };
        n.max(self.min_units)
    }

    /// The one line `BENCHMARK.json` carries for the workload: why it was
    /// chosen, its op, its op count at the base scale and what the seed
    /// draws (the file format has no other place for them).
    #[must_use]
    pub fn why_line(&self) -> String {
        format!(
            "{}. Op: {}; {} x {} ({}). Seed: {}.",
            self.why, self.op, self.base_units, self.ops_per_unit, self.unit, self.seeded
        )
    }
}

/// The six workloads.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "compile_suite",
        op: ".ppl text to verified, sized design",
        base_units: 800,
        ops_per_unit: 54,
        unit: "pass: 6 programs x (baseline + 4 draws x 2 levels)",
        min_units: 5,
        seeded: "tile draws",
        setup_reps: 8,
        skip_fastest: 0.0,
        why: "frontend, transform, hw and verify do all the work, sim none",
    },
    WorkloadSpec {
        name: "dse_cold_gemm",
        op: "candidate resolved",
        base_units: 26,
        ops_per_unit: 384,
        unit: "exhaustive gemm 128^3 sweep, fresh caches, 1 thread",
        min_units: 1,
        seeded: "check inputs only",
        setup_reps: 8,
        skip_fastest: 0.0,
        why: "the heavy case: sim is >=90% of the time, caches only written",
    },
    WorkloadSpec {
        name: "dse_warm_replay",
        op: "candidate resolved from a loaded cache",
        base_units: 500,
        ops_per_unit: 672,
        unit: "replay: load cache, explore 6 spaces, 6 reports",
        min_units: 5,
        seeded: "check inputs only",
        setup_reps: 1,
        skip_fastest: 0.0,
        why: "every evaluation hits: enumeration, lookup, Pareto, report; no sim",
    },
    WorkloadSpec {
        name: "dse_guided_big",
        op: "enumerated candidate accounted for",
        base_units: 60,
        ops_per_unit: 131_072,
        unit: "guided search 64/192/16, sumrows 1024x256",
        min_units: 2,
        seeded: "guided seeds, first 16 fixed",
        setup_reps: 6,
        skip_fastest: 0.0,
        why: "ranking 131072 points by cost model is over half; ~270 simulated",
    },
    WorkloadSpec {
        name: "sim_faulted",
        op: "Figure 7 design simulated under DRAM faults",
        base_units: 150,
        ops_per_unit: 18,
        unit: "pass over the 18 designs",
        min_units: 5,
        seeded: "fault schedules",
        setup_reps: 8,
        skip_fastest: 0.0,
        why: "the simulator's stepping path: a fast-forward gain that taxes stepping shows here",
    },
    WorkloadSpec {
        name: "serve_mix",
        op: "request answered by the daemon",
        base_units: 50_000,
        ops_per_unit: 16,
        unit: "batch; closed loop, 2 connections, depth 16",
        min_units: 40,
        seeded: "request mix",
        setup_reps: 8,
        skip_fastest: 0.1,
        why: "97% memo hits (json, protocol, wire), 3% never-seen simulates that really run",
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric that repeats exactly gets this bound: any worsening at all is
/// a regression. (Written as a positive number so a reader that requires
/// `bound > 0` accepts the file.)
pub const EXACT: f64 = 1e-9;

/// One end-to-end metric.
pub struct E2eSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
///
/// The issue proposed 8% for `ops_per_s` and 10% for the latencies. This
/// sandbox runs at one of two speeds about 30% apart, changes between
/// them on its own, and has loaded spells lasting minutes: ten runs of one
/// binary spread 0.5-9% on the timed metrics in a calm spell and up to 24%
/// in a loaded one (README, "How steady the numbers are"), and the
/// benchmark's contract refuses a bound narrower than the spread. A bound
/// belongs to a metric, not to a workload, so the timed metrics carry the
/// widest bound the contract allows.
///
/// `ok_share` is the issue's `fail_share` turned round (`1 - fail_share`),
/// because a bounded metric may never read 0 and `fail_share` always
/// does.
pub const END_TO_END: [E2eSpec; 8] = [
    E2eSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2eSpec {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eSpec {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: EXACT,
    },
    E2eSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    E2eSpec {
        name: "design_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: EXACT,
    },
    E2eSpec {
        name: "fig7_logerr",
        unit: "ratio",
        better: Better::Lower,
        bound: EXACT,
    },
];

/// One per-layer metric; the part of the name before the dot is the layer.
pub struct LayerSpec {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of the traced run. Every traced run prints all
/// of them; a layer the workload does not call reads 0.
pub const PER_LAYER: [LayerSpec; 56] = [
    lower("frontend.parse_ns_per_op", "ns"),
    higher("frontend.bytes_per_s", "B/s"),
    lower("frontend.self_share", "ratio"),
    lower("transform.tile_ns_per_op", "ns"),
    lower("transform.ir_bytes_out", "B"),
    lower("transform.self_share", "ratio"),
    lower("hw.generate_ns_per_op", "ns"),
    lower("hw.area_ns_per_op", "ns"),
    lower("hw.units_out", "count"),
    lower("hw.buffers_out", "count"),
    lower("hw.self_share", "ratio"),
    lower("verify.program_ns_per_op", "ns"),
    lower("verify.design_ns_per_op", "ns"),
    lower("verify.diagnostics", "count"),
    lower("verify.self_share", "ratio"),
    lower("core.compile_ns_per_op", "ns"),
    lower("core.compile_self_ns_per_op", "ns"),
    lower("core.self_share", "ratio"),
    lower("sim.simulate_ns_per_op", "ns"),
    lower("sim.host_ns_per_kcycle", "ns"),
    lower("sim.cycles_total", "cycles"),
    lower("sim.dram_words_total", "words"),
    lower("sim.faulted_ns_per_op", "ns"),
    lower("sim.fault_retries", "count"),
    lower("sim.self_share", "ratio"),
    lower("dse.evaluate_ns_per_point", "ns"),
    lower("dse.engine_self_ns_per_point", "ns"),
    higher("dse.cache_hits", "count"),
    lower("dse.cache_misses", "count"),
    lower("dse.design_builds", "count"),
    higher("dse.design_reuses", "count"),
    higher("dse.pruned", "count"),
    lower("dse.simulated", "count"),
    lower("dse.simulated_frac", "ratio"),
    lower("dse.cache_load_ns", "ns"),
    lower("dse.cache_save_ns", "ns"),
    lower("dse.report_json_ns", "ns"),
    lower("dse.model_rank_ns_per_point", "ns"),
    lower("dse.guided_winner_cycles", "cycles"),
    higher("dse.pool_speedup_t2", "ratio"),
    lower("dse.self_share", "ratio"),
    lower("server.json_parse_ns_per_req", "ns"),
    lower("server.handle_hot_ns_per_req", "ns"),
    lower("server.handle_unique_ns_per_req", "ns"),
    lower("server.wire_ns_per_req", "ns"),
    higher("server.dedup_hits", "count"),
    lower("server.dedup_builds", "count"),
    lower("server.design_builds", "count"),
    lower("server.eval_misses", "count"),
    lower("server.overload_sheds", "count"),
    lower("server.errors", "count"),
    lower("server.unique_time_share", "ratio"),
    lower("server.self_share", "ratio"),
    lower("bench.self_share", "ratio"),
    lower("trace.spans", "count"),
    lower("trace_overhead", "ratio"),
];

/// Unit of a metric of either kind.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The benchmark's own directory, relative to the repository root.
pub const PATH: &str = "benchmark";

/// The command the driver runs from the repository root (it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn quoted(s: &str) -> String {
    pphw_server::json::escape(s)
}

/// Renders `BENCHMARK.json`.
#[must_use]
pub fn describe() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(&w.why_line())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.word()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {BASE_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        quoted(PATH),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_file_format_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            let why = w.why_line();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert!(names.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(describe().len() <= 64 * 1024);
    }

    #[test]
    fn describe_is_json_with_exactly_the_contract_keys() {
        let v = pphw_server::json::parse_json(&describe()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(v.get("workloads").unwrap().as_arr().unwrap().len(), 6);
    }

    #[test]
    fn traced_runs_halve_the_units_and_respect_the_floor() {
        let w = workload("sim_faulted").unwrap();
        assert_eq!(w.units(1.0, false), 150);
        assert_eq!(w.units(1.0, true), 75);
        assert_eq!(w.units(0.01, false), 5);
        assert_eq!(workload("dse_cold_gemm").unwrap().units(1.0, true), 13);
        assert_eq!(workload("dse_cold_gemm").unwrap().units(0.01, true), 1);
    }
}
