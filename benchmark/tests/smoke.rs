//! Every workload at 1/100 scale: all named metrics are present, finite
//! and carry a unit; the correctness checks fire on a deliberately wrong
//! expected value; exact metrics and counters repeat across two runs and
//! across tracing on/off; and `BENCHMARK.json` is what `describe` prints.

use std::path::PathBuf;

use pphw_benchmark::harness::{Params, RunResult};
use pphw_benchmark::spec::{self, END_TO_END, EXACT, PER_LAYER};
use pphw_benchmark::workloads;
use pphw_server::json::{parse_json, Json};

fn params(trace: bool, sabotage: bool) -> Params {
    Params {
        seed: 1,
        scale: 0.01,
        trace,
        sabotage,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    }
}

fn run(workload: &str, trace: bool, sabotage: bool) -> RunResult {
    workloads::run(workload, &params(trace, sabotage)).expect("a workload of the spec")
}

/// The printed result line carries exactly the named metrics, each a
/// finite number with the unit the spec gives it.
fn assert_result_line(r: &RunResult, names: &[(&str, &str)]) {
    let line = r.result_line();
    let v = parse_json(&line).unwrap_or_else(|e| panic!("{}: {e}: {line}", r.workload));
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = v.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(metrics.len(), names.len(), "{}: {line}", r.workload);
    for (name, unit) in names {
        let m = v
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{}: {name} is missing", r.workload));
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{}: {name} = {value}", r.workload);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
    }
}

/// Per-layer metrics that count rather than time.
fn counters(r: &RunResult) -> Vec<(&'static str, f64)> {
    let layers = r.layers.as_ref().expect("a traced run");
    PER_LAYER
        .iter()
        .filter(|m| ["count", "cycles", "words", "B"].contains(&m.unit))
        .map(|m| (m.name, layers[m.name]))
        .collect()
}

fn exact_e2e(r: &RunResult) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .filter(|m| m.bound <= EXACT)
        .map(|m| (m.name, r.e2e[m.name]))
        .collect()
}

fn smoke(workload: &str) {
    let e2e_names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layer_names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();

    let plain = run(workload, false, false);
    assert!(plain.correct(), "{}", plain.to_text());
    assert_result_line(&plain, &e2e_names);
    for m in &END_TO_END {
        assert!(plain.e2e[m.name] > 0.0, "{workload}: {} is never 0", m.name);
    }
    assert!(plain.to_text().contains("fail_share"));

    let traced = run(workload, true, false);
    assert!(traced.correct(), "{}", traced.to_text());
    assert_result_line(&traced, &layer_names);
    let layers = traced.layers.as_ref().unwrap();
    assert!(layers["trace_overhead"] > 0.0 && layers["trace.spans"] > 0.0);
    assert!(
        params(true, false)
            .out_dir
            .join(format!("{workload}.trace.jsonl"))
            .is_file(),
        "{workload}: no span file"
    );

    // Exact values repeat: run against run, and traced against untraced.
    let again = run(workload, true, false);
    assert_eq!(
        counters(&traced),
        counters(&again),
        "{workload}: a counter moved"
    );
    assert_eq!(traced.attempted, again.attempted);
    assert_eq!(exact_e2e(&traced), exact_e2e(&again));
    assert_eq!(
        exact_e2e(&plain),
        exact_e2e(&traced),
        "{workload}: tracing changed a result"
    );

    // A wrong expected value must fail the run.
    let sabotaged = run(workload, false, true);
    assert!(
        sabotaged.failed >= 1 && !sabotaged.correct(),
        "{workload}: the checks did not fire"
    );
    assert!(sabotaged.result_line().contains("\"correct\": false"));
}

#[test]
fn compile_suite_smoke() {
    smoke("compile_suite");
}

#[test]
fn dse_cold_gemm_smoke() {
    smoke("dse_cold_gemm");
}

#[test]
fn dse_warm_replay_smoke() {
    smoke("dse_warm_replay");
}

#[test]
fn dse_guided_big_smoke() {
    smoke("dse_guided_big");
}

#[test]
fn sim_faulted_smoke() {
    smoke("sim_faulted");
}

#[test]
fn serve_mix_smoke() {
    smoke("serve_mix");
}

#[test]
fn benchmark_json_is_what_describe_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        committed,
        spec::describe(),
        "BENCHMARK.json is stale: regenerate it with `pphw-benchmark describe`"
    );
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(workloads::run("no_such_workload", &params(false, false)).is_none());
}
