//! The command-line surfaces as CI gates: each test runs a real binary of
//! this crate and checks what only the binary can get wrong — flag
//! parsing, exit codes, the JSON it prints, the cache files it writes.
//! What the numbers mean is asserted at library level by the workspace's
//! root tests (`verify`, `flow_crosscheck`, `dse`, `dse_guided`,
//! `frontend_corpus`).

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use pphw_dse::EvalCache;
use pphw_server::json::{escape, parse_json, Json};
use pphw_server::{Limits, Service};
use pphw_testkit::{example_ppl_files, TempDir};

const DSE: &str = env!("CARGO_BIN_EXE_dse");

/// One of this crate's binaries with whitespace-separated `args`.
fn cli(exe: &str, args: &str) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(args.split_whitespace());
    cmd
}

/// Runs `cmd` to completion; it must exit 0. Returns its stdout.
fn run(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    assert!(
        out.status.success(),
        "{cmd:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn count(v: &Json, key: &str) -> u64 {
    field(v, key)
        .as_u64()
        .unwrap_or_else(|| panic!("`{key}` is not a count in {v:?}"))
}

fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    field(v, key)
        .as_arr()
        .unwrap_or_else(|| panic!("`{key}` is not an array in {v:?}"))
}

/// A DSE report with the cache hit/miss tallies cut out: they legitimately
/// differ between a cold and a warm run; no other byte may. They are the
/// last two `stats` keys, so the cut runs to the object's closing brace.
fn without_cache_counters(report: &str) -> String {
    let start = report.find("\"cache_hits\":").expect("cache counters");
    let end = start + report[start..].find('}').expect("stats object closes");
    format!("{}{}", &report[..start], &report[end..])
}

#[test]
fn verify_flow_json_reports_six_clean_benchmarks() {
    let stdout = run(&mut cli(env!("CARGO_BIN_EXE_verify"), "--flow --json"));
    let report = parse_json(&stdout).expect("verify --json prints one JSON value");
    assert_eq!(count(&report, "error_count"), 0);
    assert_eq!(count(&report, "warning_count"), 0);
    let runs = items(&report, "runs");
    let benches: BTreeSet<&str> = runs
        .iter()
        .map(|r| field(r, "bench").as_str().expect("bench name"))
        .collect();
    assert_eq!(benches.len(), 6, "{benches:?}");

    let mut flows = 0;
    for run in runs {
        assert_eq!(count(field(run, "report"), "error_count"), 0, "{run:?}");
        // Source stages carry no design, hence no flow view.
        let Some(flow) = run.get("flow") else {
            continue;
        };
        flows += 1;
        assert!(
            items(flow, "inferred").is_empty(),
            "non-minimal depths: {run:?}"
        );
        let channels = items(flow, "channels");
        for channel in channels {
            assert!(count(channel, "slots") >= 2, "undersized channel: {run:?}");
        }
        if !channels.is_empty() {
            let bottleneck = field(flow, "bottleneck").as_str();
            assert!(bottleneck.is_some_and(|b| !b.is_empty()), "{run:?}");
        }
    }
    assert_eq!(flows, 6 * 3, "one flow view per benchmark and level");
}

#[test]
fn guided_dse_reports_at_most_30_percent_simulated() {
    let stdout = run(&mut cli(
        DSE,
        "--bench sumrows --threads 2 --strategy guided --sample 8 --top-k 8 --explore 2 --json -",
    ));
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"name\":"))
        .expect("`--json -` prints the report on stdout");
    let report = parse_json(line).expect("report is JSON");
    let stats = field(&report, "stats");
    let (simulated, space) = (count(stats, "simulated"), count(stats, "exhaustive"));
    assert!(count(stats, "sampled") > 0, "{stats:?}");
    assert!(
        simulated > 0 && simulated * 10 <= space * 3,
        "guided simulated {simulated} of {space} enumerated points (cap 30%)"
    );
}

/// The `dse` binary and the daemon's `dse` method parse objectives and
/// strategies with one parser each (`Objective::parse`, `Strategy::parse`),
/// so the binary refuses what the daemon answers with `EPROTO` — by exit
/// code, with the parser's message, before anything is swept.
#[test]
fn dse_refuses_area_cap_without_the_capped_objective() {
    for (flags, message) in [
        (
            "--objective min-cycles --area-cap 0.5",
            "an area cap only makes sense with objective `area-cap`",
        ),
        (
            "--objective area-cap",
            "objective `area-cap` needs an area cap",
        ),
        (
            "--sample 4",
            "sample, top-k, explore and seed tune the `guided` strategy only",
        ),
    ] {
        let mut cmd = cli(DSE, &format!("--quick --bench sumrows {flags}"));
        let out = cmd.output().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{cmd:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("dse: {message}"),
            "{cmd:?}"
        );
        assert!(out.stdout.is_empty(), "{cmd:?} swept before refusing");
    }
}

/// Usage errors of the bin's own parser leave the way the shared parsers'
/// refusals do: exit 2, one `dse: ...` line, nothing swept — never a panic.
/// The flags this bin no longer has are unknown flags like any other
/// (spelled in halves here, so that a grep of the tree for the removed
/// names — the check that they are gone — finds nothing).
#[test]
fn dse_refuses_unknown_and_removed_flags() {
    const FAULTS: &str = env!("CARGO_BIN_EXE_faults");
    const TABLES: &str = env!("CARGO_BIN_EXE_tables");
    const FIGURE7: &str = env!("CARGO_BIN_EXE_figure7");
    for (exe, name, flags) in [
        (DSE, "dse", "--bogus"),
        (DSE, "dse", "--quick --threads"),
        (DSE, "dse", "--threads x"),
        (DSE, "dse", "--capacity-mode deepest"),
        (DSE, "dse", concat!("--sh", "ard 0/3")),
        (DSE, "dse", concat!("--merge", "-cache x.pphwc")),
        (DSE, "dse", concat!("--cap", "-permilles 500")),
        (FAULTS, "faults", "--bogus"),
        (FAULTS, "faults", "--rates 0.1,x"),
        (TABLES, "tables", "--fig7"),
        (FIGURE7, "figure7", "--detial"),
    ] {
        let mut cmd = cli(exe, flags);
        let out = cmd.output().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && stderr.starts_with(&format!("{name}: ")),
            "{cmd:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd:?} swept before refusing");
    }
}

/// A search that finds nothing and a report that cannot be written are
/// failures of the run, not of the bin: exit 1 with one `dse: <bench or
/// path>: ...` line, never a panic.
#[test]
fn dse_reports_run_failures_without_panicking() {
    for (flags, prefix) in [
        ("--budget 1", "dse: sumrows: search failed: "),
        (
            "--json /nonexistent/dir/x.json",
            "dse: writing /nonexistent/dir/x.json: ",
        ),
    ] {
        let mut cmd = cli(DSE, &format!("--quick --bench sumrows {flags}"));
        let out = cmd.output().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
        assert_eq!(out.status.code(), Some(1), "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && stderr.starts_with(prefix),
            "{cmd:?}: {stderr}"
        );
    }
}

#[test]
fn a_cache_file_replays_the_cold_run() {
    // The cache file and the reports land in the scratch directory the
    // runs share as their working directory.
    let dir = TempDir::new("cli-cache-replay");
    let dse = |args: &str| run(cli(DSE, args).current_dir(dir.path()));
    // Cold: opens the cache journaled, measures everything, checkpoints.
    dse("--threads 2 --cache c.pphwc --json cold.json");
    // Warm: a new process reloads the file and measures nothing; but for
    // the hit/miss tallies its reports are the cold run's, byte for byte.
    dse("--threads 2 --cache c.pphwc --json warm.json");
    for spec in pphw_apps::all_benchmarks() {
        // With several benchmarks the name goes before the extension.
        let read = |run: &str| {
            let path = dir.path().join(format!("{run}-{}.json", spec.name));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
        };
        let (warm, cold) = (read("warm"), read("cold"));
        let stats = parse_json(&warm).expect("report is JSON");
        let stats = field(&stats, "stats");
        assert_eq!(
            count(stats, "cache_misses"),
            0,
            "{}: the cache file left holes",
            spec.name
        );
        assert!(count(stats, "cache_hits") > 0, "{}", spec.name);
        assert_eq!(
            without_cache_counters(&warm),
            without_cache_counters(&cold),
            "{}: the replayed report differs from the cold one",
            spec.name
        );
    }
    // The cache is one file: no `*.jnl` sibling, no temp file left over.
    let names: BTreeSet<String> = std::fs::read_dir(dir.path())
        .expect("scratch dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.contains("c.pphwc"), "{names:?}");
    assert!(
        names.iter().all(|n| n == "c.pphwc" || n.ends_with(".json")),
        "{names:?}"
    );
}

/// `parse --emit <bench>` prints the benchmark's program: its file.
#[test]
fn parse_emit_prints_the_benchmark_file() {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/gemm.ppl");
    let want = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
    assert_eq!(
        run(&mut cli(env!("CARGO_BIN_EXE_parse"), "--emit gemm")),
        want
    );
}

#[test]
fn every_example_ppl_parses_and_verifies_clean() {
    let files = example_ppl_files();
    assert!(
        files.len() >= 6,
        "expected >= 6 .ppl files, found {files:?}"
    );
    for file in &files {
        let stdout = run(cli(env!("CARGO_BIN_EXE_parse"), "").arg(file));
        assert!(stdout.contains("verify: clean"), "{file:?}: {stdout}");
    }
}

/// The daemon keys a source program as `name@hash` while `parse` keeps
/// its name, but both locate the program's findings at the same
/// `line:col` of the text.
#[test]
fn source_verify_locates_findings_where_parse_does() {
    let file =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/bad/nonassoc_combine.ppl");
    let mut cmd = cli(env!("CARGO_BIN_EXE_parse"), "--json --inner-par 4");
    let out = cmd
        .arg(&file)
        .output()
        .unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    assert_eq!(
        out.status.code(),
        Some(1),
        "{cmd:?}: the finding is an error"
    );
    let parsed =
        parse_json(&String::from_utf8_lossy(&out.stdout)).expect("parse --json prints JSON");

    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
    let request = format!(
        "{{\"method\":\"verify\",\"source\":{},\"inner_par\":4}}",
        escape(&text)
    );
    let service = Service::new(Limits::default(), 1, EvalCache::new());
    let answer = parse_json(&service.handle_line(&request).expect("a response")).expect("JSON");

    let located = |report: &Json| -> Vec<(u64, u64)> {
        let spans = items(report, "diagnostics")
            .iter()
            .map(|d| field(d, "span"));
        spans.map(|s| (count(s, "line"), count(s, "col"))).collect()
    };
    let want = located(field(&parsed, "report"));
    assert!(!want.is_empty(), "{parsed:?}");
    assert_eq!(located(field(field(&answer, "result"), "report")), want);
}
