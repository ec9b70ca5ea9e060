//! A/A comparison of two sets of runs of the same code (`aa.sh`): every
//! end-to-end metric must agree within its own bound, and everything that
//! is supposed to repeat exactly — `ok_share`, `design_cycles`,
//! `fig7_logerr`, the attempted and failed counts, and every per-layer
//! counter — must. Beside each timed metric stands the spread of each set
//! (interquartile range over median, over the set's seeds); where it is
//! wider than the bound the sets cannot tell a regression of that size
//! from noise, and the row says `unresolved`.

use std::collections::BTreeMap;

use pphw_server::json::{parse_json, Json};

use crate::harness::{median, spread};
use crate::spec::{END_TO_END, EXACT, PER_LAYER};

/// Units of per-layer metrics that count things rather than time them.
const COUNTED: [&str; 4] = ["count", "cycles", "words", "B"];

/// One run as `aa.sh` stores it: `<workload> <0|1> <seed> <result line>`.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs by (workload, traced), then by seed.
type Set = BTreeMap<(String, bool), BTreeMap<u64, Run>>;

fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.splitn(4, ' ');
        let (Some(workload), Some(trace), Some(seed), Some(json)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("not `<workload> <0|1> <seed> <json>`: {line}"));
        };
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("{workload}: seed `{seed}`"))?;
        let v = parse_json(json).map_err(|e| format!("{workload}: {e}"))?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{workload}: no `{key}`"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: no `metrics`"))?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| format!("{workload}: {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        set.entry((workload.to_string(), trace == "1"))
            .or_default()
            .insert(
                seed,
                Run {
                    attempted: count("attempted")?,
                    failed: count("failed")?,
                    metrics,
                },
            );
    }
    Ok(set)
}

/// Appends the row of a value that must repeat exactly, seed by seed (the
/// row shows the first seed's pair that differs, or else the first pair);
/// says whether it did.
fn exact_row(out: &mut String, workload: &str, name: &str, pairs: &[(f64, f64)]) -> bool {
    let differing = pairs.iter().find(|(x, y)| x != y);
    if differing.is_none() && pairs.iter().all(|p| *p == (0.0, 0.0)) {
        // A counter of a layer the workload never calls: no row.
        return true;
    }
    let (x, y) = differing.or(pairs.first()).copied().unwrap_or((0.0, 0.0));
    out.push_str(&format!(
        "{workload:<16} {name:<34} {x:>16.6} {y:>16.6} {:>9} {:>7}{}\n",
        if differing.is_none() { "0" } else { "DIFFERS" },
        "exact",
        if differing.is_none() {
            ""
        } else {
            "  <-- FAIL"
        }
    ));
    differing.is_none()
}

/// Compares two sets; returns the printed table and whether they agree.
/// Timed metrics are compared by their medians over the seeds of a set,
/// as the bounds are meant; exact ones seed by seed.
///
/// # Errors
///
/// Returns a message when a file is not what `aa.sh` writes.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_set(a)?, parse_set(b)?);
    let mut out = format!(
        "{:<16} {:<34} {:>16} {:>16} {:>9} {:>7}  spread of each set\n",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = a.len() == b.len();
    for (key, first) in &a {
        let (workload, traced) = key;
        let second = b.get(key).filter(|s| s.keys().eq(first.keys()));
        let Some(second) = second else {
            out.push_str(&format!(
                "{workload} (trace {traced}): the second set lacks it or ran other seeds\n"
            ));
            ok = false;
            continue;
        };
        let pairs = |f: &dyn Fn(&Run) -> Option<f64>| -> Vec<(f64, f64)> {
            first
                .values()
                .zip(second.values())
                .filter_map(|(x, y)| Some((f(x)?, f(y)?)))
                .collect()
        };
        ok &= exact_row(
            &mut out,
            workload,
            "attempted",
            &pairs(&|r| Some(r.attempted as f64)),
        );
        ok &= exact_row(
            &mut out,
            workload,
            "failed",
            &pairs(&|r| Some(r.failed as f64)),
        );
        ok &= first.values().chain(second.values()).all(|r| r.failed == 0);
        let names: Vec<&String> = first
            .values()
            .next()
            .map_or(Vec::new(), |r| r.metrics.keys().collect());
        for name in names {
            let of = pairs(&|r| r.metrics.get(name).copied());
            if of.len() != first.len() {
                out.push_str(&format!("{workload} {name}: missing from a run\n"));
                ok = false;
                continue;
            }
            let counted = PER_LAYER
                .iter()
                .any(|m| m.name == name.as_str() && COUNTED.contains(&m.unit));
            match END_TO_END.iter().find(|m| m.name == name.as_str()) {
                Some(m) if m.bound > EXACT => {
                    let xs: Vec<f64> = of.iter().map(|p| p.0).collect();
                    let ys: Vec<f64> = of.iter().map(|p| p.1).collect();
                    let (x, y) = (median(&xs), median(&ys));
                    // Either direction: in an A/A test neither set is the parent.
                    let worse = (y / x).max(x / y) - 1.0;
                    let within = worse <= m.bound;
                    ok &= within;
                    let spreads = spread(&xs).zip(spread(&ys));
                    let verdict = match spreads {
                        _ if !within => "  <-- FAIL",
                        Some((a, b)) if a.max(b) > m.bound => "  unresolved",
                        _ => "",
                    };
                    out.push_str(&format!(
                        "{workload:<16} {name:<34} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%  {}{verdict}\n",
                        worse * 100.0,
                        m.bound * 100.0,
                        spreads.map_or("-".to_string(), |(a, b)| format!(
                            "{:.2}% {:.2}%",
                            a * 100.0,
                            b * 100.0
                        )),
                    ));
                }
                Some(_) => ok &= exact_row(&mut out, workload, name, &of),
                None if counted => ok &= exact_row(&mut out, workload, name, &of),
                None => {}
            }
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: u8, ops: f64, cycles: f64) -> String {
        format!(
            "{workload} {trace} 1 {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
             \"design_cycles\": {{\"value\": {cycles}, \"unit\": \"cycles\"}}}}}}\n"
        )
    }

    #[test]
    fn sets_within_bounds_agree_and_sets_outside_do_not() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "ops_per_s")
            .unwrap()
            .bound;
        let a = line("sim_faulted", 0, 100.0, 5.0);
        let near = 100.0 / (1.0 + bound / 2.0);
        let (table, ok) = compare(&a, &line("sim_faulted", 0, near, 5.0)).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains(&format!("{:.2}%", bound * 50.0)), "{table}");
        let far = 100.0 / (1.0 + bound * 2.0);
        let (table, ok) = compare(&a, &line("sim_faulted", 0, far, 5.0)).unwrap();
        assert!(!ok && table.contains("FAIL"), "{table}");
    }

    #[test]
    fn timed_metrics_are_compared_by_their_medians_over_the_seeds() {
        let set = |ops: [f64; 3]| -> String {
            ops.iter()
                .zip(1..)
                .map(|(o, seed)| {
                    line("sim_faulted", 0, *o, 5.0).replacen(" 0 1 ", &format!(" 0 {seed} "), 1)
                })
                .collect()
        };
        // One wild run on each side; the medians are equal.
        let (table, ok) = compare(&set([100.0, 10.0, 101.0]), &set([100.0, 101.0, 900.0])).unwrap();
        assert!(ok, "{table}");
        // Other seeds in the second set: not comparable.
        let other = set([100.0, 100.0, 100.0]).replace(" 0 3 ", " 0 4 ");
        assert!(!compare(&set([100.0, 100.0, 100.0]), &other).unwrap().1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_reported_as_unresolved() {
        let set = |ops: [f64; 4]| -> String {
            ops.iter()
                .zip(1..)
                .map(|(o, seed)| {
                    line("sim_faulted", 0, *o, 5.0).replacen(" 0 1 ", &format!(" 0 {seed} "), 1)
                })
                .collect()
        };
        let (table, ok) = compare(
            &set([100.0, 101.0, 102.0, 103.0]),
            &set([100.0, 60.0, 103.0, 150.0]),
        )
        .unwrap();
        assert!(ok && table.contains("unresolved"), "{table}");
        let (table, ok) = compare(
            &set([100.0, 101.0, 102.0, 103.0]),
            &set([100.5, 101.0, 102.0, 103.0]),
        )
        .unwrap();
        assert!(ok && !table.contains("unresolved"), "{table}");
    }

    #[test]
    fn an_exact_metric_may_not_move_at_all() {
        let a = line("sim_faulted", 0, 100.0, 5.0);
        let (table, ok) = compare(&a, &line("sim_faulted", 0, 100.0, 5.000001)).unwrap();
        assert!(!ok && table.contains("DIFFERS"), "{table}");
    }

    #[test]
    fn a_missing_run_or_a_counter_that_moved_fails() {
        let a = line("sim_faulted", 0, 100.0, 5.0);
        assert!(!compare(&a, "").unwrap().1);
        let counter = |n: u32| {
            format!(
                "serve_mix 1 1 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"server.dedup_hits\": {{\"value\": {n}, \"unit\": \"count\"}}, \
                 \"server.wire_ns_per_req\": {{\"value\": {n}, \"unit\": \"ns\"}}}}}}\n"
            )
        };
        assert!(compare(&counter(7), &counter(7)).unwrap().1);
        assert!(!compare(&counter(7), &counter(8)).unwrap().1);
        assert!(compare("nonsense", "").is_err());
    }
}
