//! Search results: the best point, the Pareto frontier, evaluation
//! counts, and JSON (through [`pphw_ir::json`]'s writer) and CSV export.

use pphw_hw::Area;
use pphw_ir::json::{self, ToJson};

/// One evaluated (feasible) point of the search space.
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// Candidate identity, e.g. `m=32,n=16 par=64 sim=max4`.
    pub label: String,
    /// Tile size per tuned dimension.
    pub tiles: Vec<(String, i64)>,
    /// Innermost parallelism factor.
    pub inner_par: u32,
    /// Simulation substrate variant.
    pub sim_label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Useful DRAM words requested during simulation.
    pub dram_words: u64,
    /// On-chip memory footprint of the generated design.
    pub on_chip_bytes: u64,
    /// Estimated design area.
    pub area: Area,
    /// Scalar area objective (worst-case device utilization fraction).
    pub area_score: f64,
    /// The calibrated cost model's cycle prediction for this point, when
    /// the search ran guided (`None` under exhaustive search). Reported
    /// next to the measured cycles so model quality is auditable from the
    /// report alone.
    pub predicted_cycles: Option<f64>,
}

impl EvaluatedPoint {
    /// Relative error of the model's prediction against the measurement:
    /// `(predicted - actual) / actual`. `None` when there is no
    /// prediction or the measurement is zero cycles.
    #[must_use]
    pub fn prediction_error(&self) -> Option<f64> {
        let predicted = self.predicted_cycles?;
        if self.cycles == 0 {
            return None;
        }
        Some((predicted - self.cycles as f64) / self.cycles as f64)
    }
}

/// A candidate whose evaluation failed outright (evaluator panic caught
/// by the pool, or an internal error such as a simulation budget
/// overrun). These are listed in the report so a sweep that lost points
/// says so instead of silently shrinking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedPoint {
    /// Candidate identity, e.g. `m=32,n=16 par=64 sim=max4`.
    pub label: String,
    /// What went wrong.
    pub error: String,
}

/// Where every enumerated point went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Size of the exhaustive cross product.
    pub exhaustive: usize,
    /// Rejected by the prefilter: tiling infeasible.
    pub pruned_tile: usize,
    /// Rejected by the prefilter: the static analyzer found the tiled
    /// program illegal (IR-verifier errors, or a combine the candidate's
    /// parallelism would race).
    pub pruned_verify: usize,
    /// Rejected by the prefilter: predicted on-chip footprint over budget.
    pub pruned_budget: usize,
    /// Rejected by the prefilter: area lower bound over budget.
    pub pruned_area: usize,
    /// Points that reached the compile+simulate evaluator (cache hits
    /// included — they were *measured*, just not re-compiled).
    pub evaluated: usize,
    /// Evaluated points the evaluator rejected (compile error, post-compile
    /// budget violation, …).
    pub infeasible: usize,
    /// Evaluated points whose evaluation failed outright (panic even after
    /// retries, simulation budget overrun).
    pub failed: usize,
    /// Guided search: survivors measured for model calibration (the
    /// deterministic seeded sample). Zero under exhaustive search.
    pub sampled: usize,
    /// Guided search: survivors ranked by the calibrated model's
    /// predicted objective. Zero under exhaustive search.
    pub ranked: usize,
    /// Survivors this search actually measured (simulated or served from
    /// the cache). Equals `evaluated`; reported separately so guided
    /// reports state their simulation budget explicitly.
    pub simulated: usize,
    /// Guided search: survivors the model ranked unpromising and the
    /// search therefore never measured.
    pub skipped_model: usize,
    /// Always 0: nothing partitions a search any more. Read by
    /// `benchmark/`'s candidate accounting, and goes with that read.
    pub shard_skipped: usize,
    /// Measurements served from the memoization cache.
    pub cache_hits: u64,
    /// Measurements that actually ran the compile+simulate path.
    pub cache_misses: u64,
}

impl DseStats {
    /// Total points removed by the analytic prefilter.
    #[must_use]
    pub fn pruned_total(&self) -> usize {
        self.pruned_tile + self.pruned_verify + self.pruned_budget + self.pruned_area
    }
}

/// A completed design-space exploration.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Program name.
    pub name: String,
    /// The single best point (fewest cycles; area and label break ties).
    pub best: EvaluatedPoint,
    /// The cycles-vs-area Pareto frontier, fastest first.
    pub frontier: Vec<EvaluatedPoint>,
    /// Every feasible point, best first (canonical total order).
    pub evaluated: Vec<EvaluatedPoint>,
    /// Candidates whose evaluation failed, in canonical candidate order.
    pub failures: Vec<FailedPoint>,
    /// Where every enumerated point went.
    pub stats: DseStats,
}

impl ToJson for EvaluatedPoint {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("label", &self.label)
                .arr("tiles", |a| {
                    for (dim, tile) in &self.tiles {
                        a.obj(|t| {
                            t.field("dim", dim).field("tile", tile);
                        });
                    }
                })
                .field("inner_par", self.inner_par)
                .field("sim", &self.sim_label)
                .field("cycles", self.cycles)
                .field("dram_words", self.dram_words)
                .field("on_chip_bytes", self.on_chip_bytes)
                .field("area", self.area)
                .field("area_score", self.area_score)
                .fixed("predicted_cycles", self.predicted_cycles, 1)
                .fixed("prediction_error", self.prediction_error(), 4);
        });
    }
}

impl DseReport {
    /// Renders the full report as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        json::object(|o| {
            o.field("name", &self.name)
                .field("best", &self.best)
                .list("frontier", &self.frontier)
                .list("evaluated", &self.evaluated)
                .arr("failures", |a| {
                    for f in &self.failures {
                        a.obj(|o| {
                            o.field("label", &f.label).field("error", &f.error);
                        });
                    }
                })
                // `cache_hits`/`cache_misses` must stay the last two stats
                // keys: comparisons of warm against cold reports (the
                // benchmark's `dse_warm_replay` check, `crates/bench/tests/
                // cli_gates.rs`) mask from `"cache_hits"` to the object's
                // closing brace.
                .obj("stats", |o| {
                    o.field("exhaustive", s.exhaustive)
                        .field("pruned_tile", s.pruned_tile)
                        .field("pruned_verify", s.pruned_verify)
                        .field("pruned_budget", s.pruned_budget)
                        .field("pruned_area", s.pruned_area)
                        .field("evaluated", s.evaluated)
                        .field("infeasible", s.infeasible)
                        .field("failed", s.failed)
                        .field("sampled", s.sampled)
                        .field("ranked", s.ranked)
                        .field("simulated", s.simulated)
                        .field("skipped_model", s.skipped_model)
                        .field("cache_hits", s.cache_hits)
                        .field("cache_misses", s.cache_misses);
                });
        })
    }

    /// Renders every feasible point as CSV (best first), with a
    /// `on_frontier` marker column.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "program,label,tiles,inner_par,sim,cycles,dram_words,on_chip_bytes,\
             logic,ff,mem,area_score,predicted_cycles,prediction_error,on_frontier\n",
        );
        for p in &self.evaluated {
            let tiles = p
                .tiles
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let on_frontier = self.frontier.iter().any(|f| f.label == p.label);
            let predicted = p
                .predicted_cycles
                .map_or(String::new(), |v| format!("{v:.1}"));
            let pred_err = p
                .prediction_error()
                .map_or(String::new(), |v| format!("{v:.4}"));
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.0},{:.0},{:.1},{:.6},{},{},{}\n",
                self.name,
                p.label,
                tiles,
                p.inner_par,
                p.sim_label,
                p.cycles,
                p.dram_words,
                p.on_chip_bytes,
                p.area.logic,
                p.area.ff,
                p.area.mem,
                p.area_score,
                predicted,
                pred_err,
                on_frontier
            ));
        }
        out
    }

    /// Human-readable summary: counts, the frontier, and the best point.
    #[must_use]
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "dse `{}`: {} points enumerated, {} pruned analytically \
             (tile {}, verify {}, budget {}, area {}), {} evaluated \
             ({} compiled, {} from cache), {} infeasible, {} failed\n",
            self.name,
            s.exhaustive,
            s.pruned_total(),
            s.pruned_tile,
            s.pruned_verify,
            s.pruned_budget,
            s.pruned_area,
            s.evaluated,
            s.cache_misses,
            s.cache_hits,
            s.infeasible,
            s.failed
        );
        if s.ranked > 0 {
            out.push_str(&format!(
                "  guided: {} calibration samples, {} ranked by model, \
                 {} simulated, {} skipped by model\n",
                s.sampled, s.ranked, s.simulated, s.skipped_model
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED {}: {}\n", f.label, f.error));
        }
        out.push_str(&format!(
            "  {:<34} {:>12} {:>12} {:>10}\n",
            "pareto frontier (cycles vs area)", "cycles", "DRAM words", "area"
        ));
        for p in &self.frontier {
            out.push_str(&format!(
                "  {:<34} {:>12} {:>12} {:>9.4}\n",
                p.label, p.cycles, p.dram_words, p.area_score
            ));
        }
        out.push_str(&format!(
            "  best: {} at {} cycles (area {:.4})\n",
            self.best.label, self.best.cycles, self.best.area_score
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_ir::json::{parse_json, Json};

    /// The report parsed back.
    fn parsed(r: &DseReport) -> Json {
        parse_json(&r.to_json()).expect("the report is JSON")
    }

    /// An object's keys, in written order.
    fn keys(v: &Json) -> Vec<&str> {
        v.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn at<'j>(v: &'j Json, path: &[&str]) -> &'j Json {
        path.iter()
            .fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("no {k}")))
    }

    fn pt(label: &str, cycles: u64) -> EvaluatedPoint {
        EvaluatedPoint {
            label: label.to_string(),
            tiles: vec![("m".into(), 8)],
            inner_par: 16,
            sim_label: "max4".into(),
            cycles,
            dram_words: 10,
            on_chip_bytes: 256,
            area: Area {
                logic: 100.0,
                ff: 200.0,
                mem: 3.0,
            },
            area_score: 0.25,
            predicted_cycles: None,
        }
    }

    fn report() -> DseReport {
        DseReport {
            name: "t".into(),
            best: pt("a", 10),
            frontier: vec![pt("a", 10)],
            evaluated: vec![pt("a", 10), pt("b", 20)],
            failures: vec![FailedPoint {
                label: "c".into(),
                error: "evaluator panicked: boom".into(),
            }],
            stats: DseStats {
                exhaustive: 6,
                pruned_budget: 2,
                pruned_verify: 1,
                evaluated: 3,
                failed: 1,
                cache_misses: 3,
                ..DseStats::default()
            },
        }
    }

    #[test]
    fn json_contains_every_section() {
        let j = parsed(&report());
        let sections = ["name", "best", "frontier", "evaluated", "failures", "stats"];
        assert_eq!(keys(&j), sections);
        assert_eq!(
            keys(at(&j, &["stats"])),
            [
                "exhaustive",
                "pruned_tile",
                "pruned_verify",
                "pruned_budget",
                "pruned_area",
                "evaluated",
                "infeasible",
                "failed",
                "sampled",
                "ranked",
                "simulated",
                "skipped_model",
                "cache_hits",
                "cache_misses"
            ]
        );
        let best = at(&j, &["best"]);
        assert_eq!(
            keys(best),
            [
                "label",
                "tiles",
                "inner_par",
                "sim",
                "cycles",
                "dram_words",
                "on_chip_bytes",
                "area",
                "area_score",
                "predicted_cycles",
                "prediction_error"
            ]
        );
        assert_eq!(keys(at(best, &["area"])), ["logic", "ff", "mem"]);
        assert_eq!(at(&j, &["name"]).as_str(), Some("t"));
        assert_eq!(at(best, &["cycles"]).as_u64(), Some(10));
        assert_eq!(at(best, &["area", "ff"]).as_f64(), Some(200.0));
        let tile = &at(best, &["tiles"]).as_arr().unwrap()[0];
        assert_eq!(keys(tile), ["dim", "tile"]);
        assert_eq!(at(&j, &["frontier"]).as_arr().unwrap().len(), 1);
        assert_eq!(at(&j, &["evaluated"]).as_arr().unwrap().len(), 2);
        let failure = &at(&j, &["failures"]).as_arr().unwrap()[0];
        assert_eq!(keys(failure), ["label", "error"]);
        assert_eq!(at(failure, &["label"]).as_str(), Some("c"));
        for (stat, want) in [
            ("exhaustive", 6),
            ("pruned_budget", 2),
            ("pruned_verify", 1),
            ("failed", 1),
        ] {
            assert_eq!(at(&j, &["stats", stat]).as_u64(), Some(want), "{stat}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let c = report().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("program,label"));
        assert!(lines[1].contains("true"), "best is on the frontier");
        assert!(lines[2].contains("false"));
    }

    #[test]
    fn summary_reports_prune_savings() {
        let s = report().summary();
        assert!(s.contains("6 points enumerated"));
        assert!(s.contains("3 pruned analytically"));
        assert!(s.contains("verify 1"));
        assert!(s.contains("best: a"));
    }

    #[test]
    fn summary_lists_failed_candidates() {
        let s = report().summary();
        assert!(s.contains("1 failed"));
        assert!(s.contains("FAILED c: evaluator panicked: boom"));
    }

    #[test]
    fn prediction_columns_are_null_when_exhaustive_and_audited_when_guided() {
        let exhaustive = report();
        let j = parsed(&exhaustive);
        for p in at(&j, &["evaluated"]).as_arr().unwrap() {
            assert_eq!(at(p, &["predicted_cycles"]), &Json::Null);
            assert_eq!(at(p, &["prediction_error"]), &Json::Null);
        }
        let csv = exhaustive.to_csv();
        assert!(csv.lines().next().unwrap().contains("predicted_cycles"));
        assert!(csv.lines().next().unwrap().contains("prediction_error"));

        let mut guided = report();
        // Predicted 11 against measured 10: +10% relative error.
        for p in guided
            .evaluated
            .iter_mut()
            .chain(guided.frontier.iter_mut())
            .chain(std::iter::once(&mut guided.best))
        {
            p.predicted_cycles = Some(11.0);
        }
        guided.stats.sampled = 1;
        guided.stats.ranked = 3;
        guided.stats.simulated = 2;
        guided.stats.skipped_model = 1;
        assert_eq!(guided.best.prediction_error(), Some(0.1));
        let j = parsed(&guided);
        let best = at(&j, &["best"]);
        assert_eq!(at(best, &["predicted_cycles"]).as_f64(), Some(11.0));
        assert_eq!(at(best, &["prediction_error"]).as_f64(), Some(0.1));
        assert_eq!(at(&j, &["stats", "sampled"]).as_u64(), Some(1));
        assert_eq!(at(&j, &["stats", "skipped_model"]).as_u64(), Some(1));
        let csv = guided.to_csv();
        assert!(csv.contains(",11.0,"), "{csv}");
        // New stats keys must precede the cache counters so masking the
        // counters (see `to_json`) cannot swallow them.
        let stats = keys(at(&j, &["stats"]));
        assert_eq!(stats[stats.len() - 2..], ["cache_hits", "cache_misses"]);
        let s = guided.summary();
        assert!(s.contains("guided: 1 calibration samples"), "{s}");
    }

    /// Every byte of a report with predictions and an error text that
    /// needs escaping; the literal is never edited to make a change pass.
    #[test]
    fn json_bytes_are_pinned() {
        let mut r = report();
        for p in r
            .evaluated
            .iter_mut()
            .chain(r.frontier.iter_mut())
            .chain(std::iter::once(&mut r.best))
        {
            p.predicted_cycles = Some(11.0);
        }
        r.failures[0].error = "say \"hi\" \\ then\nstop\u{1}".into();
        let point = |label: &str, cycles: u64, err: &str| {
            format!(
                "{{\"label\":\"{label}\",\"tiles\":[{{\"dim\":\"m\",\"tile\":8}}],\
                 \"inner_par\":16,\"sim\":\"max4\",\"cycles\":{cycles},\"dram_words\":10,\
                 \"on_chip_bytes\":256,\"area\":{{\"logic\":100,\"ff\":200,\"mem\":3}},\
                 \"area_score\":0.25,\"predicted_cycles\":11.0,\"prediction_error\":{err}}}"
            )
        };
        let (a, b) = (point("a", 10, "0.1000"), point("b", 20, "-0.4500"));
        assert_eq!(
            r.to_json(),
            format!(
                "{{\"name\":\"t\",\"best\":{a},\"frontier\":[{a}],\"evaluated\":[{a},{b}],\
                 \"failures\":[{{\"label\":\"c\",\
                 \"error\":\"say \\\"hi\\\" \\\\ then\\nstop\\u0001\"}}],\
                 \"stats\":{{\"exhaustive\":6,\"pruned_tile\":0,\"pruned_verify\":1,\
                 \"pruned_budget\":2,\"pruned_area\":0,\"evaluated\":3,\"infeasible\":0,\
                 \"failed\":1,\"sampled\":0,\"ranked\":0,\"simulated\":0,\
                 \"skipped_model\":0,\"cache_hits\":0,\"cache_misses\":3}}}}"
            )
        );
    }
}
