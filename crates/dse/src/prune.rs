//! Analytic prefilter: reject candidates before the compile+simulate path.
//!
//! Four cheap checks run per candidate, in order:
//!
//! 1. **Tiling feasibility** — the tiling transform itself (strip mining +
//!    interchange + tile copies) is run on the candidate's tile sizes; a
//!    `TileError` rejects the point. This is the cheap front of the
//!    pipeline (pure IR rewriting), run once per unique tile
//!    configuration, not per (tiles × par × substrate) point.
//! 2. **Static legality** — the `pphw-verify` analyzers run over the tiled
//!    program, also once per unique tile configuration: an IR-verifier
//!    error rejects every candidate sharing the tiles, and a combine the
//!    race detector cannot prove associative-commutative rejects exactly
//!    the candidates that would parallelize it (`inner_par > 1`). A
//!    candidate that cannot compute the right answer is never worth a
//!    compile, however fast its design would be.
//! 3. **On-chip budget** — the analytic cost model's predicted on-chip
//!    footprint ([`pphw_transform::cost::predict_traffic`]) is compared
//!    against the memory budget. The model charges the *minimum* buffering
//!    a tiled schedule needs, while generated designs add double buffering
//!    on top, so a candidate the model already rejects cannot fit.
//! 4. **Area bound** — a conservative lower bound on design area (one
//!    vector unit at the candidate's lane count plus a single-ported
//!    buffer for the predicted on-chip words) is checked against the
//!    [`AreaBudget`]. Real designs contain at least this much hardware,
//!    so the bound never rejects a feasible point.
//!
//! Every rejection is counted by reason; the engine reports the counts so
//! the "prefilter saves N compiles" claim is observable, and tests assert
//! it.

use std::collections::HashMap;

use pphw_hw::area::{buffer_area, unit_area};
use pphw_hw::design::{BufferKind, UnitKind};
use pphw_hw::{Area, AreaBudget};
use pphw_ir::program::Program;
use pphw_ir::size::Size;
use pphw_transform::cost::{predict_traffic, TrafficPrediction};
use pphw_transform::{tile_program, TileConfig};
use pphw_verify::{ir_check, race, VerifyReport};

use crate::space::Candidate;

/// Why the prefilter rejected a candidate — or didn't.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PruneDecision {
    /// The candidate survives to evaluation; the scores it survived on
    /// are what the guided ranker's features are built from.
    Keep(Analytic),
    /// The tiling transform rejected the tile sizes.
    Tile(String),
    /// The static analyzer rejected the candidate: the tiled program has
    /// IR-verifier errors, or its parallelism would race a combine that
    /// is not provably associative-commutative.
    Illegal(String),
    /// Predicted on-chip footprint exceeds the memory budget.
    Budget {
        /// Predicted bytes.
        predicted: u64,
        /// The budget it exceeded.
        budget: u64,
    },
    /// The analytic area lower bound exceeds the area budget.
    Area,
}

/// A conservative lower bound on the area of any design generated for
/// this candidate: one vector compute unit at the candidate's lane count
/// plus one single-ported buffer holding the predicted on-chip words.
#[must_use]
pub fn area_lower_bound(inner_par: u32, on_chip_bytes: u64) -> Area {
    let compute = unit_area(&UnitKind::Vector { lanes: inner_par }, 1, 0);
    let buffer = buffer_area(BufferKind::Buffer, on_chip_bytes, 1, 1);
    compute.add(buffer)
}

/// The per-candidate analytic scores the prefilter derives its decision
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analytic {
    /// The cost model's traffic prediction for the tiled program.
    pub traffic: TrafficPrediction,
    /// Predicted on-chip footprint in bytes.
    pub on_chip_bytes: u64,
}

/// Runs the prefilter over every candidate, returning one decision per
/// candidate in input order. Tiling and cost analysis run once per unique
/// tile configuration.
#[must_use]
pub fn prefilter(
    prog: &Program,
    sizes: &[(String, i64)],
    candidates: &[Candidate],
    on_chip_budget_bytes: u64,
    area_budget: &AreaBudget,
) -> Vec<PruneDecision> {
    let size_pairs: Vec<(&str, i64)> = sizes.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let env = Size::env(&size_pairs);
    // Per unique tile configuration: the traffic prediction (word size is
    // a substrate property, so bytes are derived per candidate below) and
    // the static-analysis verdicts. The IR check and the combine scan are
    // parallelism-independent, so they memoize with the tiling; only the
    // "does this candidate parallelize it?" question is per candidate.
    let mut by_tiles: HashMap<String, Result<TilePre, String>> = HashMap::new();
    candidates
        .iter()
        .map(|c| {
            let tiles_key = format!("{:?}", c.tiles);
            let pre = by_tiles
                .entry(tiles_key)
                .or_insert_with(|| {
                    let tiled = if c.tiles.is_empty() {
                        prog.clone()
                    } else {
                        let cfg = TileConfig::new(&c.tile_pairs(), &size_pairs)
                            .with_budget(on_chip_budget_bytes);
                        match tile_program(prog, &cfg) {
                            Ok(t) => t,
                            Err(e) => return Err(e.to_string()),
                        }
                    };
                    let traffic = predict_traffic(&tiled, &env).map_err(|e| e.to_string())?;
                    let mut report = VerifyReport::new();
                    ir_check::check_program(&tiled, &mut report);
                    Ok(TilePre {
                        traffic,
                        ir_errors: report.errors().map(ToString::to_string).collect(),
                        non_assoc: race::non_assoc_combines(&tiled),
                    })
                })
                .clone();
            match pre {
                Err(e) => PruneDecision::Tile(e),
                Ok(pre) => {
                    if let Some(err) = pre.ir_errors.first() {
                        return PruneDecision::Illegal(err.clone());
                    }
                    if c.inner_par > 1 {
                        if let Some(path) = pre.non_assoc.first() {
                            return PruneDecision::Illegal(format!(
                                "combine at `{path}` is not provably \
                                 associative-commutative; inner_par={} would race it",
                                c.inner_par
                            ));
                        }
                    }
                    let a = Analytic {
                        traffic: pre.traffic,
                        on_chip_bytes: pre.traffic.on_chip_bytes(c.sim.word_bytes),
                    };
                    if a.on_chip_bytes > on_chip_budget_bytes {
                        PruneDecision::Budget {
                            predicted: a.on_chip_bytes,
                            budget: on_chip_budget_bytes,
                        }
                    } else if !area_budget.fits(area_lower_bound(c.inner_par, a.on_chip_bytes)) {
                        PruneDecision::Area
                    } else {
                        PruneDecision::Keep(a)
                    }
                }
            }
        })
        .collect()
}

/// Tile-configuration-level precomputation shared by every candidate with
/// the same tile sizes.
#[derive(Debug, Clone)]
struct TilePre {
    traffic: TrafficPrediction,
    /// Rendered IR-verifier errors on the tiled program (empty = clean).
    ir_errors: Vec<String>,
    /// Paths of combines the race detector cannot prove
    /// associative-commutative.
    non_assoc: Vec<String>,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_ir::builder::ProgramBuilder;
    use pphw_ir::types::DType;
    use pphw_sim::SimConfig;

    /// gemm: map(m,n){ fold(p){ acc + x(i,k)*y(k,j) } }. After tiling plus
    /// interchange the scalar accumulator becomes a mandatory (b_m, b_n)
    /// tile — unlike tile copies, the budget-adaptive copy-insertion pass
    /// cannot elide it, so the analytic budget prune has something real to
    /// reject.
    fn gemm() -> Program {
        let mut b = ProgramBuilder::new("gemm");
        let m = b.size("m");
        let n = b.size("n");
        let p = b.size("p");
        let x = b.input("x", DType::F32, vec![m.clone(), p.clone()]);
        let y = b.input("y", DType::F32, vec![p.clone(), n.clone()]);
        let out = b.with_ctx(|c| {
            c.map(vec![m, n], |c, idx| {
                let (i, j) = (idx[0], idx[1]);
                c.fold(
                    "dot",
                    vec![p.clone()],
                    vec![],
                    pphw_ir::types::ScalarType::Prim(DType::F32),
                    pphw_ir::pattern::Init::zeros(),
                    |c, kk, acc| {
                        let prod = c.mul(
                            c.read(x, vec![c.var(i), c.var(kk[0])]),
                            c.read(y, vec![c.var(kk[0]), c.var(j)]),
                        );
                        c.add(c.var(acc), prod)
                    },
                    |c, a, b2| c.add(c.var(a), c.var(b2)),
                )
            })
        });
        b.finish(vec![out])
    }

    fn cand(tiles: &[(&str, i64)], par: u32) -> Candidate {
        Candidate {
            tiles: tiles.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            inner_par: par,
            sim_label: "max4".into(),
            sim: SimConfig::default(),
        }
    }

    fn sizes(pairs: &[(&str, i64)]) -> Vec<(String, i64)> {
        pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
    }

    const GEMM_TILES: &[(&str, i64)] = &[("m", 32), ("n", 32), ("p", 32)];

    #[test]
    fn mandatory_accumulator_over_budget_is_pruned() {
        let prog = gemm();
        let s = sizes(&[("m", 64), ("n", 64), ("p", 64)]);
        let cands = vec![cand(GEMM_TILES, 16)];
        // The interchanged (32,32) f32 accumulator alone needs 4 KiB; a
        // 1 KiB budget cannot hold it no matter what copies are elided.
        let out = prefilter(&prog, &s, &cands, 1024, &AreaBudget::full_device());
        match &out[0] {
            PruneDecision::Budget { predicted, budget } => {
                assert!(*predicted >= 4096, "accumulator bytes: {predicted}");
                assert_eq!(*budget, 1024);
            }
            other => panic!("expected budget prune, got {other:?}"),
        }
        // A sane budget keeps the same candidate.
        let out = prefilter(
            &prog,
            &s,
            &cands,
            6 * 1024 * 1024,
            &AreaBudget::full_device(),
        );
        assert!(matches!(out[0], PruneDecision::Keep(_)));
    }

    #[test]
    fn area_budget_prunes_wide_lane_counts() {
        let prog = gemm();
        let s = sizes(&[("m", 64), ("n", 64), ("p", 64)]);
        let cands = vec![cand(GEMM_TILES, 8), cand(GEMM_TILES, 4096)];
        // A 5% device slice fits 8 lanes but not 4096 (1.3M ALMs of
        // compute against ~13k of budget).
        let out = prefilter(
            &prog,
            &s,
            &cands,
            6 * 1024 * 1024,
            &AreaBudget::device_fraction(0.05),
        );
        assert!(matches!(out[0], PruneDecision::Keep(_)));
        assert_eq!(out[1], PruneDecision::Area);
    }

    #[test]
    fn area_bound_is_below_any_real_vector_unit() {
        // The bound must not exceed what even the smallest real design
        // containing the unit would cost.
        let bound = area_lower_bound(64, 4096);
        let real_unit = unit_area(&UnitKind::Vector { lanes: 64 }, 2, 8);
        assert!(bound.logic <= real_unit.logic + 1e4);
        assert!(bound.mem >= 1.0, "buffer must cost at least one block");
    }

    #[test]
    fn non_associative_combine_is_pruned_only_when_parallelized() {
        // fold over subtraction: combine (a, b) -> a - b is not
        // associative-commutative, so any parallel candidate is illegal
        // while the serial one stays explorable.
        let mut b = ProgramBuilder::new("subfold");
        let m = b.size("m");
        let x = b.input("x", DType::F32, vec![m.clone()]);
        let out = b.with_ctx(|c| {
            c.fold(
                "acc",
                vec![m],
                vec![],
                pphw_ir::types::ScalarType::Prim(DType::F32),
                pphw_ir::pattern::Init::zeros(),
                |c, i, acc| {
                    let v = c.read(x, vec![c.var(i[0])]);
                    c.add(c.var(acc), v)
                },
                |c, a, b2| c.sub(c.var(a), c.var(b2)),
            )
        });
        let prog = b.finish(vec![out]);
        let s = sizes(&[("m", 64)]);
        let cands = vec![cand(&[("m", 16)], 8), cand(&[("m", 16)], 1)];
        let out = prefilter(
            &prog,
            &s,
            &cands,
            6 * 1024 * 1024,
            &AreaBudget::full_device(),
        );
        match &out[0] {
            PruneDecision::Illegal(why) => {
                assert!(why.contains("associative"), "{why}");
                assert!(why.contains("inner_par=8"), "{why}");
            }
            other => panic!("expected illegal prune, got {other:?}"),
        }
        assert!(
            matches!(out[1], PruneDecision::Keep(_)),
            "serial reduction is legal"
        );
    }

    #[test]
    fn bad_tiles_are_pruned_as_tile_errors() {
        let prog = gemm();
        let s = sizes(&[("m", 64), ("n", 64), ("p", 64)]);
        // 48 does not divide 64.
        let cands = vec![cand(&[("m", 48)], 16)];
        let out = prefilter(
            &prog,
            &s,
            &cands,
            6 * 1024 * 1024,
            &AreaBudget::full_device(),
        );
        assert!(matches!(out[0], PruneDecision::Tile(_)));
    }
}
