//! The compositional analytic performance model behind guided search.
//!
//! Exhaustive-with-prefilter caps the spaces the explorer can open at a
//! few hundred points; guided search scales it to 10^6+ by *predicting*
//! every candidate's cycles from cheap per-pattern cost terms and
//! simulating only the promising slice. The model is compositional in the
//! same sense as the transform-level cost analyzer it builds on
//! ([`pphw_transform::cost::predict_traffic`] walks the pattern tree and
//! sums per-pattern read/storage terms): each candidate's feature vector
//! is derived from that structural traffic prediction of *its own tiled
//! program*, combined with the candidate's parallelism and substrate
//! parameters.
//!
//! The model is a linear combination of [`NUM_FEATURES`] physically
//! motivated terms:
//!
//! | term       | meaning                                                    |
//! |------------|------------------------------------------------------------|
//! | intercept  | fixed launch / drain overhead                              |
//! | stream     | cycles to stream predicted DRAM bytes at substrate bandwidth |
//! | compute    | predicted words processed per lane (`words / inner_par`)   |
//! | bottleneck | `max(stream, compute)` — a pipeline runs at the slower of  |
//! |            | its memory and compute stages, so the true cost is closer  |
//! |            | to a max than a sum; this term lets the fit capture that   |
//! | latency    | burst count × request-to-first-data latency                |
//! | gap        | burst count × synchronous turnaround gap                   |
//! | tiles      | number of tile invocations (per-tile fill/drain overhead)  |
//! | inv-bw     | `1 / bytes_per_cycle` — traffic the read analyzer cannot   |
//! |            | see (chiefly output writes) has constant volume across the |
//! |            | space, so its streaming cost is a fitted constant × this   |
//! | raw-lat    | `dram_latency` alone, for the same fixed-volume bursts     |
//! | raw-gap    | `sync_gap` alone, likewise                                 |
//!
//! The free coefficients are **fit, not guessed**: [`CostModel::fit`]
//! solves the least-squares normal equations (with a tiny ridge term for
//! conditioning) over a deterministic seeded sample of *real*
//! simulations. Calibration reuses the [`crate::cache::EvalCache`], so a
//! warm cache makes re-calibration free. Everything here is exact-order
//! deterministic: the sample, the accumulation order of the normal
//! equations, and the Gaussian elimination are pure functions of the
//! candidate list and the seed — thread counts cannot perturb a
//! prediction.

use pphw_sim::fault::splitmix64;
use pphw_transform::cost::TrafficPrediction;

use crate::cache::fnv1a64;
use crate::space::Candidate;

/// Number of cost terms in the model (including the intercept).
pub const NUM_FEATURES: usize = 10;

/// One candidate's analytic cost terms (the model's regressors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Features {
    /// The terms, in the order documented on the module.
    pub terms: [f64; NUM_FEATURES],
}

/// Derives the feature vector for one candidate from the structural
/// traffic prediction of its tiled program plus its parallelism and
/// substrate parameters.
#[must_use]
pub fn candidate_features(
    traffic: &TrafficPrediction,
    sizes: &[(String, i64)],
    c: &Candidate,
) -> Features {
    let words = traffic.dram_read_words.max(0) as f64;
    let bytes = words * c.sim.word_bytes as f64;
    let stream = bytes / c.sim.bytes_per_cycle().max(1e-9);
    let compute = words / f64::from(c.inner_par.max(1));
    let bursts = bytes / c.sim.burst_bytes.max(1) as f64;
    let latency = bursts * c.sim.dram_latency as f64;
    let gap = bursts * c.sim.sync_gap as f64;
    let mut tiles = 1.0f64;
    for (dim, tile) in &c.tiles {
        if let Some((_, n)) = sizes.iter().find(|(k, _)| k == dim) {
            tiles *= (*n as f64 / (*tile).max(1) as f64).max(1.0);
        }
    }
    // Substrate-only terms: the analyzer predicts *reads*, but a program
    // also streams its output, whose volume is a property of the program
    // alone — constant across the space. A fitted coefficient times
    // these pure-substrate regressors prices that hidden fixed-volume
    // traffic (e.g. outer product, whose m*n-word output dwarfs its
    // m+n-word input), letting the ranking discriminate substrate
    // variants even when predicted read traffic is negligible.
    let inv_bw = 1e3 / c.sim.bytes_per_cycle().max(1e-9);
    Features {
        terms: [
            1.0,
            stream,
            compute,
            stream.max(compute),
            latency,
            gap,
            tiles,
            inv_bw,
            c.sim.dram_latency as f64,
            c.sim.sync_gap as f64,
        ],
    }
}

/// A fitted linear cost model: `predicted cycles = theta · features`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One coefficient per feature term.
    pub theta: [f64; NUM_FEATURES],
}

impl CostModel {
    /// Fits the coefficients by least squares over calibration pairs
    /// (features, measured cycles): solves the normal equations
    /// `(XᵀX + λI) θ = Xᵀy` with a tiny ridge term `λ` scaled to the
    /// Gram matrix so the solve stays conditioned even when the sample
    /// does not span every term. Accumulation runs in input order and the
    /// elimination uses deterministic partial pivoting, so equal inputs
    /// always produce bit-equal coefficients.
    ///
    /// Returns `None` when there are no calibration points at all — the
    /// caller should fall back to exhaustive evaluation.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // symmetric index math reads better than zips
    pub fn fit(xs: &[Features], ys: &[f64]) -> Option<CostModel> {
        if xs.is_empty() || xs.len() != ys.len() {
            return None;
        }
        const K: usize = NUM_FEATURES;
        let mut gram = [[0.0f64; K]; K];
        let mut rhs = [0.0f64; K];
        for (x, &y) in xs.iter().zip(ys) {
            for i in 0..K {
                for j in 0..K {
                    gram[i][j] += x.terms[i] * x.terms[j];
                }
                rhs[i] += x.terms[i] * y;
            }
        }
        let max_diag = gram
            .iter()
            .enumerate()
            .map(|(i, row)| row[i].abs())
            .fold(0.0f64, f64::max);
        let ridge = (max_diag * 1e-12).max(1e-18);
        for (i, row) in gram.iter_mut().enumerate() {
            row[i] += ridge;
        }
        let theta = solve(gram, rhs)?;
        Some(CostModel { theta })
    }

    /// The model's cycle prediction for a feature vector (clamped
    /// non-negative — a negative extrapolation is "free", i.e. maximally
    /// promising, and must not wrap anything).
    #[must_use]
    pub fn predict(&self, x: &Features) -> f64 {
        let mut acc = 0.0;
        for (t, f) in self.theta.iter().zip(&x.terms) {
            acc += t * f;
        }
        acc.max(0.0)
    }
}

/// Solves the `K×K` system `a·x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` on a (ridge-proofed, so effectively
/// impossible) singular system.
#[allow(clippy::needless_range_loop)] // row ops index two rows of `a` at once
fn solve(
    mut a: [[f64; NUM_FEATURES]; NUM_FEATURES],
    mut b: [f64; NUM_FEATURES],
) -> Option<[f64; NUM_FEATURES]> {
    const K: usize = NUM_FEATURES;
    for col in 0..K {
        let mut pivot = col;
        for row in col + 1..K {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..K {
            let factor = a[row][col] / a[col][col];
            for k in col..K {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; K];
    for col in (0..K).rev() {
        let mut acc = b[col];
        for k in col + 1..K {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// The stable identity a candidate is sampled by: FNV-1a of
/// `"<program>|<label>"`. Labels are canonical (tile sizes in dimension
/// order, parallelism, substrate label), so the fingerprint survives
/// re-enumeration and differs across programs sharing a space.
#[must_use]
pub fn fingerprint(prog_name: &str, c: &Candidate) -> u64 {
    fnv1a64(format!("{prog_name}|{}", c.label()).as_bytes())
}

/// Picks the deterministic calibration sample: candidates are ranked by
/// `splitmix64(fingerprint ^ seed)` and the `sample` smallest win. The
/// result is a sorted index list, a pure function of (fingerprints, seed)
/// — independent of thread count and enumeration position.
#[must_use]
pub fn pick_sample(fingerprints: &[u64], sample: usize, seed: u64) -> Vec<usize> {
    let mut ranked: Vec<(u64, usize)> = fingerprints
        .iter()
        .enumerate()
        .map(|(i, &fp)| (splitmix64(fp ^ seed), i))
        .collect();
    ranked.sort_unstable();
    let mut picked: Vec<usize> = ranked.into_iter().take(sample).map(|(_, i)| i).collect();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_sim::SimConfig;

    fn feat(terms: [f64; NUM_FEATURES]) -> Features {
        Features { terms }
    }

    #[test]
    fn fit_recovers_an_exact_linear_model() {
        // y = 100 + 2*stream + 5*compute (other terms inert).
        let truth = [100.0, 2.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..32u64 {
            let s = splitmix64(i) % 1000;
            let c = splitmix64(i.wrapping_mul(7)) % 500;
            let x = feat([1.0, s as f64, c as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
            let y: f64 = truth.iter().zip(&x.terms).map(|(t, f)| t * f).sum();
            xs.push(x);
            ys.push(y);
        }
        let model = CostModel::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let err = (model.predict(x) - y).abs() / y.max(1.0);
            assert!(err < 1e-6, "prediction off by {err} at {x:?}");
        }
    }

    #[test]
    fn fit_ranks_even_from_a_degenerate_sample() {
        // All sample points share latency/gap/tiles values: the Gram
        // matrix is rank-deficient without the ridge term, yet the fit
        // must still order candidates by the informative terms.
        let xs: Vec<Features> = (1..=8)
            .map(|i| {
                let stream = i as f64 * 100.0;
                let compute = i as f64 * 10.0;
                feat([
                    1.0,
                    stream,
                    compute,
                    stream.max(compute),
                    3.0,
                    3.0,
                    4.0,
                    0.5,
                    64.0,
                    8.0,
                ])
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x.terms[1] + 50.0).collect();
        let model = CostModel::fit(&xs, &ys).unwrap();
        let preds: Vec<f64> = xs.iter().map(|x| model.predict(x)).collect();
        for w in preds.windows(2) {
            assert!(w[1] > w[0], "ranking not monotone: {preds:?}");
        }
    }

    #[test]
    fn fit_is_bit_deterministic() {
        let xs: Vec<Features> = (0..16)
            .map(|i| {
                feat([
                    1.0,
                    splitmix64(i) as f64 % 97.0,
                    splitmix64(i + 1) as f64 % 13.0,
                    splitmix64(i + 3) as f64 % 53.0,
                    splitmix64(i + 2) as f64 % 7.0,
                    1.0,
                    2.0,
                    splitmix64(i + 4) as f64 % 5.0,
                    64.0,
                    8.0,
                ])
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.terms[1] * 3.0 + 11.0).collect();
        let a = CostModel::fit(&xs, &ys).unwrap();
        let b = CostModel::fit(&xs, &ys).unwrap();
        for (ta, tb) in a.theta.iter().zip(&b.theta) {
            assert_eq!(ta.to_bits(), tb.to_bits());
        }
    }

    #[test]
    fn empty_sample_is_no_model() {
        assert!(CostModel::fit(&[], &[]).is_none());
    }

    #[test]
    fn features_respond_to_every_knob() {
        let sizes = vec![("m".to_string(), 64i64), ("n".to_string(), 64i64)];
        let traffic = TrafficPrediction {
            dram_read_words: 4096,
            on_chip_words: 256,
        };
        let base = Candidate {
            tiles: vec![("m".into(), 8), ("n".into(), 8)],
            inner_par: 16,
            sim_label: "max4".into(),
            sim: SimConfig::default(),
        };
        let f0 = candidate_features(&traffic, &sizes, &base);
        assert_eq!(f0.terms[0], 1.0);
        assert_eq!(
            f0.terms[3],
            f0.terms[1].max(f0.terms[2]),
            "bottleneck term is max(stream, compute)"
        );
        assert_eq!(f0.terms[6], 64.0, "8x8 tiles over 64x64");

        let mut wider = base.clone();
        wider.inner_par = 32;
        let f1 = candidate_features(&traffic, &sizes, &wider);
        assert!(f1.terms[2] < f0.terms[2], "more lanes, less work per lane");

        let mut slower = base.clone();
        slower.sim = SimConfig::default().with_dram_gbps(38.4);
        let f2 = candidate_features(&traffic, &sizes, &slower);
        assert!(f2.terms[1] > f0.terms[1], "half bandwidth, double stream");
        assert!(
            f2.terms[7] > f0.terms[7],
            "half bandwidth also doubles the fixed-volume streaming term"
        );

        let mut bigger = base;
        bigger.tiles = vec![("m".into(), 32), ("n".into(), 32)];
        let f3 = candidate_features(&traffic, &sizes, &bigger);
        assert_eq!(f3.terms[6], 4.0, "32x32 tiles over 64x64");
    }

    #[test]
    fn sample_pick_is_deterministic_sorted_and_bounded() {
        let fps: Vec<u64> = (0..100u64).map(|i| splitmix64(i * 31)).collect();
        let a = pick_sample(&fps, 10, 42);
        let b = pick_sample(&fps, 10, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        let c = pick_sample(&fps, 10, 43);
        assert_ne!(a, c, "seed changes the sample");
        let all = pick_sample(&fps, 1000, 42);
        assert_eq!(all.len(), 100, "sample larger than space takes all");
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_identities() {
        let cand = |par: u32, tile: i64| Candidate {
            tiles: vec![("m".into(), tile)],
            inner_par: par,
            sim_label: "max4".into(),
            sim: SimConfig::default(),
        };
        let a = cand(8, 16);
        assert_eq!(fingerprint("gemm", &a), fingerprint("gemm", &a.clone()));
        assert_ne!(fingerprint("gemm", &a), fingerprint("spmv", &a));
        assert_ne!(fingerprint("gemm", &a), fingerprint("gemm", &cand(16, 16)));
        assert_ne!(fingerprint("gemm", &a), fingerprint("gemm", &cand(8, 32)));
    }
}
