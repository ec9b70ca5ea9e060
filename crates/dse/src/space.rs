//! Search-space definition and deterministic enumeration.

use pphw_sim::SimConfig;

use crate::DseError;

/// Power-of-two divisors of `n` in `[4, n)`, largest first — the default
/// tile-size candidates for a dimension (locality usually favors large
/// tiles, so they are tried first and win ties).
#[must_use]
pub fn pow2_divisors(n: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut b = 4i64;
    while b < n {
        if n % b == 0 {
            out.push(b);
        }
        b *= 2;
    }
    out.reverse();
    out
}

/// `items` without repeats, first occurrences in their given order.
fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// One fully-resolved point of the search space: everything the evaluator
/// needs to compile and simulate a design.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Tile size per tuned dimension, in space dimension order.
    pub tiles: Vec<(String, i64)>,
    /// Innermost parallelism factor.
    pub inner_par: u32,
    /// Label of the simulation substrate variant.
    pub sim_label: String,
    /// The simulation substrate.
    pub sim: SimConfig,
}

impl Candidate {
    /// Human-readable identity, e.g. `m=32,n=16 par=64 sim=max4`.
    #[must_use]
    pub fn label(&self) -> String {
        let tiles = if self.tiles.is_empty() {
            "untiled".to_string()
        } else {
            self.tiles
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("{tiles} par={} sim={}", self.inner_par, self.sim_label)
    }

    /// Tile sizes as borrowed pairs, for `TileConfig`/`CompileOptions`.
    #[must_use]
    pub fn tile_pairs(&self) -> Vec<(&str, i64)> {
        self.tiles.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }
}

/// The joint search space: tile candidates per tuned dimension ×
/// parallelism factors × simulation substrate variants.
///
/// Enumeration order is deterministic — dimensions in the order they were
/// added, tile candidates in their given order, then parallelism factors,
/// then substrate variants — and independent of how the engine later
/// schedules evaluation. A value listed twice along one axis is the same
/// point twice, so every setter keeps the first occurrence only.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    sizes: Vec<(String, i64)>,
    dims: Vec<(String, Vec<i64>)>,
    inner_pars: Vec<u32>,
    sim_variants: Vec<(String, SimConfig)>,
}

impl SearchSpace {
    /// Creates a space over programs with the given concrete sizes. The
    /// space starts with no tuned dimensions, a single default parallelism
    /// factor of 64 lanes, and the default substrate.
    #[must_use]
    pub fn new(sizes: &[(&str, i64)]) -> SearchSpace {
        SearchSpace {
            sizes: sizes.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            dims: Vec::new(),
            inner_pars: vec![64],
            sim_variants: vec![("max4".to_string(), SimConfig::default())],
        }
    }

    /// Adds a tuned dimension with the default power-of-two dividing tile
    /// candidates.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::UnknownDim`] if the dimension has no concrete
    /// size or no candidate tile divides it.
    pub fn tune_dim(self, dim: &str) -> Result<SearchSpace, DseError> {
        let n = self
            .sizes
            .iter()
            .find(|(k, _)| k == dim)
            .map(|(_, v)| *v)
            .ok_or_else(|| DseError::UnknownDim(dim.to_string()))?;
        let cands = pow2_divisors(n);
        if cands.is_empty() {
            return Err(DseError::UnknownDim(dim.to_string()));
        }
        Ok(self.with_tile_candidates(dim, &cands))
    }

    /// Adds a tuned dimension with explicit tile candidates.
    #[must_use]
    pub fn with_tile_candidates(mut self, dim: &str, cands: &[i64]) -> SearchSpace {
        self.dims
            .push((dim.to_string(), distinct(cands.iter().copied())));
        self
    }

    /// Sets the parallelism factors to sweep.
    #[must_use]
    pub fn with_inner_pars(mut self, pars: &[u32]) -> SearchSpace {
        self.inner_pars = distinct(pars.iter().copied());
        self
    }

    /// Sets the simulation substrate variants to sweep.
    #[must_use]
    pub fn with_sim_variants(mut self, variants: &[(&str, SimConfig)]) -> SearchSpace {
        self.sim_variants = distinct(variants.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        self
    }

    /// The concrete sizes the space was built over.
    #[must_use]
    pub fn sizes(&self) -> &[(String, i64)] {
        &self.sizes
    }

    /// Size pairs as borrowed tuples.
    #[must_use]
    pub fn size_pairs(&self) -> Vec<(&str, i64)> {
        self.sizes.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }

    /// Number of points in the full cross product.
    #[must_use]
    pub fn len(&self) -> usize {
        let tiles: usize = self.dims.iter().map(|(_, c)| c.len()).product();
        tiles * self.inner_pars.len() * self.sim_variants.len()
    }

    /// Whether the space enumerates to nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every point of the space, in canonical order.
    #[must_use]
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut tile_cfgs: Vec<Vec<(String, i64)>> = vec![Vec::new()];
        for (dim, cands) in &self.dims {
            let mut next = Vec::with_capacity(tile_cfgs.len() * cands.len());
            for cfg in &tile_cfgs {
                for b in cands {
                    let mut c = cfg.clone();
                    c.push((dim.clone(), *b));
                    next.push(c);
                }
            }
            tile_cfgs = next;
        }
        let mut out = Vec::with_capacity(self.len());
        for tiles in &tile_cfgs {
            for par in &self.inner_pars {
                for (label, sim) in &self.sim_variants {
                    out.push(Candidate {
                        tiles: tiles.clone(),
                        inner_par: *par,
                        sim_label: label.clone(),
                        sim: sim.clone(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn pow2_divisors_match_legacy_tile_candidates() {
        assert_eq!(pow2_divisors(64), vec![32, 16, 8, 4]);
        assert_eq!(pow2_divisors(48), vec![16, 8, 4]);
        assert!(pow2_divisors(4).is_empty());
        assert!(pow2_divisors(3).is_empty());
    }

    #[test]
    fn enumeration_is_full_cross_product_in_canonical_order() {
        let space = SearchSpace::new(&[("m", 16), ("n", 16)])
            .tune_dim("m")
            .unwrap()
            .tune_dim("n")
            .unwrap()
            .with_inner_pars(&[8, 16]);
        // 2 tiles per dim x 2 dims x 2 pars x 1 sim variant.
        assert_eq!(space.len(), 8);
        let cands = space.candidates();
        assert_eq!(cands.len(), 8);
        // Largest tiles first, inner_par varies fastest after tiles.
        assert_eq!(cands[0].tiles, vec![("m".into(), 8), ("n".into(), 8)]);
        assert_eq!(cands[0].inner_par, 8);
        assert_eq!(cands[1].inner_par, 16);
        assert_eq!(cands[7].tiles, vec![("m".into(), 4), ("n".into(), 4)]);
        // Enumeration is stable across calls.
        assert_eq!(cands, space.candidates());
    }

    #[test]
    fn unknown_dim_is_rejected() {
        let err = SearchSpace::new(&[("m", 16)]).tune_dim("zzz").unwrap_err();
        assert_eq!(err, DseError::UnknownDim("zzz".into()));
        // A dimension too small to tile is also rejected.
        let err = SearchSpace::new(&[("m", 4)]).tune_dim("m").unwrap_err();
        assert_eq!(err, DseError::UnknownDim("m".into()));
    }

    #[test]
    fn labels_are_stable_identities() {
        let c = Candidate {
            tiles: vec![("m".into(), 8)],
            inner_par: 32,
            sim_label: "max4".into(),
            sim: SimConfig::default(),
        };
        assert_eq!(c.label(), "m=8 par=32 sim=max4");
    }

    #[test]
    fn a_repeated_value_is_one_point() {
        let slow = SimConfig::default().with_clock_mhz(100.0);
        let repeated = SearchSpace::new(&[("m", 64), ("n", 64)])
            .with_tile_candidates("m", &[8, 16, 16, 8])
            .with_tile_candidates("n", &[16])
            .with_inner_pars(&[16, 32, 16])
            .with_sim_variants(&[
                ("max4", SimConfig::default()),
                ("slow", slow.clone()),
                ("max4", SimConfig::default()),
            ]);
        let plain = SearchSpace::new(&[("m", 64), ("n", 64)])
            .with_tile_candidates("m", &[8, 16])
            .with_tile_candidates("n", &[16])
            .with_inner_pars(&[16, 32])
            .with_sim_variants(&[("max4", SimConfig::default()), ("slow", slow)]);
        assert_eq!(repeated.len(), 8);
        assert_eq!(repeated.len(), plain.len());
        assert_eq!(repeated.candidates(), plain.candidates());
    }
}
