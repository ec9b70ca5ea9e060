//! Deterministic sharding of the candidate space across invocations.
//!
//! `dse --shard i/N` lets N machines (or N sequential runs) split one
//! search: each invocation owns the candidates whose stable fingerprint
//! maps to its index, does disjoint work, and writes its own
//! [`crate::cache::EvalCache`] file; `dse --merge-cache` folds the shard
//! caches together, after which a final unsharded run is all-hits and
//! bit-identical to a run that never sharded.
//!
//! The partition is a pure function of the *identity* of each candidate —
//! [`fingerprint`] hashes the program name and the candidate's canonical
//! label — never of enumeration position. Shards therefore agree on
//! ownership regardless of pruning or how the space was built, and
//! re-running a shard after the space grows only moves candidates whose
//! own identity changed.

use crate::cache::fnv1a64;
use crate::space::Candidate;

/// One shard of an N-way partitioned search: `index` in `[0, count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This invocation's shard index.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl Shard {
    /// Parses the CLI form `i/N` (e.g. `0/3`). Returns `None` for
    /// malformed input, `N == 0`, or `i >= N`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let index: u64 = i.trim().parse().ok()?;
        let count: u64 = n.trim().parse().ok()?;
        if count == 0 || index >= count {
            return None;
        }
        Some(Shard { index, count })
    }

    /// Whether this shard owns a fingerprint.
    #[must_use]
    pub fn owns(&self, fp: u64) -> bool {
        fp % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The stable identity a candidate is sharded (and sampled) by: FNV-1a of
/// `"<program>|<label>"`. Labels are canonical (tile sizes in dimension
/// order, parallelism, substrate label), so the fingerprint survives
/// re-enumeration and differs across programs sharing a space.
#[must_use]
pub fn fingerprint(prog_name: &str, c: &Candidate) -> u64 {
    fnv1a64(format!("{prog_name}|{}", c.label()).as_bytes())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pphw_sim::SimConfig;

    fn cand(par: u32, tile: i64) -> Candidate {
        Candidate {
            tiles: vec![("m".into(), tile)],
            inner_par: par,
            sim_label: "max4".into(),
            sim: SimConfig::default(),
            cap_permille: 1000,
        }
    }

    #[test]
    fn parse_accepts_canonical_forms_and_rejects_nonsense() {
        assert_eq!(Shard::parse("0/3"), Some(Shard { index: 0, count: 3 }));
        assert_eq!(Shard::parse("2/3"), Some(Shard { index: 2, count: 3 }));
        assert_eq!(Shard::parse("3/3"), None, "index out of range");
        assert_eq!(Shard::parse("0/0"), None, "zero shards");
        assert_eq!(Shard::parse("1"), None);
        assert_eq!(Shard::parse("a/b"), None);
        assert_eq!(Shard::parse("-1/3"), None);
        assert_eq!(Shard::parse("1/3").unwrap().to_string(), "1/3");
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let cands: Vec<Candidate> = (0..7)
            .flat_map(|t| (1..=4).map(move |p| cand(p, 4 << t)))
            .collect();
        for count in [1u64, 3, 7] {
            let shards: Vec<Shard> = (0..count).map(|index| Shard { index, count }).collect();
            for c in &cands {
                let fp = fingerprint("gemm", c);
                let owners = shards.iter().filter(|s| s.owns(fp)).count();
                assert_eq!(owners, 1, "exactly one owner at count={count}");
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_identities() {
        let a = cand(8, 16);
        assert_eq!(fingerprint("gemm", &a), fingerprint("gemm", &a.clone()));
        assert_ne!(fingerprint("gemm", &a), fingerprint("spmv", &a));
        assert_ne!(fingerprint("gemm", &a), fingerprint("gemm", &cand(16, 16)));
        assert_ne!(fingerprint("gemm", &a), fingerprint("gemm", &cand(8, 32)));
    }
}
