//! The two-level evaluation cache.
//!
//! Every candidate is identified by a canonical 64-bit hash of its full
//! configuration — program name, concrete sizes, tile sizes, parallelism
//! factor, simulation substrate, and the evaluator's salt (optimization
//! level, budgets, …). Repeated searches, resumed searches, and
//! overlapping sweeps that share a cache therefore never recompile the
//! same design: the second encounter is a lookup.
//!
//! Two cache levels stack on that key scheme:
//!
//! * [`DesignCache`] — in-memory, per-sweep, keyed by [`design_key`] (the
//!   configuration hash *minus* the simulation substrate). Candidates
//!   differing only in their `SimConfig` share one compiled design, built
//!   exactly once even under concurrent evaluation.
//! * [`EvalCache`] — the full-key measurement memo, optionally persisted
//!   to one file in the versioned, checksummed format of
//!   [`crate::journal`]. A truncated, corrupt, or version-mismatched file
//!   degrades to a cold cache — a typed [`CacheFileError`] or a silent
//!   miss, never a panic. [`EvalCache::insert`] refuses
//!   [`EvalOutcome::Failed`], so a failure is never held or written — a
//!   later sweep retries it.
//!
//! For crash safety beyond cooperative shutdown, a cache can be opened
//! *journaled* ([`EvalCache::open_journaled`]): every insert is also
//! appended to the same file, so a process killed at any instant loses
//! nothing it wrote, and a power loss at most the last unsynced batch.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::journal::{encode_record, publish, read, Journal, JournalStats, Policy};
pub use crate::journal::{CacheFileError, CACHE_MAGIC, CACHE_VERSION};
use crate::space::Candidate;
use crate::EvalOutcome;

/// FNV-1a 64-bit over a byte string — stable across runs, platforms, and
/// thread counts (unlike `std`'s randomized hasher).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical configuration hash of one candidate. Sizes and tiles are
/// sorted by dimension name so two sweeps that enumerate dimensions in
/// different orders still share cache entries.
#[must_use]
pub fn config_key(program: &str, sizes: &[(String, i64)], salt: &str, c: &Candidate) -> u64 {
    let sim = format!("sim={}|", c.sim.canonical_key());
    fnv1a64(canonical(program, sizes, salt, c, &sim).as_bytes())
}

/// The design identity of a candidate: the canonical configuration hash
/// *without* the simulation substrate. Two candidates with equal design
/// keys compile to the same hardware — only their simulated substrate
/// differs — so they can share one compile artifact.
#[must_use]
pub fn design_key(program: &str, sizes: &[(String, i64)], salt: &str, c: &Candidate) -> u64 {
    fnv1a64(canonical(program, sizes, salt, c, "").as_bytes())
}

/// The text both keys hash; `sim` (empty, or `sim=…|`) is the only part
/// in which they differ.
fn canonical(
    program: &str,
    sizes: &[(String, i64)],
    salt: &str,
    c: &Candidate,
    sim: &str,
) -> String {
    let mut sizes: Vec<_> = sizes.iter().collect();
    sizes.sort();
    let mut tiles: Vec<_> = c.tiles.iter().collect();
    tiles.sort();
    let par = c.inner_par;
    format!("prog={program}|sizes={sizes:?}|tiles={tiles:?}|par={par}|{sim}salt={salt}")
}

/// A thread-safe share-one-computation table: the first caller of
/// [`DesignCache::get_or_compute`] for a key runs the builder exactly
/// once; concurrent callers for the same key block on the entry's
/// [`OnceLock`] and receive the same [`Arc`]. Used to share compile
/// artifacts across candidates that differ only in simulation substrate,
/// deterministically at any thread count (the builder is pure, and
/// exactly one invocation ever runs per key).
#[derive(Debug)]
pub struct DesignCache<T> {
    slots: Mutex<HashMap<u64, Arc<OnceLock<Arc<T>>>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl<T> Default for DesignCache<T> {
    fn default() -> Self {
        DesignCache::new()
    }
}

impl<T> DesignCache<T> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> DesignCache<T> {
        DesignCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// Returns the artifact for `key`, running `build` only if this is the
    /// key's first sighting. Concurrent callers block until the one
    /// builder finishes and then share its result.
    pub fn get_or_compute(&self, key: u64, build: impl FnOnce() -> T) -> Arc<T> {
        let slot = {
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(slots.entry(key).or_default())
        };
        let mut built = false;
        let value = Arc::clone(slot.get_or_init(|| {
            built = true;
            Arc::new(build())
        }));
        if built {
            self.builds.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Returns the artifact for `key` if it is already built, counting a
    /// hit as [`DesignCache::get_or_compute`] would. Never blocks: a key
    /// still building, or never seen, is `None` and counts nothing.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        let value = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .and_then(|slot| slot.get().map(Arc::clone))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Number of distinct keys seen.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of lookups served from an existing artifact.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of builder invocations (one per distinct key).
    #[must_use]
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}

/// A thread-safe memoization table from configuration hash to evaluation
/// outcome, with lifetime hit/miss counters and an optional append handle
/// on its file for crash safety ([`EvalCache::open_journaled`]).
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, EvalOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `Some` iff the cache was opened journaled. Never locked while
    /// holding `map`: `insert` releases the table before appending, and
    /// `checkpoint` takes the table (through `save`) inside this lock.
    journal: Mutex<Option<Journal>>,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// A cache holding `records`; later records win over earlier ones.
    fn with_records(records: Vec<(u64, EvalOutcome)>, journal: Option<Journal>) -> EvalCache {
        EvalCache {
            map: Mutex::new(records.into_iter().collect()),
            journal: Mutex::new(journal),
            ..EvalCache::default()
        }
    }

    /// Locks the table, recovering from poisoning: entries are only ever
    /// inserted whole, so a panic elsewhere cannot leave a half-written
    /// measurement behind.
    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<u64, EvalOutcome>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a configuration, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<EvalOutcome> {
        let out = self.table().get(&key).cloned();
        match out {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Stores a measurement — unless it is an [`EvalOutcome::Failed`],
    /// which says nothing about the design point and is dropped here, the
    /// one place that rule lives: the table and the file therefore never
    /// see one, and a later sweep retries the point instead of replaying
    /// the failure. On a journaled cache the entry is also appended to the
    /// file, after the in-memory insert, so a concurrent `checkpoint`
    /// either saves it or is followed by its append. An append error
    /// degrades persistence, never serving: it is counted in
    /// [`JournalStats::io_errors`] and the in-memory entry stands.
    pub fn insert(&self, key: u64, outcome: EvalOutcome) {
        if matches!(outcome, EvalOutcome::Failed(_)) {
            return;
        }
        self.table().insert(key, outcome.clone());
        if let Some(j) = self.journal_slot().as_mut() {
            if let Err(e) = j.append(key, &outcome) {
                j.stats.io_errors += 1;
                eprintln!("warning: eval-cache append failed: {e}");
            }
        }
    }

    /// Locks the journal slot, recovering from poisoning (the file's
    /// byte-level invariants are maintained by `Journal`, not by the
    /// critical section).
    fn journal_slot(&self) -> std::sync::MutexGuard<'_, Option<Journal>> {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of cached configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Writes every entry to `path` as sealed records in key order,
    /// atomically and durably (see [`crate::journal`]): readers always see
    /// a complete image, and of concurrent savers the last one wins.
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] if the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), CacheFileError> {
        let mut records: Vec<(u64, Vec<u8>)> = self
            .table()
            .iter()
            .map(|(&key, out)| (key, encode_record(key, out)))
            .collect();
        records.sort_by_key(|(key, _)| *key);
        let mut body = Vec::with_capacity(records.len() * 80);
        for (_, record) in &records {
            body.extend_from_slice(record);
        }
        publish(path, records.len() as u64, &body).map_err(CacheFileError::Io)
    }

    /// Reads a cache file under the strict policy: its sealed records and
    /// any whole records appended after them.
    ///
    /// # Errors
    ///
    /// A typed [`CacheFileError`] on any irregularity — missing file, bad
    /// magic, unsupported version, truncation, a per-entry checksum or
    /// encoding mismatch, or a torn appended record. The whole file is
    /// rejected (cold cache): a partially trusted cache is worse than no
    /// cache.
    pub fn load(path: &Path) -> Result<EvalCache, CacheFileError> {
        let bytes = std::fs::read(path).map_err(CacheFileError::Io)?;
        let contents = read(&bytes, Policy::Strict)?;
        Ok(EvalCache::with_records(contents.records, None))
    }

    /// Loads `path` if it holds a valid cache, otherwise returns an empty
    /// (cold) cache. Never panics and never errors: a missing, truncated,
    /// corrupt, or incompatible file is simply not a cache.
    #[must_use]
    pub fn load_or_cold(path: &Path) -> EvalCache {
        EvalCache::load(path).unwrap_or_default()
    }

    /// Opens a crash-safe journaled cache on the one file at `path`: keeps
    /// its intact prefix of records and truncates a torn tail (a foreign
    /// or missing file is a cold cache over a fresh file), then appends
    /// every subsequent [`EvalCache::insert`] to it, fsynced in batches.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the file cannot be read, repaired, or
    /// created.
    pub fn open_journaled(path: &Path) -> std::io::Result<EvalCache> {
        let (journal, records) = Journal::open(path)?;
        Ok(EvalCache::with_records(records, Some(journal)))
    }

    /// Whether this cache was opened journaled.
    #[must_use]
    pub fn is_journaled(&self) -> bool {
        self.journal_slot().is_some()
    }

    /// A snapshot of the journal's recovery/append/checkpoint counters, or
    /// `None` on an unjournaled cache.
    #[must_use]
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal_slot().as_ref().map(|j| j.stats)
    }

    /// Compacts the file: [`EvalCache::save`]s the full table over it, so
    /// every entry is sealed once, and appends resume after that. Call at
    /// cooperative shutdown. No-op on an unjournaled cache — use `save`
    /// there.
    ///
    /// # Errors
    ///
    /// A [`CacheFileError`] if the file cannot be written or reopened.
    pub fn checkpoint(&self) -> Result<(), CacheFileError> {
        let mut slot = self.journal_slot();
        let Some(j) = slot.as_mut() else {
            return Ok(());
        };
        let saved = self.save(&j.path);
        // Even a failed save may have renamed a new file over the old one
        // (its directory sync comes after), so the handle always follows.
        j.reopen().map_err(CacheFileError::Io)?;
        saved?;
        j.stats.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::Measurement;
    use pphw_hw::Area;
    use pphw_sim::SimConfig;

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

    fn outcome(cycles: u64) -> EvalOutcome {
        EvalOutcome::Feasible(Measurement {
            cycles,
            dram_words: 1,
            on_chip_bytes: 1,
            area: Area::default(),
        })
    }

    #[test]
    fn key_is_stable_and_order_insensitive() {
        let s1 = sizes(&[("m", 64), ("n", 32)]);
        let s2 = sizes(&[("n", 32), ("m", 64)]);
        let c1 = cand(&[("m", 8), ("n", 4)], 16);
        let c2 = cand(&[("n", 4), ("m", 8)], 16);
        assert_eq!(config_key("p", &s1, "", &c1), config_key("p", &s2, "", &c2));
    }

    #[test]
    fn key_distinguishes_every_component() {
        let s = sizes(&[("m", 64)]);
        let base = config_key("p", &s, "", &cand(&[("m", 8)], 16));
        assert_ne!(base, config_key("q", &s, "", &cand(&[("m", 8)], 16)));
        assert_ne!(base, config_key("p", &s, "", &cand(&[("m", 4)], 16)));
        assert_ne!(base, config_key("p", &s, "", &cand(&[("m", 8)], 32)));
        assert_ne!(base, config_key("p", &s, "meta", &cand(&[("m", 8)], 16)));
        let mut other_sim = cand(&[("m", 8)], 16);
        other_sim.sim = SimConfig::default().with_clock_mhz(200.0);
        assert_ne!(base, config_key("p", &s, "", &other_sim));
        assert_ne!(
            base,
            config_key("p", &sizes(&[("m", 128)]), "", &cand(&[("m", 8)], 16))
        );
    }

    /// Keys and fingerprints are on-disk and cross-process identities: a
    /// cache file written by an earlier build must keep hitting, so these
    /// literals are never edited to make a change pass.
    #[test]
    fn key_and_fingerprint_literals_are_pinned() {
        let salt = "opt=Metapipelined;interchange=true;budget=6291456";
        let s = sizes(&[("m", 64), ("n", 32)]);
        let plain = cand(&[("m", 8), ("n", 4)], 16);
        let mut low_bw = cand(&[("n", 16)], 64);
        low_bw.sim_label = "low-bw".into();
        low_bw.sim = SimConfig::default().with_dram_gbps(38.4);
        let keys = |c: &Candidate| {
            (
                config_key("sumrows", &s, salt, c),
                design_key("sumrows", &s, salt, c),
                crate::model::fingerprint("sumrows", c),
            )
        };
        assert_eq!(
            keys(&plain),
            (
                0x4a0e_a876_af0a_f7c6,
                0x122a_24ca_55ec_df13,
                0x2256_a6e6_d2ee_c007
            )
        );
        assert_eq!(
            keys(&low_bw),
            (
                0xe77c_a592_c33d_8b0f,
                0xd26a_b8d5_3935_d19d,
                0xef28_3045_b343_a1d9
            )
        );
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let cache = EvalCache::new();
        let key = 42u64;
        assert!(cache.get(key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key, outcome(100));
        assert_eq!(cache.get(key), Some(outcome(100)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn design_key_ignores_sim_config_but_config_key_does_not() {
        let s = sizes(&[("m", 64)]);
        let c1 = cand(&[("m", 8)], 16);
        let mut c2 = cand(&[("m", 8)], 16);
        c2.sim = SimConfig::default().with_clock_mhz(200.0);
        assert_eq!(design_key("p", &s, "", &c1), design_key("p", &s, "", &c2));
        assert_ne!(config_key("p", &s, "", &c1), config_key("p", &s, "", &c2));
        // Tile, par, program, salt, and sizes still all matter.
        let base = design_key("p", &s, "", &c1);
        assert_ne!(base, design_key("q", &s, "", &c1));
        assert_ne!(base, design_key("p", &s, "salted", &c1));
        assert_ne!(base, design_key("p", &s, "", &cand(&[("m", 4)], 16)));
        assert_ne!(base, design_key("p", &s, "", &cand(&[("m", 8)], 32)));
        assert_ne!(base, design_key("p", &sizes(&[("m", 128)]), "", &c1));
    }

    #[test]
    fn design_cache_builds_each_key_exactly_once() {
        let cache: DesignCache<u64> = DesignCache::new();
        assert!(cache.get(1).is_none(), "an unseen key is no hit");
        let a = cache.get_or_compute(1, || 10);
        let b = cache.get_or_compute(1, || 99);
        let c = cache.get_or_compute(2, || 20);
        assert_eq!((*a, *b, *c), (10, 10, 20));
        assert_eq!(cache.get(2).map(|v| *v), Some(20));
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn design_cache_is_exactly_once_under_concurrency() {
        use std::sync::atomic::AtomicUsize;

        let cache: Arc<DesignCache<usize>> = Arc::new(DesignCache::new());
        let built = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let built = Arc::clone(&built);
                std::thread::spawn(move || {
                    let v = cache.get_or_compute(7, || {
                        built.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        1234
                    });
                    assert_eq!(*v, 1234);
                    i
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn get_never_waits_on_a_build_in_progress() {
        let cache: DesignCache<u64> = DesignCache::new();
        let (started, building) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let shared = &cache;
        std::thread::scope(|s| {
            s.spawn(move || {
                shared.get_or_compute(3, || {
                    started.send(()).unwrap();
                    released.recv().unwrap();
                    30
                })
            });
            building.recv().unwrap();
            assert!(cache.get(3).is_none(), "a build in progress is no hit");
            release.send(()).unwrap();
        });
        assert_eq!(cache.get(3).map(|v| *v), Some(30));
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
    }

    fn sample_cache() -> EvalCache {
        let cache = EvalCache::new();
        cache.insert(
            1,
            EvalOutcome::Feasible(Measurement {
                cycles: 123_456,
                dram_words: 789,
                on_chip_bytes: 4096,
                area: Area {
                    logic: 1.5,
                    ff: 0.25,
                    mem: 42.0,
                },
            }),
        );
        cache.insert(2, EvalOutcome::Infeasible("budget exceeded".into()));
        cache.insert(3, EvalOutcome::Failed("transient".into()));
        cache
    }

    #[test]
    fn persistent_cache_round_trips_and_drops_failed() {
        let dir = std::env::temp_dir().join("pphw-cache-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evals.pphwc");
        let cache = sample_cache();
        cache.save(&path).unwrap();
        // The file is the header plus the journal's record framing, one
        // record per entry in key order.
        let mut want = [
            &CACHE_MAGIC[..],
            &CACHE_VERSION.to_le_bytes(),
            &2u64.to_le_bytes(),
        ]
        .concat();
        for key in [1u64, 2] {
            want.extend(encode_record(key, &cache.get(key).unwrap()));
        }
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let loaded = EvalCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.get(1),
            Some(EvalOutcome::Feasible(Measurement {
                cycles: 123_456,
                dram_words: 789,
                on_chip_bytes: 4096,
                area: Area {
                    logic: 1.5,
                    ff: 0.25,
                    mem: 42.0,
                },
            }))
        );
        assert_eq!(
            loaded.get(2),
            Some(EvalOutcome::Infeasible("budget exceeded".into()))
        );
        assert!(loaded.get(3).is_none(), "Failed outcomes must not persist");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_savers_never_publish_a_torn_file() {
        let dir = std::env::temp_dir().join("pphw-cache-concurrent-save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evals.pphwc");
        // Each saver writes a differently-sized cache to the same path;
        // every interleaving must leave a loadable image of one of them.
        std::thread::scope(|scope| {
            for round in 0u64..4 {
                let path = &path;
                scope.spawn(move || {
                    let cache = EvalCache::new();
                    for key in 0..=round * 8 {
                        cache.insert(key, EvalOutcome::Infeasible(format!("r{round}")));
                    }
                    for _ in 0..16 {
                        cache.save(path).unwrap();
                    }
                });
            }
        });
        let loaded = EvalCache::load(&path).expect("last completed save is intact");
        assert!(
            [1, 9, 17, 25].contains(&loaded.len()),
            "len {}",
            loaded.len()
        );
        // No orphaned temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "orphaned temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_refuses_failed() {
        let a = EvalCache::new();
        a.insert(5, EvalOutcome::Failed("transient here".into()));
        assert!(a.is_empty(), "a failure is not a cache entry");
        a.insert(5, outcome(555));
        assert_eq!(a.get(5), Some(outcome(555)), "retry success lands");
    }

    #[test]
    fn corrupt_cache_files_degrade_cold_without_panic() {
        let dir = std::env::temp_dir().join("pphw-cache-corruption");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.pphwc");
        sample_cache().save(&good).unwrap();
        let bytes = std::fs::read(&good).unwrap();

        // Missing file.
        let missing = dir.join("no-such-file.pphwc");
        assert!(matches!(
            EvalCache::load(&missing),
            Err(CacheFileError::Io(_))
        ));
        assert!(EvalCache::load_or_cold(&missing).is_empty());

        // Empty file.
        let empty = dir.join("empty.pphwc");
        std::fs::write(&empty, []).unwrap();
        assert!(matches!(
            EvalCache::load(&empty),
            Err(CacheFileError::Truncated)
        ));
        assert!(EvalCache::load_or_cold(&empty).is_empty());

        // Bad magic.
        let bad_magic = dir.join("bad-magic.pphwc");
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        std::fs::write(&bad_magic, &b).unwrap();
        assert!(matches!(
            EvalCache::load(&bad_magic),
            Err(CacheFileError::BadMagic)
        ));
        assert!(EvalCache::load_or_cold(&bad_magic).is_empty());

        // Version mismatch.
        let bad_version = dir.join("bad-version.pphwc");
        let mut b = bytes.clone();
        b[8..12].copy_from_slice(&(CACHE_VERSION + 1).to_le_bytes());
        std::fs::write(&bad_version, &b).unwrap();
        assert!(matches!(
            EvalCache::load(&bad_version),
            Err(CacheFileError::UnsupportedVersion(v)) if v == CACHE_VERSION + 1
        ));
        assert!(EvalCache::load_or_cold(&bad_version).is_empty());

        // Truncation at every prefix length shorter than the file.
        let truncated = dir.join("truncated.pphwc");
        for cut in [1, 8, 12, 20, 28, bytes.len() - 1] {
            std::fs::write(&truncated, &bytes[..cut]).unwrap();
            let err = EvalCache::load(&truncated).unwrap_err();
            assert!(
                matches!(
                    err,
                    CacheFileError::Truncated
                        | CacheFileError::BadMagic
                        | CacheFileError::Corrupt { .. }
                ),
                "cut={cut} gave unexpected error {err}"
            );
            assert!(EvalCache::load_or_cold(&truncated).is_empty());
        }

        // Bit flip in an entry payload trips that entry's checksum.
        let flipped = dir.join("flipped.pphwc");
        let mut b = bytes.clone();
        let payload_byte = 20 + 8 + 4 + 2; // into the first entry's payload
        b[payload_byte] ^= 0x01;
        std::fs::write(&flipped, &b).unwrap();
        assert!(matches!(
            EvalCache::load(&flipped),
            Err(CacheFileError::Corrupt { entry: 0 })
        ));
        assert!(EvalCache::load_or_cold(&flipped).is_empty());

        // Trailing garbage after the declared entries.
        let trailing = dir.join("trailing.pphwc");
        let mut b = bytes.clone();
        b.push(0xAB);
        std::fs::write(&trailing, &b).unwrap();
        assert!(matches!(
            EvalCache::load(&trailing),
            Err(CacheFileError::TrailingBytes)
        ));
        assert!(EvalCache::load_or_cold(&trailing).is_empty());

        std::fs::remove_dir_all(&dir).ok();
    }
}
