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
//!   to disk ([`EvalCache::save`] / [`EvalCache::load`]) in a versioned,
//!   checksummed binary format. A truncated, corrupt, or
//!   version-mismatched file degrades to a cold cache — a typed
//!   [`CacheFileError`] or a silent miss, never a panic.
//!   [`EvalCache::insert`] refuses [`EvalOutcome::Failed`], so a failure
//!   is never held, journaled or saved — a later sweep retries it.
//!
//! For crash safety beyond cooperative shutdown, a cache can be opened
//! *journaled* ([`EvalCache::open_journaled`]): every insert is also
//! appended to a sibling write-ahead journal (see [`crate::journal`]), so
//! a process killed at any instant loses at most the last unflushed fsync
//! batch instead of everything since the previous `save`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pphw_hw::Area;

use crate::journal::{encode_record, parse_record, Journal, JournalConfig, JournalStats};
use crate::space::Candidate;
use crate::{EvalOutcome, Measurement};

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
/// outcome, with lifetime hit/miss counters and an optional write-ahead
/// journal for crash safety ([`EvalCache::open_journaled`]).
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, EvalOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `Some` iff the cache was opened journaled. Locked strictly *after*
    /// (never while holding a wait on) `map`: `insert` releases the table
    /// lock before appending, and compaction — which takes the table lock
    /// inside the journal lock via `save` — is therefore cycle-free.
    journal: Mutex<Option<Journal>>,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache::default()
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
    /// one place that rule lives: the table, the journal and snapshots
    /// therefore never see one, and a later sweep retries the point
    /// instead of replaying the failure. On a journaled cache the
    /// entry is also appended to the write-ahead journal, and the journal
    /// is compacted into a fresh snapshot once it outgrows its size
    /// threshold. The in-memory insert always happens first, so a
    /// snapshot written by compaction is always a superset of what the
    /// journal recorded.
    pub fn insert(&self, key: u64, outcome: EvalOutcome) {
        if matches!(outcome, EvalOutcome::Failed(_)) {
            return;
        }
        self.table().insert(key, outcome.clone());
        self.journal_append(key, &outcome);
    }

    /// Locks the journal slot, recovering from poisoning (the journal's
    /// own byte-level invariants are maintained by `Journal`, not by the
    /// critical section).
    fn journal_slot(&self) -> std::sync::MutexGuard<'_, Option<Journal>> {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one already-inserted entry to the journal (no-op on an
    /// unjournaled cache) and compacts if the journal has outgrown its
    /// threshold. Journal I/O errors degrade persistence, never serving:
    /// they are counted in [`JournalStats::io_errors`] and the in-memory
    /// entry stands.
    fn journal_append(&self, key: u64, outcome: &EvalOutcome) {
        let mut slot = self.journal_slot();
        let Some(j) = slot.as_mut() else { return };
        if let Err(e) = j.append(key, outcome) {
            j.stats.io_errors += 1;
            eprintln!("warning: eval-cache journal append failed: {e}");
            return;
        }
        if j.wants_compaction() {
            let snapshot = j.snapshot_path.clone();
            // Publish the snapshot first, then reset the journal: a crash
            // between the two replays entries that are already in the
            // snapshot, which is harmless.
            match self.save(&snapshot) {
                Ok(()) => {
                    if let Err(e) = j.reset() {
                        j.stats.io_errors += 1;
                        eprintln!("warning: eval-cache journal reset failed: {e}");
                    } else {
                        j.stats.compactions += 1;
                    }
                }
                Err(e) => {
                    j.stats.io_errors += 1;
                    eprintln!("warning: eval-cache compaction save failed: {e}");
                }
            }
        }
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

    /// Serializes every entry to `path`, atomically (written to a
    /// uniquely-named sibling temp file, then renamed — safe under
    /// concurrent savers: readers always see a complete image, and the
    /// last completed save wins). The format is the versioned,
    /// checksummed layout documented on [`CacheFileError`]; its entries
    /// are the journal's records ([`encode_record`]).
    ///
    /// # Errors
    ///
    /// [`CacheFileError::Io`] if the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), CacheFileError> {
        let table = self.table();
        let mut records: Vec<(u64, Vec<u8>)> = table
            .iter()
            .map(|(&key, out)| (key, encode_record(key, out)))
            .collect();
        drop(table);
        records.sort_by_key(|(key, _)| *key);
        let mut bytes = Vec::with_capacity(20 + records.len() * 80);
        bytes.extend_from_slice(&CACHE_MAGIC);
        bytes.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for (_, record) in &records {
            bytes.extend_from_slice(record);
        }
        // The temp name must be unique per save: concurrent savers (e.g.
        // two daemons pointed at the same cache file, or a sweep racing a
        // server shutdown) sharing one `.tmp` path would truncate each
        // other mid-write and one rename would publish a torn file. With
        // unique names each rename atomically publishes a complete image;
        // last writer wins.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, &bytes).map_err(CacheFileError::Io)?;
        std::fs::rename(&tmp, path).map_err(|e| {
            // Never leave an orphaned temp file behind a failed publish.
            let _ = std::fs::remove_file(&tmp);
            CacheFileError::Io(e)
        })
    }

    /// Deserializes a cache previously written by [`EvalCache::save`].
    ///
    /// # Errors
    ///
    /// A typed [`CacheFileError`] on any irregularity — missing file, bad
    /// magic, unsupported version, truncation, or a per-entry checksum or
    /// encoding mismatch. The whole file is rejected (cold cache): a
    /// partially trusted cache is worse than no cache.
    pub fn load(path: &Path) -> Result<EvalCache, CacheFileError> {
        let bytes = std::fs::read(path).map_err(CacheFileError::Io)?;
        let mut r = Reader::new(&bytes);
        if r.take(8)? != CACHE_MAGIC {
            return Err(CacheFileError::BadMagic);
        }
        let version = r.u32()?;
        if version != CACHE_VERSION {
            return Err(CacheFileError::UnsupportedVersion(version));
        }
        let count = r.u64()?;
        let cache = EvalCache::new();
        {
            let mut table = cache.table();
            for entry in 0..count {
                let (key, outcome, next) = parse_record(&bytes, r.pos, entry)?;
                table.insert(key, outcome);
                r.pos = next;
            }
            if !r.at_end() {
                return Err(CacheFileError::TrailingBytes);
            }
        }
        Ok(cache)
    }

    /// Loads `path` if it holds a valid cache, otherwise returns an empty
    /// (cold) cache. Never panics and never errors: a missing, truncated,
    /// corrupt, or incompatible file is simply not a cache.
    #[must_use]
    pub fn load_or_cold(path: &Path) -> EvalCache {
        EvalCache::load(path).unwrap_or_default()
    }

    /// Opens a crash-safe journaled cache at `path` with default tuning:
    /// [`EvalCache::open_journaled_with`] with [`JournalConfig::default`].
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the journal file cannot be opened or
    /// repaired (a corrupt *snapshot* still degrades to cold, as with
    /// [`EvalCache::load_or_cold`]).
    pub fn open_journaled(path: &Path) -> std::io::Result<EvalCache> {
        EvalCache::open_journaled_with(path, JournalConfig::default())
    }

    /// Opens a crash-safe journaled cache: loads the snapshot at `path`
    /// (cold on any irregularity), replays the intact prefix of the
    /// sibling `<path>.jnl` journal on top of it (journal entries win —
    /// they are newer), truncates any torn journal tail, and arms the
    /// cache so every subsequent [`EvalCache::insert`] is appended to the
    /// journal (fsynced every [`JournalConfig::sync_every`] records) and
    /// compacted into a fresh snapshot once the journal exceeds
    /// [`JournalConfig::compact_bytes`].
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the journal file cannot be opened,
    /// repaired, or created.
    pub fn open_journaled_with(path: &Path, cfg: JournalConfig) -> std::io::Result<EvalCache> {
        let cache = EvalCache::load_or_cold(path);
        let recovered_snapshot = cache.len() as u64;
        let (mut journal, replayed) = Journal::open(path, cfg)?;
        journal.stats.recovered_snapshot = recovered_snapshot;
        {
            let mut table = cache.table();
            for (key, outcome) in replayed {
                table.insert(key, outcome);
            }
        }
        *cache.journal_slot() = Some(journal);
        Ok(cache)
    }

    /// Whether this cache was opened with a write-ahead journal.
    #[must_use]
    pub fn is_journaled(&self) -> bool {
        self.journal_slot().is_some()
    }

    /// A snapshot of the journal's recovery/append/compaction counters,
    /// or `None` on an unjournaled cache.
    #[must_use]
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal_slot().as_ref().map(|j| j.stats)
    }

    /// Forces any unsynced journal batch to disk. No-op (and `Ok`) on an
    /// unjournaled cache.
    ///
    /// # Errors
    ///
    /// The underlying `fsync` error, if any.
    pub fn flush_journal(&self) -> std::io::Result<()> {
        match self.journal_slot().as_mut() {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    /// Rewrites the snapshot from the full in-memory table (atomic
    /// temp-file + rename) and resets the journal to empty. Call at
    /// cooperative shutdown so the next open replays nothing. No-op on an
    /// unjournaled cache — use [`EvalCache::save`] there.
    ///
    /// # Errors
    ///
    /// A [`CacheFileError`] if the snapshot cannot be written or the
    /// journal cannot be reset.
    pub fn checkpoint(&self) -> Result<(), CacheFileError> {
        let mut slot = self.journal_slot();
        let Some(j) = slot.as_mut() else {
            return Ok(());
        };
        let snapshot = j.snapshot_path.clone();
        self.save(&snapshot)?;
        j.reset().map_err(CacheFileError::Io)?;
        j.stats.compactions += 1;
        Ok(())
    }
}

/// File magic for the persistent evaluation cache.
pub const CACHE_MAGIC: [u8; 8] = *b"PPHWEVC\0";

/// Current format version. Bump on any layout or encoding change; readers
/// reject every other version (cold cache).
pub const CACHE_VERSION: u32 = 1;

/// Why a persistent cache file was rejected.
///
/// The on-disk layout, all integers little-endian and floats stored by
/// bit pattern:
///
/// ```text
/// magic    [u8; 8]  = b"PPHWEVC\0"
/// version  u32      = 1
/// count    u64
/// entry*count:
///   key       u64      canonical configuration hash
///   len       u32      payload length in bytes
///   payload   [u8;len] tag 0 (Feasible): cycles u64, dram_words u64,
///                        on_chip_bytes u64, area logic/ff/mem f64-bits
///                      tag 1 (Infeasible): reason length u32 + UTF-8
///   checksum  u64      fnv1a64(key-bytes ++ payload)
/// ```
#[derive(Debug)]
pub enum CacheFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CACHE_VERSION`].
    UnsupportedVersion(u32),
    /// The file ended before the declared content did.
    Truncated,
    /// Bytes remain after the declared entries.
    TrailingBytes,
    /// An entry failed its checksum or could not be decoded.
    Corrupt {
        /// Zero-based index of the offending entry.
        entry: u64,
    },
}

impl std::fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFileError::Io(e) => write!(f, "cache file I/O: {e}"),
            CacheFileError::BadMagic => write!(f, "not a pphw evaluation cache (bad magic)"),
            CacheFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported cache version {v} (expected {CACHE_VERSION})"
                )
            }
            CacheFileError::Truncated => write!(f, "cache file truncated"),
            CacheFileError::TrailingBytes => write!(f, "cache file has trailing bytes"),
            CacheFileError::Corrupt { entry } => {
                write!(
                    f,
                    "cache entry {entry} corrupt (checksum or encoding mismatch)"
                )
            }
        }
    }
}

impl std::error::Error for CacheFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

pub(crate) fn entry_checksum(key: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

pub(crate) fn encode_outcome(out: &EvalOutcome) -> Vec<u8> {
    match out {
        EvalOutcome::Feasible(m) => {
            let mut b = Vec::with_capacity(1 + 6 * 8);
            b.push(0u8);
            b.extend_from_slice(&m.cycles.to_le_bytes());
            b.extend_from_slice(&m.dram_words.to_le_bytes());
            b.extend_from_slice(&m.on_chip_bytes.to_le_bytes());
            b.extend_from_slice(&m.area.logic.to_bits().to_le_bytes());
            b.extend_from_slice(&m.area.ff.to_bits().to_le_bytes());
            b.extend_from_slice(&m.area.mem.to_bits().to_le_bytes());
            b
        }
        EvalOutcome::Infeasible(reason) => {
            let mut b = Vec::with_capacity(1 + 4 + reason.len());
            b.push(1u8);
            b.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            b.extend_from_slice(reason.as_bytes());
            b
        }
        // Never reached: `EvalCache::insert` refuses Failed, so no table
        // or journal holds one. Encoded as an empty Infeasible so the
        // match stays exhaustive without a panic path.
        EvalOutcome::Failed(_) => vec![1, 0, 0, 0, 0],
    }
}

pub(crate) fn decode_outcome(payload: &[u8]) -> Option<EvalOutcome> {
    let mut r = Reader::new(payload);
    let out = match r.take(1).ok()?[0] {
        0 => {
            let cycles = r.u64().ok()?;
            let dram_words = r.u64().ok()?;
            let on_chip_bytes = r.u64().ok()?;
            let logic = f64::from_bits(r.u64().ok()?);
            let ff = f64::from_bits(r.u64().ok()?);
            let mem = f64::from_bits(r.u64().ok()?);
            EvalOutcome::Feasible(Measurement {
                cycles,
                dram_words,
                on_chip_bytes,
                area: Area { logic, ff, mem },
            })
        }
        1 => {
            let len = r.u32().ok()? as usize;
            let reason = String::from_utf8(r.take(len).ok()?.to_vec()).ok()?;
            EvalOutcome::Infeasible(reason)
        }
        _ => return None,
    };
    if !r.at_end() {
        return None;
    }
    Some(out)
}

/// A bounds-checked little-endian byte reader: every read that would run
/// past the end is [`CacheFileError::Truncated`], never a panic.
pub(crate) struct Reader<'b> {
    pub(crate) bytes: &'b [u8],
    pub(crate) pos: usize,
}

impl<'b> Reader<'b> {
    fn new(bytes: &'b [u8]) -> Reader<'b> {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'b [u8], CacheFileError> {
        let end = self.pos.checked_add(n).ok_or(CacheFileError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(CacheFileError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CacheFileError> {
        let bytes = self.take(N)?.try_into();
        bytes.map_err(|_| CacheFileError::Truncated)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CacheFileError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CacheFileError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
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
        let a = cache.get_or_compute(1, || 10);
        let b = cache.get_or_compute(1, || 99);
        let c = cache.get_or_compute(2, || 20);
        assert_eq!((*a, *b, *c), (10, 10, 20));
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 1);
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
