//! The crash-safe append-only journal behind [`EvalCache::open_journaled`].
//!
//! A journaled cache makes every evaluation durable *as it lands* instead
//! of only at cooperative shutdown: each [`EvalCache::insert`] appends one
//! checksummed record to a sibling `<snapshot>.jnl` file, fsynced in
//! batches, so a `kill -9` at any instant loses at most the unflushed
//! batch. Recovery loads the snapshot (if any), then replays the journal
//! record by record, stopping at the first torn or corrupt record — the
//! intact prefix is trusted, the tail is truncated away, and appending
//! resumes from there.
//!
//! On-disk layout (all integers little-endian, same entry encoding and
//! checksum as the snapshot format documented on
//! [`CacheFileError`](crate::cache::CacheFileError)):
//!
//! ```text
//! magic    [u8; 8]  = b"PPHWEVJ\0"
//! version  u32      = 1
//! record*:
//!   key       u64      canonical configuration hash
//!   len       u32      payload length in bytes
//!   payload   [u8;len] encoded EvalOutcome (never Failed: the cache refuses it)
//!   checksum  u64      fnv1a64(key-bytes ++ payload)
//! ```
//!
//! The journal is bounded by compaction: when it outgrows
//! [`JournalConfig::compact_bytes`], the full cache is rewritten as a
//! snapshot through the existing unique-temp + atomic-rename path and the
//! journal is reset to an empty header. A crash between those two steps
//! is safe in both orders — replaying journal records that are already in
//! the snapshot re-inserts identical values, and a half-written header is
//! recognized as an empty journal while every entry lives in the
//! just-published snapshot.
//!
//! [`EvalCache::insert`]: crate::cache::EvalCache::insert
//! [`EvalCache::open_journaled`]: crate::cache::EvalCache::open_journaled

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::cache::{decode_outcome, encode_outcome, entry_checksum, CacheFileError, Reader};
use crate::EvalOutcome;

/// File magic for the evaluation-cache journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PPHWEVJ\0";

/// Journal format version; readers treat any other version as an empty
/// (untrusted) journal and start fresh — the snapshot is never at risk.
pub const JOURNAL_VERSION: u32 = 1;

/// Bytes of the journal header (magic + version).
const HEADER_LEN: u64 = 12;

/// Tuning for a journaled cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// `fsync` the journal after this many appended records. `1` makes
    /// every insert durable before it returns; larger values batch the
    /// syncs (a crash loses at most the unflushed batch).
    pub sync_every: usize,
    /// Rewrite the snapshot and reset the journal once the journal file
    /// exceeds this many bytes.
    pub compact_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            sync_every: 8,
            compact_bytes: 4 << 20,
        }
    }
}

/// Lifetime counters for a journaled cache, including what recovery saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries recovered from the snapshot file at open.
    pub recovered_snapshot: u64,
    /// Entries replayed from the journal at open.
    pub recovered_journal: u64,
    /// Bytes discarded from the journal's torn tail at open.
    pub torn_tail_bytes: u64,
    /// Records appended since open.
    pub appended: u64,
    /// `fsync` calls issued for appended batches.
    pub syncs: u64,
    /// Snapshot rewrites triggered by journal growth or [`checkpoint`].
    ///
    /// [`checkpoint`]: crate::cache::EvalCache::checkpoint
    pub compactions: u64,
    /// Journal write errors (the entry stays in memory; persistence
    /// degrades but serving continues).
    pub io_errors: u64,
}

/// The sibling journal path for a snapshot path: `<snapshot>.jnl`.
#[must_use]
pub fn journal_path(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.as_os_str().to_os_string();
    os.push(".jnl");
    PathBuf::from(os)
}

/// Parses journal bytes into the entries of every intact record plus the
/// byte offset where the intact prefix ends. A missing/short/foreign
/// header yields `(vec![], 0)`: the whole file is untrusted. Any torn or
/// corrupt record ends the replay; everything before it is kept.
#[must_use]
pub fn replay(bytes: &[u8]) -> (Vec<(u64, EvalOutcome)>, u64) {
    if bytes.len() < HEADER_LEN as usize
        || bytes[..8] != JOURNAL_MAGIC
        || bytes[8..12] != JOURNAL_VERSION.to_le_bytes()
    {
        return (Vec::new(), 0);
    }
    let mut entries = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while let Ok((key, outcome, next)) = parse_record(bytes, pos, entries.len() as u64) {
        entries.push((key, outcome));
        pos = next;
    }
    (entries, pos as u64)
}

/// Parses the record at `pos` (the `entry`-th of its file), returning
/// `(key, outcome, next_pos)` — the one reader of the `key | len | payload
/// | checksum` framing, for the journal and the snapshot alike.
///
/// # Errors
///
/// [`CacheFileError::Truncated`] when the bytes end before the record
/// does; [`CacheFileError::Corrupt`] when it is all there but fails its
/// checksum or does not decode. The journal treats both as the end of its
/// intact prefix; the snapshot loader reports them as they are.
pub(crate) fn parse_record(
    bytes: &[u8],
    pos: usize,
    entry: u64,
) -> Result<(u64, EvalOutcome, usize), CacheFileError> {
    let mut r = Reader { bytes, pos };
    let (key, len) = (r.u64()?, r.u32()? as usize);
    let (payload, checksum) = (r.take(len)?, r.u64()?);
    if checksum != entry_checksum(key, payload) {
        return Err(CacheFileError::Corrupt { entry });
    }
    let outcome = decode_outcome(payload).ok_or(CacheFileError::Corrupt { entry })?;
    Ok((key, outcome, r.pos))
}

/// One record, encoded: `key | len | payload | checksum` — the one writer
/// of that framing, for the journal and the snapshot alike.
#[must_use]
pub(crate) fn encode_record(key: u64, outcome: &EvalOutcome) -> Vec<u8> {
    let payload = encode_outcome(outcome);
    let mut rec = Vec::with_capacity(20 + payload.len());
    rec.extend_from_slice(&key.to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec.extend_from_slice(&entry_checksum(key, &payload).to_le_bytes());
    rec
}

/// The live append handle plus its counters. Owned by the cache behind a
/// mutex; all methods assume the caller holds that lock.
#[derive(Debug)]
pub(crate) struct Journal {
    pub(crate) snapshot_path: PathBuf,
    file: File,
    /// Current journal file length in bytes.
    bytes: u64,
    /// Records appended since the last fsync.
    pending: usize,
    pub(crate) cfg: JournalConfig,
    pub(crate) stats: JournalStats,
}

impl Journal {
    /// Opens (creating if absent) the journal next to `snapshot`,
    /// replaying its intact prefix and truncating any torn tail so that
    /// appends resume cleanly. Returns the handle plus the replayed
    /// entries (the caller folds them into the in-memory table).
    pub(crate) fn open(
        snapshot: &Path,
        cfg: JournalConfig,
    ) -> io::Result<(Journal, Vec<(u64, EvalOutcome)>)> {
        let path = journal_path(snapshot);
        let existing = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (entries, valid) = replay(&existing);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        let bytes = if valid < HEADER_LEN {
            // Missing, short, or foreign header: start a fresh journal.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
            HEADER_LEN
        } else {
            // Drop the torn tail so the next append starts on a record
            // boundary, then continue from the intact prefix.
            if existing.len() as u64 > valid {
                file.set_len(valid)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::End(0))?;
            valid
        };
        let stats = JournalStats {
            recovered_journal: entries.len() as u64,
            torn_tail_bytes: existing.len() as u64 - torn_base(existing.len() as u64, valid),
            ..JournalStats::default()
        };
        Ok((
            Journal {
                snapshot_path: snapshot.to_path_buf(),
                file,
                bytes,
                pending: 0,
                cfg,
                stats,
            },
            entries,
        ))
    }

    /// Appends one record, syncing when the pending batch is full.
    pub(crate) fn append(&mut self, key: u64, outcome: &EvalOutcome) -> io::Result<()> {
        let rec = encode_record(key, outcome);
        self.file.write_all(&rec)?;
        self.bytes += rec.len() as u64;
        self.stats.appended += 1;
        self.pending += 1;
        if self.pending >= self.cfg.sync_every.max(1) {
            self.file.sync_data()?;
            self.pending = 0;
            self.stats.syncs += 1;
        }
        Ok(())
    }

    /// Whether the journal has outgrown its compaction threshold.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.bytes >= self.cfg.compact_bytes
    }

    /// Forces any pending batch to disk.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
            self.stats.syncs += 1;
        }
        Ok(())
    }

    /// Resets the journal to an empty header (called after the snapshot
    /// has been atomically republished, so no entry is ever only-here).
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&JOURNAL_MAGIC)?;
        self.file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        self.file.sync_data()?;
        self.bytes = HEADER_LEN;
        self.pending = 0;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best effort: flush the last batch on clean teardown. A crash
        // skips this, which is exactly the case the journal exists for.
        let _ = self.sync();
    }
}

/// How many of `total` bytes survive recovery: the intact prefix, or
/// nothing when the header itself was unusable.
fn torn_base(total: u64, valid: u64) -> u64 {
    if valid < HEADER_LEN {
        0
    } else {
        valid.min(total)
    }
}
