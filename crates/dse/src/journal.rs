//! The one on-disk format of the evaluation cache, its reader, and the
//! append handle behind [`EvalCache::open_journaled`].
//!
//! A cache file is a header and records, all integers little-endian and
//! floats stored by bit pattern:
//!
//! ```text
//! magic    [u8; 8]  = b"PPHWEVC\0"
//! version  u32      = 1
//! sealed   u64      records written by the last save
//! record*:
//!   key       u64      canonical configuration hash
//!   len       u32      payload length in bytes
//!   payload   [u8;len] tag 0 (Feasible): cycles u64, dram_words u64,
//!                        on_chip_bytes u64, area logic/ff/mem f64-bits
//!                      tag 1 (Infeasible): reason length u32 + UTF-8
//!   checksum  u64      fnv1a64(key-bytes ++ payload)
//! ```
//!
//! [`EvalCache::save`] writes the sealed records, one per entry in key
//! order. A journaled cache appends one record per insert after them and
//! never touches `sealed`; [`EvalCache::checkpoint`] compacts by saving
//! again. Later records win over earlier ones with the same key. One
//! reader serves `load` (strict) and `open_journaled` (tolerant).
//!
//! [`EvalCache::save`]: crate::cache::EvalCache::save
//! [`EvalCache::checkpoint`]: crate::cache::EvalCache::checkpoint
//! [`EvalCache::open_journaled`]: crate::cache::EvalCache::open_journaled

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pphw_hw::Area;

use crate::cache::fnv1a64;
use crate::{EvalOutcome, Measurement};

/// File magic for the persistent evaluation cache.
pub const CACHE_MAGIC: [u8; 8] = *b"PPHWEVC\0";

/// Current format version. Bump on any layout or encoding change; readers
/// reject every other version (cold cache).
pub const CACHE_VERSION: u32 = 1;

/// Bytes of the header: magic, version, sealed count.
const HEADER_LEN: usize = 20;

/// Appends are fsynced in batches of this many records. A power loss
/// costs at most the unsynced batch; a killed process loses nothing it
/// wrote.
const SYNC_EVERY: usize = 8;

/// Why a persistent cache file was rejected by the strict policy.
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
    /// Bytes after the sealed records are not whole records.
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

/// Lifetime counters for a journaled cache, including what recovery saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Sealed records recovered at open.
    pub recovered_snapshot: u64,
    /// Appended records recovered at open.
    pub recovered_journal: u64,
    /// Bytes discarded from the file's torn tail at open.
    pub torn_tail_bytes: u64,
    /// Records appended since open.
    pub appended: u64,
    /// `fsync` calls issued for appended batches.
    pub syncs: u64,
    /// [`checkpoint`]s since open.
    ///
    /// [`checkpoint`]: crate::cache::EvalCache::checkpoint
    pub compactions: u64,
    /// Append errors (the entry stays in memory; persistence degrades but
    /// serving continues).
    pub io_errors: u64,
}

/// How [`read`] treats bytes that are not what was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Any damage rejects the whole file with a typed error: a partially
    /// trusted cache is worse than no cache.
    Strict,
    /// The intact prefix of records is kept and the rest is torn tail. A
    /// damaged header is still an error.
    Tolerant,
}

/// The records a cache file holds, in file order.
#[derive(Debug, Default)]
pub(crate) struct Contents {
    pub(crate) records: Vec<(u64, EvalOutcome)>,
    /// The header's count of sealed records.
    sealed: u64,
    /// Bytes of the intact prefix: the header and `records`.
    intact: usize,
}

/// The one reader of a cache file.
///
/// # Errors
///
/// A damaged header under either policy; under [`Policy::Strict`], fewer
/// than `sealed` intact records ([`CacheFileError::Truncated`] or
/// [`CacheFileError::Corrupt`]) or a torn record after them
/// ([`CacheFileError::TrailingBytes`]).
pub(crate) fn read(bytes: &[u8], policy: Policy) -> Result<Contents, CacheFileError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != CACHE_MAGIC {
        return Err(CacheFileError::BadMagic);
    }
    let version = r.u32()?;
    if version != CACHE_VERSION {
        return Err(CacheFileError::UnsupportedVersion(version));
    }
    let sealed = r.u64()?;
    // Every record is at least 20 bytes, so a damaged count cannot
    // reserve more than the file could hold.
    let mut records = Vec::with_capacity(sealed.min(bytes.len() as u64 / 20) as usize);
    while !r.at_end() {
        let entry = records.len() as u64;
        match parse_record(bytes, r.pos, entry) {
            Ok((key, outcome, next)) => {
                records.push((key, outcome));
                r.pos = next;
            }
            Err(e) if policy == Policy::Strict => {
                return Err(if entry < sealed {
                    e
                } else {
                    CacheFileError::TrailingBytes
                });
            }
            Err(_) => break,
        }
    }
    if policy == Policy::Strict && (records.len() as u64) < sealed {
        return Err(CacheFileError::Truncated);
    }
    Ok(Contents {
        records,
        sealed,
        intact: r.pos,
    })
}

/// Parses the record at `pos` (the `entry`-th of its file), returning
/// `(key, outcome, next_pos)`.
///
/// # Errors
///
/// [`CacheFileError::Truncated`] when the bytes end before the record
/// does; [`CacheFileError::Corrupt`] when it is all there but fails its
/// checksum or does not decode.
fn parse_record(
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

/// One record, encoded: `key | len | payload | checksum`.
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

/// Publishes a file of `sealed` records (`records`, already encoded) at
/// `path`, atomically and durably: the bytes go to a uniquely named
/// sibling temp file, are fsynced, and the rename over `path` is fsynced
/// through the directory. A rename replaces the only copy, so the flush is
/// what makes a crash leave the old file or the new one, never an empty
/// one. Concurrent publishers each rename a complete image; the last one
/// wins.
pub(crate) fn publish(path: &Path, sealed: u64, records: &[u8]) -> io::Result<()> {
    // Savers sharing one temp name (two daemons on one cache file, a sweep
    // racing a shutdown) would truncate each other mid-write.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let published = write_synced(&tmp, sealed, records).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = published {
        // Never leave an orphaned temp file behind a failed publish.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent(path)
}

fn write_synced(path: &Path, sealed: u64, records: &[u8]) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&CACHE_MAGIC);
    header[8..12].copy_from_slice(&CACHE_VERSION.to_le_bytes());
    header[12..].copy_from_slice(&sealed.to_le_bytes());
    let mut file = File::create(path)?;
    file.write_all(&header)?;
    file.write_all(records)?;
    file.sync_all()
}

#[cfg(unix)]
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent(_: &Path) -> io::Result<()> {
    Ok(())
}

/// The live append handle plus its counters. Owned by the cache behind a
/// mutex; all methods assume the caller holds that lock.
#[derive(Debug)]
pub(crate) struct Journal {
    pub(crate) path: PathBuf,
    file: File,
    /// Records appended since the last fsync.
    pending: usize,
    pub(crate) stats: JournalStats,
}

impl Journal {
    /// Opens the cache file at `path` (creating it if absent) under the
    /// tolerant policy and repairs it to hold exactly what was recovered,
    /// so appends resume on a record boundary. Returns the handle and the
    /// recovered records, in file order.
    pub(crate) fn open(path: &Path) -> io::Result<(Journal, Vec<(u64, EvalOutcome)>)> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // A foreign or short header reads as nothing: a cold cache over a
        // fresh file. A prefix that ends inside the sealed records is
        // republished as all sealed, so the header never over-counts.
        let found = read(&bytes, Policy::Tolerant).unwrap_or_default();
        let n = found.records.len() as u64;
        let republish = found.intact < HEADER_LEN || n < found.sealed;
        if republish {
            let records = bytes.get(HEADER_LEN..found.intact).unwrap_or_default();
            publish(path, n, records)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        if !republish && found.intact < bytes.len() {
            file.set_len(found.intact as u64)?;
            file.sync_data()?;
        }
        let stats = JournalStats {
            recovered_snapshot: n.min(found.sealed),
            recovered_journal: n.saturating_sub(found.sealed),
            torn_tail_bytes: (bytes.len() - found.intact) as u64,
            ..JournalStats::default()
        };
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            pending: 0,
            stats,
        };
        Ok((journal, found.records))
    }

    /// Appends one record, syncing when the pending batch is full.
    pub(crate) fn append(&mut self, key: u64, outcome: &EvalOutcome) -> io::Result<()> {
        self.file.write_all(&encode_record(key, outcome))?;
        self.stats.appended += 1;
        self.pending += 1;
        if self.pending >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any pending batch to disk.
    fn sync(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
            self.stats.syncs += 1;
        }
        Ok(())
    }

    /// Points the handle at the file a save has just published over
    /// `path`: the old handle's file was replaced, and the save holds
    /// every record it was still to sync.
    pub(crate) fn reopen(&mut self) -> io::Result<()> {
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.pending = 0;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best effort: flush the last batch on clean teardown.
        let _ = self.sync();
    }
}

fn entry_checksum(key: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

fn encode_outcome(out: &EvalOutcome) -> Vec<u8> {
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
        // holds one. Encoded as an empty Infeasible so the match stays
        // exhaustive without a panic path.
        EvalOutcome::Failed(_) => vec![1, 0, 0, 0, 0],
    }
}

fn decode_outcome(payload: &[u8]) -> Option<EvalOutcome> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
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
struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], CacheFileError> {
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

    fn u32(&mut self) -> Result<u32, CacheFileError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CacheFileError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}
