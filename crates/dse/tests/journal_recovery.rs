//! Crash-recovery tests for the journaled evaluation cache, whose one file
//! is sealed records (written by `save`) followed by appended ones: a
//! kill-matrix that cuts or bit-flips the file at every byte, checkpoint
//! racing concurrent inserts, and what a strict load reads from a file
//! that was never checkpointed.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use pphw_dse::cache::EvalCache;
use pphw_dse::{EvalOutcome, Measurement};
use pphw_hw::Area;

/// Bytes of the file header (magic + version + sealed count).
const HEADER: u64 = 20;
/// Bytes of one `Feasible` record: key u64 + len u32 + payload (tag byte
/// + 3×u64 + 3×f64-bits = 49) + checksum u64.
const FEASIBLE_RECORD: u64 = 8 + 4 + 49 + 8;
/// The kill-matrix file: this many sealed records, then `APPENDED` more.
const SEALED: u64 = 3;
const APPENDED: u64 = 4;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pphw-journal-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn feasible(cycles: u64) -> EvalOutcome {
    EvalOutcome::Feasible(Measurement {
        cycles,
        dram_words: cycles + 1,
        on_chip_bytes: cycles + 2,
        area: Area {
            logic: 1.0,
            ff: 2.0,
            mem: 3.0,
        },
    })
}

/// The header's sealed count.
fn sealed(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[12..20].try_into().unwrap())
}

/// A file of `SEALED` sealed and `APPENDED` appended records, keys `0..7`
/// mapping to `feasible(1000 + key)`, left as a killed process leaves it:
/// no checkpoint after the appends.
fn killed_file(dir: &Path) -> Vec<u8> {
    let path = dir.join("killed.pphwc");
    let cache = EvalCache::open_journaled(&path).unwrap();
    for k in 0..SEALED {
        cache.insert(k, feasible(1000 + k));
    }
    cache.checkpoint().unwrap();
    for k in SEALED..SEALED + APPENDED {
        cache.insert(k, feasible(1000 + k));
    }
    drop(cache);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        bytes.len() as u64,
        HEADER + (SEALED + APPENDED) * FEASIBLE_RECORD
    );
    assert_eq!(sealed(&bytes), SEALED);
    bytes
}

/// Opens `bytes` as a journaled cache and checks that it recovers keys
/// `0..expected`, leaves a file of exactly those records whose header
/// counts `sealed_on_disk`, and that a new append survives a reopen.
fn assert_recovers(path: &Path, bytes: &[u8], expected: u64, sealed_on_disk: u64, case: &str) {
    std::fs::write(path, bytes).unwrap();
    let cache = EvalCache::open_journaled(path).unwrap();
    assert_eq!(cache.len() as u64, expected, "{case}: wrong recovery count");
    for k in 0..expected {
        assert_eq!(cache.get(k), Some(feasible(1000 + k)), "{case}: key {k}");
    }
    let stats = cache.journal_stats().unwrap();
    assert_eq!(
        stats.recovered_snapshot + stats.recovered_journal,
        expected,
        "{case}: {stats:?}"
    );
    let on_disk = std::fs::read(path).unwrap();
    assert_eq!(
        on_disk.len() as u64,
        HEADER + expected * FEASIBLE_RECORD,
        "{case}: torn tail left on disk"
    );
    assert_eq!(sealed(&on_disk), sealed_on_disk, "{case}: header count");

    cache.insert(900, feasible(7));
    drop(cache);
    let reopened = EvalCache::open_journaled(path).unwrap();
    assert_eq!(reopened.len() as u64, expected + 1, "{case}");
    assert_eq!(reopened.get(900), Some(feasible(7)), "{case}");
}

/// Every insert on a journaled cache survives a reopen, including
/// `Infeasible`; `Failed` is never written.
#[test]
fn journaled_inserts_survive_reopen() {
    let dir = fresh_dir("reopen");
    let path = dir.join("evals.pphwc");
    {
        let cache = EvalCache::open_journaled(&path).unwrap();
        assert!(cache.is_journaled());
        cache.insert(1, feasible(100));
        cache.insert(2, EvalOutcome::Infeasible("too big".into()));
        cache.insert(3, EvalOutcome::Failed("transient".into()));
        // No checkpoint, no cooperative save: the appends alone carry it.
    }
    let reopened = EvalCache::open_journaled(&path).unwrap();
    assert_eq!(reopened.get(1), Some(feasible(100)));
    assert_eq!(
        reopened.get(2),
        Some(EvalOutcome::Infeasible("too big".into()))
    );
    assert!(reopened.get(3).is_none(), "Failed must not be written");
    let stats = reopened.journal_stats().unwrap();
    assert_eq!(stats.recovered_journal, 2);
    assert_eq!(stats.recovered_snapshot, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The kill-matrix: cutting the file at EVERY byte recovers exactly the
/// whole records before the cut. A cut in the header is a cold cache over
/// a fresh file; a cut in the sealed section republishes that prefix with
/// a header that counts it; a cut in the appended section keeps the
/// sealed records and the whole appended ones.
#[test]
fn kill_matrix_cut_at_every_byte() {
    let dir = fresh_dir("kill-cut");
    let full = killed_file(&dir);
    let path = dir.join("case.pphwc");
    for cut in 0..=full.len() {
        let expected = match cut as u64 {
            0..HEADER => 0,
            at => (at - HEADER) / FEASIBLE_RECORD,
        };
        let case = format!("cut at byte {cut}");
        assert_recovers(&path, &full[..cut], expected, expected.min(SEALED), &case);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping any one byte loses that record and everything after it; a
/// damaged magic or version is a cold cache, and a damaged sealed count
/// (every record still intact) is republished to count what is there.
#[test]
fn kill_matrix_bit_flip_at_every_byte() {
    let dir = fresh_dir("kill-flip");
    let full = killed_file(&dir);
    let path = dir.join("case.pphwc");
    for offset in 0..full.len() {
        let mut bytes = full.clone();
        bytes[offset] ^= 0xA5;
        let (expected, sealed_on_disk) = match offset as u64 {
            0..12 => (0, 0),
            12..HEADER => (SEALED + APPENDED, SEALED + APPENDED),
            at => {
                let record = (at - HEADER) / FEASIBLE_RECORD;
                (record, record.min(SEALED))
            }
        };
        let case = format!("flip at byte {offset}");
        assert_recovers(&path, &bytes, expected, sealed_on_disk, &case);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A strict `load` of a file a killed process left behind returns every
/// entry: the sealed records and the appended ones.
#[test]
fn strict_load_of_a_killed_journaled_file_returns_every_entry() {
    let dir = fresh_dir("strict-killed");
    killed_file(&dir);
    let loaded = EvalCache::load(&dir.join("killed.pphwc")).unwrap();
    assert_eq!(loaded.len() as u64, SEALED + APPENDED);
    for k in 0..SEALED + APPENDED {
        assert_eq!(loaded.get(k), Some(feasible(1000 + k)), "key {k}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `checkpoint` racing four inserting threads: every key inserted by any
/// thread is in the file, whether a checkpoint sealed it or it was
/// appended after one. A barrier holds the second half of every thread's
/// inserts until the first checkpoint starts.
#[test]
fn checkpoint_racing_inserters_loses_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let dir = fresh_dir("concurrent");
    let path = dir.join("evals.pphwc");
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50;
    {
        let cache = EvalCache::open_journaled(&path).unwrap();
        let half_way = std::sync::Barrier::new(THREADS as usize + 1);
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, half_way, done) = (&cache, &half_way, &done);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        if i == PER_THREAD / 2 {
                            half_way.wait();
                        }
                        let key = t * 10_000 + i;
                        cache.insert(key, feasible(key));
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            half_way.wait();
            cache.checkpoint().unwrap();
            while done.load(Ordering::SeqCst) < THREADS {
                cache.checkpoint().unwrap();
            }
        });
        assert_eq!(cache.len() as u64, THREADS * PER_THREAD);
        assert!(cache.journal_stats().unwrap().compactions >= 1);
    }
    let reopened = EvalCache::open_journaled(&path).unwrap();
    let loaded = EvalCache::load(&path).unwrap();
    for cache in [&reopened, &loaded] {
        assert_eq!(cache.len() as u64, THREADS * PER_THREAD);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let key = t * 10_000 + i;
                assert_eq!(cache.get(key), Some(feasible(key)), "lost key {key}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `checkpoint` rewrites the file as one sealed record per entry, so the
/// next open recovers everything as sealed, and the cache never creates a
/// file beside its own.
#[test]
fn checkpoint_seals_every_entry_once() {
    let dir = fresh_dir("checkpoint");
    let path = dir.join("evals.pphwc");
    let cache = EvalCache::open_journaled(&path).unwrap();
    cache.insert(0, feasible(1));
    for k in 0..6u64 {
        cache.insert(k, feasible(4000 + k));
    }
    cache.checkpoint().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, HEADER + 6 * FEASIBLE_RECORD);
    assert_eq!(sealed(&bytes), 6);
    drop(cache);

    let reopened = EvalCache::open_journaled(&path).unwrap();
    assert_eq!(reopened.len(), 6);
    assert_eq!(reopened.get(0), Some(feasible(4000)));
    let stats = reopened.journal_stats().unwrap();
    assert_eq!(stats.recovered_snapshot, 6);
    assert_eq!(stats.recovered_journal, 0);
    let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(files.len(), 1, "{files:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Appended records are newer than the sealed ones and win on key
/// collision, under both policies.
#[test]
fn appended_records_win_over_sealed_ones() {
    let dir = fresh_dir("replay-wins");
    let path = dir.join("evals.pphwc");
    {
        let cache = EvalCache::open_journaled(&path).unwrap();
        cache.insert(1, feasible(111));
        cache.checkpoint().unwrap(); // sealed: key 1 -> 111
        cache.insert(1, feasible(222)); // appended: key 1 -> 222
    }
    let reopened = EvalCache::open_journaled(&path).unwrap();
    assert_eq!(reopened.get(1), Some(feasible(222)));
    assert_eq!(EvalCache::load(&path).unwrap().get(1), Some(feasible(222)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A foreign file is a cold cache: nothing panics, the file is replaced
/// by a fresh one, and it is usable again.
#[test]
fn foreign_file_opens_cold_over_a_fresh_file() {
    let dir = fresh_dir("foreign-header");
    let path = dir.join("evals.pphwc");
    std::fs::write(&path, b"NOT A PPHW CACHE FILE AT ALL").unwrap();
    let cache = EvalCache::open_journaled(&path).unwrap();
    assert!(cache.is_empty());
    assert_eq!(cache.journal_stats().unwrap().torn_tail_bytes, 28);
    cache.insert(2, feasible(20));
    drop(cache);
    let again = EvalCache::open_journaled(&path).unwrap();
    assert_eq!(again.len(), 1);
    assert_eq!(again.get(2), Some(feasible(20)));
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal API is a harmless no-op on an unjournaled cache.
#[test]
fn unjournaled_cache_noops() {
    let cache = EvalCache::new();
    cache.insert(1, feasible(1));
    assert!(!cache.is_journaled());
    assert!(cache.journal_stats().is_none());
    cache.checkpoint().unwrap();
    assert_eq!(cache.len(), 1);
}
