//! A small persistent thread pool with scoped jobs, and the one thread
//! split every decoder shares ([`for_each_disjoint`]).
//!
//! Recoil decoding is embarrassingly parallel across splits (each split
//! thread owns disjoint output and only shares the read-only bitstream), but
//! benchmark loops dispatch thousands of tiny tasks per decode — e.g. the
//! paper's Large variation uses 2176 splits (§5.1). Spawning OS threads per
//! decode would dominate the measurement, so the pool keeps workers parked
//! and hands them an index-claiming job; the caller participates too and
//! blocks until every worker has finished, which is what makes borrowing
//! stack data from the job closure sound.
//!
//! `rayon` is not available in this environment; this is the minimal subset
//! the workspace needs (dynamic index claiming ≈ `par_iter` over `0..n`).

// Audited crate: `unsafe` is allowed only in `pool.rs` (the job handshake),
// which states its invariant; the workspace lints deny it elsewhere.

mod pool;

pub use pool::ThreadPool;

use std::sync::{LockResult, Mutex, PoisonError};

/// The thread split every segment/partition decoder shares: runs
/// `f(t, &mut out[bounds[t]..bounds[t + 1]])` for each of the
/// `bounds.len() - 1` tasks and returns the first error any of them hit.
///
/// `bounds` must be ascending and end within `out` (it is the caller's
/// validated segment table, so a violation panics like any bad slice
/// index). Because consecutive bounds delimit non-overlapping regions, each
/// task gets a real `&mut` sub-slice — tasks can write concurrently with no
/// unsafe code and nothing to merge afterwards.
///
/// With `pool = None` (or a single task) the tasks run in order on the
/// caller and stop at the first error; on a pool every task runs and the
/// error recorded first wins. Either way an `Err` means `out` is
/// unspecified.
pub fn for_each_disjoint<T, E, F>(
    pool: Option<&ThreadPool>,
    out: &mut [T],
    bounds: &[u64],
    f: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut [T]) -> Result<(), E> + Sync,
{
    let tasks = bounds.len().saturating_sub(1);
    if tasks == 0 {
        return Ok(());
    }
    let mut rest = &mut out[bounds[0] as usize..bounds[tasks] as usize];
    let mut take = |t: usize| {
        let (seg, tail) =
            std::mem::take(&mut rest).split_at_mut((bounds[t + 1] - bounds[t]) as usize);
        rest = tail;
        seg
    };
    let Some(pool) = pool.filter(|_| tasks > 1) else {
        return (0..tasks).try_for_each(|t| f(t, take(t)));
    };
    let slices: Vec<Mutex<&mut [T]>> = (0..tasks).map(|t| Mutex::new(take(t))).collect();
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    pool.run(tasks, |t| {
        // Uncontended: task `t` is the only one that ever locks slot `t`.
        if let Err(e) = f(t, &mut unpoisoned(slices[t].lock())) {
            unpoisoned(first_error.lock()).get_or_insert(e);
        }
    });
    unpoisoned(first_error.into_inner()).map_or(Ok(()), Err)
}

/// The guard or value of a lock, whether or not a panic poisoned it: every
/// critical section in this crate leaves its data valid at each point it
/// can unwind, so a panic that reaches a caller does not wedge the pool.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Groups the `bounds.len() - 1` tasks of a [`for_each_disjoint`] table
/// into batches of adjacent tasks for a kernel that can work on `depth` of
/// them at once: as deep as the kernel goes, but never so deep that one of
/// the pool's threads is left without a batch. Returns the batch size and
/// the batch table (every `batch`-th bound plus the last) — batch `t` of
/// that table covers tasks `t * batch .. min((t + 1) * batch, tasks)`.
pub fn batch_bounds(pool: Option<&ThreadPool>, bounds: &[u64], depth: usize) -> (usize, Vec<u64>) {
    let tasks = bounds.len().saturating_sub(1);
    let threads = pool.map_or(1, ThreadPool::threads);
    let batch = depth.min(tasks.div_ceil(threads)).max(1);
    let mut table: Vec<u64> = bounds.iter().copied().step_by(batch).collect();
    if !tasks.is_multiple_of(batch) {
        table.push(bounds[tasks]);
    }
    (batch, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both ways of running `for_each_disjoint`: inline and on a pool.
    fn with_and_without_pool(check: impl Fn(Option<&ThreadPool>)) {
        check(None);
        check(Some(&ThreadPool::new(3)));
    }

    #[test]
    fn disjoint_tasks_own_exactly_their_bounds() {
        // Includes zero-length segments at the front, middle and back, and
        // a region that starts past the beginning of `out`.
        let bounds = [2u64, 2, 5, 5, 5, 9, 9];
        with_and_without_pool(|pool| {
            let mut out = [0u8; 11];
            let res: Result<(), ()> = for_each_disjoint(pool, &mut out, &bounds, |t, seg| {
                assert_eq!(seg.len() as u64, bounds[t + 1] - bounds[t], "task {t}");
                seg.fill(t as u8 + 1);
                Ok(())
            });
            assert_eq!(res, Ok(()));
            assert_eq!(out, [0, 0, 2, 2, 2, 5, 5, 5, 5, 0, 0]);
        });
    }

    #[test]
    fn disjoint_empty_ranges_run_nothing() {
        with_and_without_pool(|pool| {
            let mut out = [7u8; 4];
            for bounds in [&[][..], &[3]] {
                let res: Result<(), ()> =
                    for_each_disjoint(pool, &mut out, bounds, |_, _| panic!("must not run"));
                assert_eq!(res, Ok(()));
            }
            assert_eq!(out, [7; 4]);
        });
    }

    #[test]
    fn disjoint_error_in_one_task_is_returned_and_slices_stay_disjoint() {
        let bounds: Vec<u64> = (0..=16).map(|t| t * 3).collect();
        for failing in [0usize, 7, 15] {
            with_and_without_pool(|pool| {
                let mut out = vec![0u8; 48];
                let res = for_each_disjoint(pool, &mut out, &bounds, |t, seg| {
                    if t == failing {
                        return Err(t);
                    }
                    seg.fill(t as u8 + 1);
                    Ok(())
                });
                assert_eq!(res, Err(failing));
                // A task that ran wrote its own region and nothing else;
                // inline, tasks after the failing one never run.
                for (i, &cell) in out.iter().enumerate() {
                    let t = i / 3;
                    let ran = t != failing && (pool.is_some() || t < failing);
                    assert_eq!(cell, if ran { t as u8 + 1 } else { 0 }, "cell {i}");
                }
            });
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_next_split_writes_every_slot() {
        let pool = ThreadPool::new(3);
        let bounds: Vec<u64> = (0..=8).map(|t| t * 2).collect();
        let mut out = [0u8; 16];
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the backtrace spam
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The panic unwinds out of task 5 while it holds slot 5's lock,
            // and out of `run` while the caller holds the pool's run lock.
            for_each_disjoint(Some(&pool), &mut out, &bounds, |t, _| -> Result<(), ()> {
                assert_ne!(t, 5, "task failed");
                Ok(())
            })
        }));
        std::panic::set_hook(prev);
        let payload = caught.expect_err("the task's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains("task failed"), "{msg}");
        let res: Result<(), ()> = for_each_disjoint(Some(&pool), &mut out, &bounds, |t, seg| {
            seg.fill(t as u8 + 1);
            Ok(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!(out, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]);
    }

    #[test]
    fn batches_fill_the_kernel_but_leave_no_thread_idle() {
        let bounds: Vec<u64> = (0..=10).map(|t| t * 5).collect();
        let pool = ThreadPool::new(2);
        for (pool, depth, batch, table) in [
            (None, 1, 1, bounds.clone()),
            (None, 4, 4, vec![0, 20, 40, 50]),
            (None, 5, 5, vec![0, 25, 50]),
            (None, 64, 10, vec![0, 50]),
            // Three threads, ten tasks: at most four each.
            (Some(&pool), 8, 4, vec![0, 20, 40, 50]),
            (Some(&pool), 2, 2, vec![0, 10, 20, 30, 40, 50]),
            (None, 0, 1, bounds.clone()),
        ] {
            assert_eq!(batch_bounds(pool, &bounds, depth), (batch, table));
        }
        // No tasks: nothing to batch, and the table still runs nothing.
        assert_eq!(batch_bounds(None, &[7], 4), (1, vec![7]));
        assert_eq!(batch_bounds(None, &[], 4), (1, vec![]));
    }

    #[test]
    fn disjoint_one_of_several_errors_wins() {
        let bounds: Vec<u64> = (0..=8).collect();
        with_and_without_pool(|pool| {
            let mut out = [0u8; 8];
            let res = for_each_disjoint(pool, &mut out, &bounds, |t, _| {
                if t % 2 == 1 {
                    Err(t)
                } else {
                    Ok(())
                }
            });
            let e = res.unwrap_err();
            assert!(e % 2 == 1, "got {e}");
            if pool.is_none() {
                assert_eq!(e, 1, "inline stops at the first failing task");
            }
        });
    }
}
