//! The persistent worker pool.

#![allow(unsafe_code, reason = "a job's closure outlives every call to it")]

use crate::unpoisoned;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A captured panic payload from a job closure.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Type-erased job: closure pointer plus the shared index counter.
///
/// The raw pointer is only dereferenced between job publication and the
/// epoch's completion handshake, during which [`ThreadPool::run`] keeps the
/// underlying closure alive on the caller's stack.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    tasks: usize,
}

// SAFETY: `Job` is a raw pointer plus a count. Sending it to workers is
// sound because the pointee is `Sync` (so `&closure` may be shared and
// called across threads) and [`ThreadPool::run`] keeps that closure alive
// on the caller's stack until the epoch's `active == 0` handshake — no
// worker can dereference `f` after it is freed.
unsafe impl Send for Job {}

struct State {
    /// Job of the current epoch, if one is in flight.
    job: Option<Job>,
    /// Incremented per published job; workers watch it to wake up.
    epoch: u64,
    /// Workers still executing the current epoch's job.
    active: usize,
    /// First panic any thread caught while running the current epoch's job;
    /// re-thrown on the caller thread by [`ThreadPool::run`].
    panic: Option<PanicPayload>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new epoch (or shutdown) is available.
    work_cv: Condvar,
    /// Signals the caller that all workers finished the epoch.
    done_cv: Condvar,
    /// Next task index of the current epoch.
    next: AtomicUsize,
}

/// Persistent pool executing indexed jobs `f(0..tasks)`.
///
/// One job runs at a time (`run` takes `&self` but serializes internally via
/// a mutex-held epoch; concurrent `run` calls queue up). The caller thread
/// participates in the job, so a pool of `k` workers applies `k + 1` threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes `run` calls.
    run_lock: Mutex<()>,
}

impl ThreadPool {
    /// Pool with `workers` background threads (0 = run everything inline).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Self {
            shared,
            handles,
            run_lock: Mutex::new(()),
        }
    }

    /// Pool sized to the machine: one worker per logical CPU minus the
    /// participating caller.
    pub fn with_default_parallelism() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::new(n.saturating_sub(1))
    }

    /// Number of threads a job effectively runs on (workers + caller).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Executes `f` for every index in `0..tasks`, returning when all calls
    /// completed. Indices are claimed dynamically, so uneven tasks balance.
    ///
    /// # Panics
    ///
    /// If `f` panics on any thread, the first caught panic is re-thrown here
    /// on the caller thread once every worker has left the epoch — the pool
    /// itself stays fully usable. Remaining unclaimed indices of the
    /// panicked job are abandoned (which of them ran is indeterminate, as
    /// with any panic mid-job).
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 {
            // Inline execution: a panic unwinds directly through the caller
            // with no shared state to clean up.
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let _serialize = unpoisoned(self.run_lock.lock());
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the job pointer is only used by workers between this
        // publication and the `active == 0` handshake below, which `run`
        // waits for before returning — even when unwinding, since caller
        // panics are caught by `drive` and only re-thrown after the
        // handshake — so `f` outlives every dereference.
        let f_static = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f_ref as *const _)
        };
        let job = Job { f: f_static, tasks };
        {
            let mut st = unpoisoned(self.shared.state.lock());
            debug_assert!(st.job.is_none() && st.active == 0);
            debug_assert!(st.panic.is_none());
            self.shared.next.store(0, Ordering::Relaxed);
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        // The caller claims indices like any worker.
        drive(&self.shared, f_ref, tasks);
        // Wait for every worker to leave the epoch before dropping `f`.
        let st = unpoisoned(self.shared.state.lock());
        let mut st = unpoisoned(self.shared.done_cv.wait_while(st, |st| st.active > 0));
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Claims and executes indices of the current job until they are exhausted
/// or the closure panics. A panic is caught (`AssertUnwindSafe` is sound
/// here: the closure is not called again after a panic, and `run` keeps it
/// alive until the epoch handshake completes), the first payload is parked
/// in the shared state for `run` to re-throw, and the claim counter is
/// fast-forwarded so every thread drains the epoch quickly instead of
/// grinding through doomed work.
fn drive(shared: &Shared, f: &(dyn Fn(usize) + Sync), tasks: usize) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            shared.next.store(tasks, Ordering::Relaxed);
            let mut st = unpoisoned(shared.state.lock());
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
            return;
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = unpoisoned(self.shared.state.lock());
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let idle = |st: &mut State| !st.shutdown && st.epoch == seen_epoch;
            let st = unpoisoned(shared.state.lock());
            let st = unpoisoned(shared.work_cv.wait_while(st, idle));
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.expect("epoch advanced without a job")
        };
        // SAFETY: see `ThreadPool::run` — the closure outlives this epoch.
        let f = unsafe { &*job.f };
        // `drive` catches job panics, so this decrement always runs: a
        // worker unwinding past it would leave `active` stuck above zero
        // and `run` waiting on `done_cv` forever.
        drive(&shared, f, job.tasks);
        let mut st = unpoisoned(shared.state.lock());
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn visits_every_index_exactly_once() {
        let pool = ThreadPool::new(7);
        for tasks in [1usize, 2, 7, 8, 100, 5000] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "tasks={tasks}"
            );
        }
    }

    #[test]
    fn borrows_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.run(data.len(), |i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let mut touched = vec![false; 10];
        let cell = std::sync::Mutex::new(&mut touched);
        pool.run(10, |i| {
            cell.lock().unwrap()[i] = true;
        });
        assert!(touched.iter().all(|&t| t));
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(17, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 17);
    }

    #[test]
    fn concurrent_run_calls_serialize() {
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.run(100, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 100);
    }

    #[test]
    fn uneven_work_balances() {
        // A few heavy tasks among many light ones must not deadlock or drop.
        let pool = ThreadPool::new(8);
        let done = AtomicUsize::new(0);
        pool.run(256, |i| {
            if i % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(4);
        pool.run(8, |_| {});
        drop(pool); // must not hang
    }

    /// Runs `f` expecting a panic, returning the payload string if any.
    fn expect_panic(f: impl FnOnce()) -> Option<String> {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the backtrace spam
        let result = std::panic::catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        result.err().map(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        })
    }

    #[test]
    fn panicking_job_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        for k in [0usize, 1, 63, 127] {
            let msg = expect_panic(|| {
                pool.run(128, |i| {
                    if i == k {
                        panic!("job failed at {i}");
                    }
                });
            });
            assert_eq!(msg.as_deref(), Some(format!("job failed at {k}").as_str()));
            // The regression this guards: before the catch_unwind hardening,
            // the next `run` (or the panicking one) hung forever because the
            // unwound worker never decremented `State::active`.
            let done = AtomicUsize::new(0);
            pool.run(64, |_| {
                done.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(done.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn every_thread_panicking_still_terminates() {
        let pool = ThreadPool::new(3);
        let msg = expect_panic(|| pool.run(100, |_| panic!("all fail")));
        assert_eq!(msg.as_deref(), Some("all fail"));
        let total = AtomicUsize::new(0);
        pool.run(10, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn inline_path_panics_propagate_too() {
        // Zero-worker pools run inline; the panic must still surface and the
        // pool must stay usable.
        let pool = ThreadPool::new(0);
        let msg = expect_panic(|| pool.run(5, |i| assert!(i != 3, "inline boom")));
        assert!(msg.unwrap().contains("inline boom"));
        let total = AtomicUsize::new(0);
        pool.run(5, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn drop_after_panic_joins_workers() {
        let pool = ThreadPool::new(4);
        let _ = expect_panic(|| pool.run(32, |_| panic!("boom")));
        drop(pool); // workers must still shut down cleanly
    }
}
