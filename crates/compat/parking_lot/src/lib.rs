//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no registry access, so this shim implements the
//! small API subset the workspace uses — `Mutex::{new, lock, try_lock, into_inner}`,
//! `RwLock::{new, read, write, into_inner}` and
//! `Condvar::{new, wait, notify_all, notify_one}` — on top of `std::sync`.
//! Semantics match parking_lot where it matters here: `lock()`/`read()`/
//! `write()` return the guard directly (poisoning is absorbed, as
//! parking_lot has none), and `Condvar::wait` takes the guard by `&mut`.

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Mutual exclusion primitive (non-poisoning facade over [`std::sync::Mutex`]).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Wraps the std guard in an `Option` so [`Condvar::wait`] can temporarily
/// take ownership through a `&mut` borrow, parking_lot-style.
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { guard: Some(guard) }
    }

    /// Acquires the lock if it is free right now, without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { guard: Some(guard) })
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_deref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// Reader-writer lock (non-poisoning facade over [`std::sync::RwLock`]).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-access RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-access RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access, blocking while a writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RwLockReadGuard { guard }
    }

    /// Acquires exclusive access, blocking until all guards are released.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard { guard }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Condition variable pairing with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guarded lock and blocks until notified;
    /// the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present entering wait");
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(inner);
    }

    /// Wakes every thread blocked in [`Condvar::wait`].
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wakes one thread blocked in [`Condvar::wait`].
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(5i32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn rwlock_readers_share_and_writer_excludes() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
        assert_eq!(l.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn rwlock_poison_is_absorbed() {
        let l = Arc::new(RwLock::new(0u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        // A panicking writer must not wedge later accessors.
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn condvar_handshake() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
