//! Cross-thread wakeups for the readiness loop.
//!
//! Dispatch workers finish CPU-bound jobs off-loop and must interrupt a
//! blocked `Poller::wait`. The classic self-pipe does it with zero
//! dependencies: the loop registers the read end under a reserved token,
//! workers write one byte. Both ends are `O_NONBLOCK` — a full pipe means
//! a wakeup is already pending, so `EAGAIN` on write is success.

#![allow(unsafe_code, reason = "pipe calls on the two fds this pipe owns")]

use crate::sys;
use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;

/// Owns the pipe; the loop side. Register [`WakePipe::read_fd`] for read
/// interest and call [`WakePipe::drain`] whenever it fires.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    pub fn new() -> io::Result<Arc<Self>> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live array of exactly the two i32s pipe2
        // writes on success.
        sys::cvt_retry(|| unsafe {
            sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC)
        })?;
        Ok(Arc::new(Self {
            read_fd: fds[0],
            write_fd: fds[1],
        }))
    }

    /// The fd to register with the poller (read interest).
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Consumes all pending wakeup bytes so the next wake edge-triggers
    /// afresh.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `buf` is a live 64-byte local and the kernel is told
            // its exact length; `read_fd` is owned by this WakePipe.
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                let e = io::Error::last_os_error();
                if n < 0 && e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                break;
            }
        }
    }

    /// A cloneable handle workers use to wake the loop.
    pub fn waker(self: &Arc<Self>) -> Waker {
        Waker(Arc::clone(self))
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this WakePipe and every Waker
        // holds an Arc to it, so nothing can use them after the last drop;
        // close takes no pointers.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

/// Wakes the readiness loop from any thread. Cheap to clone.
#[derive(Clone)]
pub struct Waker(Arc<WakePipe>);

impl Waker {
    /// Never blocks: a full pipe (`EAGAIN`) already guarantees a pending
    /// wakeup.
    pub fn wake(&self) {
        let byte = 1u8;
        loop {
            // SAFETY: one byte is read from a live local; `write_fd` stays
            // open for as long as this Waker's Arc keeps the pipe alive.
            let n = unsafe { sys::write(self.0.write_fd, (&raw const byte).cast(), 1) };
            if n >= 0 {
                return;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::Poller;
    use crate::token::Token;
    use std::time::Duration;

    #[test]
    fn wake_unblocks_wait_on_both_backends() {
        let mut poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), Token(u64::MAX)).unwrap();
        let waker = pipe.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut tokens = Vec::new();
        poller
            .wait(&mut tokens, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(tokens, [Token(u64::MAX)]);
        pipe.drain();
        // Drained: no residual readiness.
        poller
            .wait(&mut tokens, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(tokens.is_empty());
        handle.join().unwrap();
        poller.deregister(pipe.read_fd()).unwrap();
    }

    #[test]
    fn many_wakes_coalesce() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        // Far more wakes than the pipe buffer holds; none may block.
        for _ in 0..100_000 {
            waker.wake();
        }
        pipe.drain();
    }
}
