//! The readiness poller: edge-triggered `epoll`.
//!
//! Every fd is registered once — read, write and peer-hangup readiness,
//! edge-triggered — and never modified; [`Poller::wait`] reports the
//! tokens whose fds saw an edge. An edge is reported once, so after any
//! event (or any state change of its own making) the caller **must** drain
//! the fd until `WouldBlock`: an edge left unconsumed never fires again.

#![allow(unsafe_code, reason = "epoll calls on the fd this poller owns")]

use crate::sys;
use crate::token::Token;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// The readiness poller. See the module docs for the drain-until-
/// `WouldBlock` contract callers must follow.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

impl Poller {
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers cross this call; the kernel returns a fresh
        // fd (or -1) which `cvt_retry` turns into a Result.
        let epfd = sys::cvt_retry(|| unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        // `wait` reserves its batch before every syscall, so the buffer can
        // start empty.
        Ok(Self {
            epfd,
            buf: Vec::new(),
        })
    }

    /// Watches `fd` for read, write and peer-hangup edges, reported as
    /// `token`.
    pub fn register(&mut self, fd: RawFd, token: Token) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
            data: token.0,
        };
        // SAFETY: `ev` is a live, fully initialized epoll_event for the
        // whole call; the kernel copies it and does not retain the pointer.
        sys::cvt_retry(|| unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) })
            .map(drop)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        // SAFETY: EPOLL_CTL_DEL ignores the event argument (null is
        // explicitly allowed since kernel 2.6.9); `epfd` is the live epoll
        // fd owned by this poller.
        sys::cvt_retry(|| unsafe {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut())
        })
        .map(drop)
    }

    /// Blocks until readiness or `timeout`, then fills `tokens` (cleared
    /// first) with the token of every fd that saw an edge. A `timeout` of
    /// `None` blocks indefinitely.
    pub fn wait(&mut self, tokens: &mut Vec<Token>, timeout: Option<Duration>) -> io::Result<()> {
        // One syscall reports at most EVENT_BATCH events; edge-triggered
        // readiness for any remainder stays queued in the kernel ready list
        // and surfaces on the next wait.
        const EVENT_BATCH: usize = 1024;
        tokens.clear();
        self.buf.clear();
        // Reserve *before* telling the kernel how much room there is — the
        // batch size passed to epoll_wait must never exceed the spare
        // capacity actually allocated behind `buf.as_mut_ptr()`, or the
        // kernel would write past the buffer.
        self.buf.reserve(EVENT_BATCH);
        // SAFETY: `buf` is empty with at least EVENT_BATCH entries of spare
        // capacity (reserved above), and the kernel writes at most
        // EVENT_BATCH events starting at `buf.as_mut_ptr()`; `epfd` is the
        // live epoll fd owned by this poller.
        let n = sys::cvt_retry(|| unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                EVENT_BATCH as i32,
                sys::timeout_ms(timeout),
            )
        })?;
        // SAFETY: the kernel initialized the first `n` entries, and
        // `n <= EVENT_BATCH <= buf.capacity()`.
        unsafe { self.buf.set_len(n as usize) };
        // `ev.data` is copied out by value: the struct may be packed.
        tokens.extend(self.buf.iter().map(|ev| Token(ev.data)));
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this poller and never used after drop;
        // close takes no pointers.
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::WakePipe;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected nonblocking loopback pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// Registers `fd` and consumes the edge a fresh socket reports at once
    /// (an empty send buffer is writable), so the next wait sees only new
    /// edges.
    fn register_settled(poller: &mut Poller, fd: RawFd, token: Token) {
        poller.register(fd, token).unwrap();
        let mut tokens = Vec::new();
        poller
            .wait(&mut tokens, Some(Duration::from_millis(10)))
            .unwrap();
    }

    #[test]
    fn read_readiness_fires_on_both_backends() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        register_settled(&mut poller, b.as_raw_fd(), Token(7));
        let mut tokens = Vec::new();
        // The writable edge was consumed and nothing is readable yet.
        poller
            .wait(&mut tokens, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(tokens.is_empty());

        a.write_all(b"hi").unwrap();
        poller
            .wait(&mut tokens, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(tokens, [Token(7)]);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_is_reported() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = pair();
        register_settled(&mut poller, b.as_raw_fd(), Token(3));
        drop(a);
        let mut tokens = Vec::new();
        poller
            .wait(&mut tokens, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(tokens, [Token(3)]);
    }

    /// Regression: `wait` once passed a batch size of `max(capacity, 64)`
    /// to the kernel while pointing at the Vec's (possibly smaller)
    /// allocation. The buffer now starts empty and `wait` reserves its
    /// batch before every syscall — so a fresh poller must deliver a pile
    /// of simultaneously-ready fds without losing (or corrupting) any.
    #[test]
    fn many_ready_fds_arrive_through_a_fresh_buffer() {
        let mut poller = Poller::new().unwrap();
        let pipes: Vec<_> = (0..70).map(|_| WakePipe::new().unwrap()).collect();
        for (i, pipe) in pipes.iter().enumerate() {
            pipe.waker().wake();
            poller.register(pipe.read_fd(), Token(i as u64)).unwrap();
        }
        let mut tokens = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            poller
                .wait(&mut tokens, Some(Duration::from_millis(500)))
                .unwrap();
            seen.extend(tokens.iter().map(|t| t.0));
            if seen.len() == pipes.len() {
                break;
            }
        }
        assert_eq!(seen.len(), pipes.len());
        for pipe in &pipes {
            poller.deregister(pipe.read_fd()).unwrap();
        }
    }

    #[test]
    fn timeout_expires_without_events() {
        let mut poller = Poller::new().unwrap();
        // A pipe's read end is never writable and nothing is written.
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), Token(4)).unwrap();
        let mut tokens = Vec::new();
        let t0 = std::time::Instant::now();
        poller
            .wait(&mut tokens, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(tokens.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }
}
