//! Thin libc FFI for the poller and the wake pipe.
//!
//! `std` already links libc, so declaring the handful of syscall wrappers
//! we need keeps this crate dependency-free: `epoll` for the poller and
//! `pipe2` for the cross-thread wake channel. Everything here is `unsafe`
//! raw-fd plumbing; the safe wrappers live in [`crate::poller`] and
//! [`crate::wake`].

use std::os::raw::{c_int, c_void};

// --- epoll -----------------------------------------------------------------

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

/// The kernel's `epoll_event`. On x86 the kernel declares it packed (the
/// 64-bit data field sits at offset 4); other architectures use natural
/// alignment.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
}

// --- pipes and fd bookkeeping ----------------------------------------------

/// `O_NONBLOCK` / `O_CLOEXEC` as on every architecture this workspace
/// targets (x86-64 and aarch64 agree).
pub const O_NONBLOCK: c_int = 0o4000;
pub const O_CLOEXEC: c_int = 0o2000000;

extern "C" {
    pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    pub fn close(fd: c_int) -> c_int;
}

/// Retries a syscall returning -1/EINTR.
pub fn cvt_retry(mut f: impl FnMut() -> c_int) -> std::io::Result<c_int> {
    loop {
        let r = f();
        if r >= 0 {
            return Ok(r);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Milliseconds for an epoll timeout: `None` blocks forever, zero-ish
/// durations round **up** so a pending deadline is never spun on.
pub fn timeout_ms(timeout: Option<std::time::Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms.min(i32::MAX as u128) as c_int
            }
        }
    }
}
