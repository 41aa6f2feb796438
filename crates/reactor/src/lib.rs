//! # recoil-reactor — the event-driven half of the transport
//!
//! A dependency-free readiness loop toolkit: everything `recoil-net`
//! needs to serve thousands of concurrent connections from one thread,
//! built directly on Linux's syscalls (no `mio`, no `tokio`).
//!
//! The crate provides four orthogonal pieces; the server loop composes
//! them:
//!
//! - [`poller::Poller`] — readiness notification: edge-triggered `epoll`
//!   through a thin libc FFI ([`sys`]), the one backend. Every fd is
//!   registered once for read, write and peer hangup and never modified,
//!   and `wait` yields tokens. An edge fires once, so after an event the
//!   caller *must* drain the fd until `WouldBlock`.
//! - [`slab::Slab`] — pooled per-connection state. Dense slots addressed
//!   by generation-checked [`Token`]s (stale readiness events can't
//!   alias a recycled slot), with slot *parking*: a removed connection's
//!   buffers stay in the vacant slot and are handed to the next insert,
//!   so accepting a connection on a warm slab allocates nothing.
//! - [`deadline::DeadlineQueue`] — reactor-managed timeouts. One live
//!   deadline per token, lazily-invalidated binary heap; the head bounds
//!   the poll timeout, expiry hands back tokens to evict.
//! - [`wake::WakePipe`] / [`wake::Waker`] — cross-thread wakeups via a
//!   nonblocking self-pipe, so CPU-bound work finished on a thread pool
//!   can interrupt a blocked `wait` and complete back into the loop.
//!
//! The intended shape of a loop built from these (this is what
//! `recoil-net`'s server does):
//!
//! ```text
//! register(listener, LISTENER_TOKEN);
//! register(wake_pipe.read_fd(), WAKE_TOKEN);
//! loop {
//!     poller.wait(&mut tokens, deadlines.next_deadline() - now);
//!     for token in &tokens {
//!         match token {
//!             LISTENER_TOKEN => accept until WouldBlock, slab.insert_with(..),
//!             WAKE_TOKEN     => wake_pipe.drain(); collect completions,
//!             token          => if let Some(conn) = slab.get_mut(token) {
//!                                  pump conn's state machine until WouldBlock
//!                              } // else: stale event for a closed slot — ignore
//!         }
//!     }
//!     deadlines.expired(now, &mut timed_out); // evict slow peers
//! }
//! ```
//!
//! Nothing in this crate knows about frames, rANS, or the content server;
//! it is plain readiness plumbing and is tested as such.

// Audited crate: `unsafe` is allowed only in `poller.rs` and `wake.rs` (the
// epoll and pipe syscalls), each stating its invariant; the workspace lints
// deny it elsewhere.

#[cfg(not(target_os = "linux"))]
compile_error!("recoil-reactor is Linux-only: it is built on epoll and pipe2");

pub mod deadline;
pub mod poller;
pub mod slab;
#[doc(hidden)]
pub mod sys;
pub mod token;
pub mod wake;

pub use deadline::DeadlineQueue;
pub use poller::Poller;
pub use slab::{Slab, SlabStats};
pub use token::Token;
pub use wake::{WakePipe, Waker};
