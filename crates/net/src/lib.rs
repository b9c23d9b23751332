//! `molq-net` — dependency-free readiness event-loop primitives.
//!
//! The MOLQ server multiplexes many mostly-idle keep-alive connections onto
//! a few event loops instead of parking a thread per connection. This crate
//! provides that substrate in the std-only discipline of the rest of the
//! repository — no `mio`, no `libc` crate, just a thin unsafe shim over the
//! handful of syscalls a readiness loop needs:
//!
//! * [`sys`] — raw `epoll_create1` / `epoll_ctl` / `epoll_wait` /
//!   `eventfd` declarations plus the constants they consume, every unsafe
//!   block confined to this one module;
//! * [`Poller`] — a safe epoll wrapper: register file descriptors with a
//!   caller-chosen token and an [`Interest`] (readable / writable),
//!   re-arm, deregister, and block in [`Poller::wait`] for [`Event`]s;
//! * [`Waker`] — an `eventfd`-backed cross-thread wake-up so another
//!   thread can interrupt a blocked `wait` (new connections, shutdown).
//!
//! The poller is **level-triggered**: an fd with unread input (or writable
//! buffer space, when writable interest is armed) reports ready on every
//! `wait` until the condition clears. Level triggering keeps connection
//! state machines simple — a handler that processes only part of the
//! readable data is re-notified instead of wedging — at the cost of
//! requiring interest to be dropped once it is no longer wanted.
//!
//! Everything here is Linux-only (`epoll` is a Linux API). On other
//! platforms the crate compiles empty.

#[cfg(target_os = "linux")]
pub mod poll;
#[cfg(target_os = "linux")]
pub mod sys;
#[cfg(target_os = "linux")]
pub mod wake;

#[cfg(target_os = "linux")]
pub use poll::{Event, Interest, Poller};
#[cfg(target_os = "linux")]
pub use wake::Waker;
