//! [`Waker`]: an `eventfd`-backed cross-thread wake-up for a blocked
//! [`crate::Poller::wait`].
//!
//! The event loop registers the waker's fd like any connection; other
//! threads call [`Waker::wake`] after pushing work onto the loop's inbox,
//! and the loop drains the fd when the token fires. Wakes coalesce in the
//! kernel counter, so a burst of hand-offs costs one event, and waking
//! is safe from any thread at any time (including after the loop exited —
//! the write just accumulates in the counter).

use crate::sys;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// A cross-thread wake-up handle. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Waker {
    fd: i32,
    /// Fast-path suppression: `wake` is a no-op while a wake is already
    /// pending, so bursts do one syscall, not one each.
    pending: AtomicBool,
}

impl Waker {
    /// A fresh waker (non-blocking eventfd).
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: sys::eventfd_create()?,
            pending: AtomicBool::new(false),
        })
    }

    /// The raw fd to register with a [`crate::Poller`] (readable interest).
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Wakes the poller. Idempotent until [`Waker::drain`] runs.
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return; // a wake is already in flight
        }
        let _ = sys::eventfd_write(self.fd);
    }

    /// Clears the pending wake-up; the event loop calls this when the
    /// waker's token fires, *before* draining its inbox (so work pushed
    /// concurrently re-wakes rather than being lost).
    ///
    /// The eventfd is read *before* `pending` clears. In the other order a
    /// `wake` landing between the two steps would see `false`, write, and
    /// have that write eaten by the read, leaving `pending` stuck at `true`
    /// over an empty counter: every later `wake` would then be a no-op.
    pub fn drain(&self) {
        sys::eventfd_drain(self.fd);
        self.pending.store(false, Ordering::Release);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Interest, Poller};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wake_unblocks_a_waiting_poller() {
        let waker = Arc::new(Waker::new().unwrap());
        let mut poller = Poller::new(4).unwrap();
        poller.register(waker.fd(), 0, Interest::READ).unwrap();

        let remote = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        waker.drain();
        t.join().unwrap();

        // Drained: the next zero-timeout wait sees nothing.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn wakes_coalesce_until_drained() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake();
        waker.wake();
        let mut poller = Poller::new(4).unwrap();
        poller.register(waker.fd(), 5, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        waker.drain();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn no_wake_is_lost_to_a_concurrent_drain() {
        // Two producers hammer `wake` while a consumer waits and drains, so
        // wakes land between the drain's two steps. A lost wake-up leaves
        // the waker silent for good, and the final wake below never fires.
        let waker = Arc::new(Waker::new().unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let (waker, stop) = (Arc::clone(&waker), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        waker.wake();
                    }
                })
            })
            .collect();
        let mut poller = Poller::new(4).unwrap();
        poller.register(waker.fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        for _ in 0..100_000 {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            if events.is_empty() {
                break; // silent although the producers spin: a wake was lost
            }
            waker.drain();
        }
        stop.store(true, Ordering::Relaxed);
        for p in producers {
            p.join().unwrap();
        }
        // Settle: consume whatever the producers left pending.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        if !events.is_empty() {
            waker.drain();
        }

        waker.wake();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(1)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "the final wake was lost: {events:?}"
        );
    }
}
