//! A minimal edge-triggered readiness poller over Linux `epoll`: the
//! only `unsafe` code in the crate. std links libc but exposes no
//! readiness API and the build is offline, so the three epoll calls are
//! bound by hand behind one concrete [`Poller`]. Nothing in this
//! repository can build or run a second backend (Linux-only CI, a
//! `/proc`-reading soak test and benchmark), so any other target is a
//! compile error rather than an untested scan fallback.
//!
//! Edge-triggered: a descriptor is reported when it *becomes* readable,
//! writable or hung up, not while it stays so. The caller owes each
//! report a drain — read to `WouldBlock` or EOF (not to a short read: a
//! FIN right behind the last bytes gets no edge of its own), write to
//! `WouldBlock` — and a descriptor it chooses not to serve costs
//! nothing until that changes.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!("sa-server's TCP front end is epoll-only (README, \"Platform\")");

use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// One readiness report: the kernel's `struct epoll_event`, packed on
/// x86-64 (and only there) so its 32- and 64-bit ABIs agree.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    flags: u32,
    token: u64,
}

const _: () = assert!(
    std::mem::size_of::<Event>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 },
    "Event must match the kernel's struct epoll_event"
);

impl Event {
    /// The token the reported descriptor was registered under.
    pub(crate) fn token(self) -> u64 {
        self.token
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut Event) -> i32;
    fn epoll_wait(epfd: RawFd, events: *mut Event, maxevents: i32, timeout_ms: i32) -> i32;
}

/// One epoll instance plus the socket pair that wakes its sleeper.
pub(crate) struct Poller {
    epoll: OwnedFd,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl Poller {
    /// The token [`Poller::wait`] reports after a [`Poller::wake`].
    pub(crate) const WAKE: u64 = u64::MAX;

    /// A fresh epoll instance with its wake channel registered.
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: takes no pointers; a bad flag would be `EINVAL`.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the kernel just returned `fd` to this call and nothing
        // else knows it, so `OwnedFd` is its sole owner.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let poller = Poller { epoll, wake_rx, wake_tx };
        poller.register(poller.wake_rx.as_fd(), Poller::WAKE)?;
        Ok(poller)
    }

    /// Registers `fd` once, edge-triggered, for readable / writable /
    /// peer-hangup; every report about it carries `token`. Closing `fd`
    /// ends the registration.
    pub(crate) fn register(&self, fd: BorrowedFd<'_>, token: u64) -> io::Result<()> {
        let mut event = Event { flags: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token };
        // SAFETY: both descriptors are open for the call (an `OwnedFd`,
        // a `BorrowedFd`); `event` is a live `epoll_event` (layout
        // asserted above) that the kernel only reads.
        let rc = unsafe {
            epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd.as_raw_fd(), &mut event)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Sleeps until a registered descriptor has an edge to report, a
    /// [`Poller::wake`] arrives or `timeout` (rounded up to the
    /// millisecond) passes; returns the filled prefix of `events`. A
    /// signal (`EINTR`) is a wake-up with nothing to report; any other
    /// failure means a broken instance or an empty buffer, and panics.
    pub(crate) fn wait<'a>(&self, events: &'a mut [Event], timeout: Duration) -> &'a [Event] {
        let capacity = i32::try_from(events.len()).unwrap_or(i32::MAX);
        let timeout_ms = i32::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
        // SAFETY: `events` is an exclusively borrowed buffer of at least
        // `capacity` `epoll_event`-layout slots, all the kernel writes;
        // `self.epoll` is open.
        let rc =
            unsafe { epoll_wait(self.epoll.as_raw_fd(), events.as_mut_ptr(), capacity, timeout_ms) };
        let ready = usize::try_from(rc).unwrap_or_else(|_| {
            let err = io::Error::last_os_error();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "epoll_wait: {err}");
            0
        });
        let ready = &events[..ready];
        if ready.iter().any(|e| e.token() == Poller::WAKE) {
            // Drain: a full channel would swallow the next wake, since a
            // write that fails makes no edge.
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        ready
    }

    /// Makes the current or next [`Poller::wait`] report
    /// [`Poller::WAKE`]. Callable from any thread.
    pub(crate) fn wake(&self) {
        // `WouldBlock`: the channel already holds an unconsumed wake.
        // Nothing else can fail on a pair this struct keeps open.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::thread::{JoinHandleExt, RawPthread};
    use std::time::Instant;

    fn tokens(ready: &[Event]) -> Vec<u64> {
        ready.iter().map(|e| e.token()).collect()
    }

    /// A poller whose wake channel has already made its one
    /// registration-time report (a fresh socket is writable).
    fn settled() -> Poller {
        let poller = Poller::new().unwrap();
        let mut events = [Event::default(); 4];
        assert_eq!(tokens(poller.wait(&mut events, Duration::ZERO)), [Poller::WAKE]);
        assert!(poller.wait(&mut events, Duration::ZERO).is_empty());
        poller
    }

    #[test]
    fn wakes_coalesce_and_a_flooded_channel_still_wakes() {
        let poller = settled();
        let mut events = [Event::default(); 4];
        // Far more wakes than the socket pair buffers: the overflow is
        // dropped, which is only sound because `wait` drains.
        for _ in 0..100_000 {
            poller.wake();
        }
        for _ in 0..2 {
            assert_eq!(tokens(poller.wait(&mut events, Duration::ZERO)), [Poller::WAKE]);
            assert!(poller.wait(&mut events, Duration::ZERO).is_empty(), "one edge per burst");
            poller.wake();
        }
    }

    #[test]
    fn a_timeout_is_rounded_up_not_down_to_a_busy_loop() {
        let poller = settled();
        let started = Instant::now();
        assert!(poller.wait(&mut [Event::default(); 4], Duration::from_micros(1)).is_empty());
        assert!(started.elapsed() >= Duration::from_millis(1));
    }

    const SIGUSR1: i32 = 10;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn pthread_kill(thread: RawPthread, signum: i32) -> i32;
    }

    extern "C" fn on_signal(_: i32) {}

    #[test]
    fn a_signal_during_wait_is_a_wakeup_with_nothing_to_report() {
        // SAFETY: `on_signal` has the handler ABI and does nothing, so
        // it is async-signal-safe; no other test of this binary relies
        // on SIGUSR1's disposition.
        unsafe { signal(SIGUSR1, on_signal) };
        let poller = settled();
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            let reported = poller.wait(&mut [Event::default(); 4], Duration::from_secs(60)).len();
            (reported, started.elapsed())
        });
        // `epoll_wait` is never restarted after a handler runs. Repeat:
        // the first signal may land before the thread is in the call.
        while !waiter.is_finished() {
            // SAFETY: the handle is not yet joined, so its pthread id
            // is valid (for an exited thread too); the signal has a
            // handler installed above.
            assert_eq!(unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) }, 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        let (reported, waited) = waiter.join().unwrap();
        assert_eq!(reported, 0);
        assert!(waited < Duration::from_secs(30), "the signal did not interrupt the wait");
    }
}
