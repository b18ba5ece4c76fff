//! Raw `epoll`/`eventfd` bindings (Linux only).
//!
//! The workspace vendors no external crates, so — exactly like
//! [`crate::signal`] — this module declares the handful of C symbols
//! the event loop needs instead of pulling in `libc` (the symbols are
//! already linked: `std` links the platform libc). The raw calls are
//! wrapped in owning types that close their descriptor on drop, so the
//! `unsafe` surface stays confined to this file.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: error on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Condition: hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Condition: peer shut down its write side (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: one notification per readiness *change*;
/// the consumer must drain to `EAGAIN` before the next one.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness record returned by [`Epoll::wait`]. Layout matches
/// the kernel's `struct epoll_event`, which is packed on x86-64.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness/condition flags.
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// An empty record (used to size the wait buffer).
    #[must_use]
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments; a negative return is an error.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event for
        // the duration of the call; the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &raw mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for `events`, tagging its records with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for up to `timeout` (forever if `None`) and fill `events`
    /// with ready records; returns how many are valid. `EINTR` retries
    /// internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX),
            None => -1,
        };
        let cap = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
        loop {
            // SAFETY: `events` is a valid mutable buffer of `cap`
            // epoll_event records; the kernel writes at most `cap`.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this type owns exclusively.
        unsafe { close(self.fd) };
    }
}

/// An owned eventfd used as a cross-thread wakeup: another thread
/// [`fire`](EventFd::fire)s it to kick a loop out of [`Epoll::wait`].
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointer arguments; a negative return is an error.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for registration with an [`Epoll`].
    #[must_use]
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Make the fd readable (wake any epoll waiting on it). Errors are
    /// ignored: a full counter still reads as readable.
    pub fn fire(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` outlives the call; eventfd writes are exactly
        // 8 bytes.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Reset the fd to unreadable (consume pending wakeups).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is a valid 8-byte buffer for the read.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this type owns exclusively.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 42).unwrap();

        let mut buf = vec![EpollEvent::zeroed(); 4];
        // Nothing fired yet: a zero-timeout wait returns no events.
        let n = ep.wait(&mut buf, Some(Duration::from_millis(0))).unwrap();
        assert_eq!(n, 0);

        ev.fire();
        let n = ep.wait(&mut buf, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        let (events, data) = (buf[0].events, buf[0].data);
        assert_ne!(events & EPOLLIN, 0);
        assert_eq!(data, 42);

        ev.drain();
        let n = ep.wait(&mut buf, Some(Duration::from_millis(0))).unwrap();
        assert_eq!(n, 0, "drain must reset readability");
    }

    #[test]
    fn modify_switches_interest() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 1).unwrap();
        ev.fire();
        // Drop read interest: the pending wakeup must become invisible.
        ep.modify(ev.raw(), 0, 1).unwrap();
        let mut buf = vec![EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut buf, Some(Duration::from_millis(0))).unwrap();
        assert_eq!(n, 0);
        ep.modify(ev.raw(), EPOLLIN, 1).unwrap();
        let n = ep.wait(&mut buf, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        ep.delete(ev.raw()).unwrap();
    }
}
