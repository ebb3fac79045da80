//! A minimal readiness facility for the event-driven server core:
//! `epoll(7)` on Linux, `poll(2)` elsewhere on unix — with **no `libc`
//! crate**.
//!
//! The build image is offline, so in the spirit of the workspace's
//! `shims/`, the two or three syscalls the event loop needs are
//! declared directly as `extern "C"` symbols: on every unix target,
//! `std` already links the platform C library, so `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `poll` and `close` are present at link
//! time, and errno travels through [`io::Error::last_os_error`].
//!
//! [`Poller`] is the small common interface: register a file
//! descriptor under a `u64` token with a read/write interest, then
//! [`wait`](Poller::wait) — up to an optional timeout — for
//! [`PollEvent`]s. Both backends are
//! **level-triggered**, so a handler that does not fully drain a ready
//! socket is re-notified on the next wait — the event loop can stay
//! simple and correct rather than chase edge-triggered starvation
//! bugs. The fallback backend rebuilds a `pollfd` array per wait from
//! its registration table; that is O(fds) per wake, which is exactly
//! what `epoll` exists to fix, but it keeps non-Linux unix hosts
//! working with identical semantics.

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub(crate) token: u64,
    /// The fd has bytes to read (or a pending accept), or the peer
    /// hung up (reading then observes EOF/reset — level-triggered, so
    /// folding hangup into readability loses nothing).
    pub(crate) readable: bool,
    /// The fd can accept more bytes without blocking.
    pub(crate) writable: bool,
}

/// Read/write interest for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

pub(crate) use imp::Poller;

/// A wait timeout in the milliseconds both syscalls take: `-1` blocks
/// indefinitely, and a partial millisecond rounds up, so a deadline is
/// never polled for early and then spun on.
fn timeout_ms(timeout: Option<std::time::Duration>) -> std::os::raw::c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            ms.min(std::os::raw::c_int::MAX as u128) as std::os::raw::c_int
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Interest, PollEvent};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    // The kernel ABI packs epoll_event on x86-64 (matching the 32-bit
    // layout); other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// The Linux backend: one epoll instance owning its fd.
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; the flag is the
            // kernel's own EPOLL_CLOEXEC constant.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = ev;
            let ptr = ev
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (DEL, where the kernel ignores it)
            // or points at a live stack EpollEvent for the call's
            // duration; `self.epfd` is the epoll fd this Poller owns.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, ptr) })?;
            Ok(())
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some(event_of(token, interest)))
        }

        pub(crate) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some(event_of(token, interest)))
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until at least one registered fd is ready or
        /// `timeout` (`None` = never) passes, appending the
        /// notifications to `out`.
        pub(crate) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let timeout = timeout_ms(timeout);
            let n = loop {
                // SAFETY: `buf` is a live array of `buf.len()` events;
                // the kernel writes at most `maxevents` entries.
                match cvt(unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout)
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let token = ev.data;
                out.push(PollEvent {
                    token,
                    // Error/hangup surfaces as readability: the next
                    // read returns 0 or the real error.
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `self.epfd` is a valid fd this Poller opened and
            // exclusively owns; nothing uses it after drop.
            let _ = unsafe { close(self.epfd) };
        }
    }

    fn event_of(token: u64, interest: Interest) -> EpollEvent {
        let mut events = 0;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        EpollEvent {
            events,
            data: token,
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{timeout_ms, Interest, PollEvent};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::sync::Mutex;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// The portable unix backend: a registration table rebuilt into a
    /// `pollfd` array on every wait.
    pub(crate) struct Poller {
        fds: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Mutex::new(HashMap::new()),
            })
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.fds.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout = timeout_ms(timeout);
            let (mut pollfds, tokens): (Vec<PollFd>, Vec<u64>) = {
                let fds = self.fds.lock().unwrap();
                fds.iter()
                    .map(|(&fd, &(token, interest))| {
                        let mut events = 0;
                        if interest.read {
                            events |= POLLIN;
                        }
                        if interest.write {
                            events |= POLLOUT;
                        }
                        (
                            PollFd {
                                fd,
                                events,
                                revents: 0,
                            },
                            token,
                        )
                    })
                    .unzip()
            };
            loop {
                // SAFETY: `pollfds` is a live array of `len()` entries
                // for the duration of the call.
                let ret = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as c_ulong, timeout) };
                if ret >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for (pfd, &token) in pollfds.iter().zip(&tokens) {
                let revents = pfd.revents;
                if revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut byte = [0u8; 1];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut byte).unwrap(), 1);
    }

    #[test]
    fn write_interest_fires_and_can_be_dropped() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        // An idle socket with write interest is immediately writable
        // (level-triggered).
        poller
            .register(
                a.as_raw_fd(),
                1,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Dropping write interest must stop the storm; prove the
        // reregister call itself is accepted.
        poller.reregister(a.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_surfaces_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        let mut buf = [0u8; 8];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut buf).unwrap(), 0, "EOF after hangup");
    }

    #[test]
    fn wait_returns_empty_after_its_timeout() {
        let (_a, b) = UnixStream::pair().unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(std::time::Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "nothing was written: {events:?}");
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(std::time::Duration::from_micros(1))), 1);
    }
}
