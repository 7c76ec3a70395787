//! Minimal readiness-polling syscall shims.
//!
//! The workspace vendors every dependency, so there is no `libc` or
//! `mio` to lean on. This module declares exactly the handful of C
//! symbols the reactor needs — `std` already links the platform libc,
//! so the declarations resolve at link time — and wraps them in a tiny
//! safe [`Poller`] / [`Waker`] pair:
//!
//! * on Linux, [`Poller`] is an `epoll` instance (level-triggered, one
//!   `u64` token per registration);
//! * on other unixes it falls back to `poll(2)` over a registration
//!   table (O(n) per wait, but the semantics are identical);
//! * [`Waker`] is the classic self-pipe: any thread writes one byte to
//!   wake the reactor out of its wait.
//!
//! Everything is level-triggered on purpose: the reactor re-computes
//! each connection's interest set after every state change, and
//! level-triggered readiness makes "stop reading while the execution
//! tier is saturated, resume later" a pure interest change with no
//! risk of a lost edge.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

#[cfg(not(unix))]
compile_error!("the RDS reactor requires a unix host (epoll or poll(2))");

extern "C" {
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Re-issues `listen(2)` on an already-listening socket to widen its
/// accept queue past std's fixed 128 (the kernel clamps to
/// `somaxconn`). A 128-deep queue overflows under a connection flood,
/// and each overflow costs the connecting peer a full SYN-retransmit
/// timeout — the reactor's connection table is sized in the thousands,
/// so its accept queue must be too. Best-effort: on failure the
/// original backlog stands.
pub(crate) fn widen_listen_backlog(fd: RawFd, backlog: usize) {
    let backlog = c_int::try_from(backlog.min(65_535)).unwrap_or(c_int::MAX);
    let _ = unsafe { listen(fd, backlog) };
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

/// `struct rlimit` — `rlim_t` is 64-bit on every supported target.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// Raises the soft `RLIMIT_NOFILE` toward `want` file descriptors,
/// best-effort (the hard limit, or for root whatever the kernel
/// allows, caps it). Returns the soft limit in effect afterwards, or
/// the current one when nothing could be changed. Callers that expect
/// thousands of connections (`mbd-server`, `examples/conn_flood.rs`) call
/// it before binding; the library itself never changes process limits.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    // Try the straightforward raise first (may exceed the hard limit
    // when running as root), then fall back to the hard limit.
    for attempt in
        [RLimit { cur: want, max: want.max(lim.max) }, RLimit { cur: lim.max, max: lim.max }]
    {
        if unsafe { setrlimit(RLIMIT_NOFILE, &attempt) } == 0 {
            let mut now = RLimit { cur: 0, max: 0 };
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut now) } == 0 {
                return now.cur;
            }
        }
    }
    lim.cur
}

/// Puts `fd` into nonblocking mode.
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest { readable: true, writable: false };
}

/// One readiness report from [`Poller::wait`]. Hangups and errors are
/// folded into `readable` (a read will observe the EOF/error) and also
/// flagged so the reactor can drop the connection without a read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
}

/// Self-pipe wakeup: `wake()` may be called from any thread; the
/// reactor registers [`Waker::fd`] for readability and calls `drain()`
/// when it fires.
#[derive(Debug)]
pub(crate) struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let waker = Waker { read_fd: fds[0], write_fd: fds[1] };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the reactor. A full pipe means a wake is already pending,
    /// so the short write is deliberately ignored.
    pub(crate) fn wake(&self) {
        let byte = 1u8;
        let _ = unsafe { write(self.write_fd, (&raw const byte).cast(), 1) };
    }

    /// Consumes queued wake bytes so the level-triggered poller quiets
    /// down until the next `wake()`.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, sink.as_mut_ptr().cast(), sink.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

fn millis(timeout: Option<Duration>) -> c_int {
    match timeout {
        // Round up so a 100µs timeout does not become a busy-loop 0.
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
        None => -1,
    }
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(all(unix, not(target_os = "linux")))]
pub(crate) use pollfd::Poller;

#[cfg(target_os = "linux")]
mod epoll {
    use super::*;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    // The kernel ABI packs the struct on x86-64 (12 bytes).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    fn mask(interest: Interest) -> u32 {
        // RDHUP rides with read interest only: a half-closed peer must
        // not re-trigger a level-triggered poller once the reactor has
        // seen the EOF and dropped read interest.
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance holding every reactor registration.
    #[derive(Debug)]
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask(interest), data: token as u64 };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn register(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn reregister(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
        }

        /// Waits for readiness, filling `out`. A signal interruption
        /// returns an empty set rather than an error.
        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, millis(timeout))
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &buf[..n as usize] {
                let bits = { *ev }.events;
                let token = { *ev }.data as usize;
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod pollfd {
    use super::*;
    use std::collections::HashMap;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_uint, timeout: c_int) -> c_int;
    }

    /// `poll(2)` fallback: a registration table rebuilt into a pollfd
    /// array on every wait. O(n), but behaviourally identical to the
    /// epoll backend.
    #[derive(Debug)]
    pub(crate) struct Poller {
        registered: parking_lot::Mutex<HashMap<RawFd, (usize, Interest)>>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller { registered: parking_lot::Mutex::new(HashMap::new()) })
        }

        pub(crate) fn register(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.lock().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn reregister(
            &self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.lock().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let (mut fds, tokens): (Vec<PollFd>, Vec<usize>) = {
                let reg = self.registered.lock();
                let mut fds = Vec::with_capacity(reg.len());
                let mut tokens = Vec::with_capacity(reg.len());
                for (&fd, &(token, interest)) in reg.iter() {
                    let mut events = 0i16;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd { fd, events, revents: 0 });
                    tokens.push(token);
                }
                (fds, tokens)
            };
            let n = unsafe {
                poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_uint, millis(timeout))
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_wakes_the_poller_across_threads() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 7, Interest::READ).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        waker.drain();
        t.join().unwrap();

        // Drained: an immediate wait reports nothing.
        poller.wait(&mut events, Some(Duration::from_millis(1))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readability_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server_side.as_raw_fd(), 42, Interest::READ).unwrap();

        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        poller.deregister(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_changes_gate_writability_reports() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        // Read-only interest: an idle writable socket must stay quiet.
        poller.register(server_side.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        // Adding write interest surfaces it immediately.
        poller
            .reregister(server_side.as_raw_fd(), 1, Interest { readable: true, writable: true })
            .unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }

    #[test]
    fn nofile_limit_query_is_sane() {
        let now = raise_nofile_limit(0);
        assert!(now > 0, "soft RLIMIT_NOFILE should be queryable");
    }
}
