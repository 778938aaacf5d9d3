//! Raw Linux syscall shims for the reactor: `epoll`, `timerfd`,
//! `eventfd`, and nonblocking `connect` — without the libc crate,
//! mirroring the repo's zero-dependency RNG/codec stance.
//!
//! This is the only module in the workspace allowed to use `unsafe`:
//! each shim is a thin `core::arch::asm!` syscall wrapper plus the
//! `#[repr(C)]` argument structs the kernel ABI wants, immediately
//! converted into safe `io::Result` values and RAII fd owners. The
//! reactor above is entirely safe code.
//!
//! Supported targets: `x86_64-linux` and `aarch64-linux`. Elsewhere
//! the crate still compiles and every entry point returns `ENOSYS`
//! (`io::ErrorKind::Unsupported`), so every launch fails with it.
#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::RawFd;
use std::time::Duration;

// ---- the syscall instruction --------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const SOCKET: usize = 41;
    pub const CONNECT: usize = 42;
    pub const GETSOCKOPT: usize = 55;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const TIMERFD_CREATE: usize = 283;
    pub const TIMERFD_SETTIME: usize = 286;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;

    /// Invokes a raw syscall; returns the kernel's raw result
    /// (negative errno on failure).
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for syscall `n` — pointers
    /// must be live and correctly sized for the kernel to read/write.
    pub unsafe fn syscall6(
        n: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const SOCKET: usize = 198;
    pub const CONNECT: usize = 203;
    pub const GETSOCKOPT: usize = 209;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const TIMERFD_CREATE: usize = 85;
    pub const TIMERFD_SETTIME: usize = 86;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;

    /// See the x86_64 twin.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for syscall `n`.
    pub unsafe fn syscall6(
        n: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a0 => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") a5,
            options(nostack),
        );
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub const READ: usize = 0;
    pub const WRITE: usize = 0;
    pub const CLOSE: usize = 0;
    pub const SOCKET: usize = 0;
    pub const CONNECT: usize = 0;
    pub const GETSOCKOPT: usize = 0;
    pub const EPOLL_CTL: usize = 0;
    pub const EPOLL_PWAIT: usize = 0;
    pub const TIMERFD_CREATE: usize = 0;
    pub const TIMERFD_SETTIME: usize = 0;
    pub const EVENTFD2: usize = 0;
    pub const EPOLL_CREATE1: usize = 0;

    /// Unsupported target: every call reports `ENOSYS` so the reactor
    /// fails loudly at launch while the crate still compiles.
    ///
    /// # Safety
    ///
    /// Trivially safe — it never enters the kernel.
    pub unsafe fn syscall6(
        _n: usize,
        _a0: usize,
        _a1: usize,
        _a2: usize,
        _a3: usize,
        _a4: usize,
        _a5: usize,
    ) -> isize {
        -38 // ENOSYS
    }
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// ---- ABI constants and structs -------------------------------------

pub(crate) const EPOLLIN: u32 = 0x1;
pub(crate) const EPOLLOUT: u32 = 0x4;
pub(crate) const EPOLLERR: u32 = 0x8;
pub(crate) const EPOLLHUP: u32 = 0x10;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: readiness is reported once per transition,
/// so every read loop must drain to `EAGAIN`.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: usize = 1;
#[cfg(test)]
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const CLOCK_MONOTONIC: usize = 1;
const TFD_NONBLOCK: usize = 0x800;
const TFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x80000;
const AF_INET: usize = 2;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0x800;
const SOCK_CLOEXEC: usize = 0x80000;
const SOL_SOCKET: usize = 1;
const SO_ERROR: usize = 4;
const EINPROGRESS: i32 = 115;

/// One readiness report. The kernel's layout is packed on x86_64
/// (a 12-byte struct) and naturally aligned elsewhere.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct ITimerSpec {
    interval: Timespec,
    value: Timespec,
}

/// A raw fd owned by this handle: closed on drop. Used for the fds
/// std has no type for (epoll, timerfd, eventfd).
#[derive(Debug)]
pub(crate) struct OwnedFd(RawFd);

impl OwnedFd {
    pub(crate) fn raw(&self) -> RawFd {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // Errors on close of an owned, not-yet-closed fd are not
        // actionable here.
        let _ = check(unsafe { sys::syscall6(sys::CLOSE, self.0 as usize, 0, 0, 0, 0, 0) });
    }
}

// ---- epoll ---------------------------------------------------------

pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
    let fd = check(unsafe { sys::syscall6(sys::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
    Ok(OwnedFd(fd as RawFd))
}

fn epoll_ctl(epfd: RawFd, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let ev = EpollEvent {
        events,
        data: token,
    };
    check(unsafe {
        sys::syscall6(
            sys::EPOLL_CTL,
            epfd as usize,
            op,
            fd as usize,
            std::ptr::addr_of!(ev) as usize,
            0,
            0,
        )
    })?;
    Ok(())
}

pub(crate) fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
}

pub(crate) fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
}

/// Explicit deregistration. The reactor itself relies on close-time
/// auto-removal (an fd leaves every epoll set when its last reference
/// closes); this exists for tests that keep the fd alive.
#[cfg(test)]
pub(crate) fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Waits for readiness; `timeout_ms = -1` blocks until an event.
/// A signal interruption reports as zero events, not an error.
pub(crate) fn epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    // epoll_pwait with a null sigmask behaves exactly like epoll_wait;
    // the pwait spelling exists on every 64-bit syscall table while
    // plain epoll_wait does not (aarch64 dropped it).
    let ret = unsafe {
        sys::syscall6(
            sys::EPOLL_PWAIT,
            epfd as usize,
            events.as_mut_ptr() as usize,
            events.len(),
            timeout_ms as usize,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(e) => Err(e),
    }
}

// ---- timerfd / eventfd ---------------------------------------------

pub(crate) fn timerfd_create() -> io::Result<OwnedFd> {
    let fd = check(unsafe {
        sys::syscall6(
            sys::TIMERFD_CREATE,
            CLOCK_MONOTONIC,
            TFD_NONBLOCK | TFD_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })?;
    Ok(OwnedFd(fd as RawFd))
}

/// Arms a one-shot expiry `delay` from now. A zero delay would disarm
/// the timer, so it is bumped to one nanosecond — "fire immediately".
pub(crate) fn timerfd_arm(fd: RawFd, delay: Duration) -> io::Result<()> {
    let delay = delay.max(Duration::from_nanos(1));
    let spec = ITimerSpec {
        interval: Timespec::default(),
        value: Timespec {
            sec: delay.as_secs() as i64,
            nsec: delay.subsec_nanos() as i64,
        },
    };
    check(unsafe {
        sys::syscall6(
            sys::TIMERFD_SETTIME,
            fd as usize,
            0,
            std::ptr::addr_of!(spec) as usize,
            0,
            0,
            0,
        )
    })?;
    Ok(())
}

pub(crate) fn eventfd_create() -> io::Result<OwnedFd> {
    let fd =
        check(unsafe { sys::syscall6(sys::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
    Ok(OwnedFd(fd as RawFd))
}

/// Posts one wakeup to an eventfd (used by the coordinator to nudge a
/// worker out of `epoll_wait`).
pub(crate) fn eventfd_signal(fd: RawFd) -> io::Result<()> {
    let one: u64 = 1;
    check(unsafe {
        sys::syscall6(
            sys::WRITE,
            fd as usize,
            std::ptr::addr_of!(one) as usize,
            8,
            0,
            0,
            0,
        )
    })?;
    Ok(())
}

/// Drains a timerfd/eventfd counter so edge-triggered registration
/// re-arms. Errors (including `EAGAIN` on an already-empty counter)
/// are deliberately ignored.
pub(crate) fn drain_counter(fd: RawFd) {
    let mut buf = [0u8; 8];
    let _ = check(unsafe {
        sys::syscall6(
            sys::READ,
            fd as usize,
            buf.as_mut_ptr() as usize,
            8,
            0,
            0,
            0,
        )
    });
}

// ---- nonblocking connect -------------------------------------------

/// Starts a nonblocking TCP connect to a loopback/IPv4 address and
/// returns the socket as a std `TcpStream` (the only unsafe part is
/// adopting the raw fd). The connect is usually still in flight:
/// register for `EPOLLOUT` and check [`take_socket_error`] when it
/// reports writable.
pub(crate) fn tcp_connect_start(addr: SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "reactor dials IPv4 only",
        ));
    };
    let fd = check(unsafe {
        sys::syscall6(
            sys::SOCKET,
            AF_INET,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })? as RawFd;
    // struct sockaddr_in: family, port (BE), addr (BE), 8 bytes zero.
    let mut sa = [0u8; 16];
    sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
    sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
    sa[4..8].copy_from_slice(&v4.ip().octets());
    let ret =
        unsafe { sys::syscall6(sys::CONNECT, fd as usize, sa.as_ptr() as usize, 16, 0, 0, 0) };
    // SAFETY: `fd` is a fresh socket owned by nobody else; TcpStream
    // takes over closing it (including on the error path below).
    let stream = unsafe {
        use std::os::fd::FromRawFd;
        TcpStream::from_raw_fd(fd)
    };
    match check(ret) {
        Ok(_) => Ok(stream),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(stream),
        Err(e) => Err(e),
    }
}

/// Reads and clears `SO_ERROR` — the verdict of an in-flight connect
/// once the socket reports writable.
pub(crate) fn take_socket_error(fd: RawFd) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    check(unsafe {
        sys::syscall6(
            sys::GETSOCKOPT,
            fd as usize,
            SOL_SOCKET,
            SO_ERROR,
            std::ptr::addr_of_mut!(err) as usize,
            std::ptr::addr_of_mut!(len) as usize,
            0,
        )
    })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn epoll_sees_timerfd_expiry() {
        let ep = epoll_create().expect("epoll_create1");
        let tfd = timerfd_create().expect("timerfd_create");
        epoll_add(ep.raw(), tfd.raw(), EPOLLIN, 42).expect("ctl add");
        timerfd_arm(tfd.raw(), Duration::from_millis(1)).expect("arm");
        let mut events = [EpollEvent::default(); 4];
        let n = epoll_wait(ep.raw(), &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        drain_counter(tfd.raw());
    }

    #[test]
    fn eventfd_wakes_a_waiter() {
        let ep = epoll_create().expect("epoll_create1");
        let efd = eventfd_create().expect("eventfd2");
        epoll_add(ep.raw(), efd.raw(), EPOLLIN, 7).expect("ctl add");
        eventfd_signal(efd.raw()).expect("signal");
        let mut events = [EpollEvent::default(); 4];
        let n = epoll_wait(ep.raw(), &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        drain_counter(efd.raw());
        // Drained: a zero-timeout wait reports nothing.
        let n = epoll_wait(ep.raw(), &mut events, 0).expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn nonblocking_connect_completes_via_epollout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let ep = epoll_create().expect("epoll_create1");
        let stream = tcp_connect_start(addr).expect("connect start");
        {
            use std::os::fd::AsRawFd;
            epoll_add(ep.raw(), stream.as_raw_fd(), EPOLLOUT, 1).expect("ctl add");
            let mut events = [EpollEvent::default(); 4];
            let n = epoll_wait(ep.raw(), &mut events, 2000).expect("wait");
            assert_eq!(n, 1);
            take_socket_error(stream.as_raw_fd()).expect("connected cleanly");
            epoll_del(ep.raw(), stream.as_raw_fd()).expect("ctl del");
        }
        let (_conn, _) = listener.accept().expect("accepted");
    }

    #[test]
    fn connect_to_dead_port_reports_so_error() {
        // Bind-then-drop frees a port nobody listens on; loopback RST
        // arrives almost immediately.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let ep = epoll_create().expect("epoll_create1");
        // Loopback may refuse synchronously (also a pass) or via the
        // EINPROGRESS → EPOLLOUT → SO_ERROR path this exercises.
        let Ok(stream) = tcp_connect_start(addr) else {
            return;
        };
        use std::os::fd::AsRawFd;
        epoll_add(ep.raw(), stream.as_raw_fd(), EPOLLOUT, 1).expect("ctl add");
        let mut events = [EpollEvent::default(); 4];
        let n = epoll_wait(ep.raw(), &mut events, 2000).expect("wait");
        assert_eq!(n, 1);
        assert!(take_socket_error(stream.as_raw_fd()).is_err());
    }
}
