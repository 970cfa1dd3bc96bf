//! Readiness polling for a node's serve workers: `epoll` plus an
//! `eventfd` wake-up, through raw syscalls.
//!
//! The workspace vendors no libc, so — in the dependency discipline
//! of [`crate::affinity`] — `epoll_create1(2)`, `epoll_ctl(2)`,
//! `epoll_pwait(2)` and `eventfd2(2)` are inline-assembly syscalls on
//! Linux x86_64 and aarch64. Everywhere else [`Poller::new`] fails
//! with `Unsupported` and a node refuses to bind: there is no portable
//! second path.
//!
//! Interest is level-triggered throughout: a source the caller has not
//! drained is reported again by the next [`Poller::wait`], so a wake
//! cannot be lost and no wait needs a periodic timeout.

// Every unsafe block below is one syscall instruction with register
// operands, or the adoption of a descriptor that syscall just
// returned; pointers passed to the kernel reference live caller
// memory of the stated length.
#![allow(unsafe_code)]

/// Interest and readiness bit: the source has bytes (or EOF) to read.
pub(super) const READABLE: u32 = 0x001;
/// Interest and readiness bit: the source takes bytes again.
pub(super) const WRITABLE: u32 = 0x004;
/// Readiness bits the kernel reports whatever the interest: error, or
/// both directions closed.
const CLOSED: u32 = 0x008 | 0x010;

/// One readiness report (the kernel's `struct epoll_event`, which is
/// packed on x86_64 only).
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(super) struct Event {
    events: u32,
    token: u64,
}

impl Event {
    /// The token the source was registered under.
    pub(super) fn token(self) -> u64 {
        self.token
    }

    /// The connection behind the source is gone (reset, or closed both
    /// ways): nothing more will be read from or written to it.
    pub(super) fn closed(self) -> bool {
        self.events & CLOSED != 0
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    use super::Event;
    use std::fs::File;
    use std::io::{self, Read as _, Write as _};
    use std::os::fd::{AsRawFd, FromRawFd as _, OwnedFd, RawFd};
    use std::time::Duration;

    pub(in crate::net) use std::os::fd::AsRawFd as Source;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub(super) const EPOLL_CREATE1: usize = 291;
        pub(super) const EPOLL_CTL: usize = 233;
        pub(super) const EPOLL_PWAIT: usize = 281;
        pub(super) const EVENTFD2: usize = 290;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub(super) const EPOLL_CREATE1: usize = 20;
        pub(super) const EPOLL_CTL: usize = 21;
        pub(super) const EPOLL_PWAIT: usize = 22;
        pub(super) const EVENTFD2: usize = 19;
    }

    const O_CLOEXEC: usize = 0o2_000_000;
    const O_NONBLOCK: usize = 0o4_000;
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_MOD: usize = 3;
    const EINTR: isize = -4;

    /// `syscall(nr, a0, …, a5)`; the raw kernel result (`-errno` on
    /// failure).
    ///
    /// # Safety
    ///
    /// Every argument the kernel treats as a pointer must reference
    /// memory valid for the access that syscall makes.
    unsafe fn syscall(nr: usize, args: [usize; 6]) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: one `syscall` instruction under the x86_64 Linux ABI
        // (rdi, rsi, rdx, r10, r8, r9; rcx and r11 are clobbered by
        // the instruction). Pointer validity is the caller's contract.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") args[0],
                in("rsi") args[1],
                in("rdx") args[2],
                in("r10") args[3],
                in("r8") args[4],
                in("r9") args[5],
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: one `svc 0` under the aarch64 Linux ABI (x8 = nr,
        // x0–x5 = arguments, result in x0). Pointer validity is the
        // caller's contract.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") args[0] as isize => ret,
                in("x1") args[1],
                in("x2") args[2],
                in("x3") args[3],
                in("x4") args[4],
                in("x5") args[5],
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        usize::try_from(ret).map_err(|_| io::Error::from_raw_os_error((-ret) as i32))
    }

    /// Adopts a descriptor a syscall just returned.
    fn adopt(ret: isize) -> io::Result<OwnedFd> {
        let fd = RawFd::try_from(check(ret)?).expect("the kernel returns descriptors that fit");
        // SAFETY: `fd` was just returned to this call by the kernel as
        // a fresh descriptor; nothing else owns or closes it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub(in crate::net) struct Poller {
        epoll: OwnedFd,
    }

    impl Poller {
        pub(in crate::net) fn new() -> io::Result<Self> {
            // SAFETY: no pointer arguments.
            let ret = unsafe { syscall(nr::EPOLL_CREATE1, [O_CLOEXEC, 0, 0, 0, 0, 0]) };
            Ok(Self { epoll: adopt(ret)? })
        }

        fn ctl(
            &self,
            op: usize,
            source: &impl Source,
            token: u64,
            interest: u32,
        ) -> io::Result<()> {
            let mut event = Event { events: interest, token };
            let args = [
                self.epoll.as_raw_fd() as usize,
                op,
                source.as_raw_fd() as usize,
                std::ptr::addr_of_mut!(event) as usize,
                0,
                0,
            ];
            // SAFETY: the one pointer is `event`, a live local in the
            // kernel's `struct epoll_event` layout, read during the
            // call only.
            check(unsafe { syscall(nr::EPOLL_CTL, args) }).map(drop)
        }

        /// Registers `source` under `token`. Closing the source's last
        /// descriptor removes it again; nothing else ever has to.
        pub(in crate::net) fn add(
            &self,
            source: &impl Source,
            token: u64,
            interest: u32,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source, token, interest)
        }

        /// Replaces a registered source's interest (0 silences it
        /// until the next `modify`; a closed connection is reported
        /// regardless).
        pub(in crate::net) fn modify(
            &self,
            source: &impl Source,
            token: u64,
            interest: u32,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source, token, interest)
        }

        /// Blocks until a source is ready or `timeout` (rounded up to
        /// the kernel's milliseconds; `None` = forever) runs out, and
        /// returns how many reports it wrote to the front of `events`.
        pub(in crate::net) fn wait(
            &self,
            events: &mut [Event],
            timeout: Option<Duration>,
        ) -> usize {
            let millis = timeout.map_or(-1, |t| {
                i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX) as isize
            });
            let args = [
                self.epoll.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len().min(i32::MAX as usize),
                millis as usize,
                0,
                0,
            ];
            loop {
                // SAFETY: the kernel writes at most `events.len()`
                // reports into `events`, which is live and exclusively
                // borrowed for the call; the signal mask is null.
                match unsafe { syscall(nr::EPOLL_PWAIT, args) } {
                    EINTR => {}
                    ret => {
                        return check(ret).expect("epoll_pwait on a live poller and buffer");
                    }
                }
            }
        }
    }

    /// A counter another thread bumps to make the owner's
    /// [`Poller::wait`] return.
    pub(in crate::net) struct EventFd {
        file: File,
    }

    impl EventFd {
        pub(in crate::net) fn new() -> io::Result<Self> {
            // SAFETY: no pointer arguments.
            let ret = unsafe { syscall(nr::EVENTFD2, [0, O_CLOEXEC | O_NONBLOCK, 0, 0, 0, 0]) };
            Ok(Self { file: File::from(adopt(ret)?) })
        }

        /// Makes the descriptor readable. Cannot fail short of the
        /// counter overflowing, which leaves it readable all the same.
        pub(in crate::net) fn signal(&self) {
            let _ = (&self.file).write(&1u64.to_ne_bytes());
        }

        /// Resets the counter, so the descriptor reads not-ready until
        /// the next [`EventFd::signal`].
        pub(in crate::net) fn reset(&self) {
            let _ = (&self.file).read(&mut [0u8; 8]);
        }
    }

    impl AsRawFd for EventFd {
        fn as_raw_fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    use super::Event;
    use std::io;
    use std::time::Duration;

    pub(in crate::net) trait Source {}
    impl<T> Source for T {}

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "the serve poller needs Linux epoll"))
    }

    pub(in crate::net) struct Poller;

    impl Poller {
        pub(in crate::net) fn new() -> io::Result<Self> {
            unsupported()
        }

        pub(in crate::net) fn add(&self, _: &impl Source, _: u64, _: u32) -> io::Result<()> {
            unsupported()
        }

        pub(in crate::net) fn modify(&self, _: &impl Source, _: u64, _: u32) -> io::Result<()> {
            unsupported()
        }

        pub(in crate::net) fn wait(&self, _: &mut [Event], _: Option<Duration>) -> usize {
            0
        }
    }

    pub(in crate::net) struct EventFd;

    impl EventFd {
        pub(in crate::net) fn new() -> io::Result<Self> {
            unsupported()
        }

        pub(in crate::net) fn signal(&self) {}

        pub(in crate::net) fn reset(&self) {}
    }
}

pub(super) use sys::{EventFd, Poller};

#[cfg(all(test, target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn readiness_is_level_triggered_and_tokens_round_trip() {
        let poller = Poller::new().expect("poller");
        let wake = EventFd::new().expect("eventfd");
        poller.add(&wake, u64::MAX, READABLE).expect("add eventfd");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        poller.add(&server, 7, READABLE).expect("add socket");
        let mut events = [Event::default(); 4];
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)), 0, "nothing is ready yet");

        wake.signal();
        wake.signal();
        assert_eq!(poller.wait(&mut events, None), 1);
        assert_eq!(events[0].token(), u64::MAX);
        assert_eq!(poller.wait(&mut events, None), 1, "an unread source is reported again");
        wake.reset();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_micros(1))), 0, "reset clears it");

        client.write_all(b"x").expect("write");
        assert_eq!(poller.wait(&mut events, None), 1);
        assert_eq!(events[0].token(), 7);
        assert!(!events[0].closed());
        poller.modify(&server, 7, 0).expect("silence");
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)), 0, "no interest, no report");
        poller.modify(&server, 9, READABLE | WRITABLE).expect("re-arm under a new token");
        assert_eq!(poller.wait(&mut events, None), 1);
        assert_eq!(events[0].token(), 9);
        drop(server);
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)), 0, "a closed source is gone");
    }
}
