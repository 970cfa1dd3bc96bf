//! What the harness needs from Linux beyond `std`: a wait on a socket
//! with a sub-millisecond timeout, and process accounting from `/proc`.
//!
//! An open-loop driver must wake for whichever comes first, a reply or
//! the next intended send time. `std`'s socket read timeout is rounded
//! to scheduler ticks (milliseconds), far coarser than the 25–80 µs
//! between sends, and a sleep-and-poll loop would add its period to
//! every measured latency. `ppoll(2)` waits on both with a
//! high-resolution timer, so it is declared here — the benchmark's only
//! foreign call.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_ulong, c_void};
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until `socket` is readable (or at end of stream / in error,
/// which the following `read` reports) or `timeout` passes. `Ok(true)`
/// means a `read` will not block.
pub fn wait_readable(socket: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd { fd: socket.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly aligned `repr(C)` values
    // matching the kernel's `struct pollfd` / `struct timespec` on
    // 64-bit Linux (enforced by the `compile_error!` in main.rs); nfds
    // is 1, the length of the `fds` array; a null sigmask leaves the
    // signal mask alone. `ppoll` writes only `fd.revents`.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            // A signal is not a failure: report "not yet" and let the
            // caller's loop wait again.
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Timer waits of a thread fire up to the thread's timer slack late
/// (50 µs by default) — as much as a whole request takes here. Sets the
/// calling thread's slack to the minimum. Only driver threads call
/// this, after the nodes are spawned, so the program under test keeps
/// the default. Best effort: `false` when the kernel lacks the file.
pub fn tighten_timer_slack() -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else { return false };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else { return false };
    std::fs::write(format!("/proc/{tid}/timerslack_ns"), "1").is_ok()
}

/// The cores this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (`0-1`, `0,2-3`, …), which respects cpusets.
pub fn allowed_cores() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(Vec::new, |l| parse_core_list(l.trim()));
    if list.is_empty() {
        vec![0]
    } else {
        list
    }
}

fn parse_core_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The core node `node`, its driver thread and (in process) its shard
/// worker share: thread-per-core placement, the library's own
/// `ShardPlacement` policy, applied from outside. Without it the
/// scheduler moves six busy threads between two cores every few
/// seconds and every metric flips between two values with them.
pub fn core_of(node: usize) -> usize {
    let cores = allowed_cores();
    cores[node % cores.len()]
}

/// Pins the calling thread (and what it forks) to `core`; a refused
/// pin leaves the thread floating.
pub fn pin_to(core: usize) -> bool {
    ccn_engine::pin_current_thread(core) == ccn_engine::PinOutcome::Pinned
}

/// Clock ticks per second of `/proc/<pid>/stat` times: `USER_HZ`, 100
/// on every Linux architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time and context switches of one process, summed over threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }
}

/// `(utime, stime)` in seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// Voluntary plus involuntary context switches from the text of a
/// `/proc/<pid>/task/<tid>/status`.
fn parse_ctx_switches(text: &str) -> u64 {
    text.lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(':')?;
            matches!(key, "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches")
                .then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// Samples process `pid` (`None` = this process).
pub fn sample_process(pid: Option<u32>) -> io::Result<ProcSample> {
    let root = pid.map_or_else(|| "/proc/self".to_owned(), |p| format!("/proc/{p}"));
    let stat = std::fs::read_to_string(format!("{root}/stat"))?;
    let (user_s, sys_s) = parse_stat(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unreadable /proc stat"))?;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(format!("{root}/task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(status) = std::fs::read_to_string(task?.path().join("status")) {
            ctx_switches += parse_ctx_switches(&status);
        }
    }
    Ok(ProcSample { user_s, sys_s, ctx_switches })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let text = "4242 (ccn (node) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 567 0 0 20 0 5 0 100 200 300";
        assert_eq!(parse_stat(text), Some((12.34, 5.67)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn core_lists_expand_ranges() {
        assert_eq!(parse_core_list("0-1"), vec![0, 1]);
        assert_eq!(parse_core_list("0,2-4,7"), vec![0, 2, 3, 4, 7]);
        assert!(parse_core_list("").is_empty());
        assert!(!allowed_cores().is_empty());
    }

    #[test]
    fn context_switches_sum_both_kinds() {
        let text = "Name:\tccn\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_ctx_switches(text), 127);
    }

    #[test]
    fn own_process_can_be_sampled() {
        let a = sample_process(None).unwrap();
        let b = sample_process(Some(std::process::id())).unwrap();
        assert!(b.cpu_s() >= a.cpu_s());
    }

    #[test]
    fn wait_readable_times_out_on_a_silent_socket_and_sees_data() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        assert!(!wait_readable(&server, Duration::from_millis(2)).unwrap());
        client.write_all(b"x").unwrap();
        assert!(wait_readable(&server, Duration::from_secs(5)).unwrap());
    }
}
