//! The few operating-system facilities the load generator and the report
//! need beyond `std`: waiting on several sockets with a sub-millisecond
//! timeout, tight timer slack, thread and process CPU time, and peak
//! resident set.
//!
//! On Linux/x86-64 the waits use the raw `ppoll` syscall (no libc in the
//! dependency tree, as in `topmine_serve`'s event loop). Elsewhere they
//! fall back to short sleeps, which blur latencies by the sleep quantum.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod raw {
    const SYS_PRCTL: usize = 157;
    const SYS_PPOLL: usize = 271;
    const PR_SET_TIMERSLACK: usize = 29;
    pub const POLLIN: i16 = 0x1;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// # Safety
    /// Every argument must be valid for syscall `n` as the kernel reads it.
    unsafe fn syscall5(n: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
        let ret: isize;
        // SAFETY: the caller guarantees the arguments match syscall `n`;
        // the `syscall` instruction clobbers only rcx and r11, declared here.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Wait until one of `fds` is readable or `timeout` passes.
    pub fn ppoll(fds: &mut [PollFd], timeout: std::time::Duration) {
        let ts = Timespec {
            sec: timeout.as_secs() as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
        // pollfd structs the kernel may write `revents` into; `ts` lives
        // across the call; a null signal mask leaves the mask unchanged.
        // EINTR and other errors only end the wait early, which callers
        // handle by polling their sockets again.
        unsafe {
            syscall5(
                SYS_PPOLL,
                fds.as_mut_ptr() as usize,
                fds.len(),
                &ts as *const Timespec as usize,
                0,
                0,
            );
        }
    }

    /// Shrink the calling thread's timer slack to 1 ns so timed waits wake
    /// on schedule instead of up to 50 µs late.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
        // caller memory.
        unsafe {
            syscall5(SYS_PRCTL, PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Set up the calling thread for precise timed waits.
pub fn tight_timer_slack() {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    raw::tight_timer_slack();
}

/// Block until one of the sockets `fds` has bytes to read, or `timeout`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn wait_readable(fds: &[i32], timeout: Duration) {
    let mut polls: Vec<raw::PollFd> = fds
        .iter()
        .map(|&fd| raw::PollFd {
            fd,
            events: raw::POLLIN,
            revents: 0,
        })
        .collect();
    raw::ppoll(&mut polls, timeout);
}

/// Block until one of the sockets `fds` has bytes to read, or `timeout`.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn wait_readable(_fds: &[i32], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
}

/// CPU time the calling thread has run, from `/proc/thread-self/schedstat`
/// (nanosecond resolution). `None` where the file does not exist.
pub fn thread_cpu() -> Option<Duration> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let nanos: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(nanos))
}

/// CPU time all live threads of this process have run, summed from
/// `/proc/self/task/*/schedstat`. `None` where those files do not exist.
pub fn process_cpu() -> Option<Duration> {
    let mut nanos = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        nanos += text
            .split_whitespace()
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Some(Duration::from_nanos(nanos))
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
