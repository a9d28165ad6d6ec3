//! Process sampling from outside the program under test: CPU clocks,
//! context switches, `/proc/self` thread and memory figures, and a
//! counting global allocator.
//!
//! Linux on a 64-bit target only: the foreign declarations below mirror
//! glibc's `clock_gettime`/`getrusage` layouts there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then fourteen `long` counters of which
/// the last two are the voluntary and involuntary context switches.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` for
    // the duration of the call, and both clock ids exist on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed for clock {clock}");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Voluntary plus involuntary context switches of every thread of the
/// process, live or exited.
pub fn context_switches() -> u64 {
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, exclusively borrowed `struct rusage`
    // of the 64-bit Linux layout for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    (usage.counters[12] + usage.counters[13]) as u64
}

/// Nanoseconds since the first call in this process (the trace clock).
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Peak resident set size of the process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field_kib(&status, "VmHWM:").expect("VmHWM is present in /proc/self/status")
}

/// Resident set size of the process now (`VmRSS`), in KiB.
pub fn rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field_kib(&status, "VmRSS:").expect("VmRSS is present in /proc/self/status")
}

/// The machine's CPU time so far, in clock ticks, as `(steal, total)`
/// from the first line of `/proc/stat`: steal is time the hypervisor ran
/// something else while this guest's CPUs wanted to run. `(0, 0)` where
/// the file is unreadable.
pub fn cpu_steal_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_stat_steal(&text))
        .unwrap_or((0, 0))
}

/// Share of the machine's CPU time that was stolen between two
/// [`cpu_steal_ticks`] readings; 0 where `/proc/stat` was unreadable.
pub fn steal_share(start: (u64, u64), end: (u64, u64)) -> f64 {
    stats::mean(
        end.0.saturating_sub(start.0) as f64,
        end.1.saturating_sub(start.1) as f64,
    )
}

/// Parses `(steal, total)` ticks from the `cpu` line of `/proc/stat`.
pub fn parse_stat_steal(text: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Parses one `Name:   1234 kB` line of a `/proc/*/status` file.
pub fn status_field_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// The ids of every live thread of this process.
pub fn thread_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// CPU time of each listed thread of this process, in nanoseconds, from
/// `/proc/self/task/<tid>/schedstat`. Threads that already exited are
/// left out.
pub fn threads_cpu_ns(tids: &[u64]) -> BTreeMap<u64, u64> {
    tids.iter()
        .filter_map(|&tid| {
            let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
            Some((tid, parse_schedstat_cpu_ns(&text)?))
        })
        .collect()
}

/// The first field of a `schedstat` line: time spent on the CPU, in ns.
pub fn parse_schedstat_cpu_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and allocated bytes while
/// counting is switched on (only the traced phase turns it on, so the
/// untraced end-to-end figures pay one relaxed load per allocation).
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting only touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and allocated bytes counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_schedstat_parsers_read_the_kernel_formats() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4242 kB\n";
        assert_eq!(status_field_kib(status, "VmHWM:"), Some(4242));
        assert_eq!(status_field_kib(status, "VmRSS:"), None);
        assert_eq!(parse_schedstat_cpu_ns("695025 1080780 3\n"), Some(695025));
        assert_eq!(parse_schedstat_cpu_ns(""), None);
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 3 0\n";
        assert_eq!(parse_stat_steal(stat), Some((35, 1000)));
        assert_eq!(parse_stat_steal("intr 1 2\n"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        let tids = thread_ids();
        assert!(!tids.is_empty());
        assert!(!threads_cpu_ns(&tids).is_empty());
        assert!(peak_rss_kib() > 0);
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > 0);
        let _ = context_switches();
    }
}
