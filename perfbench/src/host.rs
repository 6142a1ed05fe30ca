//! The benchmark's only readers of host state: the monotonic wall clock,
//! the process CPU clock, and the process's peak resident memory.
//!
//! Everything the tuners compute is a deterministic function of seeds and
//! history; host time is observed here and nowhere else, so the rest of the
//! crate stays free of clock reads.
//!
//! End-to-end host times use the process CPU clock: on a shared virtual
//! machine the wall clock also counts time the hypervisor gives to other
//! guests (steal) and time spent waiting on a contended disk, which moved
//! wall-clock campaign times by 2× between runs of the same build, while
//! CPU time stayed within a few percent.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    #[allow(clippy::disallowed_methods)] // the benchmark's one wall-clock read
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[must_use]
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f`, returning its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.secs())
}

/// Runs `f`, returning its result and the process CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - start)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux process CPU clock");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed so far by every thread of this process, exited
/// worker threads included.
///
/// # Panics
///
/// If the kernel rejects the clock id, which Linux has defined since 2.6.12.
#[must_use]
#[allow(unsafe_code)]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `out`,
    // which points at a live `Timespec` laid out as the C struct (two
    // 64-bit fields on 64-bit Linux, enforced by the `compile_error!`
    // above); the clock id is a kernel constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Machine-wide `(steal, total)` CPU jiffies so far (`/proc/stat`), or
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
