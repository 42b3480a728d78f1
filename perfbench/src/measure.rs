//! Summary statistics, the simulated-result digest, process memory and
//! the CPU-time clock every timed figure reads.

use std::os::raw::{c_int, c_long};

/// Samples a tail percentile needs beyond it.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Whether percentile `p` of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 + 1e-9 >= TAIL_MIN_BEYOND
}

/// FNV-1a fold of one 64-bit word into `acc`.
pub fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of a byte string (fingerprints reported as text).
pub fn fnv_str(acc: u64, s: &str) -> u64 {
    s.bytes().fold(acc, |a, b| fnv(a, b as u64))
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time of this process so far, nanoseconds: the time its threads
/// have spent running, summed over threads. Unlike wall time it leaves
/// out time spent waiting for a CPU — behind other processes, or stolen
/// by the hypervisor where the kernel accounts steal time — so
/// co-tenants on a shared host move it far less. Work on any thread the
/// library starts still counts.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A stopwatch on the process CPU clock ([`cpu_ns`]).
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(u64);

impl CpuTimer {
    /// Start timing now.
    pub fn start() -> Self {
        CpuTimer(cpu_ns())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        cpu_ns().saturating_sub(self.0) as f64 * 1e-9
    }
}

/// High-water resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = t.elapsed_s();
        let t = CpuTimer::start();
        let mut x = 0u64;
        while t.elapsed_s() < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 0.01, "sleeping read {slept} s");
        assert!(t.elapsed_s() >= 0.01 && x > 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(100, 90.0) && !tail_supported(99, 90.0));
        assert!(tail_supported(1000, 99.0) && !tail_supported(999, 99.0));
        assert!(tail_supported(20, 50.0));
    }
}
