//! Process clocks: wall and CPU time of the timed program calls, the peak
//! resident set, and the fixed calibration loop the run header reports.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every thread
/// of the process, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds the whole process has consumed so far.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU time accumulated over the program calls of one round.
/// Everything outside [`Spent::time`] (checks, scratch clean-up) is left
/// out, so checks inflate neither `run_s` nor `cpu_s`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spent {
    /// Wall seconds inside timed calls.
    pub wall: f64,
    /// Process CPU seconds inside timed calls.
    pub cpu: f64,
}

impl Spent {
    /// Run `f`, adding its wall and process CPU time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c0 = process_cpu_secs();
        let t0 = Instant::now();
        let out = f();
        self.wall += t0.elapsed().as_secs_f64();
        self.cpu += process_cpu_secs() - c0;
        out
    }
}

/// Wall seconds of a fixed, single-threaded, CPU-bound loop. Printed before
/// and after the workload: when both read slow, the host slowed the run.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..30_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `q`-quantile by linear interpolation between order statistics — the
/// same rule as `lossburst_analysis::stats::quantile`, implemented here so
/// the checks recompute the program's statistics independently.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    if lo == hi {
        s[lo]
    } else {
        s[lo] * (1.0 - frac) + s[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = process_cpu_secs();
        calibrate();
        assert!(process_cpu_secs() > c0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
