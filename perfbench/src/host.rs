//! Host-domain measurements: process CPU time, peak memory, and the host
//! fingerprint that makes two result sets comparable.
//!
//! Everything here reads the host clock or the host's identity; none of it
//! is ever fed back into a simulated output (DESIGN.md §14).

use std::time::Duration;

/// Process-wide resource usage (all threads, including exited workers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, in bytes.
    pub peak_rss_bytes: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux: two `timeval`s, then
/// fourteen `long` counters of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// The calling process's resource usage so far.
pub fn usage() -> Usage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `Rusage` whose layout matches the C
    // `struct rusage` on 64-bit Linux; `getrusage(RUSAGE_SELF, _)` only
    // writes that struct and keeps no pointer to it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    Usage {
        cpu: tv(&r.utime) + tv(&r.stime),
        peak_rss_bytes: r.maxrss as u64 * 1024,
    }
}

/// What a result set was measured on. Two sets are comparable only when
/// their fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism (`nproc`).
    pub nproc: usize,
}

impl Fingerprint {
    /// This host's fingerprint.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// One-line JSON form, printed with every result set.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rustc\": {}, \"cpu\": {}, \"nproc\": {}}}",
            json_string(&self.rustc),
            json_string(&self.cpu),
            self.nproc
        )
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu > before.cpu);
        assert!(after.peak_rss_bytes > 0);
    }

    #[test]
    fn fingerprint_json_escapes() {
        let f = Fingerprint {
            rustc: "rustc 1.0".into(),
            cpu: "a \"quoted\" cpu".into(),
            nproc: 2,
        };
        assert_eq!(
            f.to_json(),
            r#"{"rustc": "rustc 1.0", "cpu": "a \"quoted\" cpu", "nproc": 2}"#
        );
    }
}
